#include "core/sharded_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "agg/aggregator.hpp"
#include "common/env.hpp"
#include "obs/flight.hpp"

namespace dbsp {

const char* to_string(MatcherBackend backend) {
  switch (backend) {
    case MatcherBackend::Counting: return "counting";
    case MatcherBackend::Dnf: return "dnf";
    case MatcherBackend::Naive: return "naive";
  }
  return "?";
}

std::size_t resolve_shard_count(std::size_t requested) {
  if (requested > 0) return requested;
  const std::int64_t from_env = env_int(
      "DBSP_SHARDS", static_cast<std::int64_t>(ThreadPool::hardware_threads()));
  return from_env > 0 ? static_cast<std::size_t>(from_env) : 1;
}

ShardedEngine::ShardedEngine(const Schema& schema, ShardedEngineOptions options)
    : options_(options) {
  options_.shards = resolve_shard_count(options_.shards);
  if (options_.agg_fallback_pct == static_cast<std::size_t>(-1)) {
    options_.agg_fallback_pct = static_cast<std::size_t>(
        std::max<std::int64_t>(0, env_int("DBSP_AGG_FALLBACK_PCT", 10)));
  }
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    switch (options_.backend) {
      case MatcherBackend::Counting:
        shards_.push_back(std::make_unique<ShardMatcher>(
            std::in_place_type<CountingMatcher>, schema));
        break;
      case MatcherBackend::Dnf:
        shards_.push_back(
            std::make_unique<ShardMatcher>(std::in_place_type<DnfMatcher>, schema));
        break;
      case MatcherBackend::Naive:
        shards_.push_back(
            std::make_unique<ShardMatcher>(std::in_place_type<NaiveMatcher>));
        break;
    }
  }
  batch_scratch_.resize(shards_.size());
}

std::size_t ShardedEngine::shard_of(SubscriptionId id) const {
  // splitmix64 finalizer: avalanches dense ids so shards stay balanced.
  std::uint64_t x = id.value() + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % shards_.size());
}

void ShardedEngine::attach_aggregation(agg::SubscriptionAggregator* aggregator) {
  aggregator_ = aggregator;
}

bool ShardedEngine::add(Subscription& sub) {
  ShardMatcher& m = *shards_[shard_of(sub.id())];
  bool added = true;
  if (auto* counting = std::get_if<CountingMatcher>(&m)) {
    counting->add(sub);
  } else if (auto* dnf = std::get_if<DnfMatcher>(&m)) {
    added = dnf->add(sub, options_.max_dnf_conjunctions);
  } else {
    std::get<NaiveMatcher>(m).add(sub);
  }
  if (added && aggregator_ != nullptr) aggregator_->add(sub);
  return added;
}

void ShardedEngine::remove(SubscriptionId id) {
  std::visit([id](auto& matcher) { matcher.remove(id); }, *shards_[shard_of(id)]);
  if (aggregator_ != nullptr) aggregator_->remove(id);
}

void ShardedEngine::reindex(Subscription& sub) {
  ShardMatcher& m = *shards_[shard_of(sub.id())];
  auto* counting = std::get_if<CountingMatcher>(&m);
  if (counting == nullptr) {
    throw std::logic_error("sharded engine: reindex requires the counting backend");
  }
  counting->reindex(sub);
  if (aggregator_ != nullptr) aggregator_->refresh(sub);
}

bool ShardedEngine::contains(SubscriptionId id) const {
  const ShardMatcher& m = *shards_[shard_of(id)];
  if (const auto* counting = std::get_if<CountingMatcher>(&m)) {
    return counting->contains(id);
  }
  if (const auto* dnf = std::get_if<DnfMatcher>(&m)) return dnf->contains(id);
  return std::get<NaiveMatcher>(m).contains(id);
}

std::size_t ShardedEngine::subscription_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += std::visit([](const auto& m) { return m.subscription_count(); }, *shard);
  }
  return total;
}

std::size_t ShardedEngine::association_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    if (const auto* counting = std::get_if<CountingMatcher>(shard.get())) {
      total += counting->association_count();
    } else if (const auto* dnf = std::get_if<DnfMatcher>(shard.get())) {
      total += dnf->association_count();
    }
  }
  return total;
}

std::size_t ShardedEngine::associations_of(SubscriptionId id) const {
  return counting_shard(shard_of(id)).associations_of(id);
}

void ShardedEngine::match_shard(std::size_t shard, const Event& event,
                                std::vector<SubscriptionId>& out) {
  std::visit([&](auto& matcher) { matcher.match(event, out); }, *shards_[shard]);
}

std::size_t ShardedEngine::aggregated_budget() const {
  if (options_.agg_fallback_pct == 0) {
    return std::numeric_limits<std::size_t>::max();
  }
  return aggregator_->subscription_count() * options_.agg_fallback_pct / 100;
}

bool ShardedEngine::use_aggregated_path() const {
  return aggregator_ != nullptr &&
         aggregated_budget() >= aggregator_->subgroup_slots();
}

void ShardedEngine::match(const Event& event, std::vector<SubscriptionId>& out,
                          obs::TraceBuilder* trace) {
  const auto base = static_cast<std::ptrdiff_t>(out.size());
  const bool probed = use_aggregated_path();
  bool matched = false;
  if (probed) {
    obs::ScopedSpan span(trace, obs::TraceStage::kAggProbe,
                         /*detailed_only=*/true);
    matched = aggregator_->match_within(event, out, aggregated_budget());
    span.set_detail(static_cast<std::uint64_t>(out.size() -
                                               static_cast<std::size_t>(base)));
  }
  if (!matched) {
    // Span only when the probe actually declined; the plain sharded path
    // records per-shard spans without a fallback wrapper.
    std::optional<obs::ScopedSpan> fallback;
    if (probed) {
      fallback.emplace(trace, obs::TraceStage::kAggFallback,
                       /*detailed_only=*/true);
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      obs::ScopedSpan span(trace, obs::TraceStage::kShardMatch,
                           /*detailed_only=*/true);
      span.set_detail(s);
      match_shard(s, event, out);
    }
  }
  std::sort(out.begin() + base, out.end());
}

ThreadPool& ShardedEngine::pool() {
  if (!pool_) pool_ = std::make_unique<ThreadPool>(shards_.size() - 1);
  return *pool_;
}

void ShardedEngine::match_batch_aggregated(
    std::span<const Event> events, std::vector<std::vector<SubscriptionId>>& out) {
  out.resize(events.size());
  // With the aggregation front stage every probe sees the whole (read-only)
  // subgroup index, so the pool parallelizes over events instead of shards:
  // each worker fills a disjoint chunk of result rows. Budget-declined
  // events are flagged (disjoint element writes) and re-run through the
  // shard-parallel path afterwards.
  const std::size_t budget = aggregated_budget();
  std::vector<char> declined(events.size(), 0);
  const std::size_t workers =
      std::min(shards_.size(), events.size() == 0 ? std::size_t{1} : events.size());
  auto run_chunk = [&](std::size_t w) {
    for (std::size_t e = w; e < events.size(); e += workers) {
      out[e].clear();
      if (aggregator_->match_within(events[e], out[e], budget)) {
        std::sort(out[e].begin(), out[e].end());
      } else {
        declined[e] = 1;
      }
    }
  };
  if (workers <= 1) {
    run_chunk(0);
  } else {
    std::vector<std::future<void>> futures;
    futures.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
      futures.push_back(pool().submit([&run_chunk, w] { run_chunk(w); }));
    }
    std::exception_ptr error;
    try {
      run_chunk(0);
    } catch (...) {
      error = std::current_exception();
    }
    for (auto& f : futures) f.wait();
    if (error) std::rethrow_exception(error);
    for (auto& f : futures) f.get();
  }

  std::vector<std::size_t> rest;
  for (std::size_t e = 0; e < events.size(); ++e) {
    if (declined[e] != 0) rest.push_back(e);
  }
  if (rest.empty()) return;
  std::vector<Event> rest_events;
  rest_events.reserve(rest.size());
  for (const std::size_t e : rest) rest_events.push_back(events[e]);
  std::vector<std::vector<SubscriptionId>> rest_out;
  match_batch_sharded(rest_events, rest_out);
  for (std::size_t k = 0; k < rest.size(); ++k) {
    out[rest[k]] = std::move(rest_out[k]);
  }
}

void ShardedEngine::match_batch(std::span<const Event> events,
                                std::vector<std::vector<SubscriptionId>>& out) {
  if (use_aggregated_path()) {
    match_batch_aggregated(events, out);
    return;
  }
  match_batch_sharded(events, out);
}

void ShardedEngine::match_batch_sharded(
    std::span<const Event> events, std::vector<std::vector<SubscriptionId>>& out) {
  out.resize(events.size());
  if (shards_.size() == 1) {
    for (std::size_t e = 0; e < events.size(); ++e) {
      out[e].clear();
      match_shard(0, events[e], out[e]);
      std::sort(out[e].begin(), out[e].end());
    }
    return;
  }

  auto run_shard = [&](std::size_t s) {
    auto& rows = batch_scratch_[s];
    rows.resize(events.size());
    for (std::size_t e = 0; e < events.size(); ++e) {
      rows[e].clear();
      match_shard(s, events[e], rows[e]);
    }
  };

  // Shards 1..N-1 on the pool, shard 0 on the calling thread.
  std::vector<std::future<void>> futures;
  futures.reserve(shards_.size() - 1);
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    futures.push_back(pool().submit([&run_shard, s] { run_shard(s); }));
  }
  // The pool tasks reference this call's stack, so every path — including
  // shard 0 throwing — must wait for all of them before unwinding. Only
  // then surface the first failure.
  std::exception_ptr error;
  try {
    run_shard(0);
  } catch (...) {
    error = std::current_exception();
  }
  for (auto& f : futures) f.wait();
  if (error) std::rethrow_exception(error);
  for (auto& f : futures) f.get();

  for (std::size_t e = 0; e < events.size(); ++e) {
    out[e].clear();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const auto& row = batch_scratch_[s][e];
      out[e].insert(out[e].end(), row.begin(), row.end());
    }
    std::sort(out[e].begin(), out[e].end());
  }
}

std::vector<std::vector<SubscriptionId>> ShardedEngine::match_batch(
    std::span<const Event> events) {
  std::vector<std::vector<SubscriptionId>> out;
  match_batch(events, out);
  return out;
}

CountingMatcher& ShardedEngine::counting_shard(std::size_t shard) {
  auto* counting = std::get_if<CountingMatcher>(shards_.at(shard).get());
  if (counting == nullptr) {
    throw std::logic_error("sharded engine: shard does not run the counting backend");
  }
  return *counting;
}

const CountingMatcher& ShardedEngine::counting_shard(std::size_t shard) const {
  const auto* counting = std::get_if<CountingMatcher>(shards_.at(shard).get());
  if (counting == nullptr) {
    throw std::logic_error("sharded engine: shard does not run the counting backend");
  }
  return *counting;
}

CountingMatcher::Counters ShardedEngine::counters() const {
  CountingMatcher::Counters total;
  for (const auto& shard : shards_) {
    if (const auto* counting = std::get_if<CountingMatcher>(shard.get())) {
      const auto& c = counting->counters();
      total.events = std::max(total.events, c.events);  // every shard sees each event
      total.predicate_hits += c.predicate_hits;
      total.counter_increments += c.counter_increments;
      total.tree_evaluations += c.tree_evaluations;
      total.matches += c.matches;
    }
  }
  return total;
}

void ShardedEngine::reset_counters() {
  for (auto& shard : shards_) {
    if (auto* counting = std::get_if<CountingMatcher>(shard.get())) {
      counting->reset_counters();
    }
  }
}

std::vector<std::unique_ptr<PruningEngine>> make_sharded_pruning_engines(
    ShardedEngine& engine, const SelectivityEstimator& estimator,
    const PruneEngineConfig& config, const std::vector<Subscription*>& subs) {
  std::vector<std::unique_ptr<PruningEngine>> out;
  out.reserve(engine.shard_count());
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    out.push_back(std::make_unique<PruningEngine>(estimator, config,
                                                  &engine.counting_shard(s)));
  }
  for (Subscription* sub : subs) {
    out[engine.shard_of(sub->id())]->register_subscription(*sub);
  }
  return out;
}

}  // namespace dbsp
