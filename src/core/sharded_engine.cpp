#include "core/sharded_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "common/env.hpp"

namespace dbsp {

std::size_t resolve_shard_count(std::size_t requested) {
  if (requested > 0) return requested;
  const std::int64_t from_env = env_int(
      "DBSP_SHARDS", static_cast<std::int64_t>(ThreadPool::hardware_threads()));
  return from_env > 0 ? static_cast<std::size_t>(from_env) : 1;
}

ShardedEngine::ShardedEngine(const Schema& schema, ShardedEngineOptions options)
    : matcher_(schema), contexts_(resolve_shard_count(options.shards) - 1) {}

CountingMatcher& ShardedEngine::counting_shard(std::size_t shard) {
  if (shard != 0) throw std::out_of_range("engine: one index, shard 0");
  return matcher_;
}

const CountingMatcher& ShardedEngine::counting_shard(std::size_t shard) const {
  if (shard != 0) throw std::out_of_range("engine: one index, shard 0");
  return matcher_;
}

void ShardedEngine::match(const Event& event, std::vector<SubscriptionId>& out) {
  const auto base = static_cast<std::ptrdiff_t>(out.size());
  matcher_.match(event, out);
  std::sort(out.begin() + base, out.end());
}

void ShardedEngine::match_batch(std::span<const Event> events,
                                std::vector<std::vector<SubscriptionId>>& out) {
  out.resize(events.size());
  // Worker w matches the run [w * run, (w + 1) * run) on context w.
  const std::size_t run = (events.size() + worker_count() - 1) / worker_count();
  auto run_worker = [&](std::size_t w) {
    MatchContext& ctx = w == 0 ? matcher_.context() : contexts_[w - 1];
    const std::size_t end = std::min(events.size(), (w + 1) * run);
    for (std::size_t e = w * run; e < end; ++e) {
      out[e].clear();
      matcher_.match(events[e], out[e], ctx);
      std::sort(out[e].begin(), out[e].end());
    }
  };

  std::vector<std::future<void>> futures;
  for (std::size_t w = 1; w * run < events.size(); ++w) {
    if (!pool_) pool_ = std::make_unique<ThreadPool>(contexts_.size());
    futures.push_back(pool_->submit([&run_worker, w] { run_worker(w); }));
  }
  // The pool tasks reference this call's stack, so every path — including
  // worker 0 throwing — must wait for all of them before unwinding. Only
  // then surface the first failure.
  std::exception_ptr error;
  try {
    run_worker(0);
  } catch (...) {
    error = std::current_exception();
  }
  for (auto& f : futures) f.wait();
  if (error) std::rethrow_exception(error);
  for (auto& f : futures) f.get();
}

std::vector<std::vector<SubscriptionId>> ShardedEngine::match_batch(
    std::span<const Event> events) {
  std::vector<std::vector<SubscriptionId>> out;
  match_batch(events, out);
  return out;
}

CountingMatcher::Counters ShardedEngine::counters() const {
  CountingMatcher::Counters total = matcher_.counters();
  for (const MatchContext& ctx : contexts_) {
    const auto& c = ctx.counters();
    total.events += c.events;
    total.predicate_hits += c.predicate_hits;
    total.counter_increments += c.counter_increments;
    total.leaf_tests += c.leaf_tests;
    total.tree_evaluations += c.tree_evaluations;
    total.matches += c.matches;
    total.composite_probes += c.composite_probes;
    total.composite_hits += c.composite_hits;
  }
  return total;
}

void ShardedEngine::reset_counters() {
  matcher_.reset_counters();
  for (MatchContext& ctx : contexts_) ctx.reset_counters();
}

}  // namespace dbsp
