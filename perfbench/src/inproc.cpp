// The inproc_prune runner: the paper's centralized experiment run as a
// steady service. An in-process PubSub with pruning on is set up (train,
// subscribe every tree with a counting callback, prune each shard to half
// its capacity), then a closed loop of single-event publish() runs. Set-up
// and loop are repeated on fresh instances, the loop in equal segments.

#include <algorithm>
#include <optional>

#include "harness.hpp"

namespace pb {

using namespace dbsp;

namespace {

constexpr std::size_t kWarmupPublishes = 500;
/// Events the replica layers are timed and counted on.
constexpr std::size_t kLayerEvents = 2000;

PubSubOptions pruned_options() {
  PubSubOptions o;
  o.engine.shards = kShards;
  o.pruning = true;
  return o;
}

std::vector<std::uint32_t> raw_ids(const std::vector<SubscriptionId>& ids) {
  std::vector<std::uint32_t> out;
  out.reserve(ids.size());
  for (const SubscriptionId id : ids) out.push_back(id.value());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

void run_inproc(const Table& t, Ctx& c) {
  Report& rep = c.report;
  Tracer& tr = c.tracer;
  const int repeats = c.probe ? 1 : kSetupRepeats;

  std::uint64_t delivered = 0;
  bool capture = false;
  std::vector<SubscriptionId> captured;
  const PubSub::Callback on_notify = [&](const Notification& n) {
    ++delivered;
    if (capture) captured.push_back(n.subscription);
  };

  // --- Set-up and measured loop, repeated ------------------------------------
  // Each repeat builds a fresh PubSub (timed; setup_s is the median of the
  // repeats), warms it up and runs one segment of the closed loop. The
  // segments pool their latency samples and throughput blocks, so the
  // figures average over several instances' memory layouts and over the
  // whole run's machine speed, not one stretch of it. In a traced run even
  // quarter-second blocks of a segment record spans and odd ones do not;
  // the gap between their medians is the tracing overhead.
  const double rss_base = rss_mb();
  std::vector<double> setup_s;
  std::vector<double> setup_prune_s;
  std::vector<double> subscribe_us;
  std::vector<double> publish_us;
  std::vector<double> publish_traced_us;
  publish_us.reserve(1u << 16);
  const double segment_s = c.seconds / repeats;
  RateBlocks blocks(Clock::now(), segment_s / 8);
  std::size_t published = 0;
  std::optional<PubSub> ps;
  std::vector<SubscriptionHandle> handles;
  for (int r = 0; r < repeats; ++r) {
    ps.reset();  // handles turn inert first, so dropping them unsubscribes nothing
    handles.clear();
    auto trees = t.clone_trees();
    handles.reserve(trees.size());
    const auto start = Clock::now();
    ps.emplace(t.schema(), pruned_options());
    {
      auto span = tr.span("api.train");
      rep.attempted();
      if (!ps->train(t.train).ok()) rep.failed();
    }
    for (auto& tree : trees) {
      auto span = tr.span("api.subscribe");
      const auto a = Clock::now();
      auto h = ps->subscribe(std::move(tree), on_notify);
      subscribe_us.push_back(us_between(a, Clock::now()));
      rep.attempted();
      if (!h.ok()) {
        rep.failed();
        continue;
      }
      handles.push_back(std::move(h).value());
    }
    const auto subscribed = Clock::now();
    {
      auto span = tr.span("api.prune");
      rep.attempted();
      if (!ps->prune_to_fraction(kPruneFraction).ok()) rep.failed();
    }
    const auto done = Clock::now();
    setup_s.push_back(s_between(start, done));
    setup_prune_s.push_back(s_between(subscribed, done));

    for (std::size_t i = 0; i < kWarmupPublishes; ++i) ps->publish(t.events[i % t.events.size()]);
    rep.attempted(kWarmupPublishes);

    const auto seg_start = Clock::now();
    const auto seg_end = seg_start + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(segment_s));
    blocks.restart(seg_start);
    for (auto now = seg_start; now < seg_end;) {
      const bool traced = tr.enabled() && static_cast<long>(s_between(seg_start, now) * 4) % 2 == 0;
      const Event& e = t.events[published++ % t.events.size()];
      const auto a = Clock::now();
      {
        auto span = tr.span_if(traced, "api.publish");
        ps->publish(e);
      }
      now = Clock::now();
      (traced ? publish_traced_us : publish_us).push_back(us_between(a, now));
      blocks.add(now);
    }
  }
  rep.attempted(published);
  bool dense = handles.size() == t.trees.size();
  for (std::size_t i = 0; dense && i < handles.size(); ++i) dense = handles[i].id().value() == i;
  rep.check(dense, "inproc: subscription ids are not 0..n-1");

  std::vector<const Node*> originals;
  for (const auto& tree : t.trees) originals.push_back(tree.get());
  ExactDeliveries exact(t.schema(), originals, t.events);
  std::uint64_t ratio_delivered = 0;
  for (std::size_t k = 0; k < std::min(kRatioEvents, t.events.size()); ++k) {
    ratio_delivered += ps->publish(t.events[k]);
  }
  const double fp = false_positive_ratio(ratio_delivered, exact.total());

  // --- Output check on sampled events, outside the timed loop ----------------
  std::uint64_t got_total = 0;
  std::uint64_t exact_total = 0;
  capture = true;
  for (const Event& e : t.check) {
    captured.clear();
    ps->publish(e);
    const std::vector<std::uint32_t> got = raw_ids(captured);
    std::vector<std::uint32_t> current;
    for (const auto& h : handles) {
      const auto m = ps->matches(h.id(), e);
      if (m.ok() && m.value()) current.push_back(h.id().value());
    }
    rep.check(got == current, "inproc: delivery differs from PubSub::matches over the pruned trees");
    const auto exact = naive_matches(originals, e);
    rep.check(std::includes(got.begin(), got.end(), exact.begin(), exact.end()),
              "inproc: a delivery the naive oracle requires is missing");
    got_total += got.size();
    exact_total += exact.size();
  }
  capture = false;
  rep.attempted(t.check.size());

  if (c.layers) {
    CoreReplica core(t, tr);
    core.prune(tr);
    bool same = true;
    for (std::size_t i = 0; same && i < core.subs.size(); ++i) {
      const auto text = ps->subscription_text(core.subs[i]->id());
      same = text.ok() && text.value() == core.subs[i]->to_string(t.schema());
    }
    rep.check(same, "inproc: the core replica's pruned trees differ from the facade's");

    // The facade's publish, then the replica's match and its shard matchers,
    // each timed in a pass of its own over the same events, spread evenly
    // over the published stream. Interleaved per event, the facade and the
    // replica evicted each other from the caches and both read about half
    // as slow again as the measured loop's publish. The facade's own
    // dispatch cost is the difference of the first two medians.
    const std::size_t n = std::min(kLayerEvents, t.events.size());
    const std::size_t stride = t.events.size() / n;
    std::vector<SubscriptionId> out;
    std::vector<double> publish_sample_us;
    std::vector<double> core_us;
    std::vector<double> filter_us;
    for (std::size_t k = 0; k < n; ++k) {
      const auto a = Clock::now();
      {
        auto span = tr.span("api.publish_sample");
        ps->publish(t.events[k * stride]);
      }
      publish_sample_us.push_back(us_between(a, Clock::now()));
    }
    for (std::size_t k = 0; k < n; ++k) {
      const Event& e = t.events[k * stride];
      out.clear();
      auto a = Clock::now();
      {
        auto span = tr.span("core.match");
        core.engine.match(e, out);
      }
      core_us.push_back(us_between(a, Clock::now()));
      double shards_us = 0;
      for (std::size_t s = 0; s < core.engine.shard_count(); ++s) {
        out.clear();
        a = Clock::now();
        {
          auto span = tr.span("filter.match");
          core.engine.counting_shard(s).match(e, out);
        }
        shards_us += us_between(a, Clock::now());
      }
      filter_us.push_back(shards_us);
    }
    core.engine.reset_counters();
    for (std::size_t k = 0; k < n; ++k) {
      out.clear();
      core.engine.match(t.events[k * stride], out);
    }
    const CountingMatcher::Counters cnt = core.engine.counters();
    const double events = static_cast<double>(n);

    // Facade overhead of metrics + tracing: the same pruned table behind a
    // PubSub with both on and one with both off, published in alternating
    // blocks.
    std::vector<SubscriptionHandle> keep;  // destroyed after the replicas: inert
    PubSubOptions on;
    on.engine.shards = kShards;
    PubSubOptions off = on;
    off.metrics = false;
    off.tracing = false;
    PubSub with_obs(t.schema(), on);
    PubSub without_obs(t.schema(), off);
    for (const auto& sub : core.subs) {
      for (PubSub* p : {&with_obs, &without_obs}) {
        auto h = p->subscribe(sub->root().clone(), on_notify);
        rep.check(h.ok(), "inproc: replica subscribe failed");
        if (h.ok()) keep.push_back(std::move(h).value());
      }
    }
    std::vector<double> on_us;
    std::vector<double> off_us;
    for (int block = 0; block < (c.probe ? 4 : 10); ++block) {
      for (PubSub* p : {&with_obs, &without_obs}) {
        for (std::size_t k = 0; k < 200; ++k) {
          const auto a = Clock::now();
          p->publish(t.events[k]);
          (p == &with_obs ? on_us : off_us).push_back(us_between(a, Clock::now()));
        }
      }
    }

    const double core_match = median(core_us);
    rep.metric("api.subscribe_us", median(subscribe_us), "us");
    rep.metric("selectivity.train_s", core.train_s, "s");
    rep.metric("core.prune_s", core.prune_s, "s");
    rep.metric("core.match_us", core_match, "us");
    rep.metric("filter.match_us", median(filter_us), "us");
    rep.metric("core.merge_us", core_match - median(filter_us), "us");
    rep.metric("filter.predicate_hits_per_event", static_cast<double>(cnt.predicate_hits) / events, "count");
    rep.metric("filter.counter_increments_per_event", static_cast<double>(cnt.counter_increments) / events, "count");
    rep.metric("filter.tree_evals_per_event", static_cast<double>(cnt.tree_evaluations) / events, "count");
    rep.metric("filter.match_precision",
               cnt.tree_evaluations > 0 ? static_cast<double>(cnt.matches) /
                                              static_cast<double>(cnt.tree_evaluations)
                                        : 0.0,
               "ratio");
    const double dispatch = median(publish_sample_us) - core_match;
    rep.metric("api.dispatch_us", dispatch, "us");
    rep.metric("obs.publish_overhead_us", median(on_us) - median(off_us), "us");
    const double assoc = static_cast<double>(ps->association_count());
    rep.metric("core.associations", assoc, "count");
    rep.metric("core.pruned_association_share",
               1.0 - assoc / static_cast<double>(std::max<std::size_t>(1, core.unpruned_associations)),
               "ratio");
    rep.metric("core.prunings_performed", static_cast<double>(ps->pruning_stats().performed), "count");
    if (!c.probe) {
      const double p50 = median(publish_us);
      rep.metric("bench.trace_overhead_pct",
                 p50 > 0 ? 100.0 * (median(publish_traced_us) - p50) / p50 : 0.0, "%");
      rep.detail("traced_publish_p50_us", median(publish_traced_us));
      rep.detail("core_share_of_publish",
                 median(publish_traced_us) > 0
                     ? (core_match + dispatch) / median(publish_traced_us)
                     : 0.0);
    }
  }

  // --- Unsubscribe latency on a fixed sample of the table --------------------
  std::vector<double> unsubscribe_us;
  for (std::size_t k = 0; k < handles.size(); k += 10) {
    auto span = tr.span("api.unsubscribe");
    const auto a = Clock::now();
    const Status st = handles[k].release();
    unsubscribe_us.push_back(us_between(a, Clock::now()));
    rep.attempted();
    if (!st.ok()) rep.failed();
  }
  const double rss = peak_rss_mb() - rss_base;

  if (c.e2e) {
    rep.metric("setup_s", median(setup_s), "s");
    rep.metric("events_per_s", blocks.median_rate(), "events/s");
    rep.metric("publish_p50_us", quantile(publish_us, 0.5), "us");
    rep.metric("publish_p99_us", quantile(publish_us, 0.99), "us");
    rep.detail("subscribe_p50_us", median(subscribe_us));
    rep.detail("unsubscribe_p50_us", median(unsubscribe_us));
    rep.metric("false_positive_ratio", fp, "ratio");
    rep.metric("rss_mb", rss, "MiB");
    rep.detail("publish_samples", static_cast<double>(publish_us.size()));
    rep.detail("subscribe_samples", static_cast<double>(subscribe_us.size()));
    rep.detail("unsubscribe_samples", static_cast<double>(unsubscribe_us.size()));
    rep.detail("setup_repeats", repeats);
    rep.detail("setup_min_s", *std::min_element(setup_s.begin(), setup_s.end()));
    rep.detail("setup_max_s", *std::max_element(setup_s.begin(), setup_s.end()));
    rep.detail("setup_prune_s", median(setup_prune_s));
    rep.detail("delivered_per_event", static_cast<double>(got_total) / static_cast<double>(t.check.size()));
    rep.detail("exact_per_event", static_cast<double>(exact_total) / static_cast<double>(t.check.size()));
  }
}

}  // namespace pb
