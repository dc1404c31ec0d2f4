// Aggregated-routing scale bench: grows a SubscriptionAggregator through
// a 3-point population sweep (N/100, N/10, N auction subscriptions,
// default N = 1,000,000) and reports, per scale, the routing-table bytes a
// broker would advertise (subgroup summaries vs per-subscription trees),
// the per-event candidate footprint of the summary probe, and a sampled
// delivery oracle (aggregator.match() vs direct tree evaluation). Prints a
// machine-readable JSON report to stdout (consumed by
// tools/bench_runner.py into BENCH_routing.json) and exits non-zero on
// any oracle mismatch, so CI can gate on the no-false-negative contract.
//
// Knobs: DBSP_ROUTING_SUBS (top scale, default 1000000),
// DBSP_ROUTING_EVENTS (probed events per scale, default 256),
// DBSP_ROUTING_SAMPLE (oracle subscriptions sampled per event, default 64),
// DBSP_ROUTING_TRAINING_EVENTS (selectivity sample, default 2000),
// DBSP_ROUTING_SUBGROUPS (aggregator subgroup cap, default 4096; the
// per-dimension value cap is pinned at 32).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "agg/aggregator.hpp"
#include "common/env.hpp"
#include "routing/codec.hpp"
#include "selectivity/stats.hpp"
#include "workload/event_gen.hpp"
#include "workload/subscription_gen.hpp"

namespace {

using namespace dbsp;

// Aggregator caps sized for a million-subscription table.
constexpr std::int64_t kDefaultSubgroups = 4096;
constexpr std::size_t kMaxValues = 32;

struct ScaleReport {
  std::size_t subs = 0;
  std::size_t subgroups = 0;
  unsigned signature_shift = 0;
  std::size_t advertised_bytes = 0;
  std::size_t tree_bytes = 0;
  double avg_admitted_subgroups = 0.0;
  double avg_candidates = 0.0;
  std::size_t oracle_checked = 0;
  std::size_t oracle_mismatches = 0;
};

}  // namespace

int main() {
  const auto max_subs =
      static_cast<std::size_t>(env_int("DBSP_ROUTING_SUBS", 1000000));
  const auto n_events =
      static_cast<std::size_t>(env_int("DBSP_ROUTING_EVENTS", 256));
  const auto sample =
      static_cast<std::size_t>(env_int("DBSP_ROUTING_SAMPLE", 64));
  const auto training =
      static_cast<std::size_t>(env_int("DBSP_ROUTING_TRAINING_EVENTS", 2000));

  std::vector<std::size_t> scales{max_subs / 100, max_subs / 10, max_subs};
  for (std::size_t& s : scales) s = std::max<std::size_t>(s, 1);
  scales.erase(std::unique(scales.begin(), scales.end()), scales.end());

  WorkloadConfig cfg;
  cfg.seed = 11;
  AuctionDomain domain(cfg);
  AuctionSubscriptionGenerator sub_gen(domain, 1);
  AuctionEventGenerator event_gen(domain, 2);
  const std::vector<Event> events = event_gen.generate(n_events);

  // Trained selectivity statistics drive the dimension choice, exactly as
  // PubSub::train would in production.
  EventStats stats(domain.schema());
  {
    AuctionEventGenerator training_gen(domain, 3);
    for (std::size_t i = 0; i < training; ++i) stats.observe(training_gen.next());
  }
  stats.finalize();

  agg::AggregatorOptions options;
  options.max_subgroups = static_cast<std::size_t>(
      std::max<std::int64_t>(1, env_int("DBSP_ROUTING_SUBGROUPS", kDefaultSubgroups)));
  options.limits.max_values = kMaxValues;

  agg::SubscriptionAggregator aggregator(domain.schema(), options);
  aggregator.train(stats);

  std::vector<std::unique_ptr<Subscription>> subs;
  subs.reserve(max_subs);
  std::size_t tree_bytes = 0;

  std::vector<ScaleReport> reports;
  std::vector<SubscriptionId> out;
  bool exact = true;

  for (const std::size_t scale : scales) {
    std::fprintf(stderr, "[micro_routing] growing to %zu subscriptions...\n",
                 scale);
    while (subs.size() < scale) {
      auto sub = std::make_unique<Subscription>(
          SubscriptionId(static_cast<SubscriptionId::value_type>(subs.size())),
          sub_gen.next_tree());
      tree_bytes += encoded_size(sub->root());
      aggregator.add(*sub);
      subs.push_back(std::move(sub));
    }

    ScaleReport r;
    r.subs = subs.size();
    r.subgroups = aggregator.subgroup_count();
    r.signature_shift = aggregator.signature_shift();
    r.advertised_bytes = aggregator.advertised_bytes();
    r.tree_bytes = tree_bytes;

    std::size_t admitted = 0;
    std::size_t candidates = 0;
    for (const Event& event : events) {
      const auto p = aggregator.probe(event);
      admitted += p.admitted;
      candidates += p.candidates;
    }
    r.avg_admitted_subgroups =
        static_cast<double>(admitted) / static_cast<double>(events.size());
    r.avg_candidates =
        static_cast<double>(candidates) / static_cast<double>(events.size());

    // Sampled delivery oracle: aggregated membership must equal direct
    // tree evaluation for every sampled subscription (no false negatives,
    // no false positives — admitted candidates are exactly re-evaluated).
    const std::size_t stride = std::max<std::size_t>(1, subs.size() / sample);
    for (const Event& event : events) {
      out.clear();
      aggregator.match(event, out);
      std::sort(out.begin(), out.end());
      for (std::size_t i = 0; i < subs.size(); i += stride) {
        ++r.oracle_checked;
        const bool expected = subs[i]->matches(event);
        const bool got =
            std::binary_search(out.begin(), out.end(), subs[i]->id());
        if (expected != got) ++r.oracle_mismatches;
      }
    }
    if (r.oracle_mismatches != 0) exact = false;

    reports.push_back(r);
  }

  std::printf("{\n  \"schema_version\": 1,\n");
  std::printf(
      "  \"config\": {\"subs\": %zu, \"events\": %zu, \"sample\": %zu, "
      "\"dimensions\": %zu, \"max_subgroups\": %zu, \"max_intervals\": %zu, "
      "\"max_values\": %zu},\n",
      max_subs, n_events, sample, aggregator.dimensions().size(),
      options.max_subgroups, agg::kMaxIntervals,
      options.limits.max_values);
  std::printf("  \"exact\": %s,\n", exact ? "true" : "false");
  std::printf("  \"scales\": [\n");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const ScaleReport& r = reports[i];
    std::printf(
        "    {\"subs\": %zu, \"subgroups\": %zu, \"signature_shift\": %u, "
        "\"advertised_bytes\": %zu, "
        "\"tree_bytes\": %zu, \"avg_admitted_subgroups\": %.2f, "
        "\"avg_candidates\": %.2f, \"oracle_checked\": %zu, "
        "\"oracle_mismatches\": %zu}%s\n",
        r.subs, r.subgroups, r.signature_shift, r.advertised_bytes, r.tree_bytes,
        r.avg_admitted_subgroups, r.avg_candidates, r.oracle_checked,
        r.oracle_mismatches, i + 1 == reports.size() ? "" : ",");
  }
  std::printf("  ]\n}\n");
  return exact ? 0 : 1;
}
