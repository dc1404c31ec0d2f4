// Adaptive dimension selection — the paper's §1/§5 outlook ("we are also
// able to dynamically adjust our optimization based on current system
// parameters") implemented as a small controller over the public API:
// watch memory pressure and wire pressure, and drive pruning with
// whichever dimension relieves the binding constraint, re-deciding every
// round through PubSub::set_prune_dimension().
//
// The controller is intentionally simple (threshold rules); the point is
// that switching dimensions mid-stream just rebuilds the pruning queues
// from the subscriptions' current (already pruned) state.

#include <cstdint>
#include <cstdio>
#include <vector>

#include "dbsp/dbsp.hpp"

namespace {

using namespace dbsp;

/// Picks the dimension for the next pruning round from observed pressure:
/// association count over budget -> memory; forwarded-event rate over
/// budget -> network; otherwise throughput.
PruneDimension decide(std::size_t associations, std::size_t assoc_budget,
                      double match_rate, double match_budget) {
  if (associations > assoc_budget) return PruneDimension::MemoryUsage;
  if (match_rate > match_budget) return PruneDimension::NetworkLoad;
  return PruneDimension::Throughput;
}

}  // namespace

int main() {
  const auto n_subs = static_cast<std::size_t>(env_int("DBSP_SUBS", 1500));
  const auto domain = make_auction_workload();

  PubSubOptions options;
  options.pruning = true;
  PubSub pubsub(domain->schema(), options);

  {
    std::vector<Event> training;
    auto gen = domain->events(3);
    for (int i = 0; i < 8000; ++i) training.push_back(gen->next());
    pubsub.train(training).expect_ok();
  }

  auto sub_gen = domain->subscriptions(1);
  std::vector<SubscriptionHandle> handles;
  handles.reserve(n_subs);
  for (std::size_t i = 0; i < n_subs; ++i) {
    handles.push_back(pubsub.subscribe(sub_gen->next()).value());
  }

  const std::size_t assoc_budget = pubsub.association_count() * 3 / 4;
  const double match_budget = 0.02;  // forwarded fraction ceiling
  auto event_gen = domain->events(2);

  std::printf("adaptive pruning: %zu subs, association budget %zu, match budget %.3f\n\n",
              n_subs, assoc_budget, match_budget);
  std::printf("%-6s %-12s %12s %12s %12s\n", "round", "dimension", "prunings",
              "assoc.", "match rate");

  for (int round = 0; round < 6; ++round) {
    // Observe one traffic window.
    const auto window = event_gen->generate(300);
    const std::uint64_t matched_before = pubsub.counters().matches;
    (void)pubsub.publish_batch(window);
    const double match_rate =
        static_cast<double>(pubsub.counters().matches - matched_before) /
        (static_cast<double>(window.size()) * static_cast<double>(n_subs));

    const PruneDimension dim =
        decide(pubsub.association_count(), assoc_budget, match_rate, match_budget);

    // Rebuilding the queues on the chosen dimension re-reads the current
    // (already pruned) trees; Δ≈sel/Δ≈eff baselines reset to the current
    // state, which makes the controller conservative — exactly what
    // incremental re-optimization wants.
    pubsub.set_prune_dimension(dim).expect_ok();
    const std::size_t before = pubsub.pruning_stats().performed;
    const std::size_t step = pubsub.pruning_stats().total_possible / 12 + 1;
    (void)pubsub.prune(step).value();

    std::printf("%-6d %-12s %12zu %12zu %12.5f\n", round, to_string(dim),
                pubsub.pruning_stats().performed - before,
                pubsub.association_count(), match_rate);
  }
  std::printf("\ndimension switches follow whichever budget is currently violated.\n");
  return 0;
}
