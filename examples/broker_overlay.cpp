// Distributed routing walkthrough: the paper's 5-broker line. Floods
// subscriptions through the overlay, publishes auction events at every
// broker, then enables broker-owned pruning of each broker's remote
// routing entries on the network dimension and shows that (1) subscribers
// still receive exactly the same notifications, (2) routing state shrank,
// (3) only transit traffic grew.
//
// Knobs: DBSP_SUBS (default 1000), DBSP_EVENTS (default 400).

#include <cstdio>

#include "dbsp/dbsp.hpp"

int main() {
  using namespace dbsp;
  const auto n_subs = static_cast<std::size_t>(env_int("DBSP_SUBS", 1000));
  const auto n_events = static_cast<std::size_t>(env_int("DBSP_EVENTS", 400));
  constexpr std::size_t kBrokers = 5;

  const auto domain = make_auction_workload();

  // Selectivity statistics first: brokers with pruning enabled reference
  // the estimator, so it must outlive the overlay.
  EventStats stats(domain->schema());
  {
    auto training = domain->events(3);
    for (int i = 0; i < 8000; ++i) stats.observe(training->next());
  }
  stats.finalize();
  const SelectivityEstimator estimator(stats);

  Overlay overlay(domain->schema(), kBrokers, Overlay::line(kBrokers));

  auto sub_gen = domain->subscriptions(1);
  for (std::uint32_t i = 0; i < n_subs; ++i) {
    overlay.subscribe(BrokerId(i % kBrokers), ClientId(i), SubscriptionId(i),
                      sub_gen->next());
  }
  std::printf("overlay: %zu brokers in a line, %zu subscriptions flooded (%llu control msgs)\n",
              kBrokers, n_subs,
              static_cast<unsigned long long>(overlay.network().total().control_messages));

  const auto events = domain->events(2)->generate(n_events);

  auto publish_all = [&] {
    overlay.reset_metrics();
    for (std::size_t i = 0; i < events.size(); ++i) {
      overlay.publish(BrokerId(static_cast<BrokerId::value_type>(i % kBrokers)),
                      events[i]);
    }
  };

  publish_all();
  const auto base_notifications = overlay.total_notifications();
  const auto base_messages = overlay.network().total().event_messages;
  const auto base_assocs = overlay.total_remote_associations();
  std::printf("\nunoptimized: %llu notifications, %llu event messages, %zu remote assoc.\n",
              static_cast<unsigned long long>(base_notifications),
              static_cast<unsigned long long>(base_messages), base_assocs);

  // Prune 60% of each broker's remote entries on the network dimension.
  // Each broker prunes from one global queue over its filter table; its
  // match workers (DBSP_SHARDS, default = hardware concurrency) only fan
  // out batches. The broker owns the set and keeps it in sync were any
  // churn to follow.
  std::printf("each broker matches with %zu worker(s)\n",
              overlay.broker(BrokerId(0)).engine().worker_count());
  PruneEngineConfig config;
  config.dimension = PruneDimension::NetworkLoad;
  for (std::size_t b = 0; b < kBrokers; ++b) {
    overlay.broker(BrokerId(static_cast<BrokerId::value_type>(b)))
        .enable_pruning(estimator, config)
        .prune_to_fraction(0.6);
  }

  publish_all();
  std::printf("pruned 60%%:  %llu notifications, %llu event messages, %zu remote assoc.\n",
              static_cast<unsigned long long>(overlay.total_notifications()),
              static_cast<unsigned long long>(overlay.network().total().event_messages),
              overlay.total_remote_associations());

  if (overlay.total_notifications() != base_notifications) {
    std::printf("ERROR: notification set changed — routing correctness violated!\n");
    return 1;
  }
  std::printf("\nnotifications identical; memory -%0.f%%, network +%.0f%% — the pruning trade-off.\n",
              100.0 * (1.0 - static_cast<double>(overlay.total_remote_associations()) /
                                 static_cast<double>(base_assocs)),
              100.0 * (static_cast<double>(overlay.network().total().event_messages) /
                           static_cast<double>(base_messages) -
                       1.0));
  return 0;
}
