#include "experiment/distributed.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "broker/overlay.hpp"
#include "core/pruning_set.hpp"
#include "selectivity/estimator.hpp"
#include "selectivity/stats.hpp"
#include "workload/event_gen.hpp"
#include "workload/subscription_gen.hpp"

namespace dbsp {

DistributedResult run_distributed(const DistributedConfig& config,
                                  PruneDimension dimension) {
  const AuctionDomain domain(config.workload);

  // Selectivity statistics trained first: brokers that enable pruning hold
  // the estimator by reference, so it must outlive the overlay.
  EventStats stats(domain.schema());
  AuctionEventGenerator training_gen(domain, /*stream=*/3);
  for (std::size_t i = 0; i < config.training_events; ++i) {
    stats.observe(training_gen.next());
  }
  stats.finalize();
  const SelectivityEstimator estimator(stats);

  Overlay overlay(domain.schema(), config.brokers, Overlay::line(config.brokers));
  const auto broker_at = [&overlay](std::size_t b) -> Broker& {
    return overlay.broker(BrokerId(static_cast<BrokerId::value_type>(b)));
  };

  // Subscriptions are registered round-robin across brokers and flooded
  // through the overlay (subscription forwarding).
  AuctionSubscriptionGenerator sub_gen(domain, /*stream=*/1);
  for (std::size_t i = 0; i < config.subscriptions; ++i) {
    const BrokerId at(static_cast<BrokerId::value_type>(i % config.brokers));
    overlay.subscribe(at, ClientId(static_cast<ClientId::value_type>(i)),
                      SubscriptionId(static_cast<SubscriptionId::value_type>(i)),
                      sub_gen.next_tree());
  }

  // One broker-owned pruning queue per broker over the broker's remote
  // routing entries (§2.2: pruning applies only to subscriptions from
  // non-local clients). Enabled so any churn would
  // stay in sync; the sweep itself is static.
  PruneEngineConfig engine_config;
  engine_config.dimension = dimension;
  engine_config.bottom_up = config.bottom_up;
  for (std::size_t b = 0; b < config.brokers; ++b) {
    broker_at(b).enable_pruning(estimator, engine_config);
  }

  AuctionEventGenerator event_gen(domain, /*stream=*/2);
  const std::vector<Event> events = event_gen.generate(config.events);

  DistributedResult result;
  result.dimension = dimension;
  for (std::size_t b = 0; b < config.brokers; ++b) {
    result.total_possible_prunings += broker_at(b).pruning()->total_possible();
  }
  const std::size_t baseline_remote_assocs = overlay.total_remote_associations();

  std::uint64_t baseline_event_messages = 0;
  for (const double fraction : config.fractions) {
    for (std::size_t b = 0; b < config.brokers; ++b) {
      broker_at(b).pruning()->prune_to_fraction(fraction);
    }

    // Warm-up pass (not measured) so the first sampled fraction is not
    // penalized by cold caches.
    const std::size_t warmup = std::min<std::size_t>(events.size(), 100);
    for (std::size_t i = 0; i < warmup; ++i) {
      overlay.publish(BrokerId(static_cast<BrokerId::value_type>(i % config.brokers)),
                      events[i]);
    }

    overlay.reset_metrics();
    for (std::size_t i = 0; i < events.size(); ++i) {
      const BrokerId at(static_cast<BrokerId::value_type>(i % config.brokers));
      overlay.publish(at, events[i]);
    }

    DistributedPoint p;
    p.fraction = fraction;
    for (std::size_t b = 0; b < config.brokers; ++b) {
      p.prunings_performed += broker_at(b).pruning()->performed();
    }
    p.filter_time_per_event =
        events.empty() ? 0.0
                       : overlay.total_filter_seconds() / static_cast<double>(events.size());
    p.event_messages = overlay.network().total().event_messages;
    p.notifications = overlay.total_notifications();
    p.remote_associations = overlay.total_remote_associations();
    p.association_reduction =
        baseline_remote_assocs == 0
            ? 0.0
            : 1.0 - static_cast<double>(p.remote_associations) /
                        static_cast<double>(baseline_remote_assocs);

    if (result.points.empty()) {
      baseline_event_messages = p.event_messages;
      result.baseline_notifications = p.notifications;
    } else if (p.notifications != result.baseline_notifications) {
      throw std::logic_error(
          "distributed experiment: pruning changed delivered notifications");
    }
    p.network_increase =
        baseline_event_messages == 0
            ? 0.0
            : static_cast<double>(p.event_messages) /
                      static_cast<double>(baseline_event_messages) -
                  1.0;
    result.points.push_back(p);
  }
  return result;
}

}  // namespace dbsp
