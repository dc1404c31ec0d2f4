#include "experiment/centralized.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "api/pubsub.hpp"
#include "common/timer.hpp"
#include "workload/event_gen.hpp"
#include "workload/subscription_gen.hpp"

namespace dbsp {

CentralizedResult run_centralized(const CentralizedConfig& config,
                                  PruneDimension dimension) {
  const AuctionDomain domain(config.workload);

  // The broker under test is a PubSub facade: schema + engine + the
  // paper's single global pruning queue in one object.
  PubSubOptions options;
  options.engine.shards = config.shards;
  options.pruning = true;
  options.prune.dimension = dimension;
  options.prune.bottom_up = config.bottom_up;
  options.prune.order = config.tie_break_order;
  PubSub pubsub(domain.schema(), options);

  // Selectivity statistics from an independent training stream, trained
  // before the bulk subscribe so admission scores are meaningful.
  {
    AuctionEventGenerator training_gen(domain, /*stream=*/3);
    std::vector<Event> sample;
    sample.reserve(config.training_events);
    for (std::size_t i = 0; i < config.training_events; ++i) {
      sample.push_back(training_gen.next());
    }
    const Status trained = pubsub.train(sample);
    if (!trained.ok()) throw std::logic_error(trained.to_string());
  }

  // Workload: identical across heuristics for a given seed. Handles keep
  // the registrations alive for the whole sweep.
  AuctionSubscriptionGenerator sub_gen(domain, /*stream=*/1);
  std::vector<SubscriptionHandle> handles;
  handles.reserve(config.subscriptions);
  for (std::size_t i = 0; i < config.subscriptions; ++i) {
    auto subscribed = pubsub.subscribe(sub_gen.next_tree());
    if (!subscribed.ok()) throw std::logic_error(subscribed.status().to_string());
    handles.push_back(std::move(subscribed).value());
  }
  AuctionEventGenerator event_gen(domain, /*stream=*/2);
  const std::vector<Event> events = event_gen.generate(config.events);

  CentralizedResult result;
  result.dimension = dimension;
  result.total_possible_prunings = pubsub.pruning_stats().total_possible;
  const double baseline_assocs = static_cast<double>(pubsub.association_count());

  for (const double fraction : config.fractions) {
    (void)pubsub.prune_to_fraction(fraction).value();

    // Warm up caches/branch predictors so the first sampled fraction is
    // not penalized relative to later ones.
    const std::size_t warmup = std::min<std::size_t>(events.size(), 200);
    (void)pubsub.publish_batch(std::span<const Event>(events).first(warmup));

    const auto before = pubsub.counters();
    Stopwatch watch;
    watch.start();
    (void)pubsub.publish_batch(events);
    watch.stop();
    const auto after = pubsub.counters();

    CentralizedPoint p;
    p.fraction = fraction;
    p.prunings_performed = pubsub.pruning_stats().performed;
    p.filter_time_per_event =
        config.events == 0 ? 0.0 : watch.seconds() / static_cast<double>(config.events);
    p.matches = after.matches - before.matches;
    p.counter_increments = after.counter_increments - before.counter_increments;
    p.tree_evaluations = after.tree_evaluations - before.tree_evaluations;
    p.matching_fraction =
        static_cast<double>(p.matches) /
        (static_cast<double>(config.events) * static_cast<double>(config.subscriptions));
    p.associations = pubsub.association_count();
    p.association_reduction =
        baseline_assocs == 0.0
            ? 0.0
            : 1.0 - static_cast<double>(p.associations) / baseline_assocs;
    result.points.push_back(p);
  }
  return result;
}

}  // namespace dbsp
