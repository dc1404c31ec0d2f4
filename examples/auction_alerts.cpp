// Auction alerts: the paper's application scenario on a single broker,
// driven entirely through the public PubSub facade. Generates the online
// book-auction workload, filters a stream of listing events, and shows how
// the three pruning dimensions trade network load, memory and throughput
// against each other at a fixed pruning budget.
//
// Knobs: DBSP_SUBS (default 2000), DBSP_EVENTS (default 1000).

#include <cstdint>
#include <cstdio>
#include <vector>

#include "dbsp/dbsp.hpp"

int main() {
  using namespace dbsp;
  const auto n_subs = static_cast<std::size_t>(env_int("DBSP_SUBS", 2000));
  const auto n_events = static_cast<std::size_t>(env_int("DBSP_EVENTS", 1000));

  const auto domain = make_auction_workload();

  // Historical listings: one sample trains the selectivity statistics,
  // an independent stream is the measured traffic.
  std::vector<Event> training;
  {
    auto gen = domain->events(3);
    for (int i = 0; i < 10000; ++i) training.push_back(gen->next());
  }
  const auto events = domain->events(2)->generate(n_events);

  std::printf("auction_alerts: %zu subscriptions, %zu events, pruning budget 40%%\n\n",
              n_subs, n_events);
  std::printf("%-12s %12s %14s %14s %12s\n", "dimension", "prunings",
              "assoc. left", "matches", "ms/event");

  for (const PruneDimension dim :
       {PruneDimension::NetworkLoad, PruneDimension::MemoryUsage,
        PruneDimension::Throughput}) {
    // Fresh broker state per dimension — identical workload via the seed.
    PubSubOptions options;
    options.pruning = true;
    options.prune.dimension = dim;
    PubSub pubsub(domain->schema(), options);
    pubsub.train(training).expect_ok();

    auto sub_gen = domain->subscriptions(1);
    std::vector<SubscriptionHandle> handles;
    handles.reserve(n_subs);
    for (std::size_t i = 0; i < n_subs; ++i) {
      handles.push_back(pubsub.subscribe(sub_gen->next()).value());
    }

    const std::size_t budget = pubsub.pruning_stats().total_possible * 2 / 5;
    (void)pubsub.prune(budget).value();  // 40% of all prunings

    const std::uint64_t matched_before = pubsub.counters().matches;
    Stopwatch watch;
    watch.start();
    (void)pubsub.publish_batch(events);
    watch.stop();

    std::printf("%-12s %12zu %14zu %14llu %12.3f\n", to_string(dim),
                pubsub.pruning_stats().performed, pubsub.association_count(),
                static_cast<unsigned long long>(pubsub.counters().matches - matched_before),
                1e3 * watch.seconds() / static_cast<double>(n_events));
  }
  std::printf("\nSee bench/fig1* for the full sweeps of Figure 1.\n");
  return 0;
}
