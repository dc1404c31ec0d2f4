#pragma once

// The one auction workload of the micro benchmarks, all from seed 7:
// subscription trees from stream 1, events from stream 2, and statistics
// trained on stream 3. micro_api, micro_metrics and micro_trace time the
// publish path on 10k subscriptions and one 256-event batch — the on/off
// and facade/direct ratios that bench_runner.py reports compare runs of
// this one workload — and micro_filter, micro_pruning, micro_sharded and
// micro_store build their tables from the same streams.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "dbsp/dbsp.hpp"
#include "selectivity/estimator.hpp"
#include "selectivity/stats.hpp"
#include "workload/auction_schema.hpp"
#include "workload/event_gen.hpp"
#include "workload/subscription_gen.hpp"

namespace dbsp::bench {

inline constexpr std::size_t kSubs = 10000;
inline constexpr std::size_t kEvents = 256;

inline WorkloadConfig fixture_config() {
  WorkloadConfig cfg;
  cfg.seed = 7;
  return cfg;
}

/// The auction domain, the timed batch, and the subscription-tree stream.
struct Fixture {
  AuctionDomain domain{fixture_config()};
  std::vector<Event> events = AuctionEventGenerator(domain, 2).generate(kEvents);
  AuctionSubscriptionGenerator sub_gen{domain, 1};

  /// The first `n` trees of stream 1 as subscriptions 0..n-1, from a
  /// generator of their own (sub_gen does not advance).
  [[nodiscard]] std::vector<std::unique_ptr<Subscription>> subscriptions(
      std::size_t n) const {
    AuctionSubscriptionGenerator gen(domain, 1);
    std::vector<std::unique_ptr<Subscription>> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::make_unique<Subscription>(
          SubscriptionId(static_cast<SubscriptionId::value_type>(i)), gen.next_tree()));
    }
    return out;
  }
};

/// Event statistics trained on the first `n` events of stream 3, and an
/// estimator over them.
struct Trained {
  Trained(const AuctionDomain& domain, int n) : stats(domain.schema()) {
    AuctionEventGenerator training(domain, 3);
    for (int i = 0; i < n; ++i) stats.observe(training.next());
    stats.finalize();
  }

  EventStats stats;
  SelectivityEstimator estimator{stats};
};

/// Times PubSub::publish_batch of the fixture batch against kSubs
/// subscriptions (each registered with `callback`) on state.range(0)
/// shards. One iteration is one batch; items are events.
inline void publish_batch_loop(benchmark::State& state, PubSubOptions options,
                               const PubSub::Callback& callback = {}) {
  Fixture fx;
  options.engine.shards = static_cast<std::size_t>(state.range(0));
  PubSub pubsub(fx.domain.schema(), options);
  std::vector<SubscriptionHandle> handles;
  handles.reserve(kSubs);
  for (std::size_t i = 0; i < kSubs; ++i) {
    handles.push_back(pubsub.subscribe(fx.sub_gen.next_tree(), callback).value());
  }

  for (auto _ : state) {
    const std::uint64_t delivered = pubsub.publish_batch(fx.events);
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.events.size()));
}

}  // namespace dbsp::bench
