#pragma once

// Shared workload of the publish-path overhead benchmarks (micro_api,
// micro_metrics, micro_trace): 10k auction subscriptions and one 256-event
// batch, all from seed 7. The on/off and facade/direct ratios that
// bench_runner.py reports compare runs of this one workload, so it lives
// in one place.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dbsp/dbsp.hpp"
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
