// Throughput-vs-workers sweep of the matching engine: the same
// 10k-subscription auction workload matched through match_batch() at 1, 2,
// 4, and 8 match workers (the row argument; rows keep their historical
// "Sharded" names). items_per_second is events/sec, so the JSON rows in
// BENCH_micro.json directly expose the parallel speedup (wall-clock; the
// sweep only scales on multi-core hosts — see the host.num_cpus field).

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/sharded_engine.hpp"
#include "workload/event_gen.hpp"
#include "workload/subscription_gen.hpp"

namespace {

using namespace dbsp;

struct Fixture {
  WorkloadConfig cfg;
  std::unique_ptr<AuctionDomain> domain;
  std::vector<std::unique_ptr<Subscription>> subs;
  std::vector<Event> events;

  Fixture(std::size_t n_subs, std::size_t n_events) {
    cfg.seed = 7;
    domain = std::make_unique<AuctionDomain>(cfg);
    AuctionSubscriptionGenerator sub_gen(*domain, 1);
    for (std::uint32_t i = 0; i < n_subs; ++i) {
      subs.push_back(
          std::make_unique<Subscription>(SubscriptionId(i), sub_gen.next_tree()));
    }
    AuctionEventGenerator event_gen(*domain, 2);
    events = event_gen.generate(n_events);
  }
};

// One iteration = one batched dispatch of 256 events across the workers.
void BM_ShardedMatchBatch(benchmark::State& state) {
  Fixture fx(/*n_subs=*/10000, /*n_events=*/256);
  ShardedEngineOptions options;
  options.shards = static_cast<std::size_t>(state.range(0));
  ShardedEngine engine(fx.domain->schema(), options);
  for (auto& s : fx.subs) engine.add(*s);

  std::vector<std::vector<SubscriptionId>> results;
  for (auto _ : state) {
    engine.match_batch(fx.events, results);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.events.size()));
  state.counters["shards"] = static_cast<double>(engine.worker_count());
}
// UseRealTime: throughput must be wall-clock — the default CPU-time basis
// only counts the calling thread and would overstate multi-worker numbers.
BENCHMARK(BM_ShardedMatchBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

// The unbatched entry point (one event per call on the calling thread) —
// what the broker's route_event pays; the worker count must not change it.
void BM_ShardedMatchSingle(benchmark::State& state) {
  Fixture fx(/*n_subs=*/10000, /*n_events=*/256);
  ShardedEngineOptions options;
  options.shards = static_cast<std::size_t>(state.range(0));
  ShardedEngine engine(fx.domain->schema(), options);
  for (auto& s : fx.subs) engine.add(*s);

  std::vector<SubscriptionId> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    engine.match(fx.events[i++ % fx.events.size()], out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardedMatchSingle)->Arg(1)->Arg(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
