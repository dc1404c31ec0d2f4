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
#include "fixture.hpp"

namespace {

using namespace dbsp;

// One iteration = one batched dispatch of 256 events across the workers.
void BM_ShardedMatchBatch(benchmark::State& state) {
  const bench::Fixture fx;
  const auto subs = fx.subscriptions(bench::kSubs);
  ShardedEngineOptions options;
  options.shards = static_cast<std::size_t>(state.range(0));
  ShardedEngine engine(fx.domain.schema(), options);
  for (auto& s : subs) engine.add(*s);

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
  const bench::Fixture fx;
  const auto subs = fx.subscriptions(bench::kSubs);
  ShardedEngineOptions options;
  options.shards = static_cast<std::size_t>(state.range(0));
  ShardedEngine engine(fx.domain.schema(), options);
  for (auto& s : subs) engine.add(*s);

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
