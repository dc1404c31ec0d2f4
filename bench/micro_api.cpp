// Facade-overhead microbenchmark: the same 10k-subscription auction
// workload matched through (a) ShardedEngine::match_batch directly and
// (b) PubSub::publish_batch — the public API path. bench_runner.py
// summarizes the ratio as `api_overhead` in BENCH_micro.json; the facade
// must stay within a few percent of the direct call (it adds one branch
// and per-row notification counting when no callbacks are registered).
// A third variant with a callback on every subscription prices dispatch.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "fixture.hpp"
#include "core/sharded_engine.hpp"

namespace {

using namespace dbsp;
using bench::Fixture;
using bench::kSubs;

// One iteration = one batched dispatch of 256 events, straight on the
// engine (the internals the facade wraps).
void BM_DirectMatchBatch(benchmark::State& state) {
  Fixture fx;
  ShardedEngineOptions options;
  options.shards = static_cast<std::size_t>(state.range(0));
  ShardedEngine engine(fx.domain.schema(), options);
  std::vector<std::unique_ptr<Subscription>> subs;
  for (std::uint32_t i = 0; i < kSubs; ++i) {
    subs.push_back(std::make_unique<Subscription>(SubscriptionId(i), fx.sub_gen.next_tree()));
    engine.add(*subs.back());
  }

  std::vector<std::vector<SubscriptionId>> results;
  for (auto _ : state) {
    engine.match_batch(fx.events, results);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.events.size()));
}
BENCHMARK(BM_DirectMatchBatch)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

// The same workload through the facade with no callbacks registered —
// what metric-driven consumers (the experiments) pay.
void BM_PubSubPublishBatch(benchmark::State& state) {
  bench::publish_batch_loop(state, PubSubOptions{});
}
BENCHMARK(BM_PubSubPublishBatch)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

// Dispatch priced in: a trivial callback on every subscription adds one
// hash lookup + std::function call per notification.
void BM_PubSubPublishBatchCallbacks(benchmark::State& state) {
  std::uint64_t sink = 0;
  bench::publish_batch_loop(state, PubSubOptions{},
                            [&sink](const Notification& n) { sink += n.seq; });
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_PubSubPublishBatchCallbacks)->Arg(1)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
