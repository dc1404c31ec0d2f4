// Metrics-overhead microbenchmark: (a) the raw record primitives — one
// Counter::add and one striped Histogram::record — (b) the scrape cost of
// a realistically sized registry snapshot, and (c) the contract that
// matters: the same 10k-subscription auction publish_batch workload with
// metrics on (default sampling) vs metrics off. bench_runner.py
// summarizes (c) as `metrics_overhead` in BENCH_micro.json and the CI
// bench smoke gates on it — the documented budget is <= 5%.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "fixture.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace dbsp;

void BM_CounterAdd(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("dbsp_bench_total");
  for (auto _ : state) {
    c.add(1);
  }
  benchmark::DoNotOptimize(c.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd)->Unit(benchmark::kNanosecond);

void BM_HistogramRecord(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("dbsp_bench_us");
  double v = 0.0;
  for (auto _ : state) {
    h.record(v);
    v = v < 4096.0 ? v + 1.0 : 0.0;  // sweep the buckets
  }
  benchmark::DoNotOptimize(h.snapshot().count);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord)->Unit(benchmark::kNanosecond);

// One monitoring scrape of a registry shaped like a live broker's (a few
// dozen counters/gauges, one labelled histogram family).
void BM_MetricsSnapshot(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (int i = 0; i < 30; ++i) {
    registry.counter("dbsp_bench_c" + std::to_string(i) + "_total").add(i);
  }
  for (int i = 0; i < 10; ++i) {
    registry.gauge("dbsp_bench_g" + std::to_string(i)).set(i);
  }
  for (int shard = 0; shard < 8; ++shard) {
    obs::Histogram& h = registry.histogram(
        "dbsp_bench_us", {{"shard", std::to_string(shard)}});
    for (int i = 0; i < 1000; ++i) h.record(static_cast<double>(i));
  }
  for (auto _ : state) {
    const obs::MetricsSnapshot snapshot = registry.snapshot();
    benchmark::DoNotOptimize(snapshot.metrics.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsSnapshot)->Unit(benchmark::kMicrosecond);

// The overhead contract pair: identical workload to micro_api's
// BM_PubSubPublishBatch, with the registry live (its stage histograms fed
// by the default 1-in-8 head-sampled traces) vs disabled. bench_runner.py
// reports on/off as `metrics_overhead`.
void publish_batch_bench(benchmark::State& state, bool metrics) {
  PubSubOptions options;
  options.metrics = metrics;
  bench::publish_batch_loop(state, options);
}

void BM_PublishBatchMetricsOn(benchmark::State& state) {
  publish_batch_bench(state, /*metrics=*/true);
}
BENCHMARK(BM_PublishBatchMetricsOn)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_PublishBatchMetricsOff(benchmark::State& state) {
  publish_batch_bench(state, /*metrics=*/false);
}
BENCHMARK(BM_PublishBatchMetricsOff)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
