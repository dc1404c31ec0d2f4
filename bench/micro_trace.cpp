// Tracing-overhead microbenchmark: (a) the raw tracing primitives — one
// trace-context mint, one lock-free FlightRecorder ring write, and the
// tail sampler's fast-path rejection — (b) the cost of one /traces
// snapshot of a full ring, and (c) the contract that matters: the same
// 10k-subscription auction publish_batch workload with tracing on
// (default 1-in-8 head sampling) vs off. bench_runner.py summarizes (c)
// as `trace_overhead` in BENCH_micro.json and the CI bench smoke gates
// on it — the documented budget is <= 5%.

#include <benchmark/benchmark.h>

#include <vector>

#include "fixture.hpp"
#include "obs/flight.hpp"

namespace {

using namespace dbsp;

obs::FlightRecorderOptions bench_recorder_options() {
  obs::FlightRecorderOptions options;
  options.capacity = 256;
  options.sample_every = 8;
  options.slow_k = 16;
  options.window_ms = 10000;
  return options;
}

void BM_MakeTraceContext(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::make_trace_context(true).trace_id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MakeTraceContext)->Unit(benchmark::kNanosecond);

void BM_FlightRecorderRecord(benchmark::State& state) {
  obs::FlightRecorder recorder(bench_recorder_options());
  obs::Trace trace;
  trace.trace_id = 1;
  trace.start_unix_us = 1;
  trace.duration_us = 10;
  for (int i = 0; i < 6; ++i) {
    obs::TraceSpan span;
    span.stage = obs::TraceStage::kMatch;
    span.span_id = static_cast<std::uint64_t>(i + 1);
    trace.spans.push_back(span);
  }
  for (auto _ : state) {
    recorder.record(trace);
  }
  benchmark::DoNotOptimize(recorder.recorded_total());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecorderRecord)->Unit(benchmark::kNanosecond);

// The per-untraced-publish cost of tail sampling: one relaxed threshold
// load and a rejected fast path (the common case once the window is full
// of genuinely slow traces).
void BM_AdmitSlowFastPathReject(benchmark::State& state) {
  obs::FlightRecorderOptions options = bench_recorder_options();
  options.slow_k = 1;
  obs::FlightRecorder recorder(options);
  benchmark::DoNotOptimize(recorder.admit_slow(1000000));  // raise threshold
  for (auto _ : state) {
    benchmark::DoNotOptimize(recorder.admit_slow(0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdmitSlowFastPathReject)->Unit(benchmark::kNanosecond);

// One operator pull of GET /traces against a full default-size ring.
void BM_TracesSnapshot(benchmark::State& state) {
  obs::FlightRecorder recorder(bench_recorder_options());
  obs::Trace trace;
  trace.trace_id = 1;
  trace.start_unix_us = 1;
  for (int i = 0; i < 6; ++i) {
    obs::TraceSpan span;
    span.span_id = static_cast<std::uint64_t>(i + 1);
    trace.spans.push_back(span);
  }
  for (std::size_t i = 0; i < recorder.capacity(); ++i) {
    trace.trace_id = i + 1;
    trace.start_unix_us = i + 1;
    recorder.record(trace);
  }
  for (auto _ : state) {
    const std::vector<obs::Trace> traces = recorder.snapshot();
    benchmark::DoNotOptimize(traces.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracesSnapshot)->Unit(benchmark::kMicrosecond);

// The overhead contract pair: identical workload to micro_metrics'
// publish-batch pair, with per-event tracing on (default 1-in-8 head
// sampling, default ring) vs off. bench_runner.py reports on/off as
// `trace_overhead`.
void publish_batch_bench(benchmark::State& state, bool tracing) {
  PubSubOptions options;
  options.tracing = tracing;
  options.trace = bench_recorder_options();
  bench::publish_batch_loop(state, options);
}

void BM_PublishBatchTracingOn(benchmark::State& state) {
  publish_batch_bench(state, /*tracing=*/true);
}
BENCHMARK(BM_PublishBatchTracingOn)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_PublishBatchTracingOff(benchmark::State& state) {
  publish_batch_bench(state, /*tracing=*/false);
}
BENCHMARK(BM_PublishBatchTracingOff)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
