// The per-event tracing core: trace context minting, TraceBuilder span
// collection (parenting, overflow, timing), ScopedSpan gating (null
// builder, detailed_only vs head sampling, early close), the
// FlightRecorder's lock-free ring (round trip, wrap, concurrent
// record/snapshot tear-freedom), two-sided sampling (1-in-N head sampler,
// rolling slowest-K tail admission), the traces JSON rendering, the
// dbsp_stage_us histograms fed from head-sampled spans (one sampler for
// metrics and traces, per-stage attribution through the facade), the
// trace wire decoder's handling of reserved stages, and the
// structured logger (level gating, line format, rate limiting).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dbsp/dbsp.hpp"
#include "net/protocol.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace dbsp::obs {
namespace {

FlightRecorderOptions small_recorder(std::size_t capacity = 16,
                                     std::uint32_t sample_every = 1,
                                     std::size_t slow_k = 4,
                                     std::uint64_t window_ms = 60000) {
  FlightRecorderOptions options;
  options.capacity = capacity;
  options.sample_every = sample_every;
  options.slow_k = slow_k;
  options.window_ms = window_ms;
  return options;
}

std::uint64_t stage_count(const MetricsSnapshot& s, const char* stage) {
  const MetricSnapshot* m = s.find("dbsp_stage_us", {{"stage", stage}});
  return m != nullptr ? m->histogram.count : 0;
}

// --- TraceContext ------------------------------------------------------------

TEST(TraceContextTest, MintedContextsAreUniqueNonzeroAndCarrySampled) {
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    const TraceContext ctx = make_trace_context(i % 2 == 0);
    EXPECT_TRUE(ctx.active());
    EXPECT_NE(ctx.trace_id, 0u);
    EXPECT_EQ(ctx.parent_span, 0u);
    EXPECT_EQ(ctx.sampled, i % 2 == 0);
    ids.insert(ctx.trace_id);
  }
  EXPECT_EQ(ids.size(), 1000u);
  EXPECT_FALSE(TraceContext{}.active());
}

// --- TraceBuilder ------------------------------------------------------------

TEST(TraceBuilderTest, SpansInheritTheContextParentUnlessOverridden) {
  FlightRecorder recorder(small_recorder());
  TraceContext ctx = make_trace_context(true);
  ctx.parent_span = 77;

  TraceBuilder builder;
  builder.begin(ctx);
  const std::size_t a = builder.open_span(TraceStage::kMatch);
  const std::uint64_t a_id = builder.span_id_of(a);
  ASSERT_NE(a_id, 0u);
  const std::size_t b = builder.open_span(TraceStage::kDispatch, a_id);
  builder.close_span(b, /*detail=*/3);
  builder.close_span(a, /*detail=*/9);
  EXPECT_TRUE(builder.finish(recorder));
  EXPECT_FALSE(builder.active());

  const std::vector<Trace> traces = recorder.snapshot();
  ASSERT_EQ(traces.size(), 1u);
  const Trace& t = traces[0];
  EXPECT_EQ(t.trace_id, ctx.trace_id);
  EXPECT_EQ(t.parent_span, 77u);
  EXPECT_TRUE(t.sampled);
  EXPECT_GT(t.start_unix_us, 0u);
  ASSERT_EQ(t.spans.size(), 2u);
  // Spans come back sorted by start offset; both opened back to back so
  // find them by stage.
  const TraceSpan& match =
      t.spans[0].stage == TraceStage::kMatch ? t.spans[0] : t.spans[1];
  const TraceSpan& dispatch =
      t.spans[0].stage == TraceStage::kDispatch ? t.spans[0] : t.spans[1];
  EXPECT_EQ(match.parent_span, 77u);    // context parent
  EXPECT_EQ(dispatch.parent_span, a_id);  // explicit override
  EXPECT_EQ(match.detail, 9u);
  EXPECT_EQ(dispatch.detail, 3u);
}

TEST(TraceBuilderTest, SpanOverflowDropsTheExtras) {
  FlightRecorder recorder(small_recorder());
  TraceBuilder builder;
  builder.begin(make_trace_context(true));
  for (std::size_t i = 0; i < TraceBuilder::kMaxSpans + 5; ++i) {
    const std::size_t slot = builder.open_span(TraceStage::kShardMatch);
    if (i < TraceBuilder::kMaxSpans) {
      EXPECT_LT(slot, TraceBuilder::kMaxSpans);
      EXPECT_NE(builder.span_id_of(slot), 0u);
    } else {
      EXPECT_EQ(slot, TraceBuilder::kMaxSpans);
      EXPECT_EQ(builder.span_id_of(slot), 0u);
    }
    builder.close_span(slot);
  }
  EXPECT_TRUE(builder.finish(recorder));
  const std::vector<Trace> traces = recorder.snapshot();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].spans.size(), TraceBuilder::kMaxSpans);
}

TEST(TraceBuilderTest, FinishWithoutBeginIsInert) {
  FlightRecorder recorder(small_recorder());
  TraceBuilder builder;
  EXPECT_FALSE(builder.finish(recorder));
  EXPECT_EQ(recorder.recorded_total(), 0u);
}

TEST(TraceBuilderTest, AbandonDisarmsWithoutRecording) {
  FlightRecorder recorder(small_recorder());
  TraceBuilder builder;
  builder.begin(make_trace_context(true));
  builder.open_span(TraceStage::kMatch);
  builder.abandon();
  EXPECT_FALSE(builder.finish(recorder));
  EXPECT_EQ(recorder.recorded_total(), 0u);
}

// --- ScopedSpan --------------------------------------------------------------

TEST(ScopedSpanTest, InertOnNullOrInactiveBuilder) {
  {
    ScopedSpan span(nullptr, TraceStage::kMatch);
    EXPECT_EQ(span.span_id(), 0u);
  }
  TraceBuilder builder;  // never begun: inactive
  {
    ScopedSpan span(&builder, TraceStage::kMatch);
    EXPECT_EQ(span.span_id(), 0u);
  }
}

TEST(ScopedSpanTest, DetailedOnlySpansRequireHeadSampling) {
  FlightRecorder recorder(small_recorder());
  TraceBuilder builder;
  builder.begin(make_trace_context(/*sampled=*/false));
  {
    ScopedSpan coarse(&builder, TraceStage::kMatch);
    EXPECT_NE(coarse.span_id(), 0u);
    ScopedSpan detailed(&builder, TraceStage::kShardMatch,
                        /*detailed_only=*/true);
    EXPECT_EQ(detailed.span_id(), 0u);
  }
  // An unsampled trace with an empty slow window is still admitted (the
  // window is underfull), carrying only the coarse span.
  EXPECT_TRUE(builder.finish(recorder));
  const std::vector<Trace> traces = recorder.snapshot();
  ASSERT_EQ(traces.size(), 1u);
  ASSERT_EQ(traces[0].spans.size(), 1u);
  EXPECT_EQ(traces[0].spans[0].stage, TraceStage::kMatch);
}

TEST(ScopedSpanTest, CloseIsIdempotentAndKeepsTheDetail) {
  FlightRecorder recorder(small_recorder());
  TraceBuilder builder;
  builder.begin(make_trace_context(true));
  {
    ScopedSpan span(&builder, TraceStage::kOverlayHop);
    span.set_detail(42);
    span.close();
    span.close();  // second close is a no-op
    EXPECT_EQ(span.span_id(), 0u);  // detached after close
  }
  EXPECT_TRUE(builder.finish(recorder));
  const std::vector<Trace> traces = recorder.snapshot();
  ASSERT_EQ(traces.size(), 1u);
  ASSERT_EQ(traces[0].spans.size(), 1u);
  EXPECT_EQ(traces[0].spans[0].detail, 42u);
}

// --- Sampler -----------------------------------------------------------------

TEST(SamplerTest, EdgeRatesNeverAndAlways) {
  Sampler never(0);
  Sampler always(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(never.should_sample());
    EXPECT_TRUE(always.should_sample());
  }
}

TEST(SamplerTest, OneInNIsExactAcrossThreads) {
  // The sampler's counter is a single global fetch_add, so 1-in-N holds
  // exactly over the union of all threads' asks, not just per thread.
  Sampler sampler(8);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::atomic<std::uint64_t> sampled{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::uint64_t mine = 0;
      for (int i = 0; i < kPerThread; ++i) {
        if (sampler.should_sample()) ++mine;
      }
      sampled.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(sampled.load(), kThreads * kPerThread / 8);
}

// --- FlightRecorder ring -----------------------------------------------------

TEST(FlightRecorderTest, RecordSnapshotRoundTripsAllFields) {
  FlightRecorder recorder(small_recorder(4));
  Trace in;
  in.trace_id = 0xDEADBEEFu;
  in.parent_span = 5;
  in.sampled = true;
  in.start_unix_us = 1234567;
  in.duration_us = 89;
  TraceSpan span;
  span.stage = TraceStage::kWalAppend;
  span.span_id = 11;
  span.parent_span = 5;
  span.start_us = 2;
  span.duration_us = 7;
  span.detail = 3;
  in.spans.push_back(span);
  recorder.record(in);

  const std::vector<Trace> out = recorder.snapshot();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].trace_id, in.trace_id);
  EXPECT_EQ(out[0].parent_span, in.parent_span);
  EXPECT_EQ(out[0].sampled, in.sampled);
  EXPECT_EQ(out[0].start_unix_us, in.start_unix_us);
  EXPECT_EQ(out[0].duration_us, in.duration_us);
  ASSERT_EQ(out[0].spans.size(), 1u);
  EXPECT_EQ(out[0].spans[0].stage, span.stage);
  EXPECT_EQ(out[0].spans[0].span_id, span.span_id);
  EXPECT_EQ(out[0].spans[0].parent_span, span.parent_span);
  EXPECT_EQ(out[0].spans[0].start_us, span.start_us);
  EXPECT_EQ(out[0].spans[0].duration_us, span.duration_us);
  EXPECT_EQ(out[0].spans[0].detail, span.detail);
  EXPECT_EQ(recorder.recorded_total(), 1u);
  EXPECT_EQ(recorder.dropped_total(), 0u);
}

TEST(FlightRecorderTest, RingWrapKeepsTheNewestCapacityTraces) {
  FlightRecorder recorder(small_recorder(4));
  for (std::uint64_t i = 1; i <= 10; ++i) {
    Trace t;
    t.trace_id = i;
    t.start_unix_us = i;
    recorder.record(t);
  }
  EXPECT_EQ(recorder.recorded_total(), 10u);
  const std::vector<Trace> out = recorder.snapshot();
  ASSERT_EQ(out.size(), 4u);
  // Oldest first, and only the newest four survive the wrap.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i].trace_id, 7 + i);
  }
}

TEST(FlightRecorderTest, HeadSamplerIsExactlyOneInN) {
  FlightRecorder recorder(small_recorder(4, /*sample_every=*/4));
  int sampled = 0;
  for (int i = 0; i < 100; ++i) {
    if (recorder.should_sample()) ++sampled;
  }
  EXPECT_EQ(sampled, 25);
  EXPECT_EQ(recorder.sample_every(), 4u);
}

TEST(FlightRecorderTest, TailAdmissionKeepsTheSlowestK) {
  FlightRecorder recorder(small_recorder(16, 1, /*slow_k=*/2));
  // Underfull window admits everything.
  EXPECT_TRUE(recorder.admit_slow(1000));
  EXPECT_TRUE(recorder.admit_slow(2000));
  // Threshold is now the Kth largest (1000): faster traces are rejected,
  // slower ones admitted and the threshold climbs.
  EXPECT_FALSE(recorder.admit_slow(10));
  EXPECT_TRUE(recorder.admit_slow(5000));
  EXPECT_FALSE(recorder.admit_slow(1500));  // below the new Kth (2000)
  EXPECT_TRUE(recorder.admit_slow(2000));   // ties are admitted
}

TEST(FlightRecorderTest, UnsampledFastFinishIsDroppedOnceWindowIsFull) {
  FlightRecorder recorder(small_recorder(16, 1, /*slow_k=*/1));
  ASSERT_TRUE(recorder.admit_slow(50000));  // raise the threshold
  TraceBuilder builder;
  builder.begin(make_trace_context(/*sampled=*/false));
  // finish() measures ~0 us — far below the 50 ms threshold.
  EXPECT_FALSE(builder.finish(recorder));
  EXPECT_EQ(recorder.recorded_total(), 0u);

  builder.begin(make_trace_context(/*sampled=*/true));
  EXPECT_TRUE(builder.finish(recorder));  // head-sampled: kept regardless
  EXPECT_EQ(recorder.recorded_total(), 1u);
}

TEST(FlightRecorderTest, ConcurrentRecordAndSnapshotNeverTearEntries) {
  // The writers also race on creating and recording the stage histogram,
  // and the reader scrapes it while they do.
  auto registry = std::make_shared<MetricsRegistry>();
  FlightRecorder recorder(small_recorder(32), registry);
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 3000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const Trace& t : recorder.snapshot()) {
        // A torn entry would mix words from two writers; every writer
        // stamps trace_id == duration_us == its spans' detail.
        ASSERT_EQ(t.trace_id, t.duration_us);
        for (const TraceSpan& s : t.spans) ASSERT_EQ(s.detail, t.trace_id);
      }
      (void)registry->snapshot();
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 1; i <= kPerWriter; ++i) {
        const std::uint64_t id = static_cast<std::uint64_t>(w) * kPerWriter + i;
        Trace t;
        t.trace_id = id;
        t.sampled = true;
        t.duration_us = id;
        t.start_unix_us = id;
        TraceSpan s;
        s.span_id = id;
        s.detail = id;
        t.spans.assign(3, s);
        recorder.record(t);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(recorder.recorded_total() + recorder.dropped_total(),
            kWriters * kPerWriter);
  // Every span counts, including those of traces the ring dropped.
  EXPECT_EQ(stage_count(registry->snapshot(), "match"),
            kWriters * kPerWriter * 3);
}

// --- JSON --------------------------------------------------------------------

TEST(TracesJsonTest, RendersIdsAsDecimalStringsWithTotals) {
  Trace t;
  t.trace_id = 18446744073709551615ULL;  // u64 max: must not go through double
  t.parent_span = 7;
  t.sampled = true;
  t.start_unix_us = 1000;
  t.duration_us = 55;
  TraceSpan s;
  s.stage = TraceStage::kServerDispatch;
  s.span_id = 9;
  s.parent_span = 7;
  s.start_us = 1;
  s.duration_us = 2;
  s.detail = 3;
  t.spans.push_back(s);

  const std::string json = traces_json({t}, /*recorded_total=*/5,
                                       /*dropped_total=*/1);
  EXPECT_NE(json.find("\"trace_id\": \"18446744073709551615\""),
            std::string::npos);
  EXPECT_NE(json.find("\"stage\": \"server_dispatch\""), std::string::npos);
  EXPECT_NE(json.find("\"span_id\": \"9\""), std::string::npos);
  EXPECT_NE(json.find("\"sampled\": true"), std::string::npos);
  EXPECT_NE(json.find("\"recorded_total\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_total\": 1"), std::string::npos);
}

TEST(TracesJsonTest, EmptyRecorderRendersAnEmptyTraceList) {
  FlightRecorder recorder(small_recorder(4));
  EXPECT_EQ(traces_json(recorder),
            "{\"traces\": [], \"recorded_total\": 0, \"dropped_total\": 0}");
}

TEST(TracesJsonTest, EveryStageHasADistinctName) {
  std::set<std::string> names;
  std::size_t stages = 0;
  for (std::size_t s = 0; s < kTraceStageCount; ++s) {
    if (!is_trace_stage(static_cast<std::uint8_t>(s))) continue;
    ++stages;
    names.insert(to_string(static_cast<TraceStage>(s)));
  }
  EXPECT_EQ(kTraceStageCount,
            static_cast<std::size_t>(TraceStage::kOverlayHop) + 1);
  EXPECT_EQ(stages, kTraceStageCount - 2);  // 2 and 3 are reserved
  EXPECT_EQ(names.size(), stages);
  EXPECT_EQ(names.count("unknown"), 0u);
}

TEST(TraceWireTest, ReservedAndUnknownStagesAreDroppedOnDecode) {
  // Stages 2 and 3 (the retired aggregation probe) and a stage byte past
  // the last one are dropped span by span; the trace itself survives.
  Trace trace;
  trace.trace_id = 7;
  trace.sampled = true;
  for (const std::uint8_t raw : {5, 2, 3, 12, 4}) {
    TraceSpan span;
    span.stage = static_cast<TraceStage>(raw);
    span.span_id = 100 + raw;
    trace.spans.push_back(span);
  }
  net::WireTraces sent;
  sent.traces.push_back(trace);
  WireWriter writer;
  net::encode_traces(sent, writer);
  WireReader reader(writer.bytes());
  const net::WireTraces got = net::decode_traces(reader);
  EXPECT_TRUE(reader.exhausted());
  ASSERT_EQ(got.traces.size(), 1u);
  ASSERT_EQ(got.traces[0].spans.size(), 2u);
  EXPECT_EQ(got.traces[0].spans[0].stage, TraceStage::kMatch);
  EXPECT_EQ(got.traces[0].spans[1].stage, TraceStage::kShardMatch);
  EXPECT_EQ(got.traces[0].spans[1].span_id, 104u);
}

// --- dbsp_stage_us -----------------------------------------------------------

TEST(StageMetricsTest, OnlyHeadSampledSpansReachTheHistograms) {
  auto registry = std::make_shared<MetricsRegistry>();
  FlightRecorder recorder(small_recorder(), registry);
  Trace trace;
  trace.trace_id = 1;
  trace.sampled = true;
  trace.spans.push_back({TraceStage::kMatch, 1, 0, 0, 40, 0});
  trace.spans.push_back({TraceStage::kShardMatch, 2, 1, 1, 10, 0});
  trace.spans.push_back({TraceStage::kShardMatch, 3, 1, 11, 20, 1});
  recorder.record(trace);
  // A tail-admitted (unsampled) trace is kept in the ring but stays out
  // of the histograms, which remain a uniform 1-in-N sample.
  trace.trace_id = 2;
  trace.sampled = false;
  recorder.record(trace);

  const MetricsSnapshot s = registry->snapshot();
  EXPECT_EQ(stage_count(s, "match"), 1u);
  EXPECT_EQ(stage_count(s, "shard_match"), 2u);
  EXPECT_DOUBLE_EQ(
      s.find("dbsp_stage_us", {{"stage", "shard_match"}})->histogram.sum, 30.0);
  // Stages that never occurred expose no series.
  EXPECT_EQ(s.find("dbsp_stage_us", {{"stage", "dispatch"}}), nullptr);
  EXPECT_EQ(recorder.recorded_total(), 2u);
}

Schema quote_schema() {
  Schema s;
  s.add_attribute("sym", ValueType::String);
  s.add_attribute("price", ValueType::Double);
  return s;
}

Event quote(const PubSub& pubsub, int i) {
  return pubsub.event()
      .with("sym", i % 2 == 0 ? "A" : "B")
      .with("price", static_cast<double>(i % 97))
      .build();
}

TEST(StageMetricsTest, StageCountEqualsSampledTracesRecorded) {
  // One sampler: the recorder's 1-in-4 head sampler alone decides both
  // which publishes reach /traces as sampled and which feed the metrics.
  PubSubOptions options;
  options.engine.shards = 2;
  options.trace = small_recorder(/*capacity=*/512, /*sample_every=*/4);
  PubSub pubsub(quote_schema(), options);
  std::vector<SubscriptionHandle> live;
  for (int i = 0; i < 10; ++i) {
    live.push_back(
        pubsub.subscribe("price < " + std::to_string(10 * i + 5)).value());
  }
  for (int i = 0; i < 400; ++i) (void)pubsub.publish(quote(pubsub, i));

  std::uint64_t sampled = 0;
  for (const Trace& t : pubsub.traces()) sampled += t.sampled ? 1 : 0;
  EXPECT_EQ(sampled, 100u);
  const MetricsSnapshot s = pubsub.metrics();
  EXPECT_EQ(stage_count(s, "match"), sampled);
  EXPECT_EQ(stage_count(s, "shard_match"), sampled * 2);
}

TEST(StageMetricsTest, TracingOffMeansNoStageSeries) {
  PubSubOptions options;
  options.tracing = false;
  PubSub pubsub(quote_schema(), options);
  auto sub = pubsub.subscribe("price < 50").value();
  (void)pubsub.publish(quote(pubsub, 1));
  const MetricsSnapshot s = pubsub.metrics();
  EXPECT_DOUBLE_EQ(s.value("dbsp_publishes_total"), 1.0);
  for (const MetricSnapshot& m : s.metrics) EXPECT_NE(m.name, "dbsp_stage_us");
}

// --- Structured logger -------------------------------------------------------

TEST(LogTest, ParseLevelRoundTripsAndFallsBack) {
  EXPECT_EQ(parse_log_level("debug", LogLevel::kInfo), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("warn", LogLevel::kInfo), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("off", LogLevel::kInfo), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("nonsense", LogLevel::kWarn), LogLevel::kWarn);
  EXPECT_STREQ(to_string(LogLevel::kError), "error");
}

TEST(LogTest, EventEmitsOneStructuredLine) {
  const LogLevel prior = log_level();
  set_log_level(LogLevel::kInfo);
  testing::internal::CaptureStderr();
  LogEvent(LogLevel::kWarn, "test", "hello world")
      .kv("key", "value")
      .kv("n", 42)
      .kv("flag", true);
  const std::string line = testing::internal::GetCapturedStderr();
  set_log_level(prior);
  EXPECT_EQ(line.rfind("ts=", 0), 0u) << line;
  EXPECT_NE(line.find("level=warn"), std::string::npos) << line;
  EXPECT_NE(line.find("component=test"), std::string::npos) << line;
  EXPECT_NE(line.find("msg=\"hello world\""), std::string::npos) << line;
  EXPECT_NE(line.find("key=value"), std::string::npos) << line;
  EXPECT_NE(line.find("n=42"), std::string::npos) << line;
  EXPECT_NE(line.find("flag=true"), std::string::npos) << line;
  EXPECT_EQ(line.back(), '\n');
}

TEST(LogTest, BelowLevelEventsAreInert) {
  const LogLevel prior = log_level();
  set_log_level(LogLevel::kError);
  testing::internal::CaptureStderr();
  LogEvent(LogLevel::kInfo, "test", "dropped").kv("k", 1);
  const std::string out = testing::internal::GetCapturedStderr();
  set_log_level(prior);
  EXPECT_TRUE(out.empty()) << out;
}

TEST(LogTest, RateLimitCapsEmissionsPerSecond) {
  LogRateLimit rate(/*max_per_sec=*/2);
  int allowed = 0;
  for (int i = 0; i < 10; ++i) {
    if (rate.allow()) ++allowed;
  }
  // 2 per wall second; the loop may straddle one second boundary.
  EXPECT_GE(allowed, 2);
  EXPECT_LE(allowed, 4);
  EXPECT_EQ(rate.suppressed(), static_cast<std::uint64_t>(10 - allowed));
}

}  // namespace
}  // namespace dbsp::obs
