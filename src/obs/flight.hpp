#pragma once

/// \file
/// Per-event distributed tracing: a TraceContext attached to events at
/// publish and propagated across the wire and overlay hops, span records
/// for every pipeline stage the event crosses, and a lock-free ring-buffer
/// FlightRecorder holding the completed traces an operator can pull
/// through PubSub::traces_json(), the `traces` wire verb, or dbspd's
/// GET /traces.
///
/// Sampling is two-sided. Head sampling (1-in-N, obs::Sampler) decides
/// *before* the event runs whether the trace is kept; it is the `sampled`
/// flag that travels in the TraceContext so every hop of a head-sampled
/// event agrees. Tail sampling catches what head sampling misses: every
/// traced publish takes a handful of coarse timestamps, and a finished
/// trace whose total duration reaches the rolling slowest-K admission
/// threshold is retained even when the head sampler skipped it — the
/// slowest K events of the window are always in the recorder.
///
/// Spans are also the only timing primitive behind the metrics: a
/// recorder built with a MetricsRegistry records every span of every
/// head-sampled trace handed to record() into the histogram family
/// `dbsp_stage_us{stage=<to_string(TraceStage)>}`. Metrics and /traces
/// therefore describe the same publishes, chosen by the one head sampler
/// (DBSP_TRACE_SAMPLE). Tail-admitted (unsampled) traces stay out of the
/// histograms so the series remain a uniform 1-in-N sample, and spans a
/// TraceBuilder dropped beyond kMaxSpans are not counted. No recorder
/// (tracing off) means no dbsp_stage_us.
///
/// Concurrency: TraceBuilder is single-threaded (one in-flight trace on
/// one thread — the facade holds its lock across a publish, the net
/// server's io thread owns its connections). FlightRecorder::record() is
/// lock-free — per-slot sequence-claimed writes into relaxed-atomic words,
/// so concurrent recorders and snapshot readers never block or race; a
/// claim collision on ring wrap drops the trace and counts it. Only the
/// slow-admission bookkeeping takes a mutex, and only for traces that
/// already crossed the admission threshold (rare by construction).

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "obs/metrics.hpp"

namespace dbsp::obs {

/// Counter-based 1-in-N sampling. every == 0 never samples, every == 1
/// samples everything. Thread-safe (one relaxed fetch_add per ask).
class Sampler {
 public:
  explicit Sampler(std::uint32_t every) : every_(every) {}

  [[nodiscard]] bool should_sample() {
    if (every_ == 0) return false;
    if (every_ == 1) return true;
    return n_.fetch_add(1, std::memory_order_relaxed) % every_ == 0;
  }

  [[nodiscard]] std::uint32_t every() const { return every_; }

 private:
  std::uint32_t every_;
  std::atomic<std::uint64_t> n_{0};
};

/// The causal identity one event carries across process, wire, and
/// overlay boundaries: which trace it belongs to, which span caused this
/// hop, and whether the head sampler chose it for detailed tracing.
/// trace_id == 0 means "no trace attached".
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  bool sampled = false;

  [[nodiscard]] bool active() const { return trace_id != 0; }
};

/// A fresh context with a process-unique nonzero trace id.
[[nodiscard]] TraceContext make_trace_context(bool sampled);

/// Process-unique nonzero span id (relaxed atomic counter).
[[nodiscard]] std::uint64_t next_span_id();

/// Wall clock in unix microseconds — the clock of every `*_unix_us` field
/// (trace starts, published_unix_us) and of the e2e latency it feeds.
[[nodiscard]] std::uint64_t unix_now_us();

/// The span taxonomy — every stage a traced event can cross. Wire-encoded
/// as a u8, so append only. Values 2, 3, 4 and 11 are reserved (a retired
/// aggregation probe, its fallback, a per-shard match and a simulated
/// broker overlay hop) and must never be reused.
enum class TraceStage : std::uint8_t {
  kClientRequest = 0,  ///< client: publish request sent -> reply received
  kServerDispatch = 1, ///< server io thread: frame decoded -> reply queued
  kMatch = 5,          ///< whole engine match phase
  kDispatch = 6,       ///< callback dispatch (detail: notifications)
  kPrune = 7,          ///< pruning maintenance (detail: prunings)
  kWalAppend = 8,      ///< durable store append (detail: records)
  kQueueWait = 9,      ///< notification queued -> socket flush started
  kSocketWrite = 10,   ///< notification bytes entering the socket
};

/// One past the last TraceStage value (reserved values included).
inline constexpr std::size_t kTraceStageCount = 12;

/// Whether a raw stage byte names a TraceStage: below kTraceStageCount and
/// not one of the reserved values.
[[nodiscard]] constexpr bool is_trace_stage(std::uint8_t raw) {
  return raw < kTraceStageCount && (raw < 2 || raw > 4) && raw != 11;
}

[[nodiscard]] const char* to_string(TraceStage stage);

/// One recorded stage. `start_us` is the offset from the owning trace's
/// start, so span timestamps are monotone within a trace by construction.
struct TraceSpan {
  TraceStage stage = TraceStage::kMatch;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;  ///< 0, a sibling span, or the trace parent
  std::uint64_t start_us = 0;
  std::uint64_t duration_us = 0;
  std::uint64_t detail = 0;  ///< stage-specific (counts, bytes, broker)
};

/// One completed trace entry: the spans one process recorded for one
/// event. A distributed trace is the set of entries sharing a trace_id
/// (client entry, server entry, delivery entries), joined by a collector.
struct Trace {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;  ///< causal parent from the propagated context
  bool sampled = false;
  std::uint64_t start_unix_us = 0;
  std::uint64_t duration_us = 0;
  std::vector<TraceSpan> spans;
};

class FlightRecorder;

/// Collects the spans of one in-flight trace on one thread, then hands
/// the finished entry to a FlightRecorder (which applies head/tail
/// retention). Fixed span capacity — overflow drops the extra spans and
/// counts them in the entry's last-span detail, never allocates.
class TraceBuilder {
 public:
  static constexpr std::size_t kMaxSpans = 16;

  TraceBuilder() = default;

  /// Arms the builder for one trace. Resets any previous spans.
  void begin(TraceContext context);

  [[nodiscard]] bool active() const { return context_.active(); }
  [[nodiscard]] const TraceContext& context() const { return context_; }

  /// Microseconds since begin().
  [[nodiscard]] std::uint64_t elapsed_us() const;
  /// Wall clock of begin() in unix microseconds.
  [[nodiscard]] std::uint64_t start_unix_us() const { return start_unix_us_; }

  /// Opens a span now; close_span() stamps its duration. Returns the span
  /// slot index (kMaxSpans when dropped — close_span ignores it).
  std::size_t open_span(TraceStage stage, std::uint64_t parent_span = 0);
  void close_span(std::size_t index, std::uint64_t detail = 0);
  /// The span id of an open slot (0 when the slot was dropped) — the
  /// parent id to propagate to child hops.
  [[nodiscard]] std::uint64_t span_id_of(std::size_t index) const;

  /// Completes the trace: computes the total duration, asks the recorder
  /// whether to keep it (head flag or slow admission), records, and
  /// disarms. Returns true when the entry was kept. No-op when inactive.
  bool finish(FlightRecorder& recorder);

  /// Disarms without recording.
  void abandon() { context_ = TraceContext{}; }

 private:
  TraceContext context_{};
  std::chrono::steady_clock::time_point start_steady_{};
  std::uint64_t start_unix_us_ = 0;
  TraceSpan spans_[kMaxSpans];
  std::size_t span_count_ = 0;
  std::uint64_t dropped_spans_ = 0;
};

/// RAII span over a TraceBuilder: opens on construction, closes on
/// destruction. Inert when the builder is null or inactive.
class ScopedSpan {
 public:
  ScopedSpan(TraceBuilder* builder, TraceStage stage)
      : builder_(builder != nullptr && builder->active() ? builder : nullptr),
        index_(builder_ != nullptr ? builder_->open_span(stage)
                                   : TraceBuilder::kMaxSpans) {}
  ~ScopedSpan() {
    if (builder_ != nullptr) builder_->close_span(index_, detail_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_detail(std::uint64_t detail) { detail_ = detail; }
  /// Closes the span now instead of at scope exit (idempotent) — for
  /// callers that must finish() the builder before the scope ends.
  void close() {
    if (builder_ != nullptr) builder_->close_span(index_, detail_);
    builder_ = nullptr;
  }
  /// The opened span's id (0 when inert) — parent for child contexts.
  [[nodiscard]] std::uint64_t span_id() const {
    return builder_ != nullptr ? builder_->span_id_of(index_) : 0;
  }

 private:
  TraceBuilder* builder_;
  std::size_t index_;
  std::uint64_t detail_ = 0;
};

/// Construction-time knobs of a FlightRecorder.
struct FlightRecorderOptions {
  /// Completed-trace ring slots; older traces are overwritten.
  std::size_t capacity = 256;
  /// Head sampling: trace every Nth publish in detail (1 = every publish).
  /// 0 reads DBSP_TRACE_SAMPLE (default 8; there 0 turns it off).
  std::uint32_t sample_every = 0;
  /// Tail sampling: always retain the slowest K traces of the rolling
  /// window.
  std::size_t slow_k = 16;
  /// Rolling-window length for the slowest-K set.
  std::uint64_t window_ms = 10000;
};

/// The completed-trace ring. See the file comment for the concurrency
/// story; capacity is fixed at construction and every slot holds one
/// fixed-size encoded trace (TraceBuilder::kMaxSpans spans).
class FlightRecorder {
 public:
  /// A non-null `registry` receives the dbsp_stage_us histograms (see the
  /// file comment); each stage's series is created on its first span.
  explicit FlightRecorder(FlightRecorderOptions options = {},
                          std::shared_ptr<MetricsRegistry> registry = nullptr);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Head sampler: should the next publish be traced in detail?
  [[nodiscard]] bool should_sample() { return sampler_.should_sample(); }
  [[nodiscard]] std::uint32_t sample_every() const { return sampler_.every(); }

  /// Tail sampler: is `duration_us` within the slowest K of the rolling
  /// window? The fast path is one relaxed threshold load; only admitted
  /// (i.e. slow) traces take the bookkeeping mutex.
  [[nodiscard]] bool admit_slow(std::uint64_t duration_us);

  /// Lock-free ring write. Spans beyond TraceBuilder::kMaxSpans are
  /// dropped. A slot-claim collision drops the whole trace from the ring
  /// and counts it; a head-sampled trace's spans reach dbsp_stage_us
  /// first either way.
  void record(const Trace& trace);

  /// Every currently readable trace, oldest first (by start timestamp).
  /// Entries being overwritten mid-read are skipped, never torn.
  [[nodiscard]] std::vector<Trace> snapshot() const;

  [[nodiscard]] std::uint64_t recorded_total() const {
    return recorded_total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped_total() const {
    return dropped_total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  // Slot layout: 5 header words + kMaxSpans * 6 span words, all relaxed
  // atomics so concurrent write/snapshot stays data-race-free; `seq` odd
  // while a writer owns the slot (seqlock).
  static constexpr std::size_t kSpanWords = 6;
  static constexpr std::size_t kHeaderWords = 5;
  static constexpr std::size_t kSlotWords =
      kHeaderWords + TraceBuilder::kMaxSpans * kSpanWords;
  struct Slot {
    std::atomic<std::uint32_t> seq{0};
    std::atomic<std::uint64_t> words[kSlotWords];
  };

  /// The stage's dbsp_stage_us series, created on first use.
  [[nodiscard]] Histogram& stage_histogram(TraceStage stage);

  Sampler sampler_;
  std::shared_ptr<MetricsRegistry> registry_;
  std::atomic<Histogram*> stage_us_[kTraceStageCount] = {};
  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> recorded_total_{0};
  std::atomic<std::uint64_t> dropped_total_{0};

  // --- Slow-admission state ------------------------------------------------
  std::size_t slow_k_;
  std::uint64_t window_ms_;
  /// Admission threshold in microseconds; 0 while the window holds fewer
  /// than K traces (everything is then among the slowest K).
  std::atomic<std::uint64_t> slow_threshold_us_{0};
  mutable Mutex slow_mu_;
  /// (expiry steady ms, duration) of admitted traces, arrival order.
  std::deque<std::pair<std::uint64_t, std::uint64_t>> slow_window_ DBSP_GUARDED_BY(slow_mu_);
  std::multiset<std::uint64_t> slow_durations_ DBSP_GUARDED_BY(slow_mu_);
};

/// JSON rendering of a trace set (what PubSub::traces_json() and dbspd's
/// GET /traces serve):
///   {"traces": [{"trace_id": "...", "parent_span": "...", "sampled": B,
///                "start_unix_us": N, "duration_us": N,
///                "spans": [{"stage": "server_dispatch", "span_id": "...",
///                           "parent_span": "...", "start_us": N,
///                           "duration_us": N, "detail": N}, ...]}, ...],
///    "recorded_total": N, "dropped_total": N}
/// Ids render as decimal strings (64-bit ids overflow JSON readers that
/// parse numbers as doubles); spans are sorted by start offset.
[[nodiscard]] std::string traces_json(const std::vector<Trace>& traces,
                                      std::uint64_t recorded_total,
                                      std::uint64_t dropped_total);
[[nodiscard]] std::string traces_json(const FlightRecorder& recorder);

}  // namespace dbsp::obs
