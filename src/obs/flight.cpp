#include "obs/flight.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "common/env.hpp"

namespace dbsp::obs {

namespace {

[[nodiscard]] std::uint64_t unix_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] std::uint64_t steady_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64 finalizer — turns a counter into well-spread nonzero ids.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::atomic<std::uint64_t> g_trace_counter{1};
std::atomic<std::uint64_t> g_span_counter{1};

void append_json_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else {
      out.push_back(c);
    }
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out.append(buf);
}

void append_id(std::string& out, std::uint64_t v) {
  out.push_back('"');
  append_u64(out, v);
  out.push_back('"');
}

}  // namespace

TraceContext make_trace_context(bool sampled) {
  TraceContext ctx;
  // Counter seeded through splitmix64: process-unique, well spread, and
  // never 0 (mix64 maps at most one input to 0; skip it if hit).
  do {
    ctx.trace_id =
        mix64(g_trace_counter.fetch_add(1, std::memory_order_relaxed));
  } while (ctx.trace_id == 0);
  ctx.sampled = sampled;
  return ctx;
}

std::uint64_t next_span_id() {
  return g_span_counter.fetch_add(1, std::memory_order_relaxed);
}

const char* to_string(TraceStage stage) {
  switch (stage) {
    case TraceStage::kClientRequest:
      return "client_request";
    case TraceStage::kServerDispatch:
      return "server_dispatch";
    case TraceStage::kShardMatch:
      return "shard_match";
    case TraceStage::kMatch:
      return "match";
    case TraceStage::kDispatch:
      return "dispatch";
    case TraceStage::kPrune:
      return "prune";
    case TraceStage::kWalAppend:
      return "wal_append";
    case TraceStage::kQueueWait:
      return "queue_wait";
    case TraceStage::kSocketWrite:
      return "socket_write";
    case TraceStage::kOverlayHop:
      return "overlay_hop";
  }
  return "unknown";
}

// --- TraceBuilder -----------------------------------------------------------

void TraceBuilder::begin(TraceContext context) {
  context_ = context;
  start_steady_ = std::chrono::steady_clock::now();
  start_unix_us_ = unix_now_us();
  span_count_ = 0;
  dropped_spans_ = 0;
}

std::uint64_t TraceBuilder::elapsed_us() const {
  const auto ns = std::chrono::steady_clock::now() - start_steady_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(ns).count());
}

std::size_t TraceBuilder::open_span(TraceStage stage,
                                    std::uint64_t parent_span) {
  if (span_count_ >= kMaxSpans) {
    ++dropped_spans_;
    return kMaxSpans;
  }
  TraceSpan& span = spans_[span_count_];
  span.stage = stage;
  span.span_id = next_span_id();
  span.parent_span = parent_span != 0 ? parent_span : context_.parent_span;
  span.start_us = elapsed_us();
  span.duration_us = 0;
  span.detail = 0;
  return span_count_++;
}

void TraceBuilder::close_span(std::size_t index, std::uint64_t detail) {
  if (index >= span_count_) return;
  TraceSpan& span = spans_[index];
  const std::uint64_t now = elapsed_us();
  span.duration_us = now > span.start_us ? now - span.start_us : 0;
  span.detail = detail;
}

std::uint64_t TraceBuilder::span_id_of(std::size_t index) const {
  return index < span_count_ ? spans_[index].span_id : 0;
}

void TraceBuilder::add_span(TraceStage stage, std::uint64_t start_us,
                            std::uint64_t duration_us, std::uint64_t detail,
                            std::uint64_t parent_span) {
  if (span_count_ >= kMaxSpans) {
    ++dropped_spans_;
    return;
  }
  TraceSpan& span = spans_[span_count_++];
  span.stage = stage;
  span.span_id = next_span_id();
  span.parent_span = parent_span != 0 ? parent_span : context_.parent_span;
  span.start_us = start_us;
  span.duration_us = duration_us;
  span.detail = detail;
}

bool TraceBuilder::finish(FlightRecorder& recorder) {
  if (!active()) return false;
  const std::uint64_t duration = elapsed_us();
  const bool keep = context_.sampled || recorder.admit_slow(duration);
  if (keep) {
    Trace trace;
    trace.trace_id = context_.trace_id;
    trace.parent_span = context_.parent_span;
    trace.sampled = context_.sampled;
    trace.start_unix_us = start_unix_us_;
    trace.duration_us = duration;
    trace.spans.assign(spans_, spans_ + span_count_);
    recorder.record(trace);
  }
  context_ = TraceContext{};
  return keep;
}

// --- FlightRecorder ---------------------------------------------------------

FlightRecorderOptions FlightRecorderOptions::from_env() {
  FlightRecorderOptions resolved;
  resolved.capacity =
      static_cast<std::size_t>(std::max<std::int64_t>(1, env_int("DBSP_TRACE_RING", 256)));
  resolved.sample_every = static_cast<std::uint32_t>(
      std::max<std::int64_t>(0, env_int("DBSP_TRACE_SAMPLE", 8)));
  resolved.slow_k = static_cast<std::size_t>(
      std::max<std::int64_t>(1, env_int("DBSP_TRACE_SLOW_K", 16)));
  resolved.window_ms = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, env_int("DBSP_TRACE_WINDOW_MS", 10000)));
  return resolved;
}

namespace {

[[nodiscard]] FlightRecorderOptions resolve(FlightRecorderOptions options) {
  const FlightRecorderOptions env = FlightRecorderOptions::from_env();
  if (options.capacity == 0) options.capacity = env.capacity;
  if (options.sample_every == 0) options.sample_every = env.sample_every;
  if (options.slow_k == 0) options.slow_k = env.slow_k;
  if (options.window_ms == 0) options.window_ms = env.window_ms;
  return options;
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderOptions options,
                               std::shared_ptr<MetricsRegistry> registry)
    // `options` is resolved in place before the first member reads it
    // (sampler_ is the first declared member).
    : sampler_((options = resolve(options)).sample_every),
      registry_(std::move(registry)),
      slow_k_(options.slow_k),
      window_ms_(options.window_ms) {
  slots_.reserve(options.capacity);
  for (std::size_t i = 0; i < options.capacity; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
}

bool FlightRecorder::admit_slow(std::uint64_t duration_us) {
  if (duration_us < slow_threshold_us_.load(std::memory_order_relaxed)) {
    return false;
  }
  // Slow path: this trace is (tentatively) among the slowest K. Refresh
  // the window under the lock and re-check against the exact threshold.
  const std::uint64_t now_ms = steady_now_ms();
  MutexLock lock(slow_mu_);
  while (!slow_window_.empty() && slow_window_.front().first <= now_ms) {
    const auto it = slow_durations_.find(slow_window_.front().second);
    if (it != slow_durations_.end()) slow_durations_.erase(it);
    slow_window_.pop_front();
  }
  const bool admit =
      slow_durations_.size() < slow_k_ || duration_us >= *slow_durations_.begin();
  if (admit) {
    slow_window_.emplace_back(now_ms + window_ms_, duration_us);
    slow_durations_.insert(duration_us);
    // Bound the bookkeeping: beyond 4K live entries the smallest can go —
    // they no longer influence the Kth-largest threshold.
    while (slow_durations_.size() > 4 * slow_k_) {
      const std::uint64_t smallest = *slow_durations_.begin();
      slow_durations_.erase(slow_durations_.begin());
      for (auto it = slow_window_.begin(); it != slow_window_.end(); ++it) {
        if (it->second == smallest) {
          slow_window_.erase(it);
          break;
        }
      }
    }
  }
  // New threshold: the Kth largest duration in the window (the smallest
  // kept value once the window is full), 0 while under-full.
  std::uint64_t threshold = 0;
  if (slow_durations_.size() >= slow_k_) {
    auto it = slow_durations_.end();
    std::advance(it, -static_cast<std::ptrdiff_t>(slow_k_));
    threshold = *it;
  }
  slow_threshold_us_.store(threshold, std::memory_order_relaxed);
  return admit;
}

Histogram& FlightRecorder::stage_histogram(TraceStage stage) {
  std::atomic<Histogram*>& slot = stage_us_[static_cast<std::size_t>(stage)];
  Histogram* hist = slot.load(std::memory_order_acquire);
  if (hist == nullptr) {
    // Find-or-create is idempotent, so racing first spans of one stage
    // store the same pointer.
    hist = &registry_->histogram("dbsp_stage_us", {{"stage", to_string(stage)}});
    slot.store(hist, std::memory_order_release);
  }
  return *hist;
}

void FlightRecorder::record(const Trace& trace) {
  if (trace.trace_id == 0) return;
  if (registry_ != nullptr && trace.sampled) {
    const std::size_t span_count =
        std::min(trace.spans.size(), TraceBuilder::kMaxSpans);
    for (std::size_t i = 0; i < span_count; ++i) {
      const TraceSpan& span = trace.spans[i];
      if (static_cast<std::size_t>(span.stage) >= kTraceStageCount) continue;
      stage_histogram(span.stage).record(static_cast<double>(span.duration_us));
    }
  }
  if (slots_.empty()) return;
  const std::uint64_t at = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = *slots_[at % slots_.size()];
  std::uint32_t seq = slot.seq.load(std::memory_order_relaxed);
  if ((seq & 1U) != 0 ||
      !slot.seq.compare_exchange_strong(seq, seq + 1,
                                        std::memory_order_acquire)) {
    // Another writer owns this slot (ring wrapped within one write):
    // dropping beats blocking on the hot path.
    dropped_total_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::size_t span_count =
      std::min(trace.spans.size(), TraceBuilder::kMaxSpans);
  const auto store = [&slot](std::size_t word, std::uint64_t value) {
    slot.words[word].store(value, std::memory_order_relaxed);
  };
  store(0, trace.trace_id);
  store(1, trace.parent_span);
  store(2, (trace.sampled ? 1ULL : 0ULL) |
               (static_cast<std::uint64_t>(span_count) << 8));
  store(3, trace.start_unix_us);
  store(4, trace.duration_us);
  for (std::size_t i = 0; i < span_count; ++i) {
    const TraceSpan& span = trace.spans[i];
    const std::size_t base = kHeaderWords + i * kSpanWords;
    store(base + 0, span.span_id);
    store(base + 1, span.parent_span);
    store(base + 2, static_cast<std::uint64_t>(span.stage));
    store(base + 3, span.start_us);
    store(base + 4, span.duration_us);
    store(base + 5, span.detail);
  }
  slot.seq.store(seq + 2, std::memory_order_release);
  recorded_total_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Trace> FlightRecorder::snapshot() const {
  std::vector<Trace> out;
  out.reserve(slots_.size());
  std::uint64_t words[kSlotWords];
  for (const auto& slot_ptr : slots_) {
    const Slot& slot = *slot_ptr;
    const std::uint32_t before = slot.seq.load(std::memory_order_acquire);
    if (before == 0 || (before & 1U) != 0) continue;  // empty or mid-write
    for (std::size_t w = 0; w < kSlotWords; ++w) {
      words[w] = slot.words[w].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != before) continue;
    Trace trace;
    trace.trace_id = words[0];
    trace.parent_span = words[1];
    trace.sampled = (words[2] & 1U) != 0;
    trace.start_unix_us = words[3];
    trace.duration_us = words[4];
    const std::size_t span_count = std::min<std::size_t>(
        (words[2] >> 8) & 0xFFU, TraceBuilder::kMaxSpans);
    trace.spans.reserve(span_count);
    for (std::size_t i = 0; i < span_count; ++i) {
      const std::size_t base = kHeaderWords + i * kSpanWords;
      TraceSpan span;
      span.span_id = words[base + 0];
      span.parent_span = words[base + 1];
      span.stage = static_cast<TraceStage>(words[base + 2] & 0xFFU);
      span.start_us = words[base + 3];
      span.duration_us = words[base + 4];
      span.detail = words[base + 5];
      trace.spans.push_back(span);
    }
    std::sort(trace.spans.begin(), trace.spans.end(),
              [](const TraceSpan& a, const TraceSpan& b) {
                return a.start_us < b.start_us;
              });
    if (trace.trace_id != 0) out.push_back(std::move(trace));
  }
  std::sort(out.begin(), out.end(), [](const Trace& a, const Trace& b) {
    return a.start_unix_us < b.start_unix_us;
  });
  return out;
}

// --- JSON -------------------------------------------------------------------

std::string traces_json(const std::vector<Trace>& traces,
                        std::uint64_t recorded_total,
                        std::uint64_t dropped_total) {
  std::string out;
  out.reserve(256 + traces.size() * 512);
  out.append("{\"traces\": [");
  bool first_trace = true;
  for (const Trace& trace : traces) {
    if (!first_trace) out.append(", ");
    first_trace = false;
    out.append("{\"trace_id\": ");
    append_id(out, trace.trace_id);
    out.append(", \"parent_span\": ");
    append_id(out, trace.parent_span);
    out.append(", \"sampled\": ");
    out.append(trace.sampled ? "true" : "false");
    out.append(", \"start_unix_us\": ");
    append_u64(out, trace.start_unix_us);
    out.append(", \"duration_us\": ");
    append_u64(out, trace.duration_us);
    out.append(", \"spans\": [");
    bool first_span = true;
    for (const TraceSpan& span : trace.spans) {
      if (!first_span) out.append(", ");
      first_span = false;
      out.append("{\"stage\": \"");
      append_json_escaped(out, to_string(span.stage));
      out.append("\", \"span_id\": ");
      append_id(out, span.span_id);
      out.append(", \"parent_span\": ");
      append_id(out, span.parent_span);
      out.append(", \"start_us\": ");
      append_u64(out, span.start_us);
      out.append(", \"duration_us\": ");
      append_u64(out, span.duration_us);
      out.append(", \"detail\": ");
      append_u64(out, span.detail);
      out.append("}");
    }
    out.append("]}");
  }
  out.append("], \"recorded_total\": ");
  append_u64(out, recorded_total);
  out.append(", \"dropped_total\": ");
  append_u64(out, dropped_total);
  out.append("}");
  return out;
}

std::string traces_json(const FlightRecorder& recorder) {
  return traces_json(recorder.snapshot(), recorder.recorded_total(),
                     recorder.dropped_total());
}

}  // namespace dbsp::obs
