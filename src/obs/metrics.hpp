#pragma once

/// \file
/// The unified metrics layer: a MetricsRegistry of named counters, gauges,
/// and log-bucketed latency Histograms, shared by every instrumented layer
/// (engine, state store, facade, network edge) and scraped into one
/// snapshot for the three export paths (PubSub::metrics_json(), the
/// kMetrics protocol verb, and dbspd's HTTP /metrics endpoint).
///
/// Hot-path cost model: recording never takes a lock. A Counter is one
/// relaxed fetch_add; a Histogram spreads its bucket counters over a small
/// set of cache-line-aligned cells indexed by a per-thread stripe id, so
/// concurrent recorders (e.g. several publishing threads) never contend on
/// one line. All aggregation cost is paid at scrape time: snapshot() sums
/// the stripes under the registry mutex after running the registered
/// collection hooks (which fold pull-style sources — NetStats atomics,
/// StoreStats, engine counters — into registry metrics).
///
/// Threading contract (scrape vs record): record paths (add / set /
/// record) are safe from any thread at any time, including concurrently
/// with snapshot(). snapshot() is safe from any thread and may run
/// concurrently with itself. Collection hooks run *outside* the registry
/// mutex, so a hook may take its owner's lock (the facade hook does) or
/// call back into the registry; a hook must guard its own lifetime — the
/// idiom is to capture a weak_ptr to the owner and no-op once it expires,
/// which is why hooks are never removed.
///
/// Metric references returned by counter()/gauge()/histogram() are stable
/// for the registry's lifetime (entries are never erased), so hot paths
/// cache the pointer once and pay only the atomic on each record.

#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace dbsp::obs {

/// Label set of one series, e.g. {{"stage", "match"}}. Order is preserved and
/// significant for identity (instrumentation sites use a fixed order).
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : std::uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
};

[[nodiscard]] const char* to_string(MetricKind kind);

/// Stripe id of the calling thread (dense, assigned on first use). Used to
/// spread histogram recording across cells; stable for the thread's life.
[[nodiscard]] std::size_t thread_stripe();

/// A monotonically increasing counter. Prometheus type "counter": its
/// value must never decrease, which the lint (tools/check_metrics.py)
/// enforces across scrapes — use a Gauge for anything that can go down.
class Counter {
 public:
  void inc() { add(1); }
  void add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }

  /// Folds a legacy cumulative counter in: raises the value to `v` if it
  /// is ahead, never lowers it (so an owner-side reset_counters() cannot
  /// make the exported series non-monotone).
  void sync_to(std::uint64_t v) {
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(cur, v,
                                                    std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A level that can move both ways (open connections, WAL lag, ...).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Aggregated view of one histogram at scrape time. `bucket_counts[i]` is
/// the *per-bucket* (non-cumulative) count of observations with value <=
/// Histogram::bucket_bound(i) and > the previous bound; the exposition
/// layer accumulates them into Prometheus's cumulative `le` form.
struct HistogramSnapshot {
  std::vector<std::uint64_t> bucket_counts;
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// A fixed-layout log-bucketed histogram: 22 finite power-of-two bounds
/// (1, 2, 4, ..., 2^21) plus a +Inf overflow bucket. The unit is whatever
/// the recorder puts in — the instrumentation here records microseconds
/// for latencies and raw counts for sizes; with the 2^21 ceiling that
/// spans 1 us .. ~2.1 s, the whole range a publish-path phase can occupy.
///
/// Degenerate inputs are clamped, never dropped: zero, negative, and NaN
/// observations land in the first bucket and contribute 0 to the sum (the
/// sum stays monotone, as Prometheus clients expect); anything above the
/// top finite bound lands in +Inf with its full value summed.
class Histogram {
 public:
  static constexpr std::size_t kFiniteBuckets = 22;
  static constexpr std::size_t kBuckets = kFiniteBuckets + 1;  // + the +Inf bucket

  /// Upper bound of bucket `i`: 2^i for finite buckets, +Inf for the last.
  [[nodiscard]] static double bucket_bound(std::size_t i) {
    return i < kFiniteBuckets
               ? static_cast<double>(std::uint64_t{1} << i)
               : std::numeric_limits<double>::infinity();
  }

  /// The bucket an observation falls into (see the class comment for the
  /// clamp semantics).
  [[nodiscard]] static std::size_t bucket_index(double v) {
    if (!(v > 1.0)) return 0;  // <= 1, zero, negative, and NaN
    if (v > bucket_bound(kFiniteBuckets - 1)) return kFiniteBuckets;  // +Inf
    const auto n = static_cast<std::uint64_t>(std::ceil(v));
    return static_cast<std::size_t>(std::bit_width(n - 1));
  }

  void record(double v) {
    Cell& cell = cells_[thread_stripe() & (kCells - 1)];
    cell.counts[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    const double clamped = v > 0.0 ? v : 0.0;  // NaN and negatives add 0
    double sum = cell.sum.load(std::memory_order_relaxed);
    while (!cell.sum.compare_exchange_weak(sum, sum + clamped,
                                           std::memory_order_relaxed)) {
    }
  }

  /// Sums the stripes. Safe concurrently with record(); a racing record
  /// may or may not be included (each stripe is read atomically per field,
  /// so the result is always a valid recent state, never garbage).
  [[nodiscard]] HistogramSnapshot snapshot() const {
    HistogramSnapshot out;
    out.bucket_counts.assign(kBuckets, 0);
    for (const Cell& cell : cells_) {
      for (std::size_t b = 0; b < kBuckets; ++b) {
        out.bucket_counts[b] += cell.counts[b].load(std::memory_order_relaxed);
      }
      out.sum += cell.sum.load(std::memory_order_relaxed);
    }
    for (const std::uint64_t c : out.bucket_counts) out.count += c;
    return out;
  }

 private:
  static constexpr std::size_t kCells = 8;  // power of two (masked index)

  struct alignas(64) Cell {
    std::atomic<std::uint64_t> counts[kBuckets] = {};
    std::atomic<double> sum{0.0};
  };

  Cell cells_[kCells];
};

/// One series in a scrape: identity + kind + the value(s).
struct MetricSnapshot {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  /// Counter (integral) and gauge value; unused for histograms.
  double value = 0.0;
  HistogramSnapshot histogram;
};

/// A full scrape, sorted by (name, labels) so families are contiguous for
/// the Prometheus exposition and output is deterministic.
struct MetricsSnapshot {
  std::vector<MetricSnapshot> metrics;

  /// The series with this exact identity, or nullptr.
  [[nodiscard]] const MetricSnapshot* find(const std::string& name,
                                           const Labels& labels = {}) const;
  /// Convenience: find()'s value, or 0 when absent.
  [[nodiscard]] double value(const std::string& name,
                             const Labels& labels = {}) const;
};

/// The registry. Creation is find-or-create keyed on (name, labels);
/// asking for an existing identity with a different kind throws
/// std::logic_error, and names/labels outside the Prometheus charset
/// ([a-zA-Z_:][a-zA-Z0-9_:]* for metric names, [a-zA-Z_][a-zA-Z0-9_]* for
/// label names) throw std::invalid_argument at creation time — bad names
/// fail at the instrumentation site, not at scrape time.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(const std::string& name, Labels labels = {});
  [[nodiscard]] Gauge& gauge(const std::string& name, Labels labels = {});
  [[nodiscard]] Histogram& histogram(const std::string& name, Labels labels = {});

  /// Registers a collection hook, run at the start of every snapshot()
  /// (outside the registry mutex — see the file comment for the lifetime
  /// idiom). Hooks are never removed: each guards its own lifetime via
  /// weak capture.
  void add_hook(std::function<void()> hook);

  /// Runs the hooks, then aggregates every series. See the threading
  /// contract in the file comment.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Registered series count (for tests).
  [[nodiscard]] std::size_t series_count() const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind;
    // Exactly one is set, matching `kind`. Separate slots (not a variant)
    // so the hot-path objects stay standard-layout and pointer-stable.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_create(const std::string& name, Labels&& labels,
                        MetricKind kind);

  mutable Mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_ DBSP_GUARDED_BY(mutex_);
  /// (name + '\x01' + k '\x02' v ...) -> index into entries_.
  std::unordered_map<std::string, std::size_t> index_ DBSP_GUARDED_BY(mutex_);
  std::vector<std::shared_ptr<std::function<void()>>> hooks_
      DBSP_GUARDED_BY(mutex_);
};

}  // namespace dbsp::obs
