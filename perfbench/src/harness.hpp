#pragma once

// Shared pieces of the benchmark driver: the command line, latency
// statistics, the result report, the benchmark's own span recorder, memory
// probes, the workload inputs every runner is built from, and the core
// replica the per-layer metrics are measured on.

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/pruning_set.hpp"
#include "core/sharded_engine.hpp"
#include "dbsp/dbsp.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Shard count of every engine the benchmark builds (pinned, never the
/// machine's hardware concurrency).
inline constexpr std::size_t kShards = 4;
/// Share of each shard's pruning capacity applied before measuring.
inline constexpr double kPruneFraction = 0.5;
/// Set-ups per run; setup_s is their median, so it spans several seconds
/// of the machine's speed rather than one set-up's.
inline constexpr int kSetupRepeats = 7;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string daemon;    ///< dbspd binary
  std::string work_dir;  ///< scratch directory inside the checkout
  std::string spans;     ///< where a traced run writes its spans
};

/// Nearest-rank quantile of an unsorted sample; 0 for an empty one.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Throughput of a loop, counted into fixed wall-clock blocks. The median
/// block rate is reported, so a burst of interference from a neighbour
/// moves one block rather than the figure.
class RateBlocks {
 public:
  RateBlocks(Clock::time_point start, double block_s)
      : block_s_(block_s), block_end_(start + to_duration(block_s)) {}
  void add(Clock::time_point t, std::uint64_t n = 1);
  /// Starts a new series of blocks at `start`, dropping the unfinished
  /// block: a loop measured in segments pools every segment's blocks.
  void restart(Clock::time_point start) {
    count_ = 0;
    block_end_ = start + to_duration(block_s_);
  }
  [[nodiscard]] double median_rate() const { return median(rates_); }

 private:
  static Clock::duration to_duration(double s) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  }
  double block_s_;
  Clock::time_point block_end_;
  std::uint64_t count_ = 0;
  std::vector<double> rates_;
};

/// The run's result: metrics, operation counts and output checks. Printed
/// as the last stdout line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Context that is not a metric (sample counts, ratios of a base).
  void detail(const std::string& name, double value);
  void attempted(std::uint64_t n = 1) { attempted_ += n; }
  void failed(std::uint64_t n = 1) { failed_ += n; }
  /// One output check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const { return mismatches_ == 0; }
  [[nodiscard]] std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<Entry> details_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t mismatches_ = 0;
};

/// The benchmark's span recorder: one span per call the driver makes into
/// a layer's public function (name, start, end, parent). Spans stay in
/// memory and are written out once, at exit. Disabled, it records nothing.
/// Single-threaded: only the driver's main thread records.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  [[nodiscard]] Scope span(const char* name) { return Scope(enabled_ ? this : nullptr, name); }
  /// A span recorded only when `on` (alternating traced/untraced blocks).
  [[nodiscard]] Scope span_if(bool on, const char* name) {
    return Scope(enabled_ && on ? this : nullptr, name);
  }
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::vector<double> durations_us(std::string_view name) const;
  [[nodiscard]] double median_us(std::string_view name) const {
    return median(durations_us(name));
  }
  void write_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;  ///< index + 1 of the enclosing span; 0 = root
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// Current resident set of this process in MiB.
double rss_mb();
/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// One workload's inputs, generated from the seed before any clock starts.
/// Subscription i of `trees` is registered as id i everywhere.
struct Table {
  std::shared_ptr<const dbsp::WorkloadDomain> domain;
  std::vector<std::unique_ptr<dbsp::Node>> trees;
  std::vector<std::unique_ptr<dbsp::Node>> fresh;  ///< churn arrivals
  std::vector<dbsp::Event> train;                  ///< selectivity sample
  std::vector<dbsp::Event> events;                 ///< publish stream, cycled
  std::vector<dbsp::Event> check;                  ///< oracle sample

  [[nodiscard]] const dbsp::Schema& schema() const { return domain->schema(); }
  [[nodiscard]] std::vector<std::unique_ptr<dbsp::Node>> clone_trees() const;
  /// The first `n` subscriptions with the same events (probe runs).
  [[nodiscard]] Table head(std::size_t n) const;
};

Table make_table(std::string_view workload, std::uint64_t seed);

/// Ids (indexes into `trees`) whose tree matches `event`, by direct tree
/// evaluation: the naive oracle.
std::vector<std::uint32_t> naive_matches(const std::vector<const dbsp::Node*>& trees,
                                         const dbsp::Event& event);

/// Events the false-positive ratio is measured on (the first of `events`).
/// A few events match thousands of subscriptions, so the ratio needs
/// thousands of events to settle.
inline constexpr std::size_t kRatioEvents = 8192;

/// Notifications an exact (unpruned) counting engine over `originals`
/// delivers for the first kRatioEvents of `events`, summed: the base of the
/// false-positive ratio. Null entries are skipped. The engine is built and
/// run in a child process, so its memory never shows in the driver's peak
/// resident set and the caller can publish meanwhile; total() waits for it.
class ExactDeliveries {
 public:
  ExactDeliveries(const dbsp::Schema& schema, const std::vector<const dbsp::Node*>& originals,
                  const std::vector<dbsp::Event>& events);
  ~ExactDeliveries();
  ExactDeliveries(const ExactDeliveries&) = delete;
  ExactDeliveries& operator=(const ExactDeliveries&) = delete;
  std::uint64_t total();

 private:
  int pid_ = -1;
  int fd_ = -1;
};

/// (delivered - exact) / exact.
inline double false_positive_ratio(std::uint64_t delivered, std::uint64_t exact) {
  return exact > 0 ? (static_cast<double>(delivered) - static_cast<double>(exact)) /
                         static_cast<double>(exact)
                   : 0.0;
}

/// The core and filter layers rebuilt beside the facade from the same
/// inputs: statistics trained on the same sample, a counting engine with
/// the same shard count holding subscription i as id i, and its pruning
/// queues. Pruned to the same fraction it holds the facade's pruned trees.
struct CoreReplica {
  CoreReplica(const Table& table, Tracer& tracer);
  void prune(Tracer& tracer);

  dbsp::EventStats stats;
  std::optional<dbsp::SelectivityEstimator> estimator;
  std::vector<std::unique_ptr<dbsp::Subscription>> subs;  // outlive the engine
  dbsp::ShardedEngine engine;
  std::optional<dbsp::ShardedPruningSet> pruning;
  std::size_t unpruned_associations = 0;
  double train_s = 0;
  double prune_s = 0;
};

/// What one runner is asked to do. The workload's own runner measures the
/// end-to-end metrics (untraced run) or its layers (traced run); in a
/// traced run the other runners also probe their layers on a smaller
/// replica of the same inputs, so every traced run reports every layer.
struct Ctx {
  const Args& args;
  Report& report;
  Tracer& tracer;
  bool e2e;
  bool layers;
  bool probe;
  double seconds;
};

void run_inproc(const Table& table, Ctx& ctx);
void run_wire(const Table& table, Ctx& ctx);
void run_churn(const Table& table, Ctx& ctx);

}  // namespace pb
