// Durable-store microbenchmarks: WAL append throughput (the per-subscribe
// durability tax), checkpoint cost of an unchanged table at a given size
// and of the churn_durable table after a round of churn (a segment) and at
// a compaction, the CRC-32 every record and snapshot carries, and full
// crash-recovery replay (PubSub::open over snapshot + WAL). bench_runner.py summarizes these
// rows into BENCH_store.json; the recovery rows are the "how long is a
// restart" trajectory number.

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "dbsp/dbsp.hpp"
#include "fixture.hpp"
#include "scenario/workload_domain.hpp"
#include "store/state_store.hpp"

namespace {

using namespace dbsp;

namespace fs = std::filesystem;

fs::path scratch_dir(const std::string& tag) {
#if defined(__unix__) || defined(__APPLE__)
  const std::string owner = std::to_string(::getpid());
#else
  const std::string owner = "0";
#endif
  const fs::path dir =
      fs::temp_directory_path() / ("dbsp_micro_store_" + owner + "_" + tag);
  fs::remove_all(dir);
  return dir;
}

/// One iteration = one durably logged subscribe (WAL append included) of a
/// pre-generated filter tree. Unsubscribes between batches keep the table
/// from growing without bound, outside the timed region.
void BM_DurableSubscribe(benchmark::State& state) {
  bench::Fixture fx;
  const fs::path dir = scratch_dir("append");
  StoreOptions store;
  store.directory = dir.string();
  store.schema = fx.domain.schema();
  store.snapshot_every = 1 << 30;  // isolate the append path
  auto opened = PubSub::open(std::move(store));
  if (!opened.ok()) {
    state.SkipWithError(opened.status().to_string().c_str());
    return;
  }
  PubSub pubsub = std::move(opened).value();

  constexpr std::size_t kBatch = 512;
  std::vector<std::unique_ptr<Node>> trees;
  std::vector<SubscriptionHandle> handles;
  handles.reserve(kBatch);
  for (auto _ : state) {
    state.PauseTiming();
    trees.clear();
    for (std::size_t i = 0; i < kBatch; ++i) trees.push_back(fx.sub_gen.next_tree());
    handles.clear();  // unsubscribes (and logs) the previous batch
    state.ResumeTiming();
    for (auto& tree : trees) {
      handles.push_back(pubsub.subscribe(std::move(tree)).value());
    }
    benchmark::DoNotOptimize(handles.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
  handles.clear();
  fs::remove_all(dir);
}
BENCHMARK(BM_DurableSubscribe)->Unit(benchmark::kMicrosecond)->UseRealTime();

/// One iteration = one checkpoint of an N-subscription table that did not
/// change since the previous one: the nothing-changed case, which appends
/// a segment of counters only (and compacts once those outgrow a quarter
/// of the base).
void BM_SnapshotWrite(benchmark::State& state) {
  bench::Fixture fx;
  const auto n = static_cast<std::size_t>(state.range(0));
  const fs::path dir = scratch_dir("snapshot_" + std::to_string(n));
  StoreOptions store;
  store.directory = dir.string();
  store.schema = fx.domain.schema();
  store.snapshot_every = 1 << 30;
  auto opened = PubSub::open(std::move(store));
  if (!opened.ok()) {
    state.SkipWithError(opened.status().to_string().c_str());
    return;
  }
  PubSub pubsub = std::move(opened).value();
  std::vector<SubscriptionHandle> handles;
  handles.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    handles.push_back(pubsub.subscribe(fx.sub_gen.next_tree()).value());
  }
  (void)pubsub.checkpoint();  // the one checkpoint with every record new

  for (auto _ : state) {
    const Status snapped = pubsub.checkpoint();
    if (!snapped.ok()) {
      state.SkipWithError(snapped.to_string().c_str());
      break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  handles.clear();
  fs::remove_all(dir);
}
BENCHMARK(BM_SnapshotWrite)->Arg(1000)->Arg(5000)->Arg(60000)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// The churn_durable table as a durable facade (IoT workload, pruning on,
/// checkpoints only where a benchmark asks), after its first checkpoint:
/// the base.
class ChurnTable {
 public:
  explicit ChurnTable(std::size_t n)
      : domain_(make_iot_workload()), dir_(scratch_dir("churn_" + std::to_string(n))) {
    StoreOptions store;
    store.directory = dir_.string();
    store.schema = domain_->schema();
    store.snapshot_every = 1 << 30;
    PubSubOptions options;
    options.pruning = true;
    auto opened = PubSub::open(std::move(store), options);
    if (!opened.ok()) {
      error_ = opened.status().to_string();
      return;
    }
    pubsub_.emplace(std::move(opened).value());
    source_ = domain_->subscriptions(1);
    live_.reserve(n + 1);
    for (std::size_t i = 0; i < n; ++i) live_.push_back(pubsub_->subscribe(source_->next()).value());
    (void)pubsub_->checkpoint();
  }
  ~ChurnTable() {
    live_.clear();
    pubsub_.reset();
    fs::remove_all(dir_);
  }

  [[nodiscard]] const std::string& error() const { return error_; }

  /// 1000 subscribes and 1000 unsubscribes of random live subscriptions.
  void churn() {
    for (std::size_t k = 0; k < 1000; ++k) {
      live_.push_back(pubsub_->subscribe(source_->next()).value());
      const std::size_t victim = rng_() % live_.size();
      (void)live_[victim].release();
      live_[victim] = std::move(live_.back());
      live_.pop_back();
    }
  }

  /// One checkpoint: its wall time in seconds, and whether it compacted.
  std::pair<double, bool> checkpoint() {
    const std::uint64_t compactions = pubsub_->store_stats().compactions;
    const auto start = std::chrono::steady_clock::now();
    const Status snapped = pubsub_->checkpoint();
    const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
    if (!snapped.ok()) error_ = snapped.to_string();
    return {took.count(), pubsub_->store_stats().compactions > compactions};
  }

 private:
  std::unique_ptr<WorkloadDomain> domain_;
  fs::path dir_;
  std::string error_;
  std::vector<SubscriptionHandle> live_;  // after pubsub_: inert once it is gone
  std::optional<PubSub> pubsub_;
  std::unique_ptr<SubscriptionSource> source_;
  std::mt19937_64 rng_{11};
};

/// One iteration = one routine checkpoint (a segment) of an N-subscription
/// IoT table (60000 is the churn_durable table) after 1000 subscribes and
/// 1000 unsubscribes of random live subscriptions were logged since the
/// previous checkpoint. Only checkpoint() is timed; when it compacts, the
/// round is repeated and the next one, a segment, is timed instead.
void BM_CheckpointUnderChurn(benchmark::State& state) {
  ChurnTable table(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    if (!table.error().empty()) break;
    table.churn();
    auto [seconds, compacted] = table.checkpoint();
    if (compacted) {
      table.churn();
      std::tie(seconds, compacted) = table.checkpoint();
    }
    state.SetIterationTime(seconds);
  }
  if (!table.error().empty()) state.SkipWithError(table.error().c_str());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_CheckpointUnderChurn)->Arg(60000)->Unit(benchmark::kMillisecond)->UseManualTime();

/// One iteration = one compaction of the same table: rounds of churn and
/// routine checkpoints run until a checkpoint's segments outgrow a quarter
/// of the base, and only that checkpoint, which folds them into a new base,
/// is timed.
void BM_CheckpointCompaction(benchmark::State& state) {
  ChurnTable table(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    double seconds = 0;
    for (bool compacted = false; !compacted && table.error().empty();) {
      table.churn();
      std::tie(seconds, compacted) = table.checkpoint();
    }
    state.SetIterationTime(seconds);
  }
  if (!table.error().empty()) state.SkipWithError(table.error().c_str());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_CheckpointCompaction)->Arg(60000)->Iterations(3)
    ->Unit(benchmark::kMillisecond)->UseManualTime();

/// One iteration = the CRC-32 of a 4 MiB buffer, about one churn_durable
/// snapshot body.
void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> bytes(std::size_t{4} << 20);
  std::uint32_t x = 1;
  for (auto& b : bytes) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store::crc32(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32)->Unit(benchmark::kMillisecond)->UseRealTime();

/// One iteration = one full crash recovery (PubSub::open) of a store whose
/// N subscriptions live entirely in the WAL (worst case: no compaction).
void BM_RecoverFromWal(benchmark::State& state) {
  bench::Fixture fx;
  const auto n = static_cast<std::size_t>(state.range(0));
  const fs::path dir = scratch_dir("recover_" + std::to_string(n));
  {
    StoreOptions store;
    store.directory = dir.string();
    store.schema = fx.domain.schema();
    store.snapshot_every = 1 << 30;  // everything stays in the WAL
    auto opened = PubSub::open(std::move(store));
    if (!opened.ok()) {
      state.SkipWithError(opened.status().to_string().c_str());
      return;
    }
    std::optional<PubSub> pubsub(std::move(opened).value());
    std::vector<SubscriptionHandle> handles;
    handles.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      handles.push_back(pubsub->subscribe(fx.sub_gen.next_tree()).value());
    }
    pubsub.reset();  // crash: handles turn inert, the WAL holds everything
    handles.clear();
  }

  for (auto _ : state) {
    StoreOptions store;
    store.directory = dir.string();
    auto reopened = PubSub::open(std::move(store));
    if (!reopened.ok()) {
      state.SkipWithError(reopened.status().to_string().c_str());
      break;
    }
    benchmark::DoNotOptimize(reopened.value().subscription_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  fs::remove_all(dir);
}
BENCHMARK(BM_RecoverFromWal)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
