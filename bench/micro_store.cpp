// Durable-store microbenchmarks: WAL append throughput (the per-subscribe
// durability tax), checkpoint cost of an unchanged table at a given size
// and of the churn_durable table after a round of churn, the CRC-32 every
// record and snapshot carries, and full crash-recovery replay
// (PubSub::open over snapshot + WAL). bench_runner.py summarizes these
// rows into BENCH_store.json; the recovery rows are the "how long is a
// restart" trajectory number.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "dbsp/dbsp.hpp"
#include "scenario/workload_domain.hpp"
#include "store/state_store.hpp"
#include "workload/subscription_gen.hpp"

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

struct Fixture {
  static WorkloadConfig make_cfg() {
    WorkloadConfig cfg;
    cfg.seed = 7;
    return cfg;
  }

  WorkloadConfig cfg = make_cfg();
  std::unique_ptr<AuctionDomain> domain = std::make_unique<AuctionDomain>(cfg);
  AuctionSubscriptionGenerator sub_gen{*domain, 1};
};

/// One iteration = one durably logged subscribe (WAL append included) of a
/// pre-generated filter tree. Unsubscribes between batches keep the table
/// from growing without bound, outside the timed region.
void BM_DurableSubscribe(benchmark::State& state) {
  Fixture fx;
  const fs::path dir = scratch_dir("append");
  StoreOptions store;
  store.directory = dir.string();
  store.schema = fx.domain->schema();
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
/// change since the previous one: the nothing-changed case, in which the
/// snapshot copies every record from the previous one.
void BM_SnapshotWrite(benchmark::State& state) {
  Fixture fx;
  const auto n = static_cast<std::size_t>(state.range(0));
  const fs::path dir = scratch_dir("snapshot_" + std::to_string(n));
  StoreOptions store;
  store.directory = dir.string();
  store.schema = fx.domain->schema();
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

/// One iteration = one checkpoint of an N-subscription IoT table (60000 is
/// the churn_durable table, pruning on) after 1000 subscribes and 1000
/// unsubscribes of random live subscriptions were logged since the
/// previous checkpoint. Only checkpoint() is timed.
void BM_CheckpointUnderChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto domain = make_iot_workload();
  const fs::path dir = scratch_dir("churn_" + std::to_string(n));
  StoreOptions store;
  store.directory = dir.string();
  store.schema = domain->schema();
  store.snapshot_every = 1 << 30;  // checkpoints only where timed
  PubSubOptions options;
  options.pruning = true;
  auto opened = PubSub::open(std::move(store), options);
  if (!opened.ok()) {
    state.SkipWithError(opened.status().to_string().c_str());
    return;
  }
  PubSub pubsub = std::move(opened).value();
  const auto source = domain->subscriptions(1);
  std::vector<SubscriptionHandle> live;
  live.reserve(n + 1);
  for (std::size_t i = 0; i < n; ++i) live.push_back(pubsub.subscribe(source->next()).value());
  (void)pubsub.checkpoint();

  constexpr std::size_t kChurn = 1000;
  std::mt19937_64 rng(11);
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t k = 0; k < kChurn; ++k) {
      live.push_back(pubsub.subscribe(source->next()).value());
      const std::size_t victim = rng() % live.size();
      (void)live[victim].release();
      live[victim] = std::move(live.back());
      live.pop_back();
    }
    state.ResumeTiming();
    const Status snapped = pubsub.checkpoint();
    if (!snapped.ok()) {
      state.SkipWithError(snapped.to_string().c_str());
      break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  live.clear();
  fs::remove_all(dir);
}
BENCHMARK(BM_CheckpointUnderChurn)->Arg(60000)->Unit(benchmark::kMillisecond)->UseRealTime();

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
  Fixture fx;
  const auto n = static_cast<std::size_t>(state.range(0));
  const fs::path dir = scratch_dir("recover_" + std::to_string(n));
  {
    StoreOptions store;
    store.directory = dir.string();
    store.schema = fx.domain->schema();
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
