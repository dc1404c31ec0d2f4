// Micro-benchmarks of the pruning machinery: candidate enumeration, scoring,
// end-to-end engine throughput per dimension, and one pruning pass over an
// indexed population (scoring plus the matcher's reindexes).

#include <benchmark/benchmark.h>

#include <memory>
#include <optional>
#include <vector>

#include "core/engine.hpp"
#include "core/pruning_set.hpp"
#include "fixture.hpp"

namespace {

using namespace dbsp;

/// The fixture workload and statistics trained on 5000 events.
struct Fixture : bench::Fixture {
  bench::Trained trained{domain, 5000};
};

void BM_EnumerateCandidates(benchmark::State& state) {
  Fixture fx;
  const auto subs = fx.subscriptions(512);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& sub = *subs[i++ % subs.size()];
    benchmark::DoNotOptimize(enumerate_prunings(sub.root()));
  }
}
BENCHMARK(BM_EnumerateCandidates);

void BM_ScoreCandidate(benchmark::State& state) {
  Fixture fx;
  const auto subs = fx.subscriptions(512);
  const HeuristicScorer scorer(fx.trained.estimator);
  struct Prepared {
    const Subscription* sub;
    Node::Path path;
    OriginalProfile orig;
  };
  std::vector<Prepared> prepared;
  for (const auto& s : subs) {
    const auto paths = enumerate_prunings(s->root());
    if (paths.empty()) continue;
    prepared.push_back({s.get(), paths.front(), scorer.profile(s->root())});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& p = prepared[i++ % prepared.size()];
    benchmark::DoNotOptimize(scorer.score(p.sub->root(), p.path, p.orig));
  }
}
BENCHMARK(BM_ScoreCandidate);

void BM_EngineFullSweep(benchmark::State& state) {
  Fixture fx;
  const auto dim = static_cast<PruneDimension>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto subs = fx.subscriptions(2000);
    PruneEngineConfig cfg;
    cfg.dimension = dim;
    PruningEngine engine(fx.trained.estimator, cfg);
    state.ResumeTiming();
    for (auto& s : subs) engine.register_subscription(*s);
    benchmark::DoNotOptimize(engine.prune(engine.total_possible()));
    state.PauseTiming();
    subs.clear();
    state.ResumeTiming();
  }
  state.SetLabel(to_string(dim));
}
BENCHMARK(BM_EngineFullSweep)
    ->Arg(static_cast<int>(PruneDimension::NetworkLoad))
    ->Arg(static_cast<int>(PruneDimension::MemoryUsage))
    ->Arg(static_cast<int>(PruneDimension::Throughput))
    ->Unit(benchmark::kMillisecond);

// One prune_to_fraction(0.5) pass over state.range(0) auction subscriptions
// indexed by a ShardedEngine, on the paper's single global queue: the
// pruning part of the inproc_prune workload's set-up. Building the table,
// registering it (which scores every subscription once) and tearing it
// down are untimed.
void BM_PruneToHalf(benchmark::State& state) {
  struct Table {
    std::vector<std::unique_ptr<Subscription>> subs;
    ShardedEngine engine;
    std::optional<ShardedPruningSet> set;

    Table(const Fixture& fx, std::size_t n)
        : subs(fx.subscriptions(n)), engine(fx.domain.schema()) {
      std::vector<Subscription*> pointers;
      pointers.reserve(subs.size());
      for (auto& s : subs) {
        engine.add(*s);
        pointers.push_back(s.get());
      }
      set.emplace(engine, fx.trained.estimator, PruneEngineConfig{}, pointers);
    }
  };
  Fixture fx;
  std::unique_ptr<Table> table;
  std::size_t performed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    table.reset();
    table = std::make_unique<Table>(fx, static_cast<std::size_t>(state.range(0)));
    state.ResumeTiming();
    performed = table->set->prune_to_fraction(0.5);
    benchmark::DoNotOptimize(performed);
  }
  table.reset();  // after the loop: untimed
  state.counters["prunings"] = static_cast<double>(performed);
}
BENCHMARK(BM_PruneToHalf)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_SimulatePruning(benchmark::State& state) {
  Fixture fx;
  const auto subs = fx.subscriptions(512);
  struct Target {
    const Subscription* sub;
    Node::Path path;
  };
  std::vector<Target> targets;
  for (const auto& s : subs) {
    for (const auto& p : enumerate_prunings(s->root())) targets.push_back({s.get(), p});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& t = targets[i++ % targets.size()];
    benchmark::DoNotOptimize(simulate_pruning(t.sub->root(), t.path));
  }
}
BENCHMARK(BM_SimulatePruning);

}  // namespace

BENCHMARK_MAIN();
