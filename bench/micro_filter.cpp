// Micro-benchmarks of the filtering engine: counting matcher vs the naive
// baseline across subscription counts, plus index probe and churn cost.

#include <benchmark/benchmark.h>

#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "filter/counting_matcher.hpp"
#include "filter/naive_matcher.hpp"
#include "fixture.hpp"
#include "scenario/workload_domain.hpp"

namespace {

using namespace dbsp;

/// The fixture workload with its first `n` subscriptions.
struct Table {
  bench::Fixture fx;
  std::vector<std::unique_ptr<Subscription>> subs;

  explicit Table(std::size_t n) : subs(fx.subscriptions(n)) {}
};

void BM_CountingMatcher(benchmark::State& state) {
  Table t(static_cast<std::size_t>(state.range(0)));
  CountingMatcher matcher(t.fx.domain.schema());
  for (auto& s : t.subs) matcher.add(*s);
  std::vector<SubscriptionId> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    matcher.match(t.fx.events[i++ % t.fx.events.size()], out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CountingMatcher)->Arg(1000)->Arg(10000)->Arg(50000);

// The same matcher with leaf estimates trained on 10k events bound, as the
// pruning engine binds them: only access leaves are counted and indexed,
// and the numeric comparisons beside them are tested in place.
void BM_CountingMatcherTrained(benchmark::State& state) {
  Table t(static_cast<std::size_t>(state.range(0)));
  const bench::Trained trained(t.fx.domain, 10000);
  CountingMatcher matcher(t.fx.domain.schema());
  matcher.set_leaf_estimate([&](const Predicate& p) { return trained.estimator.leaf(p); });
  for (auto& s : t.subs) matcher.add(*s);
  std::vector<SubscriptionId> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    matcher.match(t.fx.events[i++ % t.fx.events.size()], out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CountingMatcherTrained)->Arg(10000);

// The IoT table of BM_MatcherChurn (stream 1, 60000 is the churn_durable
// table) with estimates trained on 10k events of stream 3 bound, matching
// events of stream 2: the counting-heavy side of the kernel, where every
// event bumps thousands of counters.
void BM_CountingMatcherTrainedIot(benchmark::State& state) {
  const auto domain = make_iot_workload();
  const auto source = domain->subscriptions(1);
  std::vector<std::unique_ptr<Subscription>> subs;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(state.range(0)); ++i) {
    subs.push_back(std::make_unique<Subscription>(SubscriptionId(i), source->next()));
  }
  EventStats stats(domain->schema());
  for (const Event& e : domain->events(3)->generate(10000)) stats.observe(e);
  stats.finalize();
  const SelectivityEstimator estimator(stats);
  CountingMatcher matcher(domain->schema());
  matcher.set_leaf_estimate([&](const Predicate& p) { return estimator.leaf(p); });
  for (auto& s : subs) matcher.add(*s);
  const std::vector<Event> events = domain->events(2)->generate(bench::kEvents);
  std::vector<SubscriptionId> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    matcher.match(events[i++ % events.size()], out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CountingMatcherTrainedIot)->Arg(60000)->Unit(benchmark::kMicrosecond);

void BM_NaiveMatcher(benchmark::State& state) {
  Table t(static_cast<std::size_t>(state.range(0)));
  NaiveMatcher matcher;
  for (auto& s : t.subs) matcher.add(*s);
  std::vector<SubscriptionId> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    matcher.match(t.fx.events[i++ % t.fx.events.size()], out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NaiveMatcher)->Arg(1000)->Arg(10000);

void BM_MatcherRegistration(benchmark::State& state) {
  Table t(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    CountingMatcher matcher(t.fx.domain.schema());
    for (auto& s : t.subs) matcher.add(*s);
    benchmark::DoNotOptimize(matcher.association_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MatcherRegistration)->Arg(1000)->Arg(10000);

// One add and one remove per iteration on a table of state.range(0) IoT
// subscriptions (60000 is the churn_durable table), whose predicates are
// shared by thousands of subscriptions each. A removed subscription waits
// in a reserve and is added again later, so no tree is built while timed.
void BM_MatcherChurn(benchmark::State& state) {
  const auto domain = make_iot_workload();
  const auto source = domain->subscriptions(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::unique_ptr<Subscription>> live;
  std::vector<std::unique_ptr<Subscription>> reserve;
  for (std::uint32_t i = 0; i < n + 1024; ++i) {
    auto sub = std::make_unique<Subscription>(SubscriptionId(i), source->next());
    (i < n ? live : reserve).push_back(std::move(sub));
  }
  CountingMatcher matcher(domain->schema());
  for (auto& s : live) matcher.add(*s);
  std::mt19937_64 rng(5);
  std::size_t next = 0;
  for (auto _ : state) {
    std::unique_ptr<Subscription>& in = reserve[next++ % reserve.size()];
    matcher.add(*in);
    std::unique_ptr<Subscription>& victim = live[rng() % live.size()];
    matcher.remove(*victim);
    std::swap(in, victim);
  }
  benchmark::DoNotOptimize(matcher.association_count());
}
BENCHMARK(BM_MatcherChurn)->Arg(60000)->Unit(benchmark::kMicrosecond);

void BM_MatcherWithoutPminTrigger(benchmark::State& state) {
  Table t(static_cast<std::size_t>(state.range(0)));
  CountingMatcher matcher(t.fx.domain.schema());
  for (auto& s : t.subs) matcher.add(*s);
  matcher.set_pmin_trigger(false);
  std::vector<SubscriptionId> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    matcher.match(t.fx.events[i++ % t.fx.events.size()], out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MatcherWithoutPminTrigger)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
