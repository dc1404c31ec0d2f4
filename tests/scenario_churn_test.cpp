// Scenario subsystem: the churn process's Poisson draws, randomized
// subscribe/unsubscribe/prune/publish interleavings checked against
// NaiveMatcher on fresh trees, the ScenarioRunner soak (churn + flash crowd +
// pruning) on all three domains at K ∈ {1, 4} match workers, the overlay
// variant asserting the notification log is exact after churn, and one
// config run through every transport (in process, overlay, sockets), which
// must agree on every count and repeat itself exactly.

#include "scenario/scenario_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "broker/overlay.hpp"
#include "core/pruning_set.hpp"
#include "filter/naive_matcher.hpp"
#include "selectivity/estimator.hpp"
#include "test_util.hpp"

namespace dbsp {
namespace {

using test::MiniDomain;

// --- Churn process -----------------------------------------------------------

TEST(ChurnProcessTest, SmallRatesKeepTheirDraws) {
  // The soaks' rates (and perfbench's churn at λ = 3) depend on these exact
  // draws: a seeded run must not change under the large-rate path.
  ChurnProcess churn(ChurnConfig{3.0, 0.0, 3.0}, 7);
  const std::vector<std::size_t> pinned = {
      4, 1, 1, 2, 2, 6, 3, 5, 1, 4, 2, 2, 3, 4, 4, 4,  //
      4, 8, 3, 4, 4, 0, 2, 1, 1, 2, 1, 2, 1, 0, 4, 8,  //
      3, 3, 5, 4, 2, 6, 6, 1, 0, 3, 1, 1, 4, 5, 4, 0,  //
      5, 3, 4, 3, 5, 4, 4, 3, 0, 5, 4, 5, 5, 3, 4, 0};
  std::vector<std::size_t> drawn;
  for (std::size_t i = 0; i < pinned.size(); ++i) drawn.push_back(churn.arrivals());
  EXPECT_EQ(drawn, pinned);
}

TEST(ChurnProcessTest, LargeRatesDoNotSaturate) {
  // exp(-λ) underflows past λ ≈ 745; the mean must still be λ.
  for (const double lambda : {1000.0, 5000.0}) {
    ChurnProcess churn(ChurnConfig{lambda, 0.0, 3.0}, 11);
    constexpr int kDraws = 400;
    double total = 0.0;
    for (int i = 0; i < kDraws; ++i) total += static_cast<double>(churn.arrivals());
    const double sigma_of_mean = std::sqrt(lambda / kDraws);
    EXPECT_NEAR(total / kDraws, lambda, 5.0 * sigma_of_mean) << "λ = " << lambda;
  }
}

// --- Randomized interleavings against a naive oracle -----------------------

class InterleavingTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InterleavingTest, RandomOpsMatchNaiveMatcherOnFreshTrees) {
  const std::size_t workers = GetParam();
  MiniDomain dom;
  std::mt19937_64 rng(1234 + workers);
  const SelectivityEstimator estimator([](const Predicate&) { return 0.5; });

  ShardedEngine engine(dom.schema(), {.shards = workers});
  PruneEngineConfig config;
  ShardedPruningSet set(engine, estimator, config);

  // The naive oracle evaluates the *current* (possibly pruned) trees
  // directly; a second oracle holds fresh clones of the original trees so
  // the superset property of pruning stays checked too.
  NaiveMatcher naive;
  std::vector<std::unique_ptr<Subscription>> live;
  std::map<SubscriptionId::value_type, std::unique_ptr<Node>> originals;
  std::uint32_t next_id = 0;

  auto subscribe = [&] {
    std::uniform_int_distribution<std::size_t> leaves(1, 8);
    auto tree = dom.random_tree(rng, leaves(rng), 0.15);
    originals[next_id] = tree->clone();
    auto sub = std::make_unique<Subscription>(SubscriptionId(next_id++), std::move(tree));
    engine.add(*sub);
    naive.add(*sub);
    set.add(*sub);
    live.push_back(std::move(sub));
  };
  for (std::size_t i = 0; i < 60; ++i) subscribe();

  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::size_t published = 0;
  for (std::size_t op = 0; op < 1500; ++op) {
    const double u = coin(rng);
    if (u < 0.25) {
      subscribe();
    } else if (u < 0.45 && !live.empty()) {
      std::uniform_int_distribution<std::size_t> pick(0, live.size() - 1);
      const std::size_t idx = pick(rng);
      const SubscriptionId id = live[idx]->id();
      ASSERT_TRUE(set.contains(id));
      set.unregister_subscription(id);
      engine.remove(id);
      naive.remove(id);
      originals.erase(id.value());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (u < 0.65) {
      set.prune(1);
    } else {
      const Event event = dom.random_event(rng);
      ++published;
      std::vector<SubscriptionId> got;
      engine.match(event, got);
      std::vector<SubscriptionId> expected;
      naive.match(event, expected);
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(got, expected) << "engine/naive divergence after " << op << " ops";

      // Pruning only generalizes: every original-tree match must survive.
      for (const auto& [id, tree] : originals) {
        if (tree->evaluate_event(event)) {
          ASSERT_TRUE(std::binary_search(got.begin(), got.end(), SubscriptionId(id)))
              << "pruned subscription " << id << " lost a match";
        }
      }
    }
  }
  ASSERT_GT(published, 100u);
  // The interleaving exercised incremental maintenance, not rebuilds.
  EXPECT_EQ(set.maintenance().full_rescores, 0u);
  EXPECT_GT(set.maintenance().releases, 0u);
}

INSTANTIATE_TEST_SUITE_P(Workers, InterleavingTest, ::testing::Values(1u, 4u),
                         [](const auto& info) {
                           return "N" + std::to_string(info.param);
                         });

// --- ScenarioRunner soaks ---------------------------------------------------

class ScenarioSoakTest
    : public ::testing::TestWithParam<std::tuple<const char*, std::size_t>> {};

TEST_P(ScenarioSoakTest, CentralizedSoakIsExactUnderChurnFlashCrowdAndPruning) {
  const auto [name, workers] = GetParam();
  const auto domain = make_workload(name);
  ScenarioConfig config = ScenarioConfig::soak(250, 120);
  config.shards = workers;
  config.drift_threshold = 60;
  config.training_events = 500;
  config.check_every = 1;

  ScenarioRunner runner(*domain, config);
  const ScenarioReport report = runner.run();

  EXPECT_EQ(report.mode, "centralized");
  EXPECT_EQ(report.shards, workers);
  ASSERT_EQ(report.phases.size(), 4u);
  EXPECT_TRUE(report.exact()) << report.total_mismatches() << " oracle mismatches";
  EXPECT_EQ(report.total_mismatches(), 0u);
  EXPECT_GT(report.total_churn_ops(), 0u);
  // The flash-crowd phase grows the population; the drain phase shrinks it.
  EXPECT_GT(report.phases[2].subscribes, report.phases[0].subscribes);
  EXPECT_GT(report.phases[3].unsubscribes, report.phases[3].subscribes);
  // Pruning ran and its maintenance stayed incremental.
  EXPECT_GT(report.maintenance.admissions,
            static_cast<std::uint64_t>(config.initial_subscriptions));
  EXPECT_GT(report.maintenance.releases, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Domains, ScenarioSoakTest,
    ::testing::Combine(::testing::Values("auction", "stock", "iot"),
                       ::testing::Values(std::size_t{1}, std::size_t{4})),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_N" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ScenarioDriftTest, DriftTriggerFiresUnderChurnAndChurnAloneNeverRebuilds) {
  const auto domain = make_workload("stock");
  ScenarioConfig config = ScenarioConfig::soak(200, 150);
  config.training_events = 400;
  config.check_every = 4;

  // Armed drift trigger: heavy churn must eventually retrain + rescore.
  config.drift_threshold = 40;
  ScenarioReport with_drift = ScenarioRunner(*domain, config).run();
  EXPECT_TRUE(with_drift.exact());
  EXPECT_GT(with_drift.maintenance.full_rescores, 0u);

  // Disarmed: the same churn performs zero full rebuilds — admissions and
  // releases alone carry the maintenance (the no-rebuild-on-churn proof).
  config.drift_threshold = 0;
  ScenarioReport no_drift = ScenarioRunner(*domain, config).run();
  EXPECT_TRUE(no_drift.exact());
  EXPECT_EQ(no_drift.maintenance.full_rescores, 0u);
  EXPECT_GT(no_drift.maintenance.admissions, 200u);
  EXPECT_GT(no_drift.maintenance.releases, 0u);
}

TEST(ScenarioOverlayTest, NotificationLogIsExactAfterChurn) {
  for (const char* name : {"auction", "iot"}) {
    const auto domain = make_workload(name);
    ScenarioConfig config = ScenarioConfig::soak(120, 80);
    config.brokers = 3;
    config.shards = 2;
    config.drift_threshold = 50;
    config.training_events = 400;

    const ScenarioReport report = ScenarioRunner(*domain, config).run();
    EXPECT_EQ(report.mode, "overlay");
    EXPECT_TRUE(report.exact())
        << name << ": " << report.total_mismatches() << " event(s) mis-delivered";
    EXPECT_GT(report.total_churn_ops(), 0u);
    EXPECT_GT(report.maintenance.releases, 0u);  // broker auto-release worked
    EXPECT_GT(report.maintenance.reindexes, 0u);  // every broker's counters add up
  }
}

// --- One config through every transport --------------------------------------

ScenarioReport run_transport(const WorkloadDomain& domain, const char* transport) {
  ScenarioConfig config = ScenarioConfig::soak(120, 60);
  config.pruning = false;  // the sockets transport's oracle needs it off
  config.check_every = 1;
  if (std::string(transport) == "overlay") config.brokers = 3;
  if (std::string(transport) == "sockets") config.transport = ScenarioTransport::kSockets;
  return ScenarioRunner(domain, config).run();
}

// Every field that does not carry a time (the metrics scrape holds latency
// histograms; tools/soak_diff.py compares the rest of it).
void expect_same_run(const ScenarioReport& a, const ScenarioReport& b) {
  EXPECT_EQ(a.domain, b.domain);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.maintenance.admissions, b.maintenance.admissions);
  EXPECT_EQ(a.maintenance.releases, b.maintenance.releases);
  EXPECT_EQ(a.maintenance.queue_compactions, b.maintenance.queue_compactions);
  EXPECT_EQ(a.maintenance.full_rescores, b.maintenance.full_rescores);
  EXPECT_EQ(a.maintenance.reindexes, b.maintenance.reindexes);
  EXPECT_EQ(a.traced_publishes, b.traced_publishes);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    const ScenarioPhaseReport& p = a.phases[i];
    const ScenarioPhaseReport& q = b.phases[i];
    EXPECT_EQ(p.name, q.name);
    EXPECT_EQ(p.events, q.events);
    EXPECT_EQ(p.subscribes, q.subscribes) << p.name;
    EXPECT_EQ(p.unsubscribes, q.unsubscribes) << p.name;
    EXPECT_EQ(p.prunings, q.prunings) << p.name;
    EXPECT_EQ(p.drift_retrains, q.drift_retrains) << p.name;
    EXPECT_EQ(p.live_subscriptions, q.live_subscriptions) << p.name;
    EXPECT_EQ(p.associations, q.associations) << p.name;
    EXPECT_EQ(p.matches, q.matches) << p.name;
    EXPECT_EQ(p.oracle_checked, q.oracle_checked) << p.name;
    EXPECT_EQ(p.oracle_mismatches, q.oracle_mismatches) << p.name;
    EXPECT_EQ(p.recoveries, q.recoveries) << p.name;
    EXPECT_EQ(p.recovered_subscriptions, q.recovered_subscriptions) << p.name;
    EXPECT_EQ(p.replayed_wal_records, q.replayed_wal_records) << p.name;
  }
}

TEST(ScenarioTransportTest, EveryTransportSeesTheSameChurnAndDeliveries) {
  const auto domain = make_workload("auction");
  const ScenarioReport centralized = run_transport(*domain, "centralized");
  ASSERT_EQ(centralized.mode, "centralized");
  ASSERT_TRUE(centralized.exact());
  EXPECT_GT(centralized.total_churn_ops(), 0u);
  for (const char* transport : {"overlay", "sockets"}) {
    const ScenarioReport other = run_transport(*domain, transport);
    EXPECT_EQ(other.mode, transport);
    EXPECT_TRUE(other.exact()) << transport;
    ASSERT_EQ(other.phases.size(), centralized.phases.size());
    for (std::size_t i = 0; i < other.phases.size(); ++i) {
      const ScenarioPhaseReport& p = centralized.phases[i];
      const ScenarioPhaseReport& q = other.phases[i];
      EXPECT_EQ(p.subscribes, q.subscribes) << transport << " " << p.name;
      EXPECT_EQ(p.unsubscribes, q.unsubscribes) << transport << " " << p.name;
      EXPECT_EQ(p.live_subscriptions, q.live_subscriptions) << transport << " " << p.name;
      EXPECT_EQ(p.matches, q.matches) << transport << " " << p.name;
    }
  }
}

TEST(ScenarioTransportTest, EveryTransportRepeatsItself) {
  const auto domain = make_workload("auction");
  for (const char* transport : {"centralized", "overlay", "sockets"}) {
    SCOPED_TRACE(transport);
    expect_same_run(run_transport(*domain, transport), run_transport(*domain, transport));
  }
}

TEST(ScenarioOverlayTest, BrokerKeepsAttachedPruningSetInSyncUnderChurn) {
  // Direct wiring check, without the runner: remote subscriptions arriving
  // and leaving through the overlay are admitted to / released from the
  // attached per-broker pruning sets automatically.
  MiniDomain dom;
  std::mt19937_64 rng(5);
  const SelectivityEstimator estimator([](const Predicate&) { return 0.5; });
  Overlay overlay(dom.schema(), 3, Overlay::line(3), {.shards = 2});

  for (std::uint32_t i = 0; i < 12; ++i) {
    overlay.subscribe(BrokerId(i % 3), ClientId(i), SubscriptionId(i),
                      dom.random_tree(rng, 4));
  }
  PruneEngineConfig config;
  std::vector<ShardedPruningSet*> sets;
  for (std::uint32_t b = 0; b < 3; ++b) {
    sets.push_back(&overlay.broker(BrokerId(b)).enable_pruning(estimator, config));
  }

  // A new subscription at broker 0 becomes remote at brokers 1 and 2 and
  // must be admitted there without any manual bookkeeping.
  overlay.subscribe(BrokerId(0), ClientId(100), SubscriptionId(100),
                    dom.random_tree(rng, 4));
  EXPECT_FALSE(sets[0]->contains(SubscriptionId(100)));  // local at 0: unpruned
  EXPECT_TRUE(sets[1]->contains(SubscriptionId(100)));
  EXPECT_TRUE(sets[2]->contains(SubscriptionId(100)));

  // Unsubscribing releases the pruning state everywhere (the old footgun).
  overlay.unsubscribe(BrokerId(0), SubscriptionId(100));
  for (const auto& set : sets) EXPECT_FALSE(set->contains(SubscriptionId(100)));
  overlay.unsubscribe(BrokerId(1), SubscriptionId(1));
  for (const auto& set : sets) EXPECT_FALSE(set->contains(SubscriptionId(1)));

  // Pruning still runs cleanly after the churn. Broker 2 released both
  // subscriptions (remote there); broker 1 only #100 (#1 was its local).
  for (const auto& set : sets) set->prune_to_fraction(1.0);
  EXPECT_EQ(sets[2]->maintenance().releases, 2u);
  EXPECT_EQ(sets[1]->maintenance().releases, 1u);
}

}  // namespace
}  // namespace dbsp
