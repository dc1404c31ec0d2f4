// ShardedPruningSet + PruningEngine adaptive maintenance: incremental
// admission/release, capacity accounting under churn, lazy queue
// compaction, the drift trigger (retrain + rescore_all), and one global
// queue whose choices do not depend on the engine's worker count.

#include "core/pruning_set.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <random>
#include <utility>

#include "core/candidates.hpp"
#include "selectivity/estimator.hpp"
#include "selectivity/exact.hpp"
#include "test_util.hpp"

namespace dbsp {
namespace {

using test::clone_corpus;
using test::Corpus;
using test::MiniDomain;
using test::make_corpus;

class PruningSetTest : public ::testing::Test {
 protected:
  PruningSetTest() : estimator_([](const Predicate&) { return 0.5; }) {}

  MiniDomain dom_;
  SelectivityEstimator estimator_;
  PruneEngineConfig config_;
};

TEST_F(PruningSetTest, AdmitsAndReleasesOnTheGlobalQueue) {
  std::mt19937_64 rng(7);
  Corpus corpus = make_corpus(dom_, rng, 40, 0.1);
  ShardedEngine engine(dom_.schema(), {.shards = 4});
  for (auto& s : corpus.subs) engine.add(*s);

  ShardedPruningSet set(engine, estimator_, config_, corpus.pointers());
  EXPECT_EQ(set.subscription_count(), corpus.subs.size());
  for (const auto& s : corpus.subs) EXPECT_TRUE(set.contains(s->id()));

  const SubscriptionId victim = corpus.subs[11]->id();
  set.unregister_subscription(victim);
  EXPECT_FALSE(set.contains(victim));
  set.unregister_subscription(victim);  // already released: clean no-op
  EXPECT_EQ(set.subscription_count(), corpus.subs.size() - 1);
  EXPECT_EQ(set.maintenance().releases, 1u);

  // Pruning to exhaustion never touches the released subscription.
  EXPECT_GT(set.prune(100000), 0u);
  for (const auto& pruned : set.last_pruned()) EXPECT_NE(pruned.sub, victim);
}

TEST_F(PruningSetTest, ReleaseRollsBackCapacityAndPerformed) {
  std::mt19937_64 rng(11);
  Corpus corpus = make_corpus(dom_, rng, 30, 0.0, 7);
  ShardedEngine engine(dom_.schema(), {.shards = 2});
  for (auto& s : corpus.subs) engine.add(*s);
  ShardedPruningSet set(engine, estimator_, config_, corpus.pointers());

  // Release before any pruning: the decrement equals the capacity captured
  // at registration (= the current tree's internal prunings).
  Subscription* victim = nullptr;
  for (const auto& s : corpus.subs) {
    if (internal_prunings(s->root()) > 0) {
      victim = s.get();
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  const std::size_t cap = internal_prunings(victim->root());
  const std::size_t possible_before = set.total_possible();
  set.unregister_subscription(victim->id());
  EXPECT_EQ(set.total_possible(), possible_before - cap);

  // Release after pruning: the victim's applied prunings are rolled back
  // from performed() together with its capacity.
  set.prune_to_fraction(0.6);
  const std::size_t performed_before = set.performed();
  ASSERT_FALSE(set.last_pruned().empty());
  const PruningEngine::Pruned pruned_victim = set.last_pruned().front();
  ASSERT_GT(pruned_victim.prunings, 0u);
  set.unregister_subscription(pruned_victim.sub);
  EXPECT_EQ(set.performed(), performed_before - pruned_victim.prunings);

  // A later full prune still terminates and performed() never exceeds the
  // live capacity.
  set.prune(1u << 20);
  EXPECT_LE(set.performed(), set.total_possible());
}

TEST_F(PruningSetTest, AdmissionIsIncrementalAndNeverRebuilds) {
  std::mt19937_64 rng(13);
  Corpus corpus = make_corpus(dom_, rng, 50, 0.1);
  ShardedEngine engine(dom_.schema(), {.shards = 1});
  for (auto& s : corpus.subs) engine.add(*s);
  ShardedPruningSet set(engine, estimator_, config_, corpus.pointers());

  auto m = set.maintenance();
  EXPECT_EQ(m.admissions, corpus.subs.size());
  EXPECT_EQ(m.full_rescores, 0u);

  // Late admission under churn: one more subscription, still zero rebuilds.
  auto extra = std::make_unique<Subscription>(SubscriptionId(1000),
                                              dom_.random_tree(rng, 5));
  engine.add(*extra);
  set.add(*extra);
  set.prune(20);
  m = set.maintenance();
  EXPECT_EQ(m.admissions, corpus.subs.size() + 1);
  EXPECT_EQ(m.full_rescores, 0u);
  EXPECT_TRUE(set.contains(SubscriptionId(1000)));
}

TEST_F(PruningSetTest, HeavyChurnCompactsTheQueueWithoutRescoring) {
  std::mt19937_64 rng(17);
  Corpus corpus = make_corpus(dom_, rng, 300, 0.0, 6);
  ShardedEngine engine(dom_.schema(), {.shards = 1});
  for (auto& s : corpus.subs) engine.add(*s);
  ShardedPruningSet set(engine, estimator_, config_, corpus.pointers());

  // Release the bulk of the population: dead queue entries pile up until
  // the lazy sweep kicks in.
  for (std::size_t i = 0; i < 250; ++i) {
    set.unregister_subscription(corpus.subs[i]->id());
    engine.remove(corpus.subs[i]->id());
  }
  const auto m = set.maintenance();
  EXPECT_EQ(m.releases, 250u);
  EXPECT_GE(m.queue_compactions, 1u);
  EXPECT_EQ(m.full_rescores, 0u);

  // The surviving population still prunes to exhaustion correctly.
  set.prune(1u << 20);
  EXPECT_EQ(set.performed(), set.total_possible());
}

TEST_F(PruningSetTest, DriftTriggerCountsMutations) {
  std::mt19937_64 rng(19);
  Corpus corpus = make_corpus(dom_, rng, 20, 0.0);
  ShardedEngine engine(dom_.schema(), {.shards = 1});
  for (auto& s : corpus.subs) engine.add(*s);
  ShardedPruningSet set(engine, estimator_, config_, corpus.pointers());

  // Arming resets the mutation count: the initial bulk load is not churn.
  set.set_drift_threshold(10);
  EXPECT_FALSE(set.drift_pending());

  for (std::size_t i = 0; i < 5; ++i) {
    set.unregister_subscription(corpus.subs[i]->id());
    engine.remove(corpus.subs[i]->id());
  }
  EXPECT_FALSE(set.drift_pending());  // 5 mutations < 10
  for (std::size_t i = 5; i < 10; ++i) {
    set.unregister_subscription(corpus.subs[i]->id());
    engine.remove(corpus.subs[i]->id());
  }
  EXPECT_TRUE(set.drift_pending());  // 10 mutations

  set.rescore_all();
  EXPECT_FALSE(set.drift_pending());
  EXPECT_EQ(set.maintenance().full_rescores, 1u);
}

TEST(PruningSetWorkersTest, PrunedTreesAndOrderDoNotDependOnWorkerCount) {
  // One global queue: the same corpus pruned to half its capacity one
  // pruning at a time, then to 70% in one pass, picks the same prunings in
  // the same order, and leaves the same trees and the same batch matches,
  // at 1, 2 and 8 match workers.
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(23);
  const Corpus corpus = make_corpus(dom, rng, 200, 0.1);
  const auto events = dom.random_events(rng, 200);
  const SelectivityEstimator estimator(
      [&events](const Predicate& p) { return measured_selectivity(p, events); });

  struct Outcome {
    std::vector<SubscriptionId> order;
    std::vector<double> ratings;
    std::vector<std::pair<SubscriptionId, std::size_t>> pass;
    std::vector<std::string> trees;
    std::vector<std::vector<SubscriptionId>> matches;
  };
  auto run = [&](std::size_t workers) {
    Corpus copy = clone_corpus(corpus);
    ShardedEngine engine(dom.schema(), {.shards = workers});
    for (auto& s : copy.subs) engine.add(*s);
    ShardedPruningSet set(engine, estimator, PruneEngineConfig{}, copy.pointers());
    const auto half = static_cast<std::size_t>(
        std::llround(0.5 * static_cast<double>(set.total_possible())));
    Outcome out;
    while (set.performed() < half) {
      const auto applied = set.prune_one();
      if (!applied) break;
      out.order.push_back(applied->sub);
      out.ratings.push_back(applied->scores.sel_degradation);
    }
    EXPECT_EQ(set.performed(), half);
    EXPECT_GT(set.prune_to_fraction(0.7), 0u);
    for (const auto& pruned : set.last_pruned()) out.pass.emplace_back(pruned.sub, pruned.prunings);
    for (const auto& s : copy.subs) out.trees.push_back(s->to_string(dom.schema()));
    out.matches = engine.match_batch(events);
    return out;
  };

  const Outcome one = run(1);
  for (const std::size_t workers : {2u, 8u}) {
    const Outcome other = run(workers);
    EXPECT_EQ(other.order, one.order) << workers << " workers";
    EXPECT_EQ(other.ratings, one.ratings) << workers << " workers";
    EXPECT_EQ(other.pass, one.pass) << workers << " workers";
    EXPECT_EQ(other.trees, one.trees) << workers << " workers";
    EXPECT_EQ(other.matches, one.matches) << workers << " workers";
  }
}

TEST(PruningSetReindexTest, DeliveryMatchesTheTreesAfterEveryPruningCall) {
  // Each public pruning call reindexes the engine's index once per pruned
  // subscription before it returns: a batch matched right after any call
  // is exactly what the current trees match, with churn in between.
  MiniDomain dom(5, 12);
  std::mt19937_64 rng(31);
  Corpus corpus = make_corpus(dom, rng, 150, 0.1);
  const auto events = dom.random_events(rng, 120);
  const SelectivityEstimator estimator(
      [&events](const Predicate& p) { return measured_selectivity(p, events); });
  ShardedEngine engine(dom.schema(), {.shards = 2});
  for (auto& s : corpus.subs) engine.add(*s);
  ShardedPruningSet set(engine, estimator, PruneEngineConfig{}, corpus.pointers());

  std::vector<bool> live(corpus.subs.size(), true);
  auto expect_in_sync = [&](const char* call) {
    const auto got = engine.match_batch(events);
    for (std::size_t i = 0; i < events.size(); ++i) {
      std::vector<SubscriptionId> want;
      for (std::size_t j = 0; j < corpus.subs.size(); ++j) {
        if (live[j] && corpus.subs[j]->matches(events[i])) want.push_back(corpus.subs[j]->id());
      }
      ASSERT_EQ(got[i], want) << "event " << i << " after " << call;
    }
  };
  auto release = [&](std::size_t j) {
    set.unregister_subscription(corpus.subs[j]->id());
    engine.remove(corpus.subs[j]->id());
    live[j] = false;
  };

  // Each call reindexes exactly the subscriptions it lists as pruned.
  std::uint64_t reindexes = set.maintenance().reindexes;
  auto expect_reindexed_once = [&](const char* call) {
    EXPECT_EQ(set.maintenance().reindexes - reindexes, set.last_pruned().size()) << call;
    reindexes = set.maintenance().reindexes;
  };
  ASSERT_TRUE(set.prune_one());
  expect_reindexed_once("prune_one");
  expect_in_sync("prune_one");
  release(3);
  release(77);
  EXPECT_EQ(set.prune(25), 25u);
  expect_reindexed_once("prune");
  expect_in_sync("prune");
  release(120);
  EXPECT_GT(set.prune_to_fraction(0.5), 0u);
  expect_reindexed_once("prune_to_fraction");
  expect_in_sync("prune_to_fraction");
  EXPECT_GT(set.prune_until(0.5), 0u);
  expect_reindexed_once("prune_until");
  expect_in_sync("prune_until");
}

TEST(PruningSetRescoreTest, RescoreAllReordersQueueAfterEstimatorChange) {
  // Leaf selectivities are read through a mutable table the estimator
  // captures by reference — the same shape as EventStats retraining.
  Schema schema;
  std::array<AttributeId, 4> attr{};
  for (std::size_t i = 0; i < attr.size(); ++i) {
    attr[i] = schema.add_attribute("a" + std::to_string(i), ValueType::Int);
  }
  std::array<double, 4> sel = {0.9, 0.2, 0.9, 0.9};
  const SelectivityEstimator estimator(
      [&sel](const Predicate& p) { return sel[p.attribute().value()]; });

  auto tree = [&](std::size_t i, std::size_t j) {
    std::vector<std::unique_ptr<Node>> parts;
    parts.push_back(Node::leaf(Predicate(attr[i], Op::Lt, Value(10))));
    parts.push_back(Node::leaf(Predicate(attr[j], Op::Lt, Value(10))));
    return Node::and_(std::move(parts));
  };

  PruneEngineConfig config;  // NetworkLoad primary
  auto run = [&](bool rescore) {
    ShardedEngine engine(schema, {.shards = 1});
    Subscription a(SubscriptionId(1), tree(0, 1));  // cheap pruning: drop a0
    Subscription b(SubscriptionId(2), tree(2, 3));  // medium-cost prunings
    engine.add(a);
    engine.add(b);
    sel = {0.9, 0.2, 0.9, 0.9};
    ShardedPruningSet set(engine, estimator, config, {&a, &b});
    // Drift: a1 suddenly matches almost everything, so pruning a0 out of
    // subscription 1 would now degrade selectivity badly.
    sel[1] = 0.999;
    if (rescore) set.rescore_all();
    return set.prune_one()->sub;
  };

  // Stale queue: the pre-drift ordering still applies subscription 1 first.
  EXPECT_EQ(run(false), SubscriptionId(1));
  // Rescored queue: subscription 2's pruning is now the cheaper one.
  EXPECT_EQ(run(true), SubscriptionId(2));
}

}  // namespace
}  // namespace dbsp
