#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "subscription/parser.hpp"
#include "test_util.hpp"

namespace dbsp {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() {
    schema_.add_attribute("a", ValueType::Int);  // leaf sel 0.1
    schema_.add_attribute("b", ValueType::Int);  // leaf sel 0.5
    schema_.add_attribute("c", ValueType::Int);  // leaf sel 0.9
    estimator_ = std::make_unique<SelectivityEstimator>(
        LeafSelectivityFn([](const Predicate& p) {
          switch (p.attribute().value()) {
            case 0: return 0.1;
            case 1: return 0.5;
            default: return 0.9;
          }
        }));
  }

  [[nodiscard]] std::unique_ptr<Subscription> sub(std::uint32_t id,
                                                  std::string_view text) const {
    return std::make_unique<Subscription>(SubscriptionId(id),
                                          parse_subscription(text, schema_));
  }

  [[nodiscard]] PruningEngine engine(PruneDimension dim,
                                     CountingMatcher* matcher = nullptr) const {
    PruneEngineConfig cfg;
    cfg.dimension = dim;
    return PruningEngine(*estimator_, cfg, matcher);
  }

  Schema schema_;
  std::unique_ptr<SelectivityEstimator> estimator_;
};

TEST_F(EngineTest, TotalPossibleSumsSubscriptionCapacities) {
  auto e = engine(PruneDimension::NetworkLoad);
  auto s1 = sub(1, "a=1 and b=2 and c=3");          // 2 prunings
  auto s2 = sub(2, "a=1 and (b=2 or c=3)");         // 1 pruning
  auto s3 = sub(3, "a=1");                          // 0 prunings
  e.register_subscription(*s1);
  e.register_subscription(*s2);
  e.register_subscription(*s3);
  EXPECT_EQ(e.total_possible(), 3u);
  EXPECT_EQ(e.prune(100), 3u);  // exhausts
  EXPECT_FALSE(e.prune_one());
  EXPECT_EQ(e.performed(), 3u);
}

TEST_F(EngineTest, NetworkDimensionPrunesLeastSelectiveFirst) {
  auto e = engine(PruneDimension::NetworkLoad);
  // Pruning c (sel 0.9) from s1 degrades little; pruning a (sel 0.1) from
  // s2 degrades a lot. The engine must pick s1's pruning first.
  auto s1 = sub(1, "a=1 and c=2");
  auto s2 = sub(2, "a=3 and b=4");
  e.register_subscription(*s1);
  e.register_subscription(*s2);
  const auto applied = e.prune_one();
  ASSERT_TRUE(applied);
  EXPECT_EQ(applied->sub, SubscriptionId(1));
  // s1 lost the c conjunct (kept the selective a).
  EXPECT_EQ(s1->root().to_string(schema_), "a = 1");
}

TEST_F(EngineTest, MemoryDimensionPrunesBiggestValidSubtreeFirst) {
  auto e = engine(PruneDimension::MemoryUsage);
  auto s1 = sub(1, "a=1 and b=2");                      // small win
  auto s2 = sub(2, "a=3 and (b=4 or b=5 or b=6 or b=7)");  // big Or group
  e.register_subscription(*s1);
  e.register_subscription(*s2);
  const auto applied = e.prune_one();
  ASSERT_TRUE(applied);
  EXPECT_EQ(applied->sub, SubscriptionId(2));
  EXPECT_EQ(s2->root().to_string(schema_), "a = 3");
}

TEST_F(EngineTest, ThroughputDimensionPreservesPmin) {
  auto e = engine(PruneDimension::Throughput);
  // s1: pruning inside the or-group keeps pmin at 2 (Δeff = 0).
  // s2: any pruning drops pmin 2 -> 1 (Δeff = -1).
  auto s1 = sub(1, "a=1 and (b=2 or (b=3 and c=4))");
  auto s2 = sub(2, "a=5 and b=6");
  e.register_subscription(*s1);
  e.register_subscription(*s2);
  const auto applied = e.prune_one();
  ASSERT_TRUE(applied);
  EXPECT_EQ(applied->sub, SubscriptionId(1));
  EXPECT_DOUBLE_EQ(applied->scores.eff_improvement, 0.0);
}

TEST_F(EngineTest, TieBrokenBySecondaryDimension) {
  // With an all-1.0 leaf estimator every pruning has zero selectivity
  // degradation, so the network order must fall through to its secondary
  // dimension (throughput): s2's pruning keeps pmin (Δeff = 0) while s1's
  // lowers it (Δeff = -1) — s2 must win even though it registered later.
  const SelectivityEstimator ones(
      LeafSelectivityFn([](const Predicate&) { return 1.0; }));
  PruneEngineConfig cfg;
  cfg.dimension = PruneDimension::NetworkLoad;
  PruningEngine e(ones, cfg);
  auto s1 = sub(1, "a=5 and b=6");
  auto s2 = sub(2, "a=1 and (b=2 or (b=3 and c=4))");
  e.register_subscription(*s1);
  e.register_subscription(*s2);
  const auto best1 = e.peek_best(SubscriptionId(1));
  const auto best2 = e.peek_best(SubscriptionId(2));
  ASSERT_TRUE(best1 && best2);
  ASSERT_DOUBLE_EQ(best1->sel_degradation, best2->sel_degradation);
  const auto applied = e.prune_one();
  ASSERT_TRUE(applied);
  EXPECT_EQ(applied->sub, SubscriptionId(2));
  EXPECT_DOUBLE_EQ(applied->scores.eff_improvement, 0.0);
}

TEST_F(EngineTest, QueueReinsertsNextBestAfterPrune) {
  auto e = engine(PruneDimension::NetworkLoad);
  auto s = sub(1, "a=1 and b=2 and c=3");
  e.register_subscription(*s);
  // First pruning removes c (cheapest), then b, keeping the most selective.
  ASSERT_TRUE(e.prune_one());
  EXPECT_EQ(s->root().to_string(schema_), "(a = 1 and b = 2)");
  ASSERT_TRUE(e.prune_one());
  EXPECT_EQ(s->root().to_string(schema_), "a = 1");
  EXPECT_FALSE(e.prune_one());
}

TEST_F(EngineTest, AppliedScoresAreMonotoneForNetworkDimension) {
  // Greedy best-first on a fixed baseline: within one subscription the
  // successive degradations (vs original) are non-decreasing.
  auto e = engine(PruneDimension::NetworkLoad);
  auto s = sub(1, "a=1 and b=2 and c=3 and c=4 and b=5");
  e.register_subscription(*s);
  std::vector<double> degradations;
  while (const auto applied = e.prune_one()) {
    degradations.push_back(applied->scores.sel_degradation);
  }
  ASSERT_EQ(degradations.size(), 4u);
  for (std::size_t i = 1; i < degradations.size(); ++i) {
    EXPECT_GE(degradations[i], degradations[i - 1] - 1e-12);
  }
}

TEST_F(EngineTest, UnregisterDropsPendingPrunings) {
  auto e = engine(PruneDimension::NetworkLoad);
  auto s1 = sub(1, "a=1 and b=2");
  auto s2 = sub(2, "b=3 and c=4");
  e.register_subscription(*s1);
  e.register_subscription(*s2);
  e.unregister_subscription(SubscriptionId(2));
  EXPECT_EQ(e.prune(100), 1u);  // only s1's pruning runs
  ASSERT_EQ(e.last_pruned().size(), 1u);
  EXPECT_EQ(e.last_pruned()[0].sub, SubscriptionId(1));
}

TEST_F(EngineTest, DuplicateRegistrationThrows) {
  auto e = engine(PruneDimension::NetworkLoad);
  auto s = sub(1, "a=1 and b=2");
  e.register_subscription(*s);
  EXPECT_THROW(e.register_subscription(*s), std::invalid_argument);
}

TEST_F(EngineTest, MatcherStaysInSyncDuringPruning) {
  CountingMatcher matcher(schema_);
  auto e = engine(PruneDimension::MemoryUsage, &matcher);
  auto s1 = sub(1, "a=1 and b=2 and c=3");
  auto s2 = sub(2, "a=1 and (b=4 or c=5)");
  matcher.add(*s1);
  matcher.add(*s2);
  e.register_subscription(*s1);
  e.register_subscription(*s2);
  const auto before = matcher.association_count();
  e.prune(100);
  EXPECT_LT(matcher.association_count(), before);

  // After full pruning both subscriptions are single predicates and the
  // matcher must agree with direct evaluation.
  Event ev;
  ev.set(schema_.at("a"), Value(1));
  std::vector<SubscriptionId> out;
  matcher.match(ev, out);
  std::size_t direct = 0;
  if (s1->matches(ev)) ++direct;
  if (s2->matches(ev)) ++direct;
  EXPECT_EQ(out.size(), direct);
}

TEST(EngineReindexTest, EveryPublicPruningCallLeavesTheMatcherInSync) {
  // The matcher is reindexed once per pass, not once per pruning. After
  // each public call it must deliver exactly what the pruned trees match,
  // and it must have reindexed each subscription that call pruned exactly
  // once, however often it was pruned. last_pruned() lists each of those
  // subscriptions once, with prunings that add up to the call's count.
  test::MiniDomain dom(5, 12);
  std::mt19937_64 rng(29);
  const test::Corpus corpus = test::make_corpus(dom, rng, 120, 0.15);
  const auto events = dom.random_events(rng, 150);
  const SelectivityEstimator estimator(LeafSelectivityFn([](const Predicate& p) {
    return 0.05 + 0.9 * static_cast<double>(p.hash() % 991) / 991.0;
  }));
  CountingMatcher matcher(dom.schema());
  for (const auto& s : corpus.subs) matcher.add(*s);
  PruningEngine e(estimator, PruneEngineConfig{}, &matcher);
  for (const auto& s : corpus.subs) e.register_subscription(*s);

  auto expect_in_sync = [&](const char* call) {
    std::vector<SubscriptionId> got;
    for (const Event& ev : events) {
      got.clear();
      matcher.match(ev, got);
      std::sort(got.begin(), got.end());
      std::vector<SubscriptionId> want;
      for (const auto& s : corpus.subs) {
        if (s->matches(ev)) want.push_back(s->id());
      }
      ASSERT_EQ(got, want) << "after " << call;
    }
  };
  std::uint64_t reindexes = 0;
  auto expect_one_reindex_per_pruned_id = [&](const char* call, std::size_t done) {
    std::set<SubscriptionId> pruned;
    std::size_t prunings = 0;
    for (const auto& p : e.last_pruned()) {
      pruned.insert(p.sub);
      EXPECT_GT(p.prunings, 0u) << "after " << call;
      prunings += p.prunings;
    }
    EXPECT_EQ(pruned.size(), e.last_pruned().size()) << "after " << call;
    EXPECT_EQ(prunings, done) << "after " << call;
    EXPECT_EQ(e.maintenance().reindexes - reindexes, pruned.size()) << "after " << call;
    reindexes = e.maintenance().reindexes;
    expect_in_sync(call);
  };

  ASSERT_TRUE(e.prune_one());
  expect_one_reindex_per_pruned_id("prune_one", 1);
  EXPECT_EQ(e.prune(40), 40u);
  expect_one_reindex_per_pruned_id("prune", 40);
  std::size_t done = e.prune_to_fraction(0.6);
  EXPECT_GT(done, 0u);
  expect_one_reindex_per_pruned_id("prune_to_fraction", done);
  EXPECT_EQ(e.prune_to_fraction(0.6), 0u);
  expect_one_reindex_per_pruned_id("prune_to_fraction at its target", 0);
  done = e.prune_until(0.3);
  EXPECT_GT(done, 0u);
  expect_one_reindex_per_pruned_id("prune_until", done);
  done = e.prune(e.total_possible());
  expect_one_reindex_per_pruned_id("prune to exhaustion", done);
  // Subscriptions pruned several times in one pass were reindexed once.
  EXPECT_LT(e.maintenance().reindexes, e.performed());
}

TEST_F(EngineTest, CustomTieBreakOrderIsHonored) {
  PruneEngineConfig cfg;
  cfg.dimension = PruneDimension::NetworkLoad;
  cfg.order = std::array<PruneDimension, 3>{PruneDimension::NetworkLoad,
                                            PruneDimension::MemoryUsage,
                                            PruneDimension::Throughput};
  PruningEngine e(*estimator_, cfg);
  EXPECT_EQ(e.config().effective_order()[1], PruneDimension::MemoryUsage);
}

TEST_F(EngineTest, PruneUntilRespectsNetworkBudget) {
  // a(0.1) and b(0.5) and c(0.9): pruning c degrades by ~0.05 (avg
  // component), pruning b by 0.4+, pruning a by 0.8+. A small budget must
  // stop after the cheap pruning.
  auto e = engine(PruneDimension::NetworkLoad);
  auto s = sub(1, "a=1 and b=2 and c=3");
  e.register_subscription(*s);
  const auto first = e.next_primary_rating();
  ASSERT_TRUE(first.has_value());
  const std::size_t done = e.prune_until(*first + 1e-9);
  EXPECT_EQ(done, 1u);
  EXPECT_EQ(s->root().to_string(schema_), "(a = 1 and b = 2)");
  // A generous budget exhausts everything.
  EXPECT_EQ(e.prune_until(1.0), 1u);
  EXPECT_FALSE(e.next_primary_rating().has_value());
}

TEST_F(EngineTest, PruneUntilRespectsMemoryBudget) {
  auto e = engine(PruneDimension::MemoryUsage);
  // s2's or-group pruning saves far more bytes than s1's leaf pruning.
  auto s1 = sub(1, "a=1 and b=2");
  auto s2 = sub(2, "a=3 and (b=4 or b=5 or b=6 or b=7)");
  e.register_subscription(*s1);
  e.register_subscription(*s2);
  // Budget: only prunings saving >= 100 bytes — exactly the or-group cut.
  const auto cut = e.peek_best(SubscriptionId(2));
  ASSERT_TRUE(cut.has_value());
  EXPECT_GE(cut->mem_improvement, 100.0);
  const std::size_t done = e.prune_until(100.0);
  EXPECT_EQ(done, 1u);
  ASSERT_EQ(e.last_pruned().size(), 1u);
  EXPECT_EQ(e.last_pruned()[0].sub, SubscriptionId(2));
  // The remaining candidates all save less than the budget.
  const auto next = e.peek_best(SubscriptionId(1));
  ASSERT_TRUE(next.has_value());
  EXPECT_LT(next->mem_improvement, 100.0);
}

TEST_F(EngineTest, PruneUntilThroughputBudgetStopsAtPminLoss) {
  auto e = engine(PruneDimension::Throughput);
  auto s1 = sub(1, "a=1 and (b=2 or (b=3 and c=4))");  // Δeff = 0 available
  auto s2 = sub(2, "a=5 and b=6");                     // only Δeff = -1
  e.register_subscription(*s1);
  e.register_subscription(*s2);
  // Budget Δ≈eff >= 0: performs only pmin-preserving prunings.
  const std::size_t done = e.prune_until(0.0);
  EXPECT_EQ(done, 1u);
  ASSERT_EQ(e.last_pruned().size(), 1u);
  EXPECT_EQ(e.last_pruned()[0].sub, SubscriptionId(1));
}

TEST_F(EngineTest, OriginalProfileIsStableAcrossPrunings) {
  auto e = engine(PruneDimension::NetworkLoad);
  auto s = sub(1, "a=1 and b=2 and c=3");
  e.register_subscription(*s);
  const auto* orig = e.original_profile(SubscriptionId(1));
  ASSERT_NE(orig, nullptr);
  const double avg0 = orig->sel.avg;
  const auto pmin0 = orig->pmin;
  e.prune(2);
  EXPECT_DOUBLE_EQ(e.original_profile(SubscriptionId(1))->sel.avg, avg0);
  EXPECT_EQ(e.original_profile(SubscriptionId(1))->pmin, pmin0);
  EXPECT_EQ(e.original_profile(SubscriptionId(42)), nullptr);
}

}  // namespace
}  // namespace dbsp
