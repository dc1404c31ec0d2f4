#include "core/heuristics.hpp"

#include <gtest/gtest.h>

#include <random>

#include "core/candidates.hpp"
#include "scenario/workload_domain.hpp"
#include "selectivity/stats.hpp"
#include "subscription/parser.hpp"
#include "test_util.hpp"

namespace dbsp {
namespace {

using test::MiniDomain;

class HeuristicsTest : public ::testing::Test {
 protected:
  HeuristicsTest() {
    schema_.add_attribute("a", ValueType::Int);
    schema_.add_attribute("b", ValueType::Int);
    schema_.add_attribute("c", ValueType::Int);
  }
  Schema schema_;

  /// Leaf selectivity keyed by attribute: a=0.1, b=0.5, c=0.9.
  [[nodiscard]] SelectivityEstimator estimator() const {
    return SelectivityEstimator(LeafSelectivityFn([](const Predicate& p) {
      switch (p.attribute().value()) {
        case 0: return 0.1;
        case 1: return 0.5;
        default: return 0.9;
      }
    }));
  }

  [[nodiscard]] std::unique_ptr<Node> parse(std::string_view s) const {
    return parse_subscription(s, schema_);
  }
};

TEST_F(HeuristicsTest, MemoryImprovementMatchesActualSizeDelta) {
  const auto est = estimator();
  const HeuristicScorer scorer(est);
  std::mt19937_64 rng(3);
  MiniDomain dom(5, 12);
  std::uniform_int_distribution<std::size_t> leaves(2, 10);
  for (int i = 0; i < 40; ++i) {
    const auto tree = dom.random_tree(rng, leaves(rng), 0.2);
    const auto orig = scorer.profile(*tree);
    for (const auto& path : enumerate_prunings(*tree)) {
      const auto scores = scorer.score(*tree, path, orig);
      const auto pruned = simulate_pruning(*tree, path);
      EXPECT_DOUBLE_EQ(scores.mem_improvement,
                       static_cast<double>(tree->size_bytes()) -
                           static_cast<double>(pruned->size_bytes()));
      EXPECT_GT(scores.mem_improvement, 0.0);
    }
  }
}

TEST_F(HeuristicsTest, EffImprovementIsPminDeltaVsOriginal) {
  const auto est = estimator();
  const HeuristicScorer scorer(est);
  // (a and b) has pmin 2; pruning either leaf leaves pmin 1 -> Δeff = -1.
  const auto tree = parse("a=1 and b=2");
  const auto orig = scorer.profile(*tree);
  EXPECT_EQ(orig.pmin, 2u);
  const auto s = scorer.score(*tree, {0}, orig);
  EXPECT_DOUBLE_EQ(s.eff_improvement, -1.0);

  // a and (b or (b and c)): pmin = 1 + 1 = 2. Pruning c (inside the inner
  // and) keeps pmin 2 -> Δeff = 0, the throughput-preserving choice.
  const auto tree2 = parse("a=1 and (b=2 or (b=3 and c=4))");
  const auto orig2 = scorer.profile(*tree2);
  EXPECT_EQ(orig2.pmin, 2u);
  const auto s2 = scorer.score(*tree2, {1, 1, 1}, orig2);
  EXPECT_DOUBLE_EQ(s2.eff_improvement, 0.0);
}

TEST_F(HeuristicsTest, SelDegradationAgainstOriginalAccumulates) {
  const auto est = estimator();
  const HeuristicScorer scorer(est);
  // a(0.1) and b(0.5): pruning a -> sel avg 0.5 (degradation from 0.05).
  const auto tree = parse("a=1 and b=2");
  const auto orig = scorer.profile(*tree);
  EXPECT_NEAR(orig.sel.avg, 0.05, 1e-12);
  // Degradation is the max over the (min, avg, max) component increases;
  // the min component dominates here (Fréchet min of the pair is 0).
  const auto prune_a = scorer.score(*tree, {0}, orig);
  const auto prune_b = scorer.score(*tree, {1}, orig);
  EXPECT_NEAR(prune_a.sel_degradation, 0.5, 1e-12);  // -> b alone: (0.5,0.5,0.5)
  EXPECT_NEAR(prune_b.sel_degradation, 0.1, 1e-12);  // -> a alone: (0.1,0.1,0.1)
  // Dropping the *selective* conjunct degrades more.
  EXPECT_GT(prune_a.sel_degradation, prune_b.sel_degradation);
}

TEST_F(HeuristicsTest, SelDegradationIsNonNegative) {
  const auto est = estimator();
  const HeuristicScorer scorer(est);
  std::mt19937_64 rng(9);
  MiniDomain dom(5, 12);
  std::uniform_int_distribution<std::size_t> leaves(2, 9);
  const SelectivityEstimator rand_est(LeafSelectivityFn([](const Predicate& p) {
    return 0.05 + 0.9 * static_cast<double>(p.hash() % 997) / 997.0;
  }));
  const HeuristicScorer rscorer(rand_est);
  for (int i = 0; i < 40; ++i) {
    const auto tree = dom.random_tree(rng, leaves(rng), 0.25);
    const auto orig = rscorer.profile(*tree);
    for (const auto& path : enumerate_prunings(*tree)) {
      EXPECT_GE(rscorer.score(*tree, path, orig).sel_degradation, 0.0);
    }
  }
}

/// The scores of pruning `path`, measured on simulate_pruning()'s tree.
PruneScores reference_scores(const SelectivityEstimator& est, const Node& tree,
                             const Node::Path& path, const OriginalProfile& orig) {
  const auto pruned = simulate_pruning(tree, path);
  PruneScores s;
  s.sel_degradation =
      std::max(0.0, selectivity_degradation(orig.sel, est.estimate(*pruned)));
  s.mem_improvement = static_cast<double>(tree.size_bytes()) -
                      static_cast<double>(pruned->size_bytes());
  const std::uint32_t pmin = pruned->pmin();
  s.eff_improvement = (pmin == Node::kPminUnsatisfiable ? 0.0 : static_cast<double>(pmin)) -
                      static_cast<double>(orig.pmin);
  return s;
}

/// Checks every candidate of `tree` — and of each tree on the way from it
/// to exhaustion, pruning the first candidate each step — against the
/// reference, bit for bit, through score_all (one scratch reused across
/// trees) and through score().
void expect_exact_scores(const HeuristicScorer& scorer, const Node& start,
                         ScoringScratch& scratch, std::size_t& checked) {
  const OriginalProfile orig = scorer.profile(start);
  auto tree = start.clone();
  for (auto paths = enumerate_prunings(*tree); !paths.empty();
       paths = enumerate_prunings(*tree)) {
    const auto scores = scorer.score_all(*tree, paths, orig, scratch);
    ASSERT_EQ(scores.size(), paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
      const PruneScores want = reference_scores(scorer.estimator(), *tree, paths[i], orig);
      EXPECT_EQ(scores[i].sel_degradation, want.sel_degradation);
      EXPECT_EQ(scores[i].mem_improvement, want.mem_improvement);
      EXPECT_EQ(scores[i].eff_improvement, want.eff_improvement);
      const PruneScores one = scorer.score(*tree, paths[i], orig);
      EXPECT_EQ(one.sel_degradation, want.sel_degradation);
      EXPECT_EQ(one.mem_improvement, want.mem_improvement);
      EXPECT_EQ(one.eff_improvement, want.eff_improvement);
      ++checked;
    }
    tree = simulate_pruning(*tree, paths.front());
  }
}

TEST(HeuristicScorerExactTest, MatchesSimulatedPruningOnEveryDomain) {
  for (const std::string_view name : workload_names()) {
    SCOPED_TRACE(name);
    const auto domain = make_workload(name);
    EventStats stats(domain->schema());
    const auto training = domain->events(3);
    for (int i = 0; i < 2000; ++i) stats.observe(training->next());
    stats.finalize();
    const SelectivityEstimator est(stats);
    const HeuristicScorer scorer(est);
    ScoringScratch scratch;
    const auto subs = domain->subscriptions(1);
    std::size_t checked = 0;
    for (int i = 0; i < 150; ++i) {
      expect_exact_scores(scorer, *subs->next(), scratch, checked);
    }
    EXPECT_GT(checked, 300u);
  }
}

/// A random tree simplify() would change: NOT and double NOT, And under
/// And and Or under Or. (No single-child And/Or: pruning its only child
/// would fold a disjunction around it to TRUE.)
std::unique_ptr<Node> unsimplified_tree(const MiniDomain& dom, std::mt19937_64& rng,
                                        int depth) {
  std::uniform_int_distribution<int> pick(0, 8);
  const int shape = depth <= 0 ? 0 : pick(rng);
  if (shape <= 2) return Node::leaf(dom.random_predicate(rng));
  if (shape == 3) return Node::not_(unsimplified_tree(dom, rng, depth - 1));
  if (shape == 4) {
    return Node::not_(Node::not_(unsimplified_tree(dom, rng, depth - 1)));
  }
  std::uniform_int_distribution<int> arity(2, 4);
  std::vector<std::unique_ptr<Node>> kids;
  for (int n = arity(rng); n > 0; --n) kids.push_back(unsimplified_tree(dom, rng, depth - 1));
  return shape % 2 == 0 ? Node::and_(std::move(kids)) : Node::or_(std::move(kids));
}

TEST(HeuristicScorerExactTest, MatchesSimulatedPruningOnRandomTrees) {
  MiniDomain dom(5, 12);
  const SelectivityEstimator est(LeafSelectivityFn([](const Predicate& p) {
    return 0.05 + 0.9 * static_cast<double>(p.hash() % 997) / 997.0;
  }));
  const HeuristicScorer scorer(est);
  ScoringScratch scratch;
  std::mt19937_64 rng(17);
  std::uniform_int_distribution<std::size_t> leaves(2, 12);
  std::size_t checked = 0;
  for (int i = 0; i < 200; ++i) {
    expect_exact_scores(scorer, *dom.random_tree(rng, leaves(rng), 0.25), scratch, checked);
  }
  std::size_t unsimplified = 0;
  for (int i = 0; i < 300; ++i) {
    const auto tree = unsimplified_tree(dom, rng, 4);
    const bool changes = !simplify(tree->clone())->equals(*tree);
    unsimplified += changes ? 1 : 0;
    expect_exact_scores(scorer, *tree, scratch, checked);
  }
  EXPECT_GT(unsimplified, 100u);
  EXPECT_GT(checked, 1000u);
}

TEST_F(HeuristicsTest, PruningUnderNotUsesFalse) {
  // not(a or b): the Or acts conjunctively under the NOT, so pruning b
  // replaces it by FALSE, leaving not(a) — never TRUE, which would fold
  // the whole tree to FALSE.
  const SelectivityEstimator est(LeafSelectivityFn([](const Predicate&) { return 0.3; }));
  const HeuristicScorer scorer(est);
  const auto tree = parse("not (a=1 or b=2)");
  const auto orig = scorer.profile(*tree);
  // sel≈(a or b) = (0.3, 0.51, 0.6), negated (0.4, 0.49, 0.7); not(a) is
  // 0.7 everywhere, so the min component degrades most: 0.3.
  EXPECT_NEAR(orig.sel.min, 0.4, 1e-12);
  const auto s = scorer.score(*tree, {0, 1}, orig);
  EXPECT_NEAR(s.sel_degradation, 0.3, 1e-12);
}

TEST_F(HeuristicsTest, ScoreRejectsInvalidTargets) {
  const auto est = estimator();
  const HeuristicScorer scorer(est);
  const auto tree = parse("a=1 or b=2");
  const auto orig = scorer.profile(*tree);
  EXPECT_THROW((void)scorer.score(*tree, {0}, orig), std::invalid_argument);
  EXPECT_THROW((void)scorer.score(*tree, {}, orig), std::invalid_argument);
}

TEST_F(HeuristicsTest, OrientedScoresPointTheRightWay) {
  PruneScores good;
  good.sel_degradation = 0.01;
  good.mem_improvement = 100.0;
  good.eff_improvement = 0.0;
  PruneScores bad;
  bad.sel_degradation = 0.5;
  bad.mem_improvement = 10.0;
  bad.eff_improvement = -3.0;
  // Smaller oriented score = better, on every dimension.
  EXPECT_LT(oriented_score(good, PruneDimension::NetworkLoad),
            oriented_score(bad, PruneDimension::NetworkLoad));
  EXPECT_LT(oriented_score(good, PruneDimension::MemoryUsage),
            oriented_score(bad, PruneDimension::MemoryUsage));
  EXPECT_LT(oriented_score(good, PruneDimension::Throughput),
            oriented_score(bad, PruneDimension::Throughput));
}

TEST_F(HeuristicsTest, CompositeKeyBreaksTiesBySecondaryDimension) {
  PruneScores a;  // same primary (sel), better eff
  a.sel_degradation = 0.2;
  a.eff_improvement = 0.0;
  a.mem_improvement = 10.0;
  PruneScores b;
  b.sel_degradation = 0.2;
  b.eff_improvement = -2.0;
  b.mem_improvement = 500.0;
  const auto order = default_order(PruneDimension::NetworkLoad);  // sel, eff, mem
  EXPECT_LT(composite_key(a, order), composite_key(b, order));
  // Under memory ordering b wins via its primary.
  const auto mem_order = default_order(PruneDimension::MemoryUsage);
  EXPECT_LT(composite_key(b, mem_order), composite_key(a, mem_order));
}

TEST_F(HeuristicsTest, DefaultOrdersMatchPaper) {
  const auto net = default_order(PruneDimension::NetworkLoad);
  EXPECT_EQ(net[0], PruneDimension::NetworkLoad);
  EXPECT_EQ(net[1], PruneDimension::Throughput);
  EXPECT_EQ(net[2], PruneDimension::MemoryUsage);
  const auto mem = default_order(PruneDimension::MemoryUsage);
  EXPECT_EQ(mem[0], PruneDimension::MemoryUsage);
  EXPECT_EQ(mem[1], PruneDimension::NetworkLoad);
  EXPECT_EQ(mem[2], PruneDimension::Throughput);
  const auto eff = default_order(PruneDimension::Throughput);
  EXPECT_EQ(eff[0], PruneDimension::Throughput);
  EXPECT_EQ(eff[1], PruneDimension::NetworkLoad);
  EXPECT_EQ(eff[2], PruneDimension::MemoryUsage);
}

}  // namespace
}  // namespace dbsp
