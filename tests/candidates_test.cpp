#include "core/candidates.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string_view>

#include "scenario/workload_domain.hpp"
#include "subscription/parser.hpp"
#include "test_util.hpp"

namespace dbsp {
namespace {

using test::MiniDomain;

class CandidatesTest : public ::testing::Test {
 protected:
  CandidatesTest() {
    schema_.add_attribute("a", ValueType::Int);
    schema_.add_attribute("b", ValueType::Int);
    schema_.add_attribute("c", ValueType::Int);
    schema_.add_attribute("d", ValueType::Int);
    schema_.add_attribute("e", ValueType::Int);
  }
  Schema schema_;

  [[nodiscard]] std::unique_ptr<Node> parse(std::string_view s) const {
    return parse_subscription(s, schema_);
  }
};

TEST_F(CandidatesTest, InternalPruningsClosedForm) {
  // And(p1,p2,p3): each child removable, last one stays -> 2.
  EXPECT_EQ(internal_prunings(*parse("a=1 and b=2 and c=3")), 2u);
  // Single predicate: nothing to prune.
  EXPECT_EQ(internal_prunings(*parse("a=1")), 0u);
  // Or children are not removable.
  EXPECT_EQ(internal_prunings(*parse("a=1 or b=2")), 0u);
  // And(p, Or(p,p)): the Or group counts as one removable unit -> 1.
  EXPECT_EQ(internal_prunings(*parse("a=1 and (b=2 or c=3)")), 1u);
  // And(p, Or(p, And(p,p))): inner And gives 1, then group removable -> 2.
  EXPECT_EQ(internal_prunings(*parse("a=1 and (b=2 or (c=3 and d=4))")), 2u);
  // Or of two And groups: only inside the groups -> (2-1)+(2-1) = 2.
  EXPECT_EQ(internal_prunings(*parse("(a=1 and b=2) or (c=3 and d=4)")), 2u);
}

TEST_F(CandidatesTest, InternalPruningsWithNegation) {
  // not(a or b): Or under odd NOTs is conjunctive -> children removable -> 1.
  EXPECT_EQ(internal_prunings(*parse("not (a=1 or b=2)")), 1u);
  // not(a and b): And under NOT is disjunctive -> nothing removable.
  EXPECT_EQ(internal_prunings(*parse("not (a=1 and b=2)")), 0u);
  // a and not(b or c): 1 (the not-group) + 1 (inside) ... careful:
  // children of root And: a, not(b or c) -> both removable (2-1 = 1 each
  // budget) plus inside not: 1. Total = (0+1) + (1+1) - 1 = 2.
  EXPECT_EQ(internal_prunings(*parse("a=1 and not (b=2 or c=3)")), 2u);
}

TEST_F(CandidatesTest, EnumerateRespectsConjunctiveParents) {
  const auto tree = parse("a=1 and (b=2 or c=3)");
  const auto paths = enumerate_prunings(*tree);
  // Valid: leaf a (path {0}) and the whole Or group (path {1}).
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], (Node::Path{0}));
  EXPECT_EQ(paths[1], (Node::Path{1}));
}

TEST_F(CandidatesTest, BottomUpRestrictionHidesOuterCandidates) {
  const auto tree = parse("a=1 and (b=2 or (c=3 and d=4))");
  const auto restricted = enumerate_prunings(*tree, /*bottom_up=*/true);
  // Valid: a (path {0}); c and d inside the inner And; NOT the Or group
  // (it still contains valid prunings).
  std::vector<Node::Path> expected = {{0}, {1, 1, 0}, {1, 1, 1}};
  EXPECT_EQ(restricted, expected);

  const auto unrestricted = enumerate_prunings(*tree, /*bottom_up=*/false);
  // Additionally the whole Or group at {1}.
  EXPECT_EQ(unrestricted.size(), 4u);
}

TEST_F(CandidatesTest, IsPrunableChild) {
  const auto tree = parse("a=1 and (b=2 or c=3)");
  EXPECT_TRUE(is_prunable_child(*tree, {0}));
  EXPECT_TRUE(is_prunable_child(*tree, {1}));
  EXPECT_FALSE(is_prunable_child(*tree, {}));      // root
  EXPECT_FALSE(is_prunable_child(*tree, {1, 0}));  // Or child
  EXPECT_FALSE(is_prunable_child(*tree, {9}));     // out of range
}

TEST_F(CandidatesTest, SimulatePruningRemovesConjunct) {
  const auto tree = parse("a=1 and b=2 and c=3");
  const auto pruned = simulate_pruning(*tree, {1});
  EXPECT_TRUE(pruned->equals(*parse("a=1 and c=3")));
}

TEST_F(CandidatesTest, SimulatePruningHoistsLastSibling) {
  const auto tree = parse("a=1 and b=2");
  const auto pruned = simulate_pruning(*tree, {0});
  EXPECT_TRUE(pruned->equals(*parse("b=2")));
}

TEST_F(CandidatesTest, SimulatePruningCollapsesOrGroup) {
  const auto tree = parse("a=1 and (b=2 or c=3)");
  const auto pruned = simulate_pruning(*tree, {1});
  EXPECT_TRUE(pruned->equals(*parse("a=1")));
}

TEST_F(CandidatesTest, SimulatePruningNegativePolarityUsesFalse) {
  // not(a or b): pruning b must yield not(a) — replacement constant FALSE.
  const auto tree = parse("not (a=1 or b=2)");
  const auto pruned = simulate_pruning(*tree, {0, 1});
  EXPECT_TRUE(pruned->equals(*parse("not a=1")));
}

TEST_F(CandidatesTest, InvalidTargetsThrow) {
  const auto tree = parse("a=1 or b=2");
  EXPECT_THROW(simulate_pruning(*tree, {0}), std::invalid_argument);
  EXPECT_THROW(simulate_pruning(*tree, {}), std::invalid_argument);
}

TEST_F(CandidatesTest, ApplyPruningBumpsGeneration) {
  Subscription sub(SubscriptionId(1), parse("a=1 and b=2"));
  const auto gen = sub.generation();
  apply_pruning(sub, {0});
  EXPECT_EQ(sub.generation(), gen + 1);
  EXPECT_TRUE(sub.root().equals(*parse("b=2")));
}

TEST_F(CandidatesTest, InvalidTargetLeavesTreeAndGenerationUntouched) {
  Subscription sub(SubscriptionId(1), parse("a=1 and (b=2 or c=3)"));
  const std::string before = sub.to_string(schema_);
  const auto gen = sub.generation();
  for (const Node::Path& bad : {Node::Path{}, Node::Path{1, 0}, Node::Path{7},
                                Node::Path{0, 0}, Node::Path{1, 9}}) {
    EXPECT_THROW(apply_pruning(sub, bad), std::invalid_argument);
    EXPECT_EQ(sub.generation(), gen);
    EXPECT_EQ(sub.to_string(schema_), before);
  }
}

TEST_F(CandidatesTest, CollapseToAConstantStillLeavesATree) {
  // Only an unsimplified tree can collapse: And(a, FALSE) minus a is FALSE.
  std::vector<std::unique_ptr<Node>> kids;
  kids.push_back(parse("a=1"));
  kids.push_back(Node::constant(false));
  Subscription sub(SubscriptionId(1), Node::and_(std::move(kids)));
  EXPECT_THROW(apply_pruning(sub, {0}), std::logic_error);
  EXPECT_EQ(sub.root().kind(), NodeKind::False);
}

/// Reference enumerator: the recursive walk that asks internal_prunings()
/// at every node, kept to pin the order of the one-pass enumerator.
void reference_walk(const Node& node, bool positive, bool bottom_up, Node::Path& prefix,
                    std::vector<Node::Path>& out) {
  const bool child_positive = node.kind() == NodeKind::Not ? !positive : positive;
  const bool conj = (node.kind() == NodeKind::And && child_positive) ||
                    (node.kind() == NodeKind::Or && !child_positive);
  for (std::uint32_t i = 0; i < node.children().size(); ++i) {
    const Node& child = *node.children()[i];
    prefix.push_back(i);
    if (conj && (!bottom_up || internal_prunings(child, child_positive) == 0)) {
      out.push_back(prefix);
    }
    reference_walk(child, child_positive, bottom_up, prefix, out);
    prefix.pop_back();
  }
}

std::vector<Node::Path> reference_enumeration(const Node& root, bool bottom_up) {
  std::vector<Node::Path> out;
  Node::Path prefix;
  reference_walk(root, true, bottom_up, prefix, out);
  return out;
}

/// Reference pruning operator: clone, swap the target for its generalizing
/// constant, simplify.
std::unique_ptr<Node> reference_pruning(const Node& root, const Node::Path& path) {
  auto copy = root.clone();
  bool positive = true;
  Node* parent = copy.get();
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (parent->kind() == NodeKind::Not) positive = !positive;
    if (i + 1 < path.size()) parent = parent->children()[path[i]].get();
  }
  parent->children()[path.back()] = Node::constant(positive);
  return simplify(std::move(copy));
}

/// Walks `start` to exhaustion, pruning a random candidate each step. At
/// every step the one-pass enumerator (into one buffer reused across all
/// trees) must list the reference's candidates in its order and return the
/// tree's capacity, and pruning each candidate in place must give the
/// reference's tree.
void expect_same_as_reference(const Node& start, const Schema& schema,
                              CandidateBuffer& buffer, std::mt19937_64& rng,
                              std::size_t& checked) {
  for (const bool bottom_up : {false, true}) {
    EXPECT_EQ(enumerate_prunings(start, bottom_up, buffer), internal_prunings(start));
    const auto want = reference_enumeration(start, bottom_up);
    ASSERT_EQ(std::vector<Node::Path>(buffer.candidates().begin(), buffer.candidates().end()),
              want);
    EXPECT_EQ(enumerate_prunings(start, bottom_up), want);
  }
  Subscription live(SubscriptionId(0), start.clone());
  while (true) {
    const auto paths = reference_enumeration(live.root(), true);
    EXPECT_EQ(enumerate_prunings(live.root(), true, buffer), internal_prunings(live.root()));
    ASSERT_EQ(std::vector<Node::Path>(buffer.candidates().begin(), buffer.candidates().end()),
              paths);
    if (paths.empty()) break;
    for (const Node::Path& path : paths) {
      Subscription sub(SubscriptionId(1), live.root().clone());
      apply_pruning(sub, path);
      const std::string want = reference_pruning(live.root(), path)->to_string(schema);
      ASSERT_EQ(sub.to_string(schema), want) << live.to_string(schema);
      EXPECT_EQ(simulate_pruning(live.root(), path)->to_string(schema), want);
      EXPECT_EQ(sub.generation(), 1u);
      ++checked;
    }
    apply_pruning(live, paths[rng() % paths.size()]);
  }
}

TEST(CandidatesReferenceTest, MiniDomainTreesMatchTheReference) {
  MiniDomain dom(6, 20);
  std::mt19937_64 rng(71);
  std::uniform_int_distribution<std::size_t> leaves(1, 14);
  CandidateBuffer buffer;
  std::size_t checked = 0;
  for (int i = 0; i < 150; ++i) {
    const auto tree = dom.random_tree(rng, leaves(rng), 0.25);
    expect_same_as_reference(*tree, dom.schema(), buffer, rng, checked);
  }
  EXPECT_GT(checked, 1000u);
}

TEST(CandidatesReferenceTest, DomainTreesMatchTheReference) {
  for (const std::string_view name : {"auction", "iot", "stock"}) {
    SCOPED_TRACE(name);
    const auto domain = make_workload(name);
    const auto source = domain->subscriptions(1);
    std::mt19937_64 rng(73);
    CandidateBuffer buffer;
    std::size_t checked = 0;
    for (int i = 0; i < 60; ++i) {
      expect_same_as_reference(*source->next(), domain->schema(), buffer, rng, checked);
    }
    EXPECT_GT(checked, 60u);
  }
}

TEST_F(CandidatesTest, UnsimplifiedSingleChildGroupsKeepPreOrder) {
  // And(a, And(b)): the inner And has no internal prunings of its own but
  // a candidate below it; the reference lists the group first.
  std::vector<std::unique_ptr<Node>> inner;
  inner.push_back(parse("b=2"));
  std::vector<std::unique_ptr<Node>> outer;
  outer.push_back(parse("a=1"));
  outer.push_back(Node::and_(std::move(inner)));
  const auto tree = Node::and_(std::move(outer));
  const std::vector<Node::Path> want = {{0}, {1}, {1, 0}};
  EXPECT_EQ(reference_enumeration(*tree, true), want);
  EXPECT_EQ(enumerate_prunings(*tree, true), want);
}

// Property: the number of prunings to exhaustion equals internal_prunings
// regardless of the order in which valid prunings are chosen — this is the
// invariant that makes the paper's x-axis well defined.
class ExhaustionInvariance : public ::testing::TestWithParam<int> {};

TEST_P(ExhaustionInvariance, AnyOrderReachesSameCount) {
  MiniDomain dom(6, 20);
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  std::uniform_int_distribution<std::size_t> leaves(2, 12);
  for (int round = 0; round < 40; ++round) {
    const auto tree = dom.random_tree(rng, leaves(rng), 0.2);
    const std::size_t expected = internal_prunings(*tree);

    for (int trial = 0; trial < 3; ++trial) {
      Subscription sub(SubscriptionId(0), tree->clone());
      std::size_t performed = 0;
      while (true) {
        const auto candidates = enumerate_prunings(sub.root());
        if (candidates.empty()) break;
        const auto& path = candidates[rng() % candidates.size()];
        apply_pruning(sub, path);
        ++performed;
        ASSERT_LE(performed, expected + 100) << "runaway pruning";
      }
      EXPECT_EQ(performed, expected)
          << "tree: " << tree->to_string(dom.schema());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExhaustionInvariance, ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace dbsp
