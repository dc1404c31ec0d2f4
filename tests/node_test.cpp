#include "subscription/node.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "test_util.hpp"

namespace dbsp {
namespace {

using test::MiniDomain;

class NodeTest : public ::testing::Test {
 protected:
  MiniDomain dom_;

  [[nodiscard]] std::unique_ptr<Node> leaf(std::size_t attr, Op op,
                                           std::int64_t v) const {
    return Node::leaf(Predicate(dom_.attr(attr), op, Value(v)));
  }
};

TEST_F(NodeTest, FactoriesAndKinds) {
  auto l = leaf(0, Op::Eq, 5);
  EXPECT_EQ(l->kind(), NodeKind::Leaf);
  std::vector<std::unique_ptr<Node>> cs;
  cs.push_back(leaf(0, Op::Eq, 1));
  cs.push_back(leaf(1, Op::Eq, 2));
  auto a = Node::and_(std::move(cs));
  EXPECT_EQ(a->kind(), NodeKind::And);
  EXPECT_EQ(a->children().size(), 2u);
  auto n = Node::not_(std::move(a));
  EXPECT_EQ(n->kind(), NodeKind::Not);
  EXPECT_TRUE(Node::constant(true)->is_constant());
  EXPECT_EQ(Node::constant(false)->kind(), NodeKind::False);
}

TEST_F(NodeTest, FactoryPreconditions) {
  EXPECT_THROW(Node::and_({}), std::invalid_argument);
  EXPECT_THROW(Node::or_({}), std::invalid_argument);
  EXPECT_THROW(Node::not_(nullptr), std::invalid_argument);
}

TEST_F(NodeTest, EvaluateEventRespectsBooleanStructure) {
  // (a0 = 1 and a1 < 5) or not (a2 >= 3)
  std::vector<std::unique_ptr<Node>> and_children;
  and_children.push_back(leaf(0, Op::Eq, 1));
  and_children.push_back(leaf(1, Op::Lt, 5));
  std::vector<std::unique_ptr<Node>> or_children;
  or_children.push_back(Node::and_(std::move(and_children)));
  or_children.push_back(Node::not_(leaf(2, Op::Ge, 3)));
  const auto tree = Node::or_(std::move(or_children));

  Event yes_and;
  yes_and.set(dom_.attr(0), Value(1));
  yes_and.set(dom_.attr(1), Value(4));
  yes_and.set(dom_.attr(2), Value(9));
  EXPECT_TRUE(tree->evaluate_event(yes_and));

  Event yes_not;
  yes_not.set(dom_.attr(0), Value(0));
  yes_not.set(dom_.attr(1), Value(9));
  yes_not.set(dom_.attr(2), Value(1));
  EXPECT_TRUE(tree->evaluate_event(yes_not));

  Event no;
  no.set(dom_.attr(0), Value(0));
  no.set(dom_.attr(1), Value(9));
  no.set(dom_.attr(2), Value(5));
  EXPECT_FALSE(tree->evaluate_event(no));
}

TEST_F(NodeTest, CloneIsDeepAndEqual) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20; ++i) {
    const auto tree = dom_.random_tree(rng, 8, 0.2);
    const auto copy = tree->clone();
    EXPECT_TRUE(tree->equals(*copy));
    EXPECT_NE(tree.get(), copy.get());
    EXPECT_EQ(tree->size_bytes(), copy->size_bytes());
    EXPECT_EQ(tree->pmin(), copy->pmin());
  }
}

TEST_F(NodeTest, ResolvePaths) {
  std::vector<std::unique_ptr<Node>> cs;
  cs.push_back(leaf(0, Op::Eq, 1));
  cs.push_back(Node::not_(leaf(1, Op::Eq, 2)));
  const auto tree = Node::and_(std::move(cs));
  EXPECT_EQ(tree->resolve({}), tree.get());
  EXPECT_EQ(tree->resolve({0})->kind(), NodeKind::Leaf);
  EXPECT_EQ(tree->resolve({1})->kind(), NodeKind::Not);
  EXPECT_EQ(tree->resolve({1, 0})->kind(), NodeKind::Leaf);
  EXPECT_EQ(tree->resolve({2}), nullptr);
  EXPECT_EQ(tree->resolve({0, 0}), nullptr);
}

TEST_F(NodeTest, PminLeafAndConnectives) {
  EXPECT_EQ(leaf(0, Op::Eq, 1)->pmin(), 1u);

  std::vector<std::unique_ptr<Node>> and_cs;
  and_cs.push_back(leaf(0, Op::Eq, 1));
  and_cs.push_back(leaf(1, Op::Eq, 2));
  and_cs.push_back(leaf(2, Op::Eq, 3));
  EXPECT_EQ(Node::and_(std::move(and_cs))->pmin(), 3u);

  std::vector<std::unique_ptr<Node>> or_cs;
  or_cs.push_back(leaf(0, Op::Eq, 1));
  std::vector<std::unique_ptr<Node>> inner;
  inner.push_back(leaf(1, Op::Eq, 2));
  inner.push_back(leaf(2, Op::Eq, 3));
  or_cs.push_back(Node::and_(std::move(inner)));
  EXPECT_EQ(Node::or_(std::move(or_cs))->pmin(), 1u);  // min over children
}

TEST_F(NodeTest, PminOfNotIsZero) {
  // NOT can be satisfied by the absence of fulfilled predicates.
  EXPECT_EQ(Node::not_(leaf(0, Op::Eq, 1))->pmin(), 0u);
  std::vector<std::unique_ptr<Node>> cs;
  cs.push_back(leaf(0, Op::Eq, 1));
  cs.push_back(Node::not_(leaf(1, Op::Eq, 2)));
  EXPECT_EQ(Node::and_(std::move(cs))->pmin(), 1u);  // 1 + 0
}

TEST_F(NodeTest, PminConstants) {
  EXPECT_EQ(Node::constant(true)->pmin(), 0u);
  EXPECT_EQ(Node::constant(false)->pmin(), Node::kPminUnsatisfiable);
}

TEST_F(NodeTest, SizeBytesModel) {
  // Model: 16/node + 8/child slot + predicate payload.
  const auto l = leaf(0, Op::Eq, 1);
  const std::size_t leaf_bytes = l->size_bytes();
  EXPECT_EQ(leaf_bytes, 16 + Predicate(dom_.attr(0), Op::Eq, Value(1)).size_bytes());
  std::vector<std::unique_ptr<Node>> cs;
  cs.push_back(leaf(0, Op::Eq, 1));
  cs.push_back(leaf(1, Op::Eq, 2));
  const auto a = Node::and_(std::move(cs));
  EXPECT_EQ(a->size_bytes(), 16 + 2 * 8 + 2 * leaf_bytes);
}

TEST_F(NodeTest, LeafAndNodeCounts) {
  std::mt19937_64 rng(11);
  const auto tree = dom_.random_tree(rng, 9);
  EXPECT_EQ(tree->leaf_count(), 9u);
  EXPECT_GE(tree->node_count(), 9u);
  std::size_t visited = 0;
  tree->for_each_leaf([&](const Node& n) {
    EXPECT_EQ(n.kind(), NodeKind::Leaf);
    ++visited;
  });
  EXPECT_EQ(visited, 9u);
}

// --- simplify -------------------------------------------------------------

TEST_F(NodeTest, SimplifyFoldsConstantsInAnd) {
  std::vector<std::unique_ptr<Node>> cs;
  cs.push_back(Node::constant(true));
  cs.push_back(leaf(0, Op::Eq, 1));
  cs.push_back(leaf(1, Op::Eq, 2));
  auto s = simplify(Node::and_(std::move(cs)));
  EXPECT_EQ(s->kind(), NodeKind::And);
  EXPECT_EQ(s->children().size(), 2u);

  std::vector<std::unique_ptr<Node>> cs2;
  cs2.push_back(Node::constant(false));
  cs2.push_back(leaf(0, Op::Eq, 1));
  EXPECT_EQ(simplify(Node::and_(std::move(cs2)))->kind(), NodeKind::False);
}

TEST_F(NodeTest, SimplifyFoldsConstantsInOr) {
  std::vector<std::unique_ptr<Node>> cs;
  cs.push_back(Node::constant(false));
  cs.push_back(leaf(0, Op::Eq, 1));
  auto s = simplify(Node::or_(std::move(cs)));
  EXPECT_EQ(s->kind(), NodeKind::Leaf);  // single survivor hoisted

  std::vector<std::unique_ptr<Node>> cs2;
  cs2.push_back(Node::constant(true));
  cs2.push_back(leaf(0, Op::Eq, 1));
  EXPECT_EQ(simplify(Node::or_(std::move(cs2)))->kind(), NodeKind::True);
}

TEST_F(NodeTest, SimplifyHoistsSingleChild) {
  std::vector<std::unique_ptr<Node>> inner;
  inner.push_back(leaf(0, Op::Eq, 1));
  inner.push_back(Node::constant(true));
  std::vector<std::unique_ptr<Node>> outer;
  outer.push_back(Node::and_(std::move(inner)));
  outer.push_back(leaf(1, Op::Eq, 2));
  auto s = simplify(Node::and_(std::move(outer)));
  // Inner and(leaf, true) -> leaf; outer stays binary and flat.
  EXPECT_EQ(s->kind(), NodeKind::And);
  ASSERT_EQ(s->children().size(), 2u);
  EXPECT_EQ(s->children()[0]->kind(), NodeKind::Leaf);
}

TEST_F(NodeTest, SimplifyFlattensNestedSameKind) {
  std::vector<std::unique_ptr<Node>> inner;
  inner.push_back(leaf(0, Op::Eq, 1));
  inner.push_back(leaf(1, Op::Eq, 2));
  std::vector<std::unique_ptr<Node>> outer;
  outer.push_back(Node::and_(std::move(inner)));
  outer.push_back(leaf(2, Op::Eq, 3));
  auto s = simplify(Node::and_(std::move(outer)));
  EXPECT_EQ(s->kind(), NodeKind::And);
  EXPECT_EQ(s->children().size(), 3u);
  for (const auto& c : s->children()) EXPECT_EQ(c->kind(), NodeKind::Leaf);
}

TEST_F(NodeTest, SimplifyEliminatesDoubleNegation) {
  auto s = simplify(Node::not_(Node::not_(leaf(0, Op::Eq, 1))));
  EXPECT_EQ(s->kind(), NodeKind::Leaf);
  EXPECT_EQ(simplify(Node::not_(Node::constant(true)))->kind(), NodeKind::False);
  EXPECT_EQ(simplify(Node::not_(Node::constant(false)))->kind(), NodeKind::True);
}

TEST_F(NodeTest, IsSimplifiedRejectsEveryShapeSimplifyRewrites) {
  std::vector<std::unique_ptr<Node>> single;
  single.push_back(leaf(1, Op::Eq, 2));
  std::vector<std::unique_ptr<Node>> hoist;
  hoist.push_back(leaf(0, Op::Eq, 1));
  hoist.push_back(Node::and_(std::move(single)));
  EXPECT_FALSE(is_simplified(*Node::or_(std::move(hoist))));
  std::vector<std::unique_ptr<Node>> nested;
  nested.push_back(leaf(0, Op::Eq, 1));
  nested.push_back(leaf(1, Op::Eq, 2));
  std::vector<std::unique_ptr<Node>> flatten;
  flatten.push_back(Node::and_(std::move(nested)));
  flatten.push_back(leaf(2, Op::Eq, 3));
  EXPECT_FALSE(is_simplified(*Node::and_(std::move(flatten))));
  std::vector<std::unique_ptr<Node>> folded;
  folded.push_back(leaf(0, Op::Eq, 1));
  folded.push_back(Node::constant(true));
  EXPECT_FALSE(is_simplified(*Node::and_(std::move(folded))));
  EXPECT_FALSE(is_simplified(*Node::not_(Node::not_(leaf(0, Op::Eq, 1)))));
  EXPECT_FALSE(is_simplified(*Node::not_(Node::constant(true))));
  EXPECT_TRUE(is_simplified(*Node::not_(leaf(0, Op::Eq, 1))));
}

TEST_F(NodeTest, SimplifyPreservesSemantics) {
  std::mt19937_64 rng(23);
  for (int round = 0; round < 50; ++round) {
    auto raw = dom_.random_tree(rng, 7, 0.25);
    auto copy = raw->clone();
    auto simplified = simplify(std::move(copy));
    // is_simplified() holds after simplify(), and says "unchanged" only
    // when simplify() indeed changes nothing.
    EXPECT_TRUE(is_simplified(*simplified));
    if (is_simplified(*raw)) {
      EXPECT_TRUE(raw->equals(*simplified));
    }
    const auto events = dom_.random_events(rng, 64);
    for (const auto& e : events) {
      EXPECT_EQ(raw->evaluate_event(e), simplified->evaluate_event(e));
    }
  }
}

TEST_F(NodeTest, SimplifyKeepsTheNodesItDoesNotChange) {
  std::mt19937_64 rng(29);
  for (int round = 0; round < 50; ++round) {
    auto tree = simplify(dom_.random_tree(rng, 7, 0.25));
    if (tree->is_constant()) continue;
    // Every node of a simplified tree comes back where it was.
    std::vector<const Node*> before;
    const std::function<void(const Node&)> collect = [&](const Node& n) {
      before.push_back(&n);
      for (const auto& c : n.children()) collect(*c);
    };
    collect(*tree);
    const auto copy = tree->clone();
    const Node* root = tree.get();
    tree = simplify(std::move(tree));
    EXPECT_EQ(tree.get(), root);
    EXPECT_TRUE(tree->equals(*copy));
    std::vector<const Node*> after;
    before.swap(after);
    collect(*tree);
    EXPECT_EQ(before, after);
  }
  // A rewrite below the root keeps the root and the untouched siblings.
  std::vector<std::unique_ptr<Node>> inner;
  inner.push_back(leaf(0, Op::Eq, 1));
  inner.push_back(Node::constant(true));
  std::vector<std::unique_ptr<Node>> outer;
  outer.push_back(leaf(1, Op::Eq, 2));
  outer.push_back(Node::and_(std::move(inner)));
  outer.push_back(leaf(2, Op::Eq, 3));
  auto tree = Node::or_(std::move(outer));
  const Node* root = tree.get();
  const Node* first = tree->children()[0].get();
  tree = simplify(std::move(tree));
  EXPECT_EQ(tree.get(), root);
  EXPECT_EQ(tree->children()[0].get(), first);
  EXPECT_EQ(tree->children()[1]->kind(), NodeKind::Leaf);
}

TEST_F(NodeTest, ToStringRendersBooleanStructure) {
  std::vector<std::unique_ptr<Node>> cs;
  cs.push_back(leaf(0, Op::Lt, 5));
  cs.push_back(Node::not_(leaf(1, Op::Eq, 2)));
  const auto tree = Node::or_(std::move(cs));
  EXPECT_EQ(tree->to_string(dom_.schema()), "(a0 < 5 or not (a1 = 2))");
}

}  // namespace
}  // namespace dbsp
