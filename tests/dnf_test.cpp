#include "filter/dnf.hpp"
#include "filter/dnf_matcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "filter/naive_matcher.hpp"
#include "subscription/parser.hpp"
#include "test_util.hpp"
#include "workload/event_gen.hpp"
#include "workload/subscription_gen.hpp"

namespace dbsp {
namespace {

using test::MiniDomain;

class DnfTest : public ::testing::Test {
 protected:
  DnfTest() {
    schema_.add_attribute("a", ValueType::Int);
    schema_.add_attribute("b", ValueType::Int);
    schema_.add_attribute("c", ValueType::Int);
    schema_.add_attribute("s", ValueType::String);
  }
  Schema schema_;

  [[nodiscard]] std::unique_ptr<Node> parse(std::string_view text) const {
    return parse_subscription(text, schema_);
  }
};

TEST_F(DnfTest, NegatePredicateTable) {
  const AttributeId a(0);
  auto single = [](const NegatedPredicate& n) {
    EXPECT_EQ(n.alternatives.size(), 1u);
    EXPECT_EQ(n.alternatives[0].size(), 1u);
    return n.alternatives[0][0];
  };
  EXPECT_EQ(single(*negate_predicate(Predicate(a, Op::Eq, Value(5)))).op(), Op::Ne);
  EXPECT_EQ(single(*negate_predicate(Predicate(a, Op::Ne, Value(5)))).op(), Op::Eq);
  EXPECT_EQ(single(*negate_predicate(Predicate(a, Op::Lt, Value(5)))).op(), Op::Ge);
  EXPECT_EQ(single(*negate_predicate(Predicate(a, Op::Le, Value(5)))).op(), Op::Gt);
  EXPECT_EQ(single(*negate_predicate(Predicate(a, Op::Gt, Value(5)))).op(), Op::Le);
  EXPECT_EQ(single(*negate_predicate(Predicate(a, Op::Ge, Value(5)))).op(), Op::Lt);

  const auto between = negate_predicate(Predicate(a, Value(1), Value(9)));
  ASSERT_TRUE(between.has_value());
  EXPECT_EQ(between->alternatives.size(), 2u);  // < lo OR > hi

  const auto in = negate_predicate(Predicate(a, {Value(1), Value(2)}));
  ASSERT_TRUE(in.has_value());
  ASSERT_EQ(in->alternatives.size(), 1u);
  EXPECT_EQ(in->alternatives[0].size(), 2u);  // != 1 AND != 2

  EXPECT_FALSE(negate_predicate(Predicate(a, Op::Prefix, Value("x"))).has_value());
  EXPECT_FALSE(negate_predicate(Predicate(a, Op::Contains, Value("x"))).has_value());
}

TEST_F(DnfTest, SimpleConversions) {
  const auto leaf = to_dnf(*parse("a = 1"));
  ASSERT_TRUE(leaf.has_value());
  EXPECT_EQ(leaf->conjunctions.size(), 1u);
  EXPECT_EQ(leaf->conjunctions[0].size(), 1u);

  const auto conj = to_dnf(*parse("a = 1 and b = 2 and c = 3"));
  ASSERT_TRUE(conj.has_value());
  EXPECT_EQ(conj->conjunctions.size(), 1u);
  EXPECT_EQ(conj->conjunctions[0].size(), 3u);

  const auto disj = to_dnf(*parse("a = 1 or b = 2"));
  ASSERT_TRUE(disj.has_value());
  EXPECT_EQ(disj->conjunctions.size(), 2u);

  // (a=1 or a=2) and (b=1 or b=2): 2x2 cross product.
  const auto cross = to_dnf(*parse("(a = 1 or a = 2) and (b = 1 or b = 2)"));
  ASSERT_TRUE(cross.has_value());
  EXPECT_EQ(cross->conjunctions.size(), 4u);
  for (const auto& c : cross->conjunctions) EXPECT_EQ(c.size(), 2u);
}

TEST_F(DnfTest, DuplicatePredicatesCollapseWithinConjunction) {
  const auto dnf = to_dnf(*parse("a = 1 and (a = 1 or b = 2)"));
  ASSERT_TRUE(dnf.has_value());
  // Conjunction {a=1, a=1} collapses to {a=1}.
  const auto smallest = std::min_element(
      dnf->conjunctions.begin(), dnf->conjunctions.end(),
      [](const auto& x, const auto& y) { return x.size() < y.size(); });
  EXPECT_EQ(smallest->size(), 1u);
}

TEST_F(DnfTest, BlowupGuard) {
  // (a in 2 vals or b in 2 vals) conjoined 12 times would be 2^12 = 4096
  // conjunctions; a low cap must refuse.
  std::string text = "(a = 1 or b = 1)";
  for (int i = 2; i <= 12; ++i) {
    text += " and (a = " + std::to_string(i) + " or b = " + std::to_string(i) + ")";
  }
  EXPECT_FALSE(to_dnf(*parse(text), 64).has_value());
  EXPECT_TRUE(to_dnf(*parse(text), 4096).has_value());
}

TEST_F(DnfTest, NegatedStringOperatorIsInconvertible) {
  EXPECT_FALSE(to_dnf(*parse("not s prefix 'x'")).has_value());
  EXPECT_TRUE(to_dnf(*parse("s prefix 'x'")).has_value());  // positive is fine
}

TEST_F(DnfTest, ConversionPreservesSemantics) {
  // Random trees with NOT over numeric predicates (all attributes present
  // in MiniDomain events, satisfying the closed-schema caveat).
  MiniDomain dom(5, 12);
  std::mt19937_64 rng(33);
  std::uniform_int_distribution<std::size_t> leaves(1, 9);
  const auto events = dom.random_events(rng, 300);
  for (int round = 0; round < 80; ++round) {
    const auto tree = dom.random_tree(rng, leaves(rng), 0.3);
    const auto dnf = to_dnf(*tree, 1 << 16);
    ASSERT_TRUE(dnf.has_value());
    for (const auto& e : events) {
      ASSERT_EQ(tree->evaluate_event(e), dnf_matches(*dnf, e))
          << tree->to_string(dom.schema());
    }
  }
}

class DnfMatcherTest : public ::testing::Test {
 protected:
  MiniDomain dom_{5, 12};
};

TEST_F(DnfMatcherTest, AgreesWithNaiveMatcherOnRandomCorpus) {
  std::mt19937_64 rng(44);
  std::uniform_int_distribution<std::size_t> leaves(1, 8);
  DnfMatcher dnf(dom_.schema());
  NaiveMatcher naive;
  std::vector<std::unique_ptr<Subscription>> subs;
  for (std::uint32_t i = 0; i < 150; ++i) {
    subs.push_back(std::make_unique<Subscription>(
        SubscriptionId(i), dom_.random_tree(rng, leaves(rng), 0.2)));
    ASSERT_TRUE(dnf.add(*subs.back()));
    naive.add(*subs.back());
  }
  for (const auto& e : dom_.random_events(rng, 300)) {
    std::vector<SubscriptionId> a, b;
    dnf.match(e, a);
    naive.match(e, b);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b);
  }
}

TEST_F(DnfMatcherTest, AgreesOnAuctionWorkload) {
  WorkloadConfig cfg;
  cfg.seed = 3;
  cfg.titles = 150;
  cfg.authors = 60;
  const AuctionDomain domain(cfg);
  AuctionSubscriptionGenerator gen(domain);
  AuctionEventGenerator events(domain);
  DnfMatcher dnf(domain.schema());
  NaiveMatcher naive;
  std::vector<std::unique_ptr<Subscription>> subs;
  for (std::uint32_t i = 0; i < 300; ++i) {
    subs.push_back(std::make_unique<Subscription>(SubscriptionId(i), gen.next_tree()));
    ASSERT_TRUE(dnf.add(*subs.back()));
    naive.add(*subs.back());
  }
  for (const auto& e : events.generate(200)) {
    std::vector<SubscriptionId> a, b;
    dnf.match(e, a);
    naive.match(e, b);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b);
  }
}

TEST_F(DnfMatcherTest, RemoveReleasesState) {
  std::mt19937_64 rng(55);
  DnfMatcher m(dom_.schema());
  Subscription s1(SubscriptionId(1), dom_.random_tree(rng, 6, 0.0));
  Subscription s2(SubscriptionId(2), dom_.random_tree(rng, 6, 0.0));
  ASSERT_TRUE(m.add(s1));
  ASSERT_TRUE(m.add(s2));
  const auto conjs = m.conjunction_count();
  EXPECT_GT(conjs, 0u);
  m.remove(SubscriptionId(1));
  EXPECT_LT(m.conjunction_count(), conjs);
  m.remove(SubscriptionId(2));
  EXPECT_EQ(m.conjunction_count(), 0u);
  EXPECT_EQ(m.predicate_count(), 0u);
  EXPECT_EQ(m.association_count(), 0u);
  EXPECT_THROW(m.remove(SubscriptionId(1)), std::out_of_range);
}

TEST_F(DnfMatcherTest, RejectedSubscriptionLeavesNoState) {
  Schema s;
  s.add_attribute("name", ValueType::String);
  DnfMatcher m(s);
  Subscription bad(SubscriptionId(1),
                   parse_subscription("not name prefix 'x'", s));
  EXPECT_FALSE(m.add(bad));
  EXPECT_EQ(m.predicate_count(), 0u);
  EXPECT_EQ(m.subscription_count(), 0u);
}

TEST_F(DnfMatcherTest, DuplicateAddThrows) {
  std::mt19937_64 rng(66);
  DnfMatcher m(dom_.schema());
  Subscription s(SubscriptionId(1), dom_.random_tree(rng, 4, 0.0));
  ASSERT_TRUE(m.add(s));
  EXPECT_THROW(m.add(s), std::invalid_argument);
}

// A predicate with a NaN operand equals no predicate, itself included, so
// it is never found again by equality: releasing it must still recycle it.
TEST_F(DnfMatcherTest, NaNLeafAddRemoveCyclesLeaveNoPredicate) {
  Schema s;
  const AttributeId x = s.add_attribute("x", ValueType::Double);
  DnfMatcher m(s);
  for (int cycle = 0; cycle < 3; ++cycle) {
    Subscription sub(SubscriptionId(1),
                     Node::leaf(Predicate(x, Op::Eq, Value(std::nan("")))));
    ASSERT_TRUE(m.add(sub));
    EXPECT_EQ(m.predicate_count(), 1u) << "cycle " << cycle;
    Event nan_event;
    nan_event.set(x, Value(std::nan("")));
    std::vector<SubscriptionId> out;
    m.match(nan_event, out);
    EXPECT_TRUE(out.empty());
    m.remove(SubscriptionId(1));
    EXPECT_EQ(m.predicate_count(), 0u) << "cycle " << cycle;
  }
  EXPECT_EQ(m.subscription_count(), 0u);
}

TEST_F(DnfMatcherTest, LeafOutsideTheSchemaThrowsBeforeAnythingChanges) {
  DnfMatcher m(dom_.schema());
  std::vector<std::unique_ptr<Node>> leaves;
  leaves.push_back(Node::leaf(Predicate(dom_.attr(0), Op::Eq, Value(std::int64_t{1}))));
  leaves.push_back(Node::leaf(Predicate(AttributeId(9), Op::Eq, Value(std::int64_t{1}))));
  const Subscription bad(SubscriptionId(10), Node::and_(std::move(leaves)));
  EXPECT_THROW(m.add(bad), std::out_of_range);
  EXPECT_FALSE(m.contains(SubscriptionId(10)));
  EXPECT_EQ(m.subscription_count(), 0u);
  EXPECT_EQ(m.predicate_count(), 0u);
  EXPECT_EQ(m.conjunction_count(), 0u);
  EXPECT_EQ(m.association_count(), 0u);
  // The id stays free for a tree inside the schema.
  const Subscription good(SubscriptionId(10),
                          Node::leaf(Predicate(dom_.attr(0), Op::Eq, Value(std::int64_t{1}))));
  EXPECT_TRUE(m.add(good));
  Event event;
  event.set(dom_.attr(0), Value(std::int64_t{1}));
  std::vector<SubscriptionId> out;
  m.match(event, out);
  EXPECT_EQ(out, std::vector<SubscriptionId>{SubscriptionId(10)});
}

}  // namespace
}  // namespace dbsp
