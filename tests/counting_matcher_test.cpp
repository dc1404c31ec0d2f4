#include "filter/counting_matcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <random>

#include "core/candidates.hpp"
#include "subscription/parser.hpp"
#include "test_util.hpp"

namespace dbsp {
namespace {

class CountingMatcherTest : public ::testing::Test {
 protected:
  CountingMatcherTest() {
    schema_.add_attribute("price", ValueType::Double);
    schema_.add_attribute("category", ValueType::String);
    schema_.add_attribute("year", ValueType::Int);
  }

  [[nodiscard]] std::unique_ptr<Subscription> sub(std::uint32_t id,
                                                  std::string_view text) const {
    return std::make_unique<Subscription>(SubscriptionId(id),
                                          parse_subscription(text, schema_));
  }

  [[nodiscard]] std::vector<SubscriptionId> match(CountingMatcher& m,
                                                  const Event& e) const {
    std::vector<SubscriptionId> out;
    m.match(e, out);
    std::sort(out.begin(), out.end());
    return out;
  }

  Schema schema_;
};

TEST_F(CountingMatcherTest, MatchesConjunction) {
  CountingMatcher m(schema_);
  auto s = sub(1, "category = 'art' and price < 10");
  m.add(*s);
  const Event hit = EventBuilder(schema_).with("category", "art").with("price", 5.0).build();
  const Event miss = EventBuilder(schema_).with("category", "art").with("price", 15.0).build();
  EXPECT_EQ(match(m, hit), std::vector<SubscriptionId>{SubscriptionId(1)});
  EXPECT_TRUE(match(m, miss).empty());
}

TEST_F(CountingMatcherTest, SharedPredicateEvaluatedOnceAndCountedPerSub) {
  CountingMatcher m(schema_);
  auto s1 = sub(1, "price < 10 and category = 'art'");
  auto s2 = sub(2, "price < 10 and year > 1990");
  m.add(*s1);
  m.add(*s2);
  EXPECT_EQ(m.live_predicates(), 3u);    // price<10 deduplicated
  EXPECT_EQ(m.association_count(), 4u);  // 2 per subscription

  const Event e = EventBuilder(schema_)
                      .with("price", 5.0)
                      .with("category", "art")
                      .with("year", 2000)
                      .build();
  const auto hits = match(m, e);
  EXPECT_EQ(hits, (std::vector<SubscriptionId>{SubscriptionId(1), SubscriptionId(2)}));
}

TEST_F(CountingMatcherTest, ExternalContextsGrowWithTheIndexAndStayApart) {
  CountingMatcher m(schema_);
  auto s1 = sub(1, "price < 10 and category = 'art'");
  m.add(*s1);
  const Event e = EventBuilder(schema_)
                      .with("price", 5.0)
                      .with("category", "art")
                      .with("year", 2000)
                      .build();
  MatchContext a;
  MatchContext b;
  std::vector<SubscriptionId> out;
  m.match(e, out, a);
  EXPECT_EQ(out, std::vector<SubscriptionId>{SubscriptionId(1)});

  // Slots and predicates added after a context last ran: it grows to them.
  auto s2 = sub(2, "year > 1990 and price < 10 and category != 'toys'");
  auto s3 = sub(3, "year < 1990");
  m.add(*s2);
  m.add(*s3);
  out.clear();
  m.match(e, out, a);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<SubscriptionId>{SubscriptionId(1), SubscriptionId(2)}));
  out.clear();
  m.match(e, out, b);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<SubscriptionId>{SubscriptionId(1), SubscriptionId(2)}));

  // Each context counts its own matches; the matcher's own saw none.
  EXPECT_EQ(a.counters().events, 2u);
  EXPECT_EQ(a.counters().matches, 3u);
  EXPECT_EQ(b.counters().events, 1u);
  EXPECT_EQ(m.counters().events, 0u);
}

TEST_F(CountingMatcherTest, PminTriggerSkipsHopelessSubscriptions) {
  CountingMatcher m(schema_);
  auto s = sub(1, "category = 'art' and price < 10 and year > 1990");  // pmin = 3
  m.add(*s);
  m.reset_counters();
  // Only one predicate can be fulfilled -> no tree evaluation at all.
  const Event e = EventBuilder(schema_).with("category", "art").build();
  EXPECT_TRUE(match(m, e).empty());
  EXPECT_EQ(m.counters().tree_evaluations, 0u);
  EXPECT_EQ(m.counters().counter_increments, 1u);
}

TEST_F(CountingMatcherTest, OrLowersPmin) {
  CountingMatcher m(schema_);
  auto s = sub(1, "category = 'art' or (price < 10 and year > 1990)");  // pmin = 1
  m.add(*s);
  const Event e = EventBuilder(schema_).with("category", "art").build();
  EXPECT_EQ(match(m, e), std::vector<SubscriptionId>{SubscriptionId(1)});
}

TEST_F(CountingMatcherTest, NotSubscriptionsAreAlwaysEvaluated) {
  CountingMatcher m(schema_);
  auto s = sub(1, "not category = 'art'");  // pmin = 0
  m.add(*s);
  m.reset_counters();
  const Event other = EventBuilder(schema_).with("category", "music").build();
  EXPECT_EQ(match(m, other), std::vector<SubscriptionId>{SubscriptionId(1)});
  const Event art = EventBuilder(schema_).with("category", "art").build();
  EXPECT_TRUE(match(m, art).empty());
  EXPECT_EQ(m.counters().tree_evaluations, 2u);  // evaluated on every event
}

TEST_F(CountingMatcherTest, RemoveReleasesEverything) {
  CountingMatcher m(schema_);
  auto s1 = sub(1, "price < 10 and category = 'art'");
  auto s2 = sub(2, "price < 10");
  m.add(*s1);
  m.add(*s2);
  m.remove(*s1);
  EXPECT_EQ(m.subscription_count(), 1u);
  EXPECT_EQ(m.live_predicates(), 1u);
  EXPECT_EQ(m.association_count(), 1u);
  const Event e = EventBuilder(schema_).with("price", 5.0).with("category", "art").build();
  EXPECT_EQ(match(m, e), std::vector<SubscriptionId>{SubscriptionId(2)});
  EXPECT_FALSE(m.contains(SubscriptionId(1)));
}

TEST_F(CountingMatcherTest, ReindexAfterPruningKeepsMatcherConsistent) {
  CountingMatcher m(schema_);
  auto s = sub(1, "category = 'art' and price < 10");
  m.add(*s);
  EXPECT_EQ(m.associations_of(SubscriptionId(1)), 2u);

  // Prune the category conjunct (path {0}).
  apply_pruning(*s, {0});
  m.reindex(*s);
  EXPECT_EQ(m.associations_of(SubscriptionId(1)), 1u);
  EXPECT_EQ(m.live_predicates(), 1u);

  // Now generalized: matches regardless of category.
  const Event e = EventBuilder(schema_).with("category", "music").with("price", 5.0).build();
  EXPECT_EQ(match(m, e), std::vector<SubscriptionId>{SubscriptionId(1)});
}

TEST_F(CountingMatcherTest, DuplicateAddAndUnknownQueriesThrow) {
  CountingMatcher m(schema_);
  auto s = sub(1, "price < 10");
  m.add(*s);
  EXPECT_THROW(m.add(*s), std::invalid_argument);
  EXPECT_THROW((void)m.associations_of(SubscriptionId(9)), std::out_of_range);
}

TEST_F(CountingMatcherTest, DuplicateLeafPredicateSharesOneAssociation) {
  CountingMatcher m(schema_);
  // price < 10 appears in two leaves of one subscription; it is interned
  // once (a single pred/sub association) but both leaves resolve to it.
  auto s = sub(1, "price < 10 or (price < 10 and year > 1990)");
  m.add(*s);
  EXPECT_EQ(m.associations_of(SubscriptionId(1)), 2u);  // price<10, year>1990
  const Event e = EventBuilder(schema_).with("price", 5.0).build();
  EXPECT_EQ(match(m, e), std::vector<SubscriptionId>{SubscriptionId(1)});
}

TEST_F(CountingMatcherTest, DuplicatedPredicateAdvancesCounterPerLeaf) {
  CountingMatcher m(schema_);
  // Regression: pmin counts fulfilled *leaf occurrences*. year > 1990 sits
  // in two leaves (inside the or-group and as a conjunct); pmin = 3, but
  // only two distinct predicates can fire. The counter must advance by the
  // leaf refcount or this match is missed.
  auto s = sub(1, "(category = 'art' or year > 1990) and year > 1990 and price < 10");
  m.add(*s);
  EXPECT_EQ(s->root().pmin(), 3u);
  const Event e = EventBuilder(schema_).with("year", 2000).with("price", 5.0).build();
  EXPECT_EQ(match(m, e), std::vector<SubscriptionId>{SubscriptionId(1)});

  // And after pruning the or-group, the leaf refcount drops back to 1.
  apply_pruning(*s, {0});
  m.reindex(*s);
  EXPECT_EQ(match(m, e), std::vector<SubscriptionId>{SubscriptionId(1)});
  const Event miss = EventBuilder(schema_).with("year", 1980).with("price", 5.0).build();
  EXPECT_TRUE(match(m, miss).empty());
}

TEST_F(CountingMatcherTest, ReindexToASingleLeafAndBackThenRemoveReleasesEverything) {
  CountingMatcher m(schema_);
  // Five leaves over three distinct predicates: price < 10 and
  // year > 1990 each sit in two leaves, under Or, Not and And nesting.
  constexpr std::string_view kNested =
      "(price < 10 or not (category = 'art' and (year > 1990 or price < 10))) "
      "and year > 1990";
  auto s = sub(1, kNested);
  ASSERT_EQ(s->root().leaf_count(), 5u);
  m.add(*s);
  EXPECT_EQ(m.associations_of(SubscriptionId(1)), 3u);
  EXPECT_EQ(m.live_predicates(), 3u);
  EXPECT_EQ(m.association_count(), 3u);

  std::vector<Event> events;
  for (const double price : {5.0, 15.0}) {
    for (const char* category : {"art", "music"}) {
      for (const int year : {1980, 2000}) {
        events.push_back(EventBuilder(schema_)
                             .with("price", price)
                             .with("category", category)
                             .with("year", year)
                             .build());
      }
    }
  }
  const auto agrees_with_tree = [&] {
    for (const auto& e : events) {
      const auto got = match(m, e);
      EXPECT_EQ(!got.empty(), s->matches(e)) << s->to_string(schema_);
    }
  };
  agrees_with_tree();

  s->replace_root(parse_subscription("price < 20", schema_));
  m.reindex(*s);
  EXPECT_EQ(m.associations_of(SubscriptionId(1)), 1u);
  EXPECT_EQ(m.live_predicates(), 1u);
  EXPECT_EQ(m.association_count(), 1u);
  agrees_with_tree();

  s->replace_root(parse_subscription(kNested, schema_));
  m.reindex(*s);
  EXPECT_EQ(m.associations_of(SubscriptionId(1)), 3u);
  EXPECT_EQ(m.live_predicates(), 3u);
  EXPECT_EQ(m.association_count(), 3u);
  agrees_with_tree();

  m.remove(*s);
  EXPECT_EQ(m.subscription_count(), 0u);
  EXPECT_EQ(m.live_predicates(), 0u);
  EXPECT_EQ(m.association_count(), 0u);
  for (const auto& e : events) EXPECT_TRUE(match(m, e).empty());
}

TEST_F(CountingMatcherTest, NaNThresholdsMatchLikeTheTreeAndRemoveCleanly) {
  const auto price = schema_.at("price");
  const auto year = schema_.at("year");
  const double nan = std::nan("");
  const auto leaf = [](Predicate p) { return Node::leaf(std::move(p)); };
  const auto two = [](std::unique_ptr<Node> a, std::unique_ptr<Node> b) {
    std::vector<std::unique_ptr<Node>> children;
    children.push_back(std::move(a));
    children.push_back(std::move(b));
    return children;
  };
  std::vector<std::unique_ptr<Subscription>> subs;
  subs.push_back(std::make_unique<Subscription>(
      SubscriptionId(1), leaf(Predicate(price, Op::Lt, Value(nan)))));
  subs.push_back(std::make_unique<Subscription>(
      SubscriptionId(2), Node::or_(two(leaf(Predicate(price, Op::Ge, Value(nan))),
                                       leaf(Predicate(price, Op::Lt, Value(5.0)))))));
  subs.push_back(std::make_unique<Subscription>(
      SubscriptionId(3), leaf(Predicate(price, Value(nan), Value(1.0)))));
  subs.push_back(std::make_unique<Subscription>(
      SubscriptionId(4),
      Node::and_(two(Node::not_(leaf(Predicate(price, Op::Eq, Value(nan)))),
                     leaf(Predicate(year, Op::Gt, Value(1990)))))));
  subs.push_back(std::make_unique<Subscription>(
      SubscriptionId(5), leaf(Predicate(price, Op::Lt, Value(nan)))));  // a second x < NaN
  subs.push_back(std::make_unique<Subscription>(
      SubscriptionId(6), leaf(Predicate(price, Op::Le, Value(5.0)))));

  CountingMatcher m(schema_);
  for (auto& s : subs) m.add(*s);
  std::vector<Event> events;
  for (const double p : {-1.0, 0.5, 1.0, 3.0, 5.0, 7.0}) {
    for (const int y : {1980, 2000}) {
      events.push_back(EventBuilder(schema_).with("price", p).with("year", y).build());
    }
  }
  const auto agrees_with_trees = [&] {
    for (const auto& e : events) {
      std::vector<SubscriptionId> expected;
      for (const auto& s : subs) {
        if (m.contains(s->id()) && s->matches(e)) expected.push_back(s->id());
      }
      EXPECT_EQ(match(m, e), expected);
    }
  };
  agrees_with_trees();

  // Every removal finds its predicates again, whatever the order.
  for (const std::size_t i : {0u, 3u, 5u, 1u, 4u, 2u}) {
    m.remove(*subs[i]);
    agrees_with_trees();
  }
  EXPECT_EQ(m.subscription_count(), 0u);
  EXPECT_EQ(m.live_predicates(), 0u);
  EXPECT_EQ(m.association_count(), 0u);
}

TEST_F(CountingMatcherTest, IntAndDoubleOperandsPastTwoToThe53StayApart) {
  // 2^53 + 1 rounds to the double 2^53 but differs from it, so each pair
  // below is two predicates, and each matches exactly like its tree.
  const auto year = schema_.at("year");
  const Value odd(std::int64_t{9007199254740993});
  const Value even(9007199254740992.0);
  // Arrays, not braced lists: GCC 12 misreads the destruction of an
  // initializer_list's Value copies as freeing a non-heap object.
  const std::array<Value, 2> operands{odd, even};
  std::vector<std::unique_ptr<Subscription>> subs;
  std::uint32_t id = 0;
  for (const Op op : {Op::Ne, Op::Eq, Op::Lt, Op::Le, Op::Gt, Op::Ge}) {
    for (const Value& operand : operands) {
      subs.push_back(std::make_unique<Subscription>(
          SubscriptionId(++id), Node::leaf(Predicate(year, op, operand))));
    }
  }
  subs.push_back(std::make_unique<Subscription>(
      SubscriptionId(++id), Node::leaf(Predicate(year, even, odd))));
  CountingMatcher m(schema_);
  for (auto& s : subs) m.add(*s);
  EXPECT_EQ(m.live_predicates(), subs.size());

  const std::array<Value, 7> values{Value(std::int64_t{9007199254740991}),
                                    Value(std::int64_t{9007199254740992}),
                                    odd,
                                    Value(std::int64_t{9007199254740994}),
                                    Value(std::int64_t{9007199254740995}),
                                    even,
                                    Value(9007199254740994.0)};
  std::vector<Event> events;
  for (const Value& v : values) {
    Event e;
    e.set(year, v);
    events.push_back(std::move(e));
  }
  for (const auto& e : events) {
    std::vector<SubscriptionId> expected;
    for (const auto& s : subs) {
      if (s->matches(e)) expected.push_back(s->id());
    }
    EXPECT_EQ(match(m, e), expected) << e.find(year)->to_string();
  }
  // year != 2^53 + 1 and year != 2^53: the event 2^53 + 1 matches only the
  // second, the event 2^53 only the first.
  Event at_odd;
  at_odd.set(year, odd);
  Event at_even;
  at_even.set(year, even);
  const auto ne = [&](const Event& e) {
    std::vector<SubscriptionId> out;
    for (const SubscriptionId s : match(m, e)) {
      if (s.value() <= 2) out.push_back(s);
    }
    return out;
  };
  EXPECT_EQ(ne(at_odd), std::vector<SubscriptionId>{SubscriptionId(2)});
  EXPECT_EQ(ne(at_even), std::vector<SubscriptionId>{SubscriptionId(1)});

  for (const auto& s : subs) m.remove(*s);
  EXPECT_EQ(m.live_predicates(), 0u);
}

TEST_F(CountingMatcherTest, TreeOutsideTheSchemaIsRejectedBeforeAnythingChanges) {
  const auto price = schema_.at("price");
  const AttributeId outside(7);
  const auto outside_tree = [&] {
    std::vector<std::unique_ptr<Node>> children;
    children.push_back(Node::leaf(Predicate(price, Op::Lt, Value(10.0))));
    children.push_back(Node::leaf(Predicate(outside, Op::Eq, Value(1))));
    return Node::and_(std::move(children));
  };
  const Event e = EventBuilder(schema_).with("price", 5.0).build();
  CountingMatcher m(schema_);

  Subscription rejected(SubscriptionId(1), outside_tree());
  EXPECT_THROW(m.add(rejected), std::out_of_range);
  EXPECT_FALSE(m.contains(SubscriptionId(1)));
  EXPECT_EQ(m.subscription_count(), 0u);
  EXPECT_EQ(m.live_predicates(), 0u);
  EXPECT_EQ(m.association_count(), 0u);
  m.set_pmin_trigger(false);  // evaluates every registered slot
  EXPECT_TRUE(match(m, e).empty());

  // A failed reindex keeps the tree compiled before it.
  auto s = sub(2, "price < 10");
  m.add(*s);
  s->replace_root(outside_tree());
  EXPECT_THROW(m.reindex(*s), std::out_of_range);
  EXPECT_EQ(m.live_predicates(), 1u);
  EXPECT_EQ(m.association_count(), 1u);
  EXPECT_EQ(m.associations_of(SubscriptionId(2)), 1u);
  for (const bool trigger : {false, true}) {
    m.set_pmin_trigger(trigger);
    EXPECT_EQ(match(m, e), std::vector<SubscriptionId>{SubscriptionId(2)});
  }
  m.remove(*s);
  EXPECT_EQ(m.live_predicates(), 0u);
  EXPECT_EQ(m.association_count(), 0u);
}

TEST_F(CountingMatcherTest, CountersAccumulateAndReset) {
  CountingMatcher m(schema_);
  auto s = sub(1, "price < 10");
  m.add(*s);
  const Event e = EventBuilder(schema_).with("price", 5.0).build();
  std::vector<SubscriptionId> out;
  m.match(e, out);
  m.match(e, out);
  EXPECT_EQ(m.counters().events, 2u);
  EXPECT_EQ(m.counters().matches, 2u);
  m.reset_counters();
  EXPECT_EQ(m.counters().events, 0u);
}

TEST_F(CountingMatcherTest, SlotRecyclingAfterRemoveAdd) {
  CountingMatcher m(schema_);
  auto s1 = sub(1, "price < 10");
  m.add(*s1);
  m.remove(*s1);
  auto s2 = sub(2, "year > 1990");
  m.add(*s2);
  const Event e = EventBuilder(schema_).with("price", 5.0).with("year", 2000).build();
  EXPECT_EQ(match(m, e), std::vector<SubscriptionId>{SubscriptionId(2)});
}

// --- Access leaves ---------------------------------------------------------

/// The groups of `root` when every leaf is an access leaf: in each And
/// with no Not above it, the first Eq leaf with a non-NaN operand on each
/// attribute, when they sit on two or more attributes. Appends the member
/// leaves to `members` and each group's key (its member predicates by
/// attribute) to `keys`.
void groups_of(const Node& node, std::vector<const Node*>& members,
               std::vector<std::vector<Predicate>>& keys) {
  if (node.kind() != NodeKind::And && node.kind() != NodeKind::Or) return;
  std::vector<const Node*> group;
  for (const auto& child : node.children()) {
    if (child->kind() != NodeKind::Leaf) {
      groups_of(*child, members, keys);
      continue;
    }
    const Predicate& p = child->predicate();
    const Value& operand = p.operands().front();
    if (node.kind() != NodeKind::And || p.op() != Op::Eq ||
        (operand.type() == ValueType::Double && std::isnan(operand.as_double()))) {
      continue;
    }
    const auto same_attr = [&](const Node* m) {
      return m->predicate().attribute() == p.attribute();
    };
    if (std::none_of(group.begin(), group.end(), same_attr)) group.push_back(child.get());
  }
  if (group.size() < 2) return;
  std::sort(group.begin(), group.end(), [](const Node* a, const Node* b) {
    return a->predicate().attribute() < b->predicate().attribute();
  });
  std::vector<Predicate> key;
  for (const Node* m : group) key.push_back(m->predicate());
  members.insert(members.end(), group.begin(), group.end());
  keys.push_back(std::move(key));
}

/// Counter bumps of counting every leaf of `root` on `e`: one per distinct
/// predicate outside the groups that holds, and one per distinct key whose
/// members all hold.
std::uint64_t every_leaf_bumps(const Node& root, const Event& e) {
  std::vector<const Node*> members;
  std::vector<std::vector<Predicate>> keys;
  groups_of(root, members, keys);
  std::uint64_t bumps = 0;
  std::vector<Predicate> seen;
  root.for_each_leaf([&](const Node& leaf) {
    if (std::find(members.begin(), members.end(), &leaf) != members.end()) return;
    if (std::find(seen.begin(), seen.end(), leaf.predicate()) != seen.end()) return;
    seen.push_back(leaf.predicate());
    if (leaf.predicate().matches(e)) ++bumps;
  });
  std::vector<std::vector<Predicate>> distinct;
  for (const auto& key : keys) {
    if (std::find(distinct.begin(), distinct.end(), key) != distinct.end()) continue;
    distinct.push_back(key);
    const auto holds = [&](const Predicate& p) { return p.matches(e); };
    if (std::all_of(key.begin(), key.end(), holds)) ++bumps;
  }
  return bumps;
}

TEST_F(CountingMatcherTest, WithoutAnOracleOrWithAZeroOneEveryLeafIsCounted) {
  // Counting every leaf bumps, per event, one counter per (subscription,
  // distinct predicate) pair whose predicate holds — the paper's count —
  // except that each group of Eq leaves bumps once, when all of them hold.
  // Binding an all-zero oracle, or binding and unbinding one, keeps it.
  test::MiniDomain dom(4, 10);
  std::mt19937_64 rng(31);
  test::Corpus corpus = test::make_corpus(dom, rng, 120, /*not_prob=*/0.25);
  CountingMatcher unbound(dom.schema());
  CountingMatcher zero(dom.schema());
  CountingMatcher rebound(dom.schema());
  zero.set_leaf_estimate([](const Predicate&) { return 0.0; });
  rebound.set_leaf_estimate([](const Predicate& p) { return p.op() == Op::Eq ? 0.1 : 0.9; });
  for (auto& s : corpus.subs) {
    unbound.add(*s);
    zero.add(*s);
    rebound.add(*s);
  }
  rebound.set_leaf_estimate({});

  std::uint64_t expected = 0;
  for (const auto& e : dom.random_events(rng, 200)) {
    for (const auto& s : corpus.subs) expected += every_leaf_bumps(s->root(), e);
    const auto got = match(unbound, e);
    EXPECT_EQ(match(zero, e), got);
    EXPECT_EQ(match(rebound, e), got);
  }
  EXPECT_EQ(unbound.counters().counter_increments, expected);
  EXPECT_EQ(zero.counters().counter_increments, expected);
  EXPECT_EQ(rebound.counters().counter_increments, expected);
  EXPECT_EQ(zero.counters().tree_evaluations, unbound.counters().tree_evaluations);
}

TEST_F(CountingMatcherTest, AndOfARareEqAndABroadLtCountsOnlyTheEq) {
  CountingMatcher m(schema_);
  m.set_leaf_estimate([](const Predicate& p) { return p.op() == Op::Eq ? 0.01 : 0.9; });
  auto s = sub(1, "category = 'art' and price < 10");
  m.add(*s);
  EXPECT_EQ(m.associations_of(SubscriptionId(1)), 2u);  // both stay associated
  EXPECT_EQ(m.live_predicates(), 2u);
  EXPECT_EQ(m.audit(), "");  // and only the Eq is indexed

  // The broad Lt is no access leaf, so no index yields it: no hit.
  const Event cheap = EventBuilder(schema_).with("category", "music").with("price", 5.0).build();
  EXPECT_TRUE(match(m, cheap).empty());
  EXPECT_EQ(m.counters().predicate_hits, 0u);
  EXPECT_EQ(m.counters().counter_increments, 0u);
  EXPECT_EQ(m.counters().tree_evaluations, 0u);
  EXPECT_EQ(m.counters().leaf_tests, 0u);

  // When the Eq triggers, the Lt is tested in place against the price.
  m.reset_counters();
  const Event art = EventBuilder(schema_).with("category", "art").with("price", 5.0).build();
  EXPECT_EQ(match(m, art), std::vector<SubscriptionId>{SubscriptionId(1)});
  const Event dear = EventBuilder(schema_).with("category", "art").with("price", 50.0).build();
  EXPECT_TRUE(match(m, dear).empty());
  EXPECT_EQ(m.counters().predicate_hits, 2u);      // the Eq, once per event
  EXPECT_EQ(m.counters().counter_increments, 2u);  // one Eq bump per event
  EXPECT_EQ(m.counters().tree_evaluations, 2u);
  EXPECT_EQ(m.counters().leaf_tests, 2u);          // the Lt, once per evaluation

  // Unbound, both leaves count again: the Lt is indexed, a hit, and alone
  // no longer triggers.
  m.set_leaf_estimate({});
  EXPECT_EQ(m.audit(), "");
  m.reset_counters();
  EXPECT_TRUE(match(m, cheap).empty());
  EXPECT_EQ(m.counters().predicate_hits, 1u);
  EXPECT_EQ(m.counters().counter_increments, 1u);
  EXPECT_EQ(m.counters().tree_evaluations, 0u);
  EXPECT_EQ(m.counters().leaf_tests, 0u);
}

/// `leaf` in an And behind a category = 'art' anchor; under
/// rare_category() the anchor is the And's only access leaf.
std::unique_ptr<Node> behind_anchor(const Schema& schema, std::unique_ptr<Node> leaf) {
  std::vector<std::unique_ptr<Node>> children;
  children.push_back(Node::leaf(Predicate(schema.at("category"), Op::Eq, Value("art"))));
  children.push_back(std::move(leaf));
  return Node::and_(std::move(children));
}

/// Category predicates (attribute 1 of the fixture schema) rare, all
/// others broad.
double rare_category(const Predicate& p) { return p.attribute().value() == 1 ? 0.01 : 0.9; }

/// Numeric predicates on `attr` over the operands and operators that
/// testing in place must get right: Int and Double past 2^53, 0 and -0.0,
/// NaN, Between with low > high, and the operators that stay indexed.
std::vector<Predicate> numeric_predicates(AttributeId attr) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Value> operands;
  operands.emplace_back(std::int64_t{0});
  operands.emplace_back(-0.0);
  operands.emplace_back(1.5);
  operands.emplace_back(std::int64_t{5});
  operands.emplace_back(9007199254740992.0);              // 2^53
  operands.emplace_back(std::int64_t{9007199254740993});  // 2^53 + 1, no double
  operands.emplace_back(nan);
  std::vector<Predicate> preds;
  for (const Value& v : operands) {
    for (const Op op : {Op::Eq, Op::Ne, Op::Lt, Op::Le, Op::Gt, Op::Ge}) {
      preds.emplace_back(attr, op, v);
    }
  }
  preds.emplace_back(attr, Value(5.0), Value(1.0));  // low > high
  preds.emplace_back(attr, Value(-0.0), Value(std::int64_t{0}));
  preds.emplace_back(attr, Value(std::int64_t{1}), Value(5.0));
  preds.emplace_back(attr, Value(9007199254740992.0), Value(std::int64_t{9007199254740993}));
  preds.emplace_back(attr, Value(nan), Value(5.0));
  std::vector<Value> members;
  members.emplace_back(std::int64_t{0});
  members.emplace_back(std::int64_t{9007199254740993});
  preds.emplace_back(attr, std::move(members));
  return preds;
}

/// Values for one attribute: NaN of both signs, ±0, the neighbours of
/// 2^53 as Int and Double, infinities, a string and bools.
std::vector<Value> event_values() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Value> values;
  for (const double d : {nan, -nan, -0.0, 0.0, 1.0, 1.5, 3.0, 5.0, 9007199254740992.0,
                         9007199254740994.0, inf, -inf}) {
    values.emplace_back(d);
  }
  for (const std::int64_t i : {std::int64_t{0}, std::int64_t{5}, std::int64_t{9007199254740992},
                               std::int64_t{9007199254740993}, std::int64_t{9007199254740994},
                               std::numeric_limits<std::int64_t>::min()}) {
    values.emplace_back(i);
  }
  values.emplace_back("cheap");
  values.emplace_back(true);
  values.emplace_back(false);
  return values;
}

TEST_F(CountingMatcherTest, LeavesTestedInPlaceAgreeWithTheTrees) {
  // Each numeric predicate behind a rare anchor, negated behind it, and
  // negated alone: under rare_category() every numeric leaf is tested in
  // place (the Not alone triggers always and counts nothing).
  std::vector<std::unique_ptr<Subscription>> subs;
  const auto add_sub = [&](std::unique_ptr<Node> tree) {
    subs.push_back(std::make_unique<Subscription>(
        SubscriptionId(static_cast<std::uint32_t>(subs.size())), std::move(tree)));
  };
  // Counting every leaf, an Eq behind the anchor is a key member with it,
  // tested in place when its operand is exact: once per delivery.
  std::vector<bool> keyed;
  for (const char* attr : {"price", "year"}) {
    for (const Predicate& p : numeric_predicates(schema_.at(attr))) {
      const Value& v = p.operands().front();
      keyed.resize(subs.size());
      keyed.push_back(p.op() == Op::Eq && v.is_numeric() && v.numeric_is_exact() &&
                      !std::isnan(v.numeric()));
      add_sub(behind_anchor(schema_, Node::leaf(p)));
      add_sub(behind_anchor(schema_, Node::not_(Node::leaf(p))));
      add_sub(Node::not_(Node::leaf(p)));
    }
  }
  CountingMatcher unbound(schema_);
  CountingMatcher skewed(schema_);
  skewed.set_leaf_estimate(rare_category);
  for (auto& s : subs) {
    unbound.add(*s);
    skewed.add(*s);
  }
  ASSERT_EQ(skewed.audit(), "");

  // Each value, and past the last one a missing attribute.
  const std::vector<Value> values = event_values();
  std::uint64_t keyed_deliveries = 0;  // per pass of agrees()
  const auto agrees = [&](CountingMatcher& m) {
    keyed_deliveries = 0;
    for (std::size_t i = 0; i <= values.size(); ++i) {
      for (std::size_t j = 0; j <= values.size(); ++j) {
        const Value* price = i < values.size() ? &values[i] : nullptr;
        const Value* year = j < values.size() ? &values[j] : nullptr;
        Event e;
        e.set(schema_.at("category"), Value("art"));
        if (price != nullptr) e.set(schema_.at("price"), *price);
        if (year != nullptr) e.set(schema_.at("year"), *year);
        std::vector<SubscriptionId> expected;
        for (std::size_t k = 0; k < subs.size(); ++k) {
          if (!subs[k]->matches(e)) continue;
          expected.push_back(subs[k]->id());
          keyed_deliveries += k < keyed.size() && keyed[k];
        }
        ASSERT_EQ(match(m, e), expected)
            << "price " << (price != nullptr ? price->to_string() : "missing") << ", year "
            << (year != nullptr ? year->to_string() : "missing");
      }
    }
  };
  agrees(unbound);
  EXPECT_GT(keyed_deliveries, 0u);
  EXPECT_EQ(unbound.counters().leaf_tests, keyed_deliveries);
  agrees(skewed);
  EXPECT_GT(skewed.counters().leaf_tests, 0u);
  EXPECT_LT(skewed.counters().predicate_hits, unbound.counters().predicate_hits);

  // Unbinding counts every leaf again and puts every predicate back in the
  // index; rebinding takes the broad ones out again.
  skewed.set_leaf_estimate({});
  ASSERT_EQ(skewed.audit(), "");
  skewed.reset_counters();
  agrees(skewed);
  EXPECT_EQ(skewed.counters().leaf_tests, keyed_deliveries);
  skewed.set_leaf_estimate(rare_category);
  ASSERT_EQ(skewed.audit(), "");
  for (auto& s : subs) {
    skewed.remove(*s);
    ASSERT_EQ(skewed.audit(), "");
  }
  EXPECT_EQ(skewed.live_predicates(), 0u);
}

// And(category = 'art', Or(Not(price < 10), False, And(True, year >= 2000)),
// Not(False)), unsimplified. Once a rare category is bound only its leaf is
// counted and the price and year leaves are tested in place, so how many
// of them an event tests pins the branch program's short-circuit order.
TEST_F(CountingMatcherTest, BranchProgramShortCircuitsLikeTheTree) {
  const auto leaf = [&](const char* attr, Op op, Value v) {
    return Node::leaf(Predicate(schema_.at(attr), op, std::move(v)));
  };
  std::vector<std::unique_ptr<Node>> both;
  both.push_back(Node::constant(true));
  both.push_back(leaf("year", Op::Ge, Value(2000)));
  std::vector<std::unique_ptr<Node>> any;
  any.push_back(Node::not_(leaf("price", Op::Lt, Value(10.0))));
  any.push_back(Node::constant(false));
  any.push_back(Node::and_(std::move(both)));
  std::vector<std::unique_ptr<Node>> all;
  all.push_back(leaf("category", Op::Eq, Value("art")));
  all.push_back(Node::or_(std::move(any)));
  all.push_back(Node::not_(Node::constant(false)));
  Subscription s(SubscriptionId(1), Node::and_(std::move(all)));

  struct Case {
    const char* category;
    double price;
    int year;
    bool delivered;
    std::uint64_t leaf_tests;  // once the estimates are bound
  };
  const Case cases[] = {
      {"art", 5.0, 2010, true, 2},     // the Not fails, then False, then year holds
      {"art", 5.0, 1990, false, 2},    // ... and year fails: the Or fails
      {"art", 20.0, 1990, true, 1},    // the Not holds: the Or holds before year
      {"music", 20.0, 2010, false, 0}, // the category fails: no candidate
  };
  CountingMatcher m(schema_);
  m.add(s);
  for (const bool bound : {false, true}) {
    if (bound) {
      // rechoose_access_sets() rebuilds the branch program.
      m.set_leaf_estimate([](const Predicate& p) { return p.op() == Op::Eq ? 0.01 : 0.9; });
    }
    ASSERT_EQ(m.audit(), "");
    for (const Case& c : cases) {
      const Event e = EventBuilder(schema_)
                          .with("category", c.category)
                          .with("price", c.price)
                          .with("year", c.year)
                          .build();
      ASSERT_EQ(s.matches(e), c.delivered);
      m.reset_counters();
      EXPECT_EQ(match(m, e).size(), c.delivered ? 1u : 0u)
          << c.category << " " << c.price << " " << c.year << (bound ? " bound" : "");
      EXPECT_EQ(m.counters().leaf_tests, bound ? c.leaf_tests : 0u)
          << c.category << " " << c.price << " " << c.year;
    }
  }
}

// An And of 70,000 distinct leaves has pmin 70,000, wider than an
// association entry holds: each counter reads the slot's pmin, so only an
// event that fulfils every leaf makes the tree a candidate.
TEST_F(CountingMatcherTest, PminWiderThanAnEntryIsReadFromTheSlot) {
  std::vector<std::unique_ptr<Node>> leaves;
  for (int k = 1; k <= 70000; ++k) {
    leaves.push_back(Node::leaf(Predicate(schema_.at("price"), Op::Lt, Value(static_cast<double>(k)))));
  }
  Subscription s(SubscriptionId(1), Node::and_(std::move(leaves)));
  CountingMatcher m(schema_);
  m.add(s);
  ASSERT_EQ(m.audit(), "");
  const auto at = [&](double price) { return EventBuilder(schema_).with("price", price).build(); };
  EXPECT_EQ(match(m, at(0.0)), std::vector<SubscriptionId>{SubscriptionId(1)});
  EXPECT_EQ(m.counters().tree_evaluations, 1u);
  // 10,000 leaves hold: more than 70,000 mod 2^16, fewer than pmin.
  EXPECT_TRUE(match(m, at(60000.0)).empty());
  EXPECT_EQ(m.counters().tree_evaluations, 1u);
  m.remove(s);
  EXPECT_EQ(m.audit(), "");
  EXPECT_EQ(m.live_predicates(), 0u);
}

// Untrained, an unsimplified And(False, leaf) counts its leaf towards an
// unsatisfiable pmin: the leaf bumps the counter, which never reaches it.
TEST_F(CountingMatcherTest, UnsatisfiablePminIsNeverReached) {
  std::vector<std::unique_ptr<Node>> kids;
  kids.push_back(Node::constant(false));
  kids.push_back(Node::leaf(Predicate(schema_.at("category"), Op::Eq, Value("art"))));
  Subscription s(SubscriptionId(1), Node::and_(std::move(kids)));
  CountingMatcher m(schema_);
  m.add(s);
  ASSERT_EQ(m.audit(), "");
  const Event e = EventBuilder(schema_).with("category", "art").build();
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(match(m, e).empty());
  EXPECT_EQ(m.counters().counter_increments, 3u);
  EXPECT_EQ(m.counters().tree_evaluations, 0u);
  m.remove(s);
  EXPECT_EQ(m.audit(), "");
  EXPECT_EQ(m.live_predicates(), 0u);
}

// --- Composite equality keys -----------------------------------------------

/// Matches `e` and checks the deliveries against the trees and the index
/// against its programs.
void expect_exact(CountingMatcher& m, const std::vector<const Subscription*>& subs,
                  const Event& e) {
  std::vector<SubscriptionId> want;
  for (const Subscription* s : subs) {
    if (s->matches(e)) want.push_back(s->id());
  }
  std::vector<SubscriptionId> got;
  m.match(e, got);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  EXPECT_EQ(m.audit(), "");
}

TEST_F(CountingMatcherTest, AnEqConjunctionBumpsOnceWhenEveryMemberHolds) {
  // category and year form one key, counting one toward pmin = 2 with the
  // price leaf.
  CountingMatcher m(schema_);
  auto s = sub(1, "category = 'art' and year = 2000 and price < 10");
  m.add(*s);
  ASSERT_EQ(m.audit(), "");
  EXPECT_EQ(m.associations_of(SubscriptionId(1)), 3u);  // still its distinct predicates

  const auto event = [&](const char* category, int year, double price) {
    return EventBuilder(schema_).with("category", category).with("year", year).with("price", price).build();
  };
  EXPECT_EQ(match(m, event("art", 2000, 5.0)), std::vector<SubscriptionId>{SubscriptionId(1)});
  EXPECT_EQ(m.counters().composite_probes, 1u);
  EXPECT_EQ(m.counters().composite_hits, 1u);
  EXPECT_EQ(m.counters().counter_increments, 2u);  // the key and the price leaf
  EXPECT_EQ(m.counters().tree_evaluations, 1u);
  EXPECT_EQ(m.counters().leaf_tests, 1u);  // year, tested in place; category reads its mark

  // One member fails: the key misses, and the price leaf alone is short.
  m.reset_counters();
  EXPECT_TRUE(match(m, event("art", 1999, 5.0)).empty());
  EXPECT_EQ(m.counters().composite_probes, 1u);
  EXPECT_EQ(m.counters().composite_hits, 0u);
  EXPECT_EQ(m.counters().counter_increments, 1u);
  EXPECT_EQ(m.counters().tree_evaluations, 0u);

  // A second subscription on the same key shares its entry list.
  auto t = sub(2, "year = 2000 and category = 'art'");
  m.add(*t);
  ASSERT_EQ(m.audit(), "");
  m.reset_counters();
  EXPECT_EQ(match(m, event("art", 2000, 50.0)), std::vector<SubscriptionId>{SubscriptionId(2)});
  EXPECT_EQ(m.counters().composite_probes, 1u);
  EXPECT_EQ(m.counters().composite_hits, 1u);
  EXPECT_EQ(m.counters().counter_increments, 2u);  // one per subscription on the key
  m.remove(*s);
  m.remove(*t);
  EXPECT_EQ(m.audit(), "");
  EXPECT_EQ(m.live_predicates(), 0u);
  m.reset_counters();
  (void)match(m, event("art", 2000, 5.0));
  EXPECT_EQ(m.counters().composite_probes, 0u);  // no live signature is left
}

TEST_F(CountingMatcherTest, NestedAndsKeyTheirOwnGroups) {
  // And(And(category = 'art', year = 2000), price = 5, year = 1999),
  // unsimplified: each And groups its own Eq children, so pmin = 2 and an
  // event fulfilling only the inner key is no candidate.
  const auto eq = [&](const char* attr, Value v) {
    return Node::leaf(Predicate(schema_.at(attr), Op::Eq, std::move(v)));
  };
  std::vector<std::unique_ptr<Node>> inner;
  inner.push_back(eq("category", Value("art")));
  inner.push_back(eq("year", Value(2000)));
  std::vector<std::unique_ptr<Node>> outer;
  outer.push_back(Node::and_(std::move(inner)));
  outer.push_back(eq("price", Value(5.0)));
  outer.push_back(eq("year", Value(1999)));
  Subscription s(SubscriptionId(1), Node::and_(std::move(outer)));
  CountingMatcher m(schema_);
  m.add(s);
  ASSERT_EQ(m.audit(), "");
  expect_exact(m, {&s}, EventBuilder(schema_).with("category", "art").with("year", 2000).with("price", 5.0).build());
  EXPECT_EQ(m.counters().composite_probes, 2u);
  EXPECT_EQ(m.counters().composite_hits, 1u);
  EXPECT_EQ(m.counters().tree_evaluations, 0u);
}

TEST_F(CountingMatcherTest, IntAndDoubleKeysAgreePastTwoToThe53) {
  // Each operand as a key member with the category, against each value:
  // an Int and a Double key equal exactly when their numbers are equal.
  std::vector<Value> operands;
  for (const std::int64_t i : {std::int64_t{0}, std::int64_t{5}, std::int64_t{9007199254740992},
                               std::int64_t{9007199254740993}, std::int64_t{9007199254740994}}) {
    operands.emplace_back(i);
    operands.emplace_back(static_cast<double>(i));
  }
  operands.emplace_back(-0.0);
  operands.emplace_back(1.5);
  std::vector<std::unique_ptr<Subscription>> owned;
  std::vector<const Subscription*> subs;
  CountingMatcher m(schema_);
  for (const Value& v : operands) {
    std::vector<std::unique_ptr<Node>> kids;
    kids.push_back(Node::leaf(Predicate(schema_.at("category"), Op::Eq, Value("art"))));
    kids.push_back(Node::leaf(Predicate(schema_.at("year"), Op::Eq, v)));
    owned.push_back(std::make_unique<Subscription>(
        SubscriptionId(static_cast<std::uint32_t>(owned.size())), Node::and_(std::move(kids))));
    subs.push_back(owned.back().get());
    m.add(*owned.back());
  }
  ASSERT_EQ(m.audit(), "");
  std::uint64_t delivered = 0;
  for (const Value& v : event_values()) {
    const Event e = EventBuilder(schema_).with("category", "art").build();
    Event with_year = e;
    with_year.set(schema_.at("year"), v);
    for (const Subscription* s : subs) delivered += s->matches(with_year);
    expect_exact(m, subs, with_year);
  }
  // Every delivery came through one key hit; each key is probed once.
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(m.counters().tree_evaluations, delivered);
  EXPECT_LE(m.counters().composite_hits, m.counters().composite_probes);
}

TEST_F(CountingMatcherTest, NaNAndMissingValuesDoNotProbe) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::unique_ptr<Node>> kids;
  kids.push_back(Node::leaf(Predicate(schema_.at("category"), Op::Eq, Value("art"))));
  kids.push_back(Node::leaf(Predicate(schema_.at("year"), Op::Eq, Value(5))));
  kids.push_back(Node::leaf(Predicate(schema_.at("price"), Op::Eq, Value(nan))));
  Subscription nan_member(SubscriptionId(1), Node::and_(std::move(kids)));
  auto keyed = sub(2, "category = 'art' and price = 2.5");
  CountingMatcher m(schema_);
  m.add(nan_member);  // a NaN operand joins no key: {category, year}
  m.add(*keyed);      // {category, price}
  ASSERT_EQ(m.audit(), "");
  const std::vector<const Subscription*> subs = {&nan_member, keyed.get()};

  expect_exact(m, subs, EventBuilder(schema_).with("category", "art").with("year", 5).with("price", 2.5).build());
  EXPECT_EQ(m.counters().composite_probes, 2u);
  EXPECT_EQ(m.counters().composite_hits, 2u);
  m.reset_counters();
  // A NaN price probes only {category, year}; a missing year only
  // {category, price}; a missing category neither.
  expect_exact(m, subs, EventBuilder(schema_).with("category", "art").with("year", 5).with("price", nan).build());
  EXPECT_EQ(m.counters().composite_probes, 1u);
  EXPECT_EQ(m.counters().composite_hits, 1u);
  m.reset_counters();
  expect_exact(m, subs, EventBuilder(schema_).with("category", "art").with("price", 2.5).build());
  EXPECT_EQ(m.counters().composite_probes, 1u);
  EXPECT_EQ(m.counters().composite_hits, 1u);
  m.reset_counters();
  expect_exact(m, subs, EventBuilder(schema_).with("year", 5).with("price", 2.5).build());
  EXPECT_EQ(m.counters().composite_probes, 0u);
  EXPECT_EQ(m.counters().counter_increments, 0u);
}

TEST_F(CountingMatcherTest, AnAndUnderANotFormsNoKey) {
  // The Not adds nothing to pmin, so its Eq leaves stay counted apart.
  auto negated = sub(1, "not (category = 'art' and year = 2000)");
  auto behind = sub(2, "price < 10 and not (category = 'art' and year = 2000)");
  CountingMatcher m(schema_);
  m.add(*negated);
  m.add(*behind);
  ASSERT_EQ(m.audit(), "");
  const std::vector<const Subscription*> subs = {negated.get(), behind.get()};
  for (const char* category : {"art", "music"}) {
    for (const int year : {2000, 2001}) {
      expect_exact(m, subs, EventBuilder(schema_).with("category", category).with("year", year).with("price", 5.0).build());
    }
  }
  EXPECT_EQ(m.counters().composite_probes, 0u);
}

TEST_F(CountingMatcherTest, DuplicateAndSameAttributeEqLeaves) {
  // A repeated leaf and a second Eq on a member's attribute stay counted
  // apart; a key repeated in one tree counts once per group.
  auto repeated = sub(1, "category = 'art' and category = 'art' and year = 1");
  auto same_attr = sub(2, "year = 1 and year = 2 and category = 'art'");
  auto twice = sub(3, "(category = 'art' and year = 1) or (year = 1 and category = 'art' and price < 3)");
  auto mixed = sub(4, "category = 'art' and (category = 'art' or year = 1) and year = 1");
  CountingMatcher m(schema_);
  for (auto* s : {repeated.get(), same_attr.get(), twice.get(), mixed.get()}) m.add(*s);
  ASSERT_EQ(m.audit(), "");
  EXPECT_EQ(m.associations_of(SubscriptionId(3)), 3u);
  const std::vector<const Subscription*> subs = {repeated.get(), same_attr.get(), twice.get(),
                                                 mixed.get()};
  for (const char* category : {"art", "music"}) {
    for (const int year : {1, 2}) {
      for (const double price : {1.0, 5.0}) {
        expect_exact(m, subs, EventBuilder(schema_).with("category", category).with("year", year).with("price", price).build());
      }
    }
  }
  EXPECT_GT(m.counters().composite_hits, 0u);
  for (auto* s : {repeated.get(), same_attr.get(), twice.get(), mixed.get()}) {
    m.remove(*s);
    ASSERT_EQ(m.audit(), "");
  }
  EXPECT_EQ(m.live_predicates(), 0u);
}

TEST_F(CountingMatcherTest, PruningAKeyLeafReKeysTheTree) {
  auto s = sub(1, "category = 'art' and year = 2000 and price = 5");
  auto other = sub(2, "category = 'art' and price = 5");
  CountingMatcher m(schema_);
  m.add(*s);
  m.add(*other);
  ASSERT_EQ(m.audit(), "");
  const std::vector<const Subscription*> subs = {s.get(), other.get()};
  const Event e = EventBuilder(schema_).with("category", "art").with("year", 1999).with("price", 5.0).build();
  expect_exact(m, subs, e);  // {category, year, price} misses, {category, price} hits
  EXPECT_EQ(m.counters().composite_probes, 2u);
  EXPECT_EQ(m.counters().composite_hits, 1u);

  // Dropping year moves the subscription onto its neighbour's key.
  apply_pruning(*s, {1});
  m.reindex(*s);
  ASSERT_EQ(m.audit(), "");
  m.reset_counters();
  expect_exact(m, subs, e);
  EXPECT_EQ(m.counters().composite_probes, 1u);
  EXPECT_EQ(m.counters().composite_hits, 1u);
  EXPECT_EQ(m.counters().counter_increments, 2u);

  // Down to one Eq leaf: no key of its own.
  apply_pruning(*s, {0});
  m.reindex(*s);
  ASSERT_EQ(m.audit(), "");
  m.remove(*other);
  ASSERT_EQ(m.audit(), "");
  m.reset_counters();
  expect_exact(m, {s.get()}, e);
  EXPECT_EQ(m.counters().composite_probes, 0u);
  EXPECT_EQ(m.counters().counter_increments, 1u);
}

TEST_F(CountingMatcherTest, RechoosingAccessSetsReKeys) {
  // With a broad year, the chooser drops it from the access set: the key
  // goes, and comes back once the estimates are unbound.
  auto s = sub(1, "category = 'art' and year = 2000 and price = 5");
  CountingMatcher m(schema_);
  m.add(*s);
  const Event e = EventBuilder(schema_).with("category", "art").with("year", 2000).with("price", 5.0).build();
  const auto probe = [&] {
    m.reset_counters();
    expect_exact(m, {s.get()}, e);
    return m.counters();
  };
  EXPECT_EQ(probe().composite_hits, 1u);
  m.set_leaf_estimate([](const Predicate& p) { return p.attribute().value() == 2 ? 0.9 : 0.01; });
  ASSERT_EQ(m.audit(), "");
  EXPECT_EQ(probe().composite_hits, 1u);  // {category, price} still
  m.set_leaf_estimate([](const Predicate& p) { return p.attribute().value() == 1 ? 0.01 : 0.9; });
  ASSERT_EQ(m.audit(), "");
  const MatchCounters one_leaf = probe();
  EXPECT_EQ(one_leaf.composite_probes, 0u);  // category alone: no key
  EXPECT_EQ(one_leaf.counter_increments, 1u);
  EXPECT_EQ(one_leaf.leaf_tests, 2u);
  m.set_leaf_estimate({});
  ASSERT_EQ(m.audit(), "");
  EXPECT_EQ(probe().composite_hits, 1u);
  m.rechoose_access_sets();
  ASSERT_EQ(m.audit(), "");
  m.remove(*s);
  EXPECT_EQ(m.audit(), "");
}

/// Σ over `live` of their distinct leaf predicates, counted from the trees
/// (a NaN operand equals no predicate, itself included).
std::size_t recount_associations(const std::vector<std::unique_ptr<Subscription>>& live) {
  std::size_t total = 0;
  for (const auto& s : live) {
    std::vector<const Predicate*> seen;
    s->root().for_each_leaf([&](const Node& leaf) {
      const auto same = [&](const Predicate* p) { return p->equals(leaf.predicate()); };
      if (std::none_of(seen.begin(), seen.end(), same)) seen.push_back(&leaf.predicate());
    });
    total += seen.size();
  }
  return total;
}

/// A leaf `attr op NaN` on one of `dom`'s first two attributes.
std::unique_ptr<Node> nan_leaf(const test::MiniDomain& dom, std::mt19937_64& rng, Op op) {
  return Node::leaf(Predicate(dom.attr(rng() % 2), op, Value(std::nan(""))));
}

/// A random tree over `dom`; a third of them gain one or two NaN-operand
/// leaves (each its own predicate id).
std::unique_ptr<Node> tree_with_nan_leaves(const test::MiniDomain& dom, std::mt19937_64& rng) {
  auto tree = dom.random_tree(rng, 1 + rng() % 8, 0.2);
  if (rng() % 3 != 0) return tree;
  std::vector<std::unique_ptr<Node>> kids;
  kids.push_back(std::move(tree));
  kids.push_back(nan_leaf(dom, rng, Op::Lt));
  if (rng() % 2 == 0) kids.push_back(nan_leaf(dom, rng, Op::Ge));
  return simplify(rng() % 2 == 0 ? Node::and_(std::move(kids)) : Node::or_(std::move(kids)));
}

// Random add / remove / prune-and-reindex / reindex-to-another-tree /
// rechoose histories on a small domain, where trees repeat predicates, with
// NaN-operand leaves mixed in. After every step the association count must
// equal a recount from the trees and every association list must hold each
// live slot's access links exactly once (audit()); every few steps
// delivery must equal direct evaluation of the trees.
TEST(CountingMatcherHistoryTest, IndexStaysExactUnderRandomHistories) {
  const test::MiniDomain dom(3, 4);
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    const auto tree = [&] { return tree_with_nan_leaves(dom, rng); };
    CountingMatcher m(dom.schema());
    std::vector<std::unique_ptr<Subscription>> live;
    std::uint32_t next_id = 0;
    for (int step = 0; step < 600; ++step) {
      const auto op = rng() % 10;
      if (op < 4 || live.empty()) {
        live.push_back(std::make_unique<Subscription>(SubscriptionId(next_id++), tree()));
        m.add(*live.back());
      } else if (op < 6) {
        const std::size_t victim = rng() % live.size();
        m.remove(*live[victim]);
        live[victim] = std::move(live.back());
        live.pop_back();
      } else if (op < 8) {
        Subscription& s = *live[rng() % live.size()];
        const auto candidates = enumerate_prunings(s.root());
        if (candidates.empty()) continue;
        apply_pruning(s, candidates[rng() % candidates.size()]);
        m.reindex(s);
      } else if (op < 9) {
        Subscription& s = *live[rng() % live.size()];
        s.replace_root(tree());
        m.reindex(s);
      } else {
        switch (rng() % 3) {
          case 0: m.set_leaf_estimate({}); break;
          case 1:
            m.set_leaf_estimate([](const Predicate& p) {
              return static_cast<double>(p.hash() % 101) / 100.0;
            });
            break;
          default: m.rechoose_access_sets(); break;
        }
      }
      ASSERT_EQ(m.association_count(), recount_associations(live)) << "step " << step;
      ASSERT_EQ(m.audit(), "") << "step " << step;
      if (step % 10 != 0) continue;
      for (int i = 0; i < 5; ++i) {
        const Event e = dom.random_event(rng);
        std::vector<SubscriptionId> want;
        for (const auto& s : live) {
          if (s->matches(e)) want.push_back(s->id());
        }
        std::sort(want.begin(), want.end());
        std::vector<SubscriptionId> got;
        m.match(e, got);
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, want) << "step " << step;
      }
    }
    for (const auto& s : live) m.remove(*s);
    EXPECT_EQ(m.association_count(), 0u);
    EXPECT_EQ(m.live_predicates(), 0u);
    EXPECT_EQ(m.audit(), "");
  }
}

// The same random histories over Eq-heavy trees (test::eq_heavy_tree) and
// sparse events with Int, Double and NaN values: most Ands form keys, and
// prunings and re-chosen access sets re-key them.
TEST(CountingMatcherHistoryTest, EqHeavyHistoriesStayExact) {
  const test::MiniDomain dom(4, 3);
  for (const std::uint64_t seed : {7u, 8u}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    const auto tree = [&] { return test::eq_heavy_tree(dom, rng, 1 + rng() % 8); };
    CountingMatcher m(dom.schema());
    std::vector<std::unique_ptr<Subscription>> live;
    std::uint32_t next_id = 0;
    std::uint64_t hits = 0;
    for (int step = 0; step < 500; ++step) {
      const auto op = rng() % 10;
      if (op < 4 || live.empty()) {
        live.push_back(std::make_unique<Subscription>(SubscriptionId(next_id++), tree()));
        m.add(*live.back());
      } else if (op < 6) {
        const std::size_t victim = rng() % live.size();
        m.remove(*live[victim]);
        live[victim] = std::move(live.back());
        live.pop_back();
      } else if (op < 8) {
        Subscription& s = *live[rng() % live.size()];
        const auto candidates = enumerate_prunings(s.root());
        if (candidates.empty()) continue;
        apply_pruning(s, candidates[rng() % candidates.size()]);
        m.reindex(s);
      } else if (op < 9) {
        Subscription& s = *live[rng() % live.size()];
        s.replace_root(tree());
        m.reindex(s);
      } else {
        switch (rng() % 3) {
          case 0: m.set_leaf_estimate({}); break;
          case 1:
            m.set_leaf_estimate([](const Predicate& p) {
              return static_cast<double>(p.hash() % 101) / 100.0;
            });
            break;
          default: m.rechoose_access_sets(); break;
        }
      }
      ASSERT_EQ(m.association_count(), recount_associations(live)) << "step " << step;
      ASSERT_EQ(m.audit(), "") << "step " << step;
      for (int i = 0; i < 3; ++i) {
        const Event e = test::mixed_event(dom, rng);
        std::vector<SubscriptionId> want;
        for (const auto& s : live) {
          if (s->matches(e)) want.push_back(s->id());
        }
        std::sort(want.begin(), want.end());
        std::vector<SubscriptionId> got;
        m.match(e, got);
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, want) << "step " << step;
      }
      hits = m.counters().composite_hits;
    }
    EXPECT_GT(hits, 0u);
    for (const auto& s : live) m.remove(*s);
    EXPECT_EQ(m.association_count(), 0u);
    EXPECT_EQ(m.live_predicates(), 0u);
    EXPECT_EQ(m.audit(), "");
  }
}

}  // namespace
}  // namespace dbsp
