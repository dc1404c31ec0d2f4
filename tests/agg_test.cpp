// Tests for the subscription-aggregation layer (src/agg/): per-operator
// summary soundness and tightness, widening-cap behavior, Boolean
// composition, the no-false-negative property of the subgroup summaries
// and of aggregator.match() against direct tree evaluation under churn,
// incremental-churn vs rebuild-from-scratch equivalence, and the
// drift-style rescore trigger.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "agg/aggregator.hpp"
#include "agg/summary.hpp"
#include "selectivity/stats.hpp"
#include "test_util.hpp"

namespace dbsp::agg {
namespace {

using test::MiniDomain;

std::unique_ptr<Node> leaf(AttributeId attr, Op op, Value value) {
  return Node::leaf(Predicate(attr, op, std::move(value)));
}

Event event_with(AttributeId attr, Value value) {
  Event e;
  e.set(attr, std::move(value));
  return e;
}

// ---------------------------------------------------------------------------
// DimensionSummary: per-operator build soundness (+ tightness where the
// operator admits an exact summary).

class SummaryOperatorTest : public ::testing::Test {
 protected:
  MiniDomain dom_;
  AttributeId a0_ = dom_.attr(0);
  SummaryLimits limits_;

  // Soundness: every value the tree admits, the summary must admit; and if
  // the tree matches an event lacking the attribute, may_match_without()
  // must hold. Returns the summary for additional tightness assertions.
  DimensionSummary check_sound(const Node& tree) {
    const DimensionSummary s =
        DimensionSummary::summarize(tree, a0_, /*numeric=*/true, limits_, nullptr);
    for (std::int64_t v = -5; v < dom_.domain() + 5; ++v) {
      if (tree.evaluate_event(event_with(a0_, Value(v)))) {
        EXPECT_TRUE(s.admits_value(Value(v))) << "false negative at " << v;
      }
    }
    if (tree.evaluate_event(Event{})) {
      EXPECT_TRUE(s.may_match_without());
    }
    return s;
  }
};

TEST_F(SummaryOperatorTest, EqIsExactPoint) {
  const auto s = check_sound(*leaf(a0_, Op::Eq, Value(5)));
  EXPECT_TRUE(s.admits_value(Value(5)));
  EXPECT_FALSE(s.admits_value(Value(4)));
  EXPECT_FALSE(s.admits_value(Value(6)));
  EXPECT_FALSE(s.may_match_without());
}

TEST_F(SummaryOperatorTest, LtLeGtGeAreSoundHalfLines) {
  // Summaries are closed-interval: a strict bound keeps its endpoint (one
  // admissible false positive at the boundary), everything beyond rejects.
  const auto lt = check_sound(*leaf(a0_, Op::Lt, Value(5)));
  EXPECT_TRUE(lt.admits_value(Value(4)));
  EXPECT_FALSE(lt.admits_value(Value(6)));

  const auto le = check_sound(*leaf(a0_, Op::Le, Value(5)));
  EXPECT_TRUE(le.admits_value(Value(5)));
  EXPECT_FALSE(le.admits_value(Value(6)));

  const auto gt = check_sound(*leaf(a0_, Op::Gt, Value(5)));
  EXPECT_TRUE(gt.admits_value(Value(6)));
  EXPECT_FALSE(gt.admits_value(Value(4)));

  const auto ge = check_sound(*leaf(a0_, Op::Ge, Value(5)));
  EXPECT_TRUE(ge.admits_value(Value(5)));
  EXPECT_FALSE(ge.admits_value(Value(4)));
}

TEST_F(SummaryOperatorTest, BetweenIsExactSegment) {
  const auto s =
      check_sound(*Node::leaf(Predicate(a0_, Value(3), Value(7))));
  EXPECT_TRUE(s.admits_value(Value(3)));
  EXPECT_TRUE(s.admits_value(Value(7)));
  EXPECT_FALSE(s.admits_value(Value(2)));
  EXPECT_FALSE(s.admits_value(Value(8)));
}

TEST_F(SummaryOperatorTest, NeIsSound) { check_sound(*leaf(a0_, Op::Ne, Value(5))); }

TEST_F(SummaryOperatorTest, NotWidensToUniverse) {
  const auto s = check_sound(*Node::not_(leaf(a0_, Op::Eq, Value(5))));
  // An event without a0 matches NOT(a0 == 5), so absence must be admitted.
  EXPECT_TRUE(s.may_match_without());
}

TEST_F(SummaryOperatorTest, UnconstrainedDimensionIsUniverse) {
  // Tree constrains a1 only; projected onto a0 it admits everything.
  const auto s = DimensionSummary::summarize(*leaf(dom_.attr(1), Op::Eq, Value(5)),
                                             a0_, true, limits_, nullptr);
  EXPECT_TRUE(s.unconstrained());
  EXPECT_TRUE(s.admits_value(Value(17)));
  EXPECT_TRUE(s.may_match_without());
}

TEST_F(SummaryOperatorTest, AndMeetsOrJoins) {
  // (a0 >= 3) AND (a0 <= 7): the meet is exactly [3, 7].
  std::vector<std::unique_ptr<Node>> and_children;
  and_children.push_back(leaf(a0_, Op::Ge, Value(3)));
  and_children.push_back(leaf(a0_, Op::Le, Value(7)));
  const auto meet = check_sound(*Node::and_(std::move(and_children)));
  EXPECT_FALSE(meet.admits_value(Value(2)));
  EXPECT_TRUE(meet.admits_value(Value(5)));
  EXPECT_FALSE(meet.admits_value(Value(8)));

  // (a0 == 1) OR (a0 == 9): the join admits both points, rejects between.
  std::vector<std::unique_ptr<Node>> or_children;
  or_children.push_back(leaf(a0_, Op::Eq, Value(1)));
  or_children.push_back(leaf(a0_, Op::Eq, Value(9)));
  const auto join = check_sound(*Node::or_(std::move(or_children)));
  EXPECT_TRUE(join.admits_value(Value(1)));
  EXPECT_TRUE(join.admits_value(Value(9)));
  EXPECT_FALSE(join.admits_value(Value(5)));
}

TEST_F(SummaryOperatorTest, IntervalCapMergesButStaysSound) {
  // 6 isolated points under a 4-interval cap: segments merge, every
  // original point stays admitted, and the widening is counted.
  std::vector<std::unique_ptr<Node>> children;
  for (const std::int64_t v : {0, 3, 6, 9, 12, 15}) {
    children.push_back(leaf(a0_, Op::Eq, Value(v)));
  }
  const auto tree = Node::or_(std::move(children));
  std::size_t widenings = 0;
  const auto s = DimensionSummary::summarize(*tree, a0_, true, limits_, &widenings);
  EXPECT_LE(s.intervals().size(), limits_.max_intervals);
  EXPECT_GE(widenings, 1u);
  for (const std::int64_t v : {0, 3, 6, 9, 12, 15}) {
    EXPECT_TRUE(s.admits_value(Value(v))) << v;
  }
}

TEST(SummaryCategoricalTest, ValueCapWidensToAny) {
  Schema schema;
  const AttributeId attr = schema.add_attribute("title", ValueType::String);
  std::vector<std::unique_ptr<Node>> children;
  for (const char* v : {"a", "b", "c", "d"}) {
    children.push_back(Node::leaf(Predicate(attr, Op::Eq, Value(v))));
  }
  const auto tree = Node::or_(std::move(children));

  SummaryLimits tight;
  tight.max_values = 2;
  std::size_t widenings = 0;
  const auto s =
      DimensionSummary::summarize(*tree, attr, /*numeric=*/false, tight, &widenings);
  EXPECT_TRUE(s.all_values());
  EXPECT_GE(widenings, 1u);
  EXPECT_TRUE(s.admits_value(Value("zzz")));  // widened: anything admitted

  SummaryLimits roomy;
  roomy.max_values = 16;
  const auto exact =
      DimensionSummary::summarize(*tree, attr, false, roomy, nullptr);
  EXPECT_FALSE(exact.all_values());
  EXPECT_EQ(exact.values().size(), 4u);
  EXPECT_TRUE(exact.admits_value(Value("c")));
  EXPECT_FALSE(exact.admits_value(Value("zzz")));
}

TEST(SummarySetTest, AdmitsMirrorsTreeOnMissingAttributes) {
  MiniDomain dom;
  // a0 == 5 AND a1 <= 3: an event lacking a0 can never match.
  std::vector<std::unique_ptr<Node>> children;
  children.push_back(leaf(dom.attr(0), Op::Eq, Value(5)));
  children.push_back(leaf(dom.attr(1), Op::Le, Value(3)));
  const auto tree = Node::and_(std::move(children));

  const std::vector<AttributeId> dims{dom.attr(0), dom.attr(1)};
  const auto set =
      SummarySet::summarize(*tree, dims, dom.schema(), SummaryLimits{}, nullptr);

  Event match;
  match.set(dom.attr(0), Value(5));
  match.set(dom.attr(1), Value(2));
  EXPECT_TRUE(set.admits(match));

  EXPECT_FALSE(set.admits(event_with(dom.attr(1), Value(2))));  // a0 absent
  EXPECT_FALSE(set.admits(event_with(dom.attr(0), Value(4))));  // wrong value
}

TEST(SummarySetTest, JoinReportsChangeAndWidens) {
  MiniDomain dom;
  const std::vector<AttributeId> dims{dom.attr(0)};
  const SummaryLimits limits;
  auto a = SummarySet::summarize(*leaf(dom.attr(0), Op::Eq, Value(1)), dims,
                                 dom.schema(), limits, nullptr);
  const auto b = SummarySet::summarize(*leaf(dom.attr(0), Op::Eq, Value(9)), dims,
                                       dom.schema(), limits, nullptr);
  EXPECT_TRUE(a.join(b, limits, nullptr));
  EXPECT_TRUE(a.admits(event_with(dom.attr(0), Value(1))));
  EXPECT_TRUE(a.admits(event_with(dom.attr(0), Value(9))));
  // Joining the same set again is a no-op.
  EXPECT_FALSE(a.join(b, limits, nullptr));
}

// ---------------------------------------------------------------------------
// No-false-negative property under churn: every matching subscription's
// subgroup summary admits the event, and aggregator.match() equals direct
// tree evaluation, under events with missing attributes and NOT-heavy trees.

std::vector<SubscriptionId> oracle_matches(const test::Corpus& corpus,
                                           const Event& event) {
  std::vector<SubscriptionId> out;
  for (const auto& sub : corpus.subs) {
    if (sub->matches(event)) out.push_back(sub->id());
  }
  return out;
}

Event sparse_event(const MiniDomain& dom, std::mt19937_64& rng) {
  Event e;
  std::uniform_int_distribution<std::int64_t> dist(0, dom.domain() - 1);
  std::bernoulli_distribution keep(0.8);
  for (std::size_t i = 0; i < dom.attr_count(); ++i) {
    if (keep(rng)) e.set(dom.attr(i), Value(dist(rng)));
  }
  return e;
}

TEST(AggregatedMatchingTest, NoFalseNegativesUnderChurn) {
  MiniDomain dom;
  std::mt19937_64 rng(7);
  const auto corpus = test::make_corpus(dom, rng, 300, /*not_prob=*/0.2);

  AggregatorOptions options;
  options.max_subgroups = 32;  // small cap: force folding + widening
  SubscriptionAggregator aggregator(dom.schema(), options);
  // Two thirds start live; each event swaps one live subscription for a
  // parked one, so removals re-tighten subgroups while adds widen them.
  std::vector<Subscription*> live;
  std::vector<Subscription*> parked;
  for (const auto& sub : corpus.subs) {
    if (live.size() < 200) {
      aggregator.add(*sub);
      live.push_back(sub.get());
    } else {
      parked.push_back(sub.get());
    }
  }

  EventStats stats(dom.schema());
  std::mt19937_64 stat_rng(77);
  for (std::size_t i = 0; i < 500; ++i) stats.observe(dom.random_event(stat_rng));
  stats.finalize();

  std::mt19937_64 event_rng(99);
  std::vector<SubscriptionId> got;
  for (std::size_t i = 0; i < 400; ++i) {
    std::uniform_int_distribution<std::size_t> pick_live(0, live.size() - 1);
    std::uniform_int_distribution<std::size_t> pick_parked(0, parked.size() - 1);
    const std::size_t leaving = pick_live(event_rng);
    const std::size_t joining = pick_parked(event_rng);
    aggregator.remove(live[leaving]->id());
    aggregator.add(*parked[joining]);
    std::swap(live[leaving], parked[joining]);
    if (i == 200) aggregator.train(stats);  // rescore mid-churn

    const Event event = sparse_event(dom, event_rng);
    std::vector<SubscriptionId> expected;
    for (const Subscription* sub : live) {
      if (!sub->matches(event)) continue;
      expected.push_back(sub->id());
      const SummarySet* summary =
          aggregator.subgroup_summary(aggregator.subgroup_of(sub->id()));
      ASSERT_NE(summary, nullptr);
      EXPECT_TRUE(summary->admits(event)) << "sub " << sub->id().value();
    }
    std::sort(expected.begin(), expected.end());
    got.clear();
    aggregator.match(event, got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "event " << i;
  }
  const auto counters = aggregator.counters();
  EXPECT_EQ(counters.events_probed, 400u);
  EXPECT_GT(counters.subgroups_skipped, 0u);  // the summaries actually prune
  EXPECT_GT(counters.subgroup_rebuilds, 0u);  // removals re-tightened
}

// ---------------------------------------------------------------------------
// Incremental churn vs rebuild-from-scratch equivalence.

TEST(AggregatorChurnTest, ChurnedStateMatchesRebuildFromScratch) {
  MiniDomain dom;
  std::mt19937_64 rng(21);
  auto corpus = test::make_corpus(dom, rng, 240, 0.1);

  AggregatorOptions options;
  options.max_subgroups = 48;
  SubscriptionAggregator churned(dom.schema(), options);
  for (const auto& sub : corpus.subs) churned.add(*sub);
  for (std::size_t i = 0; i < corpus.subs.size(); i += 2) {
    churned.remove(corpus.subs[i]->id());  // every even id departs
  }
  EXPECT_GT(churned.counters().subgroup_rebuilds, 0u);  // removal bursts tighten

  SubscriptionAggregator fresh(dom.schema(), options);
  for (std::size_t i = 1; i < corpus.subs.size(); i += 2) fresh.add(*corpus.subs[i]);
  ASSERT_EQ(churned.subscription_count(), fresh.subscription_count());

  // Matching is exact on both sides regardless of history...
  std::mt19937_64 event_rng(5);
  std::vector<SubscriptionId> a;
  std::vector<SubscriptionId> b;
  for (std::size_t i = 0; i < 200; ++i) {
    const Event event = sparse_event(dom, event_rng);
    a.clear();
    b.clear();
    churned.match(event, a);
    fresh.match(event, b);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }

  // ...and once the dimension choice is aligned (identical stats over the
  // identical live member set), a full rebuild erases the churn history
  // entirely: both sides re-cluster the same surviving members in id
  // order, so the subgroup structure converges exactly.
  EventStats stats(dom.schema());
  std::mt19937_64 stat_rng(77);
  for (std::size_t i = 0; i < 500; ++i) stats.observe(dom.random_event(stat_rng));
  stats.finalize();
  churned.train(stats);
  fresh.train(stats);
  ASSERT_EQ(churned.dimensions(), fresh.dimensions());
  churned.rebuild();
  fresh.rebuild();
  ASSERT_EQ(churned.subgroup_slots(), fresh.subgroup_slots());
  EXPECT_EQ(churned.subgroup_count(), fresh.subgroup_count());
  EXPECT_EQ(churned.advertised_bytes(), fresh.advertised_bytes());
  for (std::size_t g = 0; g < churned.subgroup_slots(); ++g) {
    const SummarySet* x = churned.subgroup_summary(g);
    const SummarySet* y = fresh.subgroup_summary(g);
    ASSERT_EQ(x == nullptr, y == nullptr) << "slot " << g;
    if (x != nullptr) {
      EXPECT_TRUE(x->equals(*y)) << "slot " << g;
    }
  }
}

TEST(AggregatorChurnTest, LargeSubgroupRetightensInProportionToItsSize) {
  // One subgroup of 4096 members: every subscription constrains a0 to the
  // same segment (the clustering key), a1 and a2 vary.
  MiniDomain dom;
  std::mt19937_64 rng(31);
  std::uniform_int_distribution<std::int64_t> val(0, dom.domain() - 1);
  test::Corpus corpus;
  constexpr std::size_t kMembers = 4096;
  for (std::size_t i = 0; i < kMembers; ++i) {
    const std::int64_t x = val(rng);
    const std::int64_t y = val(rng);
    std::vector<std::unique_ptr<Node>> kids;
    kids.push_back(Node::leaf(Predicate(dom.attr(0), Value(2), Value(17))));
    kids.push_back(Node::leaf(
        Predicate(dom.attr(1), Value(std::min(x, y)), Value(std::max(x, y)))));
    if (i % 3 == 0) kids.push_back(leaf(dom.attr(2), Op::Ne, Value(val(rng))));
    corpus.subs.push_back(std::make_unique<Subscription>(
        SubscriptionId(static_cast<SubscriptionId::value_type>(i)),
        Node::and_(std::move(kids))));
  }
  SubscriptionAggregator aggregator(dom.schema());
  for (const auto& sub : corpus.subs) aggregator.add(*sub);
  ASSERT_EQ(aggregator.subgroup_count(), 1u);
  const std::size_t group = aggregator.subgroup_of(corpus.subs.front()->id());
  ASSERT_EQ(aggregator.subgroup_members(group), kMembers);

  std::vector<std::size_t> order(kMembers);
  for (std::size_t i = 0; i < kMembers; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<bool> departed(kMembers, false);
  for (std::size_t k = 0; k < 1024; ++k) {
    aggregator.remove(corpus.subs[order[k]]->id());
    departed[order[k]] = true;
  }
  // Re-tightens come due every max(8, members / 8) removals: twice here,
  // where a fixed pace of 8 would re-summarize the subgroup 128 times.
  const auto rebuilds = aggregator.counters().subgroup_rebuilds;
  EXPECT_GE(rebuilds, 1u);
  EXPECT_LE(rebuilds, 4u);
  EXPECT_EQ(aggregator.subgroup_members(group), kMembers - 1024);

  for (std::size_t i = 0; i < kMembers; ++i) {
    const SubscriptionId id = corpus.subs[i]->id();
    if (departed[i]) {
      EXPECT_FALSE(aggregator.contains(id)) << i;
      EXPECT_THROW((void)aggregator.subgroup_of(id), std::out_of_range) << i;
    } else {
      EXPECT_TRUE(aggregator.contains(id)) << i;
      EXPECT_EQ(aggregator.subgroup_of(id), group) << i;
    }
  }

  std::mt19937_64 event_rng(41);
  std::vector<SubscriptionId> got;
  for (std::size_t e = 0; e < 400; ++e) {
    const Event event = sparse_event(dom, event_rng);
    got.clear();
    aggregator.match(event, got);
    std::sort(got.begin(), got.end());
    std::vector<SubscriptionId> expected;
    for (std::size_t i = 0; i < kMembers; ++i) {
      if (!departed[i] && corpus.subs[i]->matches(event)) {
        expected.push_back(corpus.subs[i]->id());
      }
    }
    ASSERT_EQ(got, expected) << "event " << e;
  }

  // A full rebuild from identical statistics converges on the structure a
  // fresh aggregator builds from the survivors alone.
  SubscriptionAggregator fresh(dom.schema());
  for (std::size_t i = 0; i < kMembers; ++i) {
    if (!departed[i]) fresh.add(*corpus.subs[i]);
  }
  EventStats stats(dom.schema());
  std::mt19937_64 stat_rng(43);
  for (std::size_t i = 0; i < 500; ++i) stats.observe(dom.random_event(stat_rng));
  stats.finalize();
  aggregator.train(stats);
  fresh.train(stats);
  ASSERT_EQ(aggregator.dimensions(), fresh.dimensions());
  aggregator.rebuild();
  fresh.rebuild();
  EXPECT_EQ(aggregator.subgroup_count(), fresh.subgroup_count());
  EXPECT_EQ(aggregator.advertised_bytes(), fresh.advertised_bytes());
}

TEST(AggregatorChurnTest, RefreshAfterInPlaceGeneralization) {
  MiniDomain dom;
  Subscription sub(SubscriptionId(1), leaf(dom.attr(0), Op::Eq, Value(5)));
  SubscriptionAggregator aggregator(dom.schema());
  aggregator.add(sub);

  const Event far = event_with(dom.attr(0), Value(17));
  std::vector<SubscriptionId> out;
  aggregator.match(far, out);
  EXPECT_TRUE(out.empty());

  // Pruning generalizes the tree in place; refresh() must widen the
  // subgroup summary so the new admissions are not lost.
  sub.replace_root(
      Node::leaf(Predicate(dom.attr(0), Value(0), Value(dom.domain()))));
  aggregator.refresh(sub);
  aggregator.match(far, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.front(), SubscriptionId(1));
}

// ---------------------------------------------------------------------------
// Drift-style rescore trigger + trained re-aggregation.

TEST(AggregatorDriftTest, MutationThresholdTripsAndTrainClears) {
  MiniDomain dom;
  std::mt19937_64 rng(3);
  auto corpus = test::make_corpus(dom, rng, 40, 0.0);

  AggregatorOptions options;
  options.rescore_threshold = 10;
  SubscriptionAggregator aggregator(dom.schema(), options);
  for (std::size_t i = 0; i < 9; ++i) aggregator.add(*corpus.subs[i]);
  EXPECT_FALSE(aggregator.rescore_pending());
  aggregator.add(*corpus.subs[9]);
  EXPECT_TRUE(aggregator.rescore_pending());

  EventStats stats(dom.schema());
  std::mt19937_64 event_rng(8);
  for (std::size_t i = 0; i < 500; ++i) stats.observe(dom.random_event(event_rng));
  stats.finalize();
  aggregator.train(stats);
  EXPECT_FALSE(aggregator.rescore_pending());
  EXPECT_EQ(aggregator.dimensions().size(),
            std::min<std::size_t>(options.dimensions, dom.attr_count()));

  // A second wave of arrivals re-arms the trigger...
  for (std::size_t i = 10; i < 20; ++i) aggregator.add(*corpus.subs[i]);
  EXPECT_TRUE(aggregator.rescore_pending());
  aggregator.train(stats);
  EXPECT_FALSE(aggregator.rescore_pending());

  // ...and removals count as mutations too.
  for (std::size_t i = 0; i < 10; ++i) aggregator.remove(corpus.subs[i]->id());
  EXPECT_TRUE(aggregator.rescore_pending());
  aggregator.train(stats);
  EXPECT_FALSE(aggregator.rescore_pending());

  // Matching stays exact across retrains: exactly the surviving members
  // (ids 10..19) are delivered.
  std::vector<SubscriptionId> got;
  for (std::size_t i = 0; i < 100; ++i) {
    const Event event = sparse_event(dom, event_rng);
    got.clear();
    aggregator.match(event, got);
    std::sort(got.begin(), got.end());
    std::vector<SubscriptionId> expected;
    for (std::size_t s = 10; s < 20; ++s) {
      if (corpus.subs[s]->matches(event)) expected.push_back(corpus.subs[s]->id());
    }
    EXPECT_EQ(got, expected);
  }
}

TEST(AggregatorDriftTest, TrainedDimensionsRebuildSubgroups) {
  MiniDomain dom;
  std::mt19937_64 rng(13);
  auto corpus = test::make_corpus(dom, rng, 120, 0.0);
  SubscriptionAggregator aggregator(dom.schema());
  for (const auto& sub : corpus.subs) aggregator.add(*sub);
  const std::uint64_t generation = aggregator.rebuild_generation();

  // Heavily skewed stats: a0 is almost always present with one hot value,
  // making its predicates unselective — training must be able to change
  // the dimension ranking, and any change bumps the rebuild generation.
  EventStats stats(dom.schema());
  std::mt19937_64 event_rng(4);
  for (std::size_t i = 0; i < 500; ++i) {
    Event e = dom.random_event(event_rng);
    e.set(dom.attr(0), Value(1));
    stats.observe(e);
  }
  stats.finalize();
  aggregator.train(stats);
  if (aggregator.rebuild_generation() != generation) {
    EXPECT_GT(aggregator.counters().full_rebuilds, 0u);
  }

  // Exactness is preserved either way.
  std::vector<SubscriptionId> got;
  for (std::size_t i = 0; i < 100; ++i) {
    const Event event = sparse_event(dom, event_rng);
    got.clear();
    aggregator.match(event, got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, oracle_matches(corpus, event));
  }
}

}  // namespace
}  // namespace dbsp::agg
