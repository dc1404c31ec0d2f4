// Property tests: the CountingMatcher must agree with the NaiveMatcher
// (direct tree evaluation) on arbitrary subscription corpora and event
// streams — including NOT-bearing subscriptions (pmin = 0 paths), NaN
// event values, and after arbitrary pruning/reindex churn.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>

#include "core/candidates.hpp"
#include "filter/counting_matcher.hpp"
#include "filter/dnf_matcher.hpp"
#include "filter/naive_matcher.hpp"
#include "test_util.hpp"
#include "workload/event_gen.hpp"
#include "workload/subscription_gen.hpp"

namespace dbsp {
namespace {

using test::Corpus;
using test::make_corpus;
using test::MiniDomain;

std::vector<SubscriptionId> sorted_match(CountingMatcher& m, const Event& e) {
  std::vector<SubscriptionId> out;
  m.match(e, out);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<SubscriptionId> sorted_match(const NaiveMatcher& m, const Event& e) {
  std::vector<SubscriptionId> out;
  m.match(e, out);
  std::sort(out.begin(), out.end());
  return out;
}

class MatcherEquivalence : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(MatcherEquivalence, CountingEqualsNaive) {
  const auto [seed, not_prob] = GetParam();
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
  Corpus corpus = make_corpus(dom, rng, 120, not_prob);

  CountingMatcher counting(dom.schema());
  NaiveMatcher naive;
  for (auto& s : corpus.subs) {
    counting.add(*s);
    naive.add(*s);
  }
  for (const auto& e : dom.random_events(rng, 250)) {
    EXPECT_EQ(sorted_match(counting, e), sorted_match(naive, e));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MatcherEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(0.0, 0.25)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_not" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    });

TEST(MatcherEquivalenceChurn, EquivalenceHoldsUnderPruningAndRemoval) {
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(4242);
  Corpus corpus = make_corpus(dom, rng, 80, 0.15);

  CountingMatcher counting(dom.schema());
  NaiveMatcher naive;
  for (auto& s : corpus.subs) {
    counting.add(*s);
    naive.add(*s);
  }

  std::vector<bool> alive(corpus.subs.size(), true);
  for (int round = 0; round < 30; ++round) {
    // Random churn: prune a random subscription or remove one.
    for (int k = 0; k < 5; ++k) {
      const auto i = static_cast<std::size_t>(rng() % corpus.subs.size());
      if (!alive[i]) continue;
      Subscription& s = *corpus.subs[i];
      if (rng() % 4 == 0) {
        counting.remove(s);
        naive.remove(s.id());
        alive[i] = false;
        continue;
      }
      const auto candidates = enumerate_prunings(s.root());
      if (candidates.empty()) continue;
      const auto& path = candidates[rng() % candidates.size()];
      apply_pruning(s, path);
      counting.reindex(s);
    }
    for (const auto& e : dom.random_events(rng, 40)) {
      ASSERT_EQ(sorted_match(counting, e), sorted_match(naive, e)) << "round " << round;
    }
  }
}

/// A tree whose And/Or levels alternate down a spine of `depth` levels (so
/// simplify() flattens nothing), each level wrapped in Not with probability
/// 1/2, with shallower random siblings at every level.
std::unique_ptr<Node> nested_tree(const MiniDomain& dom, std::mt19937_64& rng, int depth,
                                  bool is_and) {
  if (depth == 0) return Node::leaf(dom.random_predicate(rng));
  std::vector<std::unique_ptr<Node>> children;
  children.push_back(nested_tree(dom, rng, depth - 1, !is_and));
  const int siblings = 1 + static_cast<int>(rng() % 2);
  for (int i = 0; i < siblings; ++i) {
    const auto sibling_depth = static_cast<int>(rng() % static_cast<std::uint64_t>(depth));
    children.push_back(nested_tree(dom, rng, sibling_depth, !is_and));
  }
  std::shuffle(children.begin(), children.end(), rng);
  auto node = is_and ? Node::and_(std::move(children)) : Node::or_(std::move(children));
  if (rng() % 2 == 0) node = Node::not_(std::move(node));
  return node;
}

std::size_t depth_of(const Node& node) {
  std::size_t deepest = 0;
  for (const auto& c : node.children()) deepest = std::max(deepest, depth_of(*c));
  return node.kind() == NodeKind::Leaf ? 0 : deepest + 1;
}

std::size_t distinct_predicates(const Node& root) {
  std::vector<Predicate> seen;
  root.for_each_leaf([&](const Node& leaf) {
    if (std::find(seen.begin(), seen.end(), leaf.predicate()) == seen.end()) {
      seen.push_back(leaf.predicate());
    }
  });
  return seen.size();
}

TEST(MatcherEquivalenceChurn, DeepNotOrNestingUnderAddReindexAndRemove) {
  // Depth >= 4 Not/Or/And nesting over a small value domain, so leaves
  // often repeat a predicate. Each round adds, prunes, swaps the tree for
  // a single leaf or a fresh nested tree, and removes, then checks every
  // delivery and every subscription's association count.
  MiniDomain dom(4, 8);
  std::mt19937_64 rng(2718);
  std::vector<std::unique_ptr<Subscription>> subs;
  std::vector<bool> alive;
  CountingMatcher counting(dom.schema());
  NaiveMatcher naive;
  const auto add_one = [&] {
    const auto id = SubscriptionId(static_cast<SubscriptionId::value_type>(subs.size()));
    const int depth = 4 + static_cast<int>(rng() % 2);
    auto tree = simplify(nested_tree(dom, rng, depth, rng() % 2 == 0));
    ASSERT_GE(depth_of(*tree), 4u);
    subs.push_back(std::make_unique<Subscription>(id, std::move(tree)));
    alive.push_back(true);
    counting.add(*subs.back());
    naive.add(*subs.back());
  };
  for (int i = 0; i < 60; ++i) add_one();

  for (int round = 0; round < 40; ++round) {
    for (int k = 0; k < 8; ++k) {
      const auto i = static_cast<std::size_t>(rng() % subs.size());
      if (!alive[i]) continue;
      Subscription& s = *subs[i];
      switch (rng() % 5) {
        case 0:
          counting.remove(s);
          naive.remove(s.id());
          alive[i] = false;
          break;
        case 1:
          s.replace_root(Node::leaf(dom.random_predicate(rng)));
          counting.reindex(s);
          break;
        case 2:
          s.replace_root(simplify(nested_tree(dom, rng, 4, rng() % 2 == 0)));
          counting.reindex(s);
          break;
        default: {
          const auto candidates = enumerate_prunings(s.root());
          if (candidates.empty()) break;
          apply_pruning(s, candidates[rng() % candidates.size()]);
          counting.reindex(s);
        }
      }
    }
    add_one();
    for (const auto& e : dom.random_events(rng, 30)) {
      ASSERT_EQ(sorted_match(counting, e), sorted_match(naive, e)) << "round " << round;
    }
    for (std::size_t i = 0; i < subs.size(); ++i) {
      if (!alive[i]) continue;
      ASSERT_EQ(counting.associations_of(subs[i]->id()), distinct_predicates(subs[i]->root()))
          << subs[i]->to_string(dom.schema());
    }
  }

  for (std::size_t i = 0; i < subs.size(); ++i) {
    if (alive[i]) counting.remove(*subs[i]);
  }
  EXPECT_EQ(counting.subscription_count(), 0u);
  EXPECT_EQ(counting.live_predicates(), 0u);
  EXPECT_EQ(counting.association_count(), 0u);
}

TEST(MatcherEquivalenceNaN, NaNEventValuesAgreeOverEveryOperator) {
  // A NaN event value fulfils no ordered comparison, no equality and no
  // Between (IEEE), and Ne holds for it. The counting index collects no
  // ordered predicate for NaN, so direct evaluation has to say the same.
  Schema schema;
  const AttributeId x = schema.add_attribute("x", ValueType::Double);
  std::vector<Predicate> preds{
      Predicate(x, Op::Eq, Value(2.0)),      Predicate(x, Op::Ne, Value(2.0)),
      Predicate(x, Op::Lt, Value(5.0)),      Predicate(x, Op::Le, Value(5.0)),
      Predicate(x, Op::Gt, Value(1.0)),      Predicate(x, Op::Ge, Value(1.0)),
      Predicate(x, Value(1.0), Value(5.0)),  Predicate(x, {Value(2.0), Value(3.0)}),
      Predicate(x, Op::Prefix, Value("a")),  Predicate(x, Op::Suffix, Value("a")),
      Predicate(x, Op::Contains, Value("a")),
  };
  // Each predicate as a leaf and under a NOT (the pmin = 0 path).
  Corpus corpus;
  for (const Predicate& p : preds) {
    for (const bool negate : {false, true}) {
      auto tree = Node::leaf(p);
      if (negate) tree = Node::not_(std::move(tree));
      corpus.subs.push_back(std::make_unique<Subscription>(
          SubscriptionId(static_cast<SubscriptionId::value_type>(corpus.subs.size())),
          std::move(tree)));
    }
  }
  CountingMatcher counting(schema);
  NaiveMatcher naive;
  for (auto& s : corpus.subs) {
    counting.add(*s);
    naive.add(*s);
  }

  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {nan, -nan, 3.0, std::numeric_limits<double>::infinity()}) {
    Event e;
    e.set(x, Value(v));
    EXPECT_EQ(sorted_match(counting, e), sorted_match(naive, e)) << "x = " << v;
  }

  Event e;
  e.set(x, Value(nan));
  const auto got = sorted_match(counting, e);
  for (std::size_t i = 0; i < preds.size(); ++i) {
    const bool leaf_matches = std::binary_search(
        got.begin(), got.end(), SubscriptionId(static_cast<SubscriptionId::value_type>(2 * i)));
    EXPECT_EQ(leaf_matches, preds[i].op() == Op::Ne) << to_string(preds[i].op());
  }
}

TEST(MatcherRemoveParity, UniformRemoveByIdAcrossAllThreeMatchers) {
  // All three matchers expose remove(SubscriptionId) with identical
  // semantics: removing an id unregisters exactly that subscription, and
  // removing an unknown id throws std::out_of_range.
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(909);
  Corpus corpus = make_corpus(dom, rng, 100, /*not_prob=*/0.0);  // DNF-convertible

  CountingMatcher counting(dom.schema());
  DnfMatcher dnf(dom.schema());
  NaiveMatcher naive;
  for (auto& s : corpus.subs) {
    counting.add(*s);
    ASSERT_TRUE(dnf.add(*s));
    naive.add(*s);
  }

  // Remove every third subscription through the uniform id-based API.
  std::vector<bool> alive(corpus.subs.size(), true);
  for (std::size_t i = 0; i < corpus.subs.size(); i += 3) {
    const SubscriptionId id = corpus.subs[i]->id();
    counting.remove(id);
    dnf.remove(id);
    naive.remove(id);
    alive[i] = false;
  }
  EXPECT_EQ(counting.subscription_count(), naive.subscription_count());
  EXPECT_EQ(dnf.subscription_count(), naive.subscription_count());

  // A second remove of the same id is out-of-range on every matcher.
  const SubscriptionId gone = corpus.subs[0]->id();
  EXPECT_THROW(counting.remove(gone), std::out_of_range);
  EXPECT_THROW(dnf.remove(gone), std::out_of_range);
  EXPECT_THROW(naive.remove(gone), std::out_of_range);
  EXPECT_FALSE(counting.contains(gone));
  EXPECT_FALSE(dnf.contains(gone));
  EXPECT_FALSE(naive.contains(gone));

  // Post-removal match sets agree and never contain a removed id.
  for (const auto& e : dom.random_events(rng, 100)) {
    std::vector<SubscriptionId> from_dnf;
    dnf.match(e, from_dnf);
    std::sort(from_dnf.begin(), from_dnf.end());
    const auto expected = sorted_match(naive, e);
    EXPECT_EQ(sorted_match(counting, e), expected);
    EXPECT_EQ(from_dnf, expected);
    for (const auto id : expected) EXPECT_TRUE(alive[id.value()]);
  }
}

TEST(MatcherEquivalenceAuction, RealWorkloadAgreesWithNaive) {
  // The full auction workload (all operators incl. strings, In, Between).
  WorkloadConfig cfg;
  cfg.seed = 7;
  cfg.titles = 200;
  cfg.authors = 80;
  cfg.not_probability = 0.1;
  const AuctionDomain domain(cfg);
  AuctionSubscriptionGenerator sub_gen(domain);
  AuctionEventGenerator event_gen(domain);

  CountingMatcher counting(domain.schema());
  NaiveMatcher naive;
  std::vector<std::unique_ptr<Subscription>> subs;
  for (std::uint32_t i = 0; i < 400; ++i) {
    subs.push_back(std::make_unique<Subscription>(SubscriptionId(i), sub_gen.next_tree()));
    counting.add(*subs.back());
    naive.add(*subs.back());
  }
  for (const auto& e : event_gen.generate(300)) {
    EXPECT_EQ(sorted_match(counting, e), sorted_match(naive, e));
  }
}

}  // namespace
}  // namespace dbsp
