// Property tests: the CountingMatcher must agree with the NaiveMatcher
// (direct tree evaluation) on arbitrary subscription corpora and event
// streams — including NOT-bearing subscriptions (pmin = 0 paths), NaN
// event values, after arbitrary pruning/reindex churn, and whatever leaf
// estimates choose its access leaves.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <string>

#include "core/candidates.hpp"
#include "core/sharded_engine.hpp"
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
  // ordered predicate for NaN, and a leaf tested in place compares no
  // differently, so direct evaluation has to say the same — whichever
  // leaves the bound estimates count.
  Schema schema;
  const AttributeId x = schema.add_attribute("x", ValueType::Double);
  const AttributeId y = schema.add_attribute("y", ValueType::Double);
  std::vector<Predicate> preds{
      Predicate(x, Op::Eq, Value(2.0)),      Predicate(x, Op::Ne, Value(2.0)),
      Predicate(x, Op::Lt, Value(5.0)),      Predicate(x, Op::Le, Value(5.0)),
      Predicate(x, Op::Gt, Value(1.0)),      Predicate(x, Op::Ge, Value(1.0)),
      Predicate(x, Value(1.0), Value(5.0)),  Predicate(x, {Value(2.0), Value(3.0)}),
      Predicate(x, Op::Prefix, Value("a")),  Predicate(x, Op::Suffix, Value("a")),
      Predicate(x, Op::Contains, Value("a")),
  };
  // Each predicate as a leaf and under a NOT (the pmin = 0 path), then
  // behind a y = 1 anchor, plain and negated.
  Corpus corpus;
  const auto add = [&](std::unique_ptr<Node> tree) {
    corpus.subs.push_back(std::make_unique<Subscription>(
        SubscriptionId(static_cast<SubscriptionId::value_type>(corpus.subs.size())),
        std::move(tree)));
  };
  for (const Predicate& p : preds) {
    add(Node::leaf(p));
    add(Node::not_(Node::leaf(p)));
  }
  for (const Predicate& p : preds) {
    for (const bool negate : {false, true}) {
      auto tree = Node::leaf(p);
      if (negate) tree = Node::not_(std::move(tree));
      std::vector<std::unique_ptr<Node>> children;
      children.push_back(Node::leaf(Predicate(y, Op::Eq, Value(1.0))));
      children.push_back(std::move(tree));
      add(Node::and_(std::move(children)));
    }
  }
  // Unbound every leaf counts; skewed one way the x leaves are tested in
  // place behind the anchor, skewed the other way the anchor is.
  std::vector<CountingMatcher::LeafEstimate> oracles{
      {},
      [y](const Predicate& p) { return p.attribute() == y ? 0.01 : 0.9; },
      [y](const Predicate& p) { return p.attribute() == y ? 0.9 : 0.01; },
  };
  NaiveMatcher naive;
  for (auto& s : corpus.subs) naive.add(*s);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t o = 0; o < oracles.size(); ++o) {
    SCOPED_TRACE(o);
    CountingMatcher counting(schema);
    counting.set_leaf_estimate(oracles[o]);
    for (auto& s : corpus.subs) counting.add(*s);
    ASSERT_EQ(counting.audit(), "");

    for (const double v : {nan, -nan, 3.0, -0.0, std::numeric_limits<double>::infinity()}) {
      for (const double anchor : {1.0, nan}) {
        Event e;
        e.set(x, Value(v));
        e.set(y, Value(anchor));
        EXPECT_EQ(sorted_match(counting, e), sorted_match(naive, e))
            << "x = " << v << ", y = " << anchor;
      }
    }
    EXPECT_EQ(counting.counters().leaf_tests > 0, o != 0);

    Event e;
    e.set(x, Value(nan));
    e.set(y, Value(1.0));
    const auto got = sorted_match(counting, e);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      const auto fulfilled = [&](std::size_t id) {
        return std::binary_search(
            got.begin(), got.end(), SubscriptionId(static_cast<SubscriptionId::value_type>(id)));
      };
      const bool is_ne = preds[i].op() == Op::Ne;
      EXPECT_EQ(fulfilled(2 * i), is_ne) << to_string(preds[i].op());
      EXPECT_EQ(fulfilled(2 * preds.size() + 2 * i), is_ne) << to_string(preds[i].op());
    }
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

// --- Access leaves ---------------------------------------------------------

/// Raw (unsimplified) trees over a pool of 24 predicates on three Int
/// attributes: And/Or of 1-4 children, Not, True and False nodes, leaves
/// repeating pool predicates within a tree, and one operand in six NaN.
class AccessDomain {
 public:
  explicit AccessDomain(std::mt19937_64& rng) {
    for (int i = 0; i < 3; ++i) {
      attrs_.push_back(schema_.add_attribute("a" + std::to_string(i), ValueType::Int));
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (int i = 0; i < 24; ++i) {
      const AttributeId attr = attrs_[rng() % attrs_.size()];
      const auto v = static_cast<std::int64_t>(rng() % 6);
      const Value operand = rng() % 6 == 0 ? Value(nan) : Value(v);
      switch (rng() % 7) {
        case 0: pool_.emplace_back(attr, Op::Eq, operand); break;
        case 1: pool_.emplace_back(attr, Op::Ne, operand); break;
        case 2: pool_.emplace_back(attr, Op::Lt, operand); break;
        case 3: pool_.emplace_back(attr, Op::Le, operand); break;
        case 4: pool_.emplace_back(attr, Op::Gt, operand); break;
        case 5: pool_.emplace_back(attr, Op::Ge, operand); break;
        default: pool_.emplace_back(attr, operand, Value(v + 2)); break;
      }
    }
  }

  [[nodiscard]] const Schema& schema() const { return schema_; }
  [[nodiscard]] const std::vector<Predicate>& pool() const { return pool_; }

  [[nodiscard]] std::unique_ptr<Node> tree(std::mt19937_64& rng, int depth) const {
    if (depth == 0 || rng() % 4 == 0) {
      switch (rng() % 16) {
        case 0: return Node::constant(true);
        case 1: return Node::constant(false);
        default: return Node::leaf(pool_[rng() % pool_.size()]);
      }
    }
    const auto kind = rng() % 5;
    if (kind == 0) return Node::not_(tree(rng, depth - 1));
    std::vector<std::unique_ptr<Node>> children;
    const auto arity = 1 + rng() % 4;
    for (std::uint64_t i = 0; i < arity; ++i) children.push_back(tree(rng, depth - 1));
    return kind <= 2 ? Node::and_(std::move(children)) : Node::or_(std::move(children));
  }

  /// Each attribute set with probability 5/6, to a value in [0, 7) or NaN.
  [[nodiscard]] std::vector<Event> events(std::mt19937_64& rng, std::size_t n) const {
    std::vector<Event> out(n);
    for (Event& e : out) {
      for (const AttributeId attr : attrs_) {
        if (rng() % 6 == 0) continue;
        if (rng() % 10 == 0) {
          e.set(attr, Value(std::numeric_limits<double>::quiet_NaN()));
        } else {
          e.set(attr, Value(static_cast<std::int64_t>(rng() % 7)));
        }
      }
    }
    return out;
  }

 private:
  Schema schema_;
  std::vector<AttributeId> attrs_;
  std::vector<Predicate> pool_;
};

enum class Oracle { Zero, One, NaN, Negative, AboveOne, Random, Adversarial };

/// Adversarial: a predicate's estimate is the complement of its real hit
/// rate on `sample` (often-fulfilled predicates look rare and the other
/// way round), and every third pool predicate reads NaN, -1 or 2 instead.
CountingMatcher::LeafEstimate make_oracle(Oracle kind, const AccessDomain& dom,
                                          const std::vector<Event>& sample,
                                          std::uint64_t seed) {
  switch (kind) {
    case Oracle::Zero: return [](const Predicate&) { return 0.0; };
    case Oracle::One: return [](const Predicate&) { return 1.0; };
    case Oracle::NaN:
      return [](const Predicate&) { return std::numeric_limits<double>::quiet_NaN(); };
    case Oracle::Negative: return [](const Predicate&) { return -1.0; };
    case Oracle::AboveOne: return [](const Predicate&) { return 2.0; };
    case Oracle::Random: {
      auto rng = std::make_shared<std::mt19937_64>(seed);
      return [rng](const Predicate&) {
        return std::uniform_real_distribution<double>(-0.1, 1.1)(*rng);
      };
    }
    case Oracle::Adversarial: {
      auto estimates = std::make_shared<std::vector<std::pair<Predicate, double>>>();
      for (std::size_t i = 0; i < dom.pool().size(); ++i) {
        const Predicate& p = dom.pool()[i];
        double hits = 0;
        for (const Event& e : sample) hits += p.matches(e) ? 1.0 : 0.0;
        static constexpr double kExtremes[] = {std::numeric_limits<double>::quiet_NaN(),
                                               -1.0, 2.0};
        estimates->emplace_back(
            p, i % 3 == 0 ? kExtremes[(i / 3) % 3] : 1.0 - hits / sample.size());
      }
      return [estimates](const Predicate& p) {
        for (const auto& [pred, estimate] : *estimates) {
          if (pred.equals(p)) return estimate;
        }
        return 0.5;  // NaN operands equal nothing
      };
    }
  }
  return {};
}

std::string oracle_name(Oracle kind) {
  static const char* const kNames[] = {"Zero",     "One",    "NaN",        "Negative",
                                       "AboveOne", "Random", "Adversarial"};
  return kNames[static_cast<int>(kind)];
}

/// Distinct pool predicates an event fulfils, summed over the live
/// subscriptions that use them — the bumps of counting every leaf.
std::uint64_t all_leaf_bumps(const std::vector<std::unique_ptr<Subscription>>& subs,
                             const std::vector<bool>& alive, const Event& e) {
  std::uint64_t bumps = 0;
  for (std::size_t i = 0; i < subs.size(); ++i) {
    if (!alive[i]) continue;
    std::vector<const Predicate*> seen;
    subs[i]->root().for_each_leaf([&](const Node& leaf) {
      const Predicate& p = leaf.predicate();
      const bool repeat = std::any_of(seen.begin(), seen.end(),
                                      [&](const Predicate* q) { return q->equals(p); });
      if (repeat) return;
      seen.push_back(&p);
      if (p.matches(e)) ++bumps;
    });
  }
  return bumps;
}

class AccessLeafEquivalence : public ::testing::TestWithParam<Oracle> {};

TEST_P(AccessLeafEquivalence, CountingEqualsNaiveThroughChurnAndRebinding) {
  // add -> reindex (fresh trees and prunings) -> remove -> rebind, checking
  // every delivery against direct evaluation, and that the access leaves
  // never bump more counters than counting every leaf would.
  const auto seed = 100 + static_cast<std::uint64_t>(GetParam());
  std::mt19937_64 rng(seed);
  const AccessDomain dom(rng);
  const std::vector<Event> sample = dom.events(rng, 200);
  CountingMatcher counting(dom.schema());
  counting.set_leaf_estimate(make_oracle(GetParam(), dom, sample, seed));
  NaiveMatcher naive;
  std::vector<std::unique_ptr<Subscription>> subs;
  std::vector<bool> alive;
  // Pruning works on stored trees only (simplified, constant-free), so
  // half of the trees are simplified first and only those get pruned.
  std::vector<bool> prunable;
  const auto tree = [&](bool simplified) {
    auto t = dom.tree(rng, 4);
    if (!simplified) return t;
    t = simplify(std::move(t));
    return t->is_constant() ? Node::leaf(dom.pool()[0]) : std::move(t);
  };
  const auto add_one = [&] {
    const auto id = SubscriptionId(static_cast<SubscriptionId::value_type>(subs.size()));
    const bool simplified = rng() % 2 == 0;
    subs.push_back(std::make_unique<Subscription>(id, tree(simplified)));
    alive.push_back(true);
    prunable.push_back(simplified);
    counting.add(*subs.back());
    naive.add(*subs.back());
  };
  const auto check = [&](std::size_t events, int round) {
    for (const Event& e : dom.events(rng, events)) {
      const std::uint64_t before = counting.counters().counter_increments;
      ASSERT_EQ(sorted_match(counting, e), sorted_match(naive, e)) << "round " << round;
      ASSERT_LE(counting.counters().counter_increments - before, all_leaf_bumps(subs, alive, e));
    }
  };
  for (int i = 0; i < 150; ++i) add_one();
  check(200, -1);

  for (int round = 0; round < 24; ++round) {
    for (int k = 0; k < 10; ++k) {
      const auto i = static_cast<std::size_t>(rng() % subs.size());
      if (!alive[i]) continue;
      Subscription& s = *subs[i];
      switch (rng() % 4) {
        case 0:
          counting.remove(s);
          naive.remove(s.id());
          alive[i] = false;
          break;
        case 1:
          prunable[i] = rng() % 2 == 0;
          s.replace_root(tree(prunable[i]));
          counting.reindex(s);
          break;
        default: {
          if (!prunable[i]) break;
          const auto candidates = enumerate_prunings(s.root());
          if (candidates.empty()) break;
          apply_pruning(s, candidates[rng() % candidates.size()]);
          counting.reindex(s);
        }
      }
    }
    for (int k = 0; k < 5; ++k) add_one();
    switch (round % 6) {
      case 1: counting.rechoose_access_sets(); break;
      case 3: counting.set_leaf_estimate({}); break;
      case 5: counting.set_leaf_estimate(make_oracle(GetParam(), dom, sample, seed + round)); break;
      default: break;
    }
    check(30, round);
  }

  for (std::size_t i = 0; i < subs.size(); ++i) {
    if (alive[i]) counting.remove(*subs[i]);
  }
  EXPECT_EQ(counting.subscription_count(), 0u);
  EXPECT_EQ(counting.live_predicates(), 0u);
  EXPECT_EQ(counting.association_count(), 0u);
}

TEST_P(AccessLeafEquivalence, BatchRowsEqualNaiveAtEveryWorkerCount) {
  const auto seed = 200 + static_cast<std::uint64_t>(GetParam());
  std::mt19937_64 rng(seed);
  const AccessDomain dom(rng);
  const std::vector<Event> events = dom.events(rng, 300);
  std::vector<std::unique_ptr<Subscription>> subs;
  NaiveMatcher naive;
  for (std::uint32_t i = 0; i < 200; ++i) {
    subs.push_back(std::make_unique<Subscription>(SubscriptionId(i), dom.tree(rng, 4)));
    naive.add(*subs.back());
  }
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ShardedEngine engine(dom.schema(), ShardedEngineOptions{workers});
    engine.counting_shard(0).set_leaf_estimate(make_oracle(GetParam(), dom, events, seed));
    for (auto& s : subs) engine.add(*s);
    const auto rows = engine.match_batch(events);
    ASSERT_EQ(rows.size(), events.size());
    for (std::size_t e = 0; e < events.size(); ++e) {
      ASSERT_EQ(rows[e], sorted_match(naive, events[e])) << workers << " workers, event " << e;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Oracles, AccessLeafEquivalence,
                         ::testing::Values(Oracle::Zero, Oracle::One, Oracle::NaN,
                                           Oracle::Negative, Oracle::AboveOne, Oracle::Random,
                                           Oracle::Adversarial),
                         [](const auto& info) { return oracle_name(info.param); });

}  // namespace
}  // namespace dbsp
