#pragma once

// Shared helpers for the dbsp test suite: a compact numeric schema, terse
// tree builders, seeded random generators for subscription trees and
// events used by the property tests, and a scoped scratch directory.

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <system_error>
#include <vector>

#include "event/event.hpp"
#include "event/schema.hpp"
#include "subscription/node.hpp"
#include "subscription/predicate.hpp"
#include "subscription/subscription.hpp"

namespace dbsp::test {

/// A scratch directory under the system temp directory, unique per process
/// and instance, removed (with everything in it) on scope exit. It is not
/// created: PubSub::open and the store create a missing directory.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<std::uint64_t> counter{0};
    path_ = std::filesystem::temp_directory_path() /
            ("dbsp_" + tag + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    std::filesystem::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// A small all-numeric schema: attributes a0..a{n-1}, each Int with values
/// drawn from [0, domain). Numeric domains make it easy to construct
/// predicates of any operator with known selectivity.
class MiniDomain {
 public:
  explicit MiniDomain(std::size_t attrs = 6, std::int64_t domain = 20)
      : domain_(domain) {
    for (std::size_t i = 0; i < attrs; ++i) {
      ids_.push_back(schema_.add_attribute("a" + std::to_string(i), ValueType::Int));
    }
  }

  [[nodiscard]] const Schema& schema() const { return schema_; }
  [[nodiscard]] AttributeId attr(std::size_t i) const { return ids_.at(i); }
  [[nodiscard]] std::size_t attr_count() const { return ids_.size(); }
  [[nodiscard]] std::int64_t domain() const { return domain_; }

  /// Random event with every attribute set uniformly in [0, domain).
  [[nodiscard]] Event random_event(std::mt19937_64& rng) const {
    Event e;
    std::uniform_int_distribution<std::int64_t> dist(0, domain_ - 1);
    for (const auto id : ids_) e.set(id, Value(dist(rng)));
    return e;
  }

  [[nodiscard]] std::vector<Event> random_events(std::mt19937_64& rng,
                                                 std::size_t n) const {
    std::vector<Event> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(random_event(rng));
    return out;
  }

  /// Random comparison predicate over a random attribute.
  [[nodiscard]] Predicate random_predicate(std::mt19937_64& rng) const {
    std::uniform_int_distribution<std::size_t> attr_dist(0, ids_.size() - 1);
    std::uniform_int_distribution<std::int64_t> val_dist(0, domain_ - 1);
    std::uniform_int_distribution<int> op_dist(0, 6);
    const AttributeId attr = ids_[attr_dist(rng)];
    switch (op_dist(rng)) {
      case 0: return Predicate(attr, Op::Eq, Value(val_dist(rng)));
      case 1: return Predicate(attr, Op::Ne, Value(val_dist(rng)));
      case 2: return Predicate(attr, Op::Lt, Value(val_dist(rng)));
      case 3: return Predicate(attr, Op::Le, Value(val_dist(rng)));
      case 4: return Predicate(attr, Op::Gt, Value(val_dist(rng)));
      case 5: return Predicate(attr, Op::Ge, Value(val_dist(rng)));
      default: {
        const auto lo = val_dist(rng);
        const auto hi = val_dist(rng);
        return Predicate(attr, Value(std::min(lo, hi)), Value(std::max(lo, hi)));
      }
    }
  }

  /// Random Boolean tree with `leaves` predicate leaves. `not_prob` wraps
  /// subtrees in NOT with that probability. The returned tree is simplified
  /// and guaranteed non-constant.
  [[nodiscard]] std::unique_ptr<Node> random_tree(std::mt19937_64& rng,
                                                  std::size_t leaves,
                                                  double not_prob = 0.0) const {
    auto tree = simplify(random_subtree(rng, leaves, not_prob));
    if (tree->is_constant()) {
      return Node::leaf(random_predicate(rng));  // degenerate fallback
    }
    return tree;
  }

 private:
  [[nodiscard]] std::unique_ptr<Node> random_subtree(std::mt19937_64& rng,
                                                     std::size_t leaves,
                                                     double not_prob) const {
    std::unique_ptr<Node> result;
    if (leaves <= 1) {
      result = Node::leaf(random_predicate(rng));
    } else {
      // Split the leaf budget into 2..min(4, leaves) children.
      std::uniform_int_distribution<std::size_t> arity_dist(
          2, std::min<std::size_t>(4, leaves));
      const std::size_t arity = arity_dist(rng);
      std::vector<std::size_t> budget(arity, 1);
      for (std::size_t extra = leaves - arity; extra > 0; --extra) {
        std::uniform_int_distribution<std::size_t> pick(0, arity - 1);
        ++budget[pick(rng)];
      }
      std::vector<std::unique_ptr<Node>> children;
      children.reserve(arity);
      for (const std::size_t b : budget) {
        children.push_back(random_subtree(rng, b, not_prob));
      }
      const bool is_and = std::bernoulli_distribution(0.55)(rng);
      result = is_and ? Node::and_(std::move(children))
                      : Node::or_(std::move(children));
    }
    if (std::bernoulli_distribution(not_prob)(rng)) {
      result = Node::not_(std::move(result));
    }
    return result;
  }

  Schema schema_;
  std::vector<AttributeId> ids_;
  std::int64_t domain_;
};

/// A value for one of `dom`'s attributes as an Int or as the Double equal
/// to it; one in twenty is NaN and one in twenty lies at 2^53 or just past
/// it, where an Int and a Double can no longer be equal.
[[nodiscard]] inline Value mixed_numeric(const MiniDomain& dom, std::mt19937_64& rng) {
  constexpr std::int64_t kTwoPow53 = std::int64_t{1} << 53;
  switch (rng() % 20) {
    case 0: return Value(std::numeric_limits<double>::quiet_NaN());
    case 1: {
      const std::int64_t big = kTwoPow53 + static_cast<std::int64_t>(rng() % 3);
      return rng() % 2 == 0 ? Value(big) : Value(static_cast<double>(big));
    }
    default: break;
  }
  const auto v = std::uniform_int_distribution<std::int64_t>(0, dom.domain() - 1)(rng);
  return rng() % 2 == 0 ? Value(v) : Value(static_cast<double>(v));
}

/// A random tree over `dom` whose leaves are mostly Eq on mixed_numeric()
/// operands, with Ands more likely than Ors and an occasional Not: the
/// trees composite equality keys group. Simplified and non-constant.
[[nodiscard]] inline std::unique_ptr<Node> eq_heavy_tree(const MiniDomain& dom,
                                                         std::mt19937_64& rng,
                                                         std::size_t leaves) {
  const auto leaf = [&] {
    if (rng() % 4 == 0) return Node::leaf(dom.random_predicate(rng));
    return Node::leaf(Predicate(dom.attr(rng() % dom.attr_count()), Op::Eq, mixed_numeric(dom, rng)));
  };
  const std::function<std::unique_ptr<Node>(std::size_t)> subtree = [&](std::size_t n) {
    std::unique_ptr<Node> node;
    if (n <= 1) {
      node = leaf();
    } else {
      const std::size_t arity = 2 + rng() % std::min<std::size_t>(3, n - 1);
      std::vector<std::size_t> budget(arity, 1);
      for (std::size_t extra = n - arity; extra > 0; --extra) ++budget[rng() % arity];
      std::vector<std::unique_ptr<Node>> children;
      for (const std::size_t b : budget) children.push_back(subtree(b));
      node = rng() % 10 < 7 ? Node::and_(std::move(children)) : Node::or_(std::move(children));
    }
    if (rng() % 10 == 0) node = Node::not_(std::move(node));
    return node;
  };
  auto tree = simplify(subtree(leaves));
  return tree->is_constant() ? leaf() : std::move(tree);
}

/// An event over `dom` with mixed_numeric() values, leaving each attribute
/// out one time in eight.
[[nodiscard]] inline Event mixed_event(const MiniDomain& dom, std::mt19937_64& rng) {
  Event e;
  for (std::size_t i = 0; i < dom.attr_count(); ++i) {
    if (rng() % 8 != 0) e.set(dom.attr(i), mixed_numeric(dom, rng));
  }
  return e;
}

/// A randomly generated subscription corpus with dense ids 0..n-1.
struct Corpus {
  std::vector<std::unique_ptr<Subscription>> subs;

  [[nodiscard]] std::vector<Subscription*> pointers() const {
    std::vector<Subscription*> out;
    out.reserve(subs.size());
    for (const auto& s : subs) out.push_back(s.get());
    return out;
  }
};

/// Random corpus of `n` subscriptions over `dom`, each with 1..max_leaves
/// predicate leaves and NOT nodes with probability `not_prob`.
[[nodiscard]] inline Corpus make_corpus(const MiniDomain& dom, std::mt19937_64& rng,
                                        std::size_t n, double not_prob,
                                        std::size_t max_leaves = 9) {
  Corpus c;
  std::uniform_int_distribution<std::size_t> leaves(1, max_leaves);
  for (std::size_t i = 0; i < n; ++i) {
    c.subs.push_back(std::make_unique<Subscription>(
        SubscriptionId(static_cast<SubscriptionId::value_type>(i)),
        dom.random_tree(rng, leaves(rng), not_prob)));
  }
  return c;
}

/// Deep copy of a corpus (same ids, cloned trees), so the same logical
/// corpus can be registered with several engines that each own, and may
/// prune, their copy.
[[nodiscard]] inline Corpus clone_corpus(const Corpus& corpus) {
  Corpus c;
  c.subs.reserve(corpus.subs.size());
  for (const auto& s : corpus.subs) {
    c.subs.push_back(std::make_unique<Subscription>(s->id(), s->root().clone()));
  }
  return c;
}

/// Set of events matched by a tree — for superset/equivalence assertions.
[[nodiscard]] inline std::vector<std::size_t> matching_indices(
    const Node& tree, const std::vector<Event>& events) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (tree.evaluate_event(events[i])) out.push_back(i);
  }
  return out;
}

/// True iff `sub` (indices of a matching set) is a subset of `super`.
[[nodiscard]] inline bool is_subset(const std::vector<std::size_t>& sub,
                                    const std::vector<std::size_t>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

}  // namespace dbsp::test
