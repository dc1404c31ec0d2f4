#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "subscription/predicate.hpp"

namespace dbsp {

/// Kind of a subscription tree node. True/False only appear transiently
/// while pruning/simplifying; stored subscription trees are constant-free.
enum class NodeKind : std::uint8_t { Leaf, And, Or, Not, True, False };

/// A node of a Boolean subscription tree. Leaves carry predicates; inner
/// nodes are And/Or (n-ary, n >= 2 after simplification) or Not (unary).
/// Trees are owned top-down through unique_ptr, per Core Guidelines R.20/21.
class Node {
 public:
  /// Path from the root to a node: child indices at each level. Used by the
  /// pruning engine to address nodes without holding raw pointers across
  /// mutations.
  using Path = std::vector<std::uint32_t>;

  static std::unique_ptr<Node> leaf(Predicate pred);
  static std::unique_ptr<Node> and_(std::vector<std::unique_ptr<Node>> children);
  static std::unique_ptr<Node> or_(std::vector<std::unique_ptr<Node>> children);
  static std::unique_ptr<Node> not_(std::unique_ptr<Node> child);
  static std::unique_ptr<Node> constant(bool value);

  [[nodiscard]] NodeKind kind() const { return kind_; }
  [[nodiscard]] bool is_constant() const {
    return kind_ == NodeKind::True || kind_ == NodeKind::False;
  }

  [[nodiscard]] const Predicate& predicate() const { return *pred_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Node>>& children() const {
    return children_;
  }
  [[nodiscard]] std::vector<std::unique_ptr<Node>>& children() { return children_; }

  [[nodiscard]] std::unique_ptr<Node> clone() const;

  /// Resolves a path; returns nullptr if the path does not exist.
  [[nodiscard]] const Node* resolve(const Path& path) const;
  [[nodiscard]] Node* resolve(const Path& path);

  /// Evaluates the tree; `leaf_fulfilled(const Node&)` reports whether a
  /// leaf's predicate is fulfilled by the current event. And/Or
  /// short-circuit.
  template <typename LeafFn>
  [[nodiscard]] bool evaluate(const LeafFn& leaf_fulfilled) const {
    switch (kind_) {
      case NodeKind::Leaf: return leaf_fulfilled(*this);
      case NodeKind::And:
        for (const auto& c : children_) {
          if (!c->evaluate(leaf_fulfilled)) return false;
        }
        return true;
      case NodeKind::Or:
        for (const auto& c : children_) {
          if (c->evaluate(leaf_fulfilled)) return true;
        }
        return false;
      case NodeKind::Not: return !children_[0]->evaluate(leaf_fulfilled);
      case NodeKind::True: return true;
      case NodeKind::False: return false;
    }
    return false;
  }

  /// Evaluates directly against an event (no index; used by the naive
  /// matcher and correctness tests).
  [[nodiscard]] bool evaluate_event(const Event& event) const;

  // --- Tree metrics -------------------------------------------------------

  /// Deterministic model size in bytes of the subtree (mem≈ of §3.2):
  /// 16 bytes per node + 8 per child slot + predicate payload at leaves.
  [[nodiscard]] std::size_t size_bytes() const;

  /// Minimal number of fulfilled predicates needed to satisfy the subtree
  /// (pmin of §3.3). Leaf=1, And=sum, Or=min, Not=0 (can be satisfied by
  /// absence of matches), True=0, False=saturated max.
  [[nodiscard]] std::uint32_t pmin() const;
  static constexpr std::uint32_t kPminUnsatisfiable =
      std::numeric_limits<std::uint32_t>::max();

  [[nodiscard]] std::size_t leaf_count() const;
  [[nodiscard]] std::size_t node_count() const;

  /// Visits every leaf (pre-order).
  void for_each_leaf(const std::function<void(const Node&)>& fn) const;

  /// Structural equality (same shape, same predicates).
  [[nodiscard]] bool equals(const Node& other) const;

  [[nodiscard]] std::string to_string(const Schema& schema) const;

 private:
  Node() = default;

  NodeKind kind_ = NodeKind::True;
  std::unique_ptr<Predicate> pred_;  // Leaf only
  std::vector<std::unique_ptr<Node>> children_;
};

/// Simplifies a tree: folds constants, eliminates Not(Not(x)), flattens
/// nested And/And and Or/Or, hoists single-child And/Or. Returns the
/// simplified tree (which may be a constant node if the whole expression
/// folded away). Consumes the input; every node it does not change is
/// kept, so an already simplified tree comes back as the same root.
[[nodiscard]] std::unique_ptr<Node> simplify(std::unique_ptr<Node> node);

/// True when simplify() has nothing to do: no constant below the root, no
/// Not(Not(x)), no And/Or with one child or a child of its own kind.
[[nodiscard]] bool is_simplified(const Node& node);

}  // namespace dbsp
