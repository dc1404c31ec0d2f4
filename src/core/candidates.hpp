#pragma once

/// \file
/// Enumeration and application of candidate prunings on subscription trees.
/// All functions here are free of hidden state: the const-input ones
/// (internal_prunings, enumerate_prunings, is_prunable_child,
/// simulate_pruning) are safe to call concurrently on trees no thread is
/// mutating; apply_pruning mutates its subscription and needs external
/// synchronization with readers of the same tree.

#include <memory>
#include <span>
#include <vector>

#include "subscription/node.hpp"
#include "subscription/subscription.hpp"

namespace dbsp {

/// Candidate enumeration and the pruning operator (paper §3).
///
/// A pruning replaces the subtree at a node by the generalizing constant —
/// TRUE in positive polarity (even number of NOT ancestors), FALSE in
/// negative polarity — and simplifies. A node is a *prunable child* iff its
/// parent behaves conjunctively in the node's polarity (AND in positive,
/// OR in negative): only there does the replacement generalize the filter.
/// With the bottom-up restriction (paper §3.2) a pruning is *valid* iff
/// additionally no valid pruning exists inside the node's subtree, which
/// makes the number of prunings to exhaustion order-invariant.

/// Number of prunings inside the subtree rooted at `node` (excluding the
/// removal of `node` itself), assuming the bottom-up restriction. For the
/// root this is the subscription's total pruning capacity: the paper's
/// denominator for the "proportional number of prunings" axis.
[[nodiscard]] std::size_t internal_prunings(const Node& node, bool positive = true);

/// Paths of all currently valid prunings. `bottom_up` enforces the
/// restriction of §3.2 (on by default; off only for the ablation study).
[[nodiscard]] std::vector<Node::Path> enumerate_prunings(const Node& root,
                                                         bool bottom_up = true);

/// Candidate paths written into reused storage: the first `size` entries of
/// `paths` are the candidates; the entries past them keep their capacity
/// for the next enumeration, so a warm buffer allocates nothing.
struct CandidateBuffer {
  std::vector<Node::Path> paths;
  std::size_t size = 0;
  Node::Path prefix;  ///< the walk's current path

  [[nodiscard]] std::span<const Node::Path> candidates() const {
    return {paths.data(), size};
  }
};

/// enumerate_prunings() into `out`, in the same order, in one post-order
/// pass that also sums every node's internal prunings. Returns
/// internal_prunings(root), the tree's pruning capacity.
std::size_t enumerate_prunings(const Node& root, bool bottom_up, CandidateBuffer& out);

/// True iff `path` addresses a prunable child (parent conjunctive in the
/// node's polarity). Does not check the bottom-up restriction.
[[nodiscard]] bool is_prunable_child(const Node& root, const Node::Path& path);

/// Returns a copy of `root` with the node at `path` pruned and the tree
/// simplified: apply_pruning() on a clone. Throws std::invalid_argument for
/// an invalid target. The result is never a constant (pruning a prunable
/// child of an n>=2-ary conjunctive node cannot collapse the tree).
/// Candidates are priced without it (HeuristicScorer), to the same bits.
[[nodiscard]] std::unique_ptr<Node> simulate_pruning(const Node& root,
                                                     const Node::Path& path);

/// Applies a pruning in place: swaps the target for its generalizing
/// constant in the live tree and simplifies it, reusing every node it does
/// not change (bumps the subscription's generation). An invalid target
/// throws std::invalid_argument and leaves the tree and its generation
/// untouched. Should the tree collapse to a constant (unreachable for the
/// simplified trees subscriptions hold), the constant is installed and
/// std::logic_error thrown: the subscription always keeps a tree.
void apply_pruning(Subscription& sub, const Node::Path& path);

}  // namespace dbsp
