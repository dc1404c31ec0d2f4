#include "core/candidates.hpp"

#include <algorithm>
#include <stdexcept>

namespace dbsp {

namespace {

/// Does `parent` behave conjunctively for children in polarity `positive`?
/// (AND in positive polarity; OR under an odd number of NOTs, where by
/// De Morgan it acts as a conjunction.)
[[nodiscard]] bool conjunctive(const Node& parent, bool positive) {
  return (parent.kind() == NodeKind::And && positive) ||
         (parent.kind() == NodeKind::Or && !positive);
}

/// Writes the walk's current path over the next candidate entry, reusing
/// that entry's capacity.
void emit(CandidateBuffer& out) {
  if (out.size == out.paths.size()) out.paths.emplace_back();
  out.paths[out.size++].assign(out.prefix.begin(), out.prefix.end());
}

/// Emits the candidates inside `node` in pre-order and returns
/// internal_prunings(node, positive). A child's bottom-up validity needs its
/// own count, so it is emitted after its subtree was walked; its subtree
/// emitted nothing then (save below an unsimplified single-child And/Or,
/// where a rotation restores pre-order).
std::size_t enumerate_walk(const Node& node, bool positive, bool bottom_up,
                           CandidateBuffer& out) {
  const bool child_positive = node.kind() == NodeKind::Not ? !positive : positive;
  const bool conj = conjunctive(node, child_positive);
  std::size_t total = 0;
  for (std::uint32_t i = 0; i < node.children().size(); ++i) {
    out.prefix.push_back(i);
    const std::size_t mark = out.size;
    if (conj && !bottom_up) emit(out);
    const std::size_t inside =
        enumerate_walk(*node.children()[i], child_positive, bottom_up, out);
    if (conj && bottom_up && inside == 0) {
      emit(out);
      if (out.size - 1 > mark) {
        const auto first = out.paths.begin() + static_cast<std::ptrdiff_t>(mark);
        const auto last = out.paths.begin() + static_cast<std::ptrdiff_t>(out.size);
        std::rotate(first, last - 1, last);
      }
    }
    total += inside;
    out.prefix.pop_back();
  }
  // Every child of a conjunctive node can be removed itself, except the
  // last one standing.
  if (conj) total += node.children().size() - 1;
  return total;
}

/// The parent of the node `path` addresses and that node's polarity; a
/// null parent unless the node is a prunable child.
template <class N>  // Node or const Node
struct Target {
  N* parent = nullptr;
  bool positive = true;
};

template <class N>
Target<N> locate(N& root, const Node::Path& path) {
  if (path.empty()) return {};  // the root itself is never pruned
  N* parent = &root;
  bool positive = true;
  for (std::size_t i = 0;; ++i) {
    if (parent->kind() == NodeKind::Not) positive = !positive;
    if (path[i] >= parent->children().size()) return {};
    if (i + 1 == path.size()) break;
    parent = parent->children()[path[i]].get();
  }
  if (!conjunctive(*parent, positive)) return {};
  return {parent, positive};
}

/// The pruning operator (§3): the prunable child at `path` becomes the
/// generalizing constant — TRUE in positive polarity, FALSE in negative —
/// and the tree is simplified in place.
std::unique_ptr<Node> prune(std::unique_ptr<Node> root, const Node::Path& path) {
  const Target<Node> target = locate(*root, path);
  target.parent->children()[path.back()] = Node::constant(target.positive);
  return simplify(std::move(root));
}

void check_target(const Node& root, const Node::Path& path) {
  if (!is_prunable_child(root, path)) {
    throw std::invalid_argument("pruning: target is not a prunable child");
  }
}

constexpr const char* kCollapsed = "pruning: tree collapsed to a constant";

}  // namespace

std::size_t internal_prunings(const Node& node, bool positive) {
  switch (node.kind()) {
    case NodeKind::Leaf:
    case NodeKind::True:
    case NodeKind::False:
      return 0;
    case NodeKind::Not:
      return internal_prunings(*node.children()[0], !positive);
    case NodeKind::And:
    case NodeKind::Or: {
      const bool conj = conjunctive(node, positive);
      std::size_t total = 0;
      for (const auto& c : node.children()) total += internal_prunings(*c, positive);
      if (conj) {
        // Every child can additionally be removed itself, except the last
        // one standing.
        total += node.children().size() - 1;
      }
      return total;
    }
  }
  return 0;
}

std::vector<Node::Path> enumerate_prunings(const Node& root, bool bottom_up) {
  CandidateBuffer out;
  (void)enumerate_prunings(root, bottom_up, out);
  out.paths.resize(out.size);
  return std::move(out.paths);
}

std::size_t enumerate_prunings(const Node& root, bool bottom_up, CandidateBuffer& out) {
  out.size = 0;
  out.prefix.clear();
  return enumerate_walk(root, /*positive=*/true, bottom_up, out);
}

bool is_prunable_child(const Node& root, const Node::Path& path) {
  return locate(root, path).parent != nullptr;
}

std::unique_ptr<Node> simulate_pruning(const Node& root, const Node::Path& path) {
  check_target(root, path);
  auto pruned = prune(root.clone(), path);
  // Unreachable for valid targets; guard against future operator changes.
  if (pruned->is_constant()) throw std::logic_error(kCollapsed);
  return pruned;
}

void apply_pruning(Subscription& sub, const Node::Path& path) {
  check_target(sub.root(), path);
  sub.replace_root(prune(sub.release_root(), path));
  if (sub.root().is_constant()) throw std::logic_error(kCollapsed);
}

}  // namespace dbsp
