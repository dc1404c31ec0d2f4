#include "subscription/node.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace dbsp {

std::unique_ptr<Node> Node::leaf(Predicate pred) {
  auto n = std::unique_ptr<Node>(new Node());
  n->kind_ = NodeKind::Leaf;
  n->pred_ = std::make_unique<Predicate>(std::move(pred));
  return n;
}

std::unique_ptr<Node> Node::and_(std::vector<std::unique_ptr<Node>> children) {
  if (children.empty()) throw std::invalid_argument("and: no children");
  auto n = std::unique_ptr<Node>(new Node());
  n->kind_ = NodeKind::And;
  n->children_ = std::move(children);
  return n;
}

std::unique_ptr<Node> Node::or_(std::vector<std::unique_ptr<Node>> children) {
  if (children.empty()) throw std::invalid_argument("or: no children");
  auto n = std::unique_ptr<Node>(new Node());
  n->kind_ = NodeKind::Or;
  n->children_ = std::move(children);
  return n;
}

std::unique_ptr<Node> Node::not_(std::unique_ptr<Node> child) {
  if (!child) throw std::invalid_argument("not: no child");
  auto n = std::unique_ptr<Node>(new Node());
  n->kind_ = NodeKind::Not;
  n->children_.push_back(std::move(child));
  return n;
}

std::unique_ptr<Node> Node::constant(bool value) {
  auto n = std::unique_ptr<Node>(new Node());
  n->kind_ = value ? NodeKind::True : NodeKind::False;
  return n;
}

std::unique_ptr<Node> Node::clone() const {
  auto n = std::unique_ptr<Node>(new Node());
  n->kind_ = kind_;
  if (pred_) n->pred_ = std::make_unique<Predicate>(*pred_);
  n->children_.reserve(children_.size());
  for (const auto& c : children_) n->children_.push_back(c->clone());
  return n;
}

const Node* Node::resolve(const Path& path) const {
  const Node* cur = this;
  for (const auto idx : path) {
    if (idx >= cur->children_.size()) return nullptr;
    cur = cur->children_[idx].get();
  }
  return cur;
}

Node* Node::resolve(const Path& path) {
  return const_cast<Node*>(static_cast<const Node*>(this)->resolve(path));
}

bool Node::evaluate_event(const Event& event) const {
  return evaluate([&](const Node& leaf) { return leaf.predicate().matches(event); });
}

std::size_t Node::size_bytes() const {
  std::size_t bytes = 16 + 8 * children_.size();
  if (kind_ == NodeKind::Leaf) bytes += pred_->size_bytes();
  for (const auto& c : children_) bytes += c->size_bytes();
  return bytes;
}

std::uint32_t Node::pmin() const {
  switch (kind_) {
    case NodeKind::Leaf: return 1;
    case NodeKind::Not: return 0;
    case NodeKind::True: return 0;
    case NodeKind::False: return kPminUnsatisfiable;
    case NodeKind::And: {
      std::uint64_t sum = 0;
      for (const auto& c : children_) {
        const std::uint32_t p = c->pmin();
        if (p == kPminUnsatisfiable) return kPminUnsatisfiable;
        sum += p;
      }
      return sum >= kPminUnsatisfiable ? kPminUnsatisfiable
                                       : static_cast<std::uint32_t>(sum);
    }
    case NodeKind::Or: {
      std::uint32_t best = kPminUnsatisfiable;
      for (const auto& c : children_) best = std::min(best, c->pmin());
      return best;
    }
  }
  return 0;
}

std::size_t Node::leaf_count() const {
  if (kind_ == NodeKind::Leaf) return 1;
  std::size_t n = 0;
  for (const auto& c : children_) n += c->leaf_count();
  return n;
}

std::size_t Node::node_count() const {
  std::size_t n = 1;
  for (const auto& c : children_) n += c->node_count();
  return n;
}

void Node::for_each_leaf(const std::function<void(const Node&)>& fn) const {
  if (kind_ == NodeKind::Leaf) {
    fn(*this);
    return;
  }
  for (const auto& c : children_) c->for_each_leaf(fn);
}

bool Node::equals(const Node& other) const {
  if (kind_ != other.kind_ || children_.size() != other.children_.size()) return false;
  if (kind_ == NodeKind::Leaf) return pred_->equals(*other.pred_);
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->equals(*other.children_[i])) return false;
  }
  return true;
}

std::string Node::to_string(const Schema& schema) const {
  std::ostringstream os;
  switch (kind_) {
    case NodeKind::Leaf: os << pred_->to_string(schema); break;
    case NodeKind::True: os << "true"; break;
    case NodeKind::False: os << "false"; break;
    case NodeKind::Not: os << "not (" << children_[0]->to_string(schema) << ')'; break;
    case NodeKind::And:
    case NodeKind::Or: {
      const char* sep = kind_ == NodeKind::And ? " and " : " or ";
      os << '(';
      for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i != 0) os << sep;
        os << children_[i]->to_string(schema);
      }
      os << ')';
      break;
    }
  }
  return os.str();
}

namespace {

/// Appends `child` to `out`, splicing in grandchildren when `child` has the
/// same associative kind (And/And, Or/Or flattening).
void flatten_into(std::vector<std::unique_ptr<Node>>& out,
                  std::unique_ptr<Node> child, NodeKind kind) {
  if (child->kind() == kind) {
    for (auto& gc : child->children()) flatten_into(out, std::move(gc), kind);
  } else {
    out.push_back(std::move(child));
  }
}

}  // namespace

bool is_simplified(const Node& node) {
  const auto below = [&node](const std::unique_ptr<Node>& child) {
    return !child->is_constant() && child->kind() != node.kind() &&
           is_simplified(*child);
  };
  switch (node.kind()) {
    case NodeKind::Leaf:
    case NodeKind::True:
    case NodeKind::False:
      return true;
    case NodeKind::Not:
      return below(node.children()[0]);
    case NodeKind::And:
    case NodeKind::Or:
      return node.children().size() > 1 &&
             std::all_of(node.children().begin(), node.children().end(), below);
  }
  return true;
}

std::unique_ptr<Node> simplify(std::unique_ptr<Node> node) {
  // Children are simplified in their slots, and a node whose children need
  // no folding, flattening or hoisting is returned itself: an already
  // simplified tree allocates nothing.
  switch (node->kind()) {
    case NodeKind::Leaf:
    case NodeKind::True:
    case NodeKind::False:
      return node;
    case NodeKind::Not: {
      std::unique_ptr<Node>& child = node->children()[0];
      child = simplify(std::move(child));
      if (child->kind() == NodeKind::True) return Node::constant(false);
      if (child->kind() == NodeKind::False) return Node::constant(true);
      if (child->kind() == NodeKind::Not) return std::move(child->children()[0]);
      return node;
    }
    case NodeKind::And:
    case NodeKind::Or: {
      const NodeKind kind = node->kind();
      const bool is_and = kind == NodeKind::And;
      const NodeKind absorbing = is_and ? NodeKind::False : NodeKind::True;
      const NodeKind neutral = is_and ? NodeKind::True : NodeKind::False;
      std::vector<std::unique_ptr<Node>>& children = node->children();
      bool reshape = false;  // a neutral child to drop or one to flatten
      for (auto& c : children) {
        c = simplify(std::move(c));
        if (c->kind() == absorbing) return Node::constant(!is_and);
        reshape = reshape || c->kind() == neutral || c->kind() == kind;
      }
      if (reshape) {
        std::vector<std::unique_ptr<Node>> kept;
        kept.reserve(children.size());
        for (auto& c : children) {
          if (c->kind() != neutral) flatten_into(kept, std::move(c), kind);
        }
        children = std::move(kept);
      }
      if (children.empty()) return Node::constant(is_and);
      if (children.size() == 1) return std::move(children.front());
      return node;
    }
  }
  return node;
}

}  // namespace dbsp
