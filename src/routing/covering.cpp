#include "routing/covering.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace dbsp {

namespace {

/// Numeric interval view of an ordered predicate.
struct Interval {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_inclusive = true;
  bool hi_inclusive = true;
};

[[nodiscard]] std::optional<Interval> as_interval(const Predicate& p) {
  switch (p.op()) {
    case Op::Lt:
    case Op::Le:
      if (!p.operand().is_numeric()) return std::nullopt;
      return Interval{-std::numeric_limits<double>::infinity(),
                      p.operand().numeric(), true, p.op() == Op::Le};
    case Op::Gt:
    case Op::Ge:
      if (!p.operand().is_numeric()) return std::nullopt;
      return Interval{p.operand().numeric(),
                      std::numeric_limits<double>::infinity(), p.op() == Op::Ge,
                      true};
    case Op::Between:
      if (!p.operands()[0].is_numeric() || !p.operands()[1].is_numeric()) {
        return std::nullopt;
      }
      return Interval{p.operands()[0].numeric(), p.operands()[1].numeric(), true,
                      true};
    default:
      return std::nullopt;
  }
}

/// Is interval `inner` contained in `outer`?
[[nodiscard]] bool contained(const Interval& inner, const Interval& outer) {
  const bool lo_ok =
      outer.lo < inner.lo ||
      (outer.lo == inner.lo && (outer.lo_inclusive || !inner.lo_inclusive));
  const bool hi_ok =
      inner.hi < outer.hi ||
      (inner.hi == outer.hi && (outer.hi_inclusive || !inner.hi_inclusive));
  return lo_ok && hi_ok;
}

/// Finite satisfaction set of `p` if it has one (Eq, In, degenerate Between).
[[nodiscard]] std::optional<std::vector<const Value*>> finite_values(
    const Predicate& p) {
  switch (p.op()) {
    case Op::Eq:
      return std::vector<const Value*>{&p.operand()};
    case Op::In: {
      std::vector<const Value*> out;
      out.reserve(p.operands().size());
      for (const auto& v : p.operands()) out.push_back(&v);
      return out;
    }
    case Op::Between:
      if (p.operands()[0].equals(p.operands()[1])) {
        return std::vector<const Value*>{&p.operands()[0]};
      }
      return std::nullopt;
    default:
      return std::nullopt;
  }
}

[[nodiscard]] bool is_substring(const std::string& needle, const std::string& hay) {
  return hay.find(needle) != std::string::npos;
}
[[nodiscard]] bool is_prefix(const std::string& pre, const std::string& s) {
  return s.size() >= pre.size() && s.compare(0, pre.size(), pre) == 0;
}
[[nodiscard]] bool is_suffix(const std::string& suf, const std::string& s) {
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

/// Whether every numeric comparison behind `p` and `q` is exact: their
/// numeric operands share one type, and Int operands convert to double
/// without rounding. Value compares Int with Double through double, which
/// rounds past 2^53 (2^53 + 1 equals 2^53.0, which equals 2^53), so with
/// mixed or huge operands interval containment stops implying matching.
[[nodiscard]] bool exact_numerics(const Predicate& p, const Predicate& q) {
  constexpr std::int64_t kExact = std::int64_t{1} << 53;
  bool ints = false;
  bool doubles = false;
  for (const Predicate* pred : {&p, &q}) {
    for (const Value& v : pred->operands()) {
      if (v.type() == ValueType::Int) {
        if (v.as_int() > kExact || v.as_int() < -kExact) return false;
        ints = true;
      } else if (v.type() == ValueType::Double) {
        doubles = true;
      }
    }
  }
  return !(ints && doubles);
}

}  // namespace

bool implies(const Predicate& p, const Predicate& q) {
  if (p.attribute() != q.attribute()) return false;
  // Before equals(), which compares operands the same rounding way.
  if (!exact_numerics(p, q)) return false;  // sound: implication not shown
  if (p.equals(q)) return true;

  // Finite p: check every satisfying value against q — exact and complete.
  if (const auto values = finite_values(p)) {
    return std::all_of(values->begin(), values->end(),
                       [&](const Value* v) { return q.matches_value(*v); });
  }

  // q = Ne(v): p implies q iff v is outside p's satisfaction set. Testing
  // p.matches_value(v) decides that exactly for every p we support.
  if (q.op() == Op::Ne) return !p.matches_value(q.operand());

  // Ordered predicates: interval containment.
  const auto pi = as_interval(p);
  const auto qi = as_interval(q);
  if (pi && qi) return contained(*pi, *qi);

  // String operators: the pattern of q must be guaranteed by p's pattern.
  const auto& qop = q.op();
  if (p.op() == Op::Prefix) {
    const auto& s = p.operand().as_string();
    if (qop == Op::Prefix) return is_prefix(q.operand().as_string(), s);
    if (qop == Op::Contains) return is_substring(q.operand().as_string(), s);
  }
  if (p.op() == Op::Suffix) {
    const auto& s = p.operand().as_string();
    if (qop == Op::Suffix) return is_suffix(q.operand().as_string(), s);
    if (qop == Op::Contains) return is_substring(q.operand().as_string(), s);
  }
  if (p.op() == Op::Contains && qop == Op::Contains) {
    return is_substring(q.operand().as_string(), p.operand().as_string());
  }
  return false;  // sound: implication not shown
}

bool is_conjunctive(const Node& node) {
  if (node.kind() == NodeKind::Leaf) return true;
  if (node.kind() != NodeKind::And) return false;
  return std::all_of(node.children().begin(), node.children().end(),
                     [](const auto& c) { return c->kind() == NodeKind::Leaf; });
}

std::vector<const Predicate*> conjuncts(const Node& node) {
  std::vector<const Predicate*> out;
  if (node.kind() == NodeKind::Leaf) {
    out.push_back(&node.predicate());
    return out;
  }
  for (const auto& c : node.children()) out.push_back(&c->predicate());
  return out;
}

std::optional<bool> covers(const Node& a, const Node& b) {
  if (!is_conjunctive(a) || !is_conjunctive(b)) return std::nullopt;
  const auto needs = conjuncts(a);
  const auto haves = conjuncts(b);
  // a covers b iff every constraint of a is already enforced by b.
  return std::all_of(needs.begin(), needs.end(), [&](const Predicate* qa) {
    return std::any_of(haves.begin(), haves.end(),
                       [&](const Predicate* pb) { return implies(*pb, *qa); });
  });
}

}  // namespace dbsp
