#include "agg/summary.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace dbsp::agg {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Categorical summaries store numeric values canonicalized to Double so
/// that cross-type numeric equality (Int 5 == Double 5.0) collapses to key
/// equality — required for sound set intersection and membership tests.
Value canonical(const Value& v) { return v.is_numeric() ? Value(v.numeric()) : v; }

bool key_less_fn(const Value& a, const Value& b) { return a.key_less(b); }

/// Sorts by lo and merges overlapping segments in place.
void normalize(std::vector<DimensionSummary::Interval>& intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const DimensionSummary::Interval& a, const DimensionSummary::Interval& b) {
              return a.lo < b.lo;
            });
  std::size_t out = 0;
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    if (out > 0 && intervals[i].lo <= intervals[out - 1].hi) {
      intervals[out - 1].hi = std::max(intervals[out - 1].hi, intervals[i].hi);
    } else {
      intervals[out++] = intervals[i];
    }
  }
  intervals.resize(out);
}

/// Coarse bucket of a numeric endpoint for subgroup signatures: sign,
/// binary exponent and the top three mantissa bits. Values within ~12% of
/// each other usually share a bucket, so near-identical range constraints
/// cluster together. `shift` coarsens the bucket ladder one power of two
/// per step: shifts 1-3 drop the mantissa bits, further shifts drop low
/// exponent bits, and at kMaxSignatureShift every endpoint shares one
/// bucket.
std::uint64_t quantize(double x, unsigned shift) {
  if (shift >= DimensionSummary::kMaxSignatureShift) return 1;
  if (x == 0.0) return 1;
  if (std::isinf(x)) return x > 0 ? 2 : 3;
  if (std::isnan(x)) return 4;
  int exp = 0;
  const double mantissa = std::frexp(std::abs(x), &exp);  // [0.5, 1)
  auto top = static_cast<std::uint64_t>((mantissa - 0.5) * 16.0);  // 0..7
  top >>= std::min(shift, 3U);
  auto biased = static_cast<std::uint64_t>(exp + 4096);
  if (shift > 3) biased >>= std::min(shift - 3, 13U);
  return (x < 0 ? 1ULL : 0ULL) | (biased << 1) | (top << 14) | (1ULL << 17);
}

/// Hash bucket of a categorical value for subgroup signatures: 4096
/// buckets at shift 0 (distinct values rarely collide), halving per shift
/// so high-cardinality attributes merge consistently — the same value
/// always lands in the same bucket, so co-clustered subscriptions stay
/// similar as the ladder coarsens.
std::uint64_t bucket_of(const Value& v, unsigned shift) {
  constexpr unsigned kBucketBits = 12;
  const unsigned bits = shift < kBucketBits ? kBucketBits - shift : 0;
  return v.hash() & ((1ULL << bits) - 1ULL);
}

void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6U) + (h >> 2U);
}

}  // namespace

DimensionSummary DimensionSummary::universe(bool numeric) {
  DimensionSummary s(numeric);
  s.may_match_without_ = true;
  s.all_values_ = true;
  return s;
}

DimensionSummary DimensionSummary::none(bool numeric) {
  return DimensionSummary(numeric);
}

namespace {

/// Leaf summary for a predicate on the summarized attribute itself: a
/// matching event must carry the attribute with a value the predicate can
/// accept. Operand/representation mismatches widen to all-values — sound,
/// and they only arise from predicates typed against the schema's grain.
DimensionSummary summarize_leaf(const Predicate& pred, bool numeric) {
  std::vector<DimensionSummary::Interval> intervals;
  std::vector<Value> values;
  bool all = false;
  const std::vector<Value>& ops = pred.operands();
  const bool ops_numeric =
      std::all_of(ops.begin(), ops.end(), [](const Value& v) { return v.is_numeric(); });
  if (numeric) {
    switch (pred.op()) {
      case Op::Eq:
        if (ops_numeric) {
          intervals.push_back({pred.operand().numeric(), pred.operand().numeric()});
        } else {
          all = true;
        }
        break;
      case Op::Lt:
      case Op::Le:
        if (ops_numeric) {
          intervals.push_back({-kInf, pred.operand().numeric()});
        } else {
          all = true;
        }
        break;
      case Op::Gt:
      case Op::Ge:
        if (ops_numeric) {
          intervals.push_back({pred.operand().numeric(), kInf});
        } else {
          all = true;
        }
        break;
      case Op::Between:
        if (ops_numeric && ops.size() == 2) {
          intervals.push_back({ops[0].numeric(), ops[1].numeric()});
        } else {
          all = true;
        }
        break;
      case Op::In:
        if (ops_numeric) {
          for (const Value& v : ops) intervals.push_back({v.numeric(), v.numeric()});
        } else {
          all = true;
        }
        break;
      case Op::Ne:
      case Op::Prefix:
      case Op::Suffix:
      case Op::Contains:
        // Ne admits everything but one point; the string operators admit
        // unbounded value families. All widen to "any present value".
        all = true;
        break;
    }
  } else {
    switch (pred.op()) {
      case Op::Eq:
        values.push_back(canonical(pred.operand()));
        break;
      case Op::In:
        for (const Value& v : ops) values.push_back(canonical(v));
        break;
      default:
        // Ranges over strings, Ne and the substring operators admit value
        // families a bounded set cannot carry.
        all = true;
        break;
    }
  }
  return DimensionSummary::from_parts(numeric, /*may_match_without=*/false, all,
                                      std::move(intervals), std::move(values));
}

}  // namespace

DimensionSummary DimensionSummary::from_parts(bool numeric, bool may_match_without,
                                              bool all_values,
                                              std::vector<Interval> intervals,
                                              std::vector<Value> values) {
  DimensionSummary s(numeric);
  s.may_match_without_ = may_match_without;
  s.all_values_ = all_values;
  if (!all_values) {
    if (numeric) {
      normalize(intervals);
      s.intervals_ = std::move(intervals);
    } else {
      std::sort(values.begin(), values.end(), key_less_fn);
      values.erase(std::unique(values.begin(), values.end(),
                               [](const Value& a, const Value& b) { return a.equals(b); }),
                   values.end());
      s.values_ = std::move(values);
    }
  }
  return s;
}

DimensionSummary DimensionSummary::summarize(const Node& tree, AttributeId attr,
                                             bool numeric, const SummaryLimits& limits,
                                             std::size_t* widenings) {
  DimensionSummary result = [&]() -> DimensionSummary {
    switch (tree.kind()) {
      case NodeKind::Leaf: {
        const Predicate& pred = tree.predicate();
        if (pred.attribute() != attr) return universe(numeric);
        DimensionSummary s = summarize_leaf(pred, numeric);
        s.enforce_caps(limits, widenings);
        return s;
      }
      case NodeKind::And: {
        DimensionSummary s = universe(numeric);
        for (const auto& child : tree.children()) {
          s = meet(s, summarize(*child, attr, numeric, limits, widenings));
        }
        return s;
      }
      case NodeKind::Or: {
        DimensionSummary s = none(numeric);
        for (const auto& child : tree.children()) {
          s = join(s, summarize(*child, attr, numeric, limits, widenings), limits,
                   widenings);
        }
        return s;
      }
      case NodeKind::Not:
        // Events matching Not(x) are unconstrained on any dimension x
        // constrains — the complement of an interval union is not
        // representable, so widen to the universe (sound).
        return universe(numeric);
      case NodeKind::True:
        return universe(numeric);
      case NodeKind::False:
        return none(numeric);
    }
    return universe(numeric);
  }();
  result.enforce_caps(limits, widenings);
  return result;
}

DimensionSummary DimensionSummary::join(const DimensionSummary& a,
                                        const DimensionSummary& b,
                                        const SummaryLimits& limits,
                                        std::size_t* widenings) {
  DimensionSummary r(a.numeric_);
  r.may_match_without_ = a.may_match_without_ || b.may_match_without_;
  if (a.all_values_ || b.all_values_) {
    r.all_values_ = true;
    return r;
  }
  if (a.numeric_) {
    r.intervals_ = a.intervals_;
    r.intervals_.insert(r.intervals_.end(), b.intervals_.begin(), b.intervals_.end());
    normalize(r.intervals_);
  } else {
    r.values_.reserve(a.values_.size() + b.values_.size());
    std::set_union(a.values_.begin(), a.values_.end(), b.values_.begin(),
                   b.values_.end(), std::back_inserter(r.values_), key_less_fn);
  }
  r.enforce_caps(limits, widenings);
  return r;
}

DimensionSummary DimensionSummary::meet(const DimensionSummary& a,
                                        const DimensionSummary& b) {
  DimensionSummary r(a.numeric_);
  r.may_match_without_ = a.may_match_without_ && b.may_match_without_;
  if (a.all_values_) {
    r.all_values_ = b.all_values_;
    r.intervals_ = b.intervals_;
    r.values_ = b.values_;
    return r;
  }
  if (b.all_values_) {
    r.all_values_ = false;
    r.intervals_ = a.intervals_;
    r.values_ = a.values_;
    return r;
  }
  if (a.numeric_) {
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.intervals_.size() && j < b.intervals_.size()) {
      const double lo = std::max(a.intervals_[i].lo, b.intervals_[j].lo);
      const double hi = std::min(a.intervals_[i].hi, b.intervals_[j].hi);
      if (lo <= hi) r.intervals_.push_back({lo, hi});
      if (a.intervals_[i].hi < b.intervals_[j].hi) {
        ++i;
      } else {
        ++j;
      }
    }
  } else {
    std::set_intersection(a.values_.begin(), a.values_.end(), b.values_.begin(),
                          b.values_.end(), std::back_inserter(r.values_), key_less_fn);
  }
  return r;
}

void DimensionSummary::enforce_caps(const SummaryLimits& limits,
                                    std::size_t* widenings) {
  if (all_values_) {
    intervals_.clear();
    values_.clear();
    return;
  }
  if (numeric_) {
    while (intervals_.size() > kMaxIntervals) {
      // Merge the two segments separated by the smallest gap — the merge
      // that admits the fewest extra values.
      std::size_t best = 0;
      double best_gap = kInf;
      for (std::size_t i = 0; i + 1 < intervals_.size(); ++i) {
        const double gap = intervals_[i + 1].lo - intervals_[i].hi;
        if (gap < best_gap) {
          best_gap = gap;
          best = i;
        }
      }
      intervals_[best].hi = intervals_[best + 1].hi;
      intervals_.erase(intervals_.begin() + static_cast<std::ptrdiff_t>(best) + 1);
      if (widenings != nullptr) ++*widenings;
    }
  } else if (values_.size() > limits.max_values) {
    all_values_ = true;
    values_.clear();
    if (widenings != nullptr) ++*widenings;
  }
}

bool DimensionSummary::admits_value(const Value& value) const {
  if (all_values_) return true;
  if (numeric_) {
    // all_values_ off means every disjunct carries a numeric range
    // constraint, which only numeric event values can satisfy.
    if (!value.is_numeric()) return false;
    const double x = value.numeric();
    auto it = std::upper_bound(
        intervals_.begin(), intervals_.end(), x,
        [](double v, const Interval& iv) { return v < iv.lo; });
    if (it == intervals_.begin()) return false;
    --it;
    return x <= it->hi;
  }
  return std::binary_search(values_.begin(), values_.end(), canonical(value),
                            key_less_fn);
}

bool DimensionSummary::equals(const DimensionSummary& other) const {
  if (numeric_ != other.numeric_ || may_match_without_ != other.may_match_without_ ||
      all_values_ != other.all_values_) {
    return false;
  }
  if (all_values_) return true;
  if (numeric_) {
    return intervals_.size() == other.intervals_.size() &&
           std::equal(intervals_.begin(), intervals_.end(), other.intervals_.begin(),
                      [](const Interval& a, const Interval& b) {
                        return a.lo == b.lo && a.hi == b.hi;
                      });
  }
  return values_.size() == other.values_.size() &&
         std::equal(values_.begin(), values_.end(), other.values_.begin(),
                    [](const Value& a, const Value& b) { return a.equals(b); });
}

std::size_t DimensionSummary::wire_size_bytes() const {
  // flags byte + segment/value count.
  std::size_t bytes = 1 + 2;
  if (all_values_) return bytes;
  if (numeric_) return bytes + 16 * intervals_.size();
  for (const Value& v : values_) bytes += v.size_bytes();
  return bytes;
}

std::uint64_t DimensionSummary::signature(std::uint64_t seed, unsigned shift) const {
  std::uint64_t h = seed;
  mix(h, (may_match_without_ ? 1ULL : 0ULL) | (all_values_ ? 2ULL : 0ULL));
  if (all_values_) return h;
  if (numeric_) {
    // One representative bucket per dimension, not per endpoint: keying on
    // every endpoint would square the per-dimension signature cardinality
    // and force a clusterer into uselessly coarse shifts before the
    // distinct-signature count fits its subgroup cap. The shape class
    // keeps half-lines apart from bounded ranges (joining "< a" with
    // "> b" would widen a subgroup to nearly the whole axis).
    if (intervals_.empty()) {
      mix(h, 5);  // unsatisfiable
      return h;
    }
    const double lo = intervals_.front().lo;
    const double hi = intervals_.back().hi;
    const bool lo_open = std::isinf(lo);
    const bool hi_open = std::isinf(hi);
    mix(h, (lo_open ? 1ULL : 0ULL) | (hi_open ? 2ULL : 0ULL));
    if (!lo_open || !hi_open) {
      const double rep = lo_open ? hi : (hi_open ? lo : 0.5 * (lo + hi));
      mix(h, quantize(rep, shift));
    }
  } else {
    // One representative bucket per value set (the sorted-first value),
    // mirroring the numeric rule: mixing every member of an In/Or set
    // would make the distinct-key count combinatorial in the set contents.
    // Sets sharing their first value co-cluster and their join stays a
    // small concrete set under the value cap.
    if (!values_.empty()) mix(h, bucket_of(values_.front(), shift));
  }
  return h;
}

SummarySet SummarySet::summarize(const Node& tree, const std::vector<AttributeId>& dims,
                                 const Schema& schema, const SummaryLimits& limits,
                                 std::size_t* widenings) {
  SummarySet set;
  set.dims_ = dims;
  set.summaries_.reserve(dims.size());
  for (const AttributeId dim : dims) {
    const ValueType type = schema.type(dim);
    const bool numeric = type == ValueType::Int || type == ValueType::Double;
    set.summaries_.push_back(
        DimensionSummary::summarize(tree, dim, numeric, limits, widenings));
  }
  return set;
}

bool SummarySet::join(const SummarySet& other, const SummaryLimits& limits,
                      std::size_t* widenings) {
  if (dims_.empty()) {
    const bool changed = !other.dims_.empty();
    *this = other;
    return changed;
  }
  if (dims_ != other.dims_) {
    throw std::logic_error("summary set: join across different dimension sets");
  }
  bool changed = false;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    DimensionSummary joined =
        DimensionSummary::join(summaries_[i], other.summaries_[i], limits, widenings);
    if (!joined.equals(summaries_[i])) {
      summaries_[i] = std::move(joined);
      changed = true;
    }
  }
  return changed;
}

bool SummarySet::admits(const Event& event) const {
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    const Value* value = event.find(dims_[i]);
    if (value == nullptr) {
      if (!summaries_[i].may_match_without()) return false;
    } else if (!summaries_[i].admits_value(*value)) {
      return false;
    }
  }
  return true;
}

bool SummarySet::admits_resolved(const Value* const* values) const {
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    const Value* value = values[i];
    if (value == nullptr) {
      if (!summaries_[i].may_match_without()) return false;
    } else if (!summaries_[i].admits_value(*value)) {
      return false;
    }
  }
  return true;
}

bool SummarySet::equals(const SummarySet& other) const {
  if (dims_ != other.dims_) return false;
  for (std::size_t i = 0; i < summaries_.size(); ++i) {
    if (!summaries_[i].equals(other.summaries_[i])) return false;
  }
  return true;
}

std::size_t SummarySet::wire_size_bytes() const {
  // set header (dimension count) + per-dimension attribute id + payload.
  std::size_t bytes = 2;
  for (const DimensionSummary& s : summaries_) bytes += 4 + s.wire_size_bytes();
  return bytes;
}

std::uint64_t SummarySet::signature(unsigned shift) const {
  std::uint64_t h = 0x51ed2701cbd625a5ULL;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    mix(h, dims_[i].value());
    h = summaries_[i].signature(h, shift);
  }
  return h;
}

}  // namespace dbsp::agg
