#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "event/value.hpp"

namespace dbsp {

class WireWriter;
class WireReader;

/// Equi-width histogram over a numeric attribute, trained on sample values.
/// Range queries interpolate uniformly within bins — the standard
/// System-R-style estimator. Bins span the finite values only: −inf and
/// +inf are counted apart and compare as IEEE orders them, and NaN counts
/// in total() but fulfils no range (IEEE, as Predicate::matches_value).
class NumericHistogram {
 public:
  explicit NumericHistogram(std::size_t bins = 64) : counts_(bins, 0) {}

  void add(double v);
  /// Finalize after all add() calls: freezes bin boundaries. add() first
  /// buffers raw values; estimates are invalid until finalize().
  void finalize();

  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// P[value < x] (strict).
  [[nodiscard]] double fraction_less(double x) const;
  /// P[value <= x].
  [[nodiscard]] double fraction_less_equal(double x) const;
  /// P[lo <= value <= hi].
  [[nodiscard]] double fraction_between(double lo, double hi) const;

  /// Serializes the trained (finalized) state in the routing/codec wire
  /// format; throws std::logic_error before finalize().
  void save(WireWriter& out) const;
  /// Restores state written by save(); the object ends finalized. Throws
  /// WireError on truncated or malformed input.
  void load(WireReader& in);

 private:
  [[nodiscard]] double cumulative_below(double x, bool inclusive) const;

  std::vector<double> pending_;
  std::vector<std::uint64_t> counts_;
  double lo_ = 0.0;
  double hi_ = 0.0;
  double width_ = 0.0;
  std::uint64_t total_ = 0;
  std::uint64_t neg_inf_ = 0;  ///< sample values equal to −inf
  std::uint64_t pos_inf_ = 0;  ///< sample values equal to +inf
  bool finalized_ = false;
};

/// Exact value-frequency table for an attribute (categorical or discrete
/// numeric), with a cap on the number of distinct values tracked; overflow
/// mass is spread uniformly over untracked distinct values.
class ValueCounts {
 public:
  explicit ValueCounts(std::size_t max_distinct = 1 << 17)
      : max_distinct_(max_distinct) {}

  void add(const Value& v);

  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// P[value == v] under the trained distribution.
  [[nodiscard]] double fraction_equal(const Value& v) const;

  /// Serializes the tracked counts in the routing/codec wire format.
  void save(WireWriter& out) const;
  /// Restores state written by save() (replacing current counts); the
  /// max-distinct cap keeps its constructed value. Throws WireError on
  /// truncated or malformed input.
  void load(WireReader& in);

  /// Iterates tracked (value, count) pairs — used for string operators
  /// (prefix/suffix/contains) which must scan the domain.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [value, count] : counts_) fn(value, count);
  }

  [[nodiscard]] std::size_t distinct_tracked() const { return counts_.size(); }

 private:
  std::size_t max_distinct_;
  std::unordered_map<Value, std::uint64_t> counts_;
  std::uint64_t overflow_count_ = 0;
  std::uint64_t overflow_distinct_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace dbsp
