#include "selectivity/histogram.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "routing/codec.hpp"

namespace dbsp {

namespace {

/// Top bit of a saved total: infinite-tail counts follow the bins.
constexpr std::uint64_t kTailsFlag = std::uint64_t{1} << 63;

}  // namespace

void NumericHistogram::add(double v) {
  assert(!finalized_);
  pending_.push_back(v);
}

void NumericHistogram::finalize() {
  if (finalized_) return;
  finalized_ = true;
  total_ = pending_.size();
  if (pending_.empty()) return;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double lo = kInf;
  double hi = -kInf;
  for (const double v : pending_) {
    if (v == -kInf) {
      ++neg_inf_;
    } else if (v == kInf) {
      ++pos_inf_;
    } else if (!std::isnan(v)) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  // No finite value: keep a valid empty geometry so load() accepts it.
  lo_ = lo <= hi ? lo : 0.0;
  hi_ = lo <= hi ? hi : 0.0;
  if (hi_ <= lo_) hi_ = lo_ + 1.0;
  width_ = (hi_ - lo_) / static_cast<double>(counts_.size());
  for (const double v : pending_) {
    if (!std::isfinite(v)) continue;
    auto bin = static_cast<std::size_t>((v - lo_) / width_);
    bin = std::min(bin, counts_.size() - 1);
    ++counts_[bin];
  }
  pending_.clear();
  pending_.shrink_to_fit();
}

void NumericHistogram::save(WireWriter& out) const {
  if (!finalized_) throw std::logic_error("histogram: save before finalize()");
  // The top bit of the total flags the infinite tails, which follow the
  // bins. A sample without infinities encodes exactly as it did before
  // tails existed, so such blobs stay readable in both directions.
  const bool tails = neg_inf_ + pos_inf_ > 0;
  out.put_u64(tails ? total_ | kTailsFlag : total_);
  out.put_f64(lo_);
  out.put_f64(hi_);
  out.put_f64(width_);
  out.put_u32(static_cast<std::uint32_t>(counts_.size()));
  for (const std::uint64_t c : counts_) out.put_u64(c);
  if (tails) {
    out.put_u64(neg_inf_);
    out.put_u64(pos_inf_);
  }
}

void NumericHistogram::load(WireReader& in) {
  const std::uint64_t flagged_total = in.get_u64();
  const bool tails = (flagged_total & kTailsFlag) != 0;
  const std::uint64_t total = flagged_total & ~kTailsFlag;
  const double lo = in.get_f64();
  const double hi = in.get_f64();
  const double width = in.get_f64();
  const std::uint32_t bins = in.get_u32();
  // Each bin occupies 8 bytes; a hostile count must not reserve beyond
  // what the buffer can possibly hold.
  if (bins > in.remaining() / 8) throw WireError("histogram: bin count exceeds input");
  // CRC framing is integrity, not authentication: a blob that decodes
  // cleanly can still carry geometry finalize() could never produce, and
  // estimation would index counts_[...] out of bounds (bins == 0) or hit
  // UB float->size_t casts (width <= 0, non-finite bounds). Reject here.
  if (total > 0 && (bins == 0 || !std::isfinite(lo) || !std::isfinite(hi) ||
                    !std::isfinite(width) || !(hi > lo) || !(width > 0.0))) {
    throw WireError("histogram: invalid trained geometry");
  }
  // width must be what finalize() derives from (lo, hi, bins): a tiny
  // forged width would blow `(x - lo) / width` past SIZE_MAX and make the
  // float->size_t cast in cumulative_below undefined.
  if (total > 0) {
    const double derived = (hi - lo) / static_cast<double>(bins);
    if (!(std::abs(width - derived) <= 1e-9 * derived)) {
      throw WireError("histogram: inconsistent bin width");
    }
  }
  std::vector<std::uint64_t> counts(bins);
  for (auto& c : counts) c = in.get_u64();
  const std::uint64_t neg_inf = tails ? in.get_u64() : 0;
  const std::uint64_t pos_inf = tails ? in.get_u64() : 0;
  if (neg_inf > total || pos_inf > total - neg_inf) {
    throw WireError("histogram: infinite tails exceed total");
  }
  total_ = total;
  neg_inf_ = neg_inf;
  pos_inf_ = pos_inf;
  lo_ = lo;
  hi_ = hi;
  width_ = width;
  counts_ = std::move(counts);
  pending_.clear();
  finalized_ = true;
}

double NumericHistogram::cumulative_below(double x, bool inclusive) const {
  assert(finalized_);
  if (total_ == 0 || std::isnan(x)) return 0.0;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // −inf lies below every x but itself; +inf is at most +inf.
  std::uint64_t tails = 0;
  if (x > -kInf || inclusive) tails += neg_inf_;
  if (x == kInf && inclusive) tails += pos_inf_;
  const auto fraction = [&](double binned) {
    return (static_cast<double>(tails) + binned) / static_cast<double>(total_);
  };
  if (x < lo_ || (x == lo_ && !inclusive)) return fraction(0.0);
  if (x >= hi_) {
    std::uint64_t binned = 0;
    for (const std::uint64_t c : counts_) binned += c;
    return fraction(static_cast<double>(binned));
  }
  // Compare in the double domain before casting: a float->size_t cast of a
  // value past SIZE_MAX is UB, so the clamp must come first.
  const double offset = (x - lo_) / width_;
  const auto bin = offset >= static_cast<double>(counts_.size() - 1)
                       ? counts_.size() - 1
                       : static_cast<std::size_t>(offset);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < bin; ++i) below += counts_[i];
  const double in_bin_fraction = offset - static_cast<double>(bin);
  const double partial = static_cast<double>(counts_[bin]) * in_bin_fraction;
  return fraction(static_cast<double>(below) + partial);
}

double NumericHistogram::fraction_less(double x) const {
  return cumulative_below(x, /*inclusive=*/false);
}

double NumericHistogram::fraction_less_equal(double x) const {
  // Uniform-within-bin interpolation cannot distinguish < from <=; nudge by
  // half a bin-width ULP so point masses at bin edges are not lost entirely.
  // An infinite x needs no nudge (and +inf must not step down to the max).
  if (std::isinf(x)) return cumulative_below(x, /*inclusive=*/true);
  return cumulative_below(std::nextafter(x, hi_ + 1.0), /*inclusive=*/true);
}

double NumericHistogram::fraction_between(double lo, double hi) const {
  if (!(lo <= hi)) return 0.0;  // also a NaN bound: IEEE, no value fits
  return std::max(0.0, fraction_less_equal(hi) - fraction_less(lo));
}

void ValueCounts::add(const Value& v) {
  ++total_;
  auto it = counts_.find(v);
  if (it != counts_.end()) {
    ++it->second;
    return;
  }
  if (counts_.size() < max_distinct_) {
    counts_.emplace(v, 1);
  } else {
    ++overflow_count_;
    ++overflow_distinct_;  // upper bound: each overflow value assumed fresh
  }
}

void ValueCounts::save(WireWriter& out) const {
  out.put_u64(total_);
  out.put_u64(overflow_count_);
  out.put_u64(overflow_distinct_);
  out.put_u32(static_cast<std::uint32_t>(counts_.size()));
  for (const auto& [value, count] : counts_) {
    encode_value(value, out);
    out.put_u64(count);
  }
}

void ValueCounts::load(WireReader& in) {
  const std::uint64_t total = in.get_u64();
  const std::uint64_t overflow_count = in.get_u64();
  const std::uint64_t overflow_distinct = in.get_u64();
  const std::uint32_t entries = in.get_u32();
  // Every entry needs at least a value tag byte plus its u64 count.
  if (entries > in.remaining() / 9) throw WireError("value counts: entry count exceeds input");
  std::unordered_map<Value, std::uint64_t> counts;
  counts.reserve(entries);
  for (std::uint32_t i = 0; i < entries; ++i) {
    Value v = decode_value(in);
    const std::uint64_t count = in.get_u64();
    counts.emplace(std::move(v), count);
  }
  total_ = total;
  overflow_count_ = overflow_count;
  overflow_distinct_ = overflow_distinct;
  counts_ = std::move(counts);
}

double ValueCounts::fraction_equal(const Value& v) const {
  if (total_ == 0) return 0.0;
  if (auto it = counts_.find(v); it != counts_.end()) {
    return static_cast<double>(it->second) / static_cast<double>(total_);
  }
  if (overflow_distinct_ == 0) return 0.0;
  const double overflow_mass =
      static_cast<double>(overflow_count_) / static_cast<double>(total_);
  return overflow_mass / static_cast<double>(overflow_distinct_);
}

}  // namespace dbsp
