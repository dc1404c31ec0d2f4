#include "selectivity/histogram.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "routing/codec.hpp"

namespace dbsp {
namespace {

TEST(NumericHistogramTest, UniformDataFractions) {
  NumericHistogram h(32);
  for (int i = 0; i < 1000; ++i) h.add(static_cast<double>(i));
  h.finalize();
  EXPECT_EQ(h.total(), 1000u);
  EXPECT_NEAR(h.fraction_less(500.0), 0.5, 0.05);
  EXPECT_NEAR(h.fraction_less(250.0), 0.25, 0.05);
  EXPECT_NEAR(h.fraction_between(250.0, 750.0), 0.5, 0.05);
  EXPECT_DOUBLE_EQ(h.fraction_less(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.fraction_less(2000.0), 1.0);
}

TEST(NumericHistogramTest, EmptyHistogram) {
  NumericHistogram h;
  h.finalize();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_DOUBLE_EQ(h.fraction_less(5.0), 0.0);
  EXPECT_DOUBLE_EQ(h.fraction_between(0.0, 10.0), 0.0);
}

TEST(NumericHistogramTest, SingleValue) {
  NumericHistogram h;
  for (int i = 0; i < 10; ++i) h.add(7.0);
  h.finalize();
  EXPECT_DOUBLE_EQ(h.fraction_less(7.0), 0.0);
  EXPECT_NEAR(h.fraction_less_equal(7.0), 0.0, 0.05);  // interpolated edge
  EXPECT_DOUBLE_EQ(h.fraction_less(8.0), 1.0);
}

TEST(NumericHistogramTest, BetweenDegenerateRanges) {
  NumericHistogram h;
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i % 10));
  h.finalize();
  EXPECT_DOUBLE_EQ(h.fraction_between(5.0, 4.0), 0.0);  // hi < lo
  EXPECT_GE(h.fraction_between(0.0, 9.0), 0.9);
}

TEST(NumericHistogramTest, SkewedDataRespectsMass) {
  NumericHistogram h(64);
  for (int i = 0; i < 900; ++i) h.add(1.0);
  for (int i = 0; i < 100; ++i) h.add(100.0);
  h.finalize();
  EXPECT_NEAR(h.fraction_less(50.0), 0.9, 0.02);
  // The point mass at 100 sits at the far edge of the last bin; query from
  // an empty region so uniform-within-bin interpolation cannot smear it.
  EXPECT_NEAR(h.fraction_between(90.0, 101.0), 0.1, 0.02);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

NumericHistogram trained(const std::vector<double>& sample, std::size_t bins = 8) {
  NumericHistogram h(bins);
  for (const double v : sample) h.add(v);
  h.finalize();
  return h;
}

TEST(NumericHistogramTest, NaNCountsInTotalButFulfilsNoRange) {
  // NaN first or last used to become a bin bound, and its float->size_t
  // cast was undefined behaviour.
  for (const auto& sample : {std::vector<double>{kNaN, 1, 2, 3, 4},
                             std::vector<double>{1, 2, 3, 4, kNaN}}) {
    const NumericHistogram h = trained(sample);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_DOUBLE_EQ(h.fraction_less(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.fraction_less(10.0), 0.8);
    EXPECT_DOUBLE_EQ(h.fraction_less_equal(kInf), 0.8);
    EXPECT_DOUBLE_EQ(h.fraction_between(0.0, 10.0), 0.8);
    EXPECT_NEAR(h.fraction_less(2.5), 0.4, 0.05);
    // A NaN query bound fulfils nothing either.
    EXPECT_DOUBLE_EQ(h.fraction_less(kNaN), 0.0);
    EXPECT_DOUBLE_EQ(h.fraction_less_equal(kNaN), 0.0);
    EXPECT_DOUBLE_EQ(h.fraction_between(kNaN, 10.0), 0.0);
    EXPECT_DOUBLE_EQ(h.fraction_between(0.0, kNaN), 0.0);
  }
}

TEST(NumericHistogramTest, InfinitiesLieOutsideTheBins) {
  const NumericHistogram h = trained({-kInf, 1, 2, 3, 4, kInf});
  EXPECT_EQ(h.total(), 6u);
  // −inf is below every x but itself; +inf above every x but itself.
  EXPECT_DOUBLE_EQ(h.fraction_less(-kInf), 0.0);
  EXPECT_DOUBLE_EQ(h.fraction_less_equal(-kInf), 1.0 / 6);
  EXPECT_DOUBLE_EQ(h.fraction_less(-1e300), 1.0 / 6);
  EXPECT_DOUBLE_EQ(h.fraction_less(0.0), 1.0 / 6);
  EXPECT_DOUBLE_EQ(h.fraction_less(10.0), 5.0 / 6);
  EXPECT_DOUBLE_EQ(h.fraction_less(1e300), 5.0 / 6);
  EXPECT_DOUBLE_EQ(h.fraction_less(kInf), 5.0 / 6);
  EXPECT_DOUBLE_EQ(h.fraction_less_equal(kInf), 1.0);
  // The bins span the finite values alone, so they keep their resolution.
  EXPECT_NEAR(h.fraction_between(1.0, 2.5), 2.0 / 6, 0.05);
  EXPECT_DOUBLE_EQ(h.fraction_between(-kInf, kInf), 1.0);
}

TEST(NumericHistogramTest, OnlyNonFiniteValues) {
  const NumericHistogram h = trained({kNaN, kInf, -kInf, kNaN});
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.fraction_less(0.0), 0.25);
  EXPECT_DOUBLE_EQ(h.fraction_less_equal(kInf), 0.5);
  EXPECT_DOUBLE_EQ(h.fraction_between(-1.0, 1.0), 0.0);
}

TEST(NumericHistogramTest, SaveLoadKeepsTheInfiniteTails) {
  const NumericHistogram h = trained({-kInf, 1, 2, kNaN, 3, 4, kInf, kInf});
  WireWriter out;
  h.save(out);
  WireReader in(out.bytes());
  NumericHistogram back(8);
  back.load(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(back.total(), h.total());
  for (const double x : {-kInf, -1.0, 1.5, 3.0, 10.0, kInf}) {
    EXPECT_DOUBLE_EQ(back.fraction_less(x), h.fraction_less(x)) << x;
    EXPECT_DOUBLE_EQ(back.fraction_less_equal(x), h.fraction_less_equal(x)) << x;
  }
  // Without infinities the encoding has no tail: total, lo, hi, width,
  // bin count and the bins, as before tails existed.
  WireWriter finite;
  trained({1, 2, kNaN}).save(finite);
  EXPECT_EQ(finite.bytes().size(), 4 * 8 + 4 + 8 * 8u);
}

TEST(NumericHistogramTest, LoadRejectsTailsPastTheTotal) {
  WireWriter out;
  trained({-kInf, 1, 2, kInf}).save(out);
  std::vector<std::uint8_t> bytes(out.bytes().begin(), out.bytes().end());
  bytes[bytes.size() - 1] = 0x7f;  // +inf count's top byte (little endian)
  WireReader in(bytes);
  NumericHistogram h(8);
  EXPECT_THROW(h.load(in), WireError);
}

TEST(ValueCountsTest, ExactFractions) {
  ValueCounts vc;
  for (int i = 0; i < 70; ++i) vc.add(Value("a"));
  for (int i = 0; i < 30; ++i) vc.add(Value("b"));
  EXPECT_EQ(vc.total(), 100u);
  EXPECT_DOUBLE_EQ(vc.fraction_equal(Value("a")), 0.7);
  EXPECT_DOUBLE_EQ(vc.fraction_equal(Value("b")), 0.3);
  EXPECT_DOUBLE_EQ(vc.fraction_equal(Value("c")), 0.0);
}

TEST(ValueCountsTest, NumericKeysUnifyIntAndDouble) {
  ValueCounts vc;
  vc.add(Value(20));
  vc.add(Value(20.0));
  EXPECT_DOUBLE_EQ(vc.fraction_equal(Value(20)), 1.0);
  EXPECT_EQ(vc.distinct_tracked(), 1u);
}

TEST(ValueCountsTest, OverflowSpreadsMassOverUntrackedValues) {
  ValueCounts vc(/*max_distinct=*/4);
  for (int i = 0; i < 4; ++i) vc.add(Value(std::int64_t{i}));
  for (int i = 100; i < 110; ++i) vc.add(Value(std::int64_t{i}));  // 10 overflow
  EXPECT_EQ(vc.total(), 14u);
  // Tracked values exact.
  EXPECT_DOUBLE_EQ(vc.fraction_equal(Value(0)), 1.0 / 14.0);
  // Untracked values share the overflow mass.
  const double overflow_each = vc.fraction_equal(Value(105));
  EXPECT_GT(overflow_each, 0.0);
  EXPECT_LT(overflow_each, 10.0 / 14.0);
}

TEST(ValueCountsTest, ForEachVisitsTrackedValues) {
  ValueCounts vc;
  vc.add(Value("x"));
  vc.add(Value("x"));
  vc.add(Value("y"));
  std::size_t visited = 0;
  std::uint64_t total = 0;
  vc.for_each([&](const Value&, std::uint64_t count) {
    ++visited;
    total += count;
  });
  EXPECT_EQ(visited, 2u);
  EXPECT_EQ(total, 3u);
}

}  // namespace
}  // namespace dbsp
