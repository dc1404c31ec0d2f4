#include "selectivity/estimate.hpp"

#include <gtest/gtest.h>

#include <random>

namespace dbsp {
namespace {

void expect_valid(const SelectivityEstimate& e) {
  EXPECT_GE(e.min, 0.0);
  EXPECT_LE(e.max, 1.0);
  EXPECT_LE(e.min, e.avg + 1e-12);
  EXPECT_LE(e.avg, e.max + 1e-12);
}

TEST(SelectivityEstimateTest, PointClampsAndCollapses) {
  const auto p = SelectivityEstimate::point(0.3);
  EXPECT_DOUBLE_EQ(p.min, 0.3);
  EXPECT_DOUBLE_EQ(p.avg, 0.3);
  EXPECT_DOUBLE_EQ(p.max, 0.3);
  EXPECT_DOUBLE_EQ(SelectivityEstimate::point(-0.5).avg, 0.0);
  EXPECT_DOUBLE_EQ(SelectivityEstimate::point(1.5).avg, 1.0);
}

TEST(SelectivityEstimateTest, AndUsesFrechetBoundsAndIndependence) {
  const auto a = SelectivityEstimate::point(0.8);
  const auto b = SelectivityEstimate::point(0.7);
  const auto c = a.and_with(b);
  EXPECT_DOUBLE_EQ(c.min, 0.5);       // 0.8 + 0.7 - 1
  EXPECT_DOUBLE_EQ(c.avg, 0.56);      // 0.8 * 0.7
  EXPECT_DOUBLE_EQ(c.max, 0.7);       // min(0.8, 0.7)
  expect_valid(c);

  const auto d = SelectivityEstimate::point(0.2).and_with(SelectivityEstimate::point(0.3));
  EXPECT_DOUBLE_EQ(d.min, 0.0);  // Fréchet lower bound truncates at 0
}

TEST(SelectivityEstimateTest, OrUsesFrechetBoundsAndInclusionExclusion) {
  const auto a = SelectivityEstimate::point(0.2);
  const auto b = SelectivityEstimate::point(0.3);
  const auto c = a.or_with(b);
  EXPECT_DOUBLE_EQ(c.min, 0.3);              // max
  EXPECT_DOUBLE_EQ(c.avg, 1.0 - 0.8 * 0.7);  // independence
  EXPECT_DOUBLE_EQ(c.max, 0.5);              // sum
  expect_valid(c);

  const auto d = SelectivityEstimate::point(0.8).or_with(SelectivityEstimate::point(0.9));
  EXPECT_DOUBLE_EQ(d.max, 1.0);  // Fréchet upper bound truncates at 1
}

TEST(SelectivityEstimateTest, NegationSwapsAndComplements) {
  const SelectivityEstimate e{0.2, 0.5, 0.9};
  const auto n = e.negated();
  EXPECT_DOUBLE_EQ(n.min, 0.1);
  EXPECT_DOUBLE_EQ(n.avg, 0.5);
  EXPECT_DOUBLE_EQ(n.max, 0.8);
  const auto back = n.negated();
  EXPECT_DOUBLE_EQ(back.min, e.min);
  EXPECT_DOUBLE_EQ(back.max, e.max);
}

TEST(SelectivityEstimateTest, IdentityElements) {
  const auto p = SelectivityEstimate::point(0.42);
  const auto a = p.and_with(SelectivityEstimate::always());
  EXPECT_DOUBLE_EQ(a.min, p.min);
  EXPECT_DOUBLE_EQ(a.avg, p.avg);
  EXPECT_DOUBLE_EQ(a.max, p.max);
  const auto o = p.or_with(SelectivityEstimate::never());
  EXPECT_DOUBLE_EQ(o.min, p.min);
  EXPECT_DOUBLE_EQ(o.avg, p.avg);
  EXPECT_DOUBLE_EQ(o.max, p.max);
}

TEST(SelectivityEstimateTest, CombinatorsAreAssociative) {
  // Łukasiewicz t-norm (min), product (avg) and min (max) are associative
  // up to rounding, so flattened and nested conjunctions price alike. Only
  // alike: the pruning scorer folds over the simplified (flattened) tree to
  // be bit-identical, which heuristics_test checks with ==.
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < 200; ++i) {
    const auto a = SelectivityEstimate::point(u(rng));
    const auto b = SelectivityEstimate::point(u(rng));
    const auto c = SelectivityEstimate::point(u(rng));
    for (const bool conj : {true, false}) {
      const auto left = conj ? a.and_with(b).and_with(c) : a.or_with(b).or_with(c);
      const auto right = conj ? a.and_with(b.and_with(c)) : a.or_with(b.or_with(c));
      EXPECT_NEAR(left.min, right.min, 1e-12);
      EXPECT_NEAR(left.avg, right.avg, 1e-12);
      EXPECT_NEAR(left.max, right.max, 1e-12);
    }
  }
}

TEST(SelectivityEstimateTest, RandomCompositionsStayValid) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < 500; ++i) {
    auto acc = SelectivityEstimate::point(u(rng));
    for (int j = 0; j < 6; ++j) {
      const auto next = SelectivityEstimate::point(u(rng));
      switch (i % 3) {
        case 0: acc = acc.and_with(next); break;
        case 1: acc = acc.or_with(next); break;
        default: acc = acc.negated().and_with(next); break;
      }
      expect_valid(acc);
    }
  }
}

TEST(SelectivityEstimateTest, RoundingNoiseKeepsComponentsOrdered) {
  // Fréchet's 0.1 + 1.0 - 1.0 rounds to 0.10000000000000009, a hair above
  // the conjunct's max of 0.1: normalized() must still order the triple
  // exactly (no epsilon), not clamp avg into an inverted range.
  const auto e = SelectivityEstimate::point(0.1).and_with(SelectivityEstimate::always());
  EXPECT_LE(e.min, e.avg);
  EXPECT_LE(e.avg, e.max);
  EXPECT_DOUBLE_EQ(e.max, 0.1);
}

TEST(SelectivityEstimateTest, DegradationIsMaxComponentIncrease) {
  const SelectivityEstimate orig{0.1, 0.2, 0.3};
  const SelectivityEstimate pruned{0.15, 0.45, 0.5};
  EXPECT_DOUBLE_EQ(selectivity_degradation(orig, pruned), 0.25);  // avg gap
  EXPECT_DOUBLE_EQ(selectivity_degradation(orig, orig), 0.0);
}

TEST(SelectivityEstimateTest, ContainsInterval) {
  const SelectivityEstimate e{0.2, 0.3, 0.4};
  EXPECT_TRUE(e.contains(0.2));
  EXPECT_TRUE(e.contains(0.4));
  EXPECT_TRUE(e.contains(0.35));
  EXPECT_FALSE(e.contains(0.1));
  EXPECT_FALSE(e.contains(0.5));
}

}  // namespace
}  // namespace dbsp
