#include <gtest/gtest.h>

#include <random>

#include "selectivity/estimator.hpp"
#include "selectivity/exact.hpp"
#include "selectivity/stats.hpp"
#include "test_util.hpp"

namespace dbsp {
namespace {

using test::MiniDomain;

class StatsTest : public ::testing::Test {
 protected:
  StatsTest() : stats_(dom_.schema()) {
    std::mt19937_64 rng(99);
    events_ = dom_.random_events(rng, 4000);
    for (const auto& e : events_) stats_.observe(e);
    stats_.finalize();
  }

  MiniDomain dom_{4, 20};
  EventStats stats_;
  std::vector<Event> events_;
};

TEST_F(StatsTest, EqEstimateTracksUniformFrequency) {
  const Predicate p(dom_.attr(0), Op::Eq, Value(std::int64_t{5}));
  EXPECT_NEAR(stats_.predicate_selectivity(p), 1.0 / 20.0, 0.02);
}

TEST_F(StatsTest, EstimatesMatchMeasuredForEachOperator) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 100; ++i) {
    const Predicate p = dom_.random_predicate(rng);
    const double estimated = stats_.predicate_selectivity(p);
    const double measured = measured_selectivity(p, events_);
    EXPECT_NEAR(estimated, measured, 0.08)
        << "op=" << static_cast<int>(p.op());
  }
}

TEST_F(StatsTest, InAndNeEstimates) {
  const Predicate in_pred(dom_.attr(1), {Value(1), Value(2), Value(3)});
  EXPECT_NEAR(stats_.predicate_selectivity(in_pred), 3.0 / 20.0, 0.03);
  const Predicate ne(dom_.attr(1), Op::Ne, Value(std::int64_t{4}));
  EXPECT_NEAR(stats_.predicate_selectivity(ne), 19.0 / 20.0, 0.03);
}

TEST_F(StatsTest, MissingAttributeHasZeroSelectivity) {
  Schema wide;
  wide.add_attribute("present", ValueType::Int);
  wide.add_attribute("absent", ValueType::Int);
  EventStats stats(wide);
  Event e;
  e.set(wide.at("present"), Value(1));
  for (int i = 0; i < 10; ++i) stats.observe(e);
  stats.finalize();
  EXPECT_DOUBLE_EQ(
      stats.predicate_selectivity(Predicate(wide.at("absent"), Op::Eq, Value(1))), 0.0);
  EXPECT_NEAR(
      stats.predicate_selectivity(Predicate(wide.at("present"), Op::Eq, Value(1))), 1.0,
      1e-9);
}

TEST_F(StatsTest, PresenceScalesConditionalSelectivity) {
  Schema s;
  const auto a = s.add_attribute("a", ValueType::Int);
  EventStats stats(s);
  Event with;
  with.set(a, Value(1));
  const Event without;
  for (int i = 0; i < 50; ++i) stats.observe(with);
  for (int i = 0; i < 50; ++i) stats.observe(without);
  stats.finalize();
  EXPECT_NEAR(stats.predicate_selectivity(Predicate(a, Op::Eq, Value(1))), 0.5, 1e-9);
}

TEST_F(StatsTest, EstimateBeforeFinalizeThrows) {
  EventStats fresh(dom_.schema());
  EXPECT_THROW(
      (void)fresh.predicate_selectivity(Predicate(dom_.attr(0), Op::Eq, Value(1))),
      std::logic_error);
}

TEST_F(StatsTest, StringOperatorEstimatesScanDomain) {
  Schema s;
  const auto name = s.add_attribute("name", ValueType::String);
  EventStats stats(s);
  for (int i = 0; i < 60; ++i) {
    Event e;
    e.set(name, Value("science"));
    stats.observe(e);
  }
  for (int i = 0; i < 40; ++i) {
    Event e;
    e.set(name, Value("history"));
    stats.observe(e);
  }
  stats.finalize();
  EXPECT_NEAR(stats.predicate_selectivity(Predicate(name, Op::Prefix, Value("sci"))),
              0.6, 1e-9);
  EXPECT_NEAR(stats.predicate_selectivity(Predicate(name, Op::Contains, Value("tor"))),
              0.4, 1e-9);
}

// --- Tree-level estimator ---------------------------------------------------

class EstimatorTest : public ::testing::Test {
 protected:
  MiniDomain dom_{4, 20};
};

TEST_F(EstimatorTest, MeasuredSelectivityWithinBoundsWithExactLeaves) {
  // With leaf estimates that are exact (computed on the same event set),
  // the Fréchet interval must contain the measured tree selectivity. 60
  // random trees including NOTs.
  std::mt19937_64 rng(31);
  const auto events = dom_.random_events(rng, 800);
  const SelectivityEstimator estimator(LeafSelectivityFn(
      [&](const Predicate& p) { return measured_selectivity(p, events); }));
  for (int i = 0; i < 60; ++i) {
    const auto tree = dom_.random_tree(rng, 6, 0.2);
    const auto est = estimator.estimate(*tree);
    const double measured = measured_selectivity(*tree, events);
    EXPECT_TRUE(est.contains(measured, 1e-9))
        << "measured=" << measured << " est=[" << est.min << "," << est.avg << ","
        << est.max << "] tree=" << tree->to_string(dom_.schema());
  }
}

TEST_F(EstimatorTest, NullLeafOracleThrows) {
  EXPECT_THROW(SelectivityEstimator{LeafSelectivityFn{}}, std::invalid_argument);
}

}  // namespace
}  // namespace dbsp
