#include "filter/predicate_registry.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "test_util.hpp"

namespace dbsp {
namespace {

class RegistryTest : public ::testing::Test {
 protected:
  test::MiniDomain dom_;
  PredicateRegistry reg_;

  [[nodiscard]] Predicate pred(std::int64_t v) const {
    return Predicate(dom_.attr(0), Op::Eq, Value(v));
  }
};

TEST_F(RegistryTest, DeduplicatesStructurallyEqualPredicates) {
  const auto r1 = reg_.add_reference(pred(5));
  const auto r2 = reg_.add_reference(pred(5));
  EXPECT_TRUE(r1.new_predicate);
  EXPECT_FALSE(r2.new_predicate);
  EXPECT_EQ(r1.id, r2.id);
  EXPECT_EQ(reg_.live_predicates(), 1u);
  EXPECT_EQ(reg_.references(r1.id), 2u);
}

TEST_F(RegistryTest, DistinctPredicatesGetDistinctIds) {
  const auto r1 = reg_.add_reference(pred(5));
  const auto r2 = reg_.add_reference(pred(6));
  EXPECT_NE(r1.id, r2.id);
  EXPECT_EQ(reg_.live_predicates(), 2u);
  EXPECT_EQ(reg_.references(r1.id), 1u);
  EXPECT_EQ(reg_.references(r2.id), 1u);
}

TEST_F(RegistryTest, LastReleaseHandsThePredicateBack) {
  const auto r1 = reg_.add_reference(pred(5));
  (void)reg_.add_reference(pred(5));
  EXPECT_FALSE(reg_.release_reference(r1.id));
  EXPECT_EQ(reg_.references(r1.id), 1u);
  const auto removed = reg_.release_reference(r1.id);
  ASSERT_TRUE(removed);
  EXPECT_TRUE(removed->equals(pred(5)));
  EXPECT_EQ(reg_.live_predicates(), 0u);
  EXPECT_FALSE(reg_.live(r1.id));
  EXPECT_EQ(reg_.references(r1.id), 0u);
}

TEST_F(RegistryTest, PredicateSurvivesWhileReferencesRemain) {
  const auto r = reg_.add_reference(pred(5));
  reg_.add_reference(pred(5));
  EXPECT_FALSE(reg_.release_reference(r.id));
  EXPECT_EQ(reg_.live_predicates(), 1u);
  EXPECT_TRUE(reg_.predicate(r.id).equals(pred(5)));
}

TEST_F(RegistryTest, IdsAreRecycled) {
  const auto r1 = reg_.add_reference(pred(5));
  (void)reg_.release_reference(r1.id);
  const auto r2 = reg_.add_reference(pred(9));
  EXPECT_EQ(r2.id, r1.id);  // freed slot reused
  EXPECT_EQ(reg_.capacity(), 1u);
  EXPECT_EQ(reg_.references(r2.id), 1u);
  EXPECT_FALSE(reg_.find(pred(5)).has_value());
}

TEST_F(RegistryTest, UnissuedIdsHoldNoReferences) {
  EXPECT_EQ(reg_.references(PredicateId(0)), 0u);
  EXPECT_FALSE(reg_.live(PredicateId(0)));
}

TEST_F(RegistryTest, FindLocatesInternedPredicate) {
  EXPECT_FALSE(reg_.find(pred(5)).has_value());
  const auto r = reg_.add_reference(pred(5));
  EXPECT_EQ(reg_.find(pred(5)), r.id);
}

TEST_F(RegistryTest, NaNOperandPredicatesAreNeverShared) {
  const Predicate nan_pred(dom_.attr(0), Op::Lt, Value(std::nan("")));
  const auto r1 = reg_.add_reference(nan_pred);
  const auto r2 = reg_.add_reference(nan_pred);
  EXPECT_TRUE(r1.new_predicate);
  EXPECT_TRUE(r2.new_predicate);
  EXPECT_NE(r1.id, r2.id);
  EXPECT_EQ(reg_.references(r1.id), 1u);
  EXPECT_FALSE(reg_.find(nan_pred).has_value());
  EXPECT_TRUE(reg_.release_reference(r1.id));
  EXPECT_TRUE(reg_.release_reference(r2.id));
  EXPECT_EQ(reg_.live_predicates(), 0u);
}

TEST_F(RegistryTest, MisuseThrows) {
  const auto r = reg_.add_reference(pred(5));
  (void)reg_.release_reference(r.id);
  EXPECT_THROW((void)reg_.release_reference(r.id), std::logic_error);
  EXPECT_THROW(static_cast<void>(reg_.predicate(r.id)), std::logic_error);
  EXPECT_THROW((void)reg_.release_reference(PredicateId(7)), std::out_of_range);
}

TEST_F(RegistryTest, ReferencesAcrossManyLeaves) {
  // 10 subscriptions × 5 predicates each, predicate p shared by sub parity.
  for (std::uint32_t s = 0; s < 10; ++s) {
    for (std::int64_t p = 0; p < 5; ++p) {
      reg_.add_reference(pred(p + (s % 2) * 100));
    }
  }
  EXPECT_EQ(reg_.live_predicates(), 10u);  // 5 per parity group
  for (std::int64_t p = 0; p < 5; ++p) {
    EXPECT_EQ(reg_.references(*reg_.find(pred(p))), 5u);
    EXPECT_EQ(reg_.references(*reg_.find(pred(p + 100))), 5u);
  }
}

}  // namespace
}  // namespace dbsp
