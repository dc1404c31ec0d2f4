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
  const auto r1 = reg_.add_reference(pred(5), SubscriptionId(1));
  const auto r2 = reg_.add_reference(pred(5), SubscriptionId(2));
  EXPECT_TRUE(r1.new_predicate);
  EXPECT_FALSE(r2.new_predicate);
  EXPECT_EQ(r1.id, r2.id);
  EXPECT_EQ(reg_.live_predicates(), 1u);
  EXPECT_EQ(reg_.association_count(), 2u);
}

TEST_F(RegistryTest, DistinctPredicatesGetDistinctIds) {
  const auto r1 = reg_.add_reference(pred(5), SubscriptionId(1));
  const auto r2 = reg_.add_reference(pred(6), SubscriptionId(1));
  EXPECT_NE(r1.id, r2.id);
  EXPECT_EQ(reg_.live_predicates(), 2u);
  EXPECT_EQ(reg_.association_count(), 2u);
}

TEST_F(RegistryTest, LeafRefcountWithinOneSubscription) {
  const auto r1 = reg_.add_reference(pred(5), SubscriptionId(1));
  const auto r2 = reg_.add_reference(pred(5), SubscriptionId(1));
  EXPECT_TRUE(r1.new_association);
  EXPECT_FALSE(r2.new_association);
  EXPECT_EQ(reg_.association_count(), 1u);  // one (pred, sub) pair

  auto rel1 = reg_.release_reference(r1.id, SubscriptionId(1));
  EXPECT_FALSE(rel1.association_removed);
  EXPECT_FALSE(rel1.removed_predicate);
  auto rel2 = reg_.release_reference(r1.id, SubscriptionId(1));
  EXPECT_TRUE(rel2.association_removed);
  ASSERT_TRUE(rel2.removed_predicate);
  EXPECT_TRUE(rel2.removed_predicate->equals(pred(5)));
  EXPECT_EQ(reg_.live_predicates(), 0u);
  EXPECT_EQ(reg_.association_count(), 0u);
}

TEST_F(RegistryTest, PredicateSurvivesWhileOtherSubscriptionHoldsIt) {
  const auto r = reg_.add_reference(pred(5), SubscriptionId(1));
  reg_.add_reference(pred(5), SubscriptionId(2));
  auto rel = reg_.release_reference(r.id, SubscriptionId(1));
  EXPECT_TRUE(rel.association_removed);
  EXPECT_FALSE(rel.removed_predicate);
  EXPECT_EQ(reg_.live_predicates(), 1u);
  EXPECT_TRUE(reg_.predicate(r.id).equals(pred(5)));
}

TEST_F(RegistryTest, IdsAreRecycled) {
  const auto r1 = reg_.add_reference(pred(5), SubscriptionId(1));
  reg_.release_reference(r1.id, SubscriptionId(1));
  const auto r2 = reg_.add_reference(pred(9), SubscriptionId(2));
  EXPECT_EQ(r2.id, r1.id);  // freed slot reused
  EXPECT_EQ(reg_.capacity(), 1u);
}

TEST_F(RegistryTest, AssociationsListsSubscriptions) {
  const auto r = reg_.add_reference(pred(5), SubscriptionId(1));
  reg_.add_reference(pred(5), SubscriptionId(7));
  const auto& assocs = reg_.associations(r.id);
  ASSERT_EQ(assocs.size(), 2u);
  EXPECT_EQ(assocs[0].subscription, SubscriptionId(1));
  EXPECT_EQ(assocs[1].subscription, SubscriptionId(7));
}

TEST_F(RegistryTest, FindLocatesInternedPredicate) {
  EXPECT_FALSE(reg_.find(pred(5)).has_value());
  const auto r = reg_.add_reference(pred(5), SubscriptionId(1));
  EXPECT_EQ(reg_.find(pred(5)), r.id);
}

TEST_F(RegistryTest, NaNOperandPredicatesAreNeverShared) {
  const Predicate nan_pred(dom_.attr(0), Op::Lt, Value(std::nan("")));
  const auto r1 = reg_.add_reference(nan_pred, SubscriptionId(1));
  const auto r2 = reg_.add_reference(nan_pred, SubscriptionId(1));
  EXPECT_TRUE(r1.new_predicate);
  EXPECT_TRUE(r2.new_predicate);
  EXPECT_NE(r1.id, r2.id);
  EXPECT_FALSE(reg_.find(nan_pred).has_value());
  EXPECT_TRUE(reg_.release_reference(r1.id, SubscriptionId(1)).removed_predicate);
  EXPECT_TRUE(reg_.release_reference(r2.id, SubscriptionId(1)).removed_predicate);
  EXPECT_EQ(reg_.live_predicates(), 0u);
  EXPECT_EQ(reg_.association_count(), 0u);
}

TEST_F(RegistryTest, MisuseThrows) {
  const auto r = reg_.add_reference(pred(5), SubscriptionId(1));
  EXPECT_THROW(reg_.release_reference(r.id, SubscriptionId(99)), std::logic_error);
  reg_.release_reference(r.id, SubscriptionId(1));
  EXPECT_THROW(reg_.release_reference(r.id, SubscriptionId(1)), std::logic_error);
  EXPECT_THROW(static_cast<void>(reg_.predicate(r.id)), std::logic_error);
}

TEST_F(RegistryTest, AssociationCountAcrossManySubsAndPredicates) {
  // 10 subscriptions × 5 predicates each, predicate p shared by sub parity.
  for (std::uint32_t s = 0; s < 10; ++s) {
    for (std::int64_t p = 0; p < 5; ++p) {
      reg_.add_reference(pred(p + (s % 2) * 100), SubscriptionId(s));
    }
  }
  EXPECT_EQ(reg_.live_predicates(), 10u);  // 5 per parity group
  EXPECT_EQ(reg_.association_count(), 50u);
}

}  // namespace
}  // namespace dbsp
