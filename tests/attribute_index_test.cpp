#include "filter/attribute_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "test_util.hpp"

namespace dbsp {
namespace {

class AttributeIndexTest : public ::testing::Test {
 protected:
  test::MiniDomain dom_{1, 50};

  [[nodiscard]] std::vector<PredicateId> collect(const AttributeIndex& idx,
                                                 Value v) const {
    std::vector<PredicateId> out;
    idx.collect(v, out);
    std::sort(out.begin(), out.end());
    return out;
  }
};

TEST_F(AttributeIndexTest, EqualityProbe) {
  AttributeIndex idx;
  const Predicate p5(dom_.attr(0), Op::Eq, Value(5));
  const Predicate p6(dom_.attr(0), Op::Eq, Value(6));
  idx.insert(PredicateId(0), p5);
  idx.insert(PredicateId(1), p6);
  EXPECT_EQ(collect(idx, Value(5)), std::vector<PredicateId>{PredicateId(0)});
  EXPECT_EQ(collect(idx, Value(6)), std::vector<PredicateId>{PredicateId(1)});
  EXPECT_TRUE(collect(idx, Value(7)).empty());
}

TEST_F(AttributeIndexTest, OrderedThresholds) {
  AttributeIndex idx;
  idx.insert(PredicateId(0), Predicate(dom_.attr(0), Op::Lt, Value(10)));
  idx.insert(PredicateId(1), Predicate(dom_.attr(0), Op::Le, Value(10)));
  idx.insert(PredicateId(2), Predicate(dom_.attr(0), Op::Gt, Value(10)));
  idx.insert(PredicateId(3), Predicate(dom_.attr(0), Op::Ge, Value(10)));

  const auto at9 = collect(idx, Value(9));
  EXPECT_EQ(at9, (std::vector<PredicateId>{PredicateId(0), PredicateId(1)}));
  const auto at10 = collect(idx, Value(10));
  EXPECT_EQ(at10, (std::vector<PredicateId>{PredicateId(1), PredicateId(3)}));
  const auto at11 = collect(idx, Value(11));
  EXPECT_EQ(at11, (std::vector<PredicateId>{PredicateId(2), PredicateId(3)}));
}

TEST_F(AttributeIndexTest, BetweenStabbing) {
  AttributeIndex idx;
  idx.insert(PredicateId(0), Predicate(dom_.attr(0), Value(5), Value(10)));
  idx.insert(PredicateId(1), Predicate(dom_.attr(0), Value(8), Value(20)));
  EXPECT_TRUE(collect(idx, Value(4)).empty());
  EXPECT_EQ(collect(idx, Value(5)), std::vector<PredicateId>{PredicateId(0)});
  EXPECT_EQ(collect(idx, Value(9)),
            (std::vector<PredicateId>{PredicateId(0), PredicateId(1)}));
  EXPECT_EQ(collect(idx, Value(15)), std::vector<PredicateId>{PredicateId(1)});
  EXPECT_TRUE(collect(idx, Value(21)).empty());
}

TEST_F(AttributeIndexTest, EqualThresholdsWithMixedInclusiveness) {
  AttributeIndex idx;
  idx.insert(PredicateId(0), Predicate(dom_.attr(0), Op::Lt, Value(10)));
  idx.insert(PredicateId(1), Predicate(dom_.attr(0), Op::Le, Value(10)));
  idx.insert(PredicateId(2), Predicate(dom_.attr(0), Op::Lt, Value(10)));
  idx.insert(PredicateId(3), Predicate(dom_.attr(0), Op::Le, Value(10)));
  idx.insert(PredicateId(4), Predicate(dom_.attr(0), Op::Gt, Value(10)));
  idx.insert(PredicateId(5), Predicate(dom_.attr(0), Op::Ge, Value(10)));
  idx.insert(PredicateId(6), Predicate(dom_.attr(0), Op::Gt, Value(10)));
  idx.insert(PredicateId(7), Predicate(dom_.attr(0), Op::Ge, Value(10)));

  // Unsorted: equal keys come out in insertion order.
  std::vector<PredicateId> out;
  idx.collect(Value(9), out);
  EXPECT_EQ(out, (std::vector<PredicateId>{PredicateId(0), PredicateId(1), PredicateId(2),
                                           PredicateId(3)}));
  out.clear();
  idx.collect(Value(10), out);
  EXPECT_EQ(out, (std::vector<PredicateId>{PredicateId(1), PredicateId(3), PredicateId(5),
                                           PredicateId(7)}));
  out.clear();
  idx.collect(Value(11), out);
  EXPECT_EQ(out, (std::vector<PredicateId>{PredicateId(4), PredicateId(5), PredicateId(6),
                                           PredicateId(7)}));
}

TEST_F(AttributeIndexTest, BetweenIntervalsSharingALowBound) {
  AttributeIndex idx;
  idx.insert(PredicateId(0), Predicate(dom_.attr(0), Value(5), Value(10)));
  idx.insert(PredicateId(1), Predicate(dom_.attr(0), Value(5), Value(7)));
  idx.insert(PredicateId(2), Predicate(dom_.attr(0), Value(5), Value(20)));
  idx.insert(PredicateId(3), Predicate(dom_.attr(0), Value(3), Value(5)));
  EXPECT_EQ(collect(idx, Value(4)), std::vector<PredicateId>{PredicateId(3)});
  EXPECT_EQ(collect(idx, Value(5)), (std::vector<PredicateId>{PredicateId(0), PredicateId(1),
                                                              PredicateId(2), PredicateId(3)}));
  EXPECT_EQ(collect(idx, Value(7)),
            (std::vector<PredicateId>{PredicateId(0), PredicateId(1), PredicateId(2)}));
  EXPECT_EQ(collect(idx, Value(8)), (std::vector<PredicateId>{PredicateId(0), PredicateId(2)}));
  EXPECT_EQ(collect(idx, Value(11)), std::vector<PredicateId>{PredicateId(2)});
  EXPECT_TRUE(collect(idx, Value(21)).empty());
}

TEST_F(AttributeIndexTest, EventValueExactlyAtABound) {
  AttributeIndex idx;
  idx.insert(PredicateId(0), Predicate(dom_.attr(0), Op::Lt, Value(10)));
  idx.insert(PredicateId(1), Predicate(dom_.attr(0), Op::Le, Value(10)));
  idx.insert(PredicateId(2), Predicate(dom_.attr(0), Op::Gt, Value(10)));
  idx.insert(PredicateId(3), Predicate(dom_.attr(0), Op::Ge, Value(10)));
  idx.insert(PredicateId(4), Predicate(dom_.attr(0), Value(10), Value(12)));
  idx.insert(PredicateId(5), Predicate(dom_.attr(0), Value(8), Value(10)));
  const std::vector<PredicateId> at_bound{PredicateId(1), PredicateId(3), PredicateId(4),
                                          PredicateId(5)};
  // Int and double event values at the bound compare equal to the operand.
  EXPECT_EQ(collect(idx, Value(10)), at_bound);
  EXPECT_EQ(collect(idx, Value(10.0)), at_bound);
  // Just either side of the bound.
  EXPECT_EQ(collect(idx, Value(9.999)),
            (std::vector<PredicateId>{PredicateId(0), PredicateId(1), PredicateId(5)}));
  EXPECT_EQ(collect(idx, Value(10.001)),
            (std::vector<PredicateId>{PredicateId(2), PredicateId(3), PredicateId(4)}));
  // NaN is at no bound and fulfils no ordered comparison.
  EXPECT_TRUE(collect(idx, Value(std::nan(""))).empty());
}

TEST_F(AttributeIndexTest, NaNOperandsAreScannedAndRemovable) {
  const double nan = std::nan("");
  const std::vector<Predicate> preds{
      Predicate(dom_.attr(0), Op::Lt, Value(nan)),
      Predicate(dom_.attr(0), Op::Ge, Value(nan)),
      Predicate(dom_.attr(0), Value(nan), Value(1)),
      Predicate(dom_.attr(0), Op::Eq, Value(nan)),
      Predicate(dom_.attr(0), {Value(3), Value(nan)}),
      // Ordinary keys on both sides of and between the NaN ones.
      Predicate(dom_.attr(0), Op::Lt, Value(5)),
      Predicate(dom_.attr(0), Op::Le, Value(1)),
      Predicate(dom_.attr(0), Op::Ge, Value(5)),
      Predicate(dom_.attr(0), Value(0), Value(10)),
      Predicate(dom_.attr(0), Op::Eq, Value(3)),
  };
  AttributeIndex idx;
  for (std::uint32_t i = 0; i < preds.size(); ++i) idx.insert(PredicateId(i), preds[i]);
  std::vector<bool> live(preds.size(), true);
  const auto agrees_with_predicates = [&] {
    for (const double v : {-1.0, 0.0, 0.5, 1.0, 3.0, 5.0, 7.0, 11.0}) {
      std::vector<PredicateId> expected;
      for (std::uint32_t i = 0; i < preds.size(); ++i) {
        if (live[i] && preds[i].matches_value(Value(v))) expected.push_back(PredicateId(i));
      }
      EXPECT_EQ(collect(idx, Value(v)), expected) << "probe v=" << v;
    }
  };
  agrees_with_predicates();
  // x < NaN and x >= NaN hold for no value.
  for (const auto& id : collect(idx, Value(-1e300))) EXPECT_NE(id, PredicateId(0));
  for (const auto& id : collect(idx, Value(1e300))) EXPECT_NE(id, PredicateId(1));

  // Each NaN predicate is found again by remove(); the others stay put.
  for (std::uint32_t i = 0; i < 5; ++i) {
    idx.remove(PredicateId(i), preds[i]);
    live[i] = false;
    agrees_with_predicates();
  }
  EXPECT_EQ(idx.size(), 5u);
  for (std::uint32_t i = 5; i < preds.size(); ++i) idx.remove(PredicateId(i), preds[i]);
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_TRUE(collect(idx, Value(3)).empty());
}

TEST_F(AttributeIndexTest, RemovingOneOfSeveralEqualKeysKeepsTheOthersInOrder) {
  AttributeIndex idx;
  std::vector<Predicate> less, greater, between;
  for (std::uint32_t i = 0; i < 4; ++i) {
    less.emplace_back(dom_.attr(0), i % 2 == 0 ? Op::Lt : Op::Le, Value(10));
    greater.emplace_back(dom_.attr(0), i % 2 == 0 ? Op::Gt : Op::Ge, Value(0));
    between.emplace_back(dom_.attr(0), Value(0), Value(10 + static_cast<std::int64_t>(i)));
    idx.insert(PredicateId(i), less.back());
    idx.insert(PredicateId(10 + i), greater.back());
    idx.insert(PredicateId(20 + i), between.back());
  }
  idx.remove(PredicateId(1), less[1]);
  idx.remove(PredicateId(12), greater[2]);
  idx.remove(PredicateId(20), between[0]);
  EXPECT_EQ(idx.size(), 9u);

  std::vector<PredicateId> out;
  idx.collect(Value(5), out);
  EXPECT_EQ(out, (std::vector<PredicateId>{PredicateId(0), PredicateId(2), PredicateId(3),
                                           PredicateId(10), PredicateId(11), PredicateId(13),
                                           PredicateId(21), PredicateId(22), PredicateId(23)}));

  // A re-inserted key goes after the survivors.
  idx.insert(PredicateId(1), less[1]);
  out.clear();
  idx.collect(Value(5), out);
  EXPECT_EQ(std::vector<PredicateId>(out.begin(), out.begin() + 4),
            (std::vector<PredicateId>{PredicateId(0), PredicateId(2), PredicateId(3),
                                      PredicateId(1)}));
}

TEST_F(AttributeIndexTest, InExpandsMembers) {
  AttributeIndex idx;
  const Predicate p(dom_.attr(0), {Value(1), Value(3), Value(5)});
  idx.insert(PredicateId(0), p);
  EXPECT_EQ(collect(idx, Value(3)), std::vector<PredicateId>{PredicateId(0)});
  EXPECT_TRUE(collect(idx, Value(2)).empty());
  idx.remove(PredicateId(0), p);
  EXPECT_TRUE(collect(idx, Value(3)).empty());
  EXPECT_EQ(idx.size(), 0u);
}

TEST_F(AttributeIndexTest, NeAndStringOpsUseScanList) {
  Schema s;
  const auto name = s.add_attribute("name", ValueType::String);
  AttributeIndex idx;
  const Predicate ne(name, Op::Ne, Value("art"));
  const Predicate prefix(name, Op::Prefix, Value("sci"));
  idx.insert(PredicateId(0), ne);
  idx.insert(PredicateId(1), prefix);
  std::vector<PredicateId> out;
  idx.collect(Value("science"), out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<PredicateId>{PredicateId(0), PredicateId(1)}));
  out.clear();
  idx.collect(Value("art"), out);
  EXPECT_TRUE(out.empty());
}

TEST_F(AttributeIndexTest, RemoveUnknownThrows) {
  AttributeIndex idx;
  const Predicate p(dom_.attr(0), Op::Eq, Value(5));
  EXPECT_THROW(idx.remove(PredicateId(0), p), std::logic_error);
  idx.insert(PredicateId(0), p);
  EXPECT_THROW(idx.remove(PredicateId(1), Predicate(dom_.attr(0), Op::Eq, Value(5))),
               std::logic_error);
}

TEST_F(AttributeIndexTest, RandomizedAgainstBruteForce) {
  // 300 random predicates; collect() must return exactly the predicates
  // whose matches_value() holds, for every probe value.
  std::mt19937_64 rng(77);
  AttributeIndex idx;
  std::vector<Predicate> preds;
  for (std::uint32_t i = 0; i < 300; ++i) {
    preds.push_back(dom_.random_predicate(rng));
    idx.insert(PredicateId(i), preds.back());
  }
  for (std::int64_t v = -2; v < 55; ++v) {
    std::vector<PredicateId> expected;
    for (std::uint32_t i = 0; i < preds.size(); ++i) {
      if (preds[i].matches_value(Value(v))) expected.push_back(PredicateId(i));
    }
    auto actual = collect(idx, Value(v));
    EXPECT_EQ(actual, expected) << "probe v=" << v;
  }
}

TEST_F(AttributeIndexTest, RandomizedInsertRemoveChurn) {
  std::mt19937_64 rng(123);
  AttributeIndex idx;
  std::vector<std::optional<Predicate>> live(200);
  for (int round = 0; round < 2000; ++round) {
    const auto slot = static_cast<std::uint32_t>(rng() % live.size());
    if (live[slot]) {
      idx.remove(PredicateId(slot), *live[slot]);
      ASSERT_FALSE(idx.contains(PredicateId(slot), *live[slot]));
      live[slot].reset();
    } else {
      live[slot] = dom_.random_predicate(rng);
      idx.insert(PredicateId(slot), *live[slot]);
      ASSERT_TRUE(idx.contains(PredicateId(slot), *live[slot]));
    }
  }
  // contains() finds each live pair, and no other id under its keys.
  for (std::uint32_t i = 0; i < live.size(); ++i) {
    if (!live[i]) continue;
    EXPECT_TRUE(idx.contains(PredicateId(i), *live[i]));
    EXPECT_FALSE(idx.contains(PredicateId(i + 1000), *live[i]));
  }
  // Final consistency sweep.
  for (std::int64_t v = 0; v < 50; ++v) {
    std::vector<PredicateId> expected;
    for (std::uint32_t i = 0; i < live.size(); ++i) {
      if (live[i] && live[i]->matches_value(Value(v))) expected.push_back(PredicateId(i));
    }
    EXPECT_EQ(collect(idx, Value(v)), expected) << "probe v=" << v;
  }
}

}  // namespace
}  // namespace dbsp
