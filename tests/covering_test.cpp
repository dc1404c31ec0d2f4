#include "routing/covering.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "core/candidates.hpp"
#include "subscription/parser.hpp"
#include "test_util.hpp"

namespace dbsp {
namespace {

using test::MiniDomain;

class ImplicationTest : public ::testing::Test {
 protected:
  MiniDomain dom_{2, 100};
  Schema strings_;
  AttributeId name_ = strings_.add_attribute("name", ValueType::String);

  [[nodiscard]] Predicate num(Op op, std::int64_t v) const {
    return Predicate(dom_.attr(0), op, Value(v));
  }
};

TEST_F(ImplicationTest, ReflexiveAndAttributeMismatch) {
  EXPECT_TRUE(implies(num(Op::Lt, 5), num(Op::Lt, 5)));
  EXPECT_FALSE(implies(num(Op::Lt, 5), Predicate(dom_.attr(1), Op::Lt, Value(5))));
}

TEST_F(ImplicationTest, EqImpliesAnythingItSatisfies) {
  EXPECT_TRUE(implies(num(Op::Eq, 5), num(Op::Lt, 10)));
  EXPECT_TRUE(implies(num(Op::Eq, 5), num(Op::Le, 5)));
  EXPECT_TRUE(implies(num(Op::Eq, 5), num(Op::Ne, 6)));
  EXPECT_TRUE(implies(num(Op::Eq, 5), Predicate(dom_.attr(0), Value(1), Value(9))));
  EXPECT_FALSE(implies(num(Op::Eq, 5), num(Op::Gt, 5)));
}

TEST_F(ImplicationTest, InImpliesOnlyIfAllMembersDo) {
  const Predicate in(dom_.attr(0), {Value(2), Value(4)});
  EXPECT_TRUE(implies(in, num(Op::Lt, 5)));
  EXPECT_FALSE(implies(in, num(Op::Lt, 4)));
  EXPECT_TRUE(implies(in, Predicate(dom_.attr(0), {Value(1), Value(2), Value(4)})));
  EXPECT_FALSE(implies(in, Predicate(dom_.attr(0), {Value(2), Value(5)})));
}

TEST_F(ImplicationTest, IntervalContainment) {
  EXPECT_TRUE(implies(num(Op::Lt, 5), num(Op::Lt, 10)));
  EXPECT_TRUE(implies(num(Op::Lt, 5), num(Op::Le, 5)));
  EXPECT_FALSE(implies(num(Op::Le, 5), num(Op::Lt, 5)));
  EXPECT_TRUE(implies(num(Op::Gt, 10), num(Op::Ge, 10)));
  EXPECT_FALSE(implies(num(Op::Ge, 10), num(Op::Gt, 10)));
  EXPECT_TRUE(implies(Predicate(dom_.attr(0), Value(3), Value(7)), num(Op::Lt, 8)));
  EXPECT_TRUE(implies(Predicate(dom_.attr(0), Value(3), Value(7)),
                      Predicate(dom_.attr(0), Value(2), Value(8))));
  EXPECT_FALSE(implies(Predicate(dom_.attr(0), Value(3), Value(9)), num(Op::Lt, 8)));
  EXPECT_FALSE(implies(num(Op::Lt, 10), Predicate(dom_.attr(0), Value(0), Value(20))));
}

TEST_F(ImplicationTest, DegenerateBetweenActsAsEq) {
  const Predicate point(dom_.attr(0), Value(5), Value(5));
  EXPECT_TRUE(implies(point, num(Op::Eq, 5)));
  EXPECT_TRUE(implies(point, num(Op::Le, 5)));
  EXPECT_TRUE(implies(num(Op::Eq, 5), point));
}

TEST_F(ImplicationTest, NeTargets) {
  EXPECT_TRUE(implies(num(Op::Lt, 5), num(Op::Ne, 7)));
  EXPECT_FALSE(implies(num(Op::Lt, 5), num(Op::Ne, 3)));
  EXPECT_TRUE(implies(num(Op::Ne, 7), num(Op::Ne, 7)));
  EXPECT_FALSE(implies(num(Op::Ne, 7), num(Op::Ne, 8)));
  EXPECT_FALSE(implies(num(Op::Ne, 7), num(Op::Lt, 100)));  // unbounded
}

TEST_F(ImplicationTest, StringPatterns) {
  const Predicate pre_sci(name_, Op::Prefix, Value("science"));
  const Predicate pre_s(name_, Op::Prefix, Value("sci"));
  EXPECT_TRUE(implies(pre_sci, pre_s));
  EXPECT_FALSE(implies(pre_s, pre_sci));
  EXPECT_TRUE(implies(pre_sci, Predicate(name_, Op::Contains, Value("enc"))));
  const Predicate suf(name_, Op::Suffix, Value("fiction"));
  EXPECT_TRUE(implies(suf, Predicate(name_, Op::Suffix, Value("ion"))));
  EXPECT_TRUE(implies(suf, Predicate(name_, Op::Contains, Value("fict"))));
  EXPECT_TRUE(implies(Predicate(name_, Op::Contains, Value("abcd")),
                      Predicate(name_, Op::Contains, Value("bc"))));
  EXPECT_FALSE(implies(Predicate(name_, Op::Contains, Value("bc")),
                       Predicate(name_, Op::Contains, Value("abcd"))));
  EXPECT_TRUE(implies(Predicate(name_, Op::Eq, Value("science")), pre_s));
}

TEST_F(ImplicationTest, SoundnessOnRandomPairs) {
  // implies(p, q) = true must mean: every value satisfying p satisfies q.
  MiniDomain dom(1, 30);
  std::mt19937_64 rng(8);
  std::size_t positives = 0;
  for (int round = 0; round < 3000; ++round) {
    const Predicate p = dom.random_predicate(rng);
    const Predicate q = dom.random_predicate(rng);
    if (!implies(p, q)) continue;
    ++positives;
    for (std::int64_t v = -5; v < 35; ++v) {
      if (p.matches_value(Value(v))) {
        ASSERT_TRUE(q.matches_value(Value(v)))
            << p.to_string(dom.schema()) << " => " << q.to_string(dom.schema())
            << " violated at " << v;
      }
    }
  }
  EXPECT_GT(positives, 100u);  // the check is not vacuous
}

/// Values where comparison semantics get subtle: NaN (either sign), ±inf,
/// ±0, Int and Double spellings of the same number, neighbours one ulp
/// apart, integers past 2^53 (where Int → Double rounds) and strings.
std::vector<Value> edge_values() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr std::int64_t kBig = std::int64_t{1} << 53;
  std::vector<Value> out{Value(nan), Value(-nan), Value(kInf), Value(-kInf), Value(0.0),
                         Value(-0.0), Value(std::int64_t{0}), Value(std::int64_t{kBig}),
                         Value(kBig + 1), Value(kBig + 2), Value(static_cast<double>(kBig)),
                         Value(-kBig - 1), Value(-static_cast<double>(kBig)),
                         Value("a"), Value("ab"), Value("ba"), Value("")};
  for (const std::int64_t i : {-1, 1, 2, 3}) {
    out.emplace_back(i);
    const auto d = static_cast<double>(i);
    out.emplace_back(d);
    out.emplace_back(std::nextafter(d, kInf));
    out.emplace_back(std::nextafter(d, -kInf));
  }
  return out;
}

Predicate random_edge_predicate(AttributeId attr, const std::vector<Value>& values,
                                std::mt19937_64& rng) {
  const auto pick = [&] { return values[rng() % values.size()]; };
  switch (rng() % 11) {
    case 0: return Predicate(attr, Op::Eq, pick());
    case 1: return Predicate(attr, Op::Ne, pick());
    case 2: return Predicate(attr, Op::Lt, pick());
    case 3: return Predicate(attr, Op::Le, pick());
    case 4: return Predicate(attr, Op::Gt, pick());
    case 5: return Predicate(attr, Op::Ge, pick());
    case 6: return Predicate(attr, pick(), pick());
    case 7: {
      std::vector<Value> members{pick(), pick()};
      if (rng() % 2 == 0) members.push_back(pick());
      return Predicate(attr, std::move(members));
    }
    default: {
      static constexpr Op kStringOps[] = {Op::Prefix, Op::Suffix, Op::Contains};
      static const char* const kPatterns[] = {"", "a", "b", "ab", "ba"};
      return Predicate(attr, kStringOps[rng() % 3], Value(kPatterns[rng() % 5]));
    }
  }
}

TEST(ImplicationSoundness, HoldsForEveryEdgeValueIncludingNaN) {
  // Whenever implies(p, q) holds, every value p matches q matches too —
  // over operands and values drawn from NaN, ±inf, ±0, rounding integers
  // and strings.
  Schema schema;
  const AttributeId x = schema.add_attribute("x", ValueType::Double);
  const std::vector<Value> values = edge_values();
  std::mt19937_64 rng(1202);
  std::size_t positives = 0;
  for (int round = 0; round < 40000; ++round) {
    const Predicate p = random_edge_predicate(x, values, rng);
    const Predicate q = random_edge_predicate(x, values, rng);
    if (!implies(p, q)) continue;
    ++positives;
    for (const Value& v : values) {
      if (p.matches_value(v)) {
        ASSERT_TRUE(q.matches_value(v)) << p.to_string(schema) << " => " << q.to_string(schema)
                                        << " violated at " << v.to_string();
      }
    }
  }
  EXPECT_GT(positives, 1000u);  // the check is not vacuous
}

TEST(ImplicationSoundness, NaNOperandsImplyOnlyWhatTheyMatch) {
  // A NaN operand makes Eq, In, ordered comparisons and Between match
  // nothing and Ne match everything; implication must respect both.
  Schema schema;
  const AttributeId x = schema.add_attribute("x", ValueType::Double);
  const Value nan(std::numeric_limits<double>::quiet_NaN());
  const Predicate ne_nan(x, Op::Ne, nan);
  const Predicate lt_nan(x, Op::Lt, nan);
  const Predicate lt5(x, Op::Lt, Value(5.0));
  EXPECT_FALSE(implies(ne_nan, lt5));
  EXPECT_FALSE(implies(ne_nan, Predicate(x, Op::Ne, Value(5.0))));
  EXPECT_FALSE(implies(lt5, lt_nan));
  EXPECT_FALSE(implies(Predicate(x, Op::Ge, Value(0.0)), Predicate(x, Value(0.0), nan)));
  EXPECT_TRUE(implies(lt5, ne_nan));
}

class CoveringTest : public ::testing::Test {
 protected:
  CoveringTest() {
    schema_.add_attribute("category", ValueType::String);
    schema_.add_attribute("price", ValueType::Double);
    schema_.add_attribute("year", ValueType::Int);
  }
  Schema schema_;

  [[nodiscard]] std::unique_ptr<Node> parse(std::string_view s) const {
    return parse_subscription(s, schema_);
  }
};

TEST_F(CoveringTest, ConjunctivityDetection) {
  EXPECT_TRUE(is_conjunctive(*parse("price < 5")));
  EXPECT_TRUE(is_conjunctive(*parse("price < 5 and category = 'art'")));
  EXPECT_FALSE(is_conjunctive(*parse("price < 5 or category = 'art'")));
  EXPECT_FALSE(is_conjunctive(*parse("price < 5 and (year > 1990 or year < 1800)")));
  EXPECT_FALSE(is_conjunctive(*parse("not price < 5")));
}

TEST_F(CoveringTest, BroaderSubscriptionCoversNarrower) {
  const auto broad = parse("price < 50");
  const auto narrow = parse("price < 20 and category = 'art'");
  EXPECT_EQ(covers(*broad, *narrow), std::optional<bool>(true));
  EXPECT_EQ(covers(*narrow, *broad), std::optional<bool>(false));
}

TEST_F(CoveringTest, EqualSubscriptionsCoverEachOther) {
  const auto a = parse("price < 20 and category = 'art'");
  const auto b = parse("category = 'art' and price < 20");
  EXPECT_EQ(covers(*a, *b), std::optional<bool>(true));
  EXPECT_EQ(covers(*b, *a), std::optional<bool>(true));
}

TEST_F(CoveringTest, NonConjunctiveIsOutOfScope) {
  const auto boolean = parse("price < 5 or category = 'art'");
  const auto conj = parse("price < 5");
  EXPECT_EQ(covers(*boolean, *conj), std::nullopt);
  EXPECT_EQ(covers(*conj, *boolean), std::nullopt);
}

TEST_F(CoveringTest, PrunedConjunctionCoversOriginal) {
  // "Pruning as an extension of covering": the pruned entry must cover the
  // subscription it was derived from.
  const auto original = parse("price < 20 and category = 'art' and year > 1990");
  Subscription sub(SubscriptionId(0), original->clone());
  std::mt19937_64 rng(3);
  while (true) {
    const auto candidates = enumerate_prunings(sub.root());
    if (candidates.empty()) break;
    apply_pruning(sub, candidates[rng() % candidates.size()]);
    EXPECT_EQ(covers(sub.root(), *original), std::optional<bool>(true));
  }
}

TEST_F(CoveringTest, CoveringSoundOnRandomConjunctions) {
  MiniDomain dom(4, 20);
  std::mt19937_64 rng(21);
  const auto events = dom.random_events(rng, 400);

  auto random_conjunction = [&](std::size_t preds) {
    std::vector<std::unique_ptr<Node>> parts;
    for (std::size_t i = 0; i < preds; ++i) {
      parts.push_back(Node::leaf(dom.random_predicate(rng)));
    }
    return parts.size() == 1 ? std::move(parts.front()) : Node::and_(std::move(parts));
  };

  std::size_t positives = 0;
  for (int round = 0; round < 1500; ++round) {
    const auto a = random_conjunction(1 + rng() % 3);
    const auto b = random_conjunction(1 + rng() % 4);
    const auto result = covers(*a, *b);
    ASSERT_TRUE(result.has_value());
    if (!*result) continue;
    ++positives;
    for (const auto& e : events) {
      if (b->evaluate_event(e)) {
        ASSERT_TRUE(a->evaluate_event(e))
            << a->to_string(dom.schema()) << " claimed to cover "
            << b->to_string(dom.schema());
      }
    }
  }
  EXPECT_GT(positives, 20u);
}

}  // namespace
}  // namespace dbsp
