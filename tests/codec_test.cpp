#include "routing/codec.hpp"

#include <gtest/gtest.h>

#include <random>

#include "test_util.hpp"
#include "workload/event_gen.hpp"
#include "workload/subscription_gen.hpp"

namespace dbsp {
namespace {

using test::MiniDomain;

template <class T, class Enc, class Dec>
T round_trip(const T& input, Enc encode, Dec decode) {
  WireWriter w;
  encode(input, w);
  WireReader r(w.bytes());
  T output = decode(r);
  EXPECT_TRUE(r.exhausted()) << "trailing bytes after decode";
  return output;
}

TEST(CodecTest, PrimitivesRoundTrip) {
  WireWriter w;
  w.put_u8(0xab);
  w.put_u16(0x1234);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefULL);
  w.put_f64(-3.25e17);
  w.put_string("hello wire");
  WireReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u16(), 0x1234);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.get_f64(), -3.25e17);
  EXPECT_EQ(r.get_string(), "hello wire");
  EXPECT_TRUE(r.exhausted());
}

TEST(CodecTest, PutsWriteExactLittleEndianBytes) {
  WireWriter w;
  w.put_u8(0xab);
  w.put_u16(0x1234);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefULL);
  w.put_f64(-2.0);  // sign bit + exponent 0x400: 0xc000000000000000
  w.put_string("hi");
  const std::vector<std::uint8_t> expected = {
      0xab,                                            // u8
      0x34, 0x12,                                      // u16
      0xef, 0xbe, 0xad, 0xde,                          // u32
      0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,  // u64
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0,  // f64
      0x02, 0x00, 0x00, 0x00, 'h', 'i'};               // string
  EXPECT_EQ(w.bytes(), expected);

  // patch_u32 overwrites in place; reserve changes nothing written.
  w.patch_u32(1, 0x0a0b0c0d);
  w.reserve(1 << 16);
  EXPECT_EQ(w.size(), expected.size());
  EXPECT_EQ(std::vector<std::uint8_t>(w.bytes().begin(), w.bytes().begin() + 6),
            (std::vector<std::uint8_t>{0xab, 0x0d, 0x0c, 0x0b, 0x0a, 0xad}));
  EXPECT_THROW(w.patch_u32(expected.size() - 3, 0), std::out_of_range);

  // clear() empties; the puts then start over at offset 0.
  w.clear();
  EXPECT_EQ(w.size(), 0u);
  w.put_u16(0xbeef);
  EXPECT_EQ(w.bytes(), (std::vector<std::uint8_t>{0xef, 0xbe}));
}

TEST(CodecTest, PutsAcrossGrowthKeepEveryByte) {
  // Thousands of mixed-width puts from an empty writer cross every
  // capacity doubling; the reader must get each value back.
  WireWriter w;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    w.put_u8(static_cast<std::uint8_t>(i));
    w.put_u16(static_cast<std::uint16_t>(i * 7));
    w.put_u32(static_cast<std::uint32_t>(i * 7919));
    w.put_u64(i * 0x9E3779B97F4A7C15ULL);
  }
  WireReader r(w.bytes());
  for (std::uint64_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(r.get_u8(), static_cast<std::uint8_t>(i));
    ASSERT_EQ(r.get_u16(), static_cast<std::uint16_t>(i * 7));
    ASSERT_EQ(r.get_u32(), static_cast<std::uint32_t>(i * 7919));
    ASSERT_EQ(r.get_u64(), i * 0x9E3779B97F4A7C15ULL);
  }
  EXPECT_TRUE(r.exhausted());
}

TEST(CodecTest, ValuesOfAllTypesRoundTrip) {
  for (const Value& v : {Value(std::int64_t{-42}), Value(2.5), Value("books"),
                         Value(std::string()), Value(true), Value(false)}) {
    const Value back = round_trip(
        v, [](const Value& x, WireWriter& w) { encode_value(x, w); },
        [](WireReader& r) { return decode_value(r); });
    EXPECT_TRUE(v.equals(back)) << v.to_string();
    EXPECT_EQ(v.type(), back.type());
  }
}

TEST(CodecTest, EventRoundTrip) {
  MiniDomain dom(6, 100);
  std::mt19937_64 rng(5);
  for (int i = 0; i < 30; ++i) {
    const Event e = dom.random_event(rng);
    const Event back = round_trip(
        e, [](const Event& x, WireWriter& w) { encode_event(x, w); },
        [](WireReader& r) { return decode_event(r); });
    ASSERT_EQ(e.size(), back.size());
    for (const auto& [attr, value] : e.pairs()) {
      ASSERT_NE(back.find(attr), nullptr);
      EXPECT_TRUE(back.find(attr)->equals(value));
    }
  }
}

TEST(CodecTest, PredicatesOfAllOperatorsRoundTrip) {
  MiniDomain dom(3, 50);
  Schema strings;
  const auto name = strings.add_attribute("name", ValueType::String);
  std::vector<Predicate> preds = {
      Predicate(dom.attr(0), Op::Eq, Value(5)),
      Predicate(dom.attr(0), Op::Ne, Value(5)),
      Predicate(dom.attr(1), Op::Lt, Value(2.5)),
      Predicate(dom.attr(1), Op::Le, Value(2.5)),
      Predicate(dom.attr(1), Op::Gt, Value(2.5)),
      Predicate(dom.attr(1), Op::Ge, Value(2.5)),
      Predicate(dom.attr(2), Value(1), Value(9)),
      Predicate(dom.attr(2), {Value(1), Value(3), Value(7)}),
      Predicate(name, Op::Prefix, Value("sci")),
      Predicate(name, Op::Suffix, Value("ion")),
      Predicate(name, Op::Contains, Value("fi")),
  };
  for (const auto& p : preds) {
    const Predicate back = round_trip(
        p, [](const Predicate& x, WireWriter& w) { encode_predicate(x, w); },
        [](WireReader& r) { return decode_predicate(r); });
    EXPECT_TRUE(p.equals(back)) << static_cast<int>(p.op());
  }
}

TEST(CodecTest, RandomTreesRoundTripStructurally) {
  MiniDomain dom(5, 20);
  std::mt19937_64 rng(17);
  for (int i = 0; i < 60; ++i) {
    const auto tree = dom.random_tree(rng, 1 + i % 10, 0.25);
    WireWriter w;
    encode_tree(*tree, w);
    EXPECT_EQ(w.size(), encoded_size(*tree));
    WireReader r(w.bytes());
    const auto back = decode_tree(r);
    EXPECT_TRUE(r.exhausted());
    EXPECT_TRUE(tree->equals(*back));
  }
}

TEST(CodecTest, AuctionWorkloadTreesRoundTrip) {
  WorkloadConfig cfg;
  cfg.titles = 100;
  cfg.authors = 50;
  cfg.not_probability = 0.1;
  const AuctionDomain domain(cfg);
  AuctionSubscriptionGenerator gen(domain);
  AuctionEventGenerator events(domain);
  for (int i = 0; i < 100; ++i) {
    const auto tree = gen.next_tree();
    WireWriter w;
    encode_tree(*tree, w);
    WireReader r(w.bytes());
    const auto back = decode_tree(r);
    EXPECT_TRUE(tree->equals(*back));
    // Semantics preserved too, not just structure.
    const Event e = events.next();
    EXPECT_EQ(tree->evaluate_event(e), back->evaluate_event(e));
  }
}

TEST(CodecTest, TruncatedInputThrows) {
  MiniDomain dom(2, 10);
  const auto tree = Node::leaf(Predicate(dom.attr(0), Op::Eq, Value(5)));
  WireWriter w;
  encode_tree(*tree, w);
  for (std::size_t cut = 0; cut < w.size(); ++cut) {
    WireReader r(std::span(w.bytes().data(), cut));
    EXPECT_THROW(static_cast<void>(decode_tree(r)), WireError) << "cut=" << cut;
  }
}

TEST(CodecTest, MalformedTagsThrow) {
  {
    std::vector<std::uint8_t> bad = {9};  // unknown node tag
    WireReader r(bad);
    EXPECT_THROW(static_cast<void>(decode_tree(r)), WireError);
  }
  {
    std::vector<std::uint8_t> bad = {1, 0, 0};  // And with zero children
    WireReader r(bad);
    EXPECT_THROW(static_cast<void>(decode_tree(r)), WireError);
  }
  {
    std::vector<std::uint8_t> bad = {7};  // unknown value tag
    WireReader r(bad);
    EXPECT_THROW(static_cast<void>(decode_value(r)), WireError);
  }
}

TEST(CodecTest, ConstantNodesRefuseToEncode) {
  WireWriter w;
  const auto t = Node::constant(true);
  EXPECT_THROW(encode_tree(*t, w), WireError);
}

TEST(CodecTest, EncodedSizeTracksPayload) {
  MiniDomain dom(2, 10);
  Event small;
  small.set(dom.attr(0), Value(1));
  Event big = small;
  big.set(dom.attr(1), Value(std::string(500, 'x')));
  EXPECT_GT(encoded_size(big), encoded_size(small) + 500);
}

}  // namespace
}  // namespace dbsp
