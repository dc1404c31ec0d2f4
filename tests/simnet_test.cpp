#include "broker/simnet.hpp"

#include <gtest/gtest.h>

namespace dbsp {
namespace {

Message event_message(std::uint64_t seq = 0) {
  Message m;
  m.type = Message::Type::Event;
  m.event_seq = seq;
  return m;
}

TEST(SimNetTest, ConnectAndNeighbors) {
  SimulatedNetwork net(3);
  net.connect(BrokerId(0), BrokerId(1));
  net.connect(BrokerId(1), BrokerId(2));
  EXPECT_TRUE(net.connected(BrokerId(0), BrokerId(1)));
  EXPECT_TRUE(net.connected(BrokerId(1), BrokerId(0)));
  EXPECT_FALSE(net.connected(BrokerId(0), BrokerId(2)));
  EXPECT_EQ(net.neighbors(BrokerId(1)).size(), 2u);
  net.connect(BrokerId(0), BrokerId(1));  // idempotent
  EXPECT_EQ(net.neighbors(BrokerId(0)).size(), 1u);
}

TEST(SimNetTest, InvalidLinksThrow) {
  SimulatedNetwork net(2);
  EXPECT_THROW(net.connect(BrokerId(0), BrokerId(0)), std::invalid_argument);
  EXPECT_THROW(net.connect(BrokerId(0), BrokerId(5)), std::out_of_range);
  EXPECT_THROW(net.send(BrokerId(0), BrokerId(1), event_message()),
               std::invalid_argument);
}

TEST(SimNetTest, FifoDelivery) {
  SimulatedNetwork net(2);
  net.connect(BrokerId(0), BrokerId(1));
  net.send(BrokerId(0), BrokerId(1), event_message(1));
  net.send(BrokerId(1), BrokerId(0), event_message(2));
  EXPECT_FALSE(net.idle());
  auto d1 = net.pop();
  ASSERT_TRUE(d1.has_value());
  EXPECT_EQ(d1->message.event_seq, 1u);
  EXPECT_EQ(d1->from, BrokerId(0));
  EXPECT_EQ(d1->to, BrokerId(1));
  auto d2 = net.pop();
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d2->message.event_seq, 2u);
  EXPECT_TRUE(net.idle());
  EXPECT_FALSE(net.pop().has_value());
}

TEST(SimNetTest, TrafficAccounting) {
  SimulatedNetwork net(2);
  net.connect(BrokerId(0), BrokerId(1));
  net.send(BrokerId(0), BrokerId(1), event_message());
  Message sub;
  sub.type = Message::Type::Subscribe;
  net.send(BrokerId(0), BrokerId(1), std::move(sub));

  EXPECT_EQ(net.total().messages, 2u);
  EXPECT_EQ(net.total().event_messages, 1u);
  EXPECT_EQ(net.total().control_messages, 1u);
  EXPECT_GT(net.total().bytes, 0u);

  net.reset_stats();
  EXPECT_EQ(net.total().messages, 0u);
  EXPECT_EQ(net.total().bytes, 0u);
}

}  // namespace
}  // namespace dbsp
