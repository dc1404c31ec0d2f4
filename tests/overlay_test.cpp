#include "broker/overlay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "subscription/parser.hpp"

namespace dbsp {
namespace {

class OverlayTest : public ::testing::Test {
 protected:
  OverlayTest() {
    schema_.add_attribute("topic", ValueType::String);
    schema_.add_attribute("price", ValueType::Double);
  }
  Schema schema_;

  [[nodiscard]] std::unique_ptr<Node> tree(std::string_view s) const {
    return parse_subscription(s, schema_);
  }

  [[nodiscard]] Event event(std::string_view topic, double price) const {
    return EventBuilder(schema_).with("topic", std::string(topic)).with("price", price).build();
  }
};

TEST_F(OverlayTest, TopologyHelpers) {
  EXPECT_EQ(Overlay::line(5).size(), 4u);
  EXPECT_EQ(Overlay::star(5).size(), 4u);
  EXPECT_THROW(Overlay(schema_, 3, {{0, 1}, {1, 2}, {2, 0}}), std::invalid_argument);
  EXPECT_THROW(Overlay(schema_, 0, {}), std::invalid_argument);
}

TEST_F(OverlayTest, SubscriptionFloodsToAllBrokers) {
  Overlay overlay(schema_, 5, Overlay::line(5));
  overlay.subscribe(BrokerId(0), ClientId(1), SubscriptionId(1), tree("topic = 'x'"));
  for (std::uint32_t b = 0; b < 5; ++b) {
    EXPECT_TRUE(overlay.broker(BrokerId(b)).table().contains(SubscriptionId(1)))
        << "broker " << b;
  }
  // Remote everywhere except the home broker.
  EXPECT_EQ(overlay.broker(BrokerId(0)).table().local_count(), 1u);
  EXPECT_EQ(overlay.broker(BrokerId(4)).table().remote_count(), 1u);
  // 4 subscribe messages crossed the 4 links exactly once each.
  EXPECT_EQ(overlay.network().total().control_messages, 4u);
}

TEST_F(OverlayTest, EventRoutedOnlyTowardInterestedBroker) {
  Overlay overlay(schema_, 5, Overlay::line(5));
  overlay.subscribe(BrokerId(4), ClientId(1), SubscriptionId(1), tree("topic = 'x'"));
  overlay.network().reset_stats();

  // Publish at broker 0: must traverse all 4 links to reach broker 4.
  overlay.publish(BrokerId(0), event("x", 1.0));
  EXPECT_EQ(overlay.network().total().event_messages, 4u);
  EXPECT_EQ(overlay.total_notifications(), 1u);

  // Non-matching event leaves the wire silent.
  overlay.network().reset_stats();
  overlay.publish(BrokerId(0), event("y", 1.0));
  EXPECT_EQ(overlay.network().total().event_messages, 0u);
  EXPECT_EQ(overlay.total_notifications(), 1u);
}

TEST_F(OverlayTest, EventStopsAtClosestInterestedSegment) {
  Overlay overlay(schema_, 5, Overlay::line(5));
  overlay.subscribe(BrokerId(1), ClientId(1), SubscriptionId(1), tree("topic = 'x'"));
  overlay.network().reset_stats();
  overlay.publish(BrokerId(0), event("x", 1.0));
  // Only the 0-1 link is used; brokers 2..4 never see the event.
  EXPECT_EQ(overlay.network().total().event_messages, 1u);
}

TEST_F(OverlayTest, LocalDeliveryWithoutNetworkTraffic) {
  Overlay overlay(schema_, 3, Overlay::line(3));
  overlay.subscribe(BrokerId(1), ClientId(1), SubscriptionId(1), tree("topic = 'x'"));
  overlay.network().reset_stats();
  overlay.publish(BrokerId(1), event("x", 1.0));
  EXPECT_EQ(overlay.total_notifications(), 1u);
  EXPECT_EQ(overlay.network().total().event_messages, 0u);
}

TEST_F(OverlayTest, MultipleSubscribersDeduplicatePerLink) {
  Overlay overlay(schema_, 3, Overlay::line(3));
  // Two subscriptions at broker 2, both matching the same event.
  overlay.subscribe(BrokerId(2), ClientId(1), SubscriptionId(1), tree("topic = 'x'"));
  overlay.subscribe(BrokerId(2), ClientId(2), SubscriptionId(2), tree("price < 10"));
  overlay.network().reset_stats();
  overlay.publish(BrokerId(0), event("x", 5.0));
  // One copy per link despite two matching remote subscriptions.
  EXPECT_EQ(overlay.network().total().event_messages, 2u);
  EXPECT_EQ(overlay.total_notifications(), 2u);
}

TEST_F(OverlayTest, NotificationLogRecordsSubscriberAndEvent) {
  Overlay overlay(schema_, 2, Overlay::line(2));
  overlay.set_record_notifications(true);
  overlay.subscribe(BrokerId(1), ClientId(1), SubscriptionId(7), tree("topic = 'x'"));
  const auto seq = overlay.publish(BrokerId(0), event("x", 1.0));
  const auto& log = overlay.broker(BrokerId(1)).notification_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].first, SubscriptionId(7));
  EXPECT_EQ(log[0].second, seq);
}

TEST_F(OverlayTest, StarTopologyRoutesThroughHub) {
  Overlay overlay(schema_, 4, Overlay::star(4));
  overlay.subscribe(BrokerId(3), ClientId(1), SubscriptionId(1), tree("topic = 'x'"));
  overlay.network().reset_stats();
  overlay.publish(BrokerId(1), event("x", 1.0));
  // Leaf 1 -> hub 0 -> leaf 3: two hops.
  EXPECT_EQ(overlay.network().total().event_messages, 2u);
  EXPECT_EQ(overlay.total_notifications(), 1u);
}

TEST_F(OverlayTest, UnsubscribeFloodsAndStopsDelivery) {
  Overlay overlay(schema_, 4, Overlay::line(4));
  overlay.subscribe(BrokerId(3), ClientId(1), SubscriptionId(1), tree("topic = 'x'"));
  overlay.publish(BrokerId(0), event("x", 1.0));
  EXPECT_EQ(overlay.total_notifications(), 1u);

  overlay.unsubscribe(BrokerId(3), SubscriptionId(1));
  for (std::uint32_t b = 0; b < 4; ++b) {
    EXPECT_FALSE(overlay.broker(BrokerId(b)).table().contains(SubscriptionId(1)));
    EXPECT_EQ(overlay.broker(BrokerId(b)).engine().subscription_count(), 0u);
  }

  overlay.network().reset_stats();
  overlay.reset_metrics();
  overlay.publish(BrokerId(0), event("x", 1.0));
  EXPECT_EQ(overlay.total_notifications(), 0u);
  EXPECT_EQ(overlay.network().total().event_messages, 0u);
}

TEST_F(OverlayTest, UnsubscribeLeavesOtherSubscriptionsIntact) {
  Overlay overlay(schema_, 3, Overlay::line(3));
  overlay.subscribe(BrokerId(2), ClientId(1), SubscriptionId(1), tree("topic = 'x'"));
  overlay.subscribe(BrokerId(2), ClientId(2), SubscriptionId(2), tree("topic = 'x'"));
  overlay.unsubscribe(BrokerId(2), SubscriptionId(1));
  overlay.reset_metrics();
  overlay.publish(BrokerId(0), event("x", 1.0));
  EXPECT_EQ(overlay.total_notifications(), 1u);
  // The unsubscribe flood crossed each link exactly once.
  EXPECT_EQ(overlay.broker(BrokerId(0)).table().size(), 1u);
}

TEST_F(OverlayTest, UnsubscribeOfUnknownOrRemoteThrows) {
  Overlay overlay(schema_, 2, Overlay::line(2));
  overlay.subscribe(BrokerId(0), ClientId(1), SubscriptionId(1), tree("topic = 'x'"));
  EXPECT_THROW(overlay.unsubscribe(BrokerId(0), SubscriptionId(9)),
               std::invalid_argument);
  // Broker 1 only has a remote copy; unsubscribe must happen at the home broker.
  EXPECT_THROW(overlay.unsubscribe(BrokerId(1), SubscriptionId(1)),
               std::invalid_argument);
}

// --- Aggregated routing (subgroup-summary advertisements) ------------------

TEST_F(OverlayTest, AggregatedOverlayDeliversExactlyLikePlain) {
  Overlay plain(schema_, 4, Overlay::line(4));
  Overlay aggregated(schema_, 4, Overlay::line(4));
  aggregated.enable_aggregation();
  plain.set_record_notifications(true);
  aggregated.set_record_notifications(true);

  const char* filters[] = {"topic = 'x'", "price < 10", "topic = 'y' and price > 5",
                           "price >= 2 and price <= 8", "not (topic = 'x')"};
  for (std::uint32_t i = 0; i < 20; ++i) {
    const BrokerId home(i % 4);
    plain.subscribe(home, ClientId(i), SubscriptionId(i), tree(filters[i % 5]));
    aggregated.subscribe(home, ClientId(i), SubscriptionId(i), tree(filters[i % 5]));
  }

  const char* topics[] = {"x", "y", "z"};
  for (std::uint32_t i = 0; i < 30; ++i) {
    const Event e = event(topics[i % 3], static_cast<double>(i % 12));
    plain.publish(BrokerId(i % 4), e);
    aggregated.publish(BrokerId(i % 4), e);
  }

  EXPECT_GT(plain.total_notifications(), 0u);
  EXPECT_EQ(aggregated.total_notifications(), plain.total_notifications());
  for (std::uint32_t b = 0; b < 4; ++b) {
    auto lhs = plain.broker(BrokerId(b)).notification_log();
    auto rhs = aggregated.broker(BrokerId(b)).notification_log();
    std::sort(lhs.begin(), lhs.end());
    std::sort(rhs.begin(), rhs.end());
    EXPECT_EQ(lhs, rhs) << "broker " << b;
  }
}

TEST_F(OverlayTest, AggregatedAdvertisementsSaveControlBytes) {
  // 200 subscriptions over 10 distinct filter shapes: the plain overlay
  // floods every tree to every link, the aggregated overlay advertises one
  // bounded summary per subgroup and stays silent when an arrival does not
  // change its subgroup's summary — the fig1b-style network saving.
  const auto subscribe_all = [&](Overlay& overlay) {
    for (std::uint32_t i = 0; i < 200; ++i) {
      overlay.subscribe(BrokerId(0), ClientId(i), SubscriptionId(i),
                        tree("topic = 'x' and price < " + std::to_string(i % 10)));
    }
  };

  Overlay plain(schema_, 4, Overlay::line(4));
  subscribe_all(plain);
  const std::uint64_t plain_bytes = plain.network().total().bytes;

  Overlay aggregated(schema_, 4, Overlay::line(4));
  aggregated.enable_aggregation();
  subscribe_all(aggregated);
  const std::uint64_t aggregated_bytes = aggregated.network().total().bytes;

  EXPECT_LT(aggregated_bytes, plain_bytes);
  EXPECT_LT(aggregated_bytes, plain_bytes / 4);  // an order-of-shape saving
  // Remote brokers hold no per-subscription state, only learned summaries.
  EXPECT_EQ(aggregated.broker(BrokerId(3)).table().size(), 0u);

  // Delivery still works through the learned summaries.
  aggregated.publish(BrokerId(3), event("x", 1.0));
  EXPECT_GT(aggregated.total_notifications(), 0u);
}

TEST_F(OverlayTest, AggregatedEventRoutingSkipsUninterestedLinks) {
  Overlay overlay(schema_, 5, Overlay::line(5));
  overlay.enable_aggregation();
  overlay.subscribe(BrokerId(4), ClientId(1), SubscriptionId(1), tree("topic = 'x'"));
  overlay.network().reset_stats();

  overlay.publish(BrokerId(0), event("x", 1.0));
  EXPECT_EQ(overlay.network().total().event_messages, 4u);
  EXPECT_EQ(overlay.total_notifications(), 1u);

  // The learned summary rejects a non-matching topic at the source broker.
  overlay.network().reset_stats();
  overlay.publish(BrokerId(0), event("y", 1.0));
  EXPECT_EQ(overlay.network().total().event_messages, 0u);
  EXPECT_EQ(overlay.total_notifications(), 1u);
}

TEST_F(OverlayTest, AggregatedUnsubscribeRetractsAndStopsDelivery) {
  Overlay overlay(schema_, 3, Overlay::line(3));
  overlay.enable_aggregation();
  overlay.subscribe(BrokerId(2), ClientId(1), SubscriptionId(1), tree("topic = 'x'"));
  overlay.publish(BrokerId(0), event("x", 1.0));
  EXPECT_EQ(overlay.total_notifications(), 1u);

  overlay.unsubscribe(BrokerId(2), SubscriptionId(1));
  overlay.network().reset_stats();
  overlay.reset_metrics();
  overlay.publish(BrokerId(0), event("x", 1.0));
  EXPECT_EQ(overlay.total_notifications(), 0u);
  // The emptied subgroup was retracted, so the event stays off the wire.
  EXPECT_EQ(overlay.network().total().event_messages, 0u);
}

TEST_F(OverlayTest, AggregationRequiresEmptyBrokers) {
  Overlay overlay(schema_, 2, Overlay::line(2));
  overlay.subscribe(BrokerId(0), ClientId(1), SubscriptionId(1), tree("topic = 'x'"));
  EXPECT_THROW(overlay.enable_aggregation(), std::logic_error);
}

TEST_F(OverlayTest, ResetMetricsClearsBrokerCounters) {
  Overlay overlay(schema_, 2, Overlay::line(2));
  overlay.subscribe(BrokerId(1), ClientId(1), SubscriptionId(1), tree("topic = 'x'"));
  overlay.publish(BrokerId(0), event("x", 1.0));
  EXPECT_GT(overlay.total_notifications(), 0u);
  overlay.reset_metrics();
  EXPECT_EQ(overlay.total_notifications(), 0u);
  EXPECT_EQ(overlay.network().total().messages, 0u);
  EXPECT_DOUBLE_EQ(overlay.total_filter_seconds(), 0.0);
}

}  // namespace
}  // namespace dbsp
