// Socket-free tests of dbspd's two edge parts. Connection is driven with
// frame bytes against an in-process PubSub and its write queue is read
// back as frames: hello, subscribe + publish ordering, protocol garbage,
// the slow-consumer mark and the one-entry-per-connection dirty list.
// AdminHttp is driven with request text: every route (also with a
// ?query), 404s, requests split across reads, and the request size cap.

#include "net/connection.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/pubsub.hpp"
#include "net/admin_http.hpp"
#include "net/protocol.hpp"
#include "obs/exposition.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "routing/codec.hpp"
#include "store/format.hpp"
#include "subscription/parser.hpp"
#include "test_util.hpp"

namespace dbsp::net {
namespace {

using Bytes = std::vector<std::uint8_t>;

struct Frame {
  MsgType type;
  Bytes payload;  ///< wire header and type byte stripped
};

/// What the server's read loop does with received bytes.
void feed(Connection& conn, std::span<const std::uint8_t> bytes) {
  conn.receive(bytes);
  while (conn.dispatch_next()) {
  }
}

/// Every frame queued in `out`, which is then consumed as if sent.
std::vector<Frame> take_frames(OutBuffer& out) {
  FrameAssembler fa;
  fa.push(out.pending_bytes());
  out.consume(out.pending());
  std::vector<Frame> frames;
  while (auto body = fa.next()) {
    WireReader r(*body);
    (void)decode_wire_header(r);
    const MsgType type = checked_msg_type(r.get_u8());
    frames.push_back(
        {type, Bytes(body->end() - static_cast<std::ptrdiff_t>(r.remaining()),
                     body->end())});
  }
  EXPECT_EQ(fa.buffered_bytes(), 0u);
  return frames;
}

std::uint64_t u64_of(const Frame& frame) {
  WireReader r(frame.payload);
  const std::uint64_t v = r.get_u64();
  EXPECT_TRUE(r.exhausted());
  return v;
}

class ConnectionTest : public ::testing::Test {
 protected:
  Bytes subscribe_frame(const std::string& dsl) const {
    WireWriter payload;
    encode_tree(*parse_subscription(dsl, dom_.schema()), payload);
    return make_frame(MsgType::kSubscribe, payload);
  }

  Bytes publish_frame(const Event& event) const {
    WireWriter payload;
    encode_event(event, payload);
    return make_frame(MsgType::kPublish, payload);
  }

  Event event(std::int64_t a0) const {
    Event e;
    e.set(dom_.attr(0), Value(a0));
    e.set(dom_.attr(1), Value(std::int64_t{1}));
    e.set(dom_.attr(2), Value(std::int64_t{2}));
    return e;
  }

  test::MiniDomain dom_{3, 10};
  PubSub pubsub_{dom_.schema()};
  NetStatCells stats_;
  Edge edge_{&pubsub_, stats_};
};

TEST_F(ConnectionTest, HelloRepliesWithTheSchema) {
  Connection conn(edge_, 1);
  feed(conn, make_empty_frame(MsgType::kHello));
  const auto frames = take_frames(conn.out());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, MsgType::kHelloReply);
  WireReader r(frames[0].payload);
  const Schema schema = store::decode_schema(r);
  EXPECT_TRUE(r.exhausted());
  ASSERT_EQ(schema.attribute_count(), dom_.schema().attribute_count());
  EXPECT_EQ(schema.name(dom_.attr(2)), "a2");
  EXPECT_EQ(stats_.load().frames_received, 1u);
  EXPECT_EQ(stats_.load().frames_sent, 1u);
}

TEST_F(ConnectionTest, SubscribeThenPublishQueuesReplyNotifyReplyInOrder) {
  Connection conn(edge_, 1);
  // Both requests in one read: the second waits for the first.
  Bytes bytes = subscribe_frame("a0 = 3");
  const Bytes publish = publish_frame(event(3));
  bytes.insert(bytes.end(), publish.begin(), publish.end());
  feed(conn, bytes);

  const auto frames = take_frames(conn.out());
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, MsgType::kSubscribeReply);
  EXPECT_EQ(frames[1].type, MsgType::kNotify);
  EXPECT_EQ(frames[2].type, MsgType::kPublishReply);
  const std::uint64_t id = u64_of(frames[0]);
  WireReader notify(frames[1].payload);
  EXPECT_EQ(notify.get_u64(), id);
  (void)notify.get_u64();  // seq
  EXPECT_EQ(decode_event(notify).to_string(dom_.schema()),
            event(3).to_string(dom_.schema()));
  EXPECT_EQ(u64_of(frames[2]), 1u);
  EXPECT_EQ(edge_.owners.at(id), &conn);
  EXPECT_EQ(stats_.load().subscriptions, 1u);
  EXPECT_EQ(stats_.load().notifications_enqueued, 1u);
}

TEST_F(ConnectionTest, GarbageGetsOneErrorFrameThenCloseAfterFlush) {
  Bytes bad_magic;
  append_frame(bad_magic, Bytes{0x00, 0x01, 0x07});
  const Bytes zero_prefix = {0, 0, 0, 0};
  for (const Bytes& garbage : {bad_magic, zero_prefix}) {
    Connection conn(edge_, 1);
    Bytes bytes = garbage;
    const Bytes ping = make_u64_frame(MsgType::kPing, 7);
    bytes.insert(bytes.end(), ping.begin(), ping.end());
    feed(conn, bytes);
    const auto frames = take_frames(conn.out());
    ASSERT_EQ(frames.size(), 1u);  // the ping after the garbage is not run
    EXPECT_EQ(frames[0].type, MsgType::kError);
    EXPECT_TRUE(conn.close_after_flush());
    EXPECT_FALSE(conn.reading());
    EXPECT_FALSE(conn.dispatch_next());
  }
  EXPECT_EQ(stats_.load().protocol_errors, 2u);
}

TEST_F(ConnectionTest, NotifyPastTheQueueLimitMarksSlowAndQueuesNothing) {
  Connection subscriber(edge_, 1);
  Connection publisher(edge_, 2);
  feed(subscriber, subscribe_frame("a0 = 5"));
  ASSERT_EQ(take_frames(subscriber.out()).size(), 1u);
  edge_.max_write_queue_bytes = 16;  // smaller than any notify frame

  feed(publisher, publish_frame(event(5)));
  EXPECT_TRUE(subscriber.slow());
  EXPECT_FALSE(subscriber.reading());
  EXPECT_EQ(subscriber.out().pending(), 0u);
  ASSERT_EQ(edge_.dirty.size(), 1u);
  EXPECT_EQ(edge_.dirty[0], &subscriber);
  EXPECT_EQ(stats_.load().notifications_enqueued, 0u);
  const auto replies = take_frames(publisher.out());
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(u64_of(replies[0]), 1u);  // the engine still matched it
}

TEST_F(ConnectionTest, ManyNotificationsInOneDispatchMarkTheConnectionOnce) {
  Connection subscriber(edge_, 1);
  Connection publisher(edge_, 2);
  constexpr std::size_t kSubs = 5;
  for (std::size_t i = 0; i < kSubs; ++i) feed(subscriber, subscribe_frame("a0 >= 0"));
  ASSERT_EQ(take_frames(subscriber.out()).size(), kSubs);

  feed(publisher, publish_frame(event(4)));
  ASSERT_EQ(edge_.dirty.size(), 1u);
  EXPECT_EQ(edge_.dirty[0], &subscriber);
  const auto notes = take_frames(subscriber.out());
  ASSERT_EQ(notes.size(), kSubs);
  for (const Frame& f : notes) EXPECT_EQ(f.type, MsgType::kNotify);

  // Once the owner has taken the list, the next dispatch marks it again.
  subscriber.clear_dirty();
  edge_.dirty.clear();
  feed(publisher, publish_frame(event(6)));
  EXPECT_EQ(edge_.dirty.size(), 1u);
}

class AdminHttpTest : public ::testing::Test {
 protected:
  AdminHttpTest() { registry_->counter("dbsp_admin_test_total").inc(); }

  std::shared_ptr<obs::MetricsRegistry> registry_ =
      std::make_shared<obs::MetricsRegistry>();
  obs::FlightRecorder recorder_;
  NetStatCells stats_;
  AdminHttp http_{registry_.get(), &recorder_, stats_};
};

std::string get(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n";
}

TEST_F(AdminHttpTest, EveryRouteAnswersWithAndWithoutAQuery) {
  struct Case {
    std::string path;
    std::string content_type;
    std::string body_token;
  };
  const Case cases[] = {
      {"/metrics", obs::prometheus_content_type(), "dbsp_admin_test_total 1"},
      {"/traces", "application/json", "\"recorded_total\": 0"},
      {"/healthz", "application/json", "\"status\": \"ok\""},
      {"/buildinfo", "application/json", "\"name\": \"dbspd\""},
  };
  for (const Case& c : cases) {
    for (const std::string& query : {std::string(), std::string("?verbose=1")}) {
      const std::string response = http_.respond(get(c.path + query));
      EXPECT_TRUE(response.starts_with("HTTP/1.1 200 OK\r\n")) << c.path << query;
      EXPECT_NE(response.find("Content-Type: " + c.content_type), std::string::npos)
          << response;
      EXPECT_NE(response.find(c.body_token), std::string::npos) << response;
      const std::string body = response.substr(response.find("\r\n\r\n") + 4);
      EXPECT_NE(response.find("Content-Length: " + std::to_string(body.size()) + "\r\n"),
                std::string::npos)
          << response;
    }
  }
}

TEST_F(AdminHttpTest, UnknownRoutesAre404) {
  for (const std::string& request :
       {get("/"), get("/other"), get("/metricsx"), get("/healthz/deep"),
        std::string("POST /metrics HTTP/1.1\r\n\r\n"), std::string("\r\n\r\n")}) {
    EXPECT_TRUE(http_.respond(request).starts_with("HTTP/1.1 404 Not Found\r\n"))
        << request;
  }
}

TEST_F(AdminHttpTest, SplitRequestIsAnsweredOnlyOnceTheHeaderEnds) {
  AdminConn conn;
  for (const std::string piece : {"GET /hea", "lthz HTTP/1.1\r\n", "Host: t\r\n", "\r"}) {
    ASSERT_TRUE(http_.on_bytes(conn, piece));
    EXPECT_FALSE(conn.responded);
    EXPECT_EQ(conn.out.pending(), 0u);
  }
  ASSERT_TRUE(http_.on_bytes(conn, "\n"));
  EXPECT_TRUE(conn.responded);
  const auto bytes = conn.out.pending_bytes();
  const std::string response(bytes.begin(), bytes.end());
  EXPECT_TRUE(response.starts_with("HTTP/1.1 200 OK\r\n")) << response;
  EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos);
}

TEST_F(AdminHttpTest, RequestOverTheCapClosesWithoutAResponse) {
  AdminConn conn;
  const std::string chunk(1024, 'a');
  std::size_t fed = 0;
  while (fed + chunk.size() <= AdminHttp::kMaxRequestBytes) {
    ASSERT_TRUE(http_.on_bytes(conn, chunk));
    fed += chunk.size();
  }
  EXPECT_FALSE(http_.on_bytes(conn, "\r\n\r\n"));  // 8 KiB + 4: over the cap
  EXPECT_FALSE(conn.responded);
  EXPECT_EQ(conn.out.pending(), 0u);
}

}  // namespace
}  // namespace dbsp::net
