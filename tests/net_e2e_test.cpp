// End-to-end tests of the dbspd daemon core over real loopback TCP:
// multi-client fan-out checked against a naive oracle, slow-reader
// backpressure (bounded write queues -> slow-consumer disconnect), clean
// disconnects releasing subscriptions, daemon kill -> warm restart via
// PubSub::open() with clients re-adopting their ids, graceful drain
// delivering every in-flight notification, and a full sockets-mode
// scenario soak (churn + flash crowd + kill-and-recover) staying
// oracle-exact across the wire. The TSan CI lane runs this suite to race
// the io thread against the test thread's stats()/stop() surface.

#include "net/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/pubsub.hpp"
#include "net/client.hpp"
#include "obs/exposition.hpp"
#include "obs/flight.hpp"
#include "scenario/scenario_runner.hpp"
#include "test_util.hpp"

namespace dbsp::net {
namespace {

using test::MiniDomain;
using test::TempDir;

std::unique_ptr<NetServer> start_server(PubSub pubsub,
                                        NetServerOptions options = {}) {
  auto server = NetServer::start(std::move(pubsub), options);
  EXPECT_TRUE(server.ok()) << server.status().to_string();
  return std::move(server).value();
}

DbspClient connect_to(const NetServer& server) {
  auto client = DbspClient::connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status().to_string();
  return std::move(client).value();
}

/// Polls `cond` for up to ~5s (the io thread applies disconnects async).
template <class Cond>
bool eventually(Cond&& cond) {
  for (int i = 0; i < 500; ++i) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

TEST(NetE2eTest, MultiClientFanOutMatchesNaiveOracle) {
  MiniDomain dom(6, 30);
  auto server = start_server(PubSub(dom.schema()));

  // Four subscriber clients, each holding several subscriptions; oracle
  // clones stay on the test side.
  struct Entry {
    std::uint64_t id;
    std::unique_ptr<Node> tree;
  };
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kSubsPerClient = 8;
  std::mt19937_64 rng(42);
  std::vector<DbspClient> subscribers;
  std::vector<std::vector<Entry>> entries(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    subscribers.push_back(connect_to(*server));
    for (std::size_t s = 0; s < kSubsPerClient; ++s) {
      auto tree = dom.random_tree(rng, 4, 0.2);
      auto id = subscribers[c].subscribe(*tree);
      ASSERT_TRUE(id.ok()) << id.status().to_string();
      entries[c].push_back(Entry{id.value(), std::move(tree)});
    }
  }
  DbspClient publisher = connect_to(*server);

  for (int ev = 0; ev < 200; ++ev) {
    const Event event = dom.random_event(rng);
    auto matched = publisher.publish(event);
    ASSERT_TRUE(matched.ok()) << matched.status().to_string();

    std::uint64_t total_expected = 0;
    for (std::size_t c = 0; c < kClients; ++c) {
      std::vector<std::uint64_t> expected;
      for (const Entry& e : entries[c]) {
        if (e.tree->evaluate_event(event)) expected.push_back(e.id);
      }
      total_expected += expected.size();
      std::vector<std::uint64_t> got;
      for (std::size_t k = 0; k < expected.size(); ++k) {
        auto n = subscribers[c].next_notification(5000);
        ASSERT_TRUE(n.ok()) << n.status().to_string();
        ASSERT_TRUE(n.value().has_value())
            << "client " << c << " missing notification " << k;
        got.push_back(n.value()->subscription);
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << "client " << c << " event " << ev;
      // And no strays beyond the expected count.
      auto extra = subscribers[c].next_notification(0);
      ASSERT_TRUE(extra.ok());
      EXPECT_FALSE(extra.value().has_value()) << "client " << c;
    }
    EXPECT_EQ(matched.value(), total_expected);
  }
}

TEST(NetE2eTest, SlowReaderHitsBoundedQueueAndIsDisconnected) {
  // Blob schema: each notification carries ~64 KiB, so an unread consumer
  // overruns kernel buffers and then the server-side bounded queue fast.
  Schema schema;
  const AttributeId x = schema.add_attribute("x", ValueType::Int);
  const AttributeId blob = schema.add_attribute("blob", ValueType::String);
  NetServerOptions options;
  options.max_write_queue_bytes = 256 * 1024;
  auto server = start_server(PubSub(schema), options);

  DbspClient slow = connect_to(*server);
  const auto match_all = Node::leaf(Predicate(x, Op::Ge, Value(0)));
  auto id = slow.subscribe(*match_all);
  ASSERT_TRUE(id.ok()) << id.status().to_string();

  DbspClient publisher = connect_to(*server);
  Event event;
  event.set(x, Value(1));
  event.set(blob, Value(std::string(64 * 1024, 'b')));
  bool disconnected = false;
  for (int i = 0; i < 400 && !disconnected; ++i) {
    auto matched = publisher.publish(event);
    ASSERT_TRUE(matched.ok()) << matched.status().to_string();
    disconnected = server->stats().slow_consumer_disconnects > 0;
  }
  EXPECT_TRUE(disconnected) << "bounded write queue never tripped";
  // The disconnect released the subscription; the daemon stays healthy.
  EXPECT_TRUE(eventually([&] { return server->stats().subscriptions == 0; }));
  auto pong = publisher.ping(1);
  ASSERT_TRUE(pong.ok()) << pong.status().to_string();
}

TEST(NetE2eTest, CleanDisconnectReleasesSubscriptions) {
  MiniDomain dom(4, 20);
  auto server = start_server(PubSub(dom.schema()));
  std::mt19937_64 rng(7);
  {
    DbspClient client = connect_to(*server);
    for (int i = 0; i < 3; ++i) {
      auto id = client.subscribe(*dom.random_tree(rng, 3));
      ASSERT_TRUE(id.ok()) << id.status().to_string();
    }
    EXPECT_EQ(server->stats().subscriptions, 3u);
  }  // client destroyed -> clean close
  EXPECT_TRUE(eventually([&] { return server->stats().subscriptions == 0; }));
}

TEST(NetE2eTest, KillRestartWarmAndReAdoptStaysExact) {
  MiniDomain dom(5, 25);
  TempDir dir("warm");
  const auto open_pubsub = [&] {
    StoreOptions store;
    store.directory = dir.str();
    store.schema = dom.schema();
    auto opened = PubSub::open(std::move(store));
    EXPECT_TRUE(opened.ok()) << opened.status().to_string();
    return std::move(opened).value();
  };

  std::mt19937_64 rng(99);
  struct Entry {
    std::uint64_t id;
    std::unique_ptr<Node> tree;
  };
  std::vector<Entry> live;

  auto server = start_server(open_pubsub());
  {
    DbspClient subscriber = connect_to(*server);
    for (int i = 0; i < 6; ++i) {
      auto tree = dom.random_tree(rng, 4, 0.25);
      auto id = subscriber.subscribe(*tree);
      ASSERT_TRUE(id.ok()) << id.status().to_string();
      live.push_back(Entry{id.value(), std::move(tree)});
    }
    // Kill: no drain, no checkpoint, no client goodbye. The WAL already
    // holds every acknowledged subscribe, so nothing is lost — and the
    // kill must NOT unsubscribe anyone (only clean disconnects do).
    server->stop(/*drain=*/false);
  }

  server = start_server(open_pubsub());
  EXPECT_EQ(server->stats().subscriptions, live.size());

  DbspClient subscriber = connect_to(*server);
  DbspClient publisher = connect_to(*server);
  for (const Entry& e : live) {
    auto adopted = subscriber.adopt(e.id);
    ASSERT_TRUE(adopted.ok()) << adopted.status().to_string();
    EXPECT_EQ(adopted.value(), e.id);
  }
  // Adopting an id someone owns is refused.
  DbspClient thief = connect_to(*server);
  auto stolen = thief.adopt(live.front().id);
  ASSERT_FALSE(stolen.ok());
  EXPECT_EQ(stolen.status().code(), ErrorCode::kFailedPrecondition);

  for (int ev = 0; ev < 120; ++ev) {
    const Event event = dom.random_event(rng);
    auto matched = publisher.publish(event);
    ASSERT_TRUE(matched.ok()) << matched.status().to_string();
    std::vector<std::uint64_t> expected;
    for (const Entry& e : live) {
      if (e.tree->evaluate_event(event)) expected.push_back(e.id);
    }
    std::vector<std::uint64_t> got;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      auto n = subscriber.next_notification(5000);
      ASSERT_TRUE(n.ok()) << n.status().to_string();
      ASSERT_TRUE(n.value().has_value());
      got.push_back(n.value()->subscription);
    }
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, expected) << "event " << ev;
    EXPECT_EQ(matched.value(), expected.size());
  }
}

TEST(NetE2eTest, GracefulDrainDeliversQueuedNotifications) {
  MiniDomain dom(4, 10);
  auto server = start_server(PubSub(dom.schema()));

  DbspClient subscriber = connect_to(*server);
  const auto match_all = Node::leaf(Predicate(dom.attr(0), Op::Ge, Value(0)));
  auto id = subscriber.subscribe(*match_all);
  ASSERT_TRUE(id.ok()) << id.status().to_string();

  DbspClient publisher = connect_to(*server);
  constexpr int kEvents = 200;
  std::mt19937_64 rng(3);
  for (int i = 0; i < kEvents; ++i) {
    auto matched = publisher.publish(dom.random_event(rng));
    ASSERT_TRUE(matched.ok()) << matched.status().to_string();
    ASSERT_EQ(matched.value(), 1u);
  }

  // Graceful drain with the subscriber having read nothing: every queued
  // notification must be flushed before the server closes.
  server->stop(/*drain=*/true);

  int received = 0;
  for (; received < kEvents; ++received) {
    auto n = subscriber.next_notification(5000);
    if (!n.ok() || !n.value().has_value()) break;
  }
  EXPECT_EQ(received, kEvents);
}

/// Minimal HTTP GET against the metrics endpoint over the raw socket
/// helpers (the server closes after one response, so read to EOF).
std::string http_get(std::uint16_t port, const std::string& target) {
  auto sock = tcp_connect("127.0.0.1", port, 5000);
  if (!sock.ok()) return {};
  const std::string req = "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n";
  if (!send_all(sock.value().fd(),
                std::span(reinterpret_cast<const std::uint8_t*>(req.data()),
                          req.size()))
           .ok()) {
    return {};
  }
  std::string out;
  std::uint8_t chunk[4096];
  while (true) {
    auto readable = wait_readable(sock.value().fd(), 5000);
    if (!readable.ok() || readable.value() == 0) break;
    auto got = recv_some(sock.value().fd(), chunk);
    if (!got.ok() || got.value() == 0) break;
    out.append(reinterpret_cast<const char*>(chunk), got.value());
  }
  return out;
}

/// The value of one exposition line ("series value"), or -1 when absent.
double prom_value(const std::string& text, const std::string& series) {
  const std::string needle = "\n" + series + " ";
  const auto at = text.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::stod(text.substr(at + needle.size()));
}

TEST(NetE2eTest, MetricsVerbHttpAndFacadeAgree) {
  // The three-export contract: PubSub::metrics(), the kMetrics verb, and
  // GET /metrics must report identical facade counters for a quiesced
  // deterministic workload — and all three must answer during load.
  MiniDomain dom(5, 20);
  PubSubOptions options;
  options.engine.shards = 2;
  options.trace.sample_every = 1;  // head-sample every publish
  NetServerOptions net;
  net.metrics_port = 0;  // ephemeral
  auto server = start_server(PubSub(dom.schema(), options), net);
  ASSERT_NE(server->metrics_port(), 0);

  std::mt19937_64 rng(11);
  DbspClient subscriber = connect_to(*server);
  for (int i = 0; i < 5; ++i) {
    auto id = subscriber.subscribe(*dom.random_tree(rng, 3));
    ASSERT_TRUE(id.ok()) << id.status().to_string();
  }
  DbspClient publisher = connect_to(*server);
  constexpr std::uint64_t kEvents = 150;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    auto matched = publisher.publish(dom.random_event(rng));
    ASSERT_TRUE(matched.ok()) << matched.status().to_string();
    if (i % 50 == 25) {
      // Scrapes during active publish load answer on both channels.
      auto verb = publisher.metrics();
      ASSERT_TRUE(verb.ok()) << verb.status().to_string();
      EXPECT_FALSE(verb.value().metrics.empty());
      EXPECT_NE(http_get(server->metrics_port(), "/metrics").find("200 OK"),
                std::string::npos);
    }
  }

  // Quiesced (the last publish reply is in): the facade-owned series must
  // agree exactly across all three exports. Net-edge frame/byte counters
  // are excluded — the scrapes themselves advance them.
  const obs::MetricsSnapshot facade = server->pubsub()->metrics();
  auto verb = publisher.metrics();
  ASSERT_TRUE(verb.ok()) << verb.status().to_string();
  const std::string http = http_get(server->metrics_port(), "/metrics");
  ASSERT_NE(http.find("200 OK"), std::string::npos);
  EXPECT_NE(http.find(obs::prometheus_content_type()), std::string::npos);

  const auto agree = [&](const std::string& name) {
    const double f = facade.value(name);
    EXPECT_EQ(verb.value().value(name), f) << name;
    EXPECT_EQ(prom_value(http, name), f) << name;
  };
  agree("dbsp_publishes_total");
  agree("dbsp_matches_total");
  agree("dbsp_match_events_total");
  agree("dbsp_subscriptions");
  agree("dbsp_net_events_published_total");
  EXPECT_EQ(facade.value("dbsp_publishes_total"),
            static_cast<double>(kEvents));
  EXPECT_EQ(facade.value("dbsp_net_events_published_total"),
            static_cast<double>(kEvents));
  EXPECT_EQ(facade.value("dbsp_subscriptions"), 5.0);

  // Per-stage histograms in all three exports: every (head-sampled)
  // publish records one match span.
  {
    const obs::Labels labels = {{"stage", "match"}};
    const obs::MetricSnapshot* fm = facade.find("dbsp_stage_us", labels);
    ASSERT_NE(fm, nullptr);
    EXPECT_EQ(fm->histogram.count, kEvents);
    const obs::MetricSnapshot* vm = verb.value().find("dbsp_stage_us", labels);
    ASSERT_NE(vm, nullptr);
    EXPECT_EQ(vm->histogram.count, fm->histogram.count);
    EXPECT_EQ(prom_value(http, "dbsp_stage_us_count{stage=\"match\"}"),
              static_cast<double>(fm->histogram.count));
  }

  // WAL lag and the net write-queue high-water are visible everywhere
  // (zero-valued here: non-durable store, fast consumer).
  EXPECT_NE(facade.find("dbsp_wal_lag_records"), nullptr);
  EXPECT_NE(verb.value().find("dbsp_wal_lag_records"), nullptr);
  EXPECT_GE(prom_value(http, "dbsp_wal_lag_records"), 0.0);
  EXPECT_NE(facade.find("dbsp_net_write_queue_high_water_bytes"), nullptr);
  EXPECT_NE(verb.value().find("dbsp_net_write_queue_high_water_bytes"),
            nullptr);
  EXPECT_GE(prom_value(http, "dbsp_net_write_queue_high_water_bytes"), 0.0);

  // NetStats parity: the registry's net series mirror the legacy struct.
  const NetStats stats = server->stats();
  EXPECT_EQ(verb.value().value("dbsp_net_events_published_total"),
            static_cast<double>(stats.events_published));
  EXPECT_EQ(verb.value().value("dbsp_net_subscriptions"),
            static_cast<double>(stats.subscriptions));

  // Anything but GET /metrics is a 404.
  EXPECT_NE(http_get(server->metrics_port(), "/other").find("404"),
            std::string::npos);
}

TEST(NetE2eTest, HttpMetricsKeepsServingDuringGracefulDrain) {
  // Big notifications against an unread subscriber build real pending
  // write-queue bytes; a graceful drain then has work to flush, and the
  // HTTP endpoint must keep answering while it does.
  Schema schema;
  const AttributeId x = schema.add_attribute("x", ValueType::Int);
  const AttributeId blob = schema.add_attribute("blob", ValueType::String);
  NetServerOptions net;
  net.metrics_port = 0;
  net.drain_timeout_ms = 20000;
  net.max_write_queue_bytes = 64u << 20;  // hold, don't disconnect
  auto server = start_server(PubSub(schema), net);

  DbspClient slow = connect_to(*server);
  const auto match_all = Node::leaf(Predicate(x, Op::Ge, Value(0)));
  auto id = slow.subscribe(*match_all);
  ASSERT_TRUE(id.ok()) << id.status().to_string();

  DbspClient publisher = connect_to(*server);
  Event event;
  event.set(x, Value(1));
  event.set(blob, Value(std::string(64 * 1024, 'b')));
  constexpr int kEvents = 100;
  for (int i = 0; i < kEvents; ++i) {
    auto matched = publisher.publish(event);
    ASSERT_TRUE(matched.ok()) << matched.status().to_string();
  }

  server->request_stop_async(/*drain=*/true);
  // ~6 MiB of unread notifications cannot fit the kernel buffers, so the
  // drain stays in progress until the subscriber reads; meanwhile the
  // scrape endpoint answers with the draining gauge raised.
  ASSERT_TRUE(eventually([&] {
    return prom_value(http_get(server->metrics_port(), "/metrics"),
                      "dbsp_net_draining") == 1.0;
  }));
  const std::string http = http_get(server->metrics_port(), "/metrics");
  EXPECT_NE(http.find("200 OK"), std::string::npos);
  EXPECT_EQ(prom_value(http, "dbsp_net_events_published_total"),
            static_cast<double>(kEvents));

  int received = 0;
  for (; received < kEvents; ++received) {
    auto n = slow.next_notification(10000);
    if (!n.ok() || !n.value().has_value()) break;
  }
  EXPECT_EQ(received, kEvents);
  server->wait();
  EXPECT_FALSE(server->running());
}

TEST(NetE2eTest, HealthzAndBuildinfoAnswerOnTheMetricsPort) {
  Schema schema;
  schema.add_attribute("x", ValueType::Int);
  NetServerOptions net;
  net.metrics_port = 0;
  auto server = start_server(PubSub(schema), net);
  ASSERT_NE(server->metrics_port(), 0);

  const std::string health = http_get(server->metrics_port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("\"status\": \"ok\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"draining\": 0"), std::string::npos) << health;
  EXPECT_NE(health.find("\"uptime_s\": "), std::string::npos) << health;
  EXPECT_NE(health.find("\"connections\": "), std::string::npos) << health;

  const std::string build = http_get(server->metrics_port(), "/buildinfo");
  EXPECT_NE(build.find("200 OK"), std::string::npos) << build;
  EXPECT_NE(build.find("\"name\": \"dbspd\""), std::string::npos) << build;
  EXPECT_NE(build.find("\"wire_format_version\": "), std::string::npos)
      << build;
}

TEST(NetE2eTest, IdleMetricsSocketsDoNotLockOutScrapes) {
  // 64 sockets that never send a request fill the metrics port's
  // connection cap; a scrape must still be answered.
  Schema schema;
  schema.add_attribute("x", ValueType::Int);
  NetServerOptions net;
  net.metrics_port = 0;
  auto server = start_server(PubSub(schema), net);
  ASSERT_NE(server->metrics_port(), 0);
  std::vector<Socket> idle;
  for (int i = 0; i < 64; ++i) {
    auto sock = tcp_connect("127.0.0.1", server->metrics_port(), 5000);
    ASSERT_TRUE(sock.ok()) << sock.status().to_string();
    idle.push_back(std::move(sock).value());
  }
  const std::string http = http_get(server->metrics_port(), "/metrics");
  EXPECT_NE(http.find("200 OK"), std::string::npos) << http;
}

TEST(NetE2eTest, TracesAgreeAcrossFacadeVerbAndHttp) {
  // The three-export contract for traces: PubSub::traces()/traces_json(),
  // the kTraces verb, and GET /traces must all serve the same flight
  // recorder — same entries, same trace ids, same spans.
  Schema schema;
  const AttributeId x = schema.add_attribute("x", ValueType::Int);
  PubSubOptions options;
  options.trace.sample_every = 1;  // every publish head-sampled
  options.trace.capacity = 512;
  options.trace.slow_k = 4;
  options.trace.window_ms = 60000;
  NetServerOptions net;
  net.metrics_port = 0;
  auto server = start_server(PubSub(schema, options), net);
  ASSERT_NE(server->metrics_port(), 0);

  DbspClient subscriber = connect_to(*server);
  const auto match_all = Node::leaf(Predicate(x, Op::Ge, Value(0)));
  auto id = subscriber.subscribe(*match_all);
  ASSERT_TRUE(id.ok()) << id.status().to_string();

  // A traced publisher: every request carries an active sampled context,
  // so the server records a server_dispatch entry joining the same trace.
  DbspClient publisher = connect_to(*server);
  publisher.attach_trace_recorder(
      std::make_shared<obs::FlightRecorder>(options.trace));

  Event event;
  event.set(x, Value(7));
  constexpr int kEvents = 20;
  for (int i = 0; i < kEvents; ++i) {
    auto matched = publisher.publish(event);
    ASSERT_TRUE(matched.ok()) << matched.status().to_string();
    EXPECT_EQ(matched.value(), 1u);
  }
  for (int i = 0; i < kEvents; ++i) {
    auto n = subscriber.next_notification(5000);
    ASSERT_TRUE(n.ok()) << n.status().to_string();
    ASSERT_TRUE(n.value().has_value()) << "notification " << i;
  }

  // Quiesce: the delivery entries land asynchronously after the socket
  // flush; wait for the recorder to go stable.
  const auto recorder = server->pubsub()->trace_recorder();
  ASSERT_NE(recorder, nullptr);
  std::uint64_t prev = 0;
  ASSERT_TRUE(eventually([&] {
    const std::uint64_t now = recorder->recorded_total();
    const bool stable = now > 0 && now == prev;
    prev = now;
    return stable;
  }));

  const std::vector<obs::Trace> facade = server->pubsub()->traces();
  const std::string facade_json = server->pubsub()->traces_json();
  auto verb = publisher.traces();
  ASSERT_TRUE(verb.ok()) << verb.status().to_string();
  const std::string http = http_get(server->metrics_port(), "/traces");
  ASSERT_NE(http.find("200 OK"), std::string::npos);
  ASSERT_FALSE(facade.empty());

  // Same entry set everywhere (nothing records between the three pulls).
  EXPECT_EQ(verb.value().traces.size(), facade.size());
  EXPECT_EQ(verb.value().recorded_total, recorder->recorded_total());
  EXPECT_EQ(verb.value().dropped_total, recorder->dropped_total());

  // Pick the slowest entry and find the same one (trace id, span count,
  // span ids, stage names) through the wire verb.
  const obs::Trace* slow = &facade[0];
  for (const obs::Trace& t : facade) {
    if (t.duration_us > slow->duration_us) slow = &t;
  }
  ASSERT_FALSE(slow->spans.empty());
  const auto stages = [](const obs::Trace& t) {
    std::vector<std::string> names;
    names.reserve(t.spans.size());
    for (const obs::TraceSpan& s : t.spans) {
      names.emplace_back(obs::to_string(s.stage));
    }
    return names;
  };
  const obs::Trace* over_wire = nullptr;
  for (const obs::Trace& t : verb.value().traces) {
    if (t.trace_id == slow->trace_id && t.spans.size() == slow->spans.size() &&
        t.spans[0].span_id == slow->spans[0].span_id) {
      over_wire = &t;
    }
  }
  ASSERT_NE(over_wire, nullptr);
  EXPECT_EQ(stages(*over_wire), stages(*slow));
  EXPECT_EQ(over_wire->duration_us, slow->duration_us);
  EXPECT_EQ(over_wire->parent_span, slow->parent_span);
  EXPECT_EQ(over_wire->sampled, slow->sampled);

  // Both JSON exports carry that trace — same id, same number of entries.
  const std::string id_token =
      "\"trace_id\": \"" + std::to_string(slow->trace_id) + "\"";
  const auto count_occurrences = [](const std::string& hay,
                                    const std::string& needle) {
    std::size_t count = 0;
    for (std::size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + needle.size())) {
      ++count;
    }
    return count;
  };
  EXPECT_GE(count_occurrences(facade_json, id_token), 1u);
  EXPECT_EQ(count_occurrences(http, id_token),
            count_occurrences(facade_json, id_token));
  for (const std::string& name : stages(*slow)) {
    EXPECT_NE(http.find("\"stage\": \"" + name + "\""), std::string::npos)
        << name;
  }

  // End-to-end span coverage: across the entries of that trace the server
  // saw the dispatch, the match, and the delivery out the socket.
  std::set<std::string> across;
  for (const obs::Trace& t : facade) {
    if (t.trace_id != slow->trace_id) continue;
    for (const obs::TraceSpan& s : t.spans) {
      across.insert(obs::to_string(s.stage));
    }
  }
  for (const char* required : {"server_dispatch", "match", "dispatch",
                               "queue_wait", "socket_write"}) {
    EXPECT_EQ(across.count(required), 1u) << required;
  }
  // And the client side of the same trace sits in the publisher's
  // recorder under the same trace id.
  bool client_side = false;
  for (const obs::Trace& t : publisher.trace_recorder()->snapshot()) {
    if (t.trace_id != slow->trace_id) continue;
    for (const obs::TraceSpan& s : t.spans) {
      client_side |= s.stage == obs::TraceStage::kClientRequest;
    }
  }
  EXPECT_TRUE(client_side);
}

TEST(NetE2eTest, SocketsScenarioSoakIsExact) {
  // The full soak across the wire: churn + flash crowd + kill-and-recover
  // over loopback TCP, every delivery checked against the naive oracle.
  const auto domain = make_workload("auction");
  TempDir dir("soak");
  ScenarioConfig config = ScenarioConfig::soak(120, 80);
  config.transport = ScenarioTransport::kSockets;
  config.pruning = false;
  config.check_every = 1;
  config.store_directory = dir.str();
  config.kill_recover_phases = {2};
  ScenarioRunner runner(*domain, config);
  const ScenarioReport report = runner.run();
  EXPECT_EQ(report.mode, "sockets");
  EXPECT_TRUE(report.exact()) << report.total_mismatches() << " mismatches";
  EXPECT_EQ(report.total_recoveries(), 1u);
  EXPECT_GT(report.total_events(), 0u);
}

TEST(NetE2eTest, TracedSocketsSoakStaysExactWithTwoSidedSpans) {
  // The soak with tracing armed on both sides: every publish carries a
  // sampled context, the oracle must stay exact (tracing cannot perturb
  // matching), and every sampled trace must have spans on both the client
  // and the server side of the wire.
  const auto domain = make_workload("auction");
  ScenarioConfig config = ScenarioConfig::soak(100, 60);
  config.transport = ScenarioTransport::kSockets;
  config.pruning = false;
  config.check_every = 1;
  config.tracing = true;
  config.trace.sample_every = 1;  // every publish sampled: full coverage
  // Both rings must hold the whole soak without wrapping: the server side
  // records one entry per delivery on top of the per-publish entries.
  config.trace.capacity = 16384;
  config.trace.slow_k = 8;
  config.trace.window_ms = 60000;
  ScenarioRunner runner(*domain, config);
  const ScenarioReport report = runner.run();
  EXPECT_EQ(report.mode, "sockets");
  EXPECT_TRUE(report.exact()) << report.total_mismatches() << " mismatches";
  EXPECT_GT(report.total_events(), 0u);

  // Every publish was traced and head-sampled...
  EXPECT_EQ(report.traced_publishes, report.total_events());
  EXPECT_EQ(report.sampled_publishes, report.traced_publishes);
  // ...the client recorder kept an entry for each (ring is big enough)...
  EXPECT_GE(report.client_traces, report.sampled_publishes);
  EXPECT_GE(report.server_traces, report.sampled_publishes);
  // ...and every sampled trace id has entries on *both* sides.
  EXPECT_EQ(report.joined_traces, report.sampled_publishes);
  // The subscriber measured publish-to-notification latency.
  EXPECT_GT(report.e2e_latency_samples, 0u);
}

TEST(NetE2eTest, SocketsTransportRejectsPruning) {
  const auto domain = make_workload("auction");
  ScenarioConfig config = ScenarioConfig::soak(10, 10);
  config.transport = ScenarioTransport::kSockets;
  config.pruning = true;
  ScenarioRunner runner(*domain, config);
  EXPECT_THROW((void)runner.run(), std::logic_error);
}

}  // namespace
}  // namespace dbsp::net
