#include "net/client.hpp"

#include <utility>

#include "obs/flight.hpp"
#include "routing/codec.hpp"
#include "store/format.hpp"
#include "subscription/parser.hpp"

namespace dbsp::net {

namespace {

constexpr std::size_t kReadChunk = 16 * 1024;

Status unavailable(const std::string& what) {
  return Status::error(ErrorCode::kUnavailable, what);
}

}  // namespace

NetNotification DbspClient::decode_notify(WireReader& r) {
  NetNotification n;
  n.subscription = r.get_u64();
  n.seq = r.get_u64();
  n.event = decode_event(r);
  n.trace = decode_trace_context_opt(r);
  if (n.trace.active()) n.published_unix_us = r.get_u64();
  if (!r.exhausted()) throw WireError("notify: trailing bytes");
  if (e2e_latency_us_ != nullptr && n.published_unix_us != 0) {
    const std::uint64_t now = obs::unix_now_us();
    if (now >= n.published_unix_us) {
      e2e_latency_us_->record(static_cast<double>(now - n.published_unix_us));
    }
  }
  return n;
}

void DbspClient::attach_metrics(std::shared_ptr<obs::MetricsRegistry> registry) {
  registry_ = std::move(registry);
  e2e_latency_us_ =
      registry_ != nullptr ? &registry_->histogram("dbsp_e2e_latency_us") : nullptr;
}

void DbspClient::attach_trace_recorder(
    std::shared_ptr<obs::FlightRecorder> recorder) {
  recorder_ = std::move(recorder);
}

Result<DbspClient> DbspClient::connect(const std::string& host,
                                       std::uint16_t port, int timeout_ms) {
  auto sock = tcp_connect(host, port, timeout_ms);
  if (!sock.ok()) return sock.status();
  DbspClient client(std::move(sock).value(), kDefaultMaxFrameBytes);
  auto schema = client.request<Schema>(make_empty_frame(MsgType::kHello),
                                      MsgType::kHelloReply, store::decode_schema);
  if (!schema.ok()) return schema.status();
  client.schema_ = std::move(schema).value();
  return client;
}

Status DbspClient::fail(Status status) {
  // An io/protocol failure poisons the connection: framing may be lost.
  sock_.close();
  return status;
}

Result<std::optional<std::vector<std::uint8_t>>> DbspClient::read_until(
    MsgType stop_type, int timeout_ms) {
  using Payload = std::optional<std::vector<std::uint8_t>>;
  while (true) {
    // Serve from already-buffered stream bytes first.
    try {
      auto frame = assembler_.next();
      if (frame.has_value()) {
        WireReader r(*frame);
        (void)decode_wire_header(r);
        const MsgType type = checked_msg_type(r.get_u8());
        if (type == MsgType::kNotify) {
          notifications_.push_back(decode_notify(r));
          if (stop_type == MsgType::kNotify) return Payload(std::in_place);
          continue;
        }
        if (type == MsgType::kError) {
          const WireStatus ws = decode_error(r);
          if (!r.exhausted()) throw WireError("error frame: trailing bytes");
          return to_status(ws);
        }
        if (type != stop_type) {
          return fail(Status::error(
              ErrorCode::kDataLoss,
              "unexpected frame type " +
                  std::to_string(static_cast<unsigned>(type))));
        }
        // Hand back the reply payload (header + type byte stripped).
        return Payload(std::in_place,
                       frame->begin() + static_cast<std::ptrdiff_t>(
                                            frame->size() - r.remaining()),
                       frame->end());
      }
    } catch (const WireError& e) {
      return fail(Status::error(ErrorCode::kDataLoss,
                                std::string("wire: ") + e.what()));
    }

    if (!sock_.valid()) return unavailable("connection closed");
    auto readable = wait_readable(sock_.fd(), timeout_ms);
    if (!readable.ok()) return fail(readable.status());
    if (readable.value() == 0) return Payload();
    std::uint8_t chunk[kReadChunk];
    auto got = recv_some(sock_.fd(), chunk);
    if (!got.ok()) return fail(got.status());
    if (got.value() == 0) return fail(unavailable("server closed connection"));
    assembler_.push(std::span<const std::uint8_t>(chunk, got.value()));
  }
}

template <class T, class Decode>
Result<T> DbspClient::request(std::span<const std::uint8_t> frame,
                              MsgType expected_reply, Decode decode) {
  if (!sock_.valid()) return unavailable("not connected");
  if (Status s = send_all(sock_.fd(), frame); !s.ok()) return fail(std::move(s));
  auto reply = read_until(expected_reply, /*timeout_ms=*/-1);
  if (!reply.ok()) return reply.status();
  try {
    WireReader r(reply.value().value());  // -1: never times out
    T value = decode(r);
    if (!r.exhausted()) throw WireError("trailing bytes");
    return value;
  } catch (const WireError& e) {
    return fail(Status::error(
        ErrorCode::kDataLoss,
        "reply " + std::to_string(static_cast<unsigned>(expected_reply)) + ": " +
            e.what()));
  }
}

Result<std::uint64_t> DbspClient::u64_request(std::span<const std::uint8_t> frame,
                                              MsgType expected_reply) {
  return request<std::uint64_t>(frame, expected_reply,
                                [](WireReader& r) { return r.get_u64(); });
}

Result<std::uint64_t> DbspClient::subscribe(const Node& tree) {
  WireWriter payload;
  encode_tree(tree, payload);
  return u64_request(make_frame(MsgType::kSubscribe, payload),
                     MsgType::kSubscribeReply);
}

Result<std::uint64_t> DbspClient::subscribe(std::string_view dsl_text) {
  std::unique_ptr<Node> tree;
  try {
    tree = parse_subscription(dsl_text, schema_);
  } catch (const ParseError& e) {
    return Status::error(ErrorCode::kParseError, e.what());
  }
  return subscribe(*tree);
}

Status DbspClient::unsubscribe(std::uint64_t id) {
  auto reply = request<bool>(make_u64_frame(MsgType::kUnsubscribe, id),
                             MsgType::kUnsubscribeReply,
                             [](WireReader&) { return true; });
  return reply.ok() ? Status() : reply.status();
}

Result<std::uint64_t> DbspClient::adopt(std::uint64_t id) {
  return u64_request(make_u64_frame(MsgType::kAdopt, id), MsgType::kAdoptReply);
}

Result<std::uint64_t> DbspClient::publish(const Event& event) {
  return publish(event, obs::TraceContext{});
}

Result<std::uint64_t> DbspClient::publish(const Event& event,
                                          obs::TraceContext context) {
  obs::TraceBuilder* tb = nullptr;
  if (recorder_ != nullptr) {
    if (!context.active()) {
      context = obs::make_trace_context(recorder_->should_sample());
    }
    trace_builder_.begin(context);
    tb = &trace_builder_;
  }
  Result<std::uint64_t> out = Status::error(ErrorCode::kUnavailable, "");
  {
    obs::ScopedSpan span(tb, obs::TraceStage::kClientRequest);
    obs::TraceContext wire = context;
    if (span.span_id() != 0) wire.parent_span = span.span_id();
    WireWriter payload;
    encode_event(event, payload);
    // Trailer only on traced publishes: untraced requests stay
    // byte-identical to the previous protocol revision.
    if (wire.active()) encode_trace_context(wire, payload);
    out = u64_request(make_frame(MsgType::kPublish, payload),
                      MsgType::kPublishReply);
    if (out.ok()) span.set_detail(out.value());
  }
  if (tb != nullptr) (void)tb->finish(*recorder_);
  return out;
}

Result<std::uint64_t> DbspClient::publish_batch(std::span<const Event> events) {
  WireWriter payload;
  payload.put_u32(static_cast<std::uint32_t>(events.size()));
  for (const Event& e : events) encode_event(e, payload);
  return u64_request(make_frame(MsgType::kPublishBatch, payload),
                     MsgType::kPublishBatchReply);
}

Result<std::uint64_t> DbspClient::ping(std::uint64_t token) {
  return u64_request(make_u64_frame(MsgType::kPing, token), MsgType::kPong);
}

Result<NetStats> DbspClient::stats() {
  return request<NetStats>(make_empty_frame(MsgType::kStats),
                           MsgType::kStatsReply, decode_stats);
}

Result<obs::MetricsSnapshot> DbspClient::metrics() {
  return request<obs::MetricsSnapshot>(make_empty_frame(MsgType::kMetrics),
                                       MsgType::kMetricsReply, decode_metrics);
}

Result<WireTraces> DbspClient::traces() {
  return request<WireTraces>(make_empty_frame(MsgType::kTraces),
                             MsgType::kTracesReply, decode_traces);
}

Result<std::optional<NetNotification>> DbspClient::next_notification(
    int timeout_ms) {
  if (notifications_.empty()) {
    if (!sock_.valid()) return unavailable("not connected");
    auto got = read_until(MsgType::kNotify, timeout_ms);
    if (!got.ok()) return got.status();
    if (!got.value().has_value()) return std::optional<NetNotification>();
  }
  NetNotification n = std::move(notifications_.front());
  notifications_.pop_front();
  return std::optional<NetNotification>(std::move(n));
}

}  // namespace dbsp::net
