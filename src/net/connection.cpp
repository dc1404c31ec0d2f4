#include "net/connection.hpp"

#include <algorithm>
#include <utility>

#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "store/format.hpp"

namespace dbsp::net {

Connection::Connection(Edge& edge, int id)
    : edge_(edge), id_(id), assembler_(edge.max_frame_bytes) {}

Connection::~Connection() {
  for (auto& [id, handle] : subs_) {
    edge_.owners.erase(id);
    (void)handle.release();
  }
  if (!subs_.empty()) edge_.sync_subscriptions();
}

void Connection::receive(std::span<const std::uint8_t> bytes) {
  assembler_.push(bytes);
}

bool Connection::dispatch_next() {
  if (!reading()) return false;
  std::optional<std::vector<std::uint8_t>> frame;
  try {
    frame = assembler_.next();
  } catch (const WireError& e) {
    protocol_error(e.what());  // framing garbage: zero/oversized prefix
    return false;
  }
  if (!frame.has_value()) return false;
  dispatch(*frame);
  return true;
}

void Connection::dispatch(std::span<const std::uint8_t> body) {
  edge_.stats.add<&NetStats::frames_received>();
  try {
    WireReader r(body);
    (void)decode_wire_header(r);
    handle(checked_msg_type(r.get_u8()), r);
  } catch (const WireError& e) {
    protocol_error(e.what());
  }
}

void Connection::handle(MsgType type, WireReader& r) {
  PubSub& pubsub = *edge_.pubsub;
  const auto require_exhausted = [&r] {
    if (!r.exhausted()) throw WireError("net: trailing bytes after payload");
  };
  WireWriter payload;
  switch (type) {
    case MsgType::kHello:
      require_exhausted();
      store::encode_schema(pubsub.schema(), payload);
      return queue(make_frame(MsgType::kHelloReply, payload));
    case MsgType::kSubscribe: {
      std::unique_ptr<Node> tree = decode_tree(r);
      require_exhausted();
      return own(pubsub.subscribe(std::move(tree),
                                  [this](const Notification& n) { on_notify(n); }),
                 MsgType::kSubscribeReply);
    }
    case MsgType::kUnsubscribe: {
      const std::uint64_t id = r.get_u64();
      require_exhausted();
      const auto it = subs_.find(id);
      if (it == subs_.end()) {
        return status_error(Status::error(
            ErrorCode::kNotFound, "subscription not owned by this connection"));
      }
      const Status released = it->second.release();
      subs_.erase(it);
      edge_.owners.erase(id);
      edge_.sync_subscriptions();
      if (!released.ok()) return status_error(released);
      return queue(make_empty_frame(MsgType::kUnsubscribeReply));
    }
    case MsgType::kAdopt: {
      const std::uint64_t id = r.get_u64();
      require_exhausted();
      if (id >= SubscriptionId::kInvalid) {
        return status_error(Status::error(ErrorCode::kInvalidArgument,
                                          "subscription id out of range"));
      }
      if (edge_.owners.contains(id)) {
        return status_error(
            Status::error(ErrorCode::kFailedPrecondition,
                          "subscription already owned by a connection"));
      }
      return own(pubsub.adopt(SubscriptionId(static_cast<SubscriptionId::value_type>(id)),
                              [this](const Notification& n) { on_notify(n); }),
                 MsgType::kAdoptReply);
    }
    case MsgType::kPublish: {
      const Event event = decode_event(r);
      const obs::TraceContext ctx = decode_trace_context_opt(r);
      require_exhausted();
      if (Status v = validate_event(event, pubsub.schema()); !v.ok()) {
        return status_error(v);
      }
      return publish(event, ctx);
    }
    case MsgType::kPublishBatch: {
      const std::uint32_t count = r.get_u32();
      std::vector<Event> events;
      events.reserve(std::min<std::size_t>(count, r.remaining()));
      for (std::uint32_t i = 0; i < count; ++i) events.push_back(decode_event(r));
      require_exhausted();
      for (const Event& e : events) {
        if (Status v = validate_event(e, pubsub.schema()); !v.ok()) {
          return status_error(v);
        }
      }
      const std::uint64_t total = pubsub.publish_batch(events);
      edge_.stats.add<&NetStats::events_published>(events.size());
      edge_.stats.add<&NetStats::notifications_delivered>(total);
      return queue(make_u64_frame(MsgType::kPublishBatchReply, total));
    }
    case MsgType::kPing: {
      const std::uint64_t token = r.get_u64();
      require_exhausted();
      return queue(make_u64_frame(MsgType::kPong, token));
    }
    case MsgType::kStats:
      require_exhausted();
      encode_stats(edge_.stats.load(), payload);
      return queue(make_frame(MsgType::kStatsReply, payload));
    case MsgType::kMetrics:
      require_exhausted();
      // An empty scrape (not an error) when the PubSub runs without
      // metrics: the verb stays answerable either way.
      encode_metrics(edge_.registry ? edge_.registry->snapshot()
                                    : obs::MetricsSnapshot{},
                     payload);
      return queue(make_frame(MsgType::kMetricsReply, payload));
    case MsgType::kTraces: {
      require_exhausted();
      WireTraces wt;  // empty when tracing is off, like the metrics verb
      if (edge_.recorder != nullptr) {
        wt.traces = edge_.recorder->snapshot();
        wt.recorded_total = edge_.recorder->recorded_total();
        wt.dropped_total = edge_.recorder->dropped_total();
      }
      encode_traces(wt, payload);
      return queue(make_frame(MsgType::kTracesReply, payload));
    }
    default:
      throw WireError("net: unexpected non-request message type");
  }
}

void Connection::publish(const Event& event, const obs::TraceContext& ctx) {
  PubSub& pubsub = *edge_.pubsub;
  std::size_t matched = 0;
  if (edge_.recorder != nullptr && ctx.active()) {
    // The client traced this publish: record a server-side entry whose
    // kServerDispatch span parents the facade's spans and the delivery
    // entries (one trace id across all of them).
    edge_.server_trace.begin(ctx);
    {
      obs::ScopedSpan span(&edge_.server_trace, obs::TraceStage::kServerDispatch);
      obs::TraceContext child = ctx;
      if (span.span_id() != 0) child.parent_span = span.span_id();
      matched = pubsub.publish(event, child);
      span.set_detail(matched);
    }
    (void)edge_.server_trace.finish(*edge_.recorder);
  } else {
    matched = pubsub.publish(event, ctx);
  }
  edge_.stats.add<&NetStats::events_published>();
  edge_.stats.add<&NetStats::notifications_delivered>(matched);
  queue(make_u64_frame(MsgType::kPublishReply, matched));
}

void Connection::own(Result<SubscriptionHandle> handle, MsgType reply) {
  if (!handle.ok()) return status_error(handle.status());
  const std::uint64_t id = handle.value().id().value();
  subs_.emplace(id, std::move(handle).value());
  edge_.owners.emplace(id, this);
  edge_.sync_subscriptions();
  queue(make_u64_frame(reply, id));
}

// Runs under the PubSub facade lock during a publish, so it only appends
// bytes or marks this connection slow; it must not touch the facade.
void Connection::on_notify(const Notification& n) {
  if (closing_ || slow_) return;
  const auto frame = make_notify_frame(n.subscription.value(), n.seq, n.event,
                                       n.trace, n.published_unix_us);
  if (out_.pending() + frame.size() > edge_.max_write_queue_bytes) {
    slow_ = true;
    return mark_dirty();
  }
  queue(frame);
  if (n.trace.active() && edge_.recorder != nullptr) {
    deliveries_.push_back({out_.total_queued(), n.trace, frame.size(),
                           obs::unix_now_us(), std::chrono::steady_clock::now()});
  }
  edge_.stats.add<&NetStats::notifications_enqueued>();
  mark_dirty();
}

void Connection::on_sent(std::chrono::steady_clock::time_point flush_start) {
  obs::FlightRecorder* recorder = edge_.recorder;
  if (recorder == nullptr) return;
  const auto now = std::chrono::steady_clock::now();
  while (!deliveries_.empty() && deliveries_.front().end_bytes <= out_.total_sent()) {
    const DeliveryMarker m = deliveries_.front();
    deliveries_.pop_front();
    const auto us_since = [&m](std::chrono::steady_clock::time_point t) {
      return t <= m.enqueue_steady
                 ? std::uint64_t{0}
                 : static_cast<std::uint64_t>(
                       std::chrono::duration_cast<std::chrono::microseconds>(
                           t - m.enqueue_steady)
                           .count());
    };
    // Kept when head-sampled or tail-admitted as slow, like any trace.
    const std::uint64_t total_us = us_since(now);
    if (!m.trace.sampled && !recorder->admit_slow(total_us)) continue;
    const std::uint64_t wait_us = std::min(us_since(flush_start), total_us);
    obs::Trace t;
    t.trace_id = m.trace.trace_id;
    t.parent_span = m.trace.parent_span;
    t.sampled = m.trace.sampled;
    t.start_unix_us = m.enqueue_unix_us;
    t.duration_us = total_us;
    t.spans.push_back({obs::TraceStage::kQueueWait, obs::next_span_id(),
                       m.trace.parent_span, 0, wait_us, 0});
    t.spans.push_back({obs::TraceStage::kSocketWrite, obs::next_span_id(),
                       m.trace.parent_span, wait_us, total_us - wait_us,
                       m.frame_bytes});
    recorder->record(t);
  }
}

void Connection::queue(std::span<const std::uint8_t> frame) {
  out_.append(frame);
  edge_.stats.add<&NetStats::frames_sent>();
  const std::uint64_t pending = out_.pending();
  if (pending > edge_.stats.get<&NetStats::write_queue_high_water>()) {
    edge_.stats.set<&NetStats::write_queue_high_water>(pending);
  }
}

// Application-level failure: an error frame on a connection that stays
// usable.
void Connection::status_error(const Status& status) {
  queue(make_error_frame(status.code(), status.message()));
}

// Protocol-level failure: one error frame, then close once it is sent.
// Framing may be lost, so the connection is not recoverable.
void Connection::protocol_error(const std::string& message) {
  edge_.stats.add<&NetStats::protocol_errors>();
  static obs::LogRateLimit rate(/*max_per_sec=*/10);
  if (rate.allow()) {
    obs::LogEvent(obs::LogLevel::kWarn, "net", "protocol error")
        .kv("fd", id_)
        .kv("error", message)
        .kv("suppressed", rate.suppressed());
  }
  try {
    queue(make_error_frame(ErrorCode::kInvalidArgument, message));
  } catch (const WireError&) {
    // An unencodable (absurdly long) message: just close.
  }
  closing_ = true;
}

void Connection::mark_dirty() {
  if (dirty_) return;
  dirty_ = true;
  edge_.dirty.push_back(this);
}

}  // namespace dbsp::net
