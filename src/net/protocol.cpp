#include "net/protocol.hpp"

namespace dbsp::net {

MsgType checked_msg_type(std::uint8_t raw) {
  switch (static_cast<MsgType>(raw)) {
    case MsgType::kHello:
    case MsgType::kSubscribe:
    case MsgType::kUnsubscribe:
    case MsgType::kAdopt:
    case MsgType::kPublish:
    case MsgType::kPublishBatch:
    case MsgType::kPing:
    case MsgType::kStats:
    case MsgType::kMetrics:
    case MsgType::kTraces:
    case MsgType::kHelloReply:
    case MsgType::kSubscribeReply:
    case MsgType::kUnsubscribeReply:
    case MsgType::kAdoptReply:
    case MsgType::kPublishReply:
    case MsgType::kPublishBatchReply:
    case MsgType::kPong:
    case MsgType::kStatsReply:
    case MsgType::kMetricsReply:
    case MsgType::kTracesReply:
    case MsgType::kNotify:
    case MsgType::kError:
      return static_cast<MsgType>(raw);
  }
  throw WireError("net: unknown message type " + std::to_string(raw));
}

void encode_stats(const NetStats& stats, WireWriter& out) {
  out.put_u32(static_cast<std::uint32_t>(std::size(kNetStatFields)));
  for (const NetStatField& f : kNetStatFields) out.put_u64(stats.*f.member);
}

NetStats decode_stats(WireReader& in) {
  const std::uint32_t count = in.get_u32();
  NetStats s;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t v = in.get_u64();  // skips fields newer than us
    if (i < std::size(kNetStatFields)) s.*kNetStatFields[i].member = v;
  }
  return s;
}

void encode_metrics(const obs::MetricsSnapshot& snapshot, WireWriter& out) {
  out.put_u32(static_cast<std::uint32_t>(snapshot.metrics.size()));
  for (const obs::MetricSnapshot& m : snapshot.metrics) {
    WireWriter entry;
    entry.put_string(m.name);
    entry.put_u8(static_cast<std::uint8_t>(m.kind));
    entry.put_u8(static_cast<std::uint8_t>(m.labels.size()));
    for (const auto& [key, value] : m.labels) {
      entry.put_string(key);
      entry.put_string(value);
    }
    switch (m.kind) {
      case obs::MetricKind::kCounter:
        entry.put_u64(static_cast<std::uint64_t>(m.value));
        break;
      case obs::MetricKind::kGauge:
        entry.put_f64(m.value);
        break;
      case obs::MetricKind::kHistogram:
        entry.put_f64(m.histogram.sum);
        entry.put_u64(m.histogram.count);
        entry.put_u8(static_cast<std::uint8_t>(m.histogram.bucket_counts.size()));
        for (const std::uint64_t c : m.histogram.bucket_counts) entry.put_u64(c);
        break;
    }
    out.put_u32(static_cast<std::uint32_t>(entry.size()));
    out.put_bytes(entry.bytes());
  }
}

obs::MetricsSnapshot decode_metrics(WireReader& in) {
  obs::MetricsSnapshot out;
  const std::uint32_t count = in.get_u32();
  out.metrics.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t entry_len = in.get_u32();
    if (entry_len > in.remaining()) {
      throw WireError("net: metric entry overruns the frame");
    }
    // Where this entry ends, measured in bytes still unread — the skip
    // target for unknown kinds and newer-encoder trailing fields.
    const std::size_t end_remaining = in.remaining() - entry_len;
    obs::MetricSnapshot m;
    m.name = in.get_string();
    const std::uint8_t raw_kind = in.get_u8();
    const std::uint8_t label_count = in.get_u8();
    for (std::uint8_t l = 0; l < label_count; ++l) {
      std::string key = in.get_string();
      std::string value = in.get_string();
      m.labels.emplace_back(std::move(key), std::move(value));
    }
    bool known = true;
    switch (raw_kind) {
      case static_cast<std::uint8_t>(obs::MetricKind::kCounter):
        m.kind = obs::MetricKind::kCounter;
        m.value = static_cast<double>(in.get_u64());
        break;
      case static_cast<std::uint8_t>(obs::MetricKind::kGauge):
        m.kind = obs::MetricKind::kGauge;
        m.value = in.get_f64();
        break;
      case static_cast<std::uint8_t>(obs::MetricKind::kHistogram): {
        m.kind = obs::MetricKind::kHistogram;
        m.histogram.sum = in.get_f64();
        m.histogram.count = in.get_u64();
        const std::uint8_t buckets = in.get_u8();
        m.histogram.bucket_counts.reserve(buckets);
        for (std::uint8_t b = 0; b < buckets; ++b) {
          m.histogram.bucket_counts.push_back(in.get_u64());
        }
        break;
      }
      default:
        known = false;  // a newer server's kind: skip the whole entry
        break;
    }
    if (in.remaining() < end_remaining) {
      throw WireError("net: metric entry shorter than its length prefix");
    }
    while (in.remaining() > end_remaining) (void)in.get_u8();
    if (known) out.metrics.push_back(std::move(m));
  }
  return out;
}

void encode_traces(const WireTraces& traces, WireWriter& out) {
  out.put_u64(traces.recorded_total);
  out.put_u64(traces.dropped_total);
  out.put_u32(static_cast<std::uint32_t>(traces.traces.size()));
  for (const obs::Trace& t : traces.traces) {
    WireWriter entry;
    entry.put_u64(t.trace_id);
    entry.put_u64(t.parent_span);
    entry.put_u8(t.sampled ? 1 : 0);
    entry.put_u64(t.start_unix_us);
    entry.put_u64(t.duration_us);
    entry.put_u8(static_cast<std::uint8_t>(t.spans.size()));
    for (const obs::TraceSpan& s : t.spans) {
      entry.put_u8(static_cast<std::uint8_t>(s.stage));
      entry.put_u64(s.span_id);
      entry.put_u64(s.parent_span);
      entry.put_u64(s.start_us);
      entry.put_u64(s.duration_us);
      entry.put_u64(s.detail);
    }
    out.put_u32(static_cast<std::uint32_t>(entry.size()));
    out.put_bytes(entry.bytes());
  }
}

WireTraces decode_traces(WireReader& in) {
  WireTraces out;
  out.recorded_total = in.get_u64();
  out.dropped_total = in.get_u64();
  const std::uint32_t count = in.get_u32();
  out.traces.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t entry_len = in.get_u32();
    if (entry_len > in.remaining()) {
      throw WireError("net: trace entry overruns the frame");
    }
    const std::size_t end_remaining = in.remaining() - entry_len;
    obs::Trace t;
    t.trace_id = in.get_u64();
    t.parent_span = in.get_u64();
    t.sampled = in.get_u8() != 0;
    t.start_unix_us = in.get_u64();
    t.duration_us = in.get_u64();
    const std::uint8_t span_count = in.get_u8();
    t.spans.reserve(span_count);
    for (std::uint8_t s = 0; s < span_count; ++s) {
      obs::TraceSpan span;
      const std::uint8_t raw_stage = in.get_u8();
      span.span_id = in.get_u64();
      span.parent_span = in.get_u64();
      span.start_us = in.get_u64();
      span.duration_us = in.get_u64();
      span.detail = in.get_u64();
      // A stage byte from a newer server, or a reserved one: drop the
      // span, keep the trace.
      if (!obs::is_trace_stage(raw_stage)) continue;
      span.stage = static_cast<obs::TraceStage>(raw_stage);
      t.spans.push_back(span);
    }
    if (in.remaining() < end_remaining) {
      throw WireError("net: trace entry shorter than its length prefix");
    }
    while (in.remaining() > end_remaining) (void)in.get_u8();
    out.traces.push_back(std::move(t));
  }
  return out;
}

void encode_trace_context(const obs::TraceContext& context, WireWriter& out) {
  out.put_u8(context.sampled ? 1 : 0);
  out.put_u64(context.trace_id);
  out.put_u64(context.parent_span);
}

obs::TraceContext decode_trace_context_opt(WireReader& in) {
  obs::TraceContext context;
  if (in.remaining() == 0) return context;
  context.sampled = (in.get_u8() & 1) != 0;
  context.trace_id = in.get_u64();
  context.parent_span = in.get_u64();
  return context;
}

std::vector<std::uint8_t> make_frame(MsgType type, const WireWriter& payload) {
  WireWriter body;
  encode_wire_header(body);
  body.put_u8(static_cast<std::uint8_t>(type));
  body.put_bytes(payload.bytes());
  std::vector<std::uint8_t> frame;
  frame.reserve(body.size() + 4);
  append_frame(frame, body.bytes());
  return frame;
}

std::vector<std::uint8_t> make_empty_frame(MsgType type) {
  return make_frame(type, WireWriter{});
}

std::vector<std::uint8_t> make_u64_frame(MsgType type, std::uint64_t value) {
  WireWriter payload;
  payload.put_u64(value);
  return make_frame(type, payload);
}

std::vector<std::uint8_t> make_error_frame(ErrorCode code,
                                           const std::string& message) {
  WireWriter payload;
  payload.put_u8(static_cast<std::uint8_t>(code));
  payload.put_string(message);
  return make_frame(MsgType::kError, payload);
}

std::vector<std::uint8_t> make_notify_frame(std::uint64_t sub, std::uint64_t seq,
                                            const Event& event,
                                            const obs::TraceContext& trace,
                                            std::uint64_t published_unix_us) {
  WireWriter payload;
  payload.put_u64(sub);
  payload.put_u64(seq);
  encode_event(event, payload);
  // Trailer only when a trace rides along, so untraced servers emit frames
  // byte-identical to the previous protocol revision.
  if (trace.active()) {
    encode_trace_context(trace, payload);
    payload.put_u64(published_unix_us);
  }
  return make_frame(MsgType::kNotify, payload);
}

WireStatus decode_error(WireReader& in) {
  WireStatus ws;
  const std::uint8_t raw = in.get_u8();
  // Unknown codes (a newer server) degrade to the generic bucket instead
  // of a decode failure.
  ws.code = raw <= static_cast<std::uint8_t>(ErrorCode::kIoError)
                ? static_cast<ErrorCode>(raw)
                : ErrorCode::kFailedPrecondition;
  if (ws.code == ErrorCode::kOk) ws.code = ErrorCode::kFailedPrecondition;
  ws.message = in.get_string();
  return ws;
}

Status to_status(const WireStatus& ws) {
  return Status::error(ws.code, ws.message);
}

Status validate_event(const Event& event, const Schema& schema) {
  for (const auto& [attr, value] : event.pairs()) {
    if (attr.value() >= schema.attribute_count()) {
      return Status::error(ErrorCode::kInvalidArgument,
                           "event attribute id " + std::to_string(attr.value()) +
                               " not in schema");
    }
    if (value.type() != schema.type(attr)) {
      return Status::error(ErrorCode::kInvalidArgument,
                           "event attribute '" + schema.name(attr) +
                               "' has the wrong value type");
    }
  }
  return Status();
}

}  // namespace dbsp::net
