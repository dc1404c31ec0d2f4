#pragma once

/// \file
/// The dbspd wire protocol: length-framed binary messages layered on the
/// routing/codec wire format. Every frame body opens with the codec's
/// 2-byte header (magic 0xDB + format version — so an old daemon rejects a
/// newer client with a clean protocol-error frame instead of misparsing),
/// followed by one MsgType byte and a type-specific payload reusing the
/// codec's value/event/tree encodings:
///
///   frame  := len u32 (LE) | body                  (FrameAssembler framing)
///   body   := wire-header | type u8 | payload
///
/// Requests are answered in order on each connection; kNotify frames are
/// pushed asynchronously and may interleave with replies (the blocking
/// client buffers them). Protocol-level garbage (bad magic/version, bad
/// framing, undecodable payload) is answered with one kError frame and the
/// connection is closed; application-level failures (unknown id, schema
/// violation) are kError frames on a connection that stays usable.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "api/status.hpp"
#include "event/event.hpp"
#include "event/schema.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "routing/codec.hpp"

namespace dbsp::net {

/// Message type byte. Requests are < 64, replies >= 64, pushes >= 96.
enum class MsgType : std::uint8_t {
  // --- Requests (client -> server) ---
  kHello = 1,         ///< empty; the connection handshake
  kSubscribe = 2,     ///< tree
  kUnsubscribe = 3,   ///< sub id u64
  kAdopt = 4,         ///< sub id u64 — re-claim a recovered registration
  kPublish = 5,       ///< event
  kPublishBatch = 6,  ///< count u32, event*
  kPing = 7,          ///< token u64
  kStats = 8,         ///< empty
  kMetrics = 9,       ///< empty; full registry scrape
  kTraces = 10,       ///< empty; flight-recorder snapshot

  // --- Replies (server -> client, one per request, in order) ---
  kHelloReply = 64,         ///< schema (store format codec)
  kSubscribeReply = 65,     ///< sub id u64
  kUnsubscribeReply = 66,   ///< empty
  kAdoptReply = 67,         ///< sub id u64
  kPublishReply = 68,       ///< matched count u64
  kPublishBatchReply = 69,  ///< total matched count u64
  kPong = 70,               ///< token u64
  kStatsReply = 71,         ///< count u32, count x u64 (NetStats field order)
  kMetricsReply = 72,       ///< encode_metrics payload (length-prefixed entries)
  kTracesReply = 73,        ///< encode_traces payload (length-prefixed entries)

  // --- Pushes ---
  kNotify = 96,  ///< sub id u64, seq u64, event [, trace context, published u64]
  kError = 97,   ///< code u8 (ErrorCode), message string
};

/// Converts a type byte from the wire; throws WireError on unknown values.
[[nodiscard]] MsgType checked_msg_type(std::uint8_t raw);

/// Server-side counters, also the kStatsReply payload. The codec writes a
/// field-count prefix, so decoders tolerate both older servers (missing
/// trailing fields stay zero) and newer ones (extra fields are skipped).
struct NetStats {
  std::uint64_t connections = 0;           ///< currently open
  std::uint64_t connections_accepted = 0;  ///< lifetime accepts
  std::uint64_t connections_rejected = 0;  ///< over the connection cap
  std::uint64_t frames_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t slow_consumer_disconnects = 0;
  std::uint64_t subscriptions = 0;             ///< live in the engine
  std::uint64_t notifications_enqueued = 0;    ///< written toward clients
  std::uint64_t events_published = 0;          ///< via kPublish/kPublishBatch
  std::uint64_t notifications_delivered = 0;   ///< engine-side match count
  std::uint64_t write_queue_high_water = 0;    ///< worst pending bytes seen
  std::uint64_t draining = 0;                  ///< 1 while shutting down
};

/// One NetStats field: its member, its Prometheus series and whether that
/// series is a gauge (a level) or a counter. kNetStatFields lists every
/// field once, in wire order; the stats codec, the server's counters and
/// its scrape hook all walk it.
struct NetStatField {
  std::uint64_t NetStats::*member;
  const char* series;
  bool gauge;
};
inline constexpr NetStatField kNetStatFields[] = {
    {&NetStats::connections, "dbsp_net_connections", true},
    {&NetStats::connections_accepted, "dbsp_net_connections_accepted_total", false},
    {&NetStats::connections_rejected, "dbsp_net_connections_rejected_total", false},
    {&NetStats::frames_received, "dbsp_net_frames_received_total", false},
    {&NetStats::frames_sent, "dbsp_net_frames_sent_total", false},
    {&NetStats::bytes_received, "dbsp_net_bytes_received_total", false},
    {&NetStats::bytes_sent, "dbsp_net_bytes_sent_total", false},
    {&NetStats::protocol_errors, "dbsp_net_protocol_errors_total", false},
    {&NetStats::slow_consumer_disconnects,
     "dbsp_net_slow_consumer_disconnects_total", false},
    {&NetStats::subscriptions, "dbsp_net_subscriptions", true},
    {&NetStats::notifications_enqueued, "dbsp_net_notifications_enqueued_total",
     false},
    {&NetStats::events_published, "dbsp_net_events_published_total", false},
    {&NetStats::notifications_delivered,
     "dbsp_net_notifications_delivered_total", false},
    {&NetStats::write_queue_high_water, "dbsp_net_write_queue_high_water_bytes",
     true},
    {&NetStats::draining, "dbsp_net_draining", true},
};

void encode_stats(const NetStats& stats, WireWriter& out);
[[nodiscard]] NetStats decode_stats(WireReader& in);

/// kMetricsReply payload: the full registry scrape. Layout:
///
///   count u32, then per metric:
///     entry_len u32 | name string | kind u8 | label_count u8 |
///     (key string, value string)* | kind-specific value
///
///   counter: value u64; gauge: value f64;
///   histogram: sum f64, count u64, bucket_count u8, bucket_count x u64
///
/// The per-entry byte-length prefix is the forward-compat seam (the
/// field-count analogue of the NetStats codec): a decoder skips entries
/// whose kind it does not know, and skips trailing bytes a newer encoder
/// appended inside an entry it does know.
void encode_metrics(const obs::MetricsSnapshot& snapshot, WireWriter& out);
[[nodiscard]] obs::MetricsSnapshot decode_metrics(WireReader& in);

/// kTracesReply payload: the flight-recorder snapshot plus its lifetime
/// counters. Layout:
///
///   recorded_total u64 | dropped_total u64 | count u32, then per trace:
///     entry_len u32 | trace_id u64 | parent_span u64 | sampled u8 |
///     start_unix_us u64 | duration_us u64 | span_count u8 |
///     span_count x (stage u8, span_id u64, parent_span u64,
///                   start_us u64, duration_us u64, detail u64)
///
/// Forward compat mirrors the metrics codec: the per-entry byte-length
/// prefix lets a decoder skip trailing bytes a newer encoder appended,
/// and spans with an unknown stage byte are dropped individually.
struct WireTraces {
  std::vector<obs::Trace> traces;
  std::uint64_t recorded_total = 0;
  std::uint64_t dropped_total = 0;
};
void encode_traces(const WireTraces& traces, WireWriter& out);
[[nodiscard]] WireTraces decode_traces(WireReader& in);

/// The optional trailing trace context of kPublish and kNotify frames:
/// flags u8 (bit 0 = head-sampled) | trace_id u64 | parent_span u64. An
/// absent trailer (an older peer, or an untraced publish) decodes as the
/// inactive context.
void encode_trace_context(const obs::TraceContext& context, WireWriter& out);
[[nodiscard]] obs::TraceContext decode_trace_context_opt(WireReader& in);

/// One notification as it crosses the wire. `trace` and `published_unix_us`
/// arrive through the optional kNotify trailer (zero from older servers);
/// the publish wall clock lets same-host clients histogram end-to-end
/// latency without a clock exchange.
struct NetNotification {
  std::uint64_t subscription = 0;
  std::uint64_t seq = 0;
  Event event;
  obs::TraceContext trace{};
  std::uint64_t published_unix_us = 0;
};

// --- Frame builders ----------------------------------------------------------
// Each returns a complete length-prefixed frame ready for the socket.

[[nodiscard]] std::vector<std::uint8_t> make_frame(MsgType type,
                                                   const WireWriter& payload);
[[nodiscard]] std::vector<std::uint8_t> make_empty_frame(MsgType type);
[[nodiscard]] std::vector<std::uint8_t> make_u64_frame(MsgType type,
                                                       std::uint64_t value);
[[nodiscard]] std::vector<std::uint8_t> make_error_frame(ErrorCode code,
                                                         const std::string& message);
[[nodiscard]] std::vector<std::uint8_t> make_notify_frame(
    std::uint64_t sub, std::uint64_t seq, const Event& event,
    const obs::TraceContext& trace = {}, std::uint64_t published_unix_us = 0);

/// Decoded kError payload.
struct WireStatus {
  ErrorCode code = ErrorCode::kOk;
  std::string message;
};
[[nodiscard]] WireStatus decode_error(WireReader& in);
[[nodiscard]] Status to_status(const WireStatus& ws);

// --- Edge validation ---------------------------------------------------------
// Attribute ids arrive as raw u32s, and an out-of-range id would index past
// the matcher's per-schema tables. An event is checked here, before it
// reaches the engine; a subscription tree is checked by
// PubSub::subscribe, which reports kInvalidArgument.

/// Every attribute of `event` must exist in `schema` and carry the
/// declared type.
[[nodiscard]] Status validate_event(const Event& event, const Schema& schema);

}  // namespace dbsp::net
