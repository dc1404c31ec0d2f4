#pragma once

/// \file
/// Renderers of a MetricsSnapshot: Prometheus text exposition (format
/// 0.0.4 — what dbspd's GET /metrics serves and tools/check_metrics.py
/// lints) and a JSON document (what PubSub::metrics_json() and `dbsp-cli
/// metrics` print, and what the bench harness embeds in BENCH_*.json).

#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace dbsp::obs {

/// Prometheus text exposition. Families are contiguous with one # TYPE
/// line each (the snapshot is already sorted by name); histograms render
/// as cumulative `_bucket{le=...}` series plus `_sum` and `_count`; label
/// values are escaped per the spec (backslash, double quote, newline).
[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& snapshot);

/// The Content-Type header value the text exposition should be served
/// with.
[[nodiscard]] const char* prometheus_content_type();

/// JSON rendering:
///   {"metrics": [{"name": ..., "type": "counter", "labels": {...},
///                 "value": N} |
///                {"name": ..., "type": "histogram", "labels": {...},
///                 "count": N, "sum": S,
///                 "buckets": [{"le": B, "count": N}, ...]} ...]}
/// Histogram buckets are cumulative here too (same `le` semantics as the
/// text form); empty buckets are kept so consumers see the fixed layout.
[[nodiscard]] std::string to_json(const MetricsSnapshot& snapshot);

/// Appends `s` as a JSON string literal, quotes included: backslash,
/// double quote and control characters are escaped.
void append_json_string(std::string& out, std::string_view s);

}  // namespace dbsp::obs
