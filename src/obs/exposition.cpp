#include "obs/exposition.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace dbsp::obs {

namespace {

/// Renders a sample value: integral values (the common case — counters and
/// integer-valued gauges) print without a fraction, everything else with
/// enough digits to round-trip.
std::string format_number(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRId64, static_cast<std::int64_t>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Label-value escaping per the text exposition spec.
void append_escaped_label_value(std::string& out, const std::string& v) {
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

/// Renders `{k="v",...}` including one extra label (the histogram `le`)
/// when `extra_key` is non-null. Empty output for no labels at all.
void append_label_block(std::string& out, const Labels& labels,
                        const char* extra_key, const std::string& extra_value) {
  if (labels.empty() && extra_key == nullptr) return;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    append_escaped_label_value(out, v);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    append_escaped_label_value(out, extra_value);
    out += '"';
  }
  out += '}';
}

/// JSON numbers may not be Inf/NaN; those degrade to strings.
void append_json_number(std::string& out, double v) {
  if (std::isinf(v) || std::isnan(v)) {
    append_json_string(out, format_number(v));
    return;
  }
  out += format_number(v);
}

}  // namespace

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

const char* prometheus_content_type() {
  return "text/plain; version=0.0.4; charset=utf-8";
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  const std::string* open_family = nullptr;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (open_family == nullptr || *open_family != m.name) {
      out += "# TYPE ";
      out += m.name;
      out += ' ';
      out += to_string(m.kind);
      out += '\n';
      open_family = &m.name;
    }
    if (m.kind == MetricKind::kHistogram) {
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < m.histogram.bucket_counts.size(); ++b) {
        cumulative += m.histogram.bucket_counts[b];
        out += m.name;
        out += "_bucket";
        append_label_block(out, m.labels, "le",
                           format_number(Histogram::bucket_bound(b)));
        out += ' ';
        out += format_number(static_cast<double>(cumulative));
        out += '\n';
      }
      out += m.name;
      out += "_sum";
      append_label_block(out, m.labels, nullptr, {});
      out += ' ';
      out += format_number(m.histogram.sum);
      out += '\n';
      out += m.name;
      out += "_count";
      append_label_block(out, m.labels, nullptr, {});
      out += ' ';
      out += format_number(static_cast<double>(m.histogram.count));
      out += '\n';
    } else {
      out += m.name;
      append_label_block(out, m.labels, nullptr, {});
      out += ' ';
      out += format_number(m.value);
      out += '\n';
    }
  }
  return out;
}

std::string to_json(const MetricsSnapshot& snapshot) {
  std::string out = "{\"metrics\": [";
  bool first_metric = true;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (!first_metric) out += ", ";
    first_metric = false;
    out += "{\"name\": ";
    append_json_string(out, m.name);
    out += ", \"type\": ";
    append_json_string(out, to_string(m.kind));
    out += ", \"labels\": {";
    bool first_label = true;
    for (const auto& [k, v] : m.labels) {
      if (!first_label) out += ", ";
      first_label = false;
      append_json_string(out, k);
      out += ": ";
      append_json_string(out, v);
    }
    out += '}';
    if (m.kind == MetricKind::kHistogram) {
      out += ", \"count\": ";
      append_json_number(out, static_cast<double>(m.histogram.count));
      out += ", \"sum\": ";
      append_json_number(out, m.histogram.sum);
      out += ", \"buckets\": [";
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < m.histogram.bucket_counts.size(); ++b) {
        cumulative += m.histogram.bucket_counts[b];
        if (b > 0) out += ", ";
        out += "{\"le\": ";
        append_json_number(out, Histogram::bucket_bound(b));
        out += ", \"count\": ";
        append_json_number(out, static_cast<double>(cumulative));
        out += '}';
      }
      out += ']';
    } else {
      out += ", \"value\": ";
      append_json_number(out, m.value);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace dbsp::obs
