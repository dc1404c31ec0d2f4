#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace dbsp::obs {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

std::size_t thread_stripe() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed);
  return stripe;
}

namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name.front())) return false;
  for (const char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

bool valid_label_name(const std::string& name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(name.front())) return false;
  for (const char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

std::string series_key(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x01';
    key += k;
    key += '\x02';
    key += v;
  }
  return key;
}

}  // namespace

const MetricSnapshot* MetricsSnapshot::find(const std::string& name,
                                            const Labels& labels) const {
  for (const MetricSnapshot& m : metrics) {
    if (m.name == name && m.labels == labels) return &m;
  }
  return nullptr;
}

double MetricsSnapshot::value(const std::string& name,
                              const Labels& labels) const {
  const MetricSnapshot* m = find(name, labels);
  return m != nullptr ? m->value : 0.0;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(const std::string& name,
                                                        Labels&& labels,
                                                        MetricKind kind) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("obs: invalid metric name '" + name + "'");
  }
  for (const auto& [k, v] : labels) {
    if (!valid_label_name(k)) {
      throw std::invalid_argument("obs: invalid label name '" + k + "' on '" +
                                  name + "'");
    }
  }
  const std::string key = series_key(name, labels);
  MutexLock lock(mutex_);
  if (const auto it = index_.find(key); it != index_.end()) {
    Entry& entry = *entries_[it->second];
    if (entry.kind != kind) {
      throw std::logic_error("obs: metric '" + name + "' already registered as " +
                             std::string(to_string(entry.kind)));
    }
    return entry;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->labels = std::move(labels);
  entry->kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      entry->histogram = std::make_unique<Histogram>();
      break;
  }
  entries_.push_back(std::move(entry));
  index_.emplace(key, entries_.size() - 1);
  return *entries_.back();
}

Counter& MetricsRegistry::counter(const std::string& name, Labels labels) {
  return *find_or_create(name, std::move(labels), MetricKind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, Labels labels) {
  return *find_or_create(name, std::move(labels), MetricKind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name, Labels labels) {
  return *find_or_create(name, std::move(labels), MetricKind::kHistogram)
              .histogram;
}

void MetricsRegistry::add_hook(std::function<void()> hook) {
  MutexLock lock(mutex_);
  hooks_.push_back(std::make_shared<std::function<void()>>(std::move(hook)));
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  // Copy the hook list under the mutex, run the hooks with it released:
  // hooks take their owners' locks (the facade hook serializes on the
  // PubSub mutex), so holding the registry mutex here would order the
  // locks registry -> facade while metric creation inside a facade call
  // orders them facade -> registry.
  std::vector<std::shared_ptr<std::function<void()>>> hooks;
  {
    MutexLock lock(mutex_);
    hooks = hooks_;
  }
  for (const auto& fn : hooks) (*fn)();

  MetricsSnapshot out;
  {
    MutexLock lock(mutex_);
    out.metrics.reserve(entries_.size());
    for (const auto& entry : entries_) {
      MetricSnapshot m;
      m.name = entry->name;
      m.labels = entry->labels;
      m.kind = entry->kind;
      switch (entry->kind) {
        case MetricKind::kCounter:
          m.value = static_cast<double>(entry->counter->value());
          break;
        case MetricKind::kGauge:
          m.value = entry->gauge->value();
          break;
        case MetricKind::kHistogram:
          m.histogram = entry->histogram->snapshot();
          break;
      }
      out.metrics.push_back(std::move(m));
    }
  }
  std::sort(out.metrics.begin(), out.metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return out;
}

std::size_t MetricsRegistry::series_count() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

}  // namespace dbsp::obs
