// The obs metrics layer: histogram bucket math (including the clamp
// semantics for zero/negative/NaN and the +Inf overflow bucket), counter
// monotonicity under sync_to, registry find-or-create identity and name
// validation, collection hooks, both exposition renderers (Prometheus
// text with escaping and cumulative le buckets; JSON), scrape-while-
// recording under concurrency (the TSan lane's target), and — the parity
// contract — a facade soak after which the registry's folded series agree
// exactly with the legacy stats structs they mirror.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dbsp/dbsp.hpp"
#include "net/protocol.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "routing/codec.hpp"
#include "test_util.hpp"

namespace dbsp::obs {
namespace {

// --- Histogram bucket math ---------------------------------------------------

TEST(HistogramTest, BucketBoundsArePowersOfTwoThenInf) {
  EXPECT_EQ(Histogram::bucket_bound(0), 1.0);
  EXPECT_EQ(Histogram::bucket_bound(1), 2.0);
  EXPECT_EQ(Histogram::bucket_bound(10), 1024.0);
  EXPECT_EQ(Histogram::bucket_bound(Histogram::kFiniteBuckets - 1),
            static_cast<double>(1u << 21));
  EXPECT_TRUE(std::isinf(Histogram::bucket_bound(Histogram::kFiniteBuckets)));
}

TEST(HistogramTest, BucketIndexRespectsUpperBounds) {
  // An observation lands in the first bucket whose bound is >= it.
  EXPECT_EQ(Histogram::bucket_index(1.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1.5), 1u);
  EXPECT_EQ(Histogram::bucket_index(2.0), 1u);
  EXPECT_EQ(Histogram::bucket_index(2.001), 2u);
  EXPECT_EQ(Histogram::bucket_index(4.0), 2u);
  EXPECT_EQ(Histogram::bucket_index(1024.0), 10u);
  EXPECT_EQ(Histogram::bucket_index(1025.0), 11u);
  // Exactly the top finite bound is still finite; above it is +Inf.
  const double top = Histogram::bucket_bound(Histogram::kFiniteBuckets - 1);
  EXPECT_EQ(Histogram::bucket_index(top), Histogram::kFiniteBuckets - 1);
  EXPECT_EQ(Histogram::bucket_index(top + 1.0), Histogram::kFiniteBuckets);
}

TEST(HistogramTest, DegenerateObservationsClampToFirstBucket) {
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(-3.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::quiet_NaN()),
            0u);
  EXPECT_EQ(Histogram::bucket_index(0.5), 0u);
}

TEST(HistogramTest, RecordClampsDegenerateSumContributionsToZero) {
  Histogram h;
  h.record(0.0);
  h.record(-7.0);
  h.record(std::numeric_limits<double>::quiet_NaN());
  h.record(3.0);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.bucket_counts[0], 3u);  // the three degenerates
  EXPECT_EQ(s.bucket_counts[2], 1u);  // 3.0 -> (2, 4]
  EXPECT_DOUBLE_EQ(s.sum, 3.0);       // degenerates contribute 0, not NaN
}

TEST(HistogramTest, OverflowLandsInInfBucketWithFullValueSummed) {
  Histogram h;
  const double huge = 5.0e9;  // ~83 minutes in us: beyond the 2^21 ceiling
  h.record(huge);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.bucket_counts[Histogram::kFiniteBuckets], 1u);
  EXPECT_DOUBLE_EQ(s.sum, huge);
}

TEST(HistogramTest, SnapshotCountEqualsBucketTotal) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(static_cast<double>(i));
  const HistogramSnapshot s = h.snapshot();
  std::uint64_t total = 0;
  for (const std::uint64_t c : s.bucket_counts) total += c;
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(total, 1000u);
}

// --- Counter / Gauge ---------------------------------------------------------

TEST(CounterTest, SyncToNeverLowersTheValue) {
  Counter c;
  c.add(10);
  c.sync_to(25);
  EXPECT_EQ(c.value(), 25u);
  // An owner that resets its counters feeds a smaller cumulative value:
  // the exported series must stay monotone.
  c.sync_to(3);
  EXPECT_EQ(c.value(), 25u);
  c.inc();
  EXPECT_EQ(c.value(), 26u);
}

TEST(GaugeTest, SetAndAddMoveBothWays) {
  Gauge g;
  g.set(5.0);
  g.add(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

// --- Registry ----------------------------------------------------------------

TEST(RegistryTest, FindOrCreateReturnsStableIdentity) {
  MetricsRegistry r;
  Counter& a = r.counter("dbsp_test_total");
  Counter& b = r.counter("dbsp_test_total");
  EXPECT_EQ(&a, &b);
  Counter& labeled = r.counter("dbsp_test_total", {{"shard", "0"}});
  EXPECT_NE(&a, &labeled);
  EXPECT_EQ(r.series_count(), 2u);
}

TEST(RegistryTest, KindMismatchThrowsLogicError) {
  MetricsRegistry r;
  (void)r.counter("dbsp_test_total");
  EXPECT_THROW((void)r.gauge("dbsp_test_total"), std::logic_error);
  EXPECT_THROW((void)r.histogram("dbsp_test_total"), std::logic_error);
}

TEST(RegistryTest, NamesOutsideThePrometheusCharsetThrow) {
  MetricsRegistry r;
  EXPECT_THROW((void)r.counter("1bad"), std::invalid_argument);
  EXPECT_THROW((void)r.counter("has-dash"), std::invalid_argument);
  EXPECT_THROW((void)r.counter(""), std::invalid_argument);
  EXPECT_THROW((void)r.counter("ok_name", {{"1bad", "v"}}),
               std::invalid_argument);
  EXPECT_THROW((void)r.counter("ok_name", {{"has:colon", "v"}}),
               std::invalid_argument);
  // Colons are legal in metric names (recording rules), not label names.
  EXPECT_NO_THROW((void)r.counter("ns:ok_name"));
  // Label *values* are free-form (the exposition escapes them).
  EXPECT_NO_THROW((void)r.counter("ok_name", {{"path", "a\"b\\c\nd"}}));
}

TEST(RegistryTest, SnapshotIsSortedAndFindable) {
  MetricsRegistry r;
  r.counter("dbsp_zz_total").add(2);
  r.gauge("dbsp_aa").set(1.5);
  r.counter("dbsp_mm_total", {{"shard", "1"}}).add(7);
  const MetricsSnapshot s = r.snapshot();
  ASSERT_EQ(s.metrics.size(), 3u);
  EXPECT_EQ(s.metrics[0].name, "dbsp_aa");
  EXPECT_EQ(s.metrics[1].name, "dbsp_mm_total");
  EXPECT_EQ(s.metrics[2].name, "dbsp_zz_total");
  EXPECT_DOUBLE_EQ(s.value("dbsp_aa"), 1.5);
  EXPECT_DOUBLE_EQ(s.value("dbsp_mm_total", {{"shard", "1"}}), 7.0);
  EXPECT_EQ(s.find("dbsp_mm_total"), nullptr);  // labels are identity
  EXPECT_DOUBLE_EQ(s.value("missing"), 0.0);
}

TEST(RegistryTest, HooksRunOnEverySnapshot) {
  MetricsRegistry r;
  Gauge& g = r.gauge("dbsp_hooked");
  int runs = 0;
  r.add_hook([&] { g.set(static_cast<double>(++runs)); });
  EXPECT_DOUBLE_EQ(r.snapshot().value("dbsp_hooked"), 1.0);
  EXPECT_DOUBLE_EQ(r.snapshot().value("dbsp_hooked"), 2.0);
}

TEST(RegistryTest, WeakCaptureHookNoOpsAfterOwnerDies) {
  // The lifetime idiom every instrumented layer uses: the hook holds a
  // weak_ptr to its owner and silently no-ops once the owner is gone.
  MetricsRegistry r;
  Gauge& g = r.gauge("dbsp_owner_value");
  auto owner = std::make_shared<int>(42);
  std::weak_ptr<int> weak = owner;
  r.add_hook([weak, &g] {
    if (const auto alive = weak.lock()) g.set(static_cast<double>(*alive));
  });
  EXPECT_DOUBLE_EQ(r.snapshot().value("dbsp_owner_value"), 42.0);
  owner.reset();
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(r.snapshot().value("dbsp_owner_value"), -1.0);  // untouched
}

// --- Exposition --------------------------------------------------------------

TEST(ExpositionTest, PrometheusTextHasTypeLinesAndCumulativeBuckets) {
  MetricsRegistry r;
  r.counter("dbsp_reqs_total").add(3);
  Histogram& h = r.histogram("dbsp_lat_us", {{"phase", "match"}});
  h.record(1.0);   // bucket le=1
  h.record(3.0);   // bucket le=4
  h.record(5.0e9); // +Inf
  const std::string text = to_prometheus(r.snapshot());

  EXPECT_NE(text.find("# TYPE dbsp_reqs_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("dbsp_reqs_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dbsp_lat_us histogram\n"), std::string::npos);
  // Cumulative le form: le="4" includes the le="1" observation.
  EXPECT_NE(text.find("dbsp_lat_us_bucket{phase=\"match\",le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("dbsp_lat_us_bucket{phase=\"match\",le=\"4\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("dbsp_lat_us_bucket{phase=\"match\",le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("dbsp_lat_us_count{phase=\"match\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("dbsp_lat_us_sum{phase=\"match\"}"), std::string::npos);
  // One TYPE line per family, not per series.
  std::size_t type_lines = 0;
  for (std::size_t at = text.find("# TYPE"); at != std::string::npos;
       at = text.find("# TYPE", at + 1)) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 2u);
  EXPECT_STREQ(prometheus_content_type(),
               "text/plain; version=0.0.4; charset=utf-8");
}

TEST(ExpositionTest, LabelValuesAreEscaped) {
  MetricsRegistry r;
  r.counter("dbsp_esc_total", {{"path", "a\\b\"c\nd"}}).inc();
  const std::string text = to_prometheus(r.snapshot());
  EXPECT_NE(text.find("dbsp_esc_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(ExpositionTest, JsonCarriesCumulativeBucketsAndValues) {
  MetricsRegistry r;
  r.counter("dbsp_reqs_total").add(3);
  r.gauge("dbsp_level").set(2.5);
  Histogram& h = r.histogram("dbsp_lat_us");
  h.record(1.0);
  h.record(3.0);
  const std::string json = to_json(r.snapshot());
  EXPECT_NE(json.find("\"name\": \"dbsp_reqs_total\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  // Cumulative: the le=4 bucket carries both observations.
  EXPECT_NE(json.find("{\"le\": 4, \"count\": 2}"), std::string::npos);
}

// --- Concurrency (the TSan lane's target) ------------------------------------

TEST(RegistryTest, ScrapeWhileRecordingIsRaceFreeAndLosesNothing) {
  MetricsRegistry r;
  Counter& c = r.counter("dbsp_conc_total");
  Histogram& h = r.histogram("dbsp_conc_us");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const MetricsSnapshot s = r.snapshot();
      // Any snapshot taken mid-run is internally consistent: the bucket
      // total can never exceed what has been recorded so far.
      std::uint64_t total = 0;
      for (const auto& m : s.metrics) {
        if (m.kind == MetricKind::kHistogram) {
          for (const std::uint64_t b : m.histogram.bucket_counts) total += b;
        }
      }
      ASSERT_LE(total, static_cast<std::uint64_t>(kThreads) * kPerThread);
    }
  });
  std::vector<std::thread> recorders;
  recorders.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.record(static_cast<double>((t * kPerThread + i) % 4096));
      }
    });
  }
  for (auto& t : recorders) t.join();
  stop.store(true, std::memory_order_release);
  scraper.join();
  const MetricsSnapshot s = r.snapshot();
  EXPECT_DOUBLE_EQ(s.value("dbsp_conc_total"),
                   static_cast<double>(kThreads) * kPerThread);
  const MetricSnapshot* hist = s.find("dbsp_conc_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->histogram.count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// --- Facade parity -----------------------------------------------------------

Schema market_schema() {
  Schema s;
  s.add_attribute("sym", ValueType::String);
  s.add_attribute("price", ValueType::Double);
  s.add_attribute("volume", ValueType::Int);
  return s;
}

TEST(FacadeMetricsTest, DisabledMetricsMeansEmptySnapshot) {
  PubSubOptions options;
  options.metrics = false;
  PubSub pubsub(market_schema(), options);
  auto sub = pubsub.subscribe("price < 50").value();
  (void)pubsub.publish(
      pubsub.event().with("sym", "A").with("price", 1.0).with("volume",
                                                              std::int64_t{1})
          .build());
  EXPECT_TRUE(pubsub.metrics().metrics.empty());
  EXPECT_EQ(pubsub.metrics_json(), "{\"metrics\": []}");
  EXPECT_EQ(pubsub.metrics_registry(), nullptr);
}

TEST(FacadeMetricsTest, RegistryAgreesWithLegacyCountersAfterSoak) {
  // The satellite-1 parity contract: after a workload with churn the
  // registry's folded series equal the legacy stats structs exactly.
  PubSubOptions options;
  options.trace.sample_every = 1;  // head-sample every publish
  options.engine.shards = 4;
  PubSub pubsub(market_schema(), options);

  std::vector<SubscriptionHandle> live;
  const auto sink = [](const Notification&) {};  // makes dispatch run
  for (int i = 0; i < 40; ++i) {
    live.push_back(
        pubsub.subscribe("price < " + std::to_string(10 * (i % 10) + 5), sink)
            .value());
  }
  std::uint64_t published = 0;
  for (int i = 0; i < 300; ++i) {
    (void)pubsub.publish(pubsub.event()
                             .with("sym", i % 2 == 0 ? "A" : "B")
                             .with("price", static_cast<double>(i % 97))
                             .with("volume", std::int64_t{i})
                             .build());
    ++published;
    if (i % 10 == 9) live.erase(live.begin());  // churn
  }

  const MetricsSnapshot s = pubsub.metrics();
  const CountingMatcher::Counters counters = pubsub.counters();
  EXPECT_DOUBLE_EQ(s.value("dbsp_publishes_total"),
                   static_cast<double>(published));
  EXPECT_DOUBLE_EQ(s.value("dbsp_match_events_total"),
                   static_cast<double>(counters.events));
  EXPECT_DOUBLE_EQ(s.value("dbsp_predicate_hits_total"),
                   static_cast<double>(counters.predicate_hits));
  EXPECT_DOUBLE_EQ(s.value("dbsp_counter_increments_total"),
                   static_cast<double>(counters.counter_increments));
  EXPECT_DOUBLE_EQ(s.value("dbsp_tree_evaluations_total"),
                   static_cast<double>(counters.tree_evaluations));
  EXPECT_DOUBLE_EQ(s.value("dbsp_leaf_tests_total"),
                   static_cast<double>(counters.leaf_tests));
  EXPECT_DOUBLE_EQ(s.value("dbsp_matches_total"),
                   static_cast<double>(counters.matches));
  EXPECT_DOUBLE_EQ(s.value("dbsp_subscriptions"),
                   static_cast<double>(pubsub.subscription_count()));
  EXPECT_DOUBLE_EQ(s.value("dbsp_durable"), 0.0);

  // With every publish head-sampled, each one contributes one match and
  // one dispatch span to dbsp_stage_us.
  const auto stage_count = [&s](const char* stage) -> std::uint64_t {
    const MetricSnapshot* m = s.find("dbsp_stage_us", {{"stage", stage}});
    return m != nullptr ? m->histogram.count : 0;
  };
  EXPECT_EQ(stage_count("match"), published);
  EXPECT_EQ(stage_count("dispatch"), published);
}

TEST(FacadeMetricsTest, MatchSeriesEqualCountersAcrossPublishAndPublishBatch) {
  // Events and matches are counted once, by the engine: the exported
  // series and counters() agree whichever entry point published.
  PubSubOptions options;
  options.engine.shards = 2;
  PubSub pubsub(market_schema(), options);
  std::vector<SubscriptionHandle> live;
  const auto sink = [](const Notification&) {};
  for (int i = 0; i < 10; ++i) {
    live.push_back(pubsub.subscribe("price < " + std::to_string(10 * i + 5),
                                    i % 2 == 0 ? PubSub::Callback(sink) : nullptr)
                       .value());
  }
  const auto tick = [&pubsub](int i) {
    return pubsub.event()
        .with("sym", "A")
        .with("price", static_cast<double>(i % 97))
        .with("volume", std::int64_t{i})
        .build();
  };
  std::uint64_t delivered = 0;
  std::uint64_t events = 0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 7; ++i) delivered += pubsub.publish(tick(13 * round + i));
    std::vector<Event> batch;
    for (int i = 0; i < 9; ++i) batch.push_back(tick(29 * round + 3 * i));
    delivered += pubsub.publish_batch(batch);
    events += 7 + batch.size();
  }

  const MetricsSnapshot s = pubsub.metrics();
  const CountingMatcher::Counters counters = pubsub.counters();
  EXPECT_EQ(counters.events, events);
  EXPECT_EQ(counters.matches, delivered);
  EXPECT_DOUBLE_EQ(s.value("dbsp_match_events_total"),
                   static_cast<double>(counters.events));
  EXPECT_DOUBLE_EQ(s.value("dbsp_matches_total"),
                   static_cast<double>(counters.matches));
  // One publish call per publish() and per publish_batch().
  EXPECT_DOUBLE_EQ(s.value("dbsp_publishes_total"), 4.0 * (7 + 1));
  // No second copy of either fact is exported beside them.
  EXPECT_EQ(s.find("dbsp_events_total"), nullptr);
  EXPECT_EQ(s.find("dbsp_notifications_total"), nullptr);
}

TEST(FacadeMetricsTest, PruningSeriesMatchMaintenanceCounters) {
  PubSubOptions options;
  options.pruning = true;
  PubSub pubsub(market_schema(), options);
  std::vector<SubscriptionHandle> live;
  for (int i = 0; i < 12; ++i) {
    live.push_back(pubsub
                       .subscribe("price < " + std::to_string(5 * i + 5) +
                                  " and volume > " + std::to_string(i) +
                                  " and sym = 'A'")
                       .value());
  }
  // Every subscription has two prunings; pruning them all in one call
  // reindexes each subscription once.
  EXPECT_EQ(pubsub.prune(24).value(), 24u);
  const MetricsSnapshot s = pubsub.metrics();
  const PubSub::PruningStats stats = pubsub.pruning_stats();
  EXPECT_EQ(stats.maintenance.reindexes, 12u);
  EXPECT_DOUBLE_EQ(s.value("dbsp_pruning_reindexes_total"), 12.0);
  EXPECT_DOUBLE_EQ(s.value("dbsp_pruning_admissions_total"),
                   static_cast<double>(stats.maintenance.admissions));
  EXPECT_DOUBLE_EQ(s.value("dbsp_pruning_performed"), 24.0);
}

TEST(FacadeMetricsTest, AggregationExportsNoSeries) {
  // The facade builds its subgroup summaries only when aggregation_stats()
  // reads them, so a scrape carries no dbsp_agg_* series.
  PubSubOptions options;
  options.aggregation = true;
  PubSub pubsub(market_schema(), options);
  std::vector<SubscriptionHandle> live;
  for (int i = 0; i < 30; ++i) {
    live.push_back(pubsub.subscribe("price < " + std::to_string(10 * (i % 10) + 5)).value());
  }
  EXPECT_GT(pubsub.aggregation_stats().subgroups, 0u);
  for (const auto& series : pubsub.metrics().metrics) {
    EXPECT_NE(series.name.rfind("dbsp_agg_", 0), 0u) << series.name;
  }
}

TEST(FacadeMetricsTest, DurableStoreSeriesTrackStoreStats) {
  const test::TempDir dir("metrics_test");
  {
    StoreOptions store;
    store.directory = dir.str();
    store.schema = market_schema();
    PubSubOptions options;
    options.trace.sample_every = 1;  // head-sample every WAL append
    PubSub pubsub = PubSub::open(std::move(store), options).value();
    std::vector<SubscriptionHandle> live;
    for (int i = 0; i < 8; ++i) {
      live.push_back(pubsub.subscribe("volume > " + std::to_string(i)).value());
    }
    live.resize(5);  // three unsubscribes
    const MetricsSnapshot s = pubsub.metrics();
    const StoreStats stats = pubsub.store_stats();
    EXPECT_DOUBLE_EQ(s.value("dbsp_durable"), 1.0);
    EXPECT_DOUBLE_EQ(s.value("dbsp_wal_records_total"),
                     static_cast<double>(stats.wal_records));
    EXPECT_DOUBLE_EQ(s.value("dbsp_wal_bytes_total"),
                     static_cast<double>(stats.wal_bytes));
    EXPECT_DOUBLE_EQ(s.value("dbsp_wal_lag_records"),
                     static_cast<double>(stats.records_since_checkpoint));
    EXPECT_DOUBLE_EQ(s.value("dbsp_store_epoch"),
                     static_cast<double>(stats.epoch));
    EXPECT_EQ(stats.wal_records, 11u);  // 8 subscribes + 3 unsubscribes
    // A checkpoint empties the WAL file, but the byte count keeps growing
    // and the exported counter follows it.
    ASSERT_TRUE(pubsub.checkpoint().ok());
    live.push_back(pubsub.subscribe("volume > 99").value());
    const StoreStats after = pubsub.store_stats();
    EXPECT_GT(after.wal_bytes, stats.wal_bytes);
    EXPECT_DOUBLE_EQ(pubsub.metrics().value("dbsp_wal_bytes_total"),
                     static_cast<double>(after.wal_bytes));
    // The first checkpoint compacted (a fresh store's base is empty). With
    // a base of 40 more subscriptions, one arrival is a segment.
    for (int i = 0; i < 40; ++i) {
      live.push_back(pubsub.subscribe("volume > " + std::to_string(100 + i)).value());
    }
    ASSERT_TRUE(pubsub.checkpoint().ok());
    live.push_back(pubsub.subscribe("volume > 7").value());
    ASSERT_TRUE(pubsub.checkpoint().ok());
    const StoreStats segmented = pubsub.store_stats();
    EXPECT_EQ(segmented.compactions, 2u);
    EXPECT_GT(segmented.segment_bytes, 0u);
    const MetricsSnapshot m = pubsub.metrics();
    EXPECT_DOUBLE_EQ(m.value("dbsp_store_compactions_total"),
                     static_cast<double>(segmented.compactions));
    EXPECT_DOUBLE_EQ(m.value("dbsp_store_segment_bytes"),
                     static_cast<double>(segmented.segment_bytes));
    // Every append, unsubscribes included, was one sampled wal_append span.
    const MetricSnapshot* wal =
        s.find("dbsp_stage_us", {{"stage", "wal_append"}});
    ASSERT_NE(wal, nullptr);
    EXPECT_EQ(static_cast<double>(wal->histogram.count),
              s.value("dbsp_wal_records_total"));
  }
}

// --- Empty-registry exposition -----------------------------------------------

TEST(ExpositionTest, EmptyRegistryRoundTripsThroughEveryExport) {
  MetricsRegistry registry;
  const MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_TRUE(snapshot.metrics.empty());

  // Both text renderers must produce valid (if empty) documents.
  EXPECT_EQ(to_prometheus(snapshot), "");
  const std::string json = to_json(snapshot);
  EXPECT_NE(json.find("\"metrics\": []"), std::string::npos) << json;

  // And the wire codec must round-trip the empty snapshot.
  WireWriter writer;
  net::encode_metrics(snapshot, writer);
  WireReader reader(writer.bytes());
  const MetricsSnapshot decoded = net::decode_metrics(reader);
  EXPECT_TRUE(decoded.metrics.empty());
  EXPECT_TRUE(reader.exhausted());
}

}  // namespace
}  // namespace dbsp::obs
