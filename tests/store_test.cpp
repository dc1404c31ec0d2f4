// Durable state store: WAL/snapshot round-trips, PubSub::open() recovery
// exactness (the crash-equivalence contract, asserted at {1, 2, 8} match
// workers),
// pruning accounting continuity, checkpoint truncation, checkpoints built
// from the previous snapshot (kills after them and inside them, and what
// they re-encode), statistics persistence, adopt() semantics, and the
// ScenarioRunner kill-and-recover phase.

#include "store/state_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "api/pubsub.hpp"
#include "core/candidates.hpp"
#include "scenario/scenario_runner.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"
#include "subscription/parser.hpp"
#include "test_util.hpp"

namespace dbsp {
namespace {

namespace fs = std::filesystem;
using test::MiniDomain;
using test::TempDir;

PubSubOptions pruning_options(std::size_t workers) {
  PubSubOptions options;
  options.engine.shards = workers;
  options.pruning = true;
  return options;
}

StoreOptions store_at(const TempDir& dir, const Schema& schema) {
  StoreOptions store;
  store.directory = dir.str();
  store.schema = schema;
  return store;
}

using Sink = std::shared_ptr<std::vector<SubscriptionId>>;

PubSub::Callback collector(Sink sink) {
  return [sink](const Notification& n) { sink->push_back(n.subscription); };
}

/// Claims every recovered registration with a collecting callback. The
/// handles must be destroyed only *after* the PubSub (crash order) unless
/// unsubscribing is intended.
std::vector<SubscriptionHandle> adopt_all(PubSub& pubsub, const Sink& sink) {
  std::vector<SubscriptionHandle> handles;
  for (const SubscriptionId id : pubsub.subscription_ids()) {
    auto handle = pubsub.adopt(id, collector(sink));
    EXPECT_TRUE(handle.ok()) << handle.status().to_string();
    handles.push_back(std::move(handle).value());
  }
  return handles;
}

/// Engine-path match set of one probe publish (callbacks fire in ascending
/// id order, so the sink comes back sorted).
std::vector<SubscriptionId> probe(PubSub& pubsub, const Sink& sink,
                                  const Event& event) {
  sink->clear();
  (void)pubsub.publish(event);
  return *sink;
}

/// Direct-tree-evaluation match set (the correctness oracle).
std::vector<SubscriptionId> oracle_matches(const PubSub& pubsub, const Event& event) {
  std::vector<SubscriptionId> out;
  for (const SubscriptionId id : pubsub.subscription_ids()) {
    if (pubsub.matches(id, event).value()) out.push_back(id);
  }
  return out;
}

// --- WAL / snapshot layer ----------------------------------------------------

TEST(StoreWalTest, AppendAndReadBack) {
  TempDir dir("wal");
  fs::create_directories(dir.path());
  const std::string path = (dir.path() / "wal.dbsp").string();
  MiniDomain dom;
  std::mt19937_64 rng(7);

  auto writer = store::WalWriter::create(path, 42, /*sync=*/false);
  const auto tree = dom.random_tree(rng, 5);
  WireWriter frame;  // reused for every record
  store::WalWriter::begin_frame(frame);
  store::encode_subscribe(SubscriptionId(3), *tree, frame);
  writer->append_framed(frame);
  store::WalWriter::begin_frame(frame);
  store::encode_unsubscribe(SubscriptionId(9), frame);
  writer->append_framed(frame);
  store::WalWriter::begin_frame(frame);
  store::encode_prune(SubscriptionId(3), *tree, frame);
  writer->append_framed(frame);
  EXPECT_EQ(writer->records_appended(), 3u);
  writer.reset();

  const store::WalContents wal = store::read_wal(path);
  EXPECT_EQ(wal.epoch, 42u);
  ASSERT_EQ(wal.records.size(), 3u);
  EXPECT_EQ(wal.records[0].type, store::RecordType::kSubscribe);
  EXPECT_EQ(wal.records[0].sub, SubscriptionId(3));
  ASSERT_NE(wal.records[0].tree, nullptr);
  EXPECT_TRUE(wal.records[0].tree->equals(*tree));
  EXPECT_EQ(wal.records[1].type, store::RecordType::kUnsubscribe);
  EXPECT_EQ(wal.records[1].sub, SubscriptionId(9));
  EXPECT_EQ(wal.records[2].type, store::RecordType::kPrune);
  EXPECT_EQ(wal.records[2].prunings, 1u);
}

TEST(StoreWalTest, PruneRecordCarriesItsPruningCount) {
  MiniDomain dom;
  std::mt19937_64 rng(9);
  const auto tree = dom.random_tree(rng, 5);
  // One pruning writes the bare id + tree; a larger count follows the tree.
  WireWriter one;
  store::encode_prune(SubscriptionId(4), *tree, one);
  WireWriter three;
  store::encode_prune(SubscriptionId(4), *tree, three, 3);
  ASSERT_EQ(three.size(), one.size() + 4);
  EXPECT_TRUE(std::equal(one.bytes().begin(), one.bytes().end(), three.bytes().begin()));
  const store::WalRecord decoded = store::decode_record(three.bytes());
  EXPECT_EQ(decoded.type, store::RecordType::kPrune);
  EXPECT_EQ(decoded.sub, SubscriptionId(4));
  EXPECT_EQ(decoded.prunings, 3u);
  EXPECT_TRUE(decoded.tree->equals(*tree));
  EXPECT_EQ(store::decode_record(one.bytes()).prunings, 1u);
  // A written-out count of 1 (or 0) is not the canonical encoding.
  WireWriter explicit_one;
  store::encode_prune(SubscriptionId(4), *tree, explicit_one);
  explicit_one.put_u32(1);
  EXPECT_THROW((void)store::decode_record(explicit_one.bytes()), store::StoreError);
}

TEST(StoreWalTest, RejectsForeignAndCorruptFiles) {
  TempDir dir("walbad");
  fs::create_directories(dir.path());
  const std::string path = (dir.path() / "wal.dbsp").string();

  // Unknown format version in the header.
  store::write_file_atomic(path, std::vector<std::uint8_t>{kWireMagic, 99, 1},
                           false);
  EXPECT_THROW((void)store::read_wal(path), WireError);

  // Snapshot kind byte in a WAL slot.
  store::write_file_atomic(
      path, std::vector<std::uint8_t>{kWireMagic, kWireFormatVersion, 2}, false);
  EXPECT_THROW((void)store::read_wal(path), store::StoreError);

  // Valid WAL with one flipped payload bit -> checksum mismatch.
  auto writer = store::WalWriter::create(path, 1, false);
  WireWriter frame;
  store::WalWriter::begin_frame(frame);
  store::encode_unsubscribe(SubscriptionId(5), frame);
  writer->append_framed(frame);
  writer.reset();
  auto bytes = store::read_file(path);
  bytes.back() ^= 0x10;
  store::write_file_atomic(path, bytes, false);
  EXPECT_THROW((void)store::read_wal(path), store::StoreError);
}

TEST(StoreSnapshotTest, RoundTripsFullState) {
  TempDir dir("snap");
  fs::create_directories(dir.path());
  const std::string path = (dir.path() / "snapshot.dbsp").string();
  MiniDomain dom;
  std::mt19937_64 rng(13);

  EventStats stats(dom.schema());
  for (const Event& e : dom.random_events(rng, 200)) stats.observe(e);
  stats.finalize();

  const auto t1 = dom.random_tree(rng, 4);
  const auto t2 = dom.random_tree(rng, 7);
  store::SnapshotData data;
  data.schema = &dom.schema();
  data.next_id = 17;
  data.next_seq = 923;
  data.stats = &stats;
  data.lookup = [&](SubscriptionId id) -> std::optional<store::SnapshotRecord> {
    if (id == SubscriptionId(2)) return store::SnapshotRecord{5, 1, t1.get()};
    if (id == SubscriptionId(11)) return store::SnapshotRecord{9, 0, t2.get()};
    return std::nullopt;
  };
  // One segment encodes every record; id 4 is not live. Folded into an
  // empty base it makes the whole table.
  const std::vector<SubscriptionId::value_type> dirty = {2, 4, 11};
  store::SegmentLog log;
  EXPECT_EQ(store::append_segment(log, dirty, 6, data), 2u);
  store::SnapshotImage image;
  store::build_snapshot(image, log, 6, data, /*stats_changed=*/true);
  store::write_file_atomic(path, image.bytes, false);

  const store::LoadedSnapshot snap = store::read_snapshot(path);
  EXPECT_EQ(snap.epoch, 6u);
  EXPECT_EQ(snap.next_id, 17u);
  EXPECT_EQ(snap.next_seq, 923u);
  EXPECT_TRUE(store::schemas_equal(snap.schema, dom.schema()));
  ASSERT_EQ(snap.subs.size(), 2u);
  EXPECT_EQ(snap.subs[0].id, SubscriptionId(2));
  EXPECT_EQ(snap.subs[0].capacity, 5u);
  EXPECT_EQ(snap.subs[0].performed, 1u);
  EXPECT_TRUE(snap.subs[0].tree->equals(*t1));
  EXPECT_TRUE(snap.subs[1].tree->equals(*t2));
  ASSERT_FALSE(snap.stats.empty());

  // The serialized statistics load back to identical selectivities.
  EventStats loaded(dom.schema());
  WireReader reader(snap.stats);
  loaded.load(reader);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(loaded.events_observed(), stats.events_observed());
  for (int i = 0; i < 50; ++i) {
    const Predicate p = dom.random_predicate(rng);
    EXPECT_DOUBLE_EQ(loaded.predicate_selectivity(p),
                     stats.predicate_selectivity(p));
  }
}

// --- PubSub::open ------------------------------------------------------------

TEST(PubSubOpenTest, OpenErrors) {
  MiniDomain dom;
  TempDir dir("errors");

  // No store + create_if_missing off.
  StoreOptions no_create = store_at(dir, dom.schema());
  no_create.create_if_missing = false;
  auto missing = PubSub::open(std::move(no_create));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), ErrorCode::kNotFound);

  // A WAL without a snapshot is unrecoverable.
  fs::create_directories(dir.path());
  (void)store::WalWriter::create((dir.path() / "wal.dbsp").string(), 0, false);
  auto orphan = PubSub::open(store_at(dir, dom.schema()));
  ASSERT_FALSE(orphan.ok());
  EXPECT_EQ(orphan.status().code(), ErrorCode::kDataLoss);
  fs::remove(dir.path() / "wal.dbsp");

  // Create a real store, then reopen with a conflicting schema.
  {
    auto created = PubSub::open(store_at(dir, dom.schema()));
    ASSERT_TRUE(created.ok()) << created.status().to_string();
    EXPECT_TRUE(created.value().durable());
  }
  MiniDomain other(3, 50);
  auto mismatch = PubSub::open(store_at(dir, other.schema()));
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), ErrorCode::kInvalidArgument);

  // An empty StoreOptions::schema accepts whatever the store holds.
  StoreOptions any_schema;
  any_schema.directory = dir.str();
  auto agnostic = PubSub::open(std::move(any_schema));
  ASSERT_TRUE(agnostic.ok()) << agnostic.status().to_string();
  EXPECT_TRUE(store::schemas_equal(agnostic.value().schema(), dom.schema()));
}

TEST(PubSubOpenTest, ReopenAfterCrashReproducesMatching) {
  MiniDomain dom;
  std::mt19937_64 rng(29);
  TempDir dir("crash");
  const std::vector<Event> probes = dom.random_events(rng, 30);

  Sink sink = std::make_shared<std::vector<SubscriptionId>>();
  std::optional<PubSub> pubsub;
  std::vector<SubscriptionHandle> live;

  auto opened = PubSub::open(store_at(dir, dom.schema()), pruning_options(2));
  ASSERT_TRUE(opened.ok()) << opened.status().to_string();
  pubsub.emplace(std::move(opened).value());
  EXPECT_FALSE(pubsub->store_stats().recovered);

  for (int i = 0; i < 80; ++i) {
    auto handle = pubsub->subscribe(dom.random_tree(rng, 5, 0.2), collector(sink));
    ASSERT_TRUE(handle.ok()) << handle.status().to_string();
    live.push_back(std::move(handle).value());
  }
  // Churn some of them away so the WAL carries unsubscribes too.
  for (int i = 0; i < 20; ++i) {
    const std::size_t victim =
        static_cast<std::size_t>(rng()) % live.size();
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  const std::size_t live_before = pubsub->subscription_count();
  ASSERT_EQ(live_before, 60u);

  std::vector<std::vector<SubscriptionId>> matched_before;
  for (const Event& e : probes) matched_before.push_back(probe(*pubsub, sink, e));

  // Crash: no checkpoint, no clean shutdown. Handles become inert.
  pubsub.reset();
  live.clear();

  // Recovery must reproduce matching at *any* worker count: the store
  // holds the table, workers are runtime layout (match results are
  // worker-count invariant by the engine's contract).
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    auto reopened = PubSub::open(store_at(dir, dom.schema()),
                                 pruning_options(workers));
    ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
    pubsub.emplace(std::move(reopened).value());
    EXPECT_TRUE(pubsub->store_stats().recovered);
    EXPECT_GT(pubsub->store_stats().replayed_records, 0u);
    EXPECT_EQ(pubsub->subscription_count(), live_before);
    EXPECT_EQ(pubsub->worker_count(), workers);

    live = adopt_all(*pubsub, sink);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(probe(*pubsub, sink, probes[i]), matched_before[i])
          << "probe " << i << " at " << workers << " workers";
      EXPECT_EQ(oracle_matches(*pubsub, probes[i]), matched_before[i]);
    }
    pubsub.reset();  // crash again; next iteration recovers the same state
    live.clear();
  }
}

TEST(PubSubOpenTest, PruneTrainAndAccountingSurviveCrash) {
  MiniDomain dom;
  std::mt19937_64 rng(31);
  TempDir dir("prune");
  const std::vector<Event> probes = dom.random_events(rng, 25);

  Sink sink = std::make_shared<std::vector<SubscriptionId>>();
  std::optional<PubSub> pubsub;
  std::vector<SubscriptionHandle> live;

  auto opened = PubSub::open(store_at(dir, dom.schema()), pruning_options(2));
  ASSERT_TRUE(opened.ok());
  pubsub.emplace(std::move(opened).value());
  ASSERT_TRUE(pubsub->train(dom.random_events(rng, 500)).ok());
  for (int i = 0; i < 50; ++i) {
    auto handle = pubsub->subscribe(dom.random_tree(rng, 7, 0.15), collector(sink));
    ASSERT_TRUE(handle.ok());
    live.push_back(std::move(handle).value());
  }
  const std::size_t pruned = pubsub->prune_to_fraction(0.5).value();
  EXPECT_GT(pruned, 0u);

  const auto stats_before = pubsub->pruning_stats();
  std::vector<std::string> texts_before;
  for (const SubscriptionId id : pubsub->subscription_ids()) {
    texts_before.push_back(pubsub->subscription_text(id).value());
  }
  std::vector<std::vector<SubscriptionId>> matched_before;
  for (const Event& e : probes) matched_before.push_back(probe(*pubsub, sink, e));

  pubsub.reset();  // crash
  live.clear();

  auto reopened = PubSub::open(store_at(dir, dom.schema()), pruning_options(2));
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
  pubsub.emplace(std::move(reopened).value());

  // The pruned trees, the engine matching, and the pruning accounting all
  // continue where the crashed process stopped.
  std::vector<std::string> texts_after;
  for (const SubscriptionId id : pubsub->subscription_ids()) {
    texts_after.push_back(pubsub->subscription_text(id).value());
  }
  EXPECT_EQ(texts_after, texts_before);
  const auto stats_after = pubsub->pruning_stats();
  EXPECT_EQ(stats_after.performed, stats_before.performed);
  EXPECT_EQ(stats_after.total_possible, stats_before.total_possible);
  EXPECT_EQ(stats_after.tracked, stats_before.tracked);

  live = adopt_all(*pubsub, sink);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(probe(*pubsub, sink, probes[i]), matched_before[i]) << "probe " << i;
  }

  // Statistics survived (a train-checkpoint record): pruning more without
  // retraining keeps producing valid decisions, and match semantics stay
  // oracle-exact afterwards.
  (void)pubsub->prune_to_fraction(0.6).value();
  for (const Event& e : probes) {
    EXPECT_EQ(probe(*pubsub, sink, e), oracle_matches(*pubsub, e));
  }
  pubsub.reset();
  live.clear();
}

#if defined(__unix__) || defined(__APPLE__)
TEST(PubSubOpenTest, PassLogsOneRecordPerPrunedSubscription) {
  // One pass prunes the same subscription twice: the WAL gets one record
  // for it (its final tree and a count of 2), and reopening restores both
  // the tree and the accounting.
  MiniDomain dom;
  TempDir dir("onerecord");
  std::optional<PubSub> pubsub(PubSub::open(store_at(dir, dom.schema()), pruning_options(1)).value());
  auto handle = pubsub->subscribe("a0 = 1 and a1 = 2 and a2 = 3").value();
  const std::uint64_t records_before = pubsub->store_stats().wal_records;
  ASSERT_EQ(pubsub->prune(2).value(), 2u);
  EXPECT_EQ(pubsub->store_stats().wal_records, records_before + 1);
  const std::string text = pubsub->subscription_text(handle.id()).value();
  const PubSub::PruningStats accounting = pubsub->pruning_stats();
  EXPECT_EQ(accounting.performed, 2u);
  pubsub.reset();  // crash

  const PubSub recovered = PubSub::open(store_at(dir, dom.schema()), pruning_options(1)).value();
  EXPECT_EQ(recovered.store_stats().replayed_prunes, 1u);
  EXPECT_EQ(recovered.subscription_text(handle.id()).value(), text);
  EXPECT_EQ(recovered.pruning_stats().performed, accounting.performed);
  EXPECT_EQ(recovered.pruning_stats().total_possible, accounting.total_possible);
}

/// What aggregation_stats() must report: an aggregator built by hand over
/// the live trees in ascending-id order, trained on `stats`.
void expect_hand_built_view(const PubSub& pubsub, const EventStats& stats,
                            const char* when) {
  std::vector<std::unique_ptr<Subscription>> subs;
  for (const SubscriptionId id : pubsub.subscription_ids()) {
    const std::string text = pubsub.subscription_text(id).value();
    subs.push_back(std::make_unique<Subscription>(id, parse_subscription(text, pubsub.schema())));
    ASSERT_EQ(subs.back()->to_string(pubsub.schema()), text);
  }
  agg::SubscriptionAggregator hand(pubsub.schema(), agg::AggregatorOptions{});
  for (const auto& sub : subs) hand.add(*sub);
  hand.train(stats);
  const PubSub::AggregationStats view = pubsub.aggregation_stats();
  ASSERT_TRUE(view.enabled) << when;
  EXPECT_GT(view.subgroups, 1u) << when;
  EXPECT_EQ(view.subgroups, hand.subgroup_count()) << when;
  EXPECT_EQ(view.dimensions, hand.dimensions().size()) << when;
  EXPECT_EQ(view.advertised_bytes, hand.advertised_bytes()) << when;
  const agg::AggregationCounters counters = hand.counters();
  EXPECT_EQ(view.counters.summary_widenings, counters.summary_widenings) << when;
  EXPECT_EQ(view.counters.subgroup_rebuilds, counters.subgroup_rebuilds) << when;
  EXPECT_EQ(view.counters.full_rebuilds, counters.full_rebuilds) << when;
}

TEST(PubSubAggregationTest, StatsEqualAHandBuiltAggregator) {
  MiniDomain dom;
  std::mt19937_64 rng(83);
  TempDir dir("aggview");
  PubSubOptions options = pruning_options(2);
  options.aggregation = true;
  const std::vector<Event> sample = dom.random_events(rng, 400);
  EventStats stats(dom.schema());
  for (const Event& e : sample) stats.observe(e);
  stats.finalize();

  std::optional<PubSub> pubsub(PubSub::open(store_at(dir, dom.schema()), options).value());
  ASSERT_TRUE(pubsub->train(sample).ok());
  std::vector<SubscriptionHandle> live;
  for (int i = 0; i < 300; ++i) {
    live.push_back(pubsub->subscribe(dom.random_tree(rng, 6, 0.15)).value());
    if (i % 3 == 2) {
      const std::size_t victim = rng() % live.size();
      ASSERT_TRUE(live[victim].release().ok());
      live[victim] = std::move(live.back());
      live.pop_back();
    }
  }
  expect_hand_built_view(*pubsub, stats, "after churn");
  ASSERT_GT(pubsub->prune_to_fraction(0.5).value(), 0u);
  expect_hand_built_view(*pubsub, stats, "after a prune pass");
  pubsub.reset();  // crash
  live.clear();
  pubsub.emplace(PubSub::open(store_at(dir, dom.schema()), options).value());
  expect_hand_built_view(*pubsub, stats, "after recovery");
}

TEST(PubSubOpenTest, SecondOpenOfLiveStoreIsRefused) {
  MiniDomain dom;
  TempDir dir("lock");

  auto first = PubSub::open(store_at(dir, dom.schema()));
  ASSERT_TRUE(first.ok()) << first.status().to_string();

  // Two writers sharing one WAL would corrupt it; the flock refuses.
  auto second = PubSub::open(store_at(dir, dom.schema()));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), ErrorCode::kIoError);

  // Closing the first releases the lock (and so does a process crash).
  { PubSub moved = std::move(first).value(); }
  auto third = PubSub::open(store_at(dir, dom.schema()));
  EXPECT_TRUE(third.ok()) << third.status().to_string();
}
#endif

TEST(PubSubOpenTest, TornWalTailIsTruncatedNotFatal) {
  MiniDomain dom;
  std::mt19937_64 rng(43);
  TempDir dir("torn");

  std::optional<PubSub> pubsub;
  std::vector<SubscriptionHandle> live;
  Sink sink = std::make_shared<std::vector<SubscriptionId>>();

  auto opened = PubSub::open(store_at(dir, dom.schema()));
  ASSERT_TRUE(opened.ok());
  pubsub.emplace(std::move(opened).value());
  for (int i = 0; i < 20; ++i) {
    auto handle = pubsub->subscribe(dom.random_tree(rng, 4), collector(sink));
    ASSERT_TRUE(handle.ok());
    live.push_back(std::move(handle).value());
  }
  pubsub.reset();  // crash
  live.clear();

  // Simulate a kill mid-append: chop the final frame in half. Recovery
  // must keep the 19-record prefix and truncate the torn bytes away.
  const std::string wal_path = (dir.path() / "wal.dbsp").string();
  auto bytes = store::read_file(wal_path);
  const store::WalContents intact = store::read_wal(wal_path);
  ASSERT_FALSE(intact.torn_tail);
  const std::size_t last_record_at = [&] {
    // Frame offsets: header(3) then len-prefixed records; walk to the last.
    std::size_t pos = 3;
    std::size_t last = pos;
    while (pos < bytes.size()) {
      WireReader fr(std::span<const std::uint8_t>(bytes.data() + pos, 8));
      const std::uint32_t len = fr.get_u32();
      last = pos;
      pos += 8 + len;
    }
    return last;
  }();
  bytes.resize(last_record_at + 5);  // partial frame header + payload start
  store::write_file_atomic(wal_path, bytes, false);

  auto reopened = PubSub::open(store_at(dir, dom.schema()));
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
  pubsub.emplace(std::move(reopened).value());
  EXPECT_TRUE(pubsub->store_stats().recovered_torn_tail);
  EXPECT_EQ(pubsub->subscription_count(), 19u);

  // The truncated log is clean again: appends and another recovery work.
  auto handle = pubsub->subscribe(dom.random_tree(rng, 4), collector(sink));
  ASSERT_TRUE(handle.ok());
  live.push_back(std::move(handle).value());
  pubsub.reset();
  live.clear();
  auto again = PubSub::open(store_at(dir, dom.schema()));
  ASSERT_TRUE(again.ok()) << again.status().to_string();
  EXPECT_FALSE(again.value().store_stats().recovered_torn_tail);
  EXPECT_EQ(again.value().subscription_count(), 20u);
}

TEST(PubSubOpenTest, CorruptStaleWalIsDiscardedNotFatal) {
  MiniDomain dom;
  std::mt19937_64 rng(47);
  TempDir dir("stale");

  std::optional<PubSub> pubsub;
  std::vector<SubscriptionHandle> live;
  Sink sink = std::make_shared<std::vector<SubscriptionId>>();

  auto opened = PubSub::open(store_at(dir, dom.schema()));
  ASSERT_TRUE(opened.ok());
  pubsub.emplace(std::move(opened).value());
  for (int i = 0; i < 15; ++i) {
    auto handle = pubsub->subscribe(dom.random_tree(rng, 4), collector(sink));
    ASSERT_TRUE(handle.ok());
    live.push_back(std::move(handle).value());
  }
  ASSERT_TRUE(pubsub->checkpoint().ok());  // snapshot + WAL now at epoch 1
  pubsub.reset();
  live.clear();

  // Simulate the crash window "snapshot renamed, WAL not yet truncated"
  // with the worst twist: the stale (epoch-0) WAL's obsolete tail is also
  // corrupt. The snapshot fully supersedes it, so recovery must discard
  // it on the epoch alone instead of reporting data loss.
  const std::string wal_path = (dir.path() / "wal.dbsp").string();
  {
    auto stale = store::WalWriter::create(wal_path, 0, false);
    WireWriter frame;
    store::WalWriter::begin_frame(frame);
    store::encode_unsubscribe(SubscriptionId(3), frame);
    stale->append_framed(frame);
    stale->append_framed(frame);
  }
  auto bytes = store::read_file(wal_path);
  bytes.back() ^= 0x40;  // CRC mismatch on the final complete frame
  store::write_file_atomic(wal_path, bytes, false);

  auto reopened = PubSub::open(store_at(dir, dom.schema()));
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
  EXPECT_EQ(reopened.value().subscription_count(), 15u);
  EXPECT_EQ(reopened.value().store_stats().replayed_records, 0u);
  EXPECT_EQ(reopened.value().store_stats().epoch, 1u);
}

TEST(PubSubOpenTest, CheckpointTruncatesWal) {
  MiniDomain dom;
  std::mt19937_64 rng(37);
  TempDir dir("ckpt");

  std::optional<PubSub> pubsub;
  std::vector<SubscriptionHandle> live;
  Sink sink = std::make_shared<std::vector<SubscriptionId>>();

  StoreOptions store = store_at(dir, dom.schema());
  store.snapshot_every = 16;
  auto opened = PubSub::open(std::move(store), pruning_options(1));
  ASSERT_TRUE(opened.ok());
  pubsub.emplace(std::move(opened).value());

  for (int i = 0; i < 100; ++i) {
    auto handle = pubsub->subscribe(dom.random_tree(rng, 4), collector(sink));
    ASSERT_TRUE(handle.ok());
    live.push_back(std::move(handle).value());
  }
  const StoreStats mid = pubsub->store_stats();
  EXPECT_GE(mid.snapshots_written, 5u);  // 100 records / snapshot_every 16
  EXPECT_LT(mid.records_since_checkpoint, 16u);

  // Manual checkpoint: the WAL empties completely.
  ASSERT_TRUE(pubsub->checkpoint().ok());
  const std::size_t count_before = pubsub->subscription_count();
  pubsub.reset();
  live.clear();

  auto reopened = PubSub::open(store_at(dir, dom.schema()), pruning_options(1));
  ASSERT_TRUE(reopened.ok());
  pubsub.emplace(std::move(reopened).value());
  EXPECT_EQ(pubsub->store_stats().replayed_records, 0u);
  EXPECT_EQ(pubsub->store_stats().snapshot_subscriptions, count_before);
  EXPECT_EQ(pubsub->subscription_count(), count_before);
  pubsub.reset();
}

TEST(PubSubOpenTest, WalBytesAccumulateAcrossCheckpoints) {
  MiniDomain dom;
  std::mt19937_64 rng(41);
  TempDir dir("walbytes");
  StoreOptions store = store_at(dir, dom.schema());
  store.snapshot_every = 8;
  PubSub pubsub = PubSub::open(std::move(store), pruning_options(1)).value();
  std::vector<SubscriptionHandle> live;
  std::uint64_t previous = 0;
  for (int i = 0; i < 40; ++i) {
    live.push_back(pubsub.subscribe(dom.random_tree(rng, 4)).value());
    // Every append adds its framed size: at least the 8-byte frame header
    // plus a record type and an id, whatever checkpoints ran in between.
    const std::uint64_t now = pubsub.store_stats().wal_bytes;
    EXPECT_GE(now, previous + 8 + 5) << "after subscribe " << i;
    previous = now;
  }
  const StoreStats stats = pubsub.store_stats();
  EXPECT_GE(stats.snapshots_written, 4u);  // 40 records / snapshot_every 8
  EXPECT_EQ(stats.wal_records, 40u);
}

TEST(PubSubOpenTest, CheckpointAfterChurnReopensToSameTable) {
  MiniDomain dom;
  std::mt19937_64 rng(53);
  TempDir dir("churnckpt");

  std::optional<PubSub> pubsub;
  std::vector<SubscriptionHandle> live;
  Sink sink = std::make_shared<std::vector<SubscriptionId>>();
  PubSubOptions options = pruning_options(2);
  options.aggregation = true;
  auto opened = PubSub::open(store_at(dir, dom.schema()), options);
  ASSERT_TRUE(opened.ok());
  pubsub.emplace(std::move(opened).value());

  const auto subscribe = [&] {
    auto handle = pubsub->subscribe(dom.random_tree(rng, 4), collector(sink));
    ASSERT_TRUE(handle.ok());
    live.push_back(std::move(handle).value());
  };
  for (int i = 0; i < 100; ++i) subscribe();
  // 300 subscribe/unsubscribe pairs; the departing handle is a random one.
  for (int i = 0; i < 300; ++i) {
    subscribe();
    const std::size_t victim = std::uniform_int_distribution<std::size_t>(
        0, live.size() - 1)(rng);
    ASSERT_TRUE(live[victim].release().ok());
    live[victim] = std::move(live.back());
    live.pop_back();
  }
  ASSERT_TRUE(pubsub->checkpoint().ok());
  const std::vector<SubscriptionId> ids = pubsub->subscription_ids();
  ASSERT_EQ(ids.size(), 100u);
  std::vector<std::string> texts;
  for (const SubscriptionId id : ids) texts.push_back(pubsub->subscription_text(id).value());
  const StoreStats checkpointed = pubsub->store_stats();
  pubsub.reset();  // crash order: the handles go after the PubSub
  live.clear();

  // The first checkpoint of a store compacts (its segment outgrows the
  // empty base), so the snapshot file is its header followed by exactly
  // the body it frames, with no segment after it.
  EXPECT_EQ(checkpointed.compactions, 1u);
  EXPECT_EQ(checkpointed.segment_bytes, 0u);
  const std::string snapshot = (dir.path() / "snapshot.dbsp").string();
  const std::vector<std::uint8_t> bytes = store::read_file(snapshot);
  ASSERT_GT(bytes.size(), store::kSnapshotHeaderBytes);
  WireReader in(bytes);
  EXPECT_EQ(in.get_u8(), kWireMagic);
  EXPECT_EQ(in.get_u8(), store::kSnapshotFormatVersion);
  EXPECT_EQ(in.get_u8(), static_cast<std::uint8_t>(store::FileKind::kSnapshot));
  const std::uint64_t body_len = in.get_u64();
  EXPECT_EQ(fs::file_size(snapshot), store::kSnapshotHeaderBytes + body_len);

  auto reopened = PubSub::open(store_at(dir, dom.schema()), options);
  ASSERT_TRUE(reopened.ok());
  pubsub.emplace(std::move(reopened).value());
  EXPECT_EQ(pubsub->store_stats().replayed_records, 0u);
  ASSERT_EQ(pubsub->subscription_ids(), ids);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(pubsub->subscription_text(ids[i]).value(), texts[i]) << ids[i].value();
  }
  // Recovery joins every tree into the aggregator in id order, so its
  // subgroups equal those of a fresh table subscribed in the same order.
  PubSub fresh(dom.schema(), options);
  std::vector<SubscriptionHandle> fresh_live;
  for (const std::string& text : texts) fresh_live.push_back(fresh.subscribe(text).value());
  const PubSub::AggregationStats recovered = pubsub->aggregation_stats();
  const PubSub::AggregationStats expected = fresh.aggregation_stats();
  EXPECT_GT(recovered.subgroups, 0u);
  EXPECT_EQ(recovered.subgroups, expected.subgroups);
  EXPECT_EQ(recovered.dimensions, expected.dimensions);
  EXPECT_EQ(recovered.advertised_bytes, expected.advertised_bytes);
  fresh_live.clear();
  pubsub.reset();
}

/// Every live id with its current tree as text.
std::map<SubscriptionId::value_type, std::string> table_of(const PubSub& pubsub) {
  std::map<SubscriptionId::value_type, std::string> table;
  for (const SubscriptionId id : pubsub.subscription_ids()) {
    table[id.value()] = pubsub.subscription_text(id).value();
  }
  return table;
}

void expect_same_accounting(const PubSub::PruningStats& got,
                            const PubSub::PruningStats& want) {
  EXPECT_EQ(got.tracked, want.tracked);
  EXPECT_EQ(got.total_possible, want.total_possible);
  EXPECT_EQ(got.performed, want.performed);
}

TEST(DeltaCheckpointTest, KillAfterSeveralRecoversTableAndAccounting) {
  // Auto-checkpoints every 48 records, each built from the previous
  // snapshot, interleave with churn and prunings; the kill leaves a WAL
  // tail on top of the last one.
  MiniDomain dom;
  std::mt19937_64 rng(61);
  TempDir dir("delta_kill");
  StoreOptions store = store_at(dir, dom.schema());
  store.snapshot_every = 48;
  std::optional<PubSub> pubsub(PubSub::open(store, pruning_options(2)).value());
  ASSERT_TRUE(pubsub->train(dom.random_events(rng, 400)).ok());
  std::vector<SubscriptionHandle> live;
  for (int i = 0; i < 600; ++i) {
    live.push_back(pubsub->subscribe(dom.random_tree(rng, 6, 0.2)).value());
    if (i % 3 == 2) {
      const std::size_t victim = rng() % live.size();
      ASSERT_TRUE(live[victim].release().ok());
      live[victim] = std::move(live.back());
      live.pop_back();
    }
    if (i % 40 == 39) {
      ASSERT_TRUE(pubsub->prune_to_fraction(0.1 + 0.001 * i).ok());
    }
  }
  for (int i = 0; i < 5; ++i) {  // the WAL tail
    live.push_back(pubsub->subscribe(dom.random_tree(rng, 6, 0.2)).value());
  }
  const StoreStats stats = pubsub->store_stats();
  ASSERT_GE(stats.snapshots_written, 8u);
  ASSERT_GT(stats.records_since_checkpoint, 0u);
  const auto table = table_of(*pubsub);
  const PubSub::PruningStats pruning = pubsub->pruning_stats();
  ASSERT_GT(pruning.performed, 0u);
  pubsub.reset();  // kill: no checkpoint, the handles turn inert
  live.clear();

  const PubSub recovered = PubSub::open(store, pruning_options(1)).value();
  EXPECT_EQ(recovered.store_stats().replayed_records, stats.records_since_checkpoint);
  EXPECT_EQ(table_of(recovered), table);
  expect_same_accounting(recovered.pruning_stats(), pruning);
}

TEST(DeltaCheckpointTest, KillBetweenSnapshotRenameAndWalCreateRecovers) {
  // Three rounds of churn, prunings and a checkpoint built from the
  // previous snapshot. The kill lands inside the last checkpoint, after
  // its snapshot replaced the old one and before the new WAL exists: on
  // disk that is the new snapshot beside the old WAL, whose records the
  // snapshot already holds.
  MiniDomain dom;
  std::mt19937_64 rng(67);
  TempDir dir("delta_window");
  StoreOptions store = store_at(dir, dom.schema());
  store.snapshot_every = 1 << 20;  // manual checkpoints only
  std::optional<PubSub> pubsub(PubSub::open(store, pruning_options(2)).value());
  ASSERT_TRUE(pubsub->train(dom.random_events(rng, 400)).ok());
  std::vector<SubscriptionHandle> live;
  for (int i = 0; i < 200; ++i) {
    live.push_back(pubsub->subscribe(dom.random_tree(rng, 6, 0.2)).value());
  }
  ASSERT_TRUE(pubsub->checkpoint().ok());
  const std::string wal_path = (dir.path() / "wal.dbsp").string();
  std::vector<std::uint8_t> old_wal;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 30; ++i) {
      live.push_back(pubsub->subscribe(dom.random_tree(rng, 6, 0.2)).value());
      const std::size_t victim = rng() % live.size();
      ASSERT_TRUE(live[victim].release().ok());
      live[victim] = std::move(live.back());
      live.pop_back();
    }
    ASSERT_TRUE(pubsub->prune_to_fraction(0.2 + 0.1 * round).ok());
    old_wal = store::read_file(wal_path);
    ASSERT_TRUE(pubsub->checkpoint().ok());
  }
  const auto table = table_of(*pubsub);
  const PubSub::PruningStats pruning = pubsub->pruning_stats();
  pubsub.reset();
  live.clear();
  store::write_file_atomic(wal_path, old_wal, false);

  const PubSub recovered = PubSub::open(store, pruning_options(1)).value();
  EXPECT_EQ(recovered.store_stats().epoch, 4u);
  EXPECT_EQ(recovered.store_stats().replayed_records, 0u);  // the stale WAL is discarded
  EXPECT_EQ(table_of(recovered), table);
  expect_same_accounting(recovered.pruning_stats(), pruning);
}

TEST(DeltaCheckpointTest, CheckpointEncodesOnlyTheIdsTheWalTouched) {
  MiniDomain dom;
  std::mt19937_64 rng(71);
  TempDir dir("delta_encoded");
  StoreOptions store = store_at(dir, dom.schema());
  store.snapshot_every = 1 << 20;
  PubSub pubsub = PubSub::open(store, pruning_options(1)).value();
  std::vector<SubscriptionHandle> live;
  for (int i = 0; i < 500; ++i) {
    live.push_back(pubsub.subscribe(dom.random_tree(rng, 5, 0.2)).value());
  }
  ASSERT_TRUE(pubsub.checkpoint().ok());  // from the empty epoch-0 base
  const std::uint64_t first = pubsub.store_stats().snapshot_records_encoded;
  EXPECT_EQ(first, 500u);

  // k = 7 records: four arrivals, three departures of old subscriptions.
  for (int i = 0; i < 4; ++i) {
    live.push_back(pubsub.subscribe(dom.random_tree(rng, 5, 0.2)).value());
  }
  for (std::size_t i = 0; i < 3; ++i) ASSERT_TRUE(live[i].release().ok());
  const std::uint64_t k = pubsub.store_stats().records_since_checkpoint;
  ASSERT_EQ(k, 7u);
  ASSERT_TRUE(pubsub.checkpoint().ok());
  const std::uint64_t encoded = pubsub.store_stats().snapshot_records_encoded - first;
  EXPECT_LE(encoded, k);
  EXPECT_EQ(encoded, 4u);  // the departed are dropped, not encoded

  // Nothing logged, nothing encoded.
  ASSERT_TRUE(pubsub.checkpoint().ok());
  EXPECT_EQ(pubsub.store_stats().snapshot_records_encoded, first + encoded);
  EXPECT_DOUBLE_EQ(pubsub.metrics().value("dbsp_store_snapshot_records_encoded_total"),
                   static_cast<double>(first + encoded));
}

TEST(DeltaCheckpointTest, PruningOffKeepsThePersistedAccountingOfUntouchedRecords) {
  // A facade with pruning off reports zero accounting for the records it
  // logs. Records it never touched keep the accounting they were written
  // with, so pruning on again continues where it stopped.
  MiniDomain dom;
  std::mt19937_64 rng(73);
  TempDir dir("delta_off");
  StoreOptions store = store_at(dir, dom.schema());
  std::vector<SubscriptionHandle> live;  // dropped after each PubSub: crash order
  std::optional<PubSub> pubsub(PubSub::open(store, pruning_options(1)).value());
  ASSERT_TRUE(pubsub->train(dom.random_events(rng, 400)).ok());
  for (int i = 0; i < 60; ++i) {
    live.push_back(pubsub->subscribe(dom.random_tree(rng, 7, 0.15)).value());
  }
  ASSERT_GT(pubsub->prune_to_fraction(0.5).value(), 0u);
  ASSERT_TRUE(pubsub->checkpoint().ok());
  const PubSub::PruningStats pruned_once = pubsub->pruning_stats();
  pubsub.reset();
  live.clear();

  pubsub.emplace(PubSub::open(store, PubSubOptions{}).value());
  std::size_t new_capacity = 0;
  for (int i = 0; i < 5; ++i) {
    auto tree = dom.random_tree(rng, 7, 0.15);
    new_capacity += internal_prunings(*tree);
    live.push_back(pubsub->subscribe(std::move(tree)).value());
  }
  ASSERT_TRUE(pubsub->checkpoint().ok());
  pubsub.reset();
  live.clear();

  pubsub.emplace(PubSub::open(store, pruning_options(1)).value());
  const PubSub::PruningStats pruning = pubsub->pruning_stats();
  EXPECT_EQ(pruning.tracked, pruned_once.tracked + 5);
  EXPECT_EQ(pruning.performed, pruned_once.performed);
  EXPECT_EQ(pruning.total_possible, pruned_once.total_possible + new_capacity);
}

TEST(DeltaCheckpointTest, SetPruneDimensionRewritesEveryRecordsAccounting) {
  // set_prune_dimension re-captures every subscription's accounting
  // without a WAL record, so it checkpoints at once, re-encoding the whole
  // table, not only the ids the WAL touched.
  MiniDomain dom;
  std::mt19937_64 rng(79);
  TempDir dir("delta_dimension");
  StoreOptions store = store_at(dir, dom.schema());
  store.snapshot_every = 1 << 20;
  std::vector<SubscriptionHandle> live;
  std::optional<PubSub> pubsub(PubSub::open(store, pruning_options(1)).value());
  ASSERT_TRUE(pubsub->train(dom.random_events(rng, 400)).ok());
  for (int i = 0; i < 80; ++i) {
    live.push_back(pubsub->subscribe(dom.random_tree(rng, 7, 0.15)).value());
  }
  ASSERT_GT(pubsub->prune_to_fraction(0.5).value(), 0u);
  ASSERT_TRUE(pubsub->checkpoint().ok());
  const StoreStats before = pubsub->store_stats();
  ASSERT_TRUE(pubsub->set_prune_dimension(PruneDimension::Throughput).ok());
  const StoreStats after = pubsub->store_stats();
  EXPECT_EQ(after.snapshots_written, before.snapshots_written + 1);
  EXPECT_EQ(after.snapshot_records_encoded - before.snapshot_records_encoded, 80u);
  EXPECT_EQ(after.records_since_checkpoint, 0u);
  const PubSub::PruningStats pruning = pubsub->pruning_stats();
  pubsub.reset();
  live.clear();

  const PubSub recovered = PubSub::open(store, pruning_options(1)).value();
  expect_same_accounting(recovered.pruning_stats(), pruning);
}

TEST(DeltaCheckpointTest, KillAfterSetPruneDimensionKeepsTheRecapturedAccounting) {
  // The rebuild changes capacity and performed for every pruned
  // subscription. A kill right after it, with WAL records since the last
  // checkpoint and none after, must recover the re-captured accounting,
  // not the one persisted before the rebuild.
  MiniDomain dom;
  std::mt19937_64 rng(83);
  TempDir dir("dimension_kill");
  StoreOptions store = store_at(dir, dom.schema());
  store.snapshot_every = 1 << 20;
  std::vector<SubscriptionHandle> live;
  std::optional<PubSub> pubsub(PubSub::open(store, pruning_options(1)).value());
  ASSERT_TRUE(pubsub->train(dom.random_events(rng, 400)).ok());
  for (int i = 0; i < 60; ++i) {
    live.push_back(pubsub->subscribe(dom.random_tree(rng, 7, 0.15)).value());
  }
  ASSERT_GT(pubsub->prune_to_fraction(0.4).value(), 0u);
  const PubSub::PruningStats pruned = pubsub->pruning_stats();
  ASSERT_TRUE(pubsub->set_prune_dimension(PruneDimension::MemoryUsage).ok());
  const PubSub::PruningStats rebuilt = pubsub->pruning_stats();
  ASSERT_NE(rebuilt.performed, pruned.performed);  // the rebuild re-captured
  pubsub.reset();  // kill: no explicit checkpoint
  live.clear();

  const PubSub recovered = PubSub::open(store, pruning_options(1)).value();
  expect_same_accounting(recovered.pruning_stats(), rebuilt);
}

// --- Segment checkpoints -------------------------------------------------------

/// A durable facade with manual checkpoints whose base holds 300 pruned
/// subscriptions and trained statistics, and the churn that later
/// checkpoints persist as segments.
class SegmentStore {
 public:
  SegmentStore(const TempDir& dir, std::uint64_t seed)
      : rng_(seed), store_(store_at(dir, dom_.schema())) {
    store_.snapshot_every = 1 << 20;  // manual checkpoints only
    pubsub_.emplace(PubSub::open(store_, pruning_options(2)).value());
    EXPECT_TRUE(pubsub_->train(dom_.random_events(rng_, 400)).ok());
    for (int i = 0; i < 300; ++i) subscribe();
    EXPECT_TRUE(pubsub_->prune_to_fraction(0.3).ok());
    EXPECT_TRUE(pubsub_->checkpoint().ok());  // the base: a compaction
  }

  /// Twelve arrivals, eight departures of random live subscriptions and a
  /// pruning pass, all logged to the WAL.
  void churn() {
    for (int i = 0; i < 12; ++i) subscribe();
    for (int i = 0; i < 8; ++i) {
      const std::size_t victim = rng_() % live_.size();
      ASSERT_TRUE(live_[victim].release().ok());
      live_[victim] = std::move(live_.back());
      live_.pop_back();
    }
    ASSERT_TRUE(pubsub_->prune_to_fraction(0.3).ok());
  }

  /// Ends the process as a kill would: no checkpoint, the handles inert.
  void kill() {
    pubsub_.reset();
    live_.clear();
  }

  /// Opens the directory again and returns the recovered store's stats.
  /// The recovered table must equal `table`, its accounting `pruning`, and
  /// its deliveries the direct evaluation of its trees.
  StoreStats recover(const std::map<SubscriptionId::value_type, std::string>& table,
                     const PubSub::PruningStats& pruning) {
    std::vector<SubscriptionHandle> claims;  // before the PubSub: inert at exit
    PubSub recovered = PubSub::open(store_, pruning_options(1)).value();
    EXPECT_EQ(table_of(recovered), table);
    expect_same_accounting(recovered.pruning_stats(), pruning);
    Sink sink = std::make_shared<std::vector<SubscriptionId>>();
    claims = adopt_all(recovered, sink);
    for (const Event& e : dom_.random_events(rng_, 30)) {
      EXPECT_EQ(probe(recovered, sink, e), oracle_matches(recovered, e));
    }
    return recovered.store_stats();
  }

  /// Events for a training, from the store's random stream.
  std::vector<Event> events(std::size_t n) { return dom_.random_events(rng_, n); }

  PubSub& pubsub() { return *pubsub_; }
  const StoreOptions& options() const { return store_; }
  std::unique_ptr<Node> tree() { return dom_.random_tree(rng_, 6, 0.2); }

 private:
  void subscribe() { live_.push_back(pubsub_->subscribe(tree()).value()); }

  MiniDomain dom_;
  std::mt19937_64 rng_;
  StoreOptions store_;
  std::vector<SubscriptionHandle> live_;  // after pubsub_: dropped first on kill()
  std::optional<PubSub> pubsub_;
};

TEST(SegmentCheckpointTest, RoutineCheckpointsAppendSegmentsAndCompactPastAQuarter) {
  TempDir dir("segments");
  SegmentStore st(dir, 101);
  const std::string snapshot = (dir.path() / "snapshot.dbsp").string();
  const StoreStats base = st.pubsub().store_stats();
  ASSERT_EQ(base.compactions, 1u);
  const std::uint64_t body = fs::file_size(snapshot) - store::kSnapshotHeaderBytes;

  // Each checkpoint appends one segment; the base bytes stay as they are.
  const std::vector<std::uint8_t> base_bytes = store::read_file(snapshot);
  std::uint64_t segments = 0;
  while (st.pubsub().store_stats().compactions == 1) {
    st.churn();
    const std::uint64_t records = st.pubsub().store_stats().records_since_checkpoint;
    const std::uint64_t encoded = st.pubsub().store_stats().snapshot_records_encoded;
    ASSERT_TRUE(st.pubsub().checkpoint().ok());
    const StoreStats now = st.pubsub().store_stats();
    EXPECT_LE(now.snapshot_records_encoded - encoded, records);
    if (now.compactions > 1) break;
    ++segments;
    EXPECT_EQ(fs::file_size(snapshot), base_bytes.size() + now.segment_bytes);
    std::vector<std::uint8_t> prefix = store::read_file(snapshot);
    prefix.resize(base_bytes.size());
    ASSERT_EQ(prefix, base_bytes) << "segment " << segments;
    EXPECT_LE(now.segment_bytes, body / 4);
    ASSERT_LT(segments, 100u);
  }
  EXPECT_GE(segments, 3u);
  // The compaction dropped the segments: one body again.
  const StoreStats compacted = st.pubsub().store_stats();
  EXPECT_EQ(compacted.segment_bytes, 0u);
  EXPECT_EQ(fs::file_size(snapshot), store::kSnapshotHeaderBytes +
                                         store::read_snapshot(snapshot).image.body_bytes());
  EXPECT_DOUBLE_EQ(st.pubsub().metrics().value("dbsp_store_compactions_total"), 2.0);

  // A training forces a compaction: segments carry no statistics.
  st.churn();
  ASSERT_TRUE(st.pubsub().checkpoint().ok());
  EXPECT_EQ(st.pubsub().store_stats().compactions, 2u);
  ASSERT_TRUE(st.pubsub().train(st.events(50)).ok());
  ASSERT_TRUE(st.pubsub().checkpoint().ok());
  EXPECT_EQ(st.pubsub().store_stats().compactions, 3u);

  const auto table = table_of(st.pubsub());
  const PubSub::PruningStats pruning = st.pubsub().pruning_stats();
  st.kill();
  EXPECT_EQ(st.recover(table, pruning).replayed_records, 0u);
}

TEST(SegmentCheckpointTest, KillMidSegmentAppendCutsTheTornSegment) {
  TempDir dir("segment_torn");
  SegmentStore st(dir, 103);
  const std::string snapshot = (dir.path() / "snapshot.dbsp").string();
  const std::string wal = (dir.path() / "wal.dbsp").string();
  st.churn();
  ASSERT_TRUE(st.pubsub().checkpoint().ok());
  st.churn();
  const std::vector<std::uint8_t> old_wal = store::read_file(wal);
  const std::uint64_t records = st.pubsub().store_stats().records_since_checkpoint;
  const std::uint64_t before = fs::file_size(snapshot);
  const auto table = table_of(st.pubsub());
  const PubSub::PruningStats pruning = st.pubsub().pruning_stats();
  ASSERT_TRUE(st.pubsub().checkpoint().ok());
  ASSERT_EQ(st.pubsub().store_stats().compactions, 1u);  // both were segments
  const std::vector<std::uint8_t> appended = store::read_file(snapshot);
  const std::uint64_t after = appended.size();
  ASSERT_GT(after, before);
  st.kill();

  // The kill landed inside the append: part of the segment reached the
  // file, and the next epoch's WAL was never created.
  for (const std::uint64_t kept : {std::uint64_t{5}, (after - before) / 2, after - before - 1}) {
    store::write_file_atomic(
        snapshot, std::span(appended).first(static_cast<std::size_t>(before + kept)), false);
    store::write_file_atomic(wal, old_wal, false);
    const StoreStats recovered = st.recover(table, pruning);
    EXPECT_TRUE(recovered.recovered_torn_tail);
    EXPECT_EQ(recovered.replayed_records, records);
    EXPECT_EQ(fs::file_size(snapshot), before) << kept;
  }

  // The next segment extends the clean file.
  std::map<SubscriptionId::value_type, std::string> later;
  PubSub::PruningStats later_pruning;
  {
    std::vector<SubscriptionHandle> claims;  // before the PubSub: inert at exit
    PubSub reopened = PubSub::open(st.options(), pruning_options(1)).value();
    claims.push_back(reopened.subscribe(st.tree()).value());
    ASSERT_TRUE(reopened.checkpoint().ok());
    EXPECT_EQ(reopened.store_stats().compactions, 0u);
    EXPECT_GT(fs::file_size(snapshot), before);
    later = table_of(reopened);
    later_pruning = reopened.pruning_stats();
  }
  const StoreStats recovered = st.recover(later, later_pruning);
  EXPECT_FALSE(recovered.recovered_torn_tail);
  EXPECT_EQ(recovered.replayed_records, 0u);
}

TEST(SegmentCheckpointTest, KillBetweenSegmentAppendAndWalCreateDiscardsTheStaleWal) {
  TempDir dir("segment_window");
  SegmentStore st(dir, 107);
  const std::string wal = (dir.path() / "wal.dbsp").string();
  std::vector<std::uint8_t> old_wal;
  for (int round = 0; round < 3; ++round) {
    st.churn();
    old_wal = store::read_file(wal);
    ASSERT_TRUE(st.pubsub().checkpoint().ok());
  }
  ASSERT_EQ(st.pubsub().store_stats().compactions, 1u);
  const std::uint64_t epoch = st.pubsub().store_stats().epoch;
  const auto table = table_of(st.pubsub());
  const PubSub::PruningStats pruning = st.pubsub().pruning_stats();
  st.kill();
  // The last segment is complete, but the WAL it supersedes is still there.
  store::write_file_atomic(wal, old_wal, false);

  const StoreStats recovered = st.recover(table, pruning);
  EXPECT_EQ(recovered.epoch, epoch);
  EXPECT_EQ(recovered.replayed_records, 0u);  // the stale WAL is discarded
  EXPECT_GT(recovered.segment_bytes, 0u);
}

TEST(SegmentCheckpointTest, KillMidCompactionLeavesATemporaryFileRecoveryRemoves) {
  TempDir dir("segment_compaction");
  SegmentStore st(dir, 109);
  const std::string snapshot = (dir.path() / "snapshot.dbsp").string();
  const std::string wal = (dir.path() / "wal.dbsp").string();
  st.churn();
  ASSERT_TRUE(st.pubsub().checkpoint().ok());
  st.churn();
  // A training makes the next checkpoint a compaction.
  ASSERT_TRUE(st.pubsub().train(st.events(80)).ok());
  const std::vector<std::uint8_t> old_snapshot = store::read_file(snapshot);
  const std::vector<std::uint8_t> old_wal = store::read_file(wal);
  const std::uint64_t records = st.pubsub().store_stats().records_since_checkpoint;
  const auto table = table_of(st.pubsub());
  const PubSub::PruningStats pruning = st.pubsub().pruning_stats();
  ASSERT_TRUE(st.pubsub().checkpoint().ok());
  ASSERT_EQ(st.pubsub().store_stats().compactions, 2u);
  std::vector<std::uint8_t> compacted = store::read_file(snapshot);
  st.kill();

  // The kill landed before the rename: the old files are intact and half
  // of the new base sits in the temporary file.
  store::write_file_atomic(snapshot, old_snapshot, false);
  store::write_file_atomic(wal, old_wal, false);
  compacted.resize(compacted.size() / 2);
  store::write_file_atomic(snapshot + ".tmp.tmp", compacted, false);
  fs::rename(snapshot + ".tmp.tmp", snapshot + ".tmp");

  const StoreStats recovered = st.recover(table, pruning);
  EXPECT_EQ(recovered.replayed_records, records);
  EXPECT_EQ(recovered.replayed_train_checkpoints, 1u);
  EXPECT_FALSE(fs::exists(snapshot + ".tmp"));
}

TEST(PubSubOpenTest, AdoptSemantics) {
  MiniDomain dom;
  std::mt19937_64 rng(41);
  PubSub pubsub(dom.schema());  // adopt() also works in-memory

  auto missing = pubsub.adopt(SubscriptionId(123));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), ErrorCode::kNotFound);

  // A match-everything filter, so the adopted callback must fire.
  auto subscribed = pubsub.subscribe(
      Node::leaf(Predicate(dom.attr(0), Op::Ge, Value(std::int64_t{0}))));
  ASSERT_TRUE(subscribed.ok());
  SubscriptionHandle original = std::move(subscribed).value();
  const SubscriptionId id = original.id();

  // Adopt attaches a callback to the existing registration.
  Sink sink = std::make_shared<std::vector<SubscriptionId>>();
  auto adopted = pubsub.adopt(id, collector(sink));
  ASSERT_TRUE(adopted.ok());
  SubscriptionHandle handle = std::move(adopted).value();
  EXPECT_TRUE(handle.active());

  EXPECT_EQ(pubsub.publish(dom.random_event(rng)), 1u);
  EXPECT_EQ(*sink, std::vector<SubscriptionId>{id});

  // Releasing the adopted handle unsubscribes; the original claim on the
  // same registration then reports kNotFound (documented single-claim rule).
  EXPECT_TRUE(handle.release().ok());
  EXPECT_FALSE(pubsub.contains(id));
  EXPECT_EQ(original.release().code(), ErrorCode::kNotFound);
}

// The acceptance contract: a durable PubSub and an uninterrupted in-memory
// oracle are driven through one identical randomized churn + pruning +
// retraining history; the durable one crashes mid-way and must come back
// matching the oracle exactly — at 1, 2 and 8 workers — and stay exact
// through the rest of the churn.
TEST(PubSubOpenTest, RecoveryExactnessUnderRandomizedChurn) {
  MiniDomain dom(6, 24);
  std::mt19937_64 rng(53);
  TempDir dir("exact");

  Sink durable_sink = std::make_shared<std::vector<SubscriptionId>>();
  Sink oracle_sink = std::make_shared<std::vector<SubscriptionId>>();

  std::optional<PubSub> durable;
  std::vector<SubscriptionHandle> durable_live;
  auto opened = PubSub::open(store_at(dir, dom.schema()), pruning_options(2));
  ASSERT_TRUE(opened.ok());
  durable.emplace(std::move(opened).value());

  PubSub oracle(dom.schema(), pruning_options(2));
  std::vector<SubscriptionHandle> oracle_live;

  const std::vector<Event> training = dom.random_events(rng, 400);
  ASSERT_TRUE(durable->train(training).ok());
  ASSERT_TRUE(oracle.train(training).ok());

  std::vector<Event> window;  // shared retraining sample
  const auto step = [&](std::size_t i, PubSub& ps,
                        std::vector<SubscriptionHandle>& live, const Sink& sink,
                        const std::unique_ptr<Node>& tree, double u,
                        const Event& event, bool prune) {
    if (u < 0.45 || live.empty()) {
      auto handle = ps.subscribe(tree->clone(), collector(sink));
      ASSERT_TRUE(handle.ok()) << handle.status().to_string();
      live.push_back(std::move(handle).value());
    } else if (u < 0.75) {
      live.erase(live.begin() +
                 static_cast<std::ptrdiff_t>(i % live.size()));
    }
    if (prune) {
      ASSERT_TRUE(ps.prune_to_fraction(0.6).ok());
    }
    sink->clear();
    (void)ps.publish(event);
  };

  constexpr std::size_t kSteps = 300;
  constexpr std::size_t kCrashAt = 150;
  for (std::size_t i = 0; i < kSteps; ++i) {
    const auto tree = dom.random_tree(rng, 6, 0.2);
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const Event event = dom.random_event(rng);
    window.push_back(event);
    if (window.size() > 64) window.erase(window.begin());
    // Pruning runs only before the crash: afterwards the recovered queues
    // are rebuilt against the recovered trees (re-captured baselines), so
    // pruning *choices* may legitimately differ from the oracle's — the
    // contract is about match results, which stay oracle-checked below.
    const bool prune = i < kCrashAt && i % 7 == 6;
    const bool retrain = i < kCrashAt && i % 41 == 40;
    if (retrain) {
      ASSERT_TRUE(durable->train(window).ok());
      ASSERT_TRUE(oracle.train(window).ok());
      ASSERT_TRUE(durable->rescore_all().ok());
      ASSERT_TRUE(oracle.rescore_all().ok());
    }

    step(i, *durable, durable_live, durable_sink, tree, u, event, prune);
    step(i, oracle, oracle_live, oracle_sink, tree, u, event, prune);
    ASSERT_EQ(*durable_sink, *oracle_sink) << "diverged at step " << i;

    if (i == kCrashAt) {
      // Crash the durable instance. First prove recovery exactness
      // read-only at 1, 2 and 8 workers against the live oracle...
      durable.reset();
      durable_live.clear();
      const std::vector<Event> probes = dom.random_events(rng, 40);
      for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        // Claims declared before the PubSub: destruction runs in reverse,
        // so the PubSub "crashes" first and the claims turn inert instead
        // of logging unsubscribes into the store.
        std::vector<SubscriptionHandle> claims;
        auto reopened =
            PubSub::open(store_at(dir, dom.schema()), pruning_options(workers));
        ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
        PubSub recovered = std::move(reopened).value();
        ASSERT_EQ(recovered.subscription_count(), oracle.subscription_count());
        claims = adopt_all(recovered, durable_sink);
        for (const Event& e : probes) {
          oracle_sink->clear();
          (void)oracle.publish(e);
          EXPECT_EQ(probe(recovered, durable_sink, e), *oracle_sink)
              << "at " << workers << " workers";
        }
      }
      // ...then continue the churn on a recovered instance for the rest of
      // the run.
      auto continued =
          PubSub::open(store_at(dir, dom.schema()), pruning_options(2));
      ASSERT_TRUE(continued.ok());
      durable.emplace(std::move(continued).value());
      EXPECT_TRUE(durable->store_stats().recovered);
      durable_live = adopt_all(*durable, durable_sink);
      ASSERT_EQ(durable_live.size(), oracle_live.size());
    }
  }
  EXPECT_EQ(durable->subscription_count(), oracle.subscription_count());
  durable.reset();
  durable_live.clear();
}

// --- ScenarioRunner kill-and-recover -----------------------------------------

TEST(ScenarioKillRecoverTest, SoakStaysOracleExactAcrossCrashes) {
  TempDir dir("scenario");
  const auto domain = make_workload("auction");
  ScenarioConfig config = ScenarioConfig::soak(250, 100);
  config.shards = 2;
  config.check_every = 3;
  config.store_directory = dir.str();
  config.kill_recover_phases = {1, 2};  // mid-churn and mid-flash-crowd
  config.store_snapshot_every = 64;

  const ScenarioReport report = ScenarioRunner(*domain, config).run();
  EXPECT_TRUE(report.exact()) << report.total_mismatches() << " oracle mismatches";
  EXPECT_EQ(report.total_recoveries(), 2u);
  EXPECT_GT(report.phases[1].recovered_subscriptions, 0u);
  EXPECT_GT(report.total_recovery_seconds(), 0.0);

  // The maintenance of every PubSub instance the run opened counts, not
  // only the last one's: each subscription was admitted at least once and
  // each unsubscription released one.
  std::uint64_t subscribes = 0;
  std::uint64_t unsubscribes = 0;
  for (const ScenarioPhaseReport& p : report.phases) {
    subscribes += p.subscribes;
    unsubscribes += p.unsubscribes;
  }
  EXPECT_GE(report.maintenance.admissions, config.initial_subscriptions + subscribes);
  EXPECT_GE(report.maintenance.releases, unsubscribes);
}

}  // namespace
}  // namespace dbsp
