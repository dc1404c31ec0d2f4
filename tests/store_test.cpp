// Durable state store: WAL/snapshot round-trips, PubSub::open() recovery
// exactness (the crash-equivalence contract, asserted at shards {1, 8}),
// pruning accounting continuity, checkpoint truncation, statistics
// persistence, adopt() semantics, broker warm restart, and the
// ScenarioRunner kill-and-recover phase.

#include "store/state_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "api/pubsub.hpp"
#include "broker/overlay.hpp"
#include "scenario/scenario_runner.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"
#include "test_util.hpp"

namespace dbsp {
namespace {

namespace fs = std::filesystem;
using test::MiniDomain;

/// Unique scratch directory removed (with everything in it) on scope exit.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path_ = fs::temp_directory_path() /
            ("dbsp_" + tag + "_" + std::to_string(counter++));
    fs::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

PubSubOptions pruning_options(std::size_t shards) {
  PubSubOptions options;
  options.engine.shards = shards;
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
  WireWriter sub_record;
  store::encode_subscribe(SubscriptionId(3), *tree, sub_record);
  writer->append(sub_record.bytes());
  WireWriter unsub_record;
  store::encode_unsubscribe(SubscriptionId(9), unsub_record);
  writer->append(unsub_record.bytes());
  WireWriter prune_record;
  store::encode_prune(SubscriptionId(3), *tree, prune_record);
  writer->append(prune_record.bytes());
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
  WireWriter record;
  store::encode_unsubscribe(SubscriptionId(5), record);
  writer->append(record.bytes());
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
  data.subs.push_back({SubscriptionId(2), 5, 1, t1.get()});
  data.subs.push_back({SubscriptionId(11), 9, 0, t2.get()});
  store::write_snapshot(path, 6, data, false);

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

  // Recovery must reproduce matching at *any* shard count: the store holds
  // the table, sharding is runtime layout (match results are shard-count
  // invariant by the engine's contract).
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    auto reopened = PubSub::open(store_at(dir, dom.schema()),
                                 pruning_options(shards));
    ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
    pubsub.emplace(std::move(reopened).value());
    EXPECT_TRUE(pubsub->store_stats().recovered);
    EXPECT_GT(pubsub->store_stats().replayed_records, 0u);
    EXPECT_EQ(pubsub->subscription_count(), live_before);
    EXPECT_EQ(pubsub->shard_count(), shards);

    live = adopt_all(*pubsub, sink);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(probe(*pubsub, sink, probes[i]), matched_before[i])
          << "probe " << i << " at " << shards << " shards";
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
    WireWriter record;
    store::encode_unsubscribe(SubscriptionId(3), record);
    stale->append(record.bytes());
    stale->append(record.bytes());
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
  pubsub.reset();  // crash order: the handles go after the PubSub
  live.clear();

  // The snapshot file is its header followed by exactly the body it frames.
  const std::string snapshot = (dir.path() / "snapshot.dbsp").string();
  const std::vector<std::uint8_t> bytes = store::read_file(snapshot);
  WireWriter header;
  encode_wire_header(header);
  header.put_u8(static_cast<std::uint8_t>(store::FileKind::kSnapshot));
  header.put_u64(0);  // body length
  header.put_u32(0);  // body CRC
  ASSERT_GT(bytes.size(), header.size());
  WireReader in(bytes);
  (void)decode_wire_header(in);
  EXPECT_EQ(in.get_u8(), static_cast<std::uint8_t>(store::FileKind::kSnapshot));
  const std::uint64_t body_len = in.get_u64();
  EXPECT_EQ(fs::file_size(snapshot), header.size() + body_len);

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
// matching the oracle exactly — at 1 and at 8 shards — and stay exact
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
      // read-only at 1 and 8 shards against the live oracle...
      durable.reset();
      durable_live.clear();
      const std::vector<Event> probes = dom.random_events(rng, 40);
      for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
        // Claims declared before the PubSub: destruction runs in reverse,
        // so the PubSub "crashes" first and the claims turn inert instead
        // of logging unsubscribes into the store.
        std::vector<SubscriptionHandle> claims;
        auto reopened =
            PubSub::open(store_at(dir, dom.schema()), pruning_options(shards));
        ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
        PubSub recovered = std::move(reopened).value();
        ASSERT_EQ(recovered.subscription_count(), oracle.subscription_count());
        claims = adopt_all(recovered, durable_sink);
        for (const Event& e : probes) {
          oracle_sink->clear();
          (void)oracle.publish(e);
          EXPECT_EQ(probe(recovered, durable_sink, e), *oracle_sink)
              << "at " << shards << " shards";
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

// --- Broker warm restart -----------------------------------------------------

TEST(BrokerWarmRestartTest, RestoredTableReproducesMatching) {
  MiniDomain dom;
  std::mt19937_64 rng(61);
  Overlay overlay(dom.schema(), 3, Overlay::line(3));

  for (std::uint32_t i = 0; i < 40; ++i) {
    overlay.subscribe(BrokerId(i % 3), ClientId(i), SubscriptionId(i),
                      dom.random_tree(rng, 5, 0.2));
  }
  Broker& original = overlay.broker(BrokerId(1));

  WireWriter saved;
  original.save_table(saved);

  // A replacement broker at the same overlay position, fed only the saved
  // bytes — no re-flooding through the network.
  SimulatedNetwork isolated(3);
  Broker restarted(BrokerId(1), dom.schema(), isolated);
  WireReader reader(saved.bytes());
  restarted.restore_table(reader);
  EXPECT_TRUE(reader.exhausted());

  EXPECT_EQ(restarted.table().size(), original.table().size());
  EXPECT_EQ(restarted.table().local_count(), original.table().local_count());
  for (const Event& e : dom.random_events(rng, 50)) {
    std::vector<SubscriptionId> a;
    std::vector<SubscriptionId> b;
    original.engine().match(e, a);
    restarted.engine().match(e, b);
    EXPECT_EQ(a, b);
  }

  // Restoring into a non-empty broker is a caller bug.
  WireReader again(saved.bytes());
  EXPECT_THROW(restarted.restore_table(again), std::logic_error);
}

TEST(BrokerWarmRestartTest, RestoredAggregatedTableRejoinsTheAggregator) {
  MiniDomain dom;
  std::mt19937_64 rng(62);
  Overlay overlay(dom.schema(), 3, Overlay::line(3));
  overlay.enable_aggregation();
  for (std::uint32_t i = 0; i < 60; ++i) {
    overlay.subscribe(BrokerId(i % 3), ClientId(i), SubscriptionId(i),
                      dom.random_tree(rng, 5, 0.2));
  }
  Broker& original = overlay.broker(BrokerId(1));
  WireWriter saved;
  original.save_table(saved);

  SimulatedNetwork isolated(3);
  Broker restarted(BrokerId(1), dom.schema(), isolated);
  restarted.enable_aggregation();
  WireReader reader(saved.bytes());
  restarted.restore_table(reader);

  // Restore joins the entries in id order, the order they arrived in, so
  // the subgroups come out identical.
  const agg::SubscriptionAggregator& before = *original.aggregation();
  const agg::SubscriptionAggregator& after = *restarted.aggregation();
  EXPECT_EQ(after.subscription_count(), 20u);
  EXPECT_EQ(after.subgroup_count(), before.subgroup_count());
  EXPECT_EQ(after.advertised_bytes(), before.advertised_bytes());
  restarted.unsubscribe_local(SubscriptionId(1));
  EXPECT_FALSE(after.contains(SubscriptionId(1)));
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
}

}  // namespace
}  // namespace dbsp
