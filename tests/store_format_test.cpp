// The durable store's on-disk format: the slice-by-8 CRC-32 against a
// bitwise reference, golden snapshot and WAL files, and checkpoints (a
// segment appended after the base, or a compaction folding the segments
// into a new base) against a full encode. The files under
// tests/data/store_golden were written by earlier builds of the store:
// the *_v2 snapshots and both WALs by the current format, which must write
// them byte for byte; the unsuffixed snapshots by format version 1, which
// must still read and recover. A change here is a format change: it needs
// a kSnapshotFormatVersion bump (kWireFormatVersion for the WAL) and new
// golden files.

#include "store/state_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "api/pubsub.hpp"
#include "core/candidates.hpp"
#include "selectivity/stats.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"
#include "test_util.hpp"

namespace dbsp {
namespace {

namespace fs = std::filesystem;
using test::TempDir;

/// CRC-32 one bit at a time, straight from the definition (reflected
/// IEEE polynomial, all-ones initial value and final xor).
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(StoreCrcTest, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(store::crc32(std::span(reinterpret_cast<const std::uint8_t*>(check.data()),
                                   check.size())),
            0xCBF43926u);
  EXPECT_EQ(store::crc32({}), 0u);
}

TEST(StoreCrcTest, MatchesTheBitwiseReferenceAtEveryOffsetAndLength) {
  // Offsets 0-8 put the eight-byte steps at every alignment; lengths 0-300
  // cover the byte tail of every size around them.
  const std::vector<std::uint8_t> bytes = random_bytes(8 + 300, 11);
  int mismatches = 0;
  for (std::size_t offset = 0; offset <= 8; ++offset) {
    for (std::size_t length = 0; length <= 300; ++length) {
      const std::span<const std::uint8_t> part(bytes.data() + offset, length);
      if (store::crc32(part) != crc32_bitwise(part)) {
        ADD_FAILURE() << "offset " << offset << ", length " << length;
        if (++mismatches > 10) return;
      }
    }
  }
}

TEST(StoreCrcTest, MatchesTheBitwiseReferenceOnFourMiB) {
  const std::vector<std::uint8_t> bytes = random_bytes(std::size_t{4} << 20, 12);
  EXPECT_EQ(store::crc32(bytes), crc32_bitwise(bytes));
}

// --- Golden files ------------------------------------------------------------

/// The fixed schema of the golden files.
Schema golden_schema() {
  Schema s;
  s.add_attribute("sym", ValueType::String);
  s.add_attribute("price", ValueType::Double);
  s.add_attribute("volume", ValueType::Int);
  s.add_attribute("open", ValueType::Bool);
  return s;
}

constexpr AttributeId kSym(0);
constexpr AttributeId kPrice(1);
constexpr AttributeId kVolume(2);
constexpr AttributeId kOpen(3);

template <class... Children>
std::vector<std::unique_ptr<Node>> nodes(Children... children) {
  std::vector<std::unique_ptr<Node>> out;
  (out.push_back(std::move(children)), ...);
  return out;
}

/// Subscription 1 as registered: Between, Gt, In and Eq leaves over all
/// four value types, a Not, and an Or under an And. With trees 4 and 7
/// the golden files hold every node kind and most operators.
std::unique_ptr<Node> golden_tree_1() {
  return Node::and_(nodes(
      Node::leaf(Predicate(kPrice, Value(10.5), Value(20.0))),
      Node::or_(nodes(Node::leaf(Predicate(kVolume, Op::Gt, Value(std::int64_t{5}))),
                      Node::leaf(Predicate(kSym, {Value("ab"), Value("cd")})))),
      Node::not_(Node::leaf(Predicate(kOpen, Op::Eq, Value(true))))));
}

/// Subscription 1 after one pruning: its Not dropped.
std::unique_ptr<Node> golden_tree_1_pruned() {
  return Node::and_(nodes(
      Node::leaf(Predicate(kPrice, Value(10.5), Value(20.0))),
      Node::or_(nodes(Node::leaf(Predicate(kVolume, Op::Gt, Value(std::int64_t{5}))),
                      Node::leaf(Predicate(kSym, {Value("ab"), Value("cd")}))))));
}

std::unique_ptr<Node> golden_tree_4() {
  return Node::or_(nodes(Node::leaf(Predicate(kSym, Op::Prefix, Value("x"))),
                         Node::leaf(Predicate(kPrice, Op::Le, Value(-2.5)))));
}

std::unique_ptr<Node> golden_tree_7() {
  return Node::and_(nodes(Node::leaf(Predicate(kVolume, Op::Ne, Value(std::int64_t{-7}))),
                          Node::leaf(Predicate(kSym, Op::Contains, Value("q'z")))));
}

/// Statistics trained on six fixed events.
EventStats golden_stats(const Schema& schema) {
  EventStats stats(schema);
  for (int i = 0; i < 6; ++i) {
    Event e;
    e.set(kSym, Value(i % 2 == 0 ? "ab" : "xy"));
    e.set(kPrice, Value(1.25 * i - 2.0));
    if (i % 3 != 0) e.set(kVolume, Value(std::int64_t{i * 11}));
    e.set(kOpen, Value(i < 4));
    stats.observe(e);
  }
  stats.finalize();
  return stats;
}

/// The store's life that the golden files capture: a fresh store, then
/// subscribes of 1, 4 and 7, a pruning of 1, an unsubscribe of 4 and a
/// training, all in the WAL; then a checkpoint of the resulting table.
struct GoldenFiles {
  std::vector<std::uint8_t> fresh_snapshot;  ///< epoch 0, written by open()
  std::vector<std::uint8_t> wal;             ///< epoch 0, six records
  std::vector<std::uint8_t> snapshot;        ///< epoch 1, after checkpoint()
  std::vector<std::uint8_t> checkpoint_wal;  ///< epoch 1, epoch record only
};

/// A second golden life, with segments: subscribes of 1..12 (trees 1, 4
/// and 7 in turn) and a training, checkpointed into the base; then a
/// pruning of 1 and an unsubscribe of 4, checkpointed as one segment; a
/// subscribe of 13, checkpointed as another; and an unsubscribe of 7 left
/// in the WAL.
struct SegmentedGoldenFiles {
  std::vector<std::uint8_t> snapshot;  ///< epoch-1 base + segments 2 and 3
  std::vector<std::uint8_t> wal;       ///< epoch 3, one record
};

/// The tree golden subscription `id` of the segmented life has before any
/// pruning: trees 1, 4 and 7 in turn.
std::unique_ptr<Node> segmented_golden_tree(std::uint32_t id) {
  switch (id % 3) {
    case 1: return golden_tree_1();
    case 2: return golden_tree_4();
    default: return golden_tree_7();
  }
}

SegmentedGoldenFiles write_segmented_golden_files(const std::string& directory) {
  const Schema schema = golden_schema();
  StoreOptions options;
  options.directory = directory;
  options.schema = schema;
  options.snapshot_every = 1 << 20;
  auto opened = store::StateStore::open(options);
  store::StateStore& st = *opened.first;
  std::map<std::uint32_t, std::unique_ptr<Node>> table;
  std::map<std::uint32_t, std::size_t> performed;
  const EventStats stats = golden_stats(schema);
  store::SnapshotData data;
  data.schema = &schema;
  data.stats = &stats;
  data.lookup = [&](SubscriptionId id) -> std::optional<store::SnapshotRecord> {
    const auto it = table.find(id.value());
    if (it == table.end()) return std::nullopt;
    return store::SnapshotRecord{internal_prunings(*segmented_golden_tree(id.value())),
                                 performed[id.value()], it->second.get()};
  };
  for (std::uint32_t id = 1; id <= 12; ++id) {
    table[id] = segmented_golden_tree(id);
    st.append_subscribe(SubscriptionId(id), *table[id]);
  }
  st.append_train(stats);
  data.next_id = 13;
  data.next_seq = 5;
  st.checkpoint(data);

  table[1] = golden_tree_1_pruned();
  performed[1] = 1;
  st.append_prune(SubscriptionId(1), *table[1]);
  st.append_unsubscribe(SubscriptionId(4));
  table.erase(4);
  data.next_seq = 9;
  st.checkpoint(data);

  table[13] = segmented_golden_tree(13);
  st.append_subscribe(SubscriptionId(13), *table[13]);
  data.next_id = 14;
  st.checkpoint(data);
  st.append_unsubscribe(SubscriptionId(7));
  EXPECT_EQ(st.stats().compactions, 1u);
  EXPECT_GT(st.stats().segment_bytes, 0u);

  SegmentedGoldenFiles files;
  files.snapshot = store::read_file(directory + "/snapshot.dbsp");
  files.wal = store::read_file(directory + "/wal.dbsp");
  return files;
}

GoldenFiles write_golden_files(const std::string& directory) {
  const Schema schema = golden_schema();
  StoreOptions options;
  options.directory = directory;
  options.schema = schema;
  options.snapshot_every = 1 << 20;
  auto opened = store::StateStore::open(options);
  store::StateStore& st = *opened.first;
  const std::string snapshot_path = directory + "/snapshot.dbsp";
  const std::string wal_path = directory + "/wal.dbsp";
  GoldenFiles files;
  files.fresh_snapshot = store::read_file(snapshot_path);

  const auto t1 = golden_tree_1();
  const auto t1_pruned = golden_tree_1_pruned();
  const auto t4 = golden_tree_4();
  const auto t7 = golden_tree_7();
  const EventStats stats = golden_stats(schema);
  st.append_subscribe(SubscriptionId(1), *t1);
  st.append_subscribe(SubscriptionId(4), *t4);
  st.append_subscribe(SubscriptionId(7), *t7);
  st.append_prune(SubscriptionId(1), *t1_pruned);
  st.append_unsubscribe(SubscriptionId(4));
  st.append_train(stats);
  files.wal = store::read_file(wal_path);

  store::SnapshotData data;
  data.schema = &schema;
  data.next_id = 8;
  data.next_seq = 42;
  data.stats = &stats;
  data.lookup = [&](SubscriptionId id) -> std::optional<store::SnapshotRecord> {
    if (id == SubscriptionId(1)) {
      return store::SnapshotRecord{internal_prunings(*t1), 1, t1_pruned.get()};
    }
    if (id == SubscriptionId(7)) {
      return store::SnapshotRecord{internal_prunings(*t7), 0, t7.get()};
    }
    return std::nullopt;
  };
  st.checkpoint(data);
  files.snapshot = store::read_file(snapshot_path);
  files.checkpoint_wal = store::read_file(wal_path);
  return files;
}

std::vector<std::uint8_t> golden(const std::string& name) {
  return store::read_file(std::string(DBSP_STORE_GOLDEN_DIR) + "/" + name);
}

TEST(StoreGoldenTest, WritesTheGoldenBytes) {
  TempDir dir("write");
  const GoldenFiles files = write_golden_files(dir.str());
  EXPECT_EQ(files.fresh_snapshot, golden("fresh_snapshot_v2.dbsp"));
  EXPECT_EQ(files.wal, golden("wal.dbsp"));
  EXPECT_EQ(files.snapshot, golden("snapshot_v2.dbsp"));
  EXPECT_EQ(files.checkpoint_wal, golden("checkpoint_wal.dbsp"));
  TempDir segmented("write_segmented");
  const SegmentedGoldenFiles more = write_segmented_golden_files(segmented.str());
  EXPECT_EQ(more.snapshot, golden("segments_v2.dbsp"));
  EXPECT_EQ(more.wal, golden("segments_wal.dbsp"));
}

TEST(StoreGoldenTest, VersionOneReadersRefuseTheCurrentSnapshot) {
  // A reader of format version 1 decodes the header with the wire codec's
  // check, which refuses any version above kWireFormatVersion.
  ASSERT_EQ(kWireFormatVersion, 1u);
  for (const char* name : {"fresh_snapshot_v2.dbsp", "snapshot_v2.dbsp", "segments_v2.dbsp"}) {
    const std::vector<std::uint8_t> bytes = golden(name);
    WireReader in(bytes);
    EXPECT_THROW((void)decode_wire_header(in), WireError) << name;
  }
  for (const char* name : {"fresh_snapshot.dbsp", "snapshot.dbsp"}) {
    const std::vector<std::uint8_t> bytes = golden(name);
    WireReader in(bytes);
    EXPECT_EQ(decode_wire_header(in), 1u) << name;
  }
}

TEST(StoreGoldenTest, GoldenSnapshotsReadBack) {
  // The version-1 file and its version-2 rewrite hold the same table.
  for (const char* name : {"snapshot.dbsp", "snapshot_v2.dbsp"}) {
    SCOPED_TRACE(name);
    TempDir dir("read");
    fs::create_directories(dir.str());
    const std::string path = dir.str() + "/snapshot.dbsp";
    store::write_file_atomic(path, golden(name), false);
    const store::LoadedSnapshot snap = store::read_snapshot(path);
    EXPECT_EQ(snap.version, std::string(name) == "snapshot.dbsp" ? 1u : 2u);
    EXPECT_EQ(snap.epoch, 1u);
    EXPECT_EQ(snap.next_id, 8u);
    EXPECT_EQ(snap.next_seq, 42u);
    EXPECT_TRUE(store::schemas_equal(snap.schema, golden_schema()));
    ASSERT_EQ(snap.subs.size(), 2u);
    EXPECT_EQ(snap.subs[0].id, SubscriptionId(1));
    EXPECT_EQ(snap.subs[0].capacity, internal_prunings(*golden_tree_1()));
    EXPECT_EQ(snap.subs[0].performed, 1u);
    EXPECT_TRUE(snap.subs[0].tree->equals(*golden_tree_1_pruned()));
    EXPECT_EQ(snap.subs[1].id, SubscriptionId(7));
    EXPECT_EQ(snap.subs[1].performed, 0u);
    EXPECT_TRUE(snap.subs[1].tree->equals(*golden_tree_7()));
    WireWriter stats;
    golden_stats(golden_schema()).save(stats);
    EXPECT_EQ(snap.stats, stats.bytes());
    EXPECT_TRUE(snap.segments.entries.empty());
  }
}

/// Opens the store files `snapshot` + `wal` with pruning on and checks the
/// recovered table: subscriptions 1 (pruned once) and 7, trained.
void expect_golden_table(const std::string& snapshot, const std::string& wal,
                         std::uint64_t replayed) {
  TempDir dir("recover_" + snapshot);
  fs::create_directories(dir.str());
  store::write_file_atomic(dir.str() + "/snapshot.dbsp", golden(snapshot), false);
  store::write_file_atomic(dir.str() + "/wal.dbsp", golden(wal), false);
  StoreOptions options;
  options.directory = dir.str();
  options.schema = golden_schema();
  PubSubOptions pubsub_options;
  pubsub_options.pruning = true;
  auto opened = PubSub::open(std::move(options), pubsub_options);
  ASSERT_TRUE(opened.ok()) << opened.status().to_string();
  const PubSub pubsub = std::move(opened).value();
  EXPECT_EQ(pubsub.subscription_ids(),
            (std::vector<SubscriptionId>{SubscriptionId(1), SubscriptionId(7)}));
  const Schema schema = golden_schema();
  EXPECT_EQ(pubsub.subscription_text(SubscriptionId(1)).value(),
            golden_tree_1_pruned()->to_string(schema));
  EXPECT_EQ(pubsub.subscription_text(SubscriptionId(7)).value(),
            golden_tree_7()->to_string(schema));
  const PubSub::PruningStats pruning = pubsub.pruning_stats();
  EXPECT_EQ(pruning.total_possible,
            internal_prunings(*golden_tree_1()) + internal_prunings(*golden_tree_7()));
  EXPECT_EQ(pruning.performed, 1u);
  EXPECT_EQ(pubsub.store_stats().replayed_records, replayed);
}

TEST(StoreGoldenTest, GoldenWalRecovers) {
  expect_golden_table("fresh_snapshot.dbsp", "wal.dbsp", 6);
  expect_golden_table("fresh_snapshot_v2.dbsp", "wal.dbsp", 6);
}

TEST(StoreGoldenTest, GoldenSnapshotRecovers) {
  expect_golden_table("snapshot.dbsp", "checkpoint_wal.dbsp", 0);
  expect_golden_table("snapshot_v2.dbsp", "checkpoint_wal.dbsp", 0);
}

TEST(StoreGoldenTest, GoldenSegmentsRecover) {
  TempDir dir("recover_segments");
  fs::create_directories(dir.str());
  store::write_file_atomic(dir.str() + "/snapshot.dbsp", golden("segments_v2.dbsp"), false);
  store::write_file_atomic(dir.str() + "/wal.dbsp", golden("segments_wal.dbsp"), false);
  StoreOptions options;
  options.directory = dir.str();
  PubSubOptions pubsub_options;
  pubsub_options.pruning = true;
  const PubSub pubsub = PubSub::open(std::move(options), pubsub_options).value();
  // Base 1..12; segment 2 prunes 1 and drops 4; segment 3 adds 13; the WAL
  // drops 7.
  std::vector<SubscriptionId> ids;
  std::size_t capacity = 0;
  const Schema schema = golden_schema();
  for (std::uint32_t id = 1; id <= 13; ++id) {
    if (id == 4 || id == 7) continue;
    ids.emplace_back(id);
    capacity += internal_prunings(*segmented_golden_tree(id));
    const auto tree = id == 1 ? golden_tree_1_pruned() : segmented_golden_tree(id);
    EXPECT_EQ(pubsub.subscription_text(SubscriptionId(id)).value(), tree->to_string(schema))
        << id;
  }
  EXPECT_EQ(pubsub.subscription_ids(), ids);
  EXPECT_EQ(pubsub.pruning_stats().total_possible, capacity);
  EXPECT_EQ(pubsub.pruning_stats().performed, 1u);
  const StoreStats stats = pubsub.store_stats();
  EXPECT_EQ(stats.epoch, 3u);
  EXPECT_EQ(stats.replayed_records, 1u);
  EXPECT_EQ(stats.snapshot_subscriptions, 12u);
  const store::LoadedSnapshot snap = store::read_snapshot(dir.str() + "/snapshot.dbsp");
  EXPECT_EQ(stats.segment_bytes, golden("segments_v2.dbsp").size() -
                                     store::kSnapshotHeaderBytes - snap.image.body_bytes());
  EXPECT_EQ(snap.next_id, 14u);
  EXPECT_EQ(snap.next_seq, 9u);
}

TEST(StoreGoldenTest, VersionOneStoreCompactsAtItsFirstCheckpoint) {
  // A version-1 file cannot take segments, so the first checkpoint of a
  // store opened on one rewrites it in the current version.
  TempDir dir("upgrade");
  fs::create_directories(dir.str());
  const std::string snapshot = dir.str() + "/snapshot.dbsp";
  store::write_file_atomic(snapshot, golden("snapshot.dbsp"), false);
  store::write_file_atomic(dir.str() + "/wal.dbsp", golden("checkpoint_wal.dbsp"), false);
  StoreOptions options;
  options.directory = dir.str();
  PubSubOptions pubsub_options;
  pubsub_options.pruning = true;
  std::string text;
  {
    std::vector<SubscriptionHandle> live;  // before the PubSub: inert at exit
    PubSub pubsub = PubSub::open(options, pubsub_options).value();
    live.push_back(pubsub.subscribe("volume > 3").value());
    ASSERT_TRUE(pubsub.checkpoint().ok());
    EXPECT_EQ(pubsub.store_stats().compactions, 1u);
    EXPECT_EQ(pubsub.store_stats().segment_bytes, 0u);
    text = pubsub.subscription_text(live.back().id()).value();
  }
  EXPECT_EQ(store::read_file(snapshot)[1], store::kSnapshotFormatVersion);
  const PubSub reopened = PubSub::open(options, pubsub_options).value();
  ASSERT_EQ(reopened.subscription_count(), 3u);
  EXPECT_EQ(reopened.subscription_text(SubscriptionId(8)).value(), text);
}

// --- Checkpoints of a live table ---------------------------------------------

TEST(StoreCheckpointTest, AutoCheckpointsUnderChurnAndPruningRecoverTheLiveTable) {
  // Auto-checkpoints every 16 records interleave with subscribes,
  // unsubscribes and prunings, each built from the pruning engine's table
  // in one pass. After a final checkpoint the store recovers from the
  // snapshot alone, which must hold the live trees and accounting.
  TempDir dir("cache_pubsub");
  test::MiniDomain dom(6, 24);
  std::mt19937_64 rng(29);
  StoreOptions options;
  options.directory = dir.str();
  options.schema = dom.schema();
  options.snapshot_every = 16;
  PubSubOptions pubsub_options;
  pubsub_options.pruning = true;
  std::optional<PubSub> pubsub(PubSub::open(options, pubsub_options).value());
  ASSERT_TRUE(pubsub->train(dom.random_events(rng, 300)).ok());
  std::vector<SubscriptionHandle> live;
  for (int i = 0; i < 400; ++i) {
    live.push_back(pubsub->subscribe(dom.random_tree(rng, 5, 0.2)).value());
    if (i % 3 == 2) live.erase(live.begin() + static_cast<std::ptrdiff_t>(rng() % live.size()));
    if (i % 25 == 24) {
      ASSERT_TRUE(pubsub->prune_to_fraction(0.1 + 0.002 * i).ok());
    }
  }
  ASSERT_GT(pubsub->store_stats().snapshots_written, 20u);
  ASSERT_TRUE(pubsub->checkpoint().ok());
  std::map<std::uint32_t, std::string> expected;
  for (const SubscriptionId id : pubsub->subscription_ids()) {
    expected[id.value()] = pubsub->subscription_text(id).value();
  }
  const PubSub::PruningStats pruning = pubsub->pruning_stats();
  ASSERT_GT(pruning.performed, 0u);
  pubsub.reset();  // crash: the handles turn inert
  live.clear();

  options.schema = Schema();
  const PubSub recovered = PubSub::open(options, pubsub_options).value();
  EXPECT_EQ(recovered.store_stats().replayed_records, 0u);
  std::map<std::uint32_t, std::string> got;
  for (const SubscriptionId id : recovered.subscription_ids()) {
    got[id.value()] = recovered.subscription_text(id).value();
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ(recovered.pruning_stats().total_possible, pruning.total_possible);
  EXPECT_EQ(recovered.pruning_stats().performed, pruning.performed);
}

// --- Snapshots built from the previous one ----------------------------------

/// What the store's owner holds for one live id.
struct ModelSub {
  std::size_t capacity = 0;
  std::size_t performed = 0;
  std::unique_ptr<Node> tree;
};

using ModelTable = std::map<SubscriptionId::value_type, ModelSub>;

/// The snapshot file a full encode of `table` makes: header, counters and
/// schema, every live record in id order, statistics (`stats`, the bytes
/// EventStats::save wrote; empty = untrained), CRC. With `accounting` off
/// every record carries zeros, as a facade with pruning off reports them.
std::vector<std::uint8_t> reference_snapshot(std::uint64_t epoch, std::uint64_t next_id,
                                             std::uint64_t next_seq, const Schema& schema,
                                             const ModelTable& table, bool accounting,
                                             const std::vector<std::uint8_t>& stats) {
  WireWriter body;
  body.put_u64(epoch);
  body.put_u64(next_id);
  body.put_u64(next_seq);
  store::encode_schema(schema, body);
  body.put_u64(table.size());
  for (const auto& [id, sub] : table) {
    body.put_u32(id);
    body.put_u64(accounting ? sub.capacity : 0);
    body.put_u64(accounting ? sub.performed : 0);
    encode_tree(*sub.tree, body);
  }
  body.put_u8(stats.empty() ? 0 : 1);
  if (!stats.empty()) {
    body.put_u64(stats.size());
    body.put_bytes(stats);
  }
  WireWriter file;
  file.put_u8(kWireMagic);
  file.put_u8(store::kSnapshotFormatVersion);
  file.put_u8(static_cast<std::uint8_t>(store::FileKind::kSnapshot));
  file.put_u64(body.size());
  file.put_u32(store::crc32(body.bytes()));
  file.put_bytes(body.bytes());
  return file.bytes();
}

/// The full encode of the table the snapshot file at `path` holds, its
/// base and segments applied.
std::vector<std::uint8_t> decoded_reference(const std::string& path) {
  const store::LoadedSnapshot snap = store::read_snapshot(path);
  ModelTable table;
  for (const store::RecoveredSub& sub : snap.subs) {
    table[sub.id.value()] = {sub.capacity, sub.performed, sub.tree->clone()};
  }
  return reference_snapshot(snap.epoch, snap.next_id, snap.next_seq, snap.schema, table,
                            /*accounting=*/true, snap.stats);
}

/// Drives a StateStore through a random history against a model table:
/// subscribes, unsubscribes (often of an id just pruned), prunings (often
/// two of one id in a row), trainings, re-opens between checkpoints, and
/// now and then a change to every record's accounting. After every
/// checkpoint the snapshot file, base and segments applied, must decode to
/// the model's full encode; after every compaction the file must equal it
/// byte for byte. The lookup must have been asked only about ids the WAL
/// named.
void check_random_history(bool accounting, std::uint64_t seed) {
  TempDir dir(std::string("delta_") + (accounting ? "on" : "off"));
  const test::MiniDomain dom(6, 24);
  std::mt19937_64 rng(seed);
  StoreOptions options;
  options.directory = dir.str();
  options.schema = dom.schema();
  options.snapshot_every = 1 << 20;
  std::unique_ptr<store::StateStore> st = store::StateStore::open(options).first;
  const std::string path = dir.str() + "/snapshot.dbsp";

  ModelTable table;
  SubscriptionId::value_type next_id = 0;
  std::uint64_t next_seq = 0;
  std::optional<EventStats> stats;
  // The id the last pruning step hit, until it is unsubscribed.
  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  std::uint64_t just_pruned = kNone;
  bool all_marked = false;  // mark_all_dirty() since the last checkpoint
  std::size_t lookups = 0;
  int compactions = 0;
  int segments = 0;
  store::SnapshotData data;
  data.schema = &dom.schema();
  data.lookup = [&](SubscriptionId id) -> std::optional<store::SnapshotRecord> {
    ++lookups;
    const auto it = table.find(id.value());
    if (it == table.end()) return std::nullopt;
    const ModelSub& sub = it->second;
    return accounting ? store::SnapshotRecord{sub.capacity, sub.performed, sub.tree.get()}
                      : store::SnapshotRecord{0, 0, sub.tree.get()};
  };
  const auto random_live = [&] {
    auto it = table.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng() % table.size()));
    return it;
  };
  const auto checkpoint = [&] {
    data.next_id = next_id;
    data.next_seq = next_seq;
    data.stats = stats ? &*stats : nullptr;
    const std::uint64_t logged = st->stats().records_since_checkpoint;
    const std::uint64_t encoded_before = st->stats().snapshot_records_encoded;
    const std::uint64_t compacted_before = st->stats().compactions;
    lookups = 0;
    st->checkpoint(data);
    if (!all_marked) {
      EXPECT_LE(lookups, logged);
      EXPECT_LE(st->stats().snapshot_records_encoded - encoded_before, logged);
    }
    all_marked = false;
    WireWriter saved;
    if (stats) stats->save(saved);
    const std::vector<std::uint8_t> reference = reference_snapshot(
        st->epoch(), next_id, next_seq, dom.schema(), table, accounting, saved.bytes());
    ASSERT_EQ(decoded_reference(path), reference) << "epoch " << st->epoch();
    if (st->stats().compactions > compacted_before) {
      ++compactions;
      ASSERT_EQ(store::read_file(path), reference) << "epoch " << st->epoch();
      ASSERT_EQ(st->stats().segment_bytes, 0u);
    } else {
      ++segments;
      ASSERT_EQ(fs::file_size(path),
                store::kSnapshotHeaderBytes +
                    store::read_snapshot(path).image.body_bytes() + st->stats().segment_bytes);
    }
  };

  int checkpoints = 0;
  int reopens = 0;
  for (int step = 0; step < 1500; ++step) {
    const auto op = rng() % 100;
    if (op < 35 || table.empty()) {
      auto tree = dom.random_tree(rng, 1 + rng() % 6, 0.2);
      st->append_subscribe(SubscriptionId(next_id), *tree);
      table[next_id] = {internal_prunings(*tree), 0, std::move(tree)};
      ++next_id;
    } else if (op < 55) {
      const auto it = just_pruned != kNone && rng() % 2 == 0
                          ? table.find(static_cast<SubscriptionId::value_type>(just_pruned))
                          : random_live();
      st->append_unsubscribe(SubscriptionId(it->first));
      table.erase(it);
      just_pruned = kNone;
    } else if (op < 75) {
      const auto it = random_live();
      for (std::uint64_t times = 1 + rng() % 2; times > 0; --times) {
        it->second.tree = dom.random_tree(rng, 1 + rng() % 4, 0.2);
        ++it->second.performed;
        st->append_prune(SubscriptionId(it->first), *it->second.tree);
      }
      just_pruned = it->first;
    } else if (op < 78) {
      stats.emplace(dom.schema());
      for (const Event& e : dom.random_events(rng, 50)) stats->observe(e);
      stats->finalize();
      st->append_train(*stats);
    } else if (op < 88) {
      next_seq += rng() % 40;  // publishes log nothing
    } else if (op < 96) {
      checkpoint();
      if (testing::Test::HasFatalFailure()) return;
      ++checkpoints;
    } else if (op < 99) {
      st.reset();
      auto reopened = store::StateStore::open(options);
      st = std::move(reopened.first);
      const store::RecoveredState& rec = reopened.second;
      ASSERT_EQ(rec.subs.size(), table.size());
      for (const store::RecoveredSub& sub : rec.subs) {
        const ModelSub& want = table.at(sub.id.value());
        EXPECT_TRUE(sub.tree->equals(*want.tree));
        if (accounting) {
          EXPECT_EQ(sub.capacity, want.capacity);
          EXPECT_EQ(sub.performed, want.performed);
        }
      }
      just_pruned = kNone;
      ++reopens;
    } else {
      // A change to every record no WAL record carries, as
      // PubSub::set_prune_dimension's re-capture of the accounting. Only a
      // checkpoint makes it durable, so one follows at once.
      for (auto& [id, sub] : table) {
        sub.capacity = internal_prunings(*sub.tree);
        sub.performed = 0;
      }
      st->mark_all_dirty();
      all_marked = true;
      checkpoint();
      if (testing::Test::HasFatalFailure()) return;
    }
  }
  checkpoint();
  EXPECT_GT(checkpoints, 50);
  EXPECT_GT(reopens, 10);
  EXPECT_GT(segments, 30);
  EXPECT_GT(compactions, 10);
}

TEST(StoreDeltaCheckpointTest, EqualsAFullEncodeWithAccounting) {
  check_random_history(/*accounting=*/true, 71);
}

TEST(StoreDeltaCheckpointTest, EqualsAFullEncodeWithoutAccounting) {
  check_random_history(/*accounting=*/false, 72);
}

}  // namespace
}  // namespace dbsp
