// Corrupt-store fuzzing: truncate and bit-flip the WAL and snapshot files
// (the snapshot's segments on their own too) at random offsets and assert
// PubSub::open() always returns a clean Status (or a smaller-but-consistent
// store when the damage lands on a record boundary) — never a crash, hang,
// or out-of-bounds read. The CI sanitizer job runs this suite under
// ASan/UBSan, which is where the "never UB on corrupt input" contract is
// actually proven. A compaction copies records from the base and segments
// it holds in memory, never from disk, so damage to the file is either
// replaced by the compaction or found at the next open().

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "api/pubsub.hpp"
#include "store/format.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"
#include "test_util.hpp"

namespace dbsp {
namespace {

namespace fs = std::filesystem;
using test::MiniDomain;

class CorruptionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    pristine_ = fs::temp_directory_path() / "dbsp_corrupt_pristine";
    scratch_ = fs::temp_directory_path() / "dbsp_corrupt_scratch";
    fs::remove_all(pristine_);
    fs::remove_all(scratch_);

    // A store with real history in both files: a checkpointed snapshot
    // (subscriptions + trained stats + pruning) and a non-empty WAL tail
    // (more churn and prunings after the checkpoint).
    MiniDomain dom;
    std::mt19937_64 rng(97);
    StoreOptions store;
    store.directory = pristine_.string();
    store.schema = dom.schema();
    store.snapshot_every = 1 << 20;  // manual checkpoints only
    PubSubOptions options;
    options.engine.shards = 2;
    options.pruning = true;
    auto opened = PubSub::open(std::move(store), options);
    ASSERT_TRUE(opened.ok()) << opened.status().to_string();

    std::optional<PubSub> pubsub(std::move(opened).value());
    std::vector<SubscriptionHandle> live;
    ASSERT_TRUE(pubsub->train(dom.random_events(rng, 300)).ok());
    for (int i = 0; i < 30; ++i) {
      auto handle = pubsub->subscribe(dom.random_tree(rng, 6, 0.2), {});
      ASSERT_TRUE(handle.ok());
      live.push_back(std::move(handle).value());
    }
    (void)pubsub->prune_to_fraction(0.5).value();
    ASSERT_TRUE(pubsub->checkpoint().ok());  // the base
    // Two routine checkpoints, each one segment after the base.
    for (int round = 0; round < 2; ++round) {
      for (int i = 0; i < 2; ++i) {
        auto handle = pubsub->subscribe(dom.random_tree(rng, 4, 0.2), {});
        ASSERT_TRUE(handle.ok());
        live.push_back(std::move(handle).value());
      }
      live.erase(live.begin() + round);
      ASSERT_TRUE(pubsub->checkpoint().ok());
    }
    ASSERT_EQ(pubsub->store_stats().compactions, 1u);
    segment_bytes_ = pubsub->store_stats().segment_bytes;
    ASSERT_GT(segment_bytes_, 0u);
    for (int i = 0; i < 20; ++i) {
      auto handle = pubsub->subscribe(dom.random_tree(rng, 5, 0.2), {});
      ASSERT_TRUE(handle.ok());
      live.push_back(std::move(handle).value());
    }
    for (int i = 0; i < 8; ++i) {
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
    (void)pubsub->prune_to_fraction(0.6).value();
    // Upper bound for sanity checks below: truncating WAL unsubscribes can
    // legitimately resurrect registrations, but nothing can exceed every
    // subscribe ever logged (30 in the base, 4 in segments, 20 in the WAL
    // tail).
    max_live_ = 54;
    pubsub.reset();  // crash-style shutdown: WAL tail stays populated
    live.clear();

    schema_ = dom.schema();
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(pristine_, ec);
    fs::remove_all(scratch_, ec);
  }

  /// Copies the pristine store into the scratch directory.
  void reset_scratch() {
    fs::remove_all(scratch_);
    fs::create_directories(scratch_);
    for (const char* name : {"snapshot.dbsp", "wal.dbsp"}) {
      fs::copy_file(pristine_ / name, scratch_ / name);
    }
  }

  /// Opens the scratch store; the one hard requirement is "no crash". When
  /// it opens cleanly (damage on a record boundary, or in the discarded
  /// WAL-tail region) the recovered table must still be usable and no
  /// larger than the pristine one.
  void open_and_check(const std::string& context) {
    StoreOptions store;
    store.directory = scratch_.string();
    store.schema = schema_;
    PubSubOptions options;
    options.pruning = true;
    auto reopened = PubSub::open(std::move(store), options);
    if (!reopened.ok()) {
      EXPECT_TRUE(reopened.status().code() == ErrorCode::kDataLoss ||
                  reopened.status().code() == ErrorCode::kIoError)
          << context << ": " << reopened.status().to_string();
      return;
    }
    PubSub recovered = std::move(reopened).value();
    EXPECT_LE(recovered.subscription_count(), max_live_) << context;
    MiniDomain dom;  // identical construction = identical schema
    std::mt19937_64 rng(5);
    for (int i = 0; i < 5; ++i) {
      (void)recovered.publish(dom.random_event(rng));
    }
  }

  /// What a clean recovery of the scratch store yields: its table (id ->
  /// expression text) and pruning accounting.
  struct Recovered {
    std::map<SubscriptionId::value_type, std::string> table;
    std::size_t total_possible = 0;
    std::size_t performed = 0;
    bool operator==(const Recovered&) const = default;
  };

  /// Opens the scratch store, which must recover cleanly, with or without
  /// cutting a torn tail, and deliver exactly what direct tree evaluation
  /// of the recovered table says.
  Recovered recover_exact(bool torn_tail) {
    StoreOptions store;
    store.directory = scratch_.string();
    store.schema = schema_;
    PubSubOptions options;
    options.pruning = true;
    auto opened = PubSub::open(std::move(store), options);
    EXPECT_TRUE(opened.ok()) << opened.status().to_string();
    if (!opened.ok()) return {};
    PubSub pubsub = std::move(opened).value();
    EXPECT_EQ(pubsub.store_stats().recovered_torn_tail, torn_tail);
    Recovered got;
    got.total_possible = pubsub.pruning_stats().total_possible;
    got.performed = pubsub.pruning_stats().performed;
    auto sink = std::make_shared<std::vector<SubscriptionId>>();
    std::vector<SubscriptionHandle> claims;  // dropped after `pubsub`: inert
    for (const SubscriptionId id : pubsub.subscription_ids()) {
      got.table[id.value()] = pubsub.subscription_text(id).value();
      claims.push_back(pubsub.adopt(id, [sink](const Notification& n) {
                               sink->push_back(n.subscription);
                             }).value());
    }
    MiniDomain dom;  // identical construction = identical schema
    std::mt19937_64 rng(11);
    for (int i = 0; i < 50; ++i) {
      const Event event = dom.random_event(rng);
      sink->clear();
      (void)pubsub.publish(event);
      std::vector<SubscriptionId> oracle;
      for (const SubscriptionId id : pubsub.subscription_ids()) {
        if (pubsub.matches(id, event).value()) oracle.push_back(id);
      }
      std::sort(sink->begin(), sink->end());
      EXPECT_EQ(*sink, oracle) << "event " << i;
    }
    return got;
  }

  /// Appends `tail` to the scratch copy of `name`.
  void append_to(const char* name, const std::vector<std::uint8_t>& tail) {
    auto bytes = store::read_file((scratch_ / name).string());
    bytes.insert(bytes.end(), tail.begin(), tail.end());
    store::write_file_atomic((scratch_ / name).string(), bytes, false);
  }

  fs::path pristine_;
  fs::path scratch_;
  Schema schema_;
  std::size_t max_live_ = 0;
  std::uint64_t segment_bytes_ = 0;  ///< at the end of the pristine snapshot
};

TEST_F(CorruptionFixture, TruncationsNeverCrash) {
  std::mt19937_64 rng(1234);
  for (const char* name : {"wal.dbsp", "snapshot.dbsp"}) {
    const auto original =
        store::read_file((pristine_ / name).string());
    for (int trial = 0; trial < 40; ++trial) {
      reset_scratch();
      const std::size_t cut =
          std::uniform_int_distribution<std::size_t>(0, original.size())(rng);
      std::vector<std::uint8_t> bytes(original.begin(),
                                      original.begin() + static_cast<std::ptrdiff_t>(cut));
      store::write_file_atomic((scratch_ / name).string(), bytes, false);
      open_and_check(std::string(name) + " truncated to " + std::to_string(cut));
    }
  }
}

TEST_F(CorruptionFixture, BitFlipsNeverCrash) {
  std::mt19937_64 rng(4321);
  for (const char* name : {"wal.dbsp", "snapshot.dbsp"}) {
    const auto original =
        store::read_file((pristine_ / name).string());
    ASSERT_FALSE(original.empty());
    for (int trial = 0; trial < 60; ++trial) {
      reset_scratch();
      auto bytes = original;
      const std::size_t at =
          std::uniform_int_distribution<std::size_t>(0, bytes.size() - 1)(rng);
      const int bit = std::uniform_int_distribution<int>(0, 7)(rng);
      bytes[at] ^= static_cast<std::uint8_t>(1u << bit);
      store::write_file_atomic((scratch_ / name).string(), bytes, false);
      open_and_check(std::string(name) + " bit flip at " + std::to_string(at));
    }
  }
}

TEST_F(CorruptionFixture, SegmentBitFlipsAndCutsNeverCrash) {
  // Damage confined to the segments after the base: a flip in a complete
  // segment is data loss, a cut one is a torn append (whose WAL is then
  // newer than the snapshot, also data loss), never a crash.
  std::mt19937_64 rng(2468);
  const auto original = store::read_file((pristine_ / "snapshot.dbsp").string());
  const std::size_t base_end = original.size() - segment_bytes_;
  for (int trial = 0; trial < 80; ++trial) {
    reset_scratch();
    auto bytes = original;
    const std::size_t at =
        std::uniform_int_distribution<std::size_t>(base_end, bytes.size() - 1)(rng);
    if (trial % 4 == 3) {
      bytes.resize(at);
    } else {
      bytes[at] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    store::write_file_atomic((scratch_ / "snapshot.dbsp").string(), bytes, false);
    open_and_check("segment damage at " + std::to_string(at));
    if (trial % 4 != 3) {
      StoreOptions store;
      store.directory = scratch_.string();
      EXPECT_FALSE(PubSub::open(std::move(store)).ok()) << "flip at " << at;
    }
  }
}

TEST_F(CorruptionFixture, BothFilesMissingBytesSimultaneously) {
  std::mt19937_64 rng(555);
  for (int trial = 0; trial < 20; ++trial) {
    reset_scratch();
    for (const char* name : {"wal.dbsp", "snapshot.dbsp"}) {
      auto bytes = store::read_file((scratch_ / name).string());
      const std::size_t cut =
          std::uniform_int_distribution<std::size_t>(0, bytes.size())(rng);
      bytes.resize(cut);
      store::write_file_atomic((scratch_ / name).string(), bytes, false);
    }
    open_and_check("both files truncated");
  }
}

// A machine crash without fsync can leave a zero-filled range where an
// append extended the file. Zeros from a frame start to end-of-file are a
// torn tail: recovery cuts them and recovers what the pristine store does.
TEST_F(CorruptionFixture, ZeroFilledTailsAreTornTails) {
  reset_scratch();
  const Recovered pristine = recover_exact(/*torn_tail=*/false);
  ASSERT_FALSE(pristine.table.empty());
  for (const char* name : {"snapshot.dbsp", "wal.dbsp"}) {
    SCOPED_TRACE(name);
    reset_scratch();
    append_to(name, std::vector<std::uint8_t>(64, 0));
    EXPECT_EQ(recover_exact(/*torn_tail=*/true), pristine);
    // The zeros were cut: the file reads clean again.
    const std::string path = (scratch_ / name).string();
    EXPECT_FALSE(name == std::string("wal.dbsp") ? store::read_wal(path).torn_tail
                                                 : store::read_snapshot(path).torn_tail);
  }
}

// Zeros followed by any other byte are not a crash artifact but damage.
TEST_F(CorruptionFixture, ZerosFollowedByGarbageAreDataLoss) {
  for (const char* name : {"snapshot.dbsp", "wal.dbsp"}) {
    // At least a whole frame header: a shorter tail is a torn header.
    for (const std::size_t zeros : {std::size_t{12}, std::size_t{64}}) {
      reset_scratch();
      std::vector<std::uint8_t> tail(zeros, 0);
      tail.push_back(0x5A);
      append_to(name, tail);
      StoreOptions store;
      store.directory = scratch_.string();
      const auto reopened = PubSub::open(std::move(store));
      ASSERT_FALSE(reopened.ok()) << name << " + " << zeros << " zeros";
      EXPECT_EQ(reopened.status().code(), ErrorCode::kDataLoss)
          << name << ": " << reopened.status().to_string();
    }
  }
}

/// Flips one byte inside the record of `id` in the snapshot file at `path`
/// (its accounting field, so the tree still decodes).
void flip_record_byte(const std::string& path, SubscriptionId id) {
  const store::LoadedSnapshot snap = store::read_snapshot(path);
  const auto& ids = snap.image.ids;
  const auto at = std::find(ids.begin(), ids.end(), id.value());
  ASSERT_NE(at, ids.end());
  auto bytes = store::read_file(path);
  bytes[snap.image.offsets[static_cast<std::size_t>(at - ids.begin())] + 6] ^= 0x04;
  store::write_file_atomic(path, bytes, false);
}

TEST(DeltaCheckpointCorruptionTest, CopiedRecordsComeFromMemoryAndDiskDamageIsDataLoss) {
  MiniDomain dom;
  std::mt19937_64 rng(83);
  const fs::path dir = fs::temp_directory_path() / "dbsp_corrupt_delta";
  fs::remove_all(dir);
  const std::string snapshot = (dir / "snapshot.dbsp").string();
  StoreOptions store;
  store.directory = dir.string();
  store.schema = dom.schema();
  store.snapshot_every = 1 << 20;  // manual checkpoints only
  PubSubOptions options;
  options.pruning = true;

  std::vector<SubscriptionHandle> live;  // dropped after the PubSub: crash order
  std::optional<PubSub> pubsub(PubSub::open(store, options).value());
  for (int i = 0; i < 100; ++i) {
    live.push_back(pubsub->subscribe(dom.random_tree(rng, 5, 0.2), {}).value());
  }
  ASSERT_TRUE(pubsub->checkpoint().ok());
  const auto churn = [&] {
    for (int i = 0; i < 10; ++i) {
      live.push_back(pubsub->subscribe(dom.random_tree(rng, 5, 0.2), {}).value());
    }
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(live.back().release().ok());
      live.pop_back();
    }
  };
  churn();
  ASSERT_TRUE(pubsub->checkpoint().ok());

  // Damage a base record of the live store's snapshot that the next
  // compaction copies (subscription 0 is never touched again). Routine
  // checkpoints append segments after it; the compaction copies it from
  // memory, so the damage is gone and recovery is exact.
  flip_record_byte(snapshot, SubscriptionId(0));
  const std::uint64_t compactions = pubsub->store_stats().compactions;
  while (pubsub->store_stats().compactions == compactions) {
    churn();
    ASSERT_TRUE(pubsub->checkpoint().ok());
  }
  const std::size_t count = pubsub->subscription_count();
  const std::size_t capacity = pubsub->pruning_stats().total_possible;
  pubsub.reset();
  live.clear();
  pubsub.emplace(PubSub::open(store, options).value());
  EXPECT_EQ(pubsub->subscription_count(), count);
  EXPECT_EQ(pubsub->pruning_stats().total_possible, capacity);
  for (const SubscriptionId id : pubsub->subscription_ids()) {
    live.push_back(pubsub->adopt(id, {}).value());
  }

  // The same damage after a routine checkpoint, with a WAL tail on top,
  // is found by the next open().
  churn();
  ASSERT_TRUE(pubsub->checkpoint().ok());
  ASSERT_GT(pubsub->store_stats().segment_bytes, 0u);
  churn();
  pubsub.reset();
  live.clear();
  flip_record_byte(snapshot, SubscriptionId(0));
  const auto reopened = PubSub::open(store, options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), ErrorCode::kDataLoss) << reopened.status().to_string();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dbsp
