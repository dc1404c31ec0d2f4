#pragma once

/// \file
/// StateStore: the durability subsystem behind dbsp::PubSub::open(). One
/// directory holds a snapshot (snapshot.dbsp: a base plus the segments
/// appended since) and an append-only WAL of subscription-lifecycle records
/// (wal.dbsp); see store/format.hpp and store/snapshot.hpp for the byte
/// layout and docs/ARCHITECTURE.md "Durability" for the protocol. Recovery
/// = load the base, apply its segments, replay the WAL of the matching
/// epoch; checkpoint = persist what changed, then truncate the WAL to a
/// fresh epoch.
///
/// A routine checkpoint appends one segment holding the ids the WAL touched
/// since the previous checkpoint, re-read through the owner's lookup. Once
/// the segments outgrow a quarter of the base body (or statistics were
/// trained, or mark_all_dirty() was called) the checkpoint compacts
/// instead: it folds the segments into the base it holds in memory and
/// replaces the file atomically.
///
/// The class throws StoreError (and codec WireError) — the PubSub facade
/// converts both into the Status channel, so corrupt input surfaces as
/// ErrorCode::kDataLoss and filesystem failures as kIoError, never as UB.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "store/snapshot.hpp"
#include "store/wal.hpp"

namespace dbsp {

/// Opening knobs of a durable PubSub (see PubSub::open).
struct StoreOptions {
  /// Directory holding snapshot.dbsp + wal.dbsp; created when missing (and
  /// create_if_missing is set).
  std::string directory;
  /// Schema used when creating a fresh store. For an existing store the
  /// persisted schema is authoritative; a non-empty schema here is then
  /// verified against it (exact names and types, kInvalidArgument on
  /// mismatch). Leave empty to accept whatever the store holds.
  Schema schema;
  /// Checkpoint automatically after this many WAL records (0 counts as 1).
  std::size_t snapshot_every = 1024;
  /// fsync every WAL append and snapshot (machine-crash durability, not
  /// just process-crash). Defaults off.
  bool fsync = false;
  /// Refuse to create a fresh store (kNotFound) when the directory holds
  /// none — for "open what is there" callers.
  bool create_if_missing = true;
};

/// Durability counters of a live store (PubSub::store_stats()).
struct StoreStats {
  std::uint64_t epoch = 0;              ///< current snapshot epoch
  std::uint64_t wal_records = 0;        ///< records appended since open()
  std::uint64_t wal_bytes = 0;          ///< framed bytes appended since open(),
                                        ///< summed across checkpoints
  std::uint64_t snapshots_written = 0;  ///< checkpoints since open()
  /// Subscription records checkpoints encoded since open(); a compaction
  /// copies every other record's bytes from the base or the segments. At
  /// most one per WAL record between two checkpoints, never the whole table.
  std::uint64_t snapshot_records_encoded = 0;
  /// Checkpoints since open() that folded the segments into a new base.
  std::uint64_t compactions = 0;
  /// Bytes of the segments appended after the current base.
  std::uint64_t segment_bytes = 0;
  std::uint64_t records_since_checkpoint = 0;
  // --- What open() found and replayed (zeros for a fresh store) ------------
  bool recovered = false;  ///< false = the store was created by this open()
  /// True when recovery found (and truncated away) a torn final WAL frame
  /// or snapshot segment — the signature of a kill mid-append. Only that
  /// unacknowledged write was lost.
  bool recovered_torn_tail = false;
  std::uint64_t snapshot_subscriptions = 0;  ///< subs loaded from base + segments
  std::uint64_t replayed_records = 0;        ///< WAL records applied on top
  std::uint64_t replayed_subscribes = 0;
  std::uint64_t replayed_unsubscribes = 0;
  std::uint64_t replayed_prunes = 0;
  std::uint64_t replayed_train_checkpoints = 0;
};

namespace store {

/// Everything open() reconstructs for the facade.
struct RecoveredState {
  Schema schema;
  std::uint64_t next_id = 0;
  std::uint64_t next_seq = 0;
  std::vector<RecoveredSub> subs;   ///< ascending id
  std::vector<std::uint8_t> stats;  ///< serialized EventStats; empty = untrained
};

/// The directory-level store: owns the WAL writer and the checkpoint
/// protocol. Not thread-safe — single-writer by contract. Its one owner
/// is the PubSub facade, whose core declares the store pointer
/// DBSP_GUARDED_BY + DBSP_PT_GUARDED_BY the facade mutex: every append and
/// checkpoint provably runs under that lock (clang -Wthread-safety), and
/// the durable-churn stress test races the path under TSan. On
/// POSIX a flock-held `lock` file makes opens exclusive: a second open of
/// a live directory fails cleanly (kIoError) instead of two writers
/// sharing one WAL; the lock dies with the process, so a crash never
/// wedges the store.
class StateStore {
 public:
  /// Opens an existing store (recovering its state) or creates a fresh one.
  /// Throws StoreError on IO failure or corruption; never returns half a
  /// state.
  static std::pair<std::unique_ptr<StateStore>, RecoveredState> open(
      const StoreOptions& options);

  /// True when `directory` already holds a store (its snapshot exists).
  [[nodiscard]] static bool exists(const std::string& directory);

  ~StateStore();
  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  // --- Append hooks (one WAL record each; throw StoreError on failure) ------
  void append_subscribe(SubscriptionId id, const Node& tree);
  void append_unsubscribe(SubscriptionId id);
  /// `tree` after `prunings` prunings since the id's previous record.
  void append_prune(SubscriptionId id, const Node& tree, std::uint32_t prunings = 1);
  void append_train(const EventStats& stats);

  /// True once snapshot_every records accumulated since the last
  /// checkpoint — the owner should checkpoint().
  [[nodiscard]] bool wants_checkpoint() const {
    return stats_.records_since_checkpoint >= snapshot_every_;
  }

  /// Makes the next checkpoint encode every live subscription through
  /// data.lookup, not only the ids the WAL touched, and compact: for a
  /// change to every record that no WAL record carries
  /// (PubSub::set_prune_dimension re-captures all pruning accounting).
  void mark_all_dirty() { all_dirty_ = true; }

  /// Persists the epoch + 1 state and truncates the WAL. The ids the WAL
  /// touched are re-read through data.lookup into one segment (see
  /// append_segment), which is appended to the snapshot file — or, when
  /// the checkpoint compacts, folded with the earlier segments into a new
  /// base (see build_snapshot) whose bytes equal a full encode of the
  /// owner's table. Crash-safe: a torn segment is cut off at recovery, a
  /// compaction replaces the file atomically, and a crash before the WAL
  /// truncation leaves a stale-epoch WAL that the next recovery discards.
  void checkpoint(const SnapshotData& data);

  [[nodiscard]] const StoreStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] const std::string& directory() const { return directory_; }

 private:
  StateStore(std::string directory, std::size_t snapshot_every, bool sync)
      : directory_(std::move(directory)),
        snapshot_every_(snapshot_every),
        sync_(sync) {}

  /// Appends the record framed in record_ (see WalWriter::begin_frame).
  void append_record();
  /// Folds the segments into the epoch-`epoch` base (build_snapshot) and
  /// replaces the snapshot file with it.
  void compact(std::uint64_t epoch, const SnapshotData& data);
  /// Takes the directory's exclusive flock (POSIX; no-op elsewhere).
  void acquire_lock();
  [[nodiscard]] std::string snapshot_path() const;
  [[nodiscard]] std::string wal_path() const;

  std::string directory_;
  std::size_t snapshot_every_;
  bool sync_;
  std::uint64_t epoch_ = 0;
  std::unique_ptr<WalWriter> wal_;
  /// The frame every append encodes into; reused, so appends allocate
  /// nothing once it has grown to the largest record.
  WireWriter record_;
  /// The last base written or loaded, indexed: a compaction rewrites it in
  /// place, so the store holds one snapshot body.
  SnapshotImage base_;
  /// The segments written after the base, as on disk: a compaction copies
  /// their records. At most a quarter of the base body plus one segment.
  SegmentLog segments_;
  /// Ids named by subscribe, unsubscribe and prune records since the last
  /// checkpoint (one per record, sorted and deduplicated at checkpoint).
  std::vector<SubscriptionId::value_type> dirty_;
  bool all_dirty_ = false;
  /// The next checkpoint compacts whatever the segments' size: statistics
  /// changed since the base (segments carry none), or the base is a
  /// version-1 file, which cannot take segments.
  bool compact_next_ = false;
  /// Statistics were trained since the base.
  bool stats_changed_ = false;
  StoreStats stats_;
  int lock_fd_ = -1;
};

}  // namespace store
}  // namespace dbsp
