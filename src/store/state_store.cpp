#include "store/state_store.hpp"

#include <algorithm>
#include <filesystem>
#include <map>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

#include "core/candidates.hpp"

namespace dbsp::store {

namespace fs = std::filesystem;

namespace {

constexpr const char* kSnapshotFile = "snapshot.dbsp";
constexpr const char* kWalFile = "wal.dbsp";

std::string sub_label(SubscriptionId id) {
  return "subscription #" + std::to_string(id.value());
}

/// Applies the WAL records on top of the snapshot state and notes the id
/// each subscription record names in `dirty`. The log is exact (subscribe
/// rolls back when its append fails), so an id mismatch means corruption,
/// not a benign gap.
void replay(std::vector<WalRecord>& records, std::map<SubscriptionId::value_type,
            RecoveredSub>& subs, RecoveredState& state, StoreStats& stats,
            std::vector<SubscriptionId::value_type>& dirty) {
  for (WalRecord& rec : records) {
    ++stats.replayed_records;
    if (rec.type != RecordType::kTrainCheckpoint) dirty.push_back(rec.sub.value());
    switch (rec.type) {
      case RecordType::kSubscribe: {
        if (!rec.sub.valid()) {
          throw StoreError("store: WAL subscribe with invalid id");
        }
        if (subs.count(rec.sub.value()) != 0) {
          throw StoreError("store: WAL subscribes " + sub_label(rec.sub) + " twice");
        }
        RecoveredSub sub;
        sub.id = rec.sub;
        // Same capture as PruningEngine::register_subscription saw at the
        // original registration: the tree in a subscribe record is unpruned.
        sub.capacity = internal_prunings(*rec.tree);
        sub.tree = std::move(rec.tree);
        subs.emplace(sub.id.value(), std::move(sub));
        state.next_id = std::max<std::uint64_t>(state.next_id, rec.sub.value() + 1ull);
        ++stats.replayed_subscribes;
        break;
      }
      case RecordType::kUnsubscribe: {
        if (subs.erase(rec.sub.value()) == 0) {
          throw StoreError("store: WAL unsubscribes unknown " + sub_label(rec.sub));
        }
        ++stats.replayed_unsubscribes;
        break;
      }
      case RecordType::kPrune: {
        const auto it = subs.find(rec.sub.value());
        if (it == subs.end()) {
          throw StoreError("store: WAL prunes unknown " + sub_label(rec.sub));
        }
        it->second.tree = std::move(rec.tree);
        it->second.performed += rec.prunings;
        ++stats.replayed_prunes;
        break;
      }
      case RecordType::kTrainCheckpoint:
        state.stats = std::move(rec.stats);
        ++stats.replayed_train_checkpoints;
        break;
      case RecordType::kEpochHeader:
        // read_wal() strips the epoch record; a second one is corruption
        // and was already rejected there.
        throw StoreError("store: unexpected epoch record in WAL body");
    }
  }
}

}  // namespace

std::pair<std::unique_ptr<StateStore>, RecoveredState> StateStore::open(
    const StoreOptions& options) {
  if (options.directory.empty()) {
    throw StoreError("store: StoreOptions::directory is empty", /*io=*/true);
  }
  const bool sync = options.fsync;
  std::unique_ptr<StateStore> store(new StateStore(
      options.directory, std::max<std::size_t>(1, options.snapshot_every), sync));
  RecoveredState state;

  std::error_code ec;
  const bool have_snapshot = fs::exists(store->snapshot_path(), ec);
  const bool have_wal = fs::exists(store->wal_path(), ec);

  if (!have_snapshot) {
    if (have_wal) {
      throw StoreError("store: " + options.directory +
                       " has a WAL but no snapshot — refusing to guess");
    }
    if (!options.create_if_missing) {
      throw StoreError::not_found("store: no store at " + options.directory);
    }
    fs::create_directories(options.directory, ec);
    if (ec) {
      throw StoreError("store: cannot create " + options.directory + ": " +
                           ec.message(),
                       /*io=*/true);
    }
    store->acquire_lock();
    // A fresh store: an empty epoch-0 snapshot of the caller's schema plus
    // an empty epoch-0 WAL, so every later open() finds both files. The
    // snapshot is built like any other, from an empty base with nothing
    // dirty.
    state.schema = options.schema;
    SnapshotData empty;
    empty.schema = &state.schema;
    store->compact(0, empty);
    store->wal_ = WalWriter::create(store->wal_path(), 0, sync);
    store->epoch_ = 0;
    return {std::move(store), std::move(state)};
  }

  // --- Recovery: base and segments, then the WAL of the matching epoch -----
  store->acquire_lock();  // before any read: keeps a live writer's
                          // checkpoint from racing this recovery
  // A kill mid-compaction (or mid-WAL-create) leaves a temporary file the
  // rename never consumed; the files it would have replaced are intact.
  for (const std::string& path : {store->snapshot_path(), store->wal_path()}) {
    fs::remove(path + ".tmp", ec);
  }
  LoadedSnapshot snap = read_snapshot(store->snapshot_path());
  if (snap.torn_tail) {
    // A kill mid-append left a partial final segment. Cut it off so the
    // next segment extends a clean file; the WAL it would have superseded
    // is still there.
    fs::resize_file(store->snapshot_path(), snap.clean_bytes, ec);
    if (ec) {
      throw StoreError("store: cannot truncate torn snapshot segment: " + ec.message(),
                       /*io=*/true);
    }
    store->stats_.recovered_torn_tail = true;
  }
  state.schema = std::move(snap.schema);
  state.next_id = snap.next_id;
  state.next_seq = snap.next_seq;
  state.stats = std::move(snap.stats);
  store->epoch_ = snap.epoch;
  store->stats_.epoch = snap.epoch;
  store->stats_.recovered = true;
  store->stats_.snapshot_subscriptions = snap.subs.size();
  store->stats_.segment_bytes = snap.segments.bytes.size();
  store->base_ = std::move(snap.image);
  store->segments_ = std::move(snap.segments);
  store->compact_next_ = snap.version < kSnapshotFormatVersion;

  std::map<SubscriptionId::value_type, RecoveredSub> subs;
  for (RecoveredSub& sub : snap.subs) subs.emplace(sub.id.value(), std::move(sub));

  bool fresh_wal_needed = true;
  if (have_wal) {
    // Epoch first, full validation second: a stale-epoch WAL (crash between
    // "snapshot renamed" and "WAL truncated") is wholly superseded by the
    // snapshot, so corruption in its obsolete tail must not brick recovery.
    const std::uint64_t wal_epoch = read_wal_epoch(store->wal_path());
    if (wal_epoch > snap.epoch) {
      throw StoreError("store: WAL epoch " + std::to_string(wal_epoch) +
                       " is newer than snapshot epoch " + std::to_string(snap.epoch));
    }
    if (wal_epoch == snap.epoch) {
      WalContents wal = read_wal(store->wal_path());
      replay(wal.records, subs, state, store->stats_, store->dirty_);
      if (store->stats_.replayed_train_checkpoints > 0) {
        store->stats_changed_ = true;  // newer than the base's statistics
        store->compact_next_ = true;
      }
      if (wal.torn_tail) {
        // A kill mid-append left a partial final frame. Cut the file back
        // to its last complete record so new appends extend a clean log.
        std::filesystem::resize_file(store->wal_path(), wal.clean_bytes, ec);
        if (ec) {
          throw StoreError("store: cannot truncate torn WAL tail: " + ec.message(),
                           /*io=*/true);
        }
        store->stats_.recovered_torn_tail = true;
      }
      store->stats_.records_since_checkpoint = wal.records.size();
      store->wal_ = WalWriter::reopen(store->wal_path(), wal.epoch, sync);
      fresh_wal_needed = false;
    }
    // wal_epoch < snap.epoch: a crash hit between "segment appended" (or
    // "snapshot renamed") and "WAL truncated" — the snapshot supersedes
    // every record in this WAL, so it is discarded by the fresh create
    // below.
  }
  if (fresh_wal_needed) {
    store->wal_ = WalWriter::create(store->wal_path(), snap.epoch, sync);
  }

  state.subs.reserve(subs.size());
  for (auto& [raw_id, sub] : subs) {
    state.next_id = std::max<std::uint64_t>(state.next_id, raw_id + 1ull);
    state.subs.push_back(std::move(sub));
  }
  return {std::move(store), std::move(state)};
}

StateStore::~StateStore() {
#if defined(__unix__) || defined(__APPLE__)
  if (lock_fd_ >= 0) {
    ::flock(lock_fd_, LOCK_UN);
    ::close(lock_fd_);
  }
#endif
}

void StateStore::acquire_lock() {
#if defined(__unix__) || defined(__APPLE__)
  const std::string path = (fs::path(directory_) / "lock").string();
  lock_fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (lock_fd_ < 0) {
    throw StoreError("store: cannot open lock file " + path, /*io=*/true);
  }
  if (::flock(lock_fd_, LOCK_EX | LOCK_NB) != 0) {
    ::close(lock_fd_);
    lock_fd_ = -1;
    throw StoreError("store: " + directory_ +
                         " is already open in another process (or PubSub)",
                     /*io=*/true);
  }
#endif
}

bool StateStore::exists(const std::string& directory) {
  std::error_code ec;
  return fs::exists(fs::path(directory) / kSnapshotFile, ec);
}

std::string StateStore::snapshot_path() const {
  return (fs::path(directory_) / kSnapshotFile).string();
}

std::string StateStore::wal_path() const {
  return (fs::path(directory_) / kWalFile).string();
}

void StateStore::append_record() {
  wal_->append_framed(record_);
  ++stats_.wal_records;
  ++stats_.records_since_checkpoint;
  stats_.wal_bytes += record_.size();
}

void StateStore::append_subscribe(SubscriptionId id, const Node& tree) {
  WalWriter::begin_frame(record_);
  encode_subscribe(id, tree, record_);
  append_record();
  dirty_.push_back(id.value());
}

void StateStore::append_unsubscribe(SubscriptionId id) {
  WalWriter::begin_frame(record_);
  encode_unsubscribe(id, record_);
  append_record();
  dirty_.push_back(id.value());
}

void StateStore::append_prune(SubscriptionId id, const Node& tree,
                              std::uint32_t prunings) {
  WalWriter::begin_frame(record_);
  encode_prune(id, tree, record_, prunings);
  append_record();
  dirty_.push_back(id.value());
}

void StateStore::append_train(const EventStats& stats) {
  WireWriter inner;
  stats.save(inner);
  WalWriter::begin_frame(record_);
  encode_train_checkpoint(inner.bytes(), record_);
  append_record();
  stats_changed_ = true;
  compact_next_ = true;
}

void StateStore::compact(std::uint64_t epoch, const SnapshotData& data) {
  build_snapshot(base_, segments_, epoch, data, stats_changed_);
  write_file_atomic(snapshot_path(), base_.bytes, sync_);
  // The rename dropped the segments. The log fills to a quarter of the
  // body plus one segment before the next compaction: room for that up
  // front spares the copies of growing by doubling.
  segments_ = SegmentLog{};
  segments_.bytes.reserve(base_.body_bytes() / 4 + base_.body_bytes() / 16);
  stats_.segment_bytes = 0;
  stats_changed_ = false;
  compact_next_ = false;
}

void StateStore::checkpoint(const SnapshotData& data) {
  const std::uint64_t next_epoch = epoch_ + 1;
  if (all_dirty_) {
    // Every id that can be live: the base's and those the segments name.
    dirty_.insert(dirty_.end(), base_.ids.begin(), base_.ids.end());
    for (const SegmentLog::Entry& e : segments_.entries) dirty_.push_back(e.id);
  }
  std::sort(dirty_.begin(), dirty_.end());
  dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
  const std::size_t appended_at = segments_.bytes.size();
  stats_.snapshot_records_encoded += append_segment(segments_, dirty_, next_epoch, data);
  dirty_.clear();
  if (all_dirty_ || compact_next_ || segments_.bytes.size() > base_.body_bytes() / 4) {
    compact(next_epoch, data);
    ++stats_.compactions;
  } else {
    append_file(snapshot_path(),
                std::span(segments_.bytes.bytes()).subspan(appended_at), sync_);
    stats_.segment_bytes = segments_.bytes.size();
  }
  all_dirty_ = false;
  // Between the append (or rename) above and the create below the on-disk
  // WAL carries the old epoch; recovery discards it against the snapshot's
  // last segment, so a crash in this window loses nothing and
  // double-applies nothing.
  wal_.reset();
  wal_ = WalWriter::create(wal_path(), next_epoch, sync_);
  epoch_ = next_epoch;
  stats_.epoch = next_epoch;
  ++stats_.snapshots_written;
  stats_.records_since_checkpoint = 0;
}

}  // namespace dbsp::store
