#pragma once

/// \file
/// The append-only write-ahead log of the durable state store: one framed,
/// CRC-checked record per subscription-lifecycle operation (see
/// store/format.hpp for the layout). A WAL belongs to exactly one snapshot
/// epoch — its first record names it — so a crash between "snapshot
/// renamed" and "WAL truncated" leaves a *stale* WAL that recovery detects
/// by epoch and discards instead of double-applying.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "store/format.hpp"

namespace dbsp::store {

/// Bytes of a record's frame header: len u32 + crc32 u32.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Appends framed records to a WAL file. Each append is flushed to the OS
/// (and fsync'd when `sync`) before returning, so a process crash — as
/// opposed to a machine crash without fsync — never loses an acknowledged
/// record. Not thread-safe: the writer is reached only through the owning
/// StateStore, itself guarded by the PubSub facade mutex (see
/// state_store.hpp), so appends are serialized end to end.
class WalWriter {
 public:
  /// Creates `path` atomically (tmp + rename: a crash mid-creation leaves
  /// the previous file, never a partial one) with a fresh header and the
  /// epoch record, then reopens it for appending. Throws StoreError(io).
  static std::unique_ptr<WalWriter> create(const std::string& path,
                                           std::uint64_t epoch, bool sync);
  /// Reopens an existing, already-validated WAL for appending.
  static std::unique_ptr<WalWriter> reopen(const std::string& path,
                                           std::uint64_t epoch, bool sync);

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Starts a record built in place: clears `frame` and writes the frame
  /// header's placeholder. Encode the payload after it, then call
  /// append_framed(). A reused `frame` keeps its capacity, so a steady
  /// stream of records allocates nothing.
  static void begin_frame(WireWriter& frame);
  /// Fills in the header (len + crc32) of a frame started by begin_frame()
  /// and appends it: one fwrite and one fflush (plus an fsync when
  /// `sync`). The payload must not be empty.
  void append_framed(WireWriter& frame);

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// Records appended through this writer (the epoch record not counted).
  [[nodiscard]] std::uint64_t records_appended() const { return records_; }

 private:
  WalWriter(std::FILE* f, std::uint64_t epoch, bool sync)
      : file_(f), epoch_(epoch), sync_(sync) {}
  void write_raw(std::span<const std::uint8_t> bytes);

  std::FILE* file_;
  std::uint64_t epoch_;
  bool sync_;
  std::uint64_t records_ = 0;
};

/// A fully parsed and CRC-verified WAL.
struct WalContents {
  std::uint64_t epoch = 0;
  std::vector<WalRecord> records;  ///< in append order, epoch record excluded
  std::uint64_t bytes = 0;         ///< total file size
  /// True when the file ends in an incomplete frame — the signature of a
  /// kill mid-append (torn write). `clean_bytes` is the offset of the last
  /// complete record; the owner truncates the file there before appending.
  bool torn_tail = false;
  std::uint64_t clean_bytes = 0;
};

/// Reads and verifies a whole WAL file. A frame that runs past end-of-file
/// is a torn tail from a crash mid-append: the complete prefix is returned
/// with `torn_tail` set, losing only the unacknowledged final write.
/// Everything else stays strict — a CRC mismatch on a complete frame, a
/// bad header, or a malformed record payload throw StoreError/WireError;
/// corruption is never silently skipped.
[[nodiscard]] WalContents read_wal(const std::string& path);

/// Reads only the header and the (strictly verified) epoch record. Cheap
/// pre-check: a stale-epoch WAL — left by a crash between "snapshot
/// renamed" and "WAL truncated" — is superseded in full by the snapshot,
/// so recovery discards it on the epoch alone instead of demanding that
/// its obsolete tail still validate.
[[nodiscard]] std::uint64_t read_wal_epoch(const std::string& path);

}  // namespace dbsp::store
