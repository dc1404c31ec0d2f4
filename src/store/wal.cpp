#include "store/wal.hpp"

#include <cerrno>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace dbsp::store {

namespace {

/// Fills in the len + crc32 header of a frame started by begin_frame().
void seal_frame(WireWriter& frame) {
  const std::span<const std::uint8_t> payload(frame.bytes().data() + kFrameHeaderBytes,
                                              frame.size() - kFrameHeaderBytes);
  frame.patch_u32(0, static_cast<std::uint32_t>(payload.size()));
  frame.patch_u32(4, crc32(payload));
}

std::FILE* open_or_throw(const std::string& path, const char* mode) {
  std::FILE* f = std::fopen(path.c_str(), mode);
  if (f == nullptr) {
    throw StoreError("store: cannot open WAL " + path + ": " + std::strerror(errno),
                     /*io=*/true);
  }
  return f;
}

}  // namespace

std::unique_ptr<WalWriter> WalWriter::create(const std::string& path,
                                             std::uint64_t epoch, bool sync) {
  WireWriter file;
  encode_wire_header(file);
  file.put_u8(static_cast<std::uint8_t>(FileKind::kWal));
  WireWriter epoch_frame;
  begin_frame(epoch_frame);
  encode_epoch_header(epoch, epoch_frame);
  seal_frame(epoch_frame);
  file.put_bytes(epoch_frame.bytes());
  // tmp + rename: a crash mid-creation (e.g. between a checkpoint's
  // snapshot rename and the WAL truncation) leaves the previous WAL
  // intact, never a partial header recovery would reject.
  write_file_atomic(path, file.bytes(), sync);
  return reopen(path, epoch, sync);
}

std::unique_ptr<WalWriter> WalWriter::reopen(const std::string& path,
                                             std::uint64_t epoch, bool sync) {
  std::FILE* f = open_or_throw(path, "ab");
  return std::unique_ptr<WalWriter>(new WalWriter(f, epoch, sync));
}

WalWriter::~WalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void WalWriter::write_raw(std::span<const std::uint8_t> bytes) {
  bool ok = bytes.empty() ||
            std::fwrite(bytes.data(), 1, bytes.size(), file_) == bytes.size();
  ok = ok && std::fflush(file_) == 0;
#if defined(__unix__) || defined(__APPLE__)
  if (ok && sync_) ok = ::fsync(fileno(file_)) == 0;
#endif
  if (!ok) throw StoreError("store: WAL append failed", /*io=*/true);
}

void WalWriter::begin_frame(WireWriter& frame) {
  frame.clear();
  frame.put_u32(0);  // len, filled in by seal_frame
  frame.put_u32(0);  // crc32, likewise
}

void WalWriter::append_framed(WireWriter& frame) {
  seal_frame(frame);
  write_raw(frame.bytes());
  ++records_;
}

namespace {

/// Validates the file header and returns the byte offset after it.
std::size_t check_wal_header(const std::vector<std::uint8_t>& bytes,
                             const std::string& path) {
  WireReader header(bytes);
  (void)decode_wire_header(header);
  if (header.get_u8() != static_cast<std::uint8_t>(FileKind::kWal)) {
    throw StoreError("store: " + path + " is not a WAL file");
  }
  return bytes.size() - header.remaining();
}

}  // namespace

WalContents read_wal(const std::string& path) {
  const std::vector<std::uint8_t> bytes = read_file(path);

  WalContents wal;
  wal.bytes = bytes.size();
  std::size_t pos = check_wal_header(bytes, path);
  bool first = true;
  while (pos < bytes.size()) {
    wal.clean_bytes = pos;
    if (bytes.size() - pos < 8 || zero_tail(bytes, pos)) {
      // Torn tail: a kill mid-append left a partial frame header, or a
      // machine crash left the appended range zero-filled. The complete
      // prefix is a consistent log; only the unacknowledged final write
      // is lost.
      wal.torn_tail = true;
      break;
    }
    WireReader fr(std::span<const std::uint8_t>(bytes.data() + pos, 8));
    const std::uint32_t len = fr.get_u32();
    const std::uint32_t crc = fr.get_u32();
    pos += 8;
    if (len == 0) {
      throw StoreError("store: zero-length WAL record in " + path);
    }
    if (len > bytes.size() - pos) {
      wal.torn_tail = true;  // payload ran past end-of-file mid-write
      break;
    }
    const std::span<const std::uint8_t> payload(bytes.data() + pos, len);
    if (crc32(payload) != crc) {
      throw StoreError("store: WAL record checksum mismatch in " + path);
    }
    pos += len;
    WalRecord rec = decode_record(payload);
    if (first) {
      if (rec.type != RecordType::kEpochHeader) {
        throw StoreError("store: WAL does not start with an epoch record");
      }
      wal.epoch = rec.epoch;
      first = false;
      continue;
    }
    if (rec.type == RecordType::kEpochHeader) {
      throw StoreError("store: duplicate epoch record in " + path);
    }
    wal.records.push_back(std::move(rec));
  }
  if (!wal.torn_tail) wal.clean_bytes = pos;
  // An epoch-less WAL cannot be attributed to a snapshot. Creation is
  // atomic, so even a torn tail cannot produce this from our own writer —
  // it is external damage.
  if (first) throw StoreError("store: WAL missing its epoch record");
  return wal;
}

std::uint64_t read_wal_epoch(const std::string& path) {
  // Only the header plus the (fixed, small) epoch frame is needed; don't
  // pull a potentially large log into memory twice per recovery.
  constexpr std::size_t kPrefix = 64;
  std::FILE* f = open_or_throw(path, "rb");
  std::vector<std::uint8_t> bytes(kPrefix);
  const std::size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) throw StoreError("store: read error on " + path, /*io=*/true);
  bytes.resize(got);

  const std::size_t pos = check_wal_header(bytes, path);
  if (bytes.size() - pos < 8) {
    throw StoreError("store: WAL missing its epoch record");
  }
  WireReader fr(std::span<const std::uint8_t>(bytes.data() + pos, 8));
  const std::uint32_t len = fr.get_u32();
  const std::uint32_t crc = fr.get_u32();
  // A genuine epoch record is 9 bytes and always fits the prefix; any
  // length that does not is a malformed or truncated header.
  if (len == 0 || len > bytes.size() - pos - 8) {
    throw StoreError("store: truncated WAL epoch record in " + path);
  }
  const std::span<const std::uint8_t> payload(bytes.data() + pos + 8, len);
  if (crc32(payload) != crc) {
    throw StoreError("store: WAL epoch record checksum mismatch in " + path);
  }
  const WalRecord rec = decode_record(payload);
  if (rec.type != RecordType::kEpochHeader) {
    throw StoreError("store: WAL does not start with an epoch record");
  }
  return rec.epoch;
}

}  // namespace dbsp::store
