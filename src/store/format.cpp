#include "store/format.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace dbsp::store {

namespace {

/// Slice-by-8 tables: kCrcTables[0] is the classic byte-at-a-time table of
/// the reflected IEEE polynomial; kCrcTables[k][b] is the CRC of byte `b`
/// followed by k zero bytes, so eight table reads fold eight input bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Four input bytes as a little-endian word, whatever the host order.
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

bool zero_tail(std::span<const std::uint8_t> bytes, std::size_t from) {
  return std::all_of(bytes.begin() + static_cast<std::ptrdiff_t>(from), bytes.end(),
                     [](std::uint8_t b) { return b == 0; });
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  const CrcTables& t = kCrcTables;
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

// --- Record payload codecs ---------------------------------------------------

void encode_epoch_header(std::uint64_t epoch, WireWriter& out) {
  out.put_u8(static_cast<std::uint8_t>(RecordType::kEpochHeader));
  out.put_u64(epoch);
}

void encode_subscribe(SubscriptionId id, const Node& tree, WireWriter& out) {
  out.put_u8(static_cast<std::uint8_t>(RecordType::kSubscribe));
  out.put_u32(id.value());
  encode_tree(tree, out);
}

void encode_unsubscribe(SubscriptionId id, WireWriter& out) {
  out.put_u8(static_cast<std::uint8_t>(RecordType::kUnsubscribe));
  out.put_u32(id.value());
}

void encode_prune(SubscriptionId id, const Node& tree, WireWriter& out,
                  std::uint32_t prunings) {
  out.put_u8(static_cast<std::uint8_t>(RecordType::kPrune));
  out.put_u32(id.value());
  encode_tree(tree, out);
  if (prunings != 1) out.put_u32(prunings);
}

void encode_train_checkpoint(std::span<const std::uint8_t> stats, WireWriter& out) {
  out.put_u8(static_cast<std::uint8_t>(RecordType::kTrainCheckpoint));
  out.put_bytes(stats);
}

WalRecord decode_record(std::span<const std::uint8_t> payload) {
  WireReader in(payload);
  WalRecord rec;
  const std::uint8_t type = in.get_u8();
  switch (static_cast<RecordType>(type)) {
    case RecordType::kEpochHeader:
      rec.type = RecordType::kEpochHeader;
      rec.epoch = in.get_u64();
      break;
    case RecordType::kSubscribe:
      rec.type = RecordType::kSubscribe;
      rec.sub = SubscriptionId(in.get_u32());
      rec.tree = decode_tree(in);
      break;
    case RecordType::kUnsubscribe:
      rec.type = RecordType::kUnsubscribe;
      rec.sub = SubscriptionId(in.get_u32());
      break;
    case RecordType::kPrune:
      rec.type = RecordType::kPrune;
      rec.sub = SubscriptionId(in.get_u32());
      rec.tree = decode_tree(in);
      if (!in.exhausted()) {
        rec.prunings = in.get_u32();
        // One encoding per record: a count of 1 is written as no count.
        if (rec.prunings < 2) throw StoreError("store: WAL prune count below 2");
      }
      break;
    case RecordType::kTrainCheckpoint:
      rec.type = RecordType::kTrainCheckpoint;
      // The stats blob is self-delimiting only to EventStats::load; at the
      // framing level it simply occupies the rest of the record.
      rec.stats.assign(payload.begin() + 1, payload.end());
      return rec;
    default:
      throw StoreError("store: unknown WAL record type " + std::to_string(type));
  }
  if (!in.exhausted()) throw StoreError("store: trailing bytes in WAL record");
  return rec;
}

// --- Schema codec ------------------------------------------------------------

void encode_schema(const Schema& schema, WireWriter& out) {
  out.put_u32(static_cast<std::uint32_t>(schema.attribute_count()));
  for (std::size_t i = 0; i < schema.attribute_count(); ++i) {
    const AttributeId attr(static_cast<AttributeId::value_type>(i));
    out.put_string(schema.name(attr));
    out.put_u8(static_cast<std::uint8_t>(schema.type(attr)));
  }
}

Schema decode_schema(WireReader& in) {
  const std::uint32_t count = in.get_u32();
  // Every attribute needs at least its name length (4) plus the type byte.
  if (count > in.remaining() / 5) {
    throw StoreError("store: schema attribute count exceeds input");
  }
  Schema schema;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = in.get_string();
    const std::uint8_t type = in.get_u8();
    if (type > static_cast<std::uint8_t>(ValueType::Bool)) {
      throw StoreError("store: unknown attribute type in schema");
    }
    // Checked before add_attribute: a same-name re-add with a conflicting
    // type would throw std::invalid_argument, which must not escape the
    // clean-Status contract of PubSub::open.
    if (schema.find(name).has_value()) {
      throw StoreError("store: duplicate attribute name in schema");
    }
    const AttributeId id =
        schema.add_attribute(std::move(name), static_cast<ValueType>(type));
    if (id.value() != i) {
      throw StoreError("store: unexpected attribute id in schema");
    }
  }
  return schema;
}

bool schemas_equal(const Schema& a, const Schema& b) {
  if (a.attribute_count() != b.attribute_count()) return false;
  for (std::size_t i = 0; i < a.attribute_count(); ++i) {
    const AttributeId attr(static_cast<AttributeId::value_type>(i));
    if (a.name(attr) != b.name(attr) || a.type(attr) != b.type(attr)) return false;
  }
  return true;
}

// --- File helpers ------------------------------------------------------------

std::vector<std::uint8_t> read_file(const std::string& path, std::size_t headroom) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw StoreError("store: cannot open " + path + ": " + std::strerror(errno),
                     /*io=*/true);
  }
  std::vector<std::uint8_t> bytes;
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (!ec) bytes.reserve(static_cast<std::size_t>(size) + headroom);
  std::array<std::uint8_t, 1 << 16> buf;
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0) {
    bytes.insert(bytes.end(), buf.data(), buf.data() + n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) throw StoreError("store: read error on " + path, /*io=*/true);
  return bytes;
}

namespace {

/// fsyncs the directory entry table so a completed rename survives power
/// loss — the file-data fsync alone does not make the new *name* durable.
void sync_parent_directory(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (fd < 0) {
    throw StoreError("store: cannot open directory of " + path + " for fsync",
                     /*io=*/true);
  }
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) {
    throw StoreError("store: directory fsync failed for " + path, /*io=*/true);
  }
#else
  (void)path;
#endif
}

}  // namespace

void write_file_atomic(const std::string& path,
                       std::initializer_list<std::span<const std::uint8_t>> parts,
                       bool sync) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw StoreError("store: cannot create " + tmp + ": " + std::strerror(errno),
                     /*io=*/true);
  }
  bool ok = true;
  for (const std::span<const std::uint8_t> bytes : parts) {
    ok = ok && (bytes.empty() ||
                std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size());
  }
  ok = ok && std::fflush(f) == 0;
#if defined(__unix__) || defined(__APPLE__)
  if (ok && sync) ok = ::fsync(fileno(f)) == 0;
#else
  (void)sync;
#endif
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    throw StoreError("store: write error on " + tmp, /*io=*/true);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    throw StoreError("store: cannot rename " + tmp + " over " + path + ": " +
                         ec.message(),
                     /*io=*/true);
  }
  if (sync) sync_parent_directory(path);
}

void append_file(const std::string& path, std::span<const std::uint8_t> bytes, bool sync) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    throw StoreError("store: cannot open " + path + ": " + std::strerror(errno),
                     /*io=*/true);
  }
  bool ok = bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = ok && std::fflush(f) == 0;
#if defined(__unix__) || defined(__APPLE__)
  if (ok && sync) ok = ::fsync(fileno(f)) == 0;
#else
  (void)sync;
#endif
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) throw StoreError("store: append error on " + path, /*io=*/true);
}

}  // namespace dbsp::store
