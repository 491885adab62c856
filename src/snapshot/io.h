// Versioned, CRC-guarded binary savestate codec (DESIGN.md §13).
//
// A snapshot is a 20-byte header followed by a flat sequence of named sections:
//
//   header:  magic u64 | version u32 | section_count u32 | crc32(header[0..16))
//   section: name_len u16 | name bytes | payload_len u64 | payload | crc32(payload)
//
// Everything is little-endian. The reader validates the header and every
// section frame (bounds + checksum) up front, before the caller touches any
// target state, so a truncated, bit-flipped, or version-mismatched snapshot
// fails closed with a structured RestoreError naming the offending section —
// never a crash or a half-restored Machine.
//
// Header-only so every subsystem .cc can serialize itself without a new link
// dependency; the orchestration lives in src/snapshot/machine_snapshot.cc.

#ifndef VUSION_SRC_SNAPSHOT_IO_H_
#define VUSION_SRC_SNAPSHOT_IO_H_

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vusion::snapshot {

inline constexpr std::uint64_t kMagic = 0x53535653'4e4f4953ull;  // "SIONVSSS"
// v2: FusionConfig gained the streaming scan pipeline's shape toggle and chunk
// size. v3: FusionConfig lost the delta-scanning flag and the shape toggle
// (the shape now follows from hook and pool), and the Machine and engine
// sections lost the delta scanner's write epochs and pass caches. Older images
// fail closed.
inline constexpr std::uint32_t kVersion = 3;
inline constexpr std::size_t kHeaderBytes = 20;  // magic + version + count + crc

// Structured restore failure: carries the name of the section (or "header")
// that failed validation or decoding. Restore paths throw this before mutating
// the target, so a failed load leaves the destination Machine untouched.
class RestoreError : public std::runtime_error {
 public:
  RestoreError(std::string section, const std::string& detail)
      : std::runtime_error("snapshot restore failed [" + section + "]: " + detail),
        section_(std::move(section)) {}

  [[nodiscard]] const std::string& section() const { return section_; }

 private:
  std::string section_;
};

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slicing-by-8 tables for the reflected polynomial 0xEDB88320: tables[0] is
// the classic bytewise table, and tables[k][b] is the CRC contribution of byte
// b followed by k zero bytes, so eight table lookups fold one 8-byte word.
constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

}  // namespace detail

// The format is little-endian on disk and every fixed-width field is copied
// with one memcpy, which is only correct on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the snapshot codec assumes a little-endian host");

// Standard CRC-32 (reflected 0xEDB88320, init and final xor 0xFFFFFFFF).
inline std::uint32_t Crc32(const void* data, std::size_t size) {
  const auto& t = detail::kCrc32Tables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; bytes += 8, size -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes, sizeof(word));
    const std::uint32_t lo = static_cast<std::uint32_t>(word) ^ crc;
    const std::uint32_t hi = static_cast<std::uint32_t>(word >> 32);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = t[0][(crc ^ *bytes) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// Writes named, checksummed sections straight into one output buffer whose
// first kHeaderBytes are reserved for the header; Finish() fills it in.
class SnapshotWriter {
 public:
  SnapshotWriter() : out_(kHeaderBytes, '\0') {}

  // --- Section framing ---

  // Writes the frame's name and a payload-length placeholder; the payload
  // follows in place.
  void BeginSection(std::string_view name) {
    AppendLe(static_cast<std::uint16_t>(name.size()));
    out_.append(name.data(), name.size());
    length_pos_ = out_.size();
    AppendLe(std::uint64_t{0});
  }

  // Patches the payload length and appends the payload's CRC.
  void EndSection() {
    const std::size_t payload_pos = length_pos_ + sizeof(std::uint64_t);
    const std::uint64_t payload_len = out_.size() - payload_pos;
    StoreLe(out_.data() + length_pos_, payload_len);
    AppendLe(Crc32(out_.data() + payload_pos, payload_len));
    ++section_count_;
  }

  // --- Primitives (all little-endian; doubles are bit-exact) ---

  void U8(std::uint8_t v) { AppendLe(v); }
  void U16(std::uint16_t v) { AppendLe(v); }
  void U32(std::uint32_t v) { AppendLe(v); }
  void U64(std::uint64_t v) { AppendLe(v); }
  void I64(std::int64_t v) { AppendLe(v); }
  void F64(double v) { AppendLe(v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Bytes(const void* data, std::size_t size) {
    out_.append(static_cast<const char*>(data), size);
  }
  void Str(std::string_view s) {
    U32(static_cast<std::uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }

  // Fills in the header and hands over the buffer; the writer is spent.
  [[nodiscard]] std::string Finish() && {
    char* header = out_.data();
    StoreLe(header, kMagic);
    StoreLe(header + 8, kVersion);
    StoreLe(header + 12, section_count_);
    StoreLe(header + 16, Crc32(header, kHeaderBytes - sizeof(std::uint32_t)));
    return std::move(out_);
  }

 private:
  template <typename T>
  static void StoreLe(char* dst, T v) {
    std::memcpy(dst, &v, sizeof(T));
  }

  template <typename T>
  void AppendLe(T v) {
    out_.append(reinterpret_cast<const char*>(&v), sizeof(T));
  }

  std::string out_;
  std::size_t length_pos_ = 0;
  std::uint32_t section_count_ = 0;
};

// Validates the whole snapshot up front, then serves sections strictly in
// order. Any framing or checksum defect throws RestoreError before the caller
// sees a single byte of payload.
class SnapshotReader {
 public:
  struct SectionInfo {
    std::string name;
    std::size_t offset = 0;  // payload start within the buffer
    std::size_t size = 0;    // payload bytes
  };

  explicit SnapshotReader(std::string_view data) : data_(data) { Validate(); }

  [[nodiscard]] const std::vector<SectionInfo>& sections() const { return sections_; }

  // Opens the next section, which must carry the expected name; version skew
  // (added/removed/reordered sections) therefore fails closed with the name of
  // the section the restore code was expecting.
  void OpenSection(std::string_view name) {
    if (next_section_ >= sections_.size()) {
      throw RestoreError(std::string(name), "section missing (snapshot ends early)");
    }
    const SectionInfo& info = sections_[next_section_];
    if (info.name != name) {
      throw RestoreError(std::string(name),
                         "section out of order (found '" + info.name + "')");
    }
    cursor_ = info.offset;
    end_ = info.offset + info.size;
    current_ = info.name;
    ++next_section_;
  }

  void EndSection() {
    if (cursor_ != end_) {
      throw RestoreError(current_, "trailing bytes in section payload");
    }
  }

  // --- Primitives ---

  std::uint8_t U8() { return ReadLe<std::uint8_t>(); }
  std::uint16_t U16() { return ReadLe<std::uint16_t>(); }
  std::uint32_t U32() { return ReadLe<std::uint32_t>(); }
  std::uint64_t U64() { return ReadLe<std::uint64_t>(); }
  std::int64_t I64() { return ReadLe<std::int64_t>(); }
  double F64() { return ReadLe<double>(); }
  bool Bool() { return U8() != 0; }
  void Bytes(void* out, std::size_t size) {
    Need(size);
    std::memcpy(out, data_.data() + cursor_, size);
    cursor_ += size;
  }
  std::string Str() {
    const std::uint32_t size = U32();
    Need(size);
    std::string s(data_.substr(cursor_, size));
    cursor_ += size;
    return s;
  }

  // Decodes a count that will drive a container reserve/loop; bounds it by the
  // bytes actually remaining so a corrupt count cannot drive a huge allocation.
  std::uint64_t Count(std::size_t min_bytes_per_element = 1) {
    const std::uint64_t n = U64();
    const std::size_t remaining = end_ - cursor_;
    if (min_bytes_per_element != 0 && n > remaining / min_bytes_per_element) {
      throw RestoreError(current_, "element count exceeds section payload");
    }
    return n;
  }

 private:
  void Validate() {
    if (data_.size() < kHeaderBytes) {
      throw RestoreError("header", "truncated header");
    }
    std::size_t pos = 0;
    const std::uint64_t magic = PeekLe<std::uint64_t>(pos);
    const std::uint32_t version = PeekLe<std::uint32_t>(pos);
    const std::uint32_t count = PeekLe<std::uint32_t>(pos);
    const std::uint32_t stored_crc = PeekLe<std::uint32_t>(pos);
    if (Crc32(data_.data(), kHeaderBytes - sizeof(std::uint32_t)) != stored_crc) {
      throw RestoreError("header", "header checksum mismatch");
    }
    if (magic != kMagic) {
      throw RestoreError("header", "bad magic (not a vusion snapshot)");
    }
    if (version != kVersion) {
      throw RestoreError("header", "unsupported snapshot version " + std::to_string(version));
    }
    sections_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::string frame_label = "section[" + std::to_string(i) + "]";
      if (data_.size() - pos < sizeof(std::uint16_t)) {
        throw RestoreError(frame_label, "truncated section name length");
      }
      const std::uint16_t name_len = PeekLe<std::uint16_t>(pos);
      if (data_.size() - pos < name_len) {
        throw RestoreError(frame_label, "truncated section name");
      }
      std::string name(data_.substr(pos, name_len));
      pos += name_len;
      if (data_.size() - pos < sizeof(std::uint64_t)) {
        throw RestoreError(name, "truncated payload length");
      }
      const std::uint64_t payload_len = PeekLe<std::uint64_t>(pos);
      if (data_.size() - pos < payload_len ||
          data_.size() - pos - payload_len < sizeof(std::uint32_t)) {
        throw RestoreError(name, "truncated payload");
      }
      const std::size_t payload_off = pos;
      pos += payload_len;
      const std::uint32_t stored = PeekLe<std::uint32_t>(pos);
      if (Crc32(data_.data() + payload_off, payload_len) != stored) {
        throw RestoreError(name, "payload checksum mismatch");
      }
      sections_.push_back({std::move(name), payload_off, payload_len});
    }
    if (pos != data_.size()) {
      throw RestoreError("header", "trailing bytes after last section");
    }
  }

  template <typename T>
  T PeekLe(std::size_t& pos) const {
    T v{};
    std::memcpy(&v, data_.data() + pos, sizeof(T));
    pos += sizeof(T);
    return v;
  }

  void Need(std::size_t size) {
    if (end_ - cursor_ < size) {
      throw RestoreError(current_, "field read past section payload");
    }
  }

  template <typename T>
  T ReadLe() {
    Need(sizeof(T));
    T v{};
    std::memcpy(&v, data_.data() + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return v;
  }

  std::string_view data_;
  std::vector<SectionInfo> sections_;
  std::size_t next_section_ = 0;
  std::size_t cursor_ = 0;
  std::size_t end_ = 0;
  std::string current_ = "header";
};

}  // namespace vusion::snapshot

#endif  // VUSION_SRC_SNAPSHOT_IO_H_
