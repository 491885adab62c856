// Savestate codec (DESIGN.md §13): the CRC32 and the writer/reader primitives
// under the snapshot format. Known-answer and differential checks pin the CRC
// to the bytewise reflected-0xEDB88320 definition; round trips pin every
// primitive's encoding; and golden (size, CRC32) pairs of whole snapshots per
// engine lock the on-disk bytes, so a codec rewrite that changes a single byte
// of any snapshot fails here rather than in a cross-process restore.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/sim/rng.h"
#include "src/snapshot/machine_snapshot.h"
#include "src/workload/scenario.h"

namespace vusion {
namespace {

// The textbook bytewise CRC-32 (reflected polynomial 0xEDB88320, init and
// final xor 0xFFFFFFFF), one bit at a time: the oracle the codec must match.
std::uint32_t ReferenceCrc32(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= bytes[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(SnapshotCodecTest, Crc32KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(snapshot::Crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(snapshot::Crc32(nullptr, 0), 0u);
  EXPECT_EQ(snapshot::Crc32(check.data(), 0), 0u);
  EXPECT_EQ(ReferenceCrc32(check.data(), check.size()), 0xCBF43926u);
}

TEST(SnapshotCodecTest, Crc32MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  constexpr std::size_t kMaxLength = 4200;
  constexpr std::size_t kMaxOffset = 7;
  std::vector<unsigned char> buffer(kMaxLength + kMaxOffset);
  Rng rng(0xC0DEC);
  for (unsigned char& b : buffer) {
    b = static_cast<unsigned char>(rng.Next());
  }
  for (std::size_t offset = 0; offset <= kMaxOffset; ++offset) {
    for (std::size_t length = 0; length <= kMaxLength; ++length) {
      const unsigned char* p = buffer.data() + offset;
      const std::uint32_t want = ReferenceCrc32(p, length);
      const std::uint32_t got = snapshot::Crc32(p, length);
      if (got != want) {
        FAIL() << "offset " << offset << " length " << length << ": got 0x" << std::hex
               << got << " want 0x" << want;
      }
    }
  }
}

std::uint64_t Bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(SnapshotCodecTest, EveryPrimitiveRoundTrips) {
  const std::array<double, 8> doubles = {
      0.0,
      -0.0,
      1.5,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
  };
  const std::string blob("\x00\x01\xfe\xff raw", 8);

  snapshot::SnapshotWriter w;
  w.BeginSection("empty");
  w.EndSection();
  w.BeginSection("primitives");
  w.U8(0xA5);
  w.U16(0xBEEF);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I64(-2);
  w.I64(std::numeric_limits<std::int64_t>::min());
  for (double d : doubles) {
    w.F64(d);
  }
  w.Bool(true);
  w.Bool(false);
  w.Bytes(blob.data(), blob.size());
  w.Str("");
  w.Str("savestate");
  w.U64(3);  // a Count of three one-byte elements
  w.U8(1);
  w.U8(2);
  w.U8(3);
  w.EndSection();
  const std::string image = std::move(w).Finish();

  snapshot::SnapshotReader r(image);
  ASSERT_EQ(r.sections().size(), 2u);
  r.OpenSection("empty");
  r.EndSection();
  r.OpenSection("primitives");
  EXPECT_EQ(r.U8(), 0xA5);
  EXPECT_EQ(r.U16(), 0xBEEF);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I64(), -2);
  EXPECT_EQ(r.I64(), std::numeric_limits<std::int64_t>::min());
  for (double d : doubles) {
    EXPECT_EQ(Bits(r.F64()), Bits(d)) << d;
  }
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  std::string raw(blob.size(), '\0');
  r.Bytes(raw.data(), raw.size());
  EXPECT_EQ(raw, blob);
  EXPECT_EQ(r.Str(), "");
  EXPECT_EQ(r.Str(), "savestate");
  EXPECT_EQ(r.Count(), 3u);
  EXPECT_EQ(r.U8(), 1);
  EXPECT_EQ(r.U8(), 2);
  EXPECT_EQ(r.U8(), 3);
  r.EndSection();
}

// The byte layout itself, field by field: header, frame, little-endian payload.
TEST(SnapshotCodecTest, FramingIsLittleEndianAtFixedOffsets) {
  snapshot::SnapshotWriter w;
  w.BeginSection("ab");
  w.U32(0x01020304u);
  w.U16(0x0506);
  w.EndSection();
  const std::string image = std::move(w).Finish();

  auto le = [&](std::size_t pos, std::size_t width) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(image[pos + i])) << (8 * i);
    }
    return v;
  };
  const std::size_t payload = snapshot::kHeaderBytes + 2 + 2 + 8;
  ASSERT_EQ(image.size(), payload + 6 + 4);
  EXPECT_EQ(le(0, 8), snapshot::kMagic);
  EXPECT_EQ(le(8, 4), snapshot::kVersion);
  EXPECT_EQ(le(12, 4), 1u);
  EXPECT_EQ(le(16, 4), ReferenceCrc32(image.data(), 16));
  EXPECT_EQ(le(20, 2), 2u);
  EXPECT_EQ(image.substr(22, 2), "ab");
  EXPECT_EQ(le(24, 8), 6u);
  EXPECT_EQ(image.substr(payload, 6), std::string("\x04\x03\x02\x01\x06\x05", 6));
  EXPECT_EQ(le(payload + 6, 4), ReferenceCrc32(image.data() + payload, 6));
}

// --- Golden snapshot bytes ---

struct Golden {
  EngineKind kind;
  std::size_t size;
  std::uint32_t crc;
};

// Recorded from the bytewise-CRC, per-byte-append codec (snapshot v3) before
// it was rewritten for speed. The format did not change, so neither may these.
constexpr std::array<Golden, 3> kGolden = {{
    {EngineKind::kKsm, 383209, 0x98D068A2u},
    {EngineKind::kWpf, 301570, 0x13760B7Au},
    {EngineKind::kVUsion, 330290, 0x366571A8u},
}};

std::string GoldenImage(EngineKind kind) {
  ScenarioConfig config;
  config.machine.frame_count = 1u << 13;
  config.machine.seed = 5;
  config.fusion.wake_period = 1 * kMillisecond;
  config.fusion.pages_per_wake = 128;
  config.fusion.pool_frames = 256;
  config.fusion.wpf_period = 10 * kMillisecond;
  config.engine = kind;
  Scenario scenario(config);
  VmImageSpec spec;
  spec.total_pages = 512;
  scenario.BootVm(spec, 1);
  scenario.BootVm(spec, 2);
  scenario.RunFor(60 * kMillisecond);
  return snapshot::SaveSnapshot(scenario.machine(), scenario.engine(), kind);
}

TEST(SnapshotCodecTest, SnapshotBytesMatchGoldenPerEngine) {
  for (const Golden& golden : kGolden) {
    const std::string image = GoldenImage(golden.kind);
    EXPECT_EQ(image.size(), golden.size) << EngineKindName(golden.kind);
    EXPECT_EQ(ReferenceCrc32(image.data(), image.size()), golden.crc)
        << EngineKindName(golden.kind) << std::hex << " crc 0x"
        << ReferenceCrc32(image.data(), image.size());
    // The image is also a valid snapshot under the current reader.
    EXPECT_EQ(snapshot::InspectSnapshot(image).kind, golden.kind);
  }
}

}  // namespace
}  // namespace vusion
