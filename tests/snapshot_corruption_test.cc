// Corrupted-snapshot fuzzing (DESIGN.md §13): every way a snapshot buffer can
// be damaged — truncation at and inside every section, single-bit flips in the
// header and in each payload, future- and previous-version headers, dropped
// sections, semantically invalid fields behind a valid checksum — must fail
// closed with a structured RestoreError naming the offending section. No crash,
// no silent partial restore, and the restore target stays untouched.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/fusion/engine_factory.h"
#include "src/kernel/process.h"
#include "src/snapshot/machine_snapshot.h"

namespace vusion {
namespace {

MachineConfig MakeMachineConfig() {
  MachineConfig config;
  config.frame_count = 1u << 13;
  config.seed = 7;
  return config;
}

// A small but non-trivial image: KSM engine, three processes with duplicate
// pages, enough idle that merges, RNG draws, and stats are all non-zero.
std::string MakeImage() {
  Machine machine(MakeMachineConfig());
  FusionConfig fusion;
  fusion.wake_period = 1 * kMillisecond;
  fusion.pages_per_wake = 128;
  std::unique_ptr<FusionEngine> engine = MakeEngineExact(EngineKind::kKsm, machine, fusion);
  engine->Install();
  for (int p = 0; p < 3; ++p) {
    Process& proc = machine.CreateProcess();
    const VirtAddr base = proc.AllocateRegion(32, PageType::kAnonymous, true, false);
    for (std::uint64_t i = 0; i < 32; ++i) {
      proc.SetupMapPattern(VaddrToVpn(base) + i, 0x5000 + (i % 8));
    }
    proc.Write64(base + 128, 0xDEADBEEF + p);
  }
  machine.Idle(30 * kMillisecond);
  const std::string image = snapshot::SaveSnapshot(machine, engine.get(), EngineKind::kKsm);
  engine->Uninstall();
  return image;
}

std::string FlipBit(std::string buffer, std::size_t byte, int bit) {
  buffer[byte] = static_cast<char>(static_cast<unsigned char>(buffer[byte]) ^ (1u << bit));
  return buffer;
}

void WriteLeU32(std::string& buffer, std::size_t pos, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer[pos + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

// Patches one payload byte and re-seals the section checksum, so the damage
// reaches the semantic decoder instead of being caught by the CRC.
std::string PatchSealedByte(std::string buffer, const snapshot::SnapshotReader::SectionInfo& s,
                            std::size_t delta, char value) {
  buffer[s.offset + delta] = value;
  WriteLeU32(buffer, s.offset + s.size,
             snapshot::Crc32(buffer.data() + s.offset, s.size));
  return buffer;
}

// Swaps a section's whole payload for `payload` (any length): rewrites the
// frame's length field and re-seals its checksum.
std::string ResealSection(const std::string& buffer,
                          const snapshot::SnapshotReader::SectionInfo& s,
                          const std::string& payload) {
  std::string out = buffer.substr(0, s.offset - sizeof(std::uint64_t));
  const std::uint64_t size = payload.size();
  out.append(reinterpret_cast<const char*>(&size), sizeof(size));
  out += payload;
  out.append(4, '\0');
  WriteLeU32(out, out.size() - 4, snapshot::Crc32(payload.data(), payload.size()));
  out += buffer.substr(s.offset + s.size + 4);
  return out;
}

// Re-seals the header CRC after editing the first 16 header bytes.
std::string SealHeader(std::string buffer) {
  WriteLeU32(buffer, 16, snapshot::Crc32(buffer.data(), 16));
  return buffer;
}

void ExpectRestoreError(const std::string& buffer, const std::string& want_section,
                        const std::string& context, const std::string& want_detail = "") {
  try {
    snapshot::RestoredMachine restored = snapshot::RestoreSnapshot(buffer);
    ADD_FAILURE() << context << ": corrupted snapshot restored without error";
  } catch (const snapshot::RestoreError& e) {
    EXPECT_FALSE(e.section().empty()) << context;
    if (!want_section.empty()) {
      EXPECT_EQ(e.section(), want_section) << context << ": " << e.what();
    }
    EXPECT_NE(std::string(e.what()).find(want_detail), std::string::npos)
        << context << ": " << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << context << ": wrong exception type: " << e.what();
  }
}

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { image_ = new std::string(MakeImage()); }
  static void TearDownTestSuite() {
    delete image_;
    image_ = nullptr;
  }
  static const std::string& image() { return *image_; }

 private:
  static std::string* image_;
};

std::string* SnapshotCorruptionTest::image_ = nullptr;

TEST_F(SnapshotCorruptionTest, IntactImageRestores) {
  const snapshot::SnapshotInfo info = snapshot::VerifySnapshot(image());
  EXPECT_EQ(info.kind, EngineKind::kKsm);
  EXPECT_EQ(info.sections.front().name, "config");
  EXPECT_EQ(info.sections.back().name, "engine");
}

TEST_F(SnapshotCorruptionTest, TruncationAtEverySectionBoundaryFailsClosed) {
  const snapshot::SnapshotInfo info = snapshot::InspectSnapshot(image());
  for (const auto& section : info.sections) {
    // Cut at the payload start: the section's own payload is truncated.
    ExpectRestoreError(image().substr(0, section.offset), section.name,
                       "truncate at start of '" + section.name + "'");
    // Cut mid-payload.
    if (section.size > 1) {
      ExpectRestoreError(image().substr(0, section.offset + section.size / 2), section.name,
                         "truncate inside '" + section.name + "'");
    }
    // Cut just before the section checksum.
    ExpectRestoreError(image().substr(0, section.offset + section.size), section.name,
                       "truncate before checksum of '" + section.name + "'");
  }
  // Cutting after a complete section leaves the next frame (or the header's
  // section count) dangling; exact section varies, but it must fail closed.
  for (const auto& section : info.sections) {
    const std::string cut = image().substr(0, section.offset + section.size + 4);
    if (cut.size() < image().size()) {
      ExpectRestoreError(cut, "", "truncate after '" + section.name + "'");
    }
  }
}

TEST_F(SnapshotCorruptionTest, EveryHeaderBitFlipFailsClosed) {
  for (std::size_t byte = 0; byte < snapshot::kHeaderBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      ExpectRestoreError(FlipBit(image(), byte, bit), "header",
                         "header bit flip " + std::to_string(byte) + ":" + std::to_string(bit));
    }
  }
}

TEST_F(SnapshotCorruptionTest, PayloadBitFlipsNameTheDamagedSection) {
  const snapshot::SnapshotInfo info = snapshot::InspectSnapshot(image());
  for (const auto& section : info.sections) {
    if (section.size == 0) {
      continue;
    }
    ExpectRestoreError(FlipBit(image(), section.offset + section.size / 2, 3), section.name,
                       "payload flip in '" + section.name + "'");
  }
}

// Any header version other than the current one fails closed: a future format,
// and the previous one (v2 images still carry the delta-scanning and
// shape-toggle config fields and the delta scanner's state).
class SnapshotVersionTest : public SnapshotCorruptionTest,
                            public ::testing::WithParamInterface<std::uint32_t> {};

TEST_P(SnapshotVersionTest, OtherVersionRejected) {
  std::string buffer = image();
  WriteLeU32(buffer, 8, GetParam());  // version field follows the magic
  buffer = SealHeader(buffer);
  try {
    snapshot::RestoredMachine restored = snapshot::RestoreSnapshot(buffer);
    ADD_FAILURE() << "version " << GetParam() << " snapshot restored";
  } catch (const snapshot::RestoreError& e) {
    EXPECT_EQ(e.section(), "header");
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(FutureAndPrevious, SnapshotVersionTest,
                         ::testing::Values(snapshot::kVersion + 1, snapshot::kVersion - 1),
                         [](const ::testing::TestParamInfo<std::uint32_t>& info) {
                           return "v" + std::to_string(info.param);
                         });

TEST_F(SnapshotCorruptionTest, BadMagicRejected) {
  std::string buffer = FlipBit(image(), 0, 0);
  buffer = SealHeader(buffer);  // valid CRC, wrong magic
  ExpectRestoreError(buffer, "header", "bad magic behind valid CRC");
}

TEST_F(SnapshotCorruptionTest, UnknownEngineKindBehindValidChecksumRejected) {
  const snapshot::SnapshotInfo info = snapshot::InspectSnapshot(image());
  const auto& config = info.sections.front();
  ASSERT_EQ(config.name, "config");
  // The engine-kind byte sits just before the 87-byte FusionConfig record at
  // the end of the "config" payload (see WriteFusionConfig: 10 U64/F64 + 7
  // Bool fields as of snapshot v3).
  const std::size_t kind_offset = config.size - 87 - 1;
  const std::string buffer =
      PatchSealedByte(image(), config, kind_offset, static_cast<char>(0xC8));
  ExpectRestoreError(buffer, "config", "unknown engine kind behind valid CRC");
}

TEST_F(SnapshotCorruptionTest, DroppedTrailingSectionRejected) {
  const snapshot::SnapshotInfo info = snapshot::InspectSnapshot(image());
  const auto& last = info.sections.back();
  const auto& prev = info.sections[info.sections.size() - 2];
  // Frame start of the last section = end of the previous section's CRC.
  (void)last;
  std::string buffer = image().substr(0, prev.offset + prev.size + 4);
  WriteLeU32(buffer, 12, static_cast<std::uint32_t>(info.sections.size() - 1));
  buffer = SealHeader(buffer);
  ExpectRestoreError(buffer, "config", "dropped engine section");
}

TEST_F(SnapshotCorruptionTest, EmptyAndGarbageBuffersRejected) {
  ExpectRestoreError("", "header", "empty buffer");
  ExpectRestoreError("short", "header", "short buffer");
  std::string garbage(4096, '\0');
  Rng rng(3);
  for (char& c : garbage) {
    c = static_cast<char>(rng.Next() & 0xFF);
  }
  ExpectRestoreError(garbage, "header", "garbage buffer");
}

TEST_F(SnapshotCorruptionTest, RestoreOntoUsedMachineRefused) {
  snapshot::SnapshotReader r(image());
  r.OpenSection("config");
  std::vector<char> skip(r.sections().front().size);
  r.Bytes(skip.data(), skip.size());
  r.EndSection();

  Machine machine(MakeMachineConfig());
  machine.CreateProcess();
  try {
    machine.Restore(r);
    ADD_FAILURE() << "restore onto a machine with processes succeeded";
  } catch (const snapshot::RestoreError& e) {
    EXPECT_EQ(e.section(), "machine");
    EXPECT_NE(std::string(e.what()).find("already has processes"), std::string::npos);
  }
  // The precondition check fired before any mutation: the machine still works.
  Process& proc = *machine.processes().front();
  const VirtAddr base = proc.AllocateRegion(1, PageType::kAnonymous, true, false);
  proc.Write64(base, 42);
  EXPECT_EQ(proc.Read64(base), 42u);
}

// A machine without an engine whose one process has read `pages` pages in
// order, so its TLB holds min(pages, capacity) entries, page 0 least recent.
struct TlbImage {
  std::string image;
  std::vector<std::pair<Vpn, Pte>> pages;  // every mapped page's live PTE
};

TlbImage MakeTlbImage(std::size_t pages) {
  Machine machine(MakeMachineConfig());
  Process& proc = machine.CreateProcess();
  const VirtAddr base = proc.AllocateRegion(pages, PageType::kAnonymous, false, false);
  TlbImage out;
  for (std::size_t i = 0; i < pages; ++i) {
    proc.SetupMapPattern(VaddrToVpn(base) + i, 0x7000 + i);
  }
  for (std::size_t i = 0; i < pages; ++i) {
    (void)proc.Read64(base + i * kPageSize);
    const Vpn vpn = VaddrToVpn(base) + i;
    out.pages.emplace_back(vpn, *proc.address_space().GetPte(vpn));
  }
  out.image = snapshot::SaveSnapshot(machine, nullptr, EngineKind::kNone);
  EXPECT_NO_THROW(snapshot::VerifySnapshot(out.image));
  return out;
}

// The last process's TLB closes the "procs" payload: entry count u64, then
// per entry vpn u64 | frame u32 | flags u16 (MRU first), then hits and misses.
constexpr std::size_t kTlbEntryBytes = 14;

std::size_t TlbCountOffset(const std::string& procs_payload, std::uint64_t entries) {
  const std::size_t pos = procs_payload.size() - 16 - entries * kTlbEntryBytes - 8;
  std::uint64_t stored = 0;
  std::memcpy(&stored, procs_payload.data() + pos, sizeof(stored));
  EXPECT_EQ(stored, entries) << "TLB block not where expected";
  return pos;
}

std::string TlbEntry(Vpn vpn, const Pte& pte) {
  std::string out(kTlbEntryBytes, '\0');
  std::memcpy(out.data(), &vpn, 8);
  std::memcpy(out.data() + 8, &pte.frame, 4);
  std::memcpy(out.data() + 12, &pte.flags, 2);
  return out;
}

TEST_F(SnapshotCorruptionTest, RepeatedTlbVpnBehindValidChecksumRejected) {
  const TlbImage tlb = MakeTlbImage(4);
  const snapshot::SnapshotInfo info = snapshot::InspectSnapshot(tlb.image);
  const auto& procs = *std::find_if(info.sections.begin(), info.sections.end(),
                                    [](const auto& s) { return s.name == "procs"; });
  std::string payload = tlb.image.substr(procs.offset, procs.size);
  const std::size_t first = TlbCountOffset(payload, 4) + 8;
  // Entry 1 becomes a copy of entry 0: both agree with the page table, so only
  // the TLB's own restore can notice that one vpn is cached twice.
  payload.replace(first + kTlbEntryBytes, kTlbEntryBytes, payload, first, kTlbEntryBytes);
  ExpectRestoreError(ResealSection(tlb.image, procs, payload), "procs",
                     "repeated TLB vpn behind valid CRC", "repeated vpn");
}

TEST_F(SnapshotCorruptionTest, OverfullTlbBehindValidChecksumRejected) {
  const std::size_t capacity = kDefaultTlbEntries;
  const TlbImage tlb = MakeTlbImage(capacity + 1);
  const snapshot::SnapshotInfo info = snapshot::InspectSnapshot(tlb.image);
  const auto& procs = *std::find_if(info.sections.begin(), info.sections.end(),
                                    [](const auto& s) { return s.name == "procs"; });
  std::string payload = tlb.image.substr(procs.offset, procs.size);
  const std::size_t count_pos = TlbCountOffset(payload, capacity);
  // Page 0 was evicted; append its (valid) translation as the LRU entry and
  // bump the count past capacity.
  const auto& [evicted_vpn, evicted_pte] = tlb.pages.front();
  payload.insert(count_pos + 8 + capacity * kTlbEntryBytes, TlbEntry(evicted_vpn, evicted_pte));
  const std::uint64_t count = capacity + 1;
  std::memcpy(payload.data() + count_pos, &count, sizeof(count));
  ExpectRestoreError(ResealSection(tlb.image, procs, payload), "procs",
                     "overfull TLB behind valid CRC", "more entries than its capacity");
}

TEST_F(SnapshotCorruptionTest, IntactImageStillRestoresAfterAllFailures) {
  snapshot::RestoredMachine restored = snapshot::RestoreSnapshot(image());
  ASSERT_NE(restored.machine, nullptr);
  ASSERT_NE(restored.engine, nullptr);
  EXPECT_EQ(restored.kind, EngineKind::kKsm);
  // And the restored pair is live: keep running on it.
  restored.machine->Idle(5 * kMillisecond);
}

}  // namespace
}  // namespace vusion
