// Cross-engine property test: page fusion must be semantically invisible. Under
// every engine, a randomized workload of writes, reads, and idle periods must
// always read back exactly what it wrote, copy-on-write must isolate sharers, and
// the engine's savings accounting must stay consistent.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>

#include "src/chaos/invariant_auditor.h"
#include "src/fusion/engine_factory.h"
#include "src/kernel/process.h"

namespace vusion {
namespace {

// Post-run oracle: the whole machine (PTEs, refcounts, TLBs, caches, engine
// structures) must be consistent after any workload.
void ExpectAuditClean(Machine& machine, FusionEngine* engine) {
  InvariantAuditor auditor(machine);
  const AuditReport report = auditor.Audit(engine);
  EXPECT_GT(report.checks, 0u);
  for (const std::string& violation : report.violations) {
    ADD_FAILURE() << violation;
  }
}

struct ParityParam {
  ParityParam(EngineKind kind_in, std::uint64_t seed_in) : kind(kind_in), seed(seed_in) {}
  EngineKind kind;
  // gtest names each case by the parameter's raw bytes; an explicit zeroed field
  // keeps implicit padding (whatever the stack held) out of those names.
  std::uint32_t padding = 0;
  std::uint64_t seed;
};
static_assert(sizeof(ParityParam) == 16, "ParityParam must have no implicit padding");

class EngineParityTest : public ::testing::TestWithParam<ParityParam> {};

TEST_P(EngineParityTest, RandomWorkloadReadsBackWrites) {
  const ParityParam param = GetParam();
  MachineConfig machine_config;
  machine_config.frame_count = 1u << 14;
  machine_config.seed = param.seed;
  Machine machine(machine_config);
  FusionConfig fusion_config;
  fusion_config.wake_period = 1 * kMillisecond;
  fusion_config.pages_per_wake = 256;
  fusion_config.pool_frames = 1024;
  fusion_config.wpf_period = 20 * kMillisecond;
  ScopedEngine engine(param.kind, machine, fusion_config);

  constexpr std::size_t kProcesses = 3;
  constexpr std::size_t kPagesPerProcess = 96;
  std::vector<Process*> procs;
  std::vector<VirtAddr> bases;
  for (std::size_t p = 0; p < kProcesses; ++p) {
    Process& proc = machine.CreateProcess();
    procs.push_back(&proc);
    const VirtAddr base =
        proc.AllocateRegion(kPagesPerProcess, PageType::kAnonymous, true, false);
    bases.push_back(base);
    for (std::size_t i = 0; i < kPagesPerProcess; ++i) {
      // Deliberately many cross-process duplicates: seed space of 16.
      proc.SetupMapPattern(VaddrToVpn(base) + i, 0x9000 + (i % 16));
    }
  }

  // Reference model: (process, offset) -> last written value, or the pattern seed.
  std::map<std::pair<std::size_t, std::uint64_t>, std::uint64_t> written;
  PhysicalMemory probe(1);
  Rng rng(param.seed * 77 + 1);

  for (int step = 0; step < 1500; ++step) {
    const std::size_t p = rng.NextBelow(kProcesses);
    const std::size_t page = rng.NextBelow(kPagesPerProcess);
    const std::uint64_t offset = page * kPageSize + rng.NextBelow(kPageSize / 8) * 8;
    const VirtAddr addr = bases[p] + offset;
    switch (rng.NextBelow(4)) {
      case 0: {
        const std::uint64_t value = rng.Next();
        procs[p]->Write64(addr, value);
        written[{p, offset}] = value;
        break;
      }
      case 1: {
        const std::uint64_t got = procs[p]->Read64(addr);
        const auto it = written.find({p, offset});
        std::uint64_t want;
        if (it != written.end()) {
          want = it->second;
        } else {
          probe.FillPattern(0, 0x9000 + (page % 16));
          want = probe.ReadU64(0, offset % kPageSize);
        }
        ASSERT_EQ(got, want) << "engine=" << EngineKindName(param.kind) << " step=" << step
                             << " proc=" << p << " offset=" << offset;
        break;
      }
      case 2:
        machine.Idle(rng.NextInRange(1, 5) * kMillisecond);
        break;
      default:
        procs[p]->Prefetch(addr);
        break;
    }
  }

  // Long idle: give the engine time to fuse aggressively, then re-verify all state.
  machine.Idle(200 * kMillisecond);
  for (std::size_t p = 0; p < kProcesses; ++p) {
    for (std::size_t page = 0; page < kPagesPerProcess; page += 7) {
      const std::uint64_t offset = page * kPageSize;
      const auto it = written.find({p, offset});
      std::uint64_t want;
      if (it != written.end()) {
        want = it->second;
      } else {
        probe.FillPattern(0, 0x9000 + (page % 16));
        want = probe.ReadU64(0, 0);
      }
      ASSERT_EQ(procs[p]->Read64(bases[p] + offset), want)
          << "engine=" << EngineKindName(param.kind) << " final proc=" << p << " page=" << page;
    }
  }

  if (engine) {
    // Savings accounting sanity: saved frames never exceed total mergeable pages.
    EXPECT_LE(engine->frames_saved(), kProcesses * kPagesPerProcess);
  }
  ExpectAuditClean(machine, engine.get());
}

std::string ParamName(const ::testing::TestParamInfo<ParityParam>& info) {
  std::string name = EngineKindName(info.param.kind);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name + "_seed" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineParityTest,
    ::testing::Values(ParityParam{EngineKind::kNone, 1}, ParityParam{EngineKind::kKsm, 1},
                      ParityParam{EngineKind::kKsm, 2}, ParityParam{EngineKind::kKsmCoA, 1},
                      ParityParam{EngineKind::kKsmZeroOnly, 1},
                      ParityParam{EngineKind::kWpf, 1}, ParityParam{EngineKind::kWpf, 2},
                      ParityParam{EngineKind::kVUsion, 1},
                      ParityParam{EngineKind::kVUsion, 2},
                      ParityParam{EngineKind::kVUsionThp, 1}),
    ParamName);

// --- Fingerprint-ordering parity ---
//
// The fusion trees are ordered by (cached content hash, bytes-on-collision); the
// FusionConfig::byte_ordered_trees ablation restores the reference raw-memcmp
// ordering. The two orderings are a host-side implementation detail: every
// simulated statistic and every charged latency must be bit-identical. The clock
// comparison is the strong probe — daemon wake-ups reschedule relative to the
// charged time, so any divergence in the charge (or noise-RNG) stream shows up in
// the final simulated timestamp.

struct FingerprintResult {
  std::uint64_t pages_scanned = 0;
  std::uint64_t merges = 0;
  std::uint64_t fake_merges = 0;
  std::uint64_t unmerges_cow = 0;
  std::uint64_t unmerges_coa = 0;
  std::uint64_t zero_page_merges = 0;
  std::uint64_t full_scans = 0;
  std::uint64_t frames_saved = 0;
  SimTime final_time = 0;
};

FingerprintResult RunFingerprintScenario(EngineKind kind, bool byte_ordered) {
  MachineConfig machine_config;
  machine_config.frame_count = 1u << 14;
  machine_config.seed = 99;
  Machine machine(machine_config);
  FusionConfig fusion_config;
  fusion_config.wake_period = 1 * kMillisecond;
  fusion_config.pages_per_wake = 256;
  fusion_config.pool_frames = 1024;
  fusion_config.wpf_period = 20 * kMillisecond;
  fusion_config.byte_ordered_trees = byte_ordered;
  ScopedEngine engine(kind, machine, fusion_config);

  // Idle diverse VMs: cross-VM duplicates, per-VM unique pages, and some zero
  // pages. No writes after setup, so the trees never go stale and both orderings
  // must discover exactly the same matches.
  constexpr std::size_t kVms = 3;
  constexpr std::size_t kPages = 128;
  for (std::size_t p = 0; p < kVms; ++p) {
    Process& proc = machine.CreateProcess();
    const VirtAddr base = proc.AllocateRegion(kPages, PageType::kAnonymous, true, false);
    for (std::size_t i = 0; i < kPages; ++i) {
      if (i % 4 == 0) {
        proc.SetupMapPattern(VaddrToVpn(base) + i, 0x4400 + (i % 24));  // duplicates
      } else {
        proc.SetupMapPattern(VaddrToVpn(base) + i, 0x880000 + p * 4096 + i);  // unique
      }
    }
  }
  machine.Idle(300 * kMillisecond);

  const FusionStats& stats = engine->stats();
  FingerprintResult result;
  result.pages_scanned = stats.pages_scanned;
  result.merges = stats.merges;
  result.fake_merges = stats.fake_merges;
  result.unmerges_cow = stats.unmerges_cow;
  result.unmerges_coa = stats.unmerges_coa;
  result.zero_page_merges = stats.zero_page_merges;
  result.full_scans = stats.full_scans;
  result.frames_saved = engine->frames_saved();
  result.final_time = machine.clock().now();
  ExpectAuditClean(machine, engine.get());
  return result;
}

class FingerprintParityTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(FingerprintParityTest, HashAndByteOrderingsAreBitIdentical) {
  const EngineKind kind = GetParam();
  const FingerprintResult hashed = RunFingerprintScenario(kind, /*byte_ordered=*/false);
  const FingerprintResult bytes = RunFingerprintScenario(kind, /*byte_ordered=*/true);

  EXPECT_EQ(hashed.pages_scanned, bytes.pages_scanned);
  EXPECT_EQ(hashed.merges, bytes.merges);
  EXPECT_EQ(hashed.fake_merges, bytes.fake_merges);
  EXPECT_EQ(hashed.unmerges_cow, bytes.unmerges_cow);
  EXPECT_EQ(hashed.unmerges_coa, bytes.unmerges_coa);
  EXPECT_EQ(hashed.zero_page_merges, bytes.zero_page_merges);
  EXPECT_EQ(hashed.full_scans, bytes.full_scans);
  EXPECT_EQ(hashed.frames_saved, bytes.frames_saved);
  EXPECT_EQ(hashed.final_time, bytes.final_time);

  // The scenario must actually exercise matching, not compare two no-ops.
  if (kind != EngineKind::kMemoryCombining) {
    EXPECT_GT(hashed.merges + hashed.fake_merges, 0u);
    EXPECT_GT(hashed.frames_saved, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(KsmVUsionMc, FingerprintParityTest,
                         ::testing::Values(EngineKind::kKsm, EngineKind::kVUsion,
                                           EngineKind::kMemoryCombining),
                         [](const ::testing::TestParamInfo<EngineKind>& info) {
                           std::string name = EngineKindName(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// --- Batched-vs-unbatched charge parity ---
//
// The scan loops batch their latency charges (one clock Advance per flush
// instead of per charge). Batching is pure host-side mechanics: noise is drawn
// per charge in the same order and the clock is a pure sum, so disabling it
// (the VUSION_UNBATCHED_CHARGES ablation) must leave every simulated statistic
// and the final timestamp bit-identical — including across CoW unmerges, THP
// splits, and trace emits that read the clock mid-scan.

FingerprintResult RunBatchingScenario(EngineKind kind, bool batched) {
  MachineConfig machine_config;
  machine_config.frame_count = 1u << 14;
  machine_config.seed = 7;
  Machine machine(machine_config);
  machine.latency().set_batching_enabled(batched);
  FusionConfig fusion_config;
  fusion_config.wake_period = 1 * kMillisecond;
  fusion_config.pages_per_wake = 256;
  fusion_config.pool_frames = 1024;
  fusion_config.wpf_period = 20 * kMillisecond;
  ScopedEngine engine(kind, machine, fusion_config);

  constexpr std::size_t kVms = 3;
  constexpr std::size_t kPages = 128;
  std::vector<Process*> procs;
  std::vector<VirtAddr> bases;
  for (std::size_t p = 0; p < kVms; ++p) {
    Process& proc = machine.CreateProcess();
    procs.push_back(&proc);
    const VirtAddr base = proc.AllocateRegion(kPages, PageType::kAnonymous, true, false);
    bases.push_back(base);
    for (std::size_t i = 0; i < kPages; ++i) {
      if (i % 3 == 0) {
        proc.SetupMapPattern(VaddrToVpn(base) + i, 0x7700 + (i % 20));  // duplicates
      } else {
        proc.SetupMapPattern(VaddrToVpn(base) + i, 0x660000 + p * 4096 + i);
      }
    }
  }
  machine.Idle(120 * kMillisecond);
  // Fault merged pages apart and let the engine re-merge: exercises the
  // mid-scan flush points (trace emits, fault-path timed reads).
  Rng rng(1234);
  for (int step = 0; step < 200; ++step) {
    const std::size_t p = rng.NextBelow(kVms);
    const std::size_t page = rng.NextBelow(kPages);
    procs[p]->Write64(bases[p] + page * kPageSize, rng.Next());
    if (step % 10 == 0) {
      machine.Idle(2 * kMillisecond);
    }
  }
  machine.Idle(150 * kMillisecond);

  const FusionStats& stats = engine->stats();
  FingerprintResult result;
  result.pages_scanned = stats.pages_scanned;
  result.merges = stats.merges;
  result.fake_merges = stats.fake_merges;
  result.unmerges_cow = stats.unmerges_cow;
  result.unmerges_coa = stats.unmerges_coa;
  result.zero_page_merges = stats.zero_page_merges;
  result.full_scans = stats.full_scans;
  result.frames_saved = engine->frames_saved();
  result.final_time = machine.clock().now();
  ExpectAuditClean(machine, engine.get());
  return result;
}

class BatchingParityTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(BatchingParityTest, BatchedAndUnbatchedChargesAreBitIdentical) {
  const FingerprintResult batched = RunBatchingScenario(GetParam(), /*batched=*/true);
  const FingerprintResult unbatched = RunBatchingScenario(GetParam(), /*batched=*/false);

  EXPECT_EQ(batched.pages_scanned, unbatched.pages_scanned);
  EXPECT_EQ(batched.merges, unbatched.merges);
  EXPECT_EQ(batched.fake_merges, unbatched.fake_merges);
  EXPECT_EQ(batched.unmerges_cow, unbatched.unmerges_cow);
  EXPECT_EQ(batched.unmerges_coa, unbatched.unmerges_coa);
  EXPECT_EQ(batched.zero_page_merges, unbatched.zero_page_merges);
  EXPECT_EQ(batched.full_scans, unbatched.full_scans);
  EXPECT_EQ(batched.frames_saved, unbatched.frames_saved);
  EXPECT_EQ(batched.final_time, unbatched.final_time);
  EXPECT_GT(batched.merges + batched.fake_merges, 0u);
  EXPECT_GT(batched.unmerges_cow + batched.unmerges_coa, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, BatchingParityTest,
    ::testing::Values(EngineKind::kKsm, EngineKind::kVUsion, EngineKind::kWpf),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      std::string name = EngineKindName(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name;
    });

// --- Serial-vs-parallel scan parity ---
//
// FusionConfig::scan_threads parallelizes only phase 1 of the scan pipeline (host
// hashing against immutable frame snapshots); phase 2 replays the engine's scan
// body serially in canonical page order. Everything simulated — stats, saved
// frames, the full trace event stream, and the final clock value — must therefore
// be bit-identical for every thread count, with threads=1 as the serial reference.
// The workload deliberately churns page contents mid-run so the parallel hash
// phase races real invalidations (stale snapshots must be dropped, not installed).

struct ThreadedResult {
  FingerprintResult base;
  std::vector<TraceEvent> trace;
};

// `barrier` arms a no-op phase hook. KSM and VUsion then announce the kHashed
// boundary, which forces their pooled scans into the barrier shape; WPF hashes
// before its boundary either way, so its cells only add the hook's flushes.
ThreadedResult RunThreadedScenario(EngineKind kind, std::uint64_t seed,
                                   std::size_t threads, bool barrier = false,
                                   std::size_t chunk_pages = 0) {
  MachineConfig machine_config;
  machine_config.frame_count = 1u << 14;
  machine_config.seed = seed;
  Machine machine(machine_config);
  machine.trace().set_enabled(true);
  FusionConfig fusion_config;
  fusion_config.wake_period = 1 * kMillisecond;
  fusion_config.pages_per_wake = 256;
  fusion_config.pool_frames = 1024;
  fusion_config.wpf_period = 10 * kMillisecond;
  fusion_config.scan_threads = threads;
  fusion_config.scan_chunk_pages = chunk_pages;
  ScopedEngine engine(kind, machine, fusion_config);
  if (barrier) {
    engine->SetPhaseHook([](FusionEngine&, ScanPhase) {});
  }

  constexpr std::size_t kVms = 3;
  constexpr std::size_t kPages = 128;
  std::vector<Process*> procs;
  std::vector<VirtAddr> bases;
  for (std::size_t p = 0; p < kVms; ++p) {
    Process& proc = machine.CreateProcess();
    procs.push_back(&proc);
    const VirtAddr base = proc.AllocateRegion(kPages, PageType::kAnonymous, true, false);
    bases.push_back(base);
    for (std::size_t i = 0; i < kPages; ++i) {
      if (i % 3 == 0) {
        proc.SetupMapPattern(VaddrToVpn(base) + i, 0x5100 + (i % 20));  // duplicates
      } else {
        proc.SetupMapPattern(VaddrToVpn(base) + i, 0x770000 + p * 4096 + i);  // unique
      }
    }
  }

  // Deterministic churn: timed writes mutate contents (invalidating hash memos and
  // unmerging fused pages), interleaved with idle periods where the engine scans.
  Rng rng(seed * 131 + 7);
  for (int step = 0; step < 400; ++step) {
    const std::size_t p = rng.NextBelow(kVms);
    const std::size_t page = rng.NextBelow(kPages);
    if (rng.NextBelow(3) == 0) {
      machine.Idle(rng.NextInRange(1, 4) * kMillisecond);
    } else {
      procs[p]->Write64(bases[p] + page * kPageSize + rng.NextBelow(kPageSize / 8) * 8,
                        rng.Next());
    }
  }
  machine.Idle(150 * kMillisecond);

  const FusionStats& stats = engine->stats();
  ThreadedResult result;
  result.base.pages_scanned = stats.pages_scanned;
  result.base.merges = stats.merges;
  result.base.fake_merges = stats.fake_merges;
  result.base.unmerges_cow = stats.unmerges_cow;
  result.base.unmerges_coa = stats.unmerges_coa;
  result.base.zero_page_merges = stats.zero_page_merges;
  result.base.full_scans = stats.full_scans;
  result.base.frames_saved = engine->frames_saved();
  result.base.final_time = machine.clock().now();
  result.trace = machine.trace().Events();
  ExpectAuditClean(machine, engine.get());
  return result;
}

void ExpectThreadedResultsEqual(const ThreadedResult& want, const ThreadedResult& got,
                                const std::string& label) {
  EXPECT_EQ(want.base.pages_scanned, got.base.pages_scanned) << label;
  EXPECT_EQ(want.base.merges, got.base.merges) << label;
  EXPECT_EQ(want.base.fake_merges, got.base.fake_merges) << label;
  EXPECT_EQ(want.base.unmerges_cow, got.base.unmerges_cow) << label;
  EXPECT_EQ(want.base.unmerges_coa, got.base.unmerges_coa) << label;
  EXPECT_EQ(want.base.zero_page_merges, got.base.zero_page_merges) << label;
  EXPECT_EQ(want.base.full_scans, got.base.full_scans) << label;
  EXPECT_EQ(want.base.frames_saved, got.base.frames_saved) << label;
  EXPECT_EQ(want.base.final_time, got.base.final_time) << label;
  ASSERT_EQ(want.trace.size(), got.trace.size()) << label;
  for (std::size_t i = 0; i < want.trace.size(); ++i) {
    const TraceEvent& a = want.trace[i];
    const TraceEvent& b = got.trace[i];
    ASSERT_TRUE(a.time == b.time && a.type == b.type && a.process_id == b.process_id &&
                a.vpn == b.vpn && a.frame == b.frame)
        << label << ": event " << i << " diverged at time " << a.time << " vs " << b.time;
  }
}

struct ThreadedParam {
  ThreadedParam(EngineKind kind_in, std::uint64_t seed_in) : kind(kind_in), seed(seed_in) {}
  EngineKind kind;
  // gtest names each case by the parameter's raw bytes; an explicit zeroed field
  // keeps implicit padding (whatever the stack held) out of those names.
  std::uint32_t padding = 0;
  std::uint64_t seed;
};
static_assert(sizeof(ThreadedParam) == 16, "ThreadedParam must have no implicit padding");

class ScanThreadsParityTest : public ::testing::TestWithParam<ThreadedParam> {
 protected:
  void SetUp() override {
    // The TSan CI job forces scan_threads via the environment; this test owns the
    // thread count explicitly, so drop the override for the comparison to be real.
    unsetenv("VUSION_SCAN_THREADS");
    unsetenv("VUSION_SCAN_CHUNK");
  }
};

TEST_P(ScanThreadsParityTest, SerialAndParallelScansAreBitIdentical) {
  const ThreadedParam param = GetParam();
  const ThreadedResult serial = RunThreadedScenario(param.kind, param.seed, 1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const ThreadedResult parallel = RunThreadedScenario(param.kind, param.seed, threads);
    EXPECT_EQ(serial.base.pages_scanned, parallel.base.pages_scanned) << threads;
    EXPECT_EQ(serial.base.merges, parallel.base.merges) << threads;
    EXPECT_EQ(serial.base.fake_merges, parallel.base.fake_merges) << threads;
    EXPECT_EQ(serial.base.unmerges_cow, parallel.base.unmerges_cow) << threads;
    EXPECT_EQ(serial.base.unmerges_coa, parallel.base.unmerges_coa) << threads;
    EXPECT_EQ(serial.base.zero_page_merges, parallel.base.zero_page_merges) << threads;
    EXPECT_EQ(serial.base.full_scans, parallel.base.full_scans) << threads;
    EXPECT_EQ(serial.base.frames_saved, parallel.base.frames_saved) << threads;
    EXPECT_EQ(serial.base.final_time, parallel.base.final_time) << threads;
    ASSERT_EQ(serial.trace.size(), parallel.trace.size()) << threads;
    for (std::size_t i = 0; i < serial.trace.size(); ++i) {
      const TraceEvent& a = serial.trace[i];
      const TraceEvent& b = parallel.trace[i];
      ASSERT_TRUE(a.time == b.time && a.type == b.type && a.process_id == b.process_id &&
                  a.vpn == b.vpn && a.frame == b.frame)
          << "threads=" << threads << " event " << i << " diverged at time " << a.time
          << " vs " << b.time;
    }
  }
  // The scenario must exercise fusion and unmerge churn, not compare no-ops.
  EXPECT_GT(serial.base.merges + serial.base.fake_merges, 0u);
  EXPECT_GT(serial.trace.size(), 0u);
}

// The streaming pipeline (speculative hash + validated merge, DESIGN.md §14)
// must be bit-identical to the barrier shape (a phase hook is armed) and to the
// serial reference for every chunk size and thread count: chunk=1 maximizes
// handoff traffic and merge/hash interleaving, chunk=16 is a mid-grain,
// chunk >= pages_per_wake degenerates to one chunk (barrier-like), chunk=0 is
// the auto heuristic.
TEST_P(ScanThreadsParityTest, StreamingAndBarrierPipelinesAreBitIdentical) {
  const ThreadedParam param = GetParam();
  const ThreadedResult reference =
      RunThreadedScenario(param.kind, param.seed, 1, /*barrier=*/true);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    // Barrier shape at this thread count.
    ExpectThreadedResultsEqual(
        reference, RunThreadedScenario(param.kind, param.seed, threads, true),
        "barrier threads=" + std::to_string(threads));
    // Streaming shape across chunk sizes (256 = pages_per_wake: whole quantum).
    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{16}, std::size_t{256}, std::size_t{0}}) {
      ExpectThreadedResultsEqual(
          reference, RunThreadedScenario(param.kind, param.seed, threads, false, chunk),
          "streaming threads=" + std::to_string(threads) +
              " chunk=" + std::to_string(chunk));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScanningEngines, ScanThreadsParityTest,
    ::testing::Values(ThreadedParam{EngineKind::kKsm, 1}, ThreadedParam{EngineKind::kKsm, 2},
                      ThreadedParam{EngineKind::kKsm, 3}, ThreadedParam{EngineKind::kWpf, 1},
                      ThreadedParam{EngineKind::kWpf, 2}, ThreadedParam{EngineKind::kWpf, 3},
                      ThreadedParam{EngineKind::kVUsion, 1},
                      ThreadedParam{EngineKind::kVUsion, 2},
                      ThreadedParam{EngineKind::kVUsion, 3},
                      ThreadedParam{EngineKind::kVUsionThp, 1},
                      ThreadedParam{EngineKind::kVUsionThp, 2}),
    [](const ::testing::TestParamInfo<ThreadedParam>& info) {
      std::string name = EngineKindName(info.param.kind);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name + "_s" + std::to_string(info.param.seed);
    });

// Savings comparison: with heavy duplication, every fusing engine must save a
// significant fraction, and VUsion's savings must be in the same ballpark as KSM's
// (the paper's central capacity claim).
TEST(EngineComparisonTest, SavingsBallpark) {
  std::map<EngineKind, std::uint64_t> saved;
  for (const EngineKind kind : {EngineKind::kKsm, EngineKind::kWpf, EngineKind::kVUsion}) {
    MachineConfig machine_config;
    machine_config.frame_count = 1u << 14;
    Machine machine(machine_config);
    FusionConfig fusion_config;
    fusion_config.wake_period = 1 * kMillisecond;
    fusion_config.pages_per_wake = 512;
    fusion_config.pool_frames = 1024;
    fusion_config.wpf_period = 20 * kMillisecond;
    ScopedEngine engine(kind, machine, fusion_config);
    for (int p = 0; p < 4; ++p) {
      Process& proc = machine.CreateProcess();
      const VirtAddr base = proc.AllocateRegion(256, PageType::kAnonymous, true, false);
      for (std::size_t i = 0; i < 256; ++i) {
        proc.SetupMapPattern(VaddrToVpn(base) + i, 0x7100 + i);  // same across VMs
      }
    }
    machine.Idle(500 * kMillisecond);
    saved[kind] = engine->frames_saved();
  }
  // 4 x 256 identical images: ideal saving is 3 * 256 = 768 frames.
  EXPECT_GT(saved[EngineKind::kKsm], 700u);
  EXPECT_GT(saved[EngineKind::kWpf], 700u);
  EXPECT_GT(saved[EngineKind::kVUsion], 700u);
}

}  // namespace
}  // namespace vusion
