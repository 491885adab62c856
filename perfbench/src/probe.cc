#include "src/probe.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/kernel/process.h"
#include "src/snapshot/machine_snapshot.h"

namespace perfbench {

using vusion::FusionEngine;
using vusion::Machine;

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

namespace {

bool Deterministic(const std::string& name) {
  static constexpr const char* kPrefixes[] = {"fault.", "fusion.", "cache.", "dram.",
                                              "buddy.", "pool.",   "deferred_free."};
  return std::any_of(std::begin(kPrefixes), std::end(kPrefixes),
                     [&](const char* p) { return name.rfind(p, 0) == 0; });
}

}  // namespace

Counters ReadCounters(Machine& machine, FusionEngine* engine) {
  if (engine != nullptr) {
    engine->ExportMetrics(machine.metrics());
  }
  Counters out;
  for (const auto& e : machine.CollectMetrics().entries) {
    if (e.kind != vusion::MetricKind::kGauge && Deterministic(e.name)) {
      out[e.Key()] = e.count;
    }
  }
  std::uint64_t tlb_hits = 0;
  std::uint64_t tlb_misses = 0;
  for (const auto& process : machine.processes()) {
    if (process != nullptr) {
      tlb_hits += process->address_space().tlb().hits();
      tlb_misses += process->address_space().tlb().misses();
    }
  }
  out["mmu.tlb_hits"] = tlb_hits;
  out["mmu.tlb_misses"] = tlb_misses;
  out["clock.now_ns"] = machine.clock().now();
  out["fault.total"] = machine.total_faults();
  const std::uint64_t reserved = engine != nullptr ? engine->reserved_frames() : 0;
  out["frames.saved"] = engine != nullptr ? engine->frames_saved() : 0;
  out["frames.consumed"] = machine.memory().allocated_count() - reserved;
  return out;
}

Counters Delta(const Counters& after, const Counters& before) {
  Counters out;
  for (const auto& [key, value] : after) {
    const auto it = before.find(key);
    out[key] = value - (it == before.end() ? 0 : it->second);
  }
  return out;
}

std::string Digest(const Counters& counters) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto absorb = [&h](const std::string& s) {
    for (const unsigned char c : s) {
      h = (h ^ c) * 0x100000001b3ULL;
    }
  };
  for (const auto& [key, value] : counters) {
    absorb(key + '=' + std::to_string(value) + ';');
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

vusion::host::ScanTiming Minus(const vusion::host::ScanTiming& after,
                               const vusion::host::ScanTiming& before) {
  vusion::host::ScanTiming d;
  d.batches = after.batches - before.batches;
  d.scan_ns = after.scan_ns - before.scan_ns;
  d.phase1_cpu_ns = after.phase1_cpu_ns - before.phase1_cpu_ns;
  d.phase1_wall_ns = after.phase1_wall_ns - before.phase1_wall_ns;
  d.merge_wall_ns = after.merge_wall_ns - before.merge_wall_ns;
  d.items = after.items - before.items;
  d.speculative_hashes = after.speculative_hashes - before.speculative_hashes;
  d.speculative_stale = after.speculative_stale - before.speculative_stale;
  d.streamed_batches = after.streamed_batches - before.streamed_batches;
  return d;
}

CheckpointResult Checkpoint(Machine& machine, FusionEngine* engine, vusion::EngineKind kind,
                            bool verify, Tracer* tracer) {
  namespace snapshot = vusion::snapshot;
  CheckpointResult result;
  const std::string source = Digest(ReadCounters(machine, engine));
  std::string buffer;
  std::uint64_t t0 = HostNowNs();
  {
    const ScopedSpan span(tracer, Layer::kSave);
    buffer = snapshot::SaveSnapshot(machine, engine, kind);
  }
  std::uint64_t t1 = HostNowNs();
  result.save_s = static_cast<double>(t1 - t0) * 1e-9;
  result.bytes = buffer.size();
  try {
    snapshot::RestoredMachine restored;
    t0 = HostNowNs();
    {
      const ScopedSpan span(tracer, Layer::kRestore);
      restored = snapshot::RestoreSnapshot(buffer);
    }
    t1 = HostNowNs();
    result.restore_s = static_cast<double>(t1 - t0) * 1e-9;
    const std::string copy = Digest(ReadCounters(*restored.machine, restored.engine.get()));
    if (copy != source) {
      result.failures.push_back("restored machine digest " + copy + " != source " + source);
    }
    if (verify) {
      snapshot::VerifySnapshot(buffer);
    }
  } catch (const snapshot::RestoreError& e) {
    result.failures.push_back(std::string("snapshot failed verification: ") + e.what());
  }
  return result;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t k = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[k];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

}  // namespace perfbench
