// Observation helpers shared by the workloads: the simulated-output digest,
// per-layer counters read through the simulator's public calls, and the
// save -> restore -> verify checkpoint.

#ifndef PERFBENCH_SRC_PROBE_H_
#define PERFBENCH_SRC_PROBE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/fusion/engine_factory.h"
#include "src/host/parallel_scan.h"
#include "src/kernel/machine.h"
#include "src/tracer.h"

namespace perfbench {

std::uint64_t Mix(std::uint64_t a, std::uint64_t b);

// Every simulated output of one Machine the benchmark checks, by name: the
// registry's deterministic counters (FusionStats, faults by kind, caches,
// DRAM, buddy allocator, entropy pool), TLB hits and misses, frames saved and
// consumed, and the virtual clock. Host-side counters (the pattern-hash memo,
// speculative hashing) vary with thread interleaving and are left out.
using Counters = std::map<std::string, std::uint64_t>;

Counters ReadCounters(vusion::Machine& machine, vusion::FusionEngine* engine);

// after - before, for every key of `after`.
Counters Delta(const Counters& after, const Counters& before);

// FNV-1a over "key=value;" in key order, as 16 hex digits.
std::string Digest(const Counters& counters);

// after - before, field by field, of the engine's scan-section host timing.
vusion::host::ScanTiming Minus(const vusion::host::ScanTiming& after,
                               const vusion::host::ScanTiming& before);

struct CheckpointResult {
  double save_s = 0.0;
  double restore_s = 0.0;
  std::uint64_t bytes = 0;
  std::vector<std::string> failures;
};

// SaveSnapshot + RestoreSnapshot of a (Machine, engine) pair, both timed; then,
// untimed, a digest comparison of the restored pair against the source and,
// if `verify`, VerifySnapshot of the buffer.
CheckpointResult Checkpoint(vusion::Machine& machine, vusion::FusionEngine* engine,
                            vusion::EngineKind kind, bool verify, Tracer* tracer);

// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

// Peak resident set of this process, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBE_H_
