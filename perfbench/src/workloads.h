// The benchmark's four workloads. One call runs one round: set up (construct
// and boot), the measured phase, then the checkpoint and checks. Every input
// is generated from the seed, so a round is exactly repeatable: the same seed
// gives the same simulated digest in every round, traced or not, and (for
// fleet_step) at any host thread count.
//
// Workloads set only these configuration fields: engine kind, scan rate,
// pool_frames, frame_count, and the fleet's quantum and host_threads.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/tracer.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool smoke = false;  // short sizes, for the benchmark's own tests
  // Also run snapshot::VerifySnapshot on the checkpoint. It repeats the timed
  // restore (with its audit) on a throwaway pair, so once per run suffices.
  bool verify_snapshot = true;
};

struct RoundResult {
  double setup_s = 0.0;   // construct + boot
  double wall_s = 0.0;    // the measured phase
  double access_s = 0.0;  // the part of the measured phase spent issuing accesses
  std::uint64_t sim_ns = 0;  // simulated time advanced (summed over fleet Machines)
  std::uint64_t pages_scanned = 0;
  std::uint64_t accesses = 0;
  std::uint64_t wakes = 0;
  std::uint64_t quanta = 0;
  std::vector<double> quantum_ms;  // fleet_step: host ms per quantum
  double save_s = 0.0;
  double restore_s = 0.0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t failed = 0;        // failed checks
  std::vector<std::string> notes;  // the first few failures, described
  std::string digest;              // simulated outputs of the round
  // Per-layer counts over the measured phase, and host timing the program
  // itself reports (ScanTiming, Fleet::quantum_costs).
  std::map<std::string, double> layer;
};

// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

// fleet_threads applies to fleet_step only. A non-null tracer records spans
// (and arms the fusion phase hook on the serial workloads).
RoundResult RunRound(const Options& options, std::size_t fleet_threads, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
