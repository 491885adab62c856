// perfbench: runs one benchmark workload in rounds for a given number of host
// seconds and prints one JSON record per line, for perfbench/run.py to check
// and summarize:
//
//   env   {...}  content ISA, nproc, compiler, build type
//   round {...}  one per round: timings, counts, simulated digest, failures
//   check {...}  fleet_step only: an extra round at 2 host threads
//   trace {...}  traced runs only: pooled span percentiles
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--smoke] [--trace-out FILE]
//
// A traced run alternates untraced and traced rounds, so the same process
// gives both the tracing overhead and a traced-versus-untraced digest check.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "src/phys/content_isa.h"
#include "src/probe.h"
#include "src/sim/json.h"
#include "src/workloads.h"

extern char** environ;

namespace perfbench {
namespace {

using vusion::Json;

// fleet_step's timed rounds step the fleet on one host thread; its check
// round runs the pooled path at two. Timed at two, a quantum waits whenever
// the pool's worker wakes on a CPU another process is using: on a shared
// 4-CPU host, two busy loops elsewhere made the timed rounds 3x slower,
// against 1.1x at one thread.
constexpr std::size_t kTimedFleetThreads = 1;
constexpr std::size_t kCheckFleetThreads = 2;

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

// The simulator applies VUSION_* overrides silently (scan threads, streaming,
// chunking, delta scanning, fleet threads, content ISA, unbatched charges);
// any of them would change the measured program, so refuse to run.
void RefuseOverrides() {
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "VUSION_", 7) == 0) {
      const std::string name(*env, std::strcspn(*env, "="));
      std::fprintf(stderr, "perfbench: refusing to run with %s set; unset it\n", name.c_str());
      std::exit(3);
    }
  }
}

// Rounds run on CPUs chosen in rotation (fleet_step's check round: the next
// pair; the pool's worker inherits the main thread's set). On a shared host
// each CPU's speed drifts with its neighbours' load for tens of seconds;
// rotating makes every run sample all CPUs alike, so run medians drift far
// less than the speed of any one CPU.
void PinRound(std::size_t round, std::size_t cpus_wanted) {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  if (online <= 1) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t k = 0; k < cpus_wanted; ++k) {
    CPU_SET((round + k) % static_cast<std::size_t>(online), &set);
  }
  // Best effort: where the set is not allowed the round runs unpinned.
  sched_setaffinity(0, sizeof set, &set);
}

void Emit(const char* tag, const Json& record) {
  std::printf("%s %s\n", tag, record.Dump(0).c_str());
  std::fflush(stdout);
}

Json ToJson(const RoundResult& r, std::size_t index, bool traced, std::size_t threads) {
  Json j = Json::Object();
  j.Set("round", index);
  j.Set("traced", traced);
  j.Set("fleet_threads", threads);
  j.Set("setup_s", r.setup_s);
  j.Set("wall_s", r.wall_s);
  j.Set("access_s", r.access_s);
  j.Set("sim_ns", r.sim_ns);
  j.Set("pages_scanned", r.pages_scanned);
  j.Set("accesses", r.accesses);
  j.Set("wakes", r.wakes);
  j.Set("quanta", r.quanta);
  j.Set("checkpoints", r.checkpoints);
  j.Set("save_s", r.save_s);
  j.Set("restore_s", r.restore_s);
  j.Set("snapshot_bytes", r.snapshot_bytes);
  if (!r.quantum_ms.empty()) {
    j.Set("quantum_ms_p50", Percentile(r.quantum_ms, 0.50));
    j.Set("quantum_ms_p99", Percentile(r.quantum_ms, 0.99));
  }
  j.Set("failed", r.failed);
  Json notes = Json::Array();
  for (const std::string& n : r.notes) {
    notes.Push(n);
  }
  j.Set("notes", std::move(notes));
  j.Set("digest", r.digest);
  Json layer = Json::Object();
  for (const auto& [name, value] : r.layer) {
    layer.Set(name, value);
  }
  j.Set("layer", std::move(layer));
  return j;
}

// Self time per layer of the traced round just run, in ms.
Json SelfTimes(const Tracer& tracer) {
  const Tracer::LayerTotals totals = tracer.SelfTimeNs();
  Json j = Json::Object();
  for (std::size_t l = 0; l < totals.size(); ++l) {
    j.Set(LayerName(static_cast<Layer>(l)), totals[l] * 1e-6);
  }
  return j;
}

struct Samples {
  std::vector<double> access_ns;
  std::vector<double> fault_access_ns;
  std::vector<double> wake_us;

  void Add(const Tracer& tracer) {
    const auto append = [](std::vector<double>& to, const std::vector<double>& from,
                           double scale) {
      for (const double v : from) {
        to.push_back(v * scale);
      }
    };
    append(access_ns, tracer.SelfDurationsNs(Layer::kAccess), 1.0);
    append(fault_access_ns, tracer.SelfDurationsNs(Layer::kFaultAccess), 1.0);
    append(wake_us, tracer.SelfDurationsNs(Layer::kWake), 1e-3);
  }

  [[nodiscard]] Json ToJson() const {
    Json j = Json::Object();
    const auto put = [&j](const std::string& name, const std::vector<double>& v) {
      j.Set(name + "_p50", Percentile(v, 0.50));
      j.Set(name + "_p99", Percentile(v, 0.99));
      j.Set(name + "_samples", v.size());
    };
    put("kernel.access_ns", access_ns);
    put("kernel.fault_access_ns", fault_access_ns);
    put("fusion.wake_us", wake_us);
    return j;
  }
};

int Main(int argc, char** argv) {
  RefuseOverrides();
  Options options;
  double seconds = -1.0;
  int trace = -1;
  std::string trace_out;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value().c_str());
    } else if (arg == "--trace-out") {
      trace_out = value();
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      Usage("unknown argument " + arg);
    }
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    Usage("unknown workload '" + options.workload + "'");
  }
  if (!have_seed || seconds < 0 || (trace != 0 && trace != 1)) {
    Usage("--seed, --seconds and --trace 0|1 are required");
  }

  Json env = Json::Object();
  env.Set("workload", options.workload);
  env.Set("seed", options.seed);
  env.Set("smoke", options.smoke);
  env.Set("content_isa", vusion::ContentIsaName(vusion::ActiveContentOps().isa));
  env.Set("nproc", std::thread::hardware_concurrency());
  env.Set("compiler", PERFBENCH_COMPILER);
  env.Set("build_type", PERFBENCH_BUILD_TYPE);
  env.Set("fleet_threads", kTimedFleetThreads);
  Emit("env", env);

  const bool fleet = options.workload == "fleet_step";
  Tracer tracer;
  Samples samples;
  const std::uint64_t start = HostNowNs();
  std::size_t round = 0;
  std::uint64_t last_round_ns = 0;
  // At least one untraced (and, when tracing, one traced) round. After that a
  // round starts only if it would end within --seconds, judged by the last
  // round's length, so a run lasts --seconds rather than up to a round more.
  while (round < 2 ||
         static_cast<double>(HostNowNs() - start + last_round_ns) * 1e-9 <= seconds) {
    const std::uint64_t round_start = HostNowNs();
    const bool traced = trace == 1 && round % 2 == 1;
    if (traced) {
      tracer.StartRun(static_cast<std::uint32_t>(round));
    }
    PinRound(round, 1);
    options.verify_snapshot = round == 0;
    const RoundResult r = RunRound(options, kTimedFleetThreads, traced ? &tracer : nullptr);
    Json record = ToJson(r, round, traced, kTimedFleetThreads);
    // Peak so far: after round 0 it is one round's footprint; later rounds
    // add only what the allocator keeps back, which varies run to run.
    record.Set("peak_rss_mb", PeakRssMb());
    if (traced) {
      record.Set("self_ms", SelfTimes(tracer));
      samples.Add(tracer);
    }
    Emit("round", record);
    ++round;
    last_round_ns = HostNowNs() - round_start;
  }
  if (fleet) {
    // Fleet determinism: the same round on the pooled path must give the same
    // simulated digest.
    PinRound(round, kCheckFleetThreads);
    const RoundResult r = RunRound(options, kCheckFleetThreads, nullptr);
    Emit("check", ToJson(r, round, false, kCheckFleetThreads));
  }
  if (trace == 1) {
    Emit("trace", samples.ToJson());
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      out << tracer.Dump();
      if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
        return 1;
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
