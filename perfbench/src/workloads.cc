#include "src/workloads.h"

#include <memory>
#include <optional>
#include <stdexcept>

#include "src/fleet/fleet.h"
#include "src/phys/content_isa.h"
#include "src/probe.h"
#include "src/workload/scenario.h"
#include "src/workload/spec_workload.h"

namespace perfbench {

namespace {

using vusion::EngineKind;
using vusion::FusionEngine;
using vusion::kMillisecond;
using vusion::kPageSize;
using vusion::kSecond;
using vusion::Machine;
using vusion::Process;
using vusion::ScanPhase;
using vusion::Scenario;
using vusion::ScenarioConfig;
using vusion::SimTime;
using vusion::VirtAddr;
using vusion::host::ScanTiming;

double Seconds(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

void Fail(RoundResult& r, const std::string& what) {
  ++r.failed;
  if (r.notes.size() < 5) {
    r.notes.push_back(what);
  }
}

// Everything read from one Machine around the measured phase.
struct Probe {
  Counters counters;
  ScanTiming timing;
  std::uint64_t pattern_hits = 0;
  std::uint64_t pattern_misses = 0;
};

Probe Sample(Machine& machine, FusionEngine* engine) {
  Probe p;
  p.counters = ReadCounters(machine, engine);
  if (engine != nullptr && engine->scan_timing() != nullptr) {
    p.timing = *engine->scan_timing();
  }
  const auto memo = machine.memory().pattern_hash_cache_stats();
  p.pattern_hits = memo.hits;
  p.pattern_misses = memo.misses;
  return p;
}

// Adds one Machine's measured-phase counts to the per-layer table, and its
// simulated time and scanned pages to the round.
void AddMachine(const Probe& before, const Probe& after, RoundResult& r) {
  Counters d = Delta(after.counters, before.counters);
  static constexpr std::pair<const char*, const char*> kCounts[] = {
      {"mmu.tlb_hits", "mmu.tlb_hits"},
      {"mmu.tlb_misses", "mmu.tlb_misses"},
      {"cache.l1_hits", "cache.hits{level=l1}"},
      {"cache.l1_misses", "cache.misses{level=l1}"},
      {"cache.llc_hits", "cache.hits{level=llc}"},
      {"cache.llc_misses", "cache.misses{level=llc}"},
      {"cache.frame_flushes", "cache.frame_flushes{level=llc}"},
      {"dram.row_hits", "dram.row_hits"},
      {"dram.row_conflicts", "dram.row_conflicts"},
      {"phys.buddy_allocs", "buddy.allocs"},
      {"phys.buddy_failed_allocs", "buddy.failed_allocs"},
      {"kernel.faults.policy", "fault.count{kind=policy}"},
      {"kernel.faults.demand_zero", "fault.count{kind=demand_zero}"},
      {"kernel.faults.cow", "fault.count{kind=cow}"},
      {"kernel.faults.spurious", "fault.count{kind=spurious}"},
      {"fusion.pages_scanned", "fusion.pages_scanned"},
      {"fusion.merges", "fusion.merges"},
      {"fusion.unmerges_cow", "fusion.unmerges_cow"},
      {"fusion.unmerges_coa", "fusion.unmerges_coa"},
      {"fusion.pool_draws", "pool.draws"},
  };
  for (const auto& [name, key] : kCounts) {
    r.layer[name] += static_cast<double>(d[key]);
  }
  r.layer["phys.pattern_hash_hits"] +=
      static_cast<double>(after.pattern_hits - before.pattern_hits);
  r.layer["phys.pattern_hash_misses"] +=
      static_cast<double>(after.pattern_misses - before.pattern_misses);
  const ScanTiming t = Minus(after.timing, before.timing);
  r.layer["fusion.scan_ms"] += static_cast<double>(t.scan_ns) * 1e-6;
  r.layer["host.phase1_cpu_ms"] += static_cast<double>(t.phase1_cpu_ns) * 1e-6;
  r.layer["host.phase1_wall_ms"] += static_cast<double>(t.phase1_wall_ns) * 1e-6;
  r.layer["host.merge_wall_ms"] += static_cast<double>(t.merge_wall_ns) * 1e-6;
  r.layer["host.speculative_hashes"] += static_cast<double>(t.speculative_hashes);
  r.layer["host.speculative_stale"] += static_cast<double>(t.speculative_stale);
  r.sim_ns += d["clock.now_ns"];
  r.pages_scanned += d["fusion.pages_scanned"];
  r.wakes += t.batches;
}

// The end-of-round checks every Machine gets: no failed frame allocation,
// then a checkpoint (save, restore, verify, compare digests).
void CheckMachine(Machine& machine, FusionEngine* engine, EngineKind kind, bool verify,
                  RoundResult& r, Tracer* tracer) {
  const std::uint64_t failed_allocs = machine.buddy().failed_alloc_count();
  if (failed_allocs != 0) {
    Fail(r, std::to_string(failed_allocs) + " failed buddy allocations");
  }
  const CheckpointResult cp = Checkpoint(machine, engine, kind, verify, tracer);
  r.save_s += cp.save_s;
  r.restore_s += cp.restore_s;
  r.snapshot_bytes += cp.bytes;
  ++r.checkpoints;
  for (const std::string& f : cp.failures) {
    Fail(r, f);
  }
}

// Opens a fusion.wake span at every kQuantumStart and closes it at the
// matching kQuantumEnd. Only armed on a traced serial run.
class WakeSpans {
 public:
  WakeSpans(FusionEngine* engine, Tracer* tracer)
      : engine_(tracer != nullptr ? engine : nullptr) {
    if (engine_ != nullptr) {
      engine_->SetPhaseHook([this, tracer](FusionEngine&, ScanPhase phase) {
        if (phase == ScanPhase::kQuantumStart) {
          open_ = tracer->Begin(Layer::kWake);
        } else if (phase == ScanPhase::kQuantumEnd) {
          tracer->End(open_);
        }
      });
    }
  }
  ~WakeSpans() {
    if (engine_ != nullptr) {
      engine_->SetPhaseHook(nullptr);
    }
  }
  WakeSpans(const WakeSpans&) = delete;
  WakeSpans& operator=(const WakeSpans&) = delete;

 private:
  FusionEngine* engine_;
  std::uint32_t open_ = 0;
};

// One timed Read64 (write=false) or Write64. On a traced run every
// sample_every-th access (by index) is a span standing for that many, classed
// as faulting when Machine::total_faults() moved.
std::uint64_t Access(Process& process, VirtAddr addr, bool write, std::uint64_t value,
                     std::uint64_t index, std::uint32_t sample_every, Tracer* tracer) {
  const auto issue = [&]() -> std::uint64_t {
    if (write) {
      process.Write64(addr, value);
      return value;
    }
    return process.Read64(addr);
  };
  if (tracer == nullptr || index % sample_every != 0) {
    return issue();
  }
  const Machine& machine = process.machine();
  const std::uint64_t faults = machine.total_faults();
  const std::uint32_t id = tracer->Begin(Layer::kAccess, sample_every);
  const std::uint64_t out = issue();
  tracer->End(id, machine.total_faults() != faults ? Layer::kFaultAccess : Layer::kAccess);
  return out;
}

void RunFor(Scenario& scenario, SimTime duration, Tracer* tracer) {
  const ScopedSpan span(tracer, Layer::kRunFor);
  scenario.RunFor(duration);
}

ScenarioConfig SerialConfig(EngineKind kind, std::uint64_t seed, std::size_t pages_per_wake) {
  ScenarioConfig config;
  config.engine = kind;
  config.machine.frame_count = 1u << 16;  // 256 MB
  config.machine.seed = seed;
  config.fusion.wake_period = 20 * kMillisecond;
  config.fusion.pages_per_wake = pages_per_wake;
  config.fusion.pool_frames = 4096;
  return config;
}

// Shared shape of the three single-Machine workloads: a timed set-up, a
// measured phase, then the checks. `measure` returns the workload's own
// outputs, which join the simulated digest.
template <typename Setup, typename Measure>
RoundResult RunSerial(const Options& o, Tracer* tracer, Setup setup, Measure measure) {
  RoundResult r;
  const std::uint64_t t0 = HostNowNs();
  std::optional<ScopedSpan> boot(std::in_place, tracer, Layer::kBoot);
  std::unique_ptr<Scenario> scenario = setup();
  boot.reset();
  const std::uint64_t t1 = HostNowNs();
  r.setup_s = Seconds(t0, t1);
  r.layer["workload.boot_ms"] = static_cast<double>(t1 - t0) * 1e-6;

  Machine& machine = scenario->machine();
  FusionEngine* engine = scenario->engine();
  Counters outputs;
  {
    const WakeSpans wakes(engine, tracer);
    const Probe before = Sample(machine, engine);
    const std::uint64_t m0 = HostNowNs();
    {
      const ScopedSpan round(tracer, Layer::kRound);
      outputs = measure(*scenario, r);
    }
    r.wall_s = Seconds(m0, HostNowNs());
    AddMachine(before, Sample(machine, engine), r);
  }
  Counters digest = ReadCounters(machine, engine);
  digest.insert(outputs.begin(), outputs.end());
  r.digest = Digest(digest);
  CheckMachine(machine, engine, scenario->config().engine, o.verify_snapshot, r, tracer);
  return r;
}

// --- spec_access: paper Fig 7 ---

RoundResult SpecAccess(const Options& o, Tracer* tracer) {
  struct Footprint {
    Process* process;
    vusion::SpecWorkload::Prepared prepared;
  };
  std::vector<Footprint> footprints;
  const auto setup = [&] {
    auto scenario = std::make_unique<Scenario>(
        SerialConfig(EngineKind::kVUsion, Mix(o.seed, 1), /*pages_per_wake=*/100));
    vusion::VmImageSpec guest;
    guest.total_pages = 2048;  // 8 MB
    for (std::uint64_t i = 0; i < 3; ++i) {
      scenario->BootVm(guest, Mix(o.seed, 10 + i));
    }
    for (const vusion::SyntheticBenchmark& bench : vusion::SpecWorkload::Suite()) {
      Process& process = scenario->machine().CreateProcess();
      footprints.push_back({&process, vusion::SpecWorkload::Prepare(process, bench)});
    }
    return scenario;
  };
  const auto measure = [&](Scenario& scenario, RoundResult& r) {
    RunFor(scenario, (o.smoke ? 5 : 60) * kSecond, tracer);
    // Accesses here cost a few hundred ns, so only one in 16 is a span (and
    // so is its draw from the generator); that keeps the tracing cost near
    // 3% while a host preemption caught in one sampled span, scaled by 16,
    // stays a small error.
    constexpr std::uint32_t kSampleEvery = 16;
    // The suite's accesses, scaled down (1/4, smoke 1/200) so that a round
    // fits several times into one run.
    const std::size_t scale = o.smoke ? 200 : 4;
    vusion::Rng rng(Mix(o.seed, 2));
    std::uint64_t index = 0;
    std::uint64_t read_xor = 0;
    const std::uint64_t a0 = HostNowNs();
    for (const Footprint& f : footprints) {
      const vusion::SyntheticBenchmark& bench = *f.prepared.bench;
      const auto hot_pages = std::max<std::size_t>(
          1, static_cast<std::size_t>(bench.hot_fraction *
                                      static_cast<double>(bench.footprint_pages)));
      for (std::size_t op = 0; op < bench.ops / scale; ++op, ++index) {
        const bool sampled = tracer != nullptr && index % kSampleEvery == 0;
        const std::uint32_t gen = sampled ? tracer->Begin(Layer::kGenerate, kSampleEvery) : 0;
        const bool hot = rng.NextBool(bench.hot_access_prob);
        const std::size_t page =
            hot ? rng.NextBelow(hot_pages)
                : hot_pages + rng.NextBelow(bench.footprint_pages - hot_pages);
        const VirtAddr addr = f.prepared.base + page * kPageSize + rng.NextBelow(kPageSize / 8) * 8;
        const bool write = rng.NextBool(bench.write_ratio);
        if (sampled) {
          tracer->End(gen);
        }
        const std::uint64_t value =
            Access(*f.process, addr, write, Mix(o.seed, index), index, kSampleEvery, tracer);
        read_xor ^= write ? 0 : value;
      }
    }
    r.access_s = Seconds(a0, HostNowNs());
    r.accesses = index;
    return Counters{{"workload.read_xor", read_xor}, {"workload.accesses", index}};
  };
  return RunSerial(o, tracer, setup, measure);
}

// --- idle_scan: paper Fig 10/11 ---

RoundResult IdleScan(const Options& o, Tracer* tracer) {
  const auto setup = [&] {
    auto scenario = std::make_unique<Scenario>(
        SerialConfig(EngineKind::kKsm, Mix(o.seed, 1), /*pages_per_wake=*/2000));
    for (std::size_t i = 0; i < 8; ++i) {
      vusion::VmImageSpec spec = vusion::VmImage::CatalogImage(i);
      spec.total_pages = 4096;  // 16 MB
      scenario->BootVm(spec, Mix(o.seed, 100 + i));
    }
    return scenario;
  };
  const auto measure = [&](Scenario& scenario, RoundResult&) {
    RunFor(scenario, (o.smoke ? 6 : 120) * kSecond, tracer);
    return Counters{};
  };
  return RunSerial(o, tracer, setup, measure);
}

// --- merge_churn: the copy-on-access merge/unmerge cycle ---

constexpr std::size_t kChurnProcesses = 4;

RoundResult MergeChurn(const Options& o, Tracer* tracer) {
  const std::size_t pages = o.smoke ? 512 : 4096;  // 16 MB per process
  std::vector<VirtAddr> bases;
  // Page i of every process starts with the same content (a 4-way duplicate)
  // and is always touched at the same word, so the benchmark knows what each
  // read must return.
  const auto content_seed = [&](std::size_t page) { return Mix(o.seed, 0x1000 + page); };
  const auto word = [](std::size_t page) { return (page * 37) % (kPageSize / 8); };
  const auto setup = [&] {
    auto scenario = std::make_unique<Scenario>(
        SerialConfig(EngineKind::kVUsion, Mix(o.seed, 1), /*pages_per_wake=*/1000));
    for (std::size_t p = 0; p < kChurnProcesses; ++p) {
      Process& process = scenario->machine().CreateProcess();
      const VirtAddr base =
          process.AllocateRegion(pages, vusion::PageType::kAnonymous, true, false);
      for (std::size_t i = 0; i < pages; ++i) {
        process.SetupMapPattern(vusion::VaddrToVpn(base) + i, content_seed(i));
      }
      bases.push_back(base);
    }
    return scenario;
  };
  const auto measure = [&](Scenario& scenario, RoundResult& r) {
    std::vector<std::uint64_t> shadow(kChurnProcesses * pages);
    for (std::size_t j = 0; j < shadow.size(); ++j) {
      shadow[j] = vusion::PatternWord(content_seed(j % pages), word(j % pages));
    }
    // Written values come from a small set, so written pages become
    // duplicates again and re-merge.
    std::uint64_t values[4];
    for (std::uint64_t v = 0; v < 4; ++v) {
      values[v] = Mix(o.seed, 0x2000 + v);
    }
    const std::vector<Process*> processes = [&] {
      std::vector<Process*> out;
      for (const auto& p : scenario.machine().processes()) {
        out.push_back(p.get());
      }
      return out;
    }();
    const std::size_t sweeps = o.smoke ? 2 : 8;
    std::uint64_t index = 0;
    double access_s = 0.0;
    for (std::size_t k = 0; k < sweeps; ++k) {
      RunFor(scenario, 2 * kSecond, tracer);
      const std::uint64_t a0 = HostNowNs();
      for (std::size_t j = 0; j < shadow.size(); ++j, ++index) {
        const std::size_t p = j / pages;
        const std::size_t i = j % pages;
        const std::uint64_t h = Mix(Mix(o.seed, k), j);
        const VirtAddr addr = bases[p] + i * kPageSize + word(i) * 8;
        const bool write = (h & 1) != 0;
        const std::uint64_t value = values[(h >> 1) & 3];
        // Every access here faults, and fault costs have a long tail that a
        // sample would misestimate; each costs microseconds, so all are spans.
        const std::uint64_t got =
            Access(*processes[p], addr, write, value, index, /*sample_every=*/1, tracer);
        if (write) {
          shadow[j] = value;
        } else if (got != shadow[j]) {
          Fail(r, "process " + std::to_string(p) + " page " + std::to_string(i) +
                      " read a value the benchmark did not write");
        }
      }
      access_s += Seconds(a0, HostNowNs());
    }
    r.access_s = access_s;
    r.accesses = index;
    std::uint64_t shadow_xor = 0;
    for (const std::uint64_t v : shadow) {
      shadow_xor = Mix(shadow_xor, v);
    }
    return Counters{{"workload.shadow", shadow_xor}, {"workload.accesses", index}};
  };
  return RunSerial(o, tracer, setup, measure);
}

// --- fleet_step: fleet stepping, timed serially, checked on the shared pool ---

constexpr std::size_t kFleetChurnPages = 512;

RoundResult FleetStep(const Options& o, std::size_t threads, Tracer* tracer) {
  RoundResult r;
  const std::uint64_t t0 = HostNowNs();
  std::optional<ScopedSpan> boot(std::in_place, tracer, Layer::kBoot);
  vusion::fleet::FleetConfig config;
  config.machine_count = o.smoke ? 4 : 8;
  config.host_threads = threads;
  config.quantum = 1 * kMillisecond;
  config.vms_per_machine = 2;
  config.scenario.engine = EngineKind::kVUsion;
  config.scenario.machine.frame_count = 1u << 13;  // 32 MB per Machine
  config.scenario.machine.seed = Mix(o.seed, 3);
  config.scenario.fusion.wake_period = 20 * kMillisecond;
  config.scenario.fusion.pages_per_wake = 100;
  config.scenario.fusion.pool_frames = 512;
  vusion::VmImageSpec guest;
  guest.total_pages = 1024;  // 4 MB
  vusion::VmImageSpec variant = guest;
  variant.stack_seed = 7;
  config.images = {guest, variant};
  vusion::fleet::Fleet fleet(config);
  fleet.BootAll();

  // A churn process per Machine, rewritten every quantum by the hook. The
  // hook touches only Machine m's state, as the fleet requires. It writes 4x
  // as many pages as bench_fleet_throughput's, so that its simulated accesses
  // are a sizeable share of every quantum, not only of the scanning ones.
  struct Churn {
    Process* process = nullptr;
    VirtAddr base = 0;
    std::uint64_t quantum = 0;
    std::uint64_t writes = 0;
    std::uint64_t written_xor = 0;
  };
  std::vector<Churn> churn(fleet.size());
  for (std::size_t m = 0; m < fleet.size(); ++m) {
    Process& process = fleet.member(m).machine().CreateProcess();
    const VirtAddr base =
        process.AllocateRegion(kFleetChurnPages, vusion::PageType::kAnonymous, true, false);
    for (std::size_t i = 0; i < kFleetChurnPages; ++i) {
      // A quarter of the pages are duplicates within and across Machines.
      const std::uint64_t seed = i % 4 == 0 ? Mix(o.seed, 0x300 + i % 64) : Mix(Mix(o.seed, m), i);
      process.SetupMapPattern(vusion::VaddrToVpn(base) + i, seed);
    }
    churn[m] = {&process, base};
  }
  fleet.SetQuantumHook([&churn, &o](std::size_t m, Scenario&) {
    Churn& c = churn[m];
    const std::uint64_t writes = 4 * (16 + Mix(m, c.quantum) % 48);
    for (std::uint64_t w = 0; w < writes; ++w) {
      const std::size_t page = Mix(m ^ 0xfeed, c.quantum * 131 + w) % kFleetChurnPages;
      const std::uint64_t value = Mix(o.seed ^ c.quantum, page);
      c.process->Write64(c.base + page * kPageSize + kPageSize - 8, value);
      c.written_xor ^= value;
    }
    c.writes += writes;
    ++c.quantum;
  });
  boot.reset();
  const std::uint64_t t1 = HostNowNs();
  r.setup_s = Seconds(t0, t1);
  r.layer["workload.boot_ms"] = static_cast<double>(t1 - t0) * 1e-6;

  std::vector<Probe> before;
  for (std::size_t m = 0; m < fleet.size(); ++m) {
    before.push_back(Sample(fleet.member(m).machine(), fleet.member(m).engine()));
  }
  const std::size_t first_cost = fleet.quantum_costs().size();
  const std::size_t quanta = o.smoke ? 50 : 4000;
  r.quantum_ms.reserve(quanta);
  const std::uint64_t m0 = HostNowNs();
  {
    const ScopedSpan round(tracer, Layer::kRound);
    for (std::size_t q = 0; q < quanta; ++q) {
      const std::uint64_t q0 = HostNowNs();
      {
        const ScopedSpan span(tracer, Layer::kQuantum);
        fleet.RunFor(config.quantum);
      }
      r.quantum_ms.push_back(static_cast<double>(HostNowNs() - q0) * 1e-6);
    }
  }
  r.wall_s = Seconds(m0, HostNowNs());
  r.quanta = quanta;

  const auto& costs = fleet.quantum_costs();
  if (costs.size() != first_cost + quanta) {
    throw std::logic_error("fleet: one quantum cost per RunFor(quantum) expected");
  }
  double step_sum = 0.0;
  double step_max = 0.0;
  double barrier = 0.0;
  for (std::size_t q = 0; q < quanta; ++q) {
    const auto& cost = costs[first_cost + q];
    step_sum += static_cast<double>(cost.sum_ns) * 1e-6;
    step_max += static_cast<double>(cost.max_ns) * 1e-6;
    barrier += r.quantum_ms[q] - static_cast<double>(cost.max_ns) * 1e-6;
  }
  r.layer["fleet.step_sum_ms"] = step_sum;
  r.layer["fleet.step_max_ms"] = step_max;
  r.layer["fleet.barrier_ms"] = barrier;

  Counters digest;
  for (std::size_t m = 0; m < fleet.size(); ++m) {
    Machine& machine = fleet.member(m).machine();
    FusionEngine* engine = fleet.member(m).engine();
    AddMachine(before[m], Sample(machine, engine), r);
    std::string prefix = "m";
    prefix += std::to_string(m);
    prefix += '.';
    for (const auto& [key, value] : ReadCounters(machine, engine)) {
      digest[prefix + key] = value;
    }
    digest[prefix + "workload.written_xor"] = churn[m].written_xor;
    r.accesses += churn[m].writes;
  }
  r.digest = Digest(digest);
  for (std::size_t m = 0; m < fleet.size(); ++m) {
    CheckMachine(fleet.member(m).machine(), fleet.member(m).engine(), EngineKind::kVUsion,
                 o.verify_snapshot, r, tracer);
  }
  return r;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"spec_access", "idle_scan", "merge_churn",
                                                  "fleet_step"};
  return kNames;
}

RoundResult RunRound(const Options& options, std::size_t fleet_threads, Tracer* tracer) {
  if (options.workload == "spec_access") {
    return SpecAccess(options, tracer);
  }
  if (options.workload == "idle_scan") {
    return IdleScan(options, tracer);
  }
  if (options.workload == "merge_churn") {
    return MergeChurn(options, tracer);
  }
  if (options.workload == "fleet_step") {
    return FleetStep(options, fleet_threads, tracer);
  }
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace perfbench
