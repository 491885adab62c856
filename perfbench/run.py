#!/usr/bin/env python3
"""Simulator benchmark: builds perfbench from source, runs one workload, checks
its simulated outputs and prints every metric with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). With --trace 0 the last line of stdout is a
JSON object with the end-to-end metrics; with --trace 1 it has the per-layer
metrics of a traced run, and the spans are written to
<build dir>/traces/<workload>-<seed>.json. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
# BENCHMARK.json lists all but idle_scan, which runs the same way by hand.
WORKLOADS = ["spec_access", "idle_scan", "merge_churn", "fleet_step"]
RUN_TIMEOUT_S = 170

# name -> (unit, better); the order is the order printed.
END_TO_END = {
    "sim_ns_per_host_s": ("ns/s", "higher"),
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "pages_scanned_per_s": ("1/s", "higher"),
    "checkpoint_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Measured with tracing off too, but only on the workloads that have them, so
# they are printed in the table and not in the result line.
WORKLOAD_SPECIFIC = {
    "accesses_per_s": ("1/s", "higher"),
    "quantum_ms_p50": ("ms", "lower"),
    "quantum_ms_p99": ("ms", "lower"),
}

PER_LAYER = {
    "workload.boot_ms": ("ms", "lower"),
    "kernel.access_ns_p50": ("ns", "lower"),
    "kernel.access_ns_p99": ("ns", "lower"),
    "kernel.access_samples": ("count", "higher"),
    "kernel.fault_access_ns_p50": ("ns", "lower"),
    "kernel.fault_access_ns_p99": ("ns", "lower"),
    "kernel.fault_access_samples": ("count", "higher"),
    "kernel.faults.policy": ("count", "lower"),
    "kernel.faults.demand_zero": ("count", "lower"),
    "kernel.faults.cow": ("count", "lower"),
    "kernel.faults.spurious": ("count", "lower"),
    "kernel.daemon_ms": ("ms", "lower"),
    "mmu.tlb_hits": ("count", "higher"),
    "mmu.tlb_misses": ("count", "lower"),
    "cache.l1_hits": ("count", "higher"),
    "cache.l1_misses": ("count", "lower"),
    "cache.llc_hits": ("count", "higher"),
    "cache.llc_misses": ("count", "lower"),
    "cache.frame_flushes": ("count", "lower"),
    "dram.row_hits": ("count", "higher"),
    "dram.row_conflicts": ("count", "lower"),
    "phys.buddy_allocs": ("count", "lower"),
    "phys.buddy_failed_allocs": ("count", "lower"),
    "phys.pattern_hash_hits": ("count", "higher"),
    "phys.pattern_hash_misses": ("count", "lower"),
    "fusion.wake_us_p50": ("us", "lower"),
    "fusion.wake_us_p99": ("us", "lower"),
    "fusion.wake_samples": ("count", "higher"),
    "fusion.scan_ms": ("ms", "lower"),
    "fusion.pages_scanned": ("count", "higher"),
    "fusion.merges": ("count", "higher"),
    "fusion.unmerges_cow": ("count", "lower"),
    "fusion.unmerges_coa": ("count", "lower"),
    "fusion.merge_yield": ("1/1000", "higher"),
    "fusion.pool_draws": ("count", "lower"),
    "host.phase1_cpu_ms": ("ms", "lower"),
    "host.phase1_wall_ms": ("ms", "lower"),
    "host.merge_wall_ms": ("ms", "lower"),
    "host.speculative_stale_ratio": ("ratio", "lower"),
    "fleet.quantum_ms_p50": ("ms", "lower"),
    "fleet.quantum_ms_p99": ("ms", "lower"),
    "fleet.step_sum_ms": ("ms", "lower"),
    "fleet.step_max_ms": ("ms", "lower"),
    "fleet.barrier_ms": ("ms", "lower"),
    "snapshot.save_ms": ("ms", "lower"),
    "snapshot.restore_ms": ("ms", "lower"),
    "snapshot.bytes": ("bytes", "lower"),
    "self.kernel.access_pct": ("%", "lower"),
    "self.kernel.fault_access_pct": ("%", "lower"),
    "self.fusion.wake_pct": ("%", "lower"),
    "self.kernel.run_for_pct": ("%", "lower"),
    "self.workload.generate_pct": ("%", "lower"),
    "self.fleet.quantum_pct": ("%", "lower"),
    "self.unattributed_pct": ("%", "lower"),
    "trace.coverage_pct": ("%", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}


class BenchError(Exception):
    """The benchmark could not build or run; no result is printed."""


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise BenchError("build failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def run_binary(binary, workload, seed, seconds, trace, smoke=False, trace_out=None):
    """Runs perfbench and returns its records: {"env": {...}, "round": [...], ...}."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"perfbench timed out after {RUN_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"perfbench exited with {proc.returncode}")
    records = {"round": [], "check": []}
    for line in proc.stdout.splitlines():
        tag, _, body = line.partition(" ")
        value = json.loads(body)
        if tag in records:
            records[tag].append(value)
        else:
            records[tag] = value
    if not records["round"]:
        raise BenchError("perfbench printed no complete run")
    return records


def load_golden():
    with open(GOLDEN) as f:
        return json.load(f)


def check(records, workload, seed, smoke, golden):
    """Returns (failed, notes): every failed correctness check, counted."""
    failed = 0
    notes = []
    rounds = records["round"] + records["check"]
    for r in rounds:
        failed += r["failed"]
        notes += r["notes"]
    reference = rounds[0]["digest"]
    for r in rounds[1:]:
        if r["digest"] != reference:
            failed += 1
            what = "traced " if r["traced"] else ""
            notes.append(f"{what}round {r['round']} at {r['fleet_threads']} host thread(s) "
                         f"gave digest {r['digest']}, round 0 gave {reference}")
    recorded = golden.get("smoke" if smoke else "full", {}).get(workload, {}).get(str(seed))
    if recorded is None:
        notes.append(f"no recorded digest for {workload} seed {seed}; checked run-internal "
                      "determinism only")
    elif recorded != reference:
        failed += 1
        notes.append(f"digest {reference} != recorded {recorded} for {workload} seed {seed}")
    return failed, notes


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(records):
    rounds = [r for r in records["round"] if not r["traced"]]
    metrics = {
        "sim_ns_per_host_s": median([r["sim_ns"] / r["wall_s"] for r in rounds]),
        "wall_s": median([r["wall_s"] for r in rounds]),
        "setup_s": median([r["setup_s"] for r in rounds]),
        "pages_scanned_per_s": median([r["pages_scanned"] / r["wall_s"] for r in rounds]),
        "checkpoint_s": median([r["save_s"] + r["restore_s"] for r in rounds]),
        "peak_rss_mb": records["round"][0]["peak_rss_mb"],
    }
    specific = {}
    if rounds[0]["accesses"]:
        # Access phase where there is one; fleet_step's hook writes run inside
        # its quanta, so its rate is over the whole measured phase.
        specific["accesses_per_s"] = median(
            [r["accesses"] / (r["access_s"] or r["wall_s"]) for r in rounds])
    if "quantum_ms_p50" in rounds[0]:
        specific["quantum_ms_p50"] = median([r["quantum_ms_p50"] for r in rounds])
        specific["quantum_ms_p99"] = median([r["quantum_ms_p99"] for r in rounds])
    return metrics, specific


def per_layer(records):
    traced = [r for r in records["round"] if r["traced"]]
    untraced = [r for r in records["round"] if not r["traced"]]
    last = traced[-1]["layer"]

    def med(key):
        return median([r["layer"].get(key, 0.0) for r in traced])

    def self_pct(layer):
        return median([100.0 * r["self_ms"][layer] / (1e3 * r["wall_s"]) for r in traced])

    m = {name: last.get(name, 0.0) for name, (unit, _) in PER_LAYER.items() if unit == "count"}
    trace = records["trace"]
    m["kernel.access_samples"] = trace["kernel.access_ns_samples"]
    m["kernel.fault_access_samples"] = trace["kernel.fault_access_ns_samples"]
    m["fusion.wake_samples"] = trace["fusion.wake_us_samples"]
    for name in ("kernel.access_ns_p50", "kernel.access_ns_p99", "kernel.fault_access_ns_p50",
                 "kernel.fault_access_ns_p99", "fusion.wake_us_p50", "fusion.wake_us_p99"):
        m[name] = trace[name]
    for name in ("workload.boot_ms", "fusion.scan_ms", "fleet.step_sum_ms", "fleet.step_max_ms",
                 "fleet.barrier_ms"):
        m[name] = med(name)
    # fleet_step times its rounds at one host thread; the pooled scan path,
    # which alone fills ScanTiming's host fields, runs in its check round.
    pooled = records["check"] or traced
    for name in ("host.phase1_cpu_ms", "host.phase1_wall_ms", "host.merge_wall_ms"):
        m[name] = median([r["layer"].get(name, 0.0) for r in pooled])
    m["kernel.daemon_ms"] = median([r["self_ms"]["kernel.run_for"] for r in traced])
    scanned = last.get("fusion.pages_scanned", 0.0)
    m["fusion.merge_yield"] = 1000.0 * last.get("fusion.merges", 0.0) / scanned if scanned else 0.0
    hashes = pooled[-1]["layer"].get("host.speculative_hashes", 0.0)
    m["host.speculative_stale_ratio"] = (
        pooled[-1]["layer"].get("host.speculative_stale", 0.0) / hashes if hashes else 0.0)
    m["fleet.quantum_ms_p50"] = median([r.get("quantum_ms_p50", 0.0) for r in traced])
    m["fleet.quantum_ms_p99"] = median([r.get("quantum_ms_p99", 0.0) for r in traced])
    m["snapshot.save_ms"] = 1e3 * median([r["save_s"] for r in traced])
    m["snapshot.restore_ms"] = 1e3 * median([r["restore_s"] for r in traced])
    m["snapshot.bytes"] = traced[-1]["snapshot_bytes"]
    for layer in ("kernel.access", "kernel.fault_access", "fusion.wake", "kernel.run_for",
                  "workload.generate", "fleet.quantum"):
        m[f"self.{layer}_pct"] = self_pct(layer)
    m["self.unattributed_pct"] = self_pct("round")
    m["trace.coverage_pct"] = 100.0 - m["self.unattributed_pct"]
    m["trace.overhead_pct"] = 100.0 * (
        median([r["wall_s"] for r in traced]) / median([r["wall_s"] for r in untraced]) - 1.0)
    return m


def ops(records):
    rounds = records["round"]
    return sum(r["accesses"] + r["wakes"] + r["quanta"] + r["checkpoints"] for r in rounds)


def summarize(records, workload, seed, trace, smoke, golden):
    """The result object of one run, and the table lines printed before it."""
    failed, notes = check(records, workload, seed, smoke, golden)
    attempted = ops(records)
    env = records["env"]
    lines = [f"workload {workload}  seed {seed}  rounds {len(records['round'])}  "
             f"content_isa {env['content_isa']}  nproc {env['nproc']}  "
             f"compiler {env['compiler']}  build {env['build_type']}  "
             f"fleet_threads {env['fleet_threads']}",
             f"digest {records['round'][0]['digest']}"]
    if trace:
        values = per_layer(records)
        specs = PER_LAYER
    else:
        values, specific = end_to_end(records)
        specs = END_TO_END
        for name, value in specific.items():
            lines.append(f"  {name:<32} {value:>16.6g} {WORKLOAD_SPECIFIC[name][0]}")
        if "quantum_ms_p50" in specific:
            lines.append(f"  {'quantum_samples_per_round':<32} {records['round'][0]['quanta']:>16}")
    for name, (unit, _) in specs.items():
        lines.append(f"  {name:<32} {values[name]:>16.6g} {unit}")
    lines.append(f"  {'ops':<32} {attempted:>16}")
    lines.append(f"  {'failed_ops':<32} {failed:>16}")
    lines += ["note: " + n for n in notes]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in specs.items()},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true",
                        help="short workload sizes (the benchmark's own tests)")
    args = parser.parse_args(argv)
    try:
        binary = build()
        trace_out = None
        if args.trace:
            os.makedirs(os.path.join(build_dir(), "traces"), exist_ok=True)
            trace_out = os.path.join(build_dir(), "traces", f"{args.workload}-{args.seed}.json")
        records = run_binary(binary, args.workload, args.seed, args.seconds, args.trace,
                             args.smoke, trace_out)
        result, lines = summarize(records, args.workload, args.seed, args.trace, args.smoke,
                                  load_golden())
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
