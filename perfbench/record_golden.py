#!/usr/bin/env python3
"""Records the simulated-output digests the benchmark checks against.

    python3 perfbench/record_golden.py [--seeds 0-31] [--smoke]

Each (workload, seed) runs two rounds (plus fleet_step's 2-thread check round); the
digest is stored only if the run is internally consistent. Re-record only when
a change is meant to alter simulated outputs, and say so in CHANGES.md: a
digest that moves otherwise is a correctness failure, not a baseline to update.
"""

import argparse
import json

import run


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    binary = run.build()
    golden = run.load_golden()
    table = golden.setdefault("smoke" if args.smoke else "full", {})
    for workload in run.WORKLOADS:
        for seed in parse_seeds(args.seeds):
            records = run.run_binary(binary, workload, seed, 0, 0, smoke=args.smoke)
            failed, notes = run.check(records, workload, seed, args.smoke, {})
            if failed:
                raise SystemExit(f"{workload} seed {seed} failed its checks: {notes}")
            table.setdefault(workload, {})[str(seed)] = records["round"][0]["digest"]
            print(workload, seed, records["round"][0]["digest"], flush=True)
    with open(run.GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
