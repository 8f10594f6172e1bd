#!/usr/bin/env python3
"""Build and run the benchmark, and check its outputs.

    python3 perfbench/run.py --workload explore|fleet|chaos --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds `perfbench` (a package of its own
that depends on the repository's crates by path) into
$CARGO_TARGET_DIR, or `.bench_build` when that is unset, runs one
workload, compares every vehicle's `MissionReport::fingerprint` (and,
on chaos, the FNV-1a of each JSONL trace) with `expected.json`, and
prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--record` re-runs every seed class at the given --seconds and rewrites
`expected.json` (for one workload when --workload is given). The
binary reports how many seed classes there are. Only do that when a
change is meant to alter the simulated behaviour, and say so in
CHANGES.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
BENCHMARK = os.path.join(HERE, "..", "BENCHMARK.json")
WORKLOADS = ("explore", "fleet", "chaos")


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def run(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench: {workload} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("perfbench: no output")
    return json.loads(lines[-1])


def mismatches(workload, units, expected):
    """Describe every unit whose outputs differ from the recording."""
    recorded = expected.get(workload, {})
    bad = []
    for unit in units:
        want = recorded.get(str(unit["seed"]))
        if want is None:
            bad.append(f"unit seed {unit['seed']}: nothing recorded")
        elif unit["fingerprints"] != want["fingerprints"]:
            bad.append(f"unit seed {unit['seed']}: mission reports differ from expected.json")
        # The traced run's chaos repeat with tracing off has no trace.
        elif unit["trace"] is not None and unit["trace"] != want["trace"]:
            bad.append(f"unit seed {unit['seed']}: trace differs from expected.json")
    return bad


def check_names(metrics, trace):
    """Exit unless the run printed exactly the metrics BENCHMARK.json names."""
    with open(BENCHMARK) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    want = sorted((m["name"], m["unit"]) for m in declared)
    got = sorted((name, m["unit"]) for name, m in metrics.items())
    if want != got:
        sys.exit(f"perfbench: metrics {got} do not match BENCHMARK.json {want}")


def record(binary, seconds, workloads):
    expected = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as f:
            expected = json.load(f)
    for workload in workloads:
        units = {}
        seed, seed_classes = 0, 1
        while seed < seed_classes:
            out = run(binary, workload, seed, seconds, 0)
            seed_classes = out["seed_classes"]
            for unit in out["units"]:
                units[str(unit["seed"])] = {
                    "fingerprints": unit["fingerprints"],
                    "trace": unit["trace"],
                }
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
            seed += 1
        expected[workload] = units
    # One unit per line keeps the file diffable.
    lines = []
    for workload in sorted(expected):
        units = expected[workload]
        rows = [f'  "{seed}": {json.dumps(units[seed], sort_keys=True)}'
                for seed in sorted(units, key=int)]
        lines.append(f'"{workload}": {{\n' + ",\n".join(rows) + "\n }")
    with open(EXPECTED, "w") as f:
        f.write("{\n " + ",\n ".join(lines) + "\n}\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="rewrite expected.json for every seed class "
                        "(of --workload only, when given)")
    args = p.parse_args()

    binary = build()
    if args.record:
        record(binary, args.seconds,
               [args.workload] if args.workload else WORKLOADS)
        return
    if args.workload is None:
        p.error("--workload is required")

    out = run(binary, args.workload, args.seed, args.seconds, args.trace)
    check_names(out["metrics"], args.trace)
    with open(EXPECTED) as f:
        expected = json.load(f)
    bad = mismatches(args.workload, out["units"], expected)
    for line in bad:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not bad,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }))


if __name__ == "__main__":
    main()
