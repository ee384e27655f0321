#!/usr/bin/env python3
"""Do two sets of runs of the same code agree within the ledger's bounds?

Runs the command in BENCHMARK.json the way the benchmark driver does:
`--runs` times per workload, each time with another `--seed`, `--trace 0`.
For every (workload, end-to-end metric) it reports the spread, taken as
the distance between the first and third quartile of the values as a share
of their median, next to the metric's bound. With `--sets 2` (the default)
it does all of that twice and also compares the two medians. It then runs
every workload twice with `--trace 1` on one seed and checks that the count
metrics are identical.

Fails (exit 1) if a spread exceeds its bound, if a second median is worse
than the first by more than the bound, if a count differs, or if any run is
incorrect. Writes benchmark/results/agree.json.

    python3 benchmark/agree.py                       # the full check, ~30 min
    python3 benchmark/agree.py --runs 4 --sets 1 --workload net-durable
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Counts that must repeat exactly between two runs on one seed. The fsync
# count joins them only where a single client commits: with several connections
# group commit decides how many fsyncs are shared.
EXACT_COUNTS = [
    "cw.regions_audited_per_ckpt",
    "cw.bytes_folded_per_op",
    "cw.space_overhead_pct",
    "wal.log_bytes_per_op",
    "wal.durable_commits_per_txn",
    "net.frames_per_round_trip",
]
SINGLE_CLIENT = ["tpcb-baseline", "tpcb-datacw", "read-precheck"]


def run_once(manifest, workload, seed, seconds, trace):
    cmd = manifest["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    took = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    wanted = manifest["per_layer" if trace else "end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in wanted):
        sys.exit(f"{workload}: metrics {sorted(result['metrics'])}")
    return {name: m["value"] for name, m in result["metrics"].items()}, took


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set (default 10)")
    ap.add_argument("--sets", type=int, default=2, choices=[1, 2])
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--workload", action="append", help="restrict to these workloads")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--skip-counts", action="store_true", help="skip the --trace 1 count check")
    ap.add_argument("--counts-only", action="store_true", help="only the --trace 1 count check")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2: quartiles need two values")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    seconds = args.seconds or manifest["run_seconds"]
    workloads = [w["name"] for w in manifest["workloads"]]
    if args.workload:
        unknown = set(args.workload) - set(workloads)
        if unknown:
            ap.error(f"unknown workloads {sorted(unknown)}")
        workloads = args.workload

    ok = True
    report = {"seconds": seconds, "runs": args.runs, "sets": [], "medians": [], "counts": []}
    medians = []
    seed = args.first_seed
    for s in range(0 if args.counts_only else args.sets):
        values = {w: {m["name"]: [] for m in manifest["end_to_end"]} for w in workloads}
        for _ in range(args.runs):
            for w in workloads:
                metrics, took = run_once(manifest, w, seed, seconds, 0)
                for name, v in metrics.items():
                    values[w][name].append(v)
                print(f"set {s + 1} seed {seed} {w}: {took:.1f} s", file=sys.stderr)
            seed += 1
        medians.append({})
        print(f"\nset {s + 1}: {args.runs} runs per workload, {seconds} s each")
        print(f"{'workload':<15} {'metric':<15} {'median':>14} {'spread':>8} {'bound':>6}  verdict")
        for w in workloads:
            for m in manifest["end_to_end"]:
                vals = values[w][m["name"]]
                med, spr = statistics.median(vals), spread(vals)
                medians[s][(w, m["name"])] = med
                # The set-up time's spread is reported but not held to its bound.
                if spr <= m["bound"] / 3:
                    verdict = "steady"
                elif spr <= m["bound"] or m["name"] == "setup_s":
                    verdict = "within bound"
                else:
                    verdict, ok = "SPREAD EXCEEDS BOUND", False
                print(f"{w:<15} {m['name']:<15} {med:>14.4f} {spr:>8.2%} {m['bound']:>6.0%}  {verdict}")
                report["sets"].append({"set": s + 1, "workload": w, "metric": m["name"],
                                       "values": vals, "median": med, "spread": spr,
                                       "bound": m["bound"], "verdict": verdict})

    if len(medians) == 2:
        print("\nsecond set's median against the first")
        for w in workloads:
            for m in manifest["end_to_end"]:
                a, b = medians[0][(w, m["name"])], medians[1][(w, m["name"])]
                worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
                verdict = "agrees" if worse <= m["bound"] else "DISAGREES"
                ok &= worse <= m["bound"]
                print(f"{w:<15} {m['name']:<15} {a:>14.4f} {b:>14.4f} {worse:>+8.2%} worse  {verdict}")
                report["medians"].append({"workload": w, "metric": m["name"], "first": a,
                                          "second": b, "worse_by": worse, "verdict": verdict})

    if not args.skip_counts:
        print("\ncount metrics, two --trace 1 runs on one seed")
        for w in workloads:
            a, _ = run_once(manifest, w, args.first_seed, seconds, 1)
            b, _ = run_once(manifest, w, args.first_seed, seconds, 1)
            names = EXACT_COUNTS + (["wal.fsyncs_per_txn"] if w in SINGLE_CLIENT else [])
            for name in names:
                same = a[name] == b[name]
                ok &= same
                print(f"{w:<15} {name:<30} {a[name]:>14.4f} {b[name]:>14.4f}  {'identical' if same else 'DIFFERS'}")
                report["counts"].append({"workload": w, "metric": name, "first": a[name],
                                         "second": b[name], "identical": same})

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "agree.json"), "w") as f:
        json.dump(report, f, indent=2)
    print("\nagreement: " + ("holds" if ok else "FAILS"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
