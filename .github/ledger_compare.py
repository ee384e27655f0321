#!/usr/bin/env python3
"""Compare two benchmark/results/agree.json files: parent, then change.

For every (workload, end-to-end metric) prints both medians, by how much
the change is worse, and a verdict:

  REGRESSION   worse than the parent by more than the metric's bound
  unresolved   the difference is inside the spread SPREADS.md recorded
               for that row (or inside this run's own spread, if wider)
  better/worse outside the spread, inside the bound

Exits 1 on any REGRESSION.

    python3 .github/ledger_compare.py parent.json change.json benchmark/SPREADS.md BENCHMARK.json
"""

import json
import sys


def rows(path):
    with open(path) as f:
        report = json.load(f)
    return {(r["workload"], r["metric"]): r for r in report["sets"] if r["set"] == 1}


def recorded_spreads(path):
    """(workload, metric) -> the wider of the two spreads in SPREADS.md's table."""
    out = {}
    with open(path) as f:
        for line in f:
            cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
            if len(cells) == 8 and cells[3].endswith("%") and cells[5].endswith("%"):
                out[(cells[0], cells[1])] = max(float(cells[3][:-1]), float(cells[5][:-1])) / 100
    return out


def main():
    parent, change, recorded = rows(sys.argv[1]), rows(sys.argv[2]), recorded_spreads(sys.argv[3])
    with open(sys.argv[4]) as f:
        higher_is_better = {m["name"] for m in json.load(f)["end_to_end"] if m["better"] == "higher"}
    failed = False
    print(f"{'workload':<15} {'metric':<15} {'parent':>14} {'change':>14} {'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    for key, p in parent.items():
        c = change[key]
        a, b = p["median"], c["median"]
        worse = (a - b) / a if key[1] in higher_is_better else (b - a) / a
        spread = max(recorded.get(key, 0.0), p["spread"], c["spread"])
        if worse > p["bound"]:
            verdict, failed = "REGRESSION", True
        elif abs(worse) <= spread:
            verdict = "unresolved"
        else:
            verdict = "worse" if worse > 0 else "better"
        print(f"{key[0]:<15} {key[1]:<15} {a:>14.4f} {b:>14.4f} {worse:>+9.2%} {spread:>7.2%} {p['bound']:>6.0%}  {verdict}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
