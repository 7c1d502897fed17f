#!/usr/bin/env python3
"""Runs workloads of the wave benchmark on several seeds and reports, per
end-to-end metric, the median and the spread -- the distance between the
first and third quartile as a share of the median -- against the bound in
BENCHMARK.json.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]
                                [--label NAME] [--compare OTHER_LABEL]

Every run goes through perfbench/run.py, so each one is also checked for
correctness.  Results are kept in .bench_out/spread-<label>.json; --compare
reads an earlier label and reports, per metric, how far this set's median
moved from it (positive = worse), which is how two sets of runs of one
commit are shown to agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--label", default="latest")
    ap.add_argument("--compare")
    args = ap.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    runs = {}
    ok = True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=False)
            result = json.loads(done.stdout.strip().splitlines()[-1]) \
                if done.stdout.strip() else None
            if done.returncode != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {done.returncode})")
                ok = False
                continue
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs[workload].append(values)
            print(f"{workload} seed {seed}: " +
                  " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)

    previous = None
    if args.compare:
        with open(os.path.join(ROOT, ".bench_out", f"spread-{args.compare}.json"),
                  encoding="utf-8") as f:
            previous = json.load(f)
    summary = {}
    print(f"\n{'workload':<16} {'metric':<14} {'median':>12} {'spread':>8} "
          f"{'bound/3':>8}" + (f" {'drift':>8}" if previous else ""))
    for workload, rows in runs.items():
        summary[workload] = {}
        for name, m in metrics.items():
            values = [r[name] for r in rows if name in r]
            if len(values) < 2:
                continue
            med, sp = spread(values)
            summary[workload][name] = {"median": med, "spread": sp, "values": values}
            line = (f"{workload:<16} {name:<14} {med:>12.6g} {sp:>8.1%} "
                    f"{m['bound'] / 3:>8.1%}")
            flag = name != "setup_s" and sp > m["bound"] / 3
            if previous and name in previous.get(workload, {}):
                old = previous[workload][name]["median"]
                drift = (med - old) / old if m["better"] == "lower" else (old - med) / old
                line += f" {drift:>8.1%}"
                flag = flag or drift > m["bound"]
            print(line + ("  <-- over" if flag else ""))
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", f"spread-{args.label}.json"), "w",
              encoding="utf-8") as f:
        json.dump(summary, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
