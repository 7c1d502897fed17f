#!/usr/bin/env python3
"""Smoke test of the wave benchmark: every workload at a tiny size.

    python3 perfbench/smoke.py

For each workload it runs perfbench/run.py with --size tiny, untraced and
traced, and asserts that the run passed every check, that the last stdout
line has exactly the result keys, that every end-to-end (untraced) or
per-layer (traced) metric of BENCHMARK.json appears with its unit, that no
end-to-end metric reads 0, and that the full result carries the host and
seed stamp (plus call sites and wave spans when traced).  Finally it checks
that run.py refuses, with a nonzero exit and no result line, in a directory
holding only BENCHMARK.json and perfbench/.  Exit status 0 iff all hold.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = 1


def check_run(bench, workload, trace, problems):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace),
           "--size", "tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        problems.append(f"{where}: exit {done.returncode}\n{done.stderr[-2000:]}")
        return
    last = json.loads(done.stdout.strip().splitlines()[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(last)}")
    if not last["correct"] or last["failed"] != 0 or last["attempted"] < 1:
        problems.append(f"{where}: checks did not pass: {last}")
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {k: v["unit"] for k, v in last["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metric names/units differ: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"unit mismatches "
                        f"{sorted(k for k in want if k in got and got[k] != want[k])}")
    if not trace:
        zero = [k for k, v in last["metrics"].items() if not v["value"] > 0]
        if zero:
            problems.append(f"{where}: end-to-end metrics read 0: {zero}")
    with open(os.path.join(ROOT, ".bench_out",
                           f"{workload}-seed{SEED}-trace{trace}.json"),
              encoding="utf-8") as f:
        full = json.load(f)
    host = full.get("host", {})
    for key in ("nproc", "cpu_model", "compiler", "build_type", "commit",
                "source_sha256", "seed"):
        if key not in host:
            problems.append(f"{where}: host stamp lacks {key}")
    if trace and (not full.get("sites") or not full.get("spans")):
        problems.append(f"{where}: traced run recorded no call sites or spans")
    print(f"checked {where}: attempted {last['attempted']}", flush=True)


def check_bare_directory(problems):
    """run.py must refuse where only BENCHMARK.json and perfbench/ exist."""
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "udp_serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        problems.append(f"bare directory: exit {done.returncode}, "
                        f"stdout {done.stdout.strip()[:200]!r}")
    print("checked bare directory", flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, w["name"], trace, problems)
    check_bare_directory(problems)
    for p in problems:
        print(f"SMOKE FAIL: {p}")
    print("smoke: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
