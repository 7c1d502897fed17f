#!/usr/bin/env python3
"""Builds and runs one workload of the PIF wave benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--size full|tiny]

Run from the root of a source checkout.  The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later runs
only re-check the build.  The workload itself is perfbench/wavebench.cpp.

Output on stdout: a human-readable report (end-to-end metrics with --trace 0,
the per-layer table with --trace 1), then as the LAST line one JSON object
with exactly the keys correct, attempted, failed and metrics.  The full
result -- host and seed stamp, every metric, the traced call sites and the
wave spans -- is written to .bench_out/<workload>-seed<n>-trace<t>.json.

Exit status: 0 when every check passed; 1 when a wave or episode failed or
the workload crashed; 2 when the sources are missing or do not build (no
result line is printed then).
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "wavebench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "pif", "soa_engine.hpp")):
        log(f"library sources not found under {os.path.join(ROOT, 'src')}")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return os.path.isfile(BINARY)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """sha256 over the benchmark and library sources, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(result, seed):
    b = result["build"]
    release = b["type"] == "Release" and b["ndebug"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": b["compiler"],
        "build_type": b["type"],
        "release": release,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "kernel": platform.release(),
    }


def fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1000:
        return f"{v:,.0f}"
    if abs(v) >= 1:
        return f"{v:.3f}"
    return f"{v:.4g}"


def render_end_to_end(result):
    lines = [f"{result['workload']}: end-to-end "
             f"({result['latency_samples']} latency samples)"]
    alias = {"wave_p50_ms": "first_cycle_p50_ms", "wave_p90_ms": "first_cycle_p90_ms",
             "waves_per_s": "episodes_per_s"}
    shown = dict(result["metrics"])
    shown["wave_p50_ms"] = {"value": result["wave_p50_ms"], "unit": "ms"}
    for name, m in shown.items():
        note = ""
        if result["workload"] == "central_recover" and name in alias:
            note = f"  (= {alias[name]})"
        if name not in result["metrics"]:
            note += "  (not bounded: see perfbench/README.md)"
        lines.append(f"  {name:<28} {fmt(m['value']):>14} {m['unit']}{note}")
    attempted = result["attempted"]
    lines.append(f"  {'fail_ratio':<28} {fmt(result['failed'] / max(attempted, 1)):>14}"
                 f"  ({result['failed']} of {attempted})")
    return lines


def render_per_layer(result):
    """Where the traced run's time went (self time per call site), then
    every per-layer metric.  The run is the traced phase plus any oracle
    replay after it (sync_waves)."""
    run_ns = result["traced_phase_ns"] + sum(
        s["end_ns"] - s["start_ns"] for s in result["spans"] if s["name"] == "oracle")
    run_ns = run_ns or 1
    sites = sorted(result["sites"], key=lambda s: -s["self_ns"])
    glue = max(run_ns - sum(s["self_ns"] for s in sites), 0)
    lines = [f"{result['workload']}: traced run {run_ns / 1e9:.3f} s, "
             f"trace.overhead_ratio "
             f"{result['metrics']['trace.overhead_ratio']['value']:.3f}",
             f"  {'layer (call site)':<22} {'calls':>12} {'self ms':>12} "
             f"{'self share':>10} {'mean us':>10}"]
    for s in sites:
        mean_us = s["total_ns"] / s["count"] / 1e3 if s["count"] else 0.0
        lines.append(f"  {s['name']:<22} {s['count']:>12,} {s['self_ns'] / 1e6:>12.1f} "
                     f"{s['self_ns'] / run_ns:>10.1%} {mean_us:>10.2f}")
    lines.append(f"  {'(benchmark loop)':<22} {'':>12} {glue / 1e6:>12.1f} "
                 f"{glue / run_ns:>10.1%}")
    lines.append("  per-layer metrics (0 = layer not exercised by this workload):")
    for name, m in result["metrics"].items():
        lines.append(f"    {name:<32} {fmt(m['value']):>14} {m['unit']}")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{args.workload} exited {done.returncode} without a result")
        return 1

    result["host"] = stamp(result, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)

    host = result["host"]
    print(f"host: {host['nproc']} cpus, {host['cpu_model']}; {host['compiler']}, "
          f"{host['build_type']} build; commit {host['commit'] or 'n/a'}; "
          f"source {host['source_sha256'][:12]}; seed {args.seed}")
    if not host["release"]:
        print("WARNING: not a Release build -- timings are not comparable")
    lines = render_per_layer(result) if args.trace else render_end_to_end(result)
    print("\n".join(lines))
    for why in result["failures"]:
        print(f"FAILED: {why}")
    print(f"full result: {os.path.relpath(out_path, ROOT)}")

    correct = done.returncode == 0 and result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
