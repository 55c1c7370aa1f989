#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload titin-seq --seed 2003 --seconds 15 --trace 0

Run from the repository root. The script builds perfbench (reprolib from
src/ plus the driver in this directory) into .bench_build, makes sure the
reference search's tops and cell count for the workload's input (and with
--trace 1 the scalar oracle's, checked against them) are cached in
.bench_cache, runs the workload, and records the host it ran on. The last
line on stdout is one JSON object with the keys correct, attempted, failed
and metrics; all other
output goes to stderr. --trace 1 prints the per-layer metrics instead of the
end-to-end ones and writes a Chrome trace-event file to .bench_out.

Exits non-zero without printing a result when the build, the oracle or the
run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("titin-seq", "titin-t4", "lowcomplex-seq", "titin-r4")
DEFAULT_SEED = 2003
# Reserved for confirming a performance claim on inputs its author did not
# tune against; do not use it while developing a change.
CONFIRM_SEED = 4241

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def run_step(cmd, timeout):
    """Runs cmd with its stdout captured and stderr passed through."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, timeout=timeout,
                            check=False)
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        raise RuntimeError(f"{os.path.basename(cmd[0])} exited with "
                           f"{result.returncode}")
    return result.stdout


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        sys.stderr.write(run_step(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"], timeout=300))
    sys.stderr.write(run_step(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j",
         str(min(4, os.cpu_count() or 1))], timeout=840))


def host_snapshot():
    with open("/proc/stat", encoding="ascii") as f:
        cpu = f.readline().split()
    with open("/proc/loadavg", encoding="ascii") as f:
        loadavg = " ".join(f.read().split()[:3])
    steal = int(cpu[8]) if len(cpu) > 8 else 0
    return {"steal_ticks": steal, "loadavg": loadavg, "time": time.time()}


def host_record(args, before, after, info):
    ticks = os.sysconf("SC_CLK_TCK")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "isa": info.get("engine", "unknown"),
        # The per-Gcell metrics' denominator, and the scalar oracle's count
        # (computed by --trace 1 runs only).
        "reference_gcells": float(info.get("reference_gcells", 0)),
        "oracle_gcells": (float(info["oracle_gcells"])
                          if "oracle_gcells" in info else None),
        "loadavg_before": before["loadavg"],
        "loadavg_after": after["loadavg"],
        "steal_s": (after["steal_ticks"] - before["steal_ticks"]) / ticks,
        "wall_s": round(after["time"] - before["time"], 3),
        "find_s": [float(x) for x in info.get("walls", "").split()],
        "probe_s": [float(x) for x in info.get("probes", "").split()],
        "running_s": [float(x) for x in info.get("running", "").split()],
        # setup_s before its scaling to the reference host speed, and the
        # probe time it was scaled by.
        "setup_raw_s": float(info.get("setup_raw_s", 0)),
        "setup_probe_s": float(info.get("setup_probe", 0)),
        "trace_file": info.get("trace"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        build()
        before = host_snapshot()
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--trace", str(args.trace)]
        run_step([BINARY, "oracle", *common], timeout=110)
        out = run_step([BINARY, "run", *common,
                        "--seconds", str(args.seconds)],
                       timeout=2 * args.seconds + 45)
        after = host_snapshot()
        raw = json.loads(out.strip().splitlines()[-1])
    except (OSError, RuntimeError, ValueError, IndexError,
            subprocess.TimeoutExpired) as e:
        log("failed:", e)
        return 1

    record = host_record(args, before, after, raw.get("info", {}))
    log("host", json.dumps(record))
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "host.jsonl"), "a", encoding="ascii") as f:
        f.write(json.dumps(record) + "\n")

    result = {key: raw[key] for key in ("correct", "attempted", "failed",
                                        "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
