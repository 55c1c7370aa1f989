#!/usr/bin/env python3
"""Compares end-to-end metrics of a base commit and the working tree.

    python3 tools/perf_pairs.py --base HEAD~1 --workload titin-t4 \
        --seed 2003 --pairs 10

Run from anywhere inside the repository. The base commit is unpacked with
`git archive` into a temporary directory (under $TMPDIR), so its perfbench
build and reference cache are its own. Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in the base copy and once in the working tree, with T the
run_seconds of BENCHMARK.json, alternating which side runs first so that
drifts in host speed fall on both sides alike. The script prints each
pair's end-to-end metrics (the `end_to_end` list of BENCHMARK.json), then
per metric the median and interquartile range of each side, the change of
the medians and the number of pairs the working tree won. A gain is clear
when the working tree wins nearly every pair and its median moves by more
than the base's IQR. A run that fails or reports an incorrect call stops
the script with a non-zero exit. The temporary copy is removed at the end.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(*parts):
    print("perf_pairs:", *parts, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return bench["run_seconds"], [(m["name"], m["better"])
                                  for m in bench["end_to_end"]]


def unpack(ref, into):
    os.makedirs(into)
    archive = subprocess.run(["git", "archive", "--format=tar", ref],
                             cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def run_once(root, args, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-4000:])
        raise RuntimeError(f"run.py failed in {root} (exit {out.returncode})")
    result = json.loads(lines[-1])
    if result.get("failed", 1) != 0 or not result.get("correct", False):
        raise RuntimeError(f"incorrect or failed calls in {root}: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def count_wins(base, head, better):
    """Pairs where head reads better than base; ties count for neither."""
    sign = -1 if better == "lower" else 1
    return sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)


def is_clear(base, head, better):
    """A gain is clear when head wins at least 9 in 10 pairs and its median
    moves by more than the base's IQR.

    >>> is_clear([10, 11, 12, 10, 11], [8, 8, 9, 8, 8], "lower")
    True
    >>> is_clear([10, 10, 10, 10, 10, 10, 10, 10, 10, 10],
    ...          [5, 5, 5, 5, 5, 5, 11, 11, 11, 11], "lower")
    False
    >>> is_clear([10, 11, 12, 10, 11], [9.9, 10.9, 11.9, 9.9, 10.9], "lower")
    False
    """
    sign = -1 if better == "lower" else 1
    q1, q3 = quartiles(base)
    shift = sign * (statistics.median(head) - statistics.median(base))
    return (count_wins(base, head, better) * 10 >= 9 * len(base)
            and shift > q3 - q1)


def summarize(metrics, pairs):
    print(f"\n{'metric':<28}{'base p50':>10}{'IQR':>9}{'head p50':>10}"
          f"{'IQR':>9}{'change':>9}{'wins':>7}  clear")
    for name, better in metrics:
        base = [p["base"][name] for p in pairs]
        head = [p["head"][name] for p in pairs]
        bq1, bq3 = quartiles(base)
        hq1, hq3 = quartiles(head)
        bmed, hmed = statistics.median(base), statistics.median(head)
        wins = count_wins(base, head, better)
        change = 100.0 * (hmed - bmed) / bmed if bmed else float("nan")
        clear = is_clear(base, head, better)
        print(f"{name:<28}{bmed:>10.4g}{bq3 - bq1:>9.3g}{hmed:>10.4g}"
              f"{hq3 - hq1:>9.3g}{change:>+8.1f}%{wins:>4}/{len(pairs):<2}  "
              f"{'yes' if clear else 'no'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref to compare to")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    seconds, metrics = load_benchmark()
    tmp = tempfile.mkdtemp(prefix="perf_pairs_")
    try:
        base_root = os.path.join(tmp, "base")
        unpack(args.base, base_root)
        log(f"base {args.base} unpacked in {base_root}")
        pairs = []
        for k in range(args.pairs):
            order = [("base", base_root), ("head", ROOT)]
            if k % 2:
                order.reverse()
            pair = {side: run_once(root, args, seconds)
                    for side, root in order}
            pairs.append(pair)
            print(f"pair {k + 1} ({order[0][0]} first): " + "  ".join(
                f"{name} {pair['base'][name]:.4g} -> {pair['head'][name]:.4g}"
                for name, _ in metrics), flush=True)
        summarize(metrics, pairs)
    except (RuntimeError, subprocess.CalledProcessError, KeyError) as e:
        log("failed:", e)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
