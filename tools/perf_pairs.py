#!/usr/bin/env python3
"""Compares end-to-end metrics of a base commit and the working tree.

    python3 tools/perf_pairs.py --base HEAD~1 --workload titin-t4 \
        --seed 2003 --pairs 10 [--history BENCH_history.jsonl]

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
than the base's IQR. With --history the same summary is appended to the
given file as one JSON line (base ref, head, workload, seed, pairs, and per
metric the medians, IQRs, change, wins and verdict). A run that fails or
reports an incorrect call stops the script with a non-zero exit and writes
no record. The temporary copy is removed at the end.
"""

import argparse
import datetime
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


def compare(metrics, pairs):
    """Per metric: both sides' median and IQR, the change of the medians in
    percent, the pairs the head won and the verdict.

    >>> s = compare([("find", "lower")],
    ...             [{"base": {"find": 10}, "head": {"find": 8}},
    ...              {"base": {"find": 12}, "head": {"find": 9}}])
    >>> s["find"]["base_p50"], s["find"]["head_p50"], s["find"]["wins"]
    (11.0, 8.5, 2)
    >>> round(s["find"]["change_pct"], 2), s["find"]["clear"]
    (-22.73, True)
    """
    summary = {}
    for name, better in metrics:
        base = [p["base"][name] for p in pairs]
        head = [p["head"][name] for p in pairs]
        bq1, bq3 = quartiles(base)
        hq1, hq3 = quartiles(head)
        bmed, hmed = statistics.median(base), statistics.median(head)
        summary[name] = {
            "base_p50": bmed, "base_iqr": bq3 - bq1,
            "head_p50": hmed, "head_iqr": hq3 - hq1,
            "change_pct": 100.0 * (hmed - bmed) / bmed if bmed else None,
            "wins": count_wins(base, head, better),
            "clear": is_clear(base, head, better),
        }
    return summary


def summarize(summary, npairs):
    print(f"\n{'metric':<28}{'base p50':>10}{'IQR':>9}{'head p50':>10}"
          f"{'IQR':>9}{'change':>9}{'wins':>7}  clear")
    for name, m in summary.items():
        change = m["change_pct"] if m["change_pct"] is not None else float("nan")
        print(f"{name:<28}{m['base_p50']:>10.4g}{m['base_iqr']:>9.3g}"
              f"{m['head_p50']:>10.4g}{m['head_iqr']:>9.3g}{change:>+8.1f}%"
              f"{m['wins']:>4}/{npairs:<2}  {'yes' if m['clear'] else 'no'}")


def history_record(args, head, summary, npairs):
    """The BENCH_history.jsonl line of one invocation.

    >>> class A: base, workload, seed = "f8a18bf", "titin-seq", 2003
    >>> rec = history_record(A, "f8a18bf-dirty", {"find": {"wins": 9}}, 10)
    >>> rec["base"], rec["head"], rec["pairs"], rec["metrics"]["find"]["wins"]
    ('f8a18bf', 'f8a18bf-dirty', 10, 9)
    """
    return {
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "base": args.base, "head": head, "workload": args.workload,
        "seed": args.seed, "pairs": npairs, "metrics": summary,
    }


def describe_head():
    """The working tree's commit, marked -dirty when it has changes."""
    return subprocess.run(["git", "describe", "--always", "--dirty"],
                          cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref to compare to")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--history",
                        help="append the summary to this JSON-lines file")
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
        summary = compare(metrics, pairs)
        summarize(summary, len(pairs))
        if args.history:
            record = history_record(args, describe_head(), summary, len(pairs))
            with open(args.history, "a", encoding="utf-8") as f:
                f.write(json.dumps(record) + "\n")
            log(f"appended the summary to {args.history}")
    except (RuntimeError, subprocess.CalledProcessError, KeyError) as e:
        log("failed:", e)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
