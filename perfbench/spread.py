"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sweep --seeds 1-10 [--trace 1]

Runs ``run.py`` once per seed, one run at a time, from the checkout root.
For every reported metric it prints the median, the quartiles and
(Q3 - Q1) / median. Exits nonzero if a run fails, reports incorrect
outputs, or misses a declared metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[section]}
    values: dict[str, list[float]] = {}
    ok = True
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed",
                                  str(seed), "--seconds", str(seconds),
                                  "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
            stats.validate_result(result, declared)
        except (IndexError, ValueError) as err:
            print(f"seed {seed}: no valid result ({err}); exit "
                  f"{proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            ok = False
            continue
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, correct "
                  f"{result['correct']}\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            ok = False
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={e['value']:.6g}" for n, e in result["metrics"].items()
            if not args.trace or n in ("bench.trace_overhead_ratio",)),
            flush=True)
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = stats.quartile_spread(vals) if q2 else float("nan")
        print(f"{name:34s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
