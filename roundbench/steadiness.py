#!/usr/bin/env python3
"""Steadiness report: runs workloads once per seed and summarises each metric.

Usage (from the repository root):

    python3 roundbench/steadiness.py --workload paper_advanced [--workload ...]
        [--seeds 1-10] [--seconds N] [--trace 0] [--out runs.json] [--against old.json]

For every workload and metric it prints the sample count, the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread: the distance
between the quartiles as a share of the median. With `--trace 0` each spread
is compared with a third of the metric's bound in BENCHMARK.json (setup_s has
no spread limit). It also prints the longest run's wall time times the
4 + 22 x (workloads) runs of a full benchmark pass. `--out` saves the raw
results; `--against` compares these medians with a saved set and flags any that
got worse by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    """One run's result record, with the run's wall seconds added as `wall_s`."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    return dict(json.loads(lines[-1]), wall_s=time.monotonic() - start)


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    spread = (q3 - q1) / med if med else 0.0
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "spread": spread}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()

    bounds = {m["name"]: m for m in BENCH["end_to_end"]}
    old = json.loads(Path(args.against).read_text()) if args.against else {}
    results, ok = {}, True
    for w in args.workload:
        runs = [run_once(w, s, args.seconds, args.trace) for s in seeds(args.seeds)]
        results[w] = runs
        bad = [r for r in runs if not r["correct"] or r["failed"]]
        wall = max(r["wall_s"] for r in runs)
        print(f"{w}: {len(runs)} runs, {len(bad)} with failed checks, longest {wall:.1f} s")
        ok &= not bad
        for name in runs[0]["metrics"]:
            s = summary([r["metrics"][name]["value"] for r in runs])
            note = ""
            if name in bounds and args.trace == 0:
                bound = bounds[name]["bound"]
                if name != "setup_s":
                    steady = s["spread"] < bound / 3
                    ok &= steady
                    note += f" bound {bound} -> {'steady' if steady else 'NOT steady'}"
                if w in old:
                    base = statistics.median(r["metrics"][name]["value"] for r in old[w])
                    sign = 1 if bounds[name]["better"] == "lower" else -1
                    worse = sign * (s["median"] - base) / base if base else 0.0
                    agree = worse <= bound
                    ok &= agree
                    note += f"; vs saved median {base:.6g}: {worse:+.2%} {'ok' if agree else 'WORSE'}"
            print(f"  {name:<28} n={s['n']:<3} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.2%}{note}")
    # A full benchmark pass makes 4 + 22 x (workloads) runs.
    longest = max(r["wall_s"] for runs in results.values() for r in runs)
    total = 4 + 22 * len(BENCH["workloads"])
    print(f"{total} runs at the longest run's {longest:.1f} s: {total * longest:.0f} s")
    if args.out:
        Path(args.out).write_text(json.dumps(results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
