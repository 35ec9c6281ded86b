#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at reduced scale.

Usage (from the repository root): python3 roundbench/smoke.py

Runs every workload in BENCHMARK.json for one timed round (`--smoke`), once
with `--trace 0` and once with `--trace 1`, and asserts that each result
record passed its output checks and carries exactly the metrics
BENCHMARK.json names for that mode, each with its declared unit.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def check(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit code {proc.returncode}"]
    rec = json.loads(lines[-1])
    errors = []
    if sorted(rec) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(rec)}")
    if not rec.get("correct") or rec.get("failed") != 0 or rec.get("attempted", 0) < 1:
        errors.append(f"checks: correct={rec.get('correct')} attempted={rec.get('attempted')} "
                      f"failed={rec.get('failed')}")
    want = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in rec.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        errors.append(f"metrics: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for name, m in rec.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{name}: value {m.get('value')!r} is not a number")
    return errors


def main():
    failed = 0
    for w in (x["name"] for x in BENCH["workloads"]):
        for trace in (0, 1):
            errors = check(w, trace)
            print(f"{w} --trace {trace}: {'ok' if not errors else '; '.join(errors)}")
            failed += bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
