#!/usr/bin/env python3
"""Builds the round benchmark from source and runs it.

Usage (from the repository root):

    python3 roundbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Every argument is passed to the benchmark binary (see src/main.rs), plus
`--commit`, which names the code measured. The binary prints its metrics and,
as the last line of standard output, one JSON result record. Cargo's build
output goes to standard error. The build honours CARGO_TARGET_DIR.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The binary must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def build():
    """Builds the release binary; returns its path, or None if the build failed."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"), "--message-format=json",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            return msg["executable"]
    return None


def commit_id():
    """The git commit when there is one, else a digest of the sources built."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", HERE / "Cargo.toml"]
    for tree in (ROOT / "crates", ROOT / "vendor", HERE / "src"):
        files += sorted(p for p in tree.rglob("*") if p.suffix in (".rs", ".toml"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:16]


def main():
    exe = build()
    if exe is None:
        print("roundbench: build failed", file=sys.stderr)
        return 1
    cmd = [exe] + sys.argv[1:] + ["--commit", commit_id()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"roundbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
