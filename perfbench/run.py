#!/usr/bin/env python3
"""Build the liair benchmark and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <rhf-fragments|bomd-h2|serve-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Builds this package in release mode (into $CARGO_TARGET_DIR, default
`.bench_build` at the checkout root), runs the workload and passes its
output through; the last line is the JSON result. Traced runs write their
spans under `perfbench/out/`. Exits non-zero, printing no result, when the
build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run prints its result within this many seconds, or is stopped.
RUN_TIMEOUT_S = 170


def commit_id():
    """The checked-out commit, or "unknown" outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "liair-perfbench")
    cmd = [binary] + argv + ["--commit", commit_id(), "--out-dir", os.path.join(HERE, "out")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if run.returncode != 0:
        # No result on a failed run: its partial output goes to stderr.
        sys.stderr.write(run.stdout)
        print(f"perfbench: run exited with {run.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
