#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default: .bench_build). Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. Untraced runs use
the `perfbench` binary; traced runs use `perfbench-traced`, which adds the
counting allocator behind `process.allocs_per_op`.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout
    and waits for it, so nothing outlives this script."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main(argv):
    traced = False
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            traced = value == "1"
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet", "--bins",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        code = run(build, BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 124
    if code != 0:
        print("perfbench: build failed (run from the repository root)", file=sys.stderr)
        return code if code > 0 else 1
    exe = os.path.join(target, "release", "perfbench-traced" if traced else "perfbench")
    try:
        code = run([exe] + argv, RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 124
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
