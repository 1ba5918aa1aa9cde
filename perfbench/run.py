#!/usr/bin/env python3
"""Builds and runs the contfield real-clock benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload warm_q2|cold_q2|ingest_mixed \
        --seed N --seconds S --trace 0|1

The benchmark package (perfbench/Cargo.toml) is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the repository root),
then run with the given arguments. Its scratch files (file-backed
databases, the traced run's span dump) go under the same directory. The
last line of standard output is the JSON result; build failures exit
non-zero without printing one.
"""

import os
import subprocess
import sys


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    repo_root = os.path.dirname(bench_dir)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(repo_root, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            [
                "cargo",
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                os.path.join(bench_dir, "Cargo.toml"),
            ],
            env=env,
            stdout=sys.stderr,
        )
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    data_dir = os.path.join(target, "perfbench-data")
    run = subprocess.run([binary, *sys.argv[1:], "--data-dir", data_dir])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
