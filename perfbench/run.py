#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload route_cd --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under perfbench/, configured Release on first use; build
output goes to stderr so the benchmark's result line stays the last line
of stdout. Traced runs write their Chrome trace files to <build>/traces.
Arguments are passed through to the perfbench executable.
"""

import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=root).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1

    cmd = [str(build_dir / "perfbench"), *sys.argv[1:],
           "--trace-dir", str(build_root / "traces")]
    try:
        return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
