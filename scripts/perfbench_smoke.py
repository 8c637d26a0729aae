#!/usr/bin/env python3
"""Smoke-runs the round-level benchmark and fails unless every run is correct.

    python3 scripts/perfbench_smoke.py

Run from the repository root. Builds perfbench/ through perfbench/run.py and
runs each workload for one second (untraced), plus one traced route_cd run,
which replays the router's rounds through the public layer calls and checks
the replay is identical. perfbench exits 0 even when its checks fail, so the
verdict comes from the result line (the last line of stdout): it must carry
"correct": true and "failed": 0. Exit status 1 on any failing run. Each
run's line also prints its round_ms_p50 and peak_rss_mb, one time and one
memory reading per workload for the log; they do not affect the verdict.
"""

import json
import subprocess
import sys

RUNS = [
    ("route_cd", 0),
    ("route_pd", 0),
    ("serve_mixed", 0),
    ("route_cd", 1),
]


def metric(result: dict, name: str) -> str:
    """One metric of a result line, rounded for the log ("-" if absent)."""
    value = result.get("metrics", {}).get(name, {}).get("value")
    return "-" if value is None else "%.1f" % value


def main() -> int:
    ok = True
    for workload, trace in RUNS:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {}
        passed = (proc.returncode == 0 and result.get("correct") is True
                  and result.get("failed") == 0)
        print("%-12s trace=%d  %-6s round_ms_p50 %s  peak_rss_mb %s  "
              "(exit %d, attempted %s, failed %s)" %
              (workload, trace, "ok" if passed else "FAILED",
               metric(result, "round_ms_p50"), metric(result, "peak_rss_mb"),
               proc.returncode, result.get("attempted"), result.get("failed")))
        if not passed:
            sys.stdout.write(proc.stdout)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
