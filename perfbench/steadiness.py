"""Run one workload under several seeds and report each end-to-end
metric's spread (inter-quartile distance over median) against its bound
in ``BENCHMARK.json``.

Usage, from the repository root::

    python3 perfbench/steadiness.py --workload warm_replay --runs 10

Runs are sequential (the benchmark owns the host while it measures).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
        ), flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, series in values.items():
        share = metrics.spread(series)
        print(f"{name:<18} median {statistics.median(series):10.4f}  spread "
              f"{share:.4f}  bound {bounds[name]}  "
              f"{'ok' if share < bounds[name] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
