"""Run one workload with ten seeds and report, per end-to-end metric, the
median and the interquartile range as a share of the median; for the
metrics in reference seconds, also of their measured seconds.

    python3 perfbench/spread.py --workload fig10-cold

Each run measures for ``run_seconds`` from ``BENCHMARK.json``.  This is
the steadiness check: a later change's medians are compared with a
parent's, so each metric's spread across runs must stay well inside its
bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, spread

RUN = Path(__file__).resolve().parent / "run.py"
RUNS = 10


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    values: dict[str, list[float]] = {}
    for seed in range(1, RUNS + 1):
        command = [
            sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        start = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True)
        took = time.perf_counter() - start
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return 1
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        raw = json.loads(next(line for line in lines if line.startswith("raw {"))[4:])
        for name, value in raw.items():
            values.setdefault(f"{name} measured", []).append(value)
        print(f"seed {seed} ({took:.1f}s): " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ) + " measured " + " ".join(f"{name}={value:.4g}" for name, value in raw.items()), flush=True)
    for name, series in values.items():
        print(f"{name}: median {statistics.median(series):.6g} spread {spread(series):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
