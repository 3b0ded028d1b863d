"""End-to-end and per-layer benchmark of the WebSSARI/xBMC pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig10-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` sets the workload up several times (median ``setup_s``),
runs one untimed warm-up pass, then timed passes until ``--seconds`` have
passed (at least three), and reports the end-to-end metrics as medians
over the passes, in reference seconds (see ``calibrate.py``); the line
before the result, ``raw {...}``, gives the same times in measured
seconds.  ``--trace 1`` runs the workload's
reference pass, an untraced and a traced inline pass, and reports the
per-layer metrics from the traced pass's spans (written to ``.perfbench_work/traces``).
Every verdict of every pass is checked against the workload's known
answer; the last line of standard output is one JSON object, and the
exit code is 1 when any answer was wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Timed passes per run, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Set-ups per run: at least this many, and until this many seconds
#: have passed; ``setup_s`` is their median.
SETUP_MIN_REPEATS = 3
SETUP_SECONDS = 4.0
#: What the benchmark imports, timed in a fresh interpreter per set-up.
IMPORTS = (
    "import repro.engine, repro.websari.pipeline, repro.daemon.loop, "
    "repro.replay, repro.corpus.generator, repro.sat.cache"
)

END_TO_END_UNITS = {
    "audit_s": "s",
    "cpu_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile."""
    ordered = sorted(values)
    rank = p / 100 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(samples_per_pass: int) -> int:
    """The highest whole percentile with at least ten of one pass's
    samples beyond it (p50 when a pass has fewer than twenty)."""
    return max(50, math.floor(100 * (1 - 10 / samples_per_pass)))


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def filesystem_of(path: Path) -> str:
    """Type of the filesystem holding ``path`` (from ``/proc/mounts``)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) >= 3 and str(path).startswith(fields[1]) and len(fields[1]) > len(best):
                    best, kind = fields[1], fields[2]
    except OSError:
        pass
    return kind


def fresh_imports() -> None:
    """Import the pipeline in a fresh interpreter: the set-up's import cost."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True)


def run_timed(cls, seed: int, seconds: float, work: Path) -> tuple[dict, dict, list, list[str]]:
    """Set-ups, warm-up pass and timed passes.

    Returns ``(metrics, raw, passes, notes)``: times in ``metrics`` are
    in reference seconds (see ``calibrate.py``), ``raw`` holds them in
    measured seconds.  The calibration kernel runs before the first
    set-up and after every set-up and pass.  ``setup_s`` is scaled by the
    kernel times around the set-ups, every other time by those after the
    warm-up and after each timed pass, so each is scaled by the machine's
    speed while it was taken.
    """
    from calibrate import Calibrator, scale

    with Calibrator(cls.jobs) as calibrator:
        setup_kernels = calibrator.seconds()
        setups = []
        workload = None
        began = time.perf_counter()
        while len(setups) < SETUP_MIN_REPEATS or time.perf_counter() - began < SETUP_SECONDS:
            if workload is not None:
                shutil.rmtree(workload.root, ignore_errors=True)
            root = work / f"setup-{len(setups)}"
            root.mkdir(parents=True)
            start = time.perf_counter()
            fresh_imports()
            workload = cls(seed, root)
            workload.setup()
            setups.append(time.perf_counter() - start)
            setup_kernels += calibrator.seconds()

        gc.collect()
        warmup = workload.run_pass()
        pass_kernels = calibrator.seconds()
        timed = []
        began = time.perf_counter()
        while len(timed) < MIN_PASSES or time.perf_counter() - began < seconds:
            gc.collect()
            timed.append(workload.run_pass())
            pass_kernels += calibrator.seconds()

    series = {
        "audit_s": [p.wall for p in timed],
        "cpu_s": [p.cpu for p in timed],
        "setup_s": setups,
    }
    raw = {name: statistics.median(values) for name, values in series.items()}
    # Latency percentiles are taken over the verdicts of all timed passes
    # pooled; the tail percentile leaves ten of one pass's verdicts beyond it.
    latencies = [latency * 1000 for p in timed for latency in p.latencies]
    samples = len(warmup.latencies)
    tail = tail_percentile(samples)
    raw["verdict_p50_ms"] = statistics.median(latencies)
    raw["verdict_tail_ms"] = percentile(latencies, tail)
    pass_scale = scale(pass_kernels)
    setup_scale = scale(setup_kernels)
    metrics = {name: value * pass_scale for name, value in raw.items()}
    metrics["setup_s"] = raw["setup_s"] * setup_scale
    metrics["peak_rss_mb"] = peak_rss_mb()
    notes = [
        f"passes: {len(timed)} timed after 1 warm-up, jobs {cls.jobs}; {len(setups)} set-ups",
        f"machine speed: scale to reference seconds {pass_scale:.4f} from the {len(pass_kernels)} "
        f"kernel runs around the timed passes ({min(pass_kernels):.4f}-{max(pass_kernels):.4f} s), "
        f"{setup_scale:.4f} for setup_s from the {len(setup_kernels)} around the set-ups",
        f"audit_s per pass (measured): {[round(v, 4) for v in series['audit_s']]}",
        f"setup_s per set-up: {[round(v, 4) for v in setups]}",
        f"verdict_tail_ms is p{tail} over {len(latencies)} verdicts of {len(timed)} passes "
        f"({samples - math.ceil(tail / 100 * samples)} of each pass's {samples} beyond it)",
        "spread inside the run (IQR/median): "
        + ", ".join(f"{name} {spread(values):.3f}" for name, values in series.items()),
    ]
    return metrics, raw, [warmup] + timed, notes


def pool_start_seconds(repeats: int = 3) -> float:
    """Median wall of an ``AuditEngine.run`` over one trivial task at ``--jobs 2``."""
    from repro.engine import AuditEngine, AuditTask, EngineConfig

    task = AuditTask(index=0, filename="pool.php", source="<?php echo 1;\n")
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        AuditEngine(config=EngineConfig(jobs=2)).run([task])
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def run_traced(cls, seed: int, work: Path, trace_path: Path) -> tuple[dict, list, list[str]]:
    """Reference pass, untraced and traced inline passes; per-layer metrics."""
    from tracing import SpanRecorder, layer_metrics, traced

    root = work / "setup-0"
    root.mkdir(parents=True)
    workload = cls(seed, root)
    workload.setup()

    gc.collect()
    reference = workload.run_pass()
    gc.collect()
    untraced = workload.run_pass(jobs=1)
    gc.collect()
    recorder = SpanRecorder()
    with traced(recorder):
        traced_pass = workload.run_pass(jobs=1)
    recorder.write(trace_path)
    passes = [reference, untraced, traced_pass]

    metrics = layer_metrics(recorder.spans)
    metrics.update(
        {
            "engine.overhead_s": reference.wall * cls.jobs - reference.task_seconds,
            "engine.pool_start_s": pool_start_seconds(),
            "engine.cache.hits": traced_pass.cache_hits,
            "daemon.invalidated": traced_pass.invalidated,
            "trace.overhead_s": traced_pass.wall - untraced.wall,
        }
    )
    notes = [
        f"reference pass {reference.wall:.4f}s at jobs {cls.jobs}; inline untraced "
        f"{untraced.wall:.4f}s, traced {traced_pass.wall:.4f}s",
        f"tracing overhead {metrics['trace.overhead_s']:.4f}s; "
        f"{len(recorder.spans)} spans written to {trace_path.relative_to(ROOT)}",
    ]
    for label, other in (("untraced", untraced), ("traced", traced_pass)):
        if other.signature != reference.signature:
            other.failed = max(other.failed, 1)
            other.problems.append(f"{label} inline verdicts differ from the reference pass")
    return metrics, passes, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import PER_LAYER_UNITS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (have {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            trace_dir = WORK / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
            metrics, passes, notes = run_traced(cls, args.seed, work, trace_path)
            units = PER_LAYER_UNITS
        else:
            metrics, raw, passes, notes = run_timed(cls, args.seed, args.seconds, work)
            notes.append("raw " + json.dumps(raw))
            units = END_TO_END_UNITS
        fs = filesystem_of(work)
    finally:
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [why for p in passes for why in p.problems]
    print(f"workload {args.workload} seed {args.seed}; caches on {fs}")
    for note in notes:
        print(note)
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for why in problems[:20]:
        print(f"wrong answer: {why}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
