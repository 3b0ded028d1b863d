"""Tests of the benchmark itself: every known-answer gate fires when one
expected answer is perturbed, and traced counts repeat exactly.

    PYTHONPATH=src python3 -m pytest perfbench -q

The determinism tests run ``run.py --trace 1`` twice per workload in
fresh interpreters (different hash seeds), so they take a few minutes.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER_UNITS  # noqa: E402

#: Two small Figure-10 projects (catalog rows 1 and 3) keep passes short.
SMALL = (1, 3)

#: Per-layer values that must repeat exactly between two traced runs.
DETERMINISTIC_COUNTS = [name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "ratio")]


def perturb_catalog(monkeypatch, index: int) -> None:
    """Make one catalog row expect one TS error more than the paper lists."""
    rows = list(workloads.FIGURE_10)
    rows[index] = dataclasses.replace(rows[index], ts_errors=rows[index].ts_errors + 1)
    monkeypatch.setattr(workloads, "FIGURE_10", tuple(rows))


def perturb_catalog_after_generation(monkeypatch, index: int) -> None:
    """Generate the tree from the real catalog, then perturb one row."""
    real_tree = workloads.fig10_tree

    def tree_then_perturb(seed, indices):
        files, dirs = real_tree(seed, indices)
        perturb_catalog(monkeypatch, index)
        return files, dirs

    monkeypatch.setattr(workloads, "fig10_tree", tree_then_perturb)


def small(cls, **attributes):
    return type(f"Small{cls.__name__}", (cls,), {"indices": SMALL, **attributes})


def test_fig10_gate_fires_on_a_perturbed_catalog_row(tmp_path, monkeypatch):
    workload = small(workloads.Fig10Audit)(1, tmp_path)
    workload.setup()
    assert workload.run_pass(jobs=1).failed == 0
    perturb_catalog(monkeypatch, SMALL[0])
    result = workload.run_pass(jobs=1)
    assert result.failed == 1
    assert any("catalog" in why for why in result.problems)


@pytest.mark.parametrize("answer", ["EXPECTED_TRACE", "EXPECTED_PATCHED"])
def test_replay_gate_fires_on_a_perturbed_verdict(tmp_path, monkeypatch, answer):
    workload = small(workloads.Fig10Replay)(1, tmp_path)
    workload.setup()
    clean = workload.run_pass(jobs=1)
    assert clean.failed == 0 and clean.attempted > 1
    monkeypatch.setattr(workloads, answer, "unsupported")
    result = workload.run_pass(jobs=1)
    assert result.failed == result.attempted == clean.attempted


def test_watch_gate_fires_on_a_perturbed_catalog_row(tmp_path, monkeypatch):
    workload = small(workloads.WatchEdit)(1, tmp_path)
    workload.setup()
    assert workload.run_pass(jobs=1).failed == 0
    perturb_catalog(monkeypatch, SMALL[1])
    result = workload.run_pass(jobs=1)
    # Both cycles that edit the perturbed project fail; the others pass.
    assert (result.attempted, result.failed) == (4, 2)


def test_watch_setup_refuses_a_tree_that_disagrees_with_the_catalog(tmp_path, monkeypatch):
    workload = small(workloads.WatchEdit)(1, tmp_path)
    perturb_catalog_after_generation(monkeypatch, SMALL[0])
    with pytest.raises(RuntimeError, match="catalog"):
        workload.setup()


def test_a_wrong_answer_makes_the_benchmark_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_MIN_REPEATS", 1)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(workloads.Fig10Audit, "indices", SMALL)
    perturb_catalog_after_generation(monkeypatch, SMALL[0])
    code = run.main(["--workload", "fig10-cold", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    # The warm-up and the timed pass each fail one catalog row.
    assert (result["attempted"], result["failed"]) == (2 * 8, 2)


def test_verdict_clock_times_every_entry_on_the_scheduler_side(tmp_path):
    workload = small(workloads.Fig10Audit)(1, tmp_path)
    workload.setup()
    pooled = workload.run_pass(jobs=2)
    assert pooled.failed == 0
    assert len(pooled.latencies) == pooled.attempted
    assert all(latency > 0 for latency in pooled.latencies)
    # The pass's wall time holds every entry's time at the head of a queue.
    assert sum(pooled.latencies) <= 2 * pooled.wall


def test_percentile_and_spread():
    assert run.percentile([1, 2, 3, 4, 5], 50) == 3
    assert run.percentile([1, 2, 3, 4, 5], 75) == 4
    assert run.tail_percentile(283) == 96
    assert run.tail_percentile(38) == 73
    assert run.tail_percentile(12) == 50
    assert run.spread([1.0, 1.0, 1.0, 1.0]) == 0.0


def traced_counts(workload: str) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent, check=True,
    )
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in DETERMINISTIC_COUNTS}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first, second = traced_counts(workload), traced_counts(workload)
    differing = {name: (first[name], second[name]) for name in first if first[name] != second[name]}
    assert not differing, f"counts that did not repeat: {differing}"
