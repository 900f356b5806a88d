"""Self-check of the benchmark at reduced size.

    python -m pytest perfbench -q

Kept outside the package's testpaths, so the package's own suite does not
run it.
"""

from __future__ import annotations

import dataclasses

import pytest

import worker
from tracing import layer_times
from workloads import NOISE_POOL, SPECS, make_configs

SMALL_GRID = 21


def small_trace(workload: str, seed: int):
    """Traced run on the first COUNTED configs, shrunk to a SMALL_GRID grid."""
    session = worker.Session(workload, seed)
    grid = dataclasses.replace(session.configs[0].grid, count=SMALL_GRID)
    session.configs = [
        dataclasses.replace(c, grid=grid) for c in session.configs[: worker.COUNTED]
    ]
    session.attempt(session.configs[0])
    metrics = worker.trace(session, workload, seed, seconds=0.0)
    return session, metrics


@pytest.mark.parametrize("workload", sorted(SPECS))
def test_counters_and_digests_repeat(workload):
    runs = [small_trace(workload, seed=3) for _ in range(2)]
    for session, _ in runs:
        assert session.failed == 0, session.problems
    (s1, m1), (s2, m2) = runs
    assert s1.digests == s2.digests
    counters = [k for k in m1 if not k.endswith("_s") and k != "trace.overhead_frac"]
    assert {k: m1[k] for k in counters} == {k: m2[k] for k in counters}


@pytest.mark.parametrize("workload", sorted(SPECS))
def test_calibration_and_series_counts(workload):
    _, m = small_trace(workload, seed=0)
    assert m["harness.calibrate_pairs"] == SMALL_GRID**2
    assert m["harness.calibrate_f_evals"] == 5 * SMALL_GRID**2
    assert m["bounds.psi_calls"] == 6


@pytest.mark.parametrize("workload", sorted(SPECS))
def test_configs_are_a_function_of_the_seed(workload):
    worker.import_stabeq()
    a, b = make_configs(workload, 11), make_configs(workload, 11)
    assert a == b
    assert sorted(c.noise.seed for c in a) == list(range(NOISE_POOL))
    assert make_configs(workload, 12) != a


def test_check_report_catches_a_changed_cell():
    stabeq = worker.import_stabeq()
    cfg = make_configs("sweep-expand", 0)[0]
    cfg = dataclasses.replace(cfg, grid=dataclasses.replace(cfg.grid, count=SMALL_GRID))
    report = stabeq.run_experiment(cfg)
    text = stabeq.emit_report(report, "csv")
    assert worker.check_report(cfg, report, text, "csv") is None
    lines = text.split("\n")
    cells = lines[5].split(",")
    cells[5] = repr(float(cells[5]) * 2.0 + 1.0)  # the residual column
    lines[5] = ",".join(cells)
    assert "residual" in worker.check_report(cfg, report, "\n".join(lines), "csv")


def test_layer_times_subtract_other_layers_only():
    # name, start, end, parent, ...: a -> a.child (same layer) -> b.leaf
    spans = [
        ["a.root", 0.0, 10.0, -1],
        ["a.child", 1.0, 5.0, 0],
        ["b.leaf", 2.0, 3.0, 1],
        ["b.other", 6.0, 8.0, 0],
    ]
    assert layer_times(spans) == [7.0, 3.0, 1.0, 2.0]
