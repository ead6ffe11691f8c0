"""Tests for the phase-ledger benchmark's own machinery.

Not collected by the tier-1 suite (which only looks under ``tests/``); run
them explicitly from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py
"""

from __future__ import annotations

import importlib
import json
import types
from collections import defaultdict
from pathlib import Path

import pytest

import layers
import run
import workloads


class FakeClock:
    """Integer ticks, so self-time sums are exact."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def spend(self, ticks: int) -> None:
        self.now += ticks


def test_self_time_sums_exactly_to_wall_on_nested_reentrant_calls():
    clock = FakeClock()
    ledger = layers.LayerClock(clock)
    api = types.SimpleNamespace()

    def outer(depth):
        clock.spend(3)
        api.inner(depth)
        clock.spend(5)

    def inner(depth):
        clock.spend(7)
        if depth:
            api.outer(depth - 1)       # re-enters the outer layer
        api.leaf()

    def leaf():
        clock.spend(11)

    api.outer, api.inner, api.leaf = outer, inner, leaf
    for name in ("outer", "inner", "leaf"):
        assert ledger.wrap(api, name, name, f"api:{name}")
    with ledger.span(layers.OTHER):
        clock.spend(2)
        api.outer(1)
    self_s, calls, wall = ledger.totals()
    assert wall == clock.now == 2 + 2 * (3 + 5 + 7 + 11)
    assert sum(self_s.values()) == wall
    assert self_s == {"other": 2, "outer": 16, "inner": 14, "leaf": 22}
    assert calls == {"api:outer": 2, "api:inner": 2, "api:leaf": 2}


def test_solver_check_splits_into_model_and_cdcl():
    from repro.smt import BitVec, BitVecVal, BvAdd, Eq, Solver

    solver = Solver()
    x = BitVec("x", 4)
    solver.add(Eq(BvAdd(x, BitVecVal(3, 4)), BitVecVal(5, 4)))
    ledger = layers.LayerClock()
    # Instance attributes: nothing outside this test sees the wrappers.
    assert ledger.wrap(solver, "check", "model", "check")
    assert ledger.wrap(solver.sat_solver, "solve", "cdcl", "solve")
    assert solver.check() == "sat"
    self_s, calls, wall = ledger.totals()
    assert calls == {"check": 1, "solve": 1}
    assert set(self_s) == {"model", "cdcl"}
    assert self_s["cdcl"] > 0 and self_s["model"] > 0
    assert self_s["model"] + self_s["cdcl"] == pytest.approx(wall, abs=1e-9)


def test_missing_attribute_is_recorded_as_absent():
    ledger = layers.LayerClock()
    stealing = types.SimpleNamespace()       # the scheduler after deletion
    assert not ledger.wrap(stealing, "run_stealing", "portfolio",
                           "repro.core.stealing:run_stealing")
    ledger.install([
        ("portfolio", "repro.core.no_such_module", "run"),
        ("encoder", "repro.core.encoder", "NoSuchClass.encode"),
    ])
    assert ledger.absent == [
        "repro.core.stealing:run_stealing",
        "repro.core.no_such_module:run",
        "repro.core.encoder:NoSuchClass.encode",
    ]
    assert ledger.totals() == ({}, {}, 0.0)


def test_every_layer_target_exists_at_this_commit():
    for _layer, module_name, path in layers.LAYER_TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, path)


def test_same_seed_gives_identical_orders_and_schedules():
    for workload in ("table3-direct", "table3-keysplit", "portfolio-jobs2"):
        rows = workloads.rows_for(workload)
        one = workloads.pass_order(rows, workload, 7, 0)
        assert one == workloads.pass_order(rows, workload, 7, 0)
        assert sorted(map(id, one)) == sorted(map(id, rows))
        if len(rows) > 5:
            assert one != workloads.pass_order(rows, workload, 8, 0)
            assert one != workloads.pass_order(rows, workload, 7, 1)
    serve_rows = len(workloads.rows_for("serve-zipf"))
    schedule = workloads.serve_schedule(serve_rows, 7, 20)
    assert schedule == workloads.serve_schedule(serve_rows, 7, 20)
    assert schedule != workloads.serve_schedule(serve_rows, 8, 20)
    assert len(schedule) == 20 * workloads.SERVE_RATE
    offsets = [r.offset_s for r in schedule]
    assert offsets == sorted(offsets)
    # At the default size every row is missed exactly once, so each seed
    # compiles the same rows.
    misses = sorted(r.row for r in schedule if r.miss)
    assert misses == list(range(serve_rows))


def test_row_sets():
    counts = {w: len(workloads.rows_for(w)) for w in workloads.WORKLOADS}
    assert counts == {
        "table3-direct": 50, "table3-keysplit": 3,
        "portfolio-jobs2": 46, "serve-zipf": 24,
    }


def test_expected_covers_table3_and_matches_experiments_claims():
    from repro.benchgen import TABLE3_ROWS

    expected = workloads.load_expected()
    assert set(expected) == {
        workloads.row_key(device, bench)
        for device in workloads.DEVICES for bench in TABLE3_ROWS
    }
    assert len(expected) == 58
    families = defaultdict(set)
    for device in workloads.DEVICES:
        for bench in TABLE3_ROWS:
            answer = expected[workloads.row_key(device, bench)]
            if not (device == "tofino" and bench.mutations == ("+unroll",)):
                families[device, bench.base].add(answer)
    # Style invariance: one answer per family and device.
    assert all(len(answers) == 1 for answers in families.values())
    tofino = {b: a for (d, b), (a,) in families.items() if d == "tofino"}
    assert expected["tofino/Parse MPLS +unroll"][0] == 8
    assert tofino["parse_mpls"][0] == 4
    assert tofino["pure_extraction"][0] == 1
    assert tofino["dash_v2"][0] == 8
    assert tofino["sai_v2"][0] == 14


def test_metric_catalog_matches_benchmark_json():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(
        run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    assert run.tail(list(range(100))) == 89
    assert run.tail(list(range(500))) == 489
    assert run.tail([3.0, 1.0, 2.0]) == 3.0
