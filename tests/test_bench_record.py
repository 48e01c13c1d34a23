"""scripts/bench_record.py's ladders: every case at its smallest size, run
through the one host function with this checkout as both sides, and a
cold case in one fresh process per call."""
from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

SIDES = {"parent": ROOT, "change": ROOT}
SUMMARIES = ("wall", "at_reference_speed")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    workdir = tmp_path_factory.mktemp("bench-record")
    return bench_record.ladder_inputs(ROOT, workdir, [min(bench_record.LADDER)])


@pytest.mark.parametrize("case", list(bench_record.CASES))
def test_case_at_its_smallest_size(case, inputs, tmp_path):
    sizes = bench_record.CASES[case]
    n_keyframes = min(sizes)
    reps = 1 if case == "simulate" else 2
    calls = sizes[n_keyframes][1]
    record = bench_record.ladder(case, {n_keyframes: (reps, calls)}, SIDES, inputs, tmp_path)
    frames = 10 * n_keyframes - 9
    assert list(record) == [str(frames)]
    entry = record[str(frames)]
    assert entry["frames"] == frames and entry["keyframes"] == n_keyframes
    assert (entry["repetitions"], entry["calls_per_batch"]) == (reps, calls)
    assert entry["processes"] == 1 and entry["order"] == ["parent", "change"]
    for side in SIDES:
        run = entry[side]
        assert len(run["runs_s"]) == len(run["probe_median_s"]) == reps
        assert all(t > 0 for t in run["runs_s"] + run["probe_median_s"])
        for key in SUMMARIES:
            summary = run[key]
            assert summary["unit"] == "ms/call"
            assert 0 < summary["q1"] <= summary["median"] <= summary["q3"]
        assert run["peak_rss_mb"] > 0
    ratios = entry["change_over_parent"]
    assert set(ratios) == {*SUMMARIES, "peak_rss_mb"}
    assert all(math.isfinite(r) and r > 0 for r in ratios.values())


def test_cold_case_runs_each_call_in_a_fresh_process(inputs, tmp_path, monkeypatch):
    # Two processes per side, one cold call each, the sides alternating.
    batches = []
    run_case = bench_record.run_case

    def counted(case, n_keyframes, reps, *args):
        batches.append(reps)
        return run_case(case, n_keyframes, reps, *args)

    monkeypatch.setattr(bench_record, "run_case", counted)
    assert "simulate" in bench_record.COLD
    assert {reps for reps, _ in bench_record.SIMULATE.values()} == {5}
    n_keyframes = min(bench_record.SIMULATE)
    record = bench_record.ladder("simulate", {n_keyframes: (2, 1)}, SIDES, inputs, tmp_path)
    entry = record[str(10 * n_keyframes - 9)]
    assert batches == [1, 1, 1, 1]
    assert entry["processes"] == 2 and entry["repetitions"] == 2
    assert entry["order"] == ["parent", "change", "change", "parent"]
    for side in SIDES:
        run = entry[side]
        assert len(run["runs_s"]) == len(run["probe_median_s"]) == 2
        assert all(t > 0 for t in run["runs_s"])
        for key in SUMMARIES:
            assert 0 < run[key]["q1"] <= run[key]["median"] <= run[key]["q3"]
        assert run["peak_rss_mb"] > 0


def test_quartiles_of_one_run():
    assert bench_record.quartiles([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5}
    assert bench_record.quartiles([1.0, 2.0]) == {"median": 1.5, "q1": 1.25, "q3": 1.75}
