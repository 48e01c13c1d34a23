"""The benchmark's own tests: every workload runs at a tiny size and prints
every metric BENCHMARK.json names, and the output oracle is not vacuous.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(tmp_path, workload: str, trace: int, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--size", "tiny", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_unit_and_direction(tmp_path, workload, trace):
    lines = run_bench(tmp_path, workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        assert f"{m['name']} {entry['value']} {m['unit']} (better: {m['better']})" in lines
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
        for name, (unit, better) in run.REPORTED.items():
            assert any(
                line.startswith(f"# {name} ") and line.endswith(f" {unit} (better: {better}; not gated)")
                for line in lines
            )
    record = json.loads(
        (tmp_path / "results" / f"{workload}-seed3-trace{trace}.json").read_text()
    )
    assert record["provenance"]["seed"] == 3
    assert record["inputs"]["frames"] > record["inputs"]["keyframes"] > 1


def test_missing_program_exits_nonzero_without_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for path in BENCH_DIR.iterdir():
        if path.is_file():
            (bare / "perfbench" / path.name).write_bytes(path.read_bytes())
    (bare / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "online-window",
         "--seconds", "0.2"],
        capture_output=True, text=True, timeout=120, cwd=bare,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_uncorrected_output_counts_as_failure(tmp_path):
    wl = workloads.CorrectForward(5, "tiny", tmp_path)
    assert abs(wl.sim.scale - 1.0) > 0.05
    wl.check(wl.run_op("proposed"))
    wl.run_op = lambda: workloads.CorrectForward.run_op(wl, "no-correction")
    loop = run.Loop(wl)
    loop.run(0.0)
    assert loop.attempted == loop.failed == 1
    assert "CheckFailed" in loop.first_error
    assert not wl.out.exists()  # the next operation cannot pass on this one's files


def test_online_oracle_checks_similarity_events(tmp_path):
    wl = workloads.OnlineWindow(5, "tiny", tmp_path)
    world, diagnostics, want = wl.run_op()
    assert want is not None  # call 0 is a pure similarity
    wl.check((world, diagnostics, want))
    shifted = [(fid, pose) for fid, pose in world]
    shifted[1] = shifted[2]
    with pytest.raises(workloads.CheckFailed):
        wl.check((shifted, diagnostics, want))


def test_tracer_reports_missing_names_and_patches_imported_bindings(tmp_path):
    from posecorrect import cli, evaluate, trajectory

    original = trajectory.associate
    spans = tracer.Tracer(tracer.TRACED + (("trajectory", "no_such_function"),))
    spans.install()
    try:
        assert cli.associate is trajectory.associate is evaluate.associate
        assert trajectory.associate is not original
        wl = workloads.EvaluateAll(1, "tiny", tmp_path)
        spans.begin_op()
        assert wl.run_op() == 0
        op = spans.end_op()
    finally:
        spans.uninstall()
    assert trajectory.associate is original and cli.associate is original
    assert "trajectory.no_such_function" in spans.missing
    assert op["cli.main.calls"] == 1
    assert op["trajectory.associate.calls"] > 0
    assert op["trajectory.associate.ref_items"] >= op["trajectory.associate.calls"]
    assert op["correction.frames"] == wl.relatives
    # Self times are disjoint parts of the outermost span.
    total = sum(v for k, v in op.items() if k.endswith(".self_s"))
    outer = max(e - s for s, e, p in zip(spans.span_start, spans.span_end, spans.span_parent) if p == -1)
    assert total == pytest.approx(outer / 1e9, rel=1e-6)
