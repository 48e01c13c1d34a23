#!/usr/bin/env python3
"""Write a ``BENCH_<label>.json`` record comparing two checkouts.

    python3 scripts/bench_record.py --parent ../parent --change . \\
        --label array_trajectory

Two parts, each run on both checkouts with the same inputs:

* **Benchmark pairs** (``workloads``).  ``perfbench/run.py`` of each
  checkout, unmodified and at its own default run length, on every
  workload for ten seeds from 900 upwards, away from the small seeds a
  change is developed on, one parent and one change run per seed,
  alternating which side runs first.  Each metric is summarized by its
  median and quartiles per side and by the number of pairs the change won.
* **Ladders** (``ladders``).  One named case, timed in process at a ladder
  of sizes, one fresh subprocess per case, size and side, alternating
  which side runs first from one size to the next.  The subprocess builds
  the case on a seeded ``mav`` path of ``10 * keyframes - 9`` frames (9
  relative frames per segment), calls it once as a warm-up, then times
  ``repetitions`` batches of ``calls_per_batch`` calls.  A cold case
  (``simulate``) makes no warm-up and times one call per process, in
  ``repetitions`` fresh processes per size and side.  Before each batch
  it removes and recreates its output directory, builds what the batch
  calls, and times ``probe()`` of ``perfbench/speed.py`` 15 times, all
  outside the timed region: a file that is truncated and rewritten right
  after its last write pays the disk's flush, which would then be timed
  instead of the code.  At exit it reads its peak RSS (``ru_maxrss``,
  the import of the package included).

  Every entry, keyed by its frame count, holds ``frames``, ``keyframes``,
  ``repetitions``, ``calls_per_batch``, the ``processes`` per side and the
  sides in the ``order`` their processes ran; per side
  the median and quartiles of the time per call, as ``wall`` and
  ``at_reference_speed`` (wall time times ``REFERENCE_PROBE_S`` over the
  batch's probe median: the wall figures move with the load of a shared
  machine, the second divide out the slowdown the probe saw just before
  the batch), in ms per call, the raw batch times ``runs_s`` (seconds per
  call), the ``probe_median_s`` and ``peak_rss_mb`` (the median over the
  side's processes); and the change over parent ratio of the two medians
  and of the peak RSS.

  The cases, on 100, 1,000 and 10,000 keyframes (991, 9,991 and 99,991
  frames) with 15, 9 and 5 batches of one call unless said otherwise:

  - ``correct``, ``evaluate`` and ``evaluate-all``: ``posecorrect correct
    --methods proposed``, ``posecorrect evaluate --methods proposed`` and
    ``posecorrect evaluate --methods all``.  The estimate is
    ``fixtures.displaced_estimate`` of the path; ``correct`` moves its
    keyframes onto the path.  The input files are written once, by the
    change checkout.
  - ``write_tum`` and ``read_tum`` of the estimate: the text that
    ``correct`` formats once per run and parses three times.
  - ``write_frame_errors_csv`` of the seven files, one per method, of the
    errors that one ``evaluate.SnapProtocol`` of the estimate and its path
    returns (the relative frames only), as ``evaluate-all`` writes them.
  - ``write_diagnostics_csv`` of the segment table of the proposed
    correction of the estimate, which ``correct`` writes once per run.
  - ``synth``: ``synth.path_world_poses`` and ``fixtures.displaced_estimate``
    of the path, the input build that perfbench's ``setup_s`` pays.
  - ``simulate``: ``posecorrect simulate --shape mav --rels-per-segment 9``
    on 100, 300 and 1,000 keyframes, cold: one call in each of 5 fresh
    processes per size and side, the sides alternating from one process
    to the next and which side starts alternating from one size to the
    next.  A single cold call per side could not tell two checkouts of
    the same generator apart (it once read 1.92x at 2,991 frames).  The sizes
    stop at 9,991 frames because the per-object generator of earlier
    checkouts grows faster than the frame count.
  - ``repeated`` and ``first_call``: ``evaluate.correct_trajectory``
    (proposed) on 2, 10 and 100 keyframes (11, 91 and 991 frames), whose
    keyframes move from ``fixtures.displaced_estimate`` onto the path,
    with the updates passed as a ``KeyframeUpdates`` table: the
    trajectory's keyframe rows as the old poses and the path's keyframe
    rows as the new ones, as a SLAM back-end that keeps its poses in arrays
    would; 15 batches of 40, 40 and 10 calls.  It measures the fixed cost
    of one call, which the CLI cases hide under parsing and writing.
    ``repeated`` calls one trajectory again and again with the same
    updates, as a back-end that moves the same window does;
    ``first_call`` calls as many freshly built copies of it once each,
    which pays for what a trajectory keeps between calls.

The record states the machine, Python, numpy and both commits.  Only the
numbers it holds are claims; the script compares nothing itself.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("correct-forward", "evaluate-all", "online-window")
SEED0 = 900
PAIRS = 10
ROOT = Path(__file__).resolve().parent.parent
# Size tables: keyframes -> (timed batches, calls per batch).
LADDER = {100: (15, 1), 1000: (9, 1), 10000: (5, 1)}
SIMULATE = {100: (5, 1), 300: (5, 1), 1000: (5, 1)}  # (processes, 1): timed cold
CALLS = {2: (15, 40), 10: (15, 40), 100: (15, 10)}
CASES = {
    **dict.fromkeys(("correct", "evaluate", "evaluate-all", "write_tum", "read_tum",
                     "write_frame_errors_csv", "write_diagnostics_csv", "synth"), LADDER),
    "simulate": SIMULATE,
    "repeated": CALLS,
    "first_call": CALLS,
}
COLD = {"simulate"}  # cases timed once per fresh process, with no warm-up

LADDER_INPUTS = """
import sys
from pathlib import Path
from posecorrect import fixtures
from posecorrect import io as trajio
from posecorrect.synth import SceneSpec, keyframe_positions, path_world_poses

out = Path(sys.argv[1])
for n_keyframes in map(int, sys.argv[2:]):
    d = out / str(n_keyframes)
    d.mkdir(parents=True)
    spec = SceneSpec(shape="mav", n_keyframes=n_keyframes, rels_per_segment=9, seed=0)
    gt = path_world_poses(spec)
    positions = keyframe_positions(spec)
    est = fixtures.displaced_estimate(gt, positions, seed=0)
    trajio.write_tum(d / "gt.tum", gt)
    trajio.write_tum(d / "est.tum", est)
    trajio.write_tum(d / "kf_old.tum", est.take(positions))
    trajio.write_tum(d / "kf_new.tum", gt.take(positions))
    (d / "kf_index.txt").write_text("".join(f"{i}\\n" for i in gt.indices[positions].tolist()))
"""

# One case at one size: argv is the case, keyframes, batches, calls per
# batch, the input directory of that size, the output directory and the
# perfbench directory.  Prints one JSON result.
CASE_TIMING = """
import json, resource, shutil, statistics, sys, time
from functools import partial
from pathlib import Path

case, n_keyframes, reps, calls = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
d, out = Path(sys.argv[5]), Path(sys.argv[6])
sys.path.insert(0, sys.argv[7])
from speed import REFERENCE_PROBE_S, probe
from posecorrect import evaluate, fixtures
from posecorrect import io as trajio
from posecorrect.cli import main
from posecorrect.synth import SceneSpec, keyframe_positions, path_world_poses
from posecorrect.trajectory import KeyframeUpdates, Trajectory, from_world_poses, snap_to_gt

PROBES = 15  # probe calls timed before each timed batch


def probe_median():
    times = []
    for _ in range(PROBES):
        start = time.perf_counter()
        probe()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def snapped():
    # The estimate's trajectory, its keyframes snapped onto the path.
    gt = trajio.read_tum(d / "gt.tum")
    traj = from_world_poses(trajio.read_tum(d / "est.tum"),
                            [int(i) for i in (d / "kf_index.txt").read_text().split()])
    return traj, gt


spec = SceneSpec(shape="mav", n_keyframes=n_keyframes, rels_per_segment=9, seed=0)
common = ["--traj", str(d / "est.tum"), "--kf-index", str(d / "kf_index.txt"), "--out", str(out)]
commands = {
    "correct": ["correct", *common, "--methods", "proposed", "--kf-old", str(d / "kf_old.tum"),
                "--kf-new", str(d / "kf_new.tum")],
    "evaluate": ["evaluate", *common, "--methods", "proposed", "--gt", str(d / "gt.tum")],
    "evaluate-all": ["evaluate", *common, "--methods", "all", "--gt", str(d / "gt.tum")],
    "simulate": ["simulate", "--shape", "mav", "--n-keyframes", str(n_keyframes),
                 "--rels-per-segment", "9", "--out", str(out)],
}
out.mkdir(parents=True, exist_ok=True)
batch = None  # what one batch calls, built before it; `calls` times `call` by default
if case in commands:
    def call():
        assert main(commands[case]) == 0
elif case in ("repeated", "first_call"):
    gt = path_world_poses(spec)
    positions = keyframe_positions(spec)
    traj = from_world_poses(fixtures.displaced_estimate(gt, positions, seed=0), positions)
    updates = KeyframeUpdates(traj.kf.q, traj.kf.t, gt.q[positions], gt.t[positions])
    cfg = evaluate.MethodConfig("proposed")
    call = partial(evaluate.correct_trajectory, traj, updates, cfg)
    if case == "first_call":
        batch = lambda: [partial(evaluate.correct_trajectory,
                                 Trajectory(traj.kf, traj.rel, traj.parents), updates, cfg)
                         for _ in range(calls)]
elif case == "write_tum":
    est = trajio.read_tum(d / "est.tum")
    call = lambda: trajio.write_tum(out / "written.tum", est)
elif case == "read_tum":
    call = lambda: trajio.read_tum(d / "est.tum")
elif case == "write_frame_errors_csv":
    # Every method's errors over the relative frames, from one protocol, as
    # evaluate --methods all hands them to its writer.
    protocol = evaluate.SnapProtocol(*snapped())
    files = [(out / f"frame_errors_{m}.csv", protocol.run(evaluate.MethodConfig(m))[1])
             for m in evaluate.METHODS]
    call = lambda: evaluate.write_frame_errors_csv(files)
elif case == "write_diagnostics_csv":
    # The segment table of a proposed correction, as correct writes it.
    traj, gt = snapped()
    diagnostics = evaluate.correct_trajectory(traj, snap_to_gt(traj, gt),
                                              evaluate.MethodConfig("proposed"))[1]
    call = lambda: evaluate.write_diagnostics_csv(out / "diagnostics.csv", diagnostics)
elif case == "synth":
    call = lambda: fixtures.displaced_estimate(path_world_poses(spec), keyframe_positions(spec), seed=0)
if case != "simulate":  # simulate is timed cold
    call()  # warm-up
run = {"reference_probe_s": REFERENCE_PROBE_S, "wall_s": [], "probe_s": []}
for _ in range(reps):
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    callables = batch() if batch else [call] * calls
    run["probe_s"].append(probe_median())
    start = time.perf_counter()
    for c in callables:
        c()
    run["wall_s"].append((time.perf_counter() - start) / calls)
    del callables
run["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps(run))
"""


def quartiles(values) -> dict:
    if len(values) < 2:  # statistics.quantiles needs two points
        return dict.fromkeys(("median", "q1", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def alternate(k: int) -> tuple[str, str]:
    """The order of the two sides at step ``k``: parent first on even steps."""
    return ("parent", "change") if k % 2 == 0 else ("change", "parent")


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def commit(path: Path, given):
    if given:
        return given
    proc = subprocess.run(["git", "-C", str(path), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_sha256(path: Path) -> str:
    """The hash ``perfbench/run.py`` records for a checkout's sources."""
    digest = hashlib.sha256()
    src = path / "src"
    for file in sorted((src / "posecorrect").rglob("*.py")):
        digest.update(file.relative_to(src).as_posix().encode())
        digest.update(file.read_bytes())
    return digest.hexdigest()


def run_perfbench(side: Path, workload: str, seed: int, out_dir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--out-dir", str(out_dir)],
        cwd=side, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    reported = {}
    for line in lines:
        fields = line.split()
        if line.startswith("# ") and line.endswith("not gated)"):
            reported[fields[1]] = float(fields[2])
    return {
        "seed": seed,
        "seconds": json.loads(
            (out_dir / "results" / f"{workload}-seed{seed}-trace0.json").read_text(encoding="utf-8")
        )["seconds"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "reported": reported,
    }


def benchmark_pairs(sides: dict, workdir: Path) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seeds = list(range(SEED0, SEED0 + PAIRS))
    record = {}
    for workload in WORKLOADS:
        runs = {"parent": [], "change": []}
        for k, seed in enumerate(seeds):
            for name in alternate(k):
                runs[name].append(
                    run_perfbench(sides[name], workload, seed, workdir / name)
                )
                print(f"{workload} seed {seed} {name}: {runs[name][-1]['metrics']}", file=sys.stderr)
        metrics = {}
        for metric, direction in better.items():
            parent = [r["metrics"][metric] for r in runs["parent"]]
            change = [r["metrics"][metric] for r in runs["change"]]
            wins = sum((c > p) if direction == "higher" else (c < p) for p, c in zip(parent, change))
            metrics[metric] = {
                "better": direction,
                "parent": quartiles(parent),
                "change": quartiles(change),
                "change_over_parent": statistics.median(change) / statistics.median(parent),
                "change_better_in_pairs": wins,
                "parent_runs": parent,
                "change_runs": change,
            }
        record[workload] = {
            "pairs": PAIRS,
            "seeds": seeds,
            "seconds": sorted({r["seconds"] for name in runs for r in runs[name]}),
            "order": "parent first on even pair index, change first on odd",
            "attempted": {name: [r["attempted"] for r in runs[name]] for name in runs},
            "failed": {name: sum(r["failed"] for r in runs[name]) for name in runs},
            "metrics": metrics,
            "reported_runs": {name: [r["reported"] for r in runs[name]] for name in runs},
        }
    return record


def ladder_inputs(side: Path, workdir: Path, keyframes) -> Path:
    """The input files of the CLI and text cases at each of ``keyframes``,
    written by the checkout ``side``."""
    inputs = workdir / "ladder"
    env = dict(os.environ, PYTHONPATH=str(side / "src"))
    subprocess.run([sys.executable, "-c", LADDER_INPUTS, str(inputs), *map(str, keyframes)],
                   env=env, check=True)
    return inputs


def run_case(case: str, n_keyframes: int, reps: int, calls: int, inputs: Path, out: Path,
             side: Path) -> dict:
    """One subprocess of ``CASE_TIMING`` on the checkout ``side``."""
    proc = subprocess.run(
        [sys.executable, "-c", CASE_TIMING, case, str(n_keyframes), str(reps), str(calls),
         str(inputs / str(n_keyframes)), str(out), str(ROOT / "perfbench")],
        env=dict(os.environ, PYTHONPATH=str(side / "src")),
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def ladder(case: str, sizes: dict, sides: dict, inputs: Path, workdir: Path) -> dict:
    """``case`` at each size of ``sizes`` (keyframes -> (batches, calls per
    batch)), one subprocess per size and side (a cold case: one per batch,
    the sides alternating), as record entries keyed by frame count."""
    record = {}
    for k, (n_keyframes, (reps, calls)) in enumerate(sizes.items()):
        processes = reps if case in COLD else 1
        entry = {"frames": 10 * n_keyframes - 9, "keyframes": n_keyframes, "repetitions": reps,
                 "calls_per_batch": calls, "processes": processes, "order": []}
        runs = {name: [] for name in sides}
        for i in range(processes):
            for name in alternate(k + i):
                entry["order"].append(name)
                runs[name].append(run_case(case, n_keyframes, reps // processes, calls, inputs,
                                           workdir / f"{case}-out-{name}", sides[name]))
        for name, side_runs in runs.items():
            run = {key: [t for r in side_runs for t in r[key]]
                   for key in ("wall_s", "probe_s")}
            reference = side_runs[0]["reference_probe_s"]
            wall = [1e3 * t for t in run["wall_s"]]
            normalised = [w * reference / p for w, p in zip(wall, run["probe_s"])]
            entry[name] = {
                "wall": {**quartiles(wall), "unit": "ms/call"},
                "at_reference_speed": {**quartiles(normalised), "unit": "ms/call"},
                "runs_s": run["wall_s"],
                "probe_median_s": run["probe_s"],
                "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in side_runs) / 1024.0,
            }
        medians = {side: {"wall": entry[side]["wall"]["median"],
                          "at_reference_speed": entry[side]["at_reference_speed"]["median"],
                          "peak_rss_mb": entry[side]["peak_rss_mb"]} for side in sides}
        entry["change_over_parent"] = {key: medians["change"][key] / medians["parent"][key]
                                       for key in medians["change"]}
        print(f"{case} {entry['frames']}: " + " / ".join(
            f"{name} {medians[name]['at_reference_speed']:.3f} ms, {medians[name]['peak_rss_mb']:.0f} MB"
            for name in alternate(k)
        ) + " (at reference speed)", file=sys.stderr)
        record[str(entry["frames"])] = entry
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="parent checkout")
    p.add_argument("--change", type=Path, default=ROOT, help="changed checkout")
    p.add_argument("--label", required=True, help="the record is BENCH_<label>.json")
    p.add_argument("--parent-commit", default=None)
    p.add_argument("--change-commit", default=None)
    args = p.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    import numpy

    record = {
        "label": args.label,
        "provenance": {
            "cpu_model": cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "parent_commit": commit(sides["parent"], args.parent_commit),
            "change_commit": commit(sides["change"], args.change_commit),
            "parent_source_sha256": source_sha256(sides["parent"]),
            "change_source_sha256": source_sha256(sides["change"]),
        },
    }
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        workdir = Path(tmp)
        record["workloads"] = benchmark_pairs(sides, workdir)
        inputs = ladder_inputs(sides["change"], workdir, LADDER)
        record["ladders"] = {case: ladder(case, sizes, sides, inputs, workdir)
                             for case, sizes in CASES.items()}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
