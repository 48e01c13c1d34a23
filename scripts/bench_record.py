#!/usr/bin/env python3
"""Write a ``BENCH_<label>.json`` record comparing two checkouts.

    python3 scripts/bench_record.py --parent ../parent --change . \\
        --label array_trajectory

Four parts, each run on both checkouts with the same inputs:

* **Benchmark pairs.**  ``perfbench/run.py`` of each checkout, unmodified
  and at its own default run length, on every workload for ten seeds from
  900 upwards, away from the small seeds a change is developed on, one
  parent and one change run per seed, alternating which side runs first.
  Each metric is summarized by its median and quartiles per side and by
  the number of pairs the change won.
* **Size ladder.**  ``posecorrect correct --methods proposed``,
  ``posecorrect evaluate --methods proposed`` and ``posecorrect evaluate
  --methods all`` in process on seeded ``mav`` trajectories of 991, 9,991
  and 99,991 frames (9 relative frames per segment), as microseconds per
  frame, median and quartiles of 15, 9 and 5 timed calls after one
  warm-up call.  The estimate is ``fixtures.displaced_estimate`` of the
  path; ``correct`` moves its keyframes onto the path.  Before each timed
  call the process times ``probe()`` of ``perfbench/speed.py`` 15 times,
  and each call is reported both as wall time and at the probe's
  reference speed: wall time times ``REFERENCE_PROBE_S`` over the median
  probe time.  The wall figures move with the load of a shared machine;
  the second divide out the slowdown the probe saw just before the call.
* **Call ladder.**  ``evaluate.correct_trajectory`` (proposed) called in
  process on seeded ``mav`` paths of 11, 91 and 991 frames (2, 10 and 100
  keyframes) whose keyframes move from ``fixtures.displaced_estimate``
  onto the path, with the updates passed as a list of ``KeyframeUpdate``,
  as a SLAM back-end would: milliseconds per call, median and quartiles
  of 15 timed batches of calls, each batch after a probe median as above.
  It measures the fixed cost of one call, which the CLI ladder hides
  under parsing and writing.  The batches call one trajectory again and
  again with the same updates, as a back-end that moves the same window
  does (``repeated``, the gated figure); beside each batch, as many
  freshly built copies of the trajectory are called once each
  (``first_call``), which pays for what a trajectory keeps between calls.
  The 11-frame entry states ROADMAP item 3's fixed-cost target: a call
  at least 2x below 1.36 ms at the probe's reference speed.  One more
  call per size runs under a tracer
  that counts the numpy calls made from ``posecorrect`` code: numpy
  functions and array methods (``np.fromiter`` and ``tolist`` among
  them, once per ``math`` function mapped over rows; the ``math`` calls
  themselves are not numpy calls), ufuncs called by name
  (``np.add(...)``), and array operator instructions (binary, comparison
  and unary operators executed in ``posecorrect`` frames; this also
  counts the few operators on Python scalars there).
* **Writer and reader ladders.**  ``io.write_tum`` and ``io.read_tum``
  called in process on the size ladder's estimates (991, 9,991 and 99,991
  lines), as milliseconds per call at the probe's reference speed beside
  wall time, median and quartiles of 15, 9 and 5 timed calls after one
  warm-up call, each after a probe median as above.  They measure the
  text formatting that the CLI ladder's ``correct`` pays once per run and
  the parsing it pays three times.  The same for
  ``evaluate.write_frame_errors_csv`` on seven files, one per method, of
  the errors that one ``evaluate.SnapProtocol`` of the estimate and its
  path returns per method: the writer, and the input, that the CLI
  ladder's ``evaluate-all`` pays once per run.  They cover the relative
  frames only (891, 8,991 and 89,991 rows; ``lines`` still counts every
  frame), where records before this one scored every frame.  The same
  again for
  ``evaluate.write_diagnostics_csv`` on the segment table of the proposed
  correction of each estimate (100, 1,000 and 10,000 rows), which the CLI
  ladder's ``correct`` writes once per run.
* **Synth ladder.**  ``synth.path_world_poses`` of each ladder path and
  ``fixtures.displaced_estimate`` of it (991, 9,991 and 99,991 frames),
  timed the same way: the input build that perfbench's ``setup_s`` pays.
* **Simulate ladder.**  ``posecorrect simulate --shape mav
  --rels-per-segment 9`` in process at 991, 2,991 and 9,991 frames (100,
  300 and 1,000 keyframes), one fresh subprocess per size and side, each
  timing one call after a probe median as above: its wall time, the time
  at the probe's reference speed, and the process's peak RSS
  (``ru_maxrss``, the import included).  The sizes stop at 9,991 frames
  because the per-object generator of earlier checkouts grows faster than
  the frame count.

Every timed call of the size, writer and reader ladders writes into an
output directory removed before the call's probe, outside the timed
region: a file that is truncated and rewritten right after its last write
pays the disk's flush, which would then be timed instead of the code.

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
LADDER_REPS = {100: 15, 1000: 9, 10000: 5}  # timed calls per keyframe count
ROOT = Path(__file__).resolve().parent.parent

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

# Prefix of the timing scripts; each takes the perfbench directory last.
PROBE = """
import shutil, statistics, sys, time
sys.path.insert(0, sys.argv[-1])
from speed import REFERENCE_PROBE_S, probe

PROBES = 15  # probe calls timed before each timed command


def clear(out):
    # Untimed, before each timed call, so that none rewrites a file the last one wrote.
    shutil.rmtree(out, ignore_errors=True)


def probe_median():
    times = []
    for _ in range(PROBES):
        start = time.perf_counter()
        probe()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
"""

LADDER_TIMING = PROBE + """
import json
from pathlib import Path
from posecorrect.cli import main

d, reps, out = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3]

common = ["--traj", str(d / "est.tum"), "--kf-index", str(d / "kf_index.txt"), "--out", out]
commands = {
    "correct": ["correct", *common, "--methods", "proposed", "--kf-old", str(d / "kf_old.tum"),
                "--kf-new", str(d / "kf_new.tum")],
    "evaluate": ["evaluate", *common, "--methods", "proposed", "--gt", str(d / "gt.tum")],
    "evaluate-all": ["evaluate", *common, "--methods", "all", "--gt", str(d / "gt.tum")],
}
runs = {}
for name, argv in commands.items():
    assert main(argv) == 0
    runs[name] = {"wall_s": [], "probe_s": []}
    for _ in range(reps):
        clear(out)
        runs[name]["probe_s"].append(probe_median())
        start = time.perf_counter()
        assert main(argv) == 0
        runs[name]["wall_s"].append(time.perf_counter() - start)
print(json.dumps({"reference_probe_s": REFERENCE_PROBE_S, "runs": runs}))
"""


SIMULATE_KEYFRAMES = (100, 300, 1000)

SIMULATE_TIMING = PROBE + """
import json, resource
from posecorrect.cli import main

n_keyframes, out = sys.argv[1], sys.argv[2]
probe_s = probe_median()
start = time.perf_counter()
assert main(["simulate", "--shape", "mav", "--n-keyframes", n_keyframes,
             "--rels-per-segment", "9", "--out", out]) == 0
wall_s = time.perf_counter() - start
maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"reference_probe_s": REFERENCE_PROBE_S, "wall_s": wall_s, "probe_s": probe_s,
                  "maxrss_kb": maxrss_kb}))
"""


CALL_KEYFRAMES = {2: 40, 10: 40, 100: 10}  # keyframe count: calls per timed batch
CALL_BATCHES = 15
FIXED_COST_MS = 1.36  # an 11-frame call at the re-anchor of ROADMAP item 3
FIXED_COST_TARGET = 2.0  # the fold below it that the item asks for

CALL_TIMING = PROBE + """
import dis, json
import numpy as np
import posecorrect
from posecorrect import evaluate, fixtures
from posecorrect.synth import SceneSpec, keyframe_positions, path_world_poses
from posecorrect.trajectory import KeyframeUpdate, Trajectory, from_world_poses

sizes, batches = json.loads(sys.argv[1]), int(sys.argv[2])

PACKAGE = posecorrect.__path__[0]
OPERATORS = {dis.opmap[name] for name in (
    "BINARY_OP", "COMPARE_OP", "UNARY_NEGATIVE", "UNARY_INVERT", "UNARY_POSITIVE"
)}


class CountedUfunc:
    def __init__(self, ufunc, counts):
        self.ufunc, self.counts = ufunc, counts

    def __call__(self, *args, **kwargs):
        self.counts["ufunc_calls"] += 1
        return self.ufunc(*args, **kwargs)

    def __getattr__(self, name):  # reduce, reduceat, ...
        self.counts["ufunc_calls"] += 1
        return getattr(self.ufunc, name)


def count_numpy_calls(call):
    counts = {"functions_and_methods": 0, "ufunc_calls": 0, "operators": 0}
    in_package = lambda frame: frame is not None and frame.f_code.co_filename.startswith(PACKAGE)
    patched = []
    for module in [np, *(m for name, m in sys.modules.items() if name.startswith("posecorrect."))]:
        for name, value in list(vars(module).items()):
            if isinstance(value, np.ufunc):
                patched.append((module, name, value))
                setattr(module, name, CountedUfunc(value, counts))

    def profiler(frame, event, arg):
        if event == "c_call" and in_package(frame):
            module = getattr(arg, "__module__", None) or ""
            if module.startswith("numpy") or isinstance(getattr(arg, "__self__", None), np.ndarray):
                counts["functions_and_methods"] += 1
        elif event == "call" and in_package(frame.f_back) and "/numpy/" in frame.f_code.co_filename:
            # Skip the dispatcher of a numpy function and the Python body
            # of an array method: the call itself is counted once.
            name, path = frame.f_code.co_name, frame.f_code.co_filename
            if not (name.endswith("_dispatcher") or path.endswith("_methods.py")):
                counts["functions_and_methods"] += 1

    def local_tracer(frame, event, arg):
        if event == "opcode" and frame.f_code.co_code[frame.f_lasti] in OPERATORS:
            counts["operators"] += 1
        return local_tracer

    def tracer(frame, event, arg):
        if event == "call" and in_package(frame):
            frame.f_trace_opcodes = True
            return local_tracer
        return None

    sys.setprofile(profiler)
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(None)
        sys.setprofile(None)
        for module, name, value in patched:
            setattr(module, name, value)
    counts["total"] = sum(counts.values())
    return counts


runs = {}
for n_keyframes, calls in sizes.items():
    spec = SceneSpec(shape="mav", n_keyframes=int(n_keyframes), rels_per_segment=9, seed=0)
    gt = path_world_poses(spec)
    positions = keyframe_positions(spec)
    traj = from_world_poses(fixtures.displaced_estimate(gt, positions, seed=0), positions)
    updates = [KeyframeUpdate(i, kf.world_pose, gt[p][1])
               for i, (kf, p) in enumerate(zip(traj.keyframes, positions))]
    cfg = evaluate.MethodConfig("proposed")
    call = lambda: evaluate.correct_trajectory(traj, updates, cfg)
    call()
    entry = {"frames": len(gt), "calls_per_batch": calls, "wall_s": [], "probe_s": [],
             "first_wall_s": [], "first_probe_s": []}
    for _ in range(batches):
        entry["probe_s"].append(probe_median())
        start = time.perf_counter()
        for _ in range(calls):
            call()
        entry["wall_s"].append((time.perf_counter() - start) / calls)
        copies = [Trajectory(traj.kf, traj.rel, traj.parents) for _ in range(calls)]
        entry["first_probe_s"].append(probe_median())
        start = time.perf_counter()
        for copy in copies:
            evaluate.correct_trajectory(copy, updates, cfg)
        entry["first_wall_s"].append((time.perf_counter() - start) / calls)
        del copies
    entry["numpy_calls"] = count_numpy_calls(call)
    runs[n_keyframes] = entry
print(json.dumps({"reference_probe_s": REFERENCE_PROBE_S, "runs": runs}))
"""


TEXT_TIMING = PROBE + """
import json
from pathlib import Path
from posecorrect import io as trajio

d, reps, out, name = Path(sys.argv[1]), int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4]
frames = trajio.read_tum(d / "est.tum")
out.mkdir(parents=True, exist_ok=True)


def snapped():
    # The estimate's trajectory, its keyframes snapped onto the path.
    from posecorrect.trajectory import from_world_poses, snap_to_gt

    gt = trajio.read_tum(d / "gt.tum")
    traj = from_world_poses(frames, [int(i) for i in (d / "kf_index.txt").read_text().split()])
    return traj, snap_to_gt(traj, gt), gt


def frame_errors_files():
    # Every method's errors over the relative frames, from one protocol, as
    # evaluate --methods all hands them to its writer.
    from posecorrect import evaluate

    traj, _, gt = snapped()
    protocol = evaluate.SnapProtocol(traj, gt)
    return [(out / f"frame_errors_{m}.csv", protocol.run(evaluate.MethodConfig(m))[1])
            for m in evaluate.METHODS]


if name == "write_frame_errors_csv":
    from posecorrect.evaluate import write_frame_errors_csv

    files = frame_errors_files()
if name == "write_diagnostics_csv":
    # The segment table of a proposed correction, as correct writes it.
    from posecorrect import evaluate

    traj, updates, _ = snapped()
    diagnostics = evaluate.correct_trajectory(traj, updates, evaluate.MethodConfig("proposed"))[1]
if name == "synth":
    # The generators that wrote this estimate, on a path of its length.
    from posecorrect import fixtures
    from posecorrect.synth import SceneSpec, keyframe_positions, path_world_poses

    spec = SceneSpec(shape="mav", n_keyframes=(len(frames) + 9) // 10, rels_per_segment=9, seed=0)
call = {
    "write_tum": lambda: trajio.write_tum(out / "written.tum", frames),
    "read_tum": lambda: trajio.read_tum(d / "est.tum"),
    "write_frame_errors_csv": lambda: write_frame_errors_csv(files),
    "write_diagnostics_csv": lambda: evaluate.write_diagnostics_csv(out / "diagnostics.csv",
                                                                    diagnostics),
    "synth": lambda: fixtures.displaced_estimate(
        path_world_poses(spec), keyframe_positions(spec), seed=0
    ),
}[name]
call()
run = {"lines": len(frames), "wall_s": [], "probe_s": []}
for _ in range(reps):
    clear(out)
    out.mkdir(parents=True)
    run["probe_s"].append(probe_median())
    start = time.perf_counter()
    call()
    run["wall_s"].append(time.perf_counter() - start)
print(json.dumps({"reference_probe_s": REFERENCE_PROBE_S, "run": run}))
"""


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


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
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for name in order:
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


def ladder_inputs(sides: dict, workdir: Path) -> Path:
    """The ladder's input files, written once by the change checkout."""
    inputs = workdir / "ladder"
    env = dict(os.environ, PYTHONPATH=str(sides["change"] / "src"))
    subprocess.run([sys.executable, "-c", LADDER_INPUTS, str(inputs), *map(str, LADDER_REPS)],
                   env=env, check=True)
    return inputs


def ladder(sides: dict, inputs: Path, workdir: Path) -> dict:
    record = {}
    for k, (n_keyframes, reps) in enumerate(LADDER_REPS.items()):
        frames = 10 * n_keyframes - 9
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        entry = {"frames": frames, "keyframes": n_keyframes, "repetitions": reps}
        for name in order:
            env = dict(os.environ, PYTHONPATH=str(sides[name] / "src"))
            proc = subprocess.run(
                [sys.executable, "-c", LADDER_TIMING, str(inputs / str(n_keyframes)),
                 str(reps), str(workdir / f"ladder-out-{name}"), str(ROOT / "perfbench")],
                env=env, capture_output=True, text=True, check=True,
            )
            timing = json.loads(proc.stdout.splitlines()[-1])
            reference = timing["reference_probe_s"]
            entry[name] = {}
            for command, runs in timing["runs"].items():
                wall = [1e6 * t / frames for t in runs["wall_s"]]
                normalised = [w * reference / p for w, p in zip(wall, runs["probe_s"])]
                entry[name][command] = {
                    "wall": {**quartiles(wall), "unit": "us/frame"},
                    "at_reference_speed": {**quartiles(normalised), "unit": "us/frame"},
                    "runs_s": runs["wall_s"],
                    "probe_median_s": runs["probe_s"],
                }
            print(f"ladder {frames} {name}: " + " / ".join(
                f"{c} {v['at_reference_speed']['median']:.1f}" for c, v in entry[name].items()
            ) + " us/frame at reference speed", file=sys.stderr)
        record[str(frames)] = entry
    return record


def text_ladder(sides: dict, inputs: Path, workdir: Path, call: str) -> dict:
    """``<call>`` (``write_tum``, ``read_tum``, ``write_frame_errors_csv``,
    ``write_diagnostics_csv`` or ``synth``) on each ladder estimate;
    ``lines`` counts its frames."""
    record = {}
    for k, (n_keyframes, reps) in enumerate(LADDER_REPS.items()):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        entry = {"repetitions": reps}
        for name in order:
            env = dict(os.environ, PYTHONPATH=str(sides[name] / "src"))
            proc = subprocess.run(
                [sys.executable, "-c", TEXT_TIMING, str(inputs / str(n_keyframes)), str(reps),
                 str(workdir / f"{call}-out-{name}"), call, str(ROOT / "perfbench")],
                env=env, capture_output=True, text=True, check=True,
            )
            timing = json.loads(proc.stdout.splitlines()[-1])
            run, reference = timing["run"], timing["reference_probe_s"]
            wall = [1e3 * t for t in run["wall_s"]]
            normalised = [w * reference / p for w, p in zip(wall, run["probe_s"])]
            entry["lines"] = run["lines"]
            entry[name] = {
                "wall": {**quartiles(wall), "unit": "ms/call"},
                "at_reference_speed": {**quartiles(normalised), "unit": "ms/call"},
                "runs_s": run["wall_s"],
                "probe_median_s": run["probe_s"],
            }
        entry["change_over_parent_at_reference_speed"] = (
            entry["change"]["at_reference_speed"]["median"]
            / entry["parent"]["at_reference_speed"]["median"]
        )
        print(f"{call} ladder {entry['lines']}: " + " / ".join(
            f"{name} {entry[name]['at_reference_speed']['median']:.2f} ms" for name in order
        ) + " at reference speed", file=sys.stderr)
        record[str(entry["lines"])] = entry
    return record


def simulate_ladder(sides: dict, workdir: Path) -> dict:
    record = {}
    for k, n_keyframes in enumerate(SIMULATE_KEYFRAMES):
        frames = 10 * n_keyframes - 9
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        entry = {"frames": frames, "keyframes": n_keyframes, "order": list(order)}
        for name in order:
            env = dict(os.environ, PYTHONPATH=str(sides[name] / "src"))
            proc = subprocess.run(
                [sys.executable, "-c", SIMULATE_TIMING, str(n_keyframes),
                 str(workdir / f"simulate-out-{name}-{n_keyframes}"), str(ROOT / "perfbench")],
                env=env, capture_output=True, text=True, check=True,
            )
            run = json.loads(proc.stdout.splitlines()[-1])
            entry[name] = {
                "wall_s": run["wall_s"],
                "at_reference_speed_s": run["wall_s"] * run["reference_probe_s"] / run["probe_s"],
                "probe_median_s": run["probe_s"],
                "peak_rss_mb": run["maxrss_kb"] / 1024.0,
            }
        for key in ("wall_s", "at_reference_speed_s", "peak_rss_mb"):
            entry[f"{key}_change_over_parent"] = entry["change"][key] / entry["parent"][key]
        print(f"simulate ladder {frames}: " + " / ".join(
            f"{name} {entry[name]['wall_s']:.2f} s, {entry[name]['peak_rss_mb']:.0f} MB"
            for name in order
        ), file=sys.stderr)
        record[str(frames)] = entry
    return record


def call_ladder(sides: dict) -> dict:
    record = {}
    per_side = {}
    for name in ("parent", "change"):
        env = dict(os.environ, PYTHONPATH=str(sides[name] / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", CALL_TIMING, json.dumps(CALL_KEYFRAMES), str(CALL_BATCHES),
             str(ROOT / "perfbench")],
            env=env, capture_output=True, text=True, check=True,
        )
        per_side[name] = json.loads(proc.stdout.splitlines()[-1])
    for n_keyframes in map(str, CALL_KEYFRAMES):
        entry = None
        for name, timing in per_side.items():
            run = timing["runs"][n_keyframes]
            reference = timing["reference_probe_s"]
            if entry is None:
                entry = {"frames": run["frames"], "keyframes": int(n_keyframes),
                         "calls_per_batch": run["calls_per_batch"], "batches": CALL_BATCHES}
            entry[name] = {"numpy_calls": run["numpy_calls"]}
            for kind, prefix in (("repeated", ""), ("first_call", "first_")):
                wall = [1e3 * t for t in run[prefix + "wall_s"]]
                normalised = [w * reference / p for w, p in zip(wall, run[prefix + "probe_s"])]
                entry[name][kind] = {
                    "wall": {**quartiles(wall), "unit": "ms/call"},
                    "at_reference_speed": {**quartiles(normalised), "unit": "ms/call"},
                    "runs_s": run[prefix + "wall_s"],
                    "probe_median_s": run[prefix + "probe_s"],
                }
        for kind in ("repeated", "first_call"):
            entry[f"{kind}_change_over_parent_at_reference_speed"] = (
                entry["change"][kind]["at_reference_speed"]["median"]
                / entry["parent"][kind]["at_reference_speed"]["median"]
            )
        if entry["frames"] == 11:
            entry["fixed_cost_target"] = {
                "reference_ms": FIXED_COST_MS,
                "target_fold_below": FIXED_COST_TARGET,
                **{f"{name}_repeated_fold_below": FIXED_COST_MS
                   / entry[name]["repeated"]["at_reference_speed"]["median"] for name in per_side},
            }
        print(f"call ladder {entry['frames']}: " + " / ".join(
            f"{name} {entry[name]['repeated']['at_reference_speed']['median']:.3f} ms repeated, "
            f"{entry[name]['first_call']['at_reference_speed']['median']:.3f} ms first call, "
            f"{entry[name]['numpy_calls']['total']} numpy calls" for name in per_side
        ), file=sys.stderr)
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
        inputs = ladder_inputs(sides, workdir)
        record["ladder"] = ladder(sides, inputs, workdir)
        record["writer_ladder"] = text_ladder(sides, inputs, workdir, "write_tum")
        record["reader_ladder"] = text_ladder(sides, inputs, workdir, "read_tum")
        record["frame_errors_ladder"] = text_ladder(
            sides, inputs, workdir, "write_frame_errors_csv"
        )
        record["diagnostics_ladder"] = text_ladder(sides, inputs, workdir, "write_diagnostics_csv")
        record["synth_ladder"] = text_ladder(sides, inputs, workdir, "synth")
        record["simulate_ladder"] = simulate_ladder(sides, workdir)
    record["call_ladder"] = call_ladder(sides)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
