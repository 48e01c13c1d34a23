#!/usr/bin/env python3
"""Run one fixed set of ``posecorrect`` commands on two checkouts and
compare their results byte for byte.

    python3 scripts/compare_outputs.py --parent ../parent --change .

Each checkout runs every command from its own ``src`` in its own working
directory, with the same relative paths, so that paths echoed in
``config.json`` or in error messages are the same on both sides.  The
command set:

* the README quick start (``simulate``, ``evaluate``, ``correct``,
  ``bench``);
* ``evaluate --methods all`` at each of the six translation/rotation space
  pairs, on the quick-start scene and on a ``mav`` scene;
* ``correct`` with each method on both scenes, and with ``proposed`` and
  ``se3-v`` on KITTI inputs;
* ``--scale-squared`` and ``--raw-division``, with ``evaluate --methods
  all`` and with ``correct`` (``proposed`` and three baselines);
* ``correct`` and ``evaluate`` on each malformed file in ``tests/data``
  (non-UTF-8 data lines, a KITTI reflection and a KITTI rotation whose
  entries overflow among them), and on its non-UTF-8 keyframe index;
* ``correct`` and ``evaluate`` on the valid ten-frame files of
  ``tests/data`` whose text is out of the ordinary: CRLF and tab-separated
  files and one with a Latin-1 comment line, which the readers convert
  with ``np.loadtxt``, and files with comment lines between their data
  lines, which they read line by line;
* ``correct`` with each method on a drifted ``rotonly`` scene, whose
  zero-length keyframe baselines write ``degenerate_baseline`` rows and
  quaternion-renormalization hits to ``diagnostics.csv``;
* ``simulate`` of a ``line`` scene and of a ``forward`` scene with no
  relative frames, both at ``--drift 0.5``, so that every path shape and
  a drift other than 1 are compared;
* ``evaluate`` with a valid and with an invalid ``--config`` file;
* ``evaluate --methods all`` on a 2,991-frame ``mav`` scene, whose
  frame-error files span several of the writer's blocks;
* ``evaluate --raw-division`` on a three-frame input whose keyframes have
  zero yaw, where every interpolating baseline but Euler warns of
  non-finite frames, the two that share a kernel run among them;
* ``evaluate`` on a copy of that input whose stem holds ``,`` and ``"``,
  so that ``report.csv`` quotes its ``sequence`` cell;
* ``evaluate --methods all`` on the ``forward`` scene with no relative
  frames: every ``frame_errors_*.csv`` is a header alone, and
  ``report.csv`` holds ``nan`` cells;
* ``evaluate --methods all`` on a nine-frame input where one relative
  frame shares a keyframe's stamp and two relative frames share a stamp,
  so that the order of the scored rows is compared;
* ``correct`` with each method on that nine-frame input, its keyframes
  moved onto its ground truth: its last frame follows the last keyframe,
  so the corrected files hold a terminal segment that passes through;
* one in-process command per simulated scene (``repeated-updates``): it
  corrects one trajectory again and again, with every method, under a
  cycle of updates whose old poses are the trajectory's own keyframes or
  differ from them, and writes each result with ``write_tum`` and
  ``write_diagnostics_csv``, so that results a trajectory computes after
  earlier calls are compared too, not only those of a fresh process.  One
  update of the cycle moves a keyframe onto its predecessor's translation,
  a degenerate new baseline, between two updates that reuse the
  trajectory's memo.

For every command the exit code, standard output and standard error are
compared, and afterwards every file the commands wrote.  ``bench`` output
holds timings, so only its exit code, its streams and the names of its
files are compared.  The inputs that are not made by a command (the KITTI
trajectories, the ``--config`` files, the zero-yaw and shared-stamp inputs
and ``tests/data``) are written once, from the change checkout, and copied to
both sides.  Exits 0 when
everything is byte-identical, 1 otherwise, and lists each difference.
"""
from __future__ import annotations

import argparse
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SPACE_PAIRS = [(ts, rs) for ts in ("xyz", "se3-v") for rs in ("euler", "quat", "so3")]
METHODS = ("no-correction", "xyz", "se3-v", "euler", "quat", "so3", "proposed")
RAW_DIVISION_METHODS = ("xyz", "euler", "so3")  # --raw-division changes only the baselines
TIMED_OUTPUTS = ("out/bench",)  # contents are timings; compared by file name only
MALFORMED = ("malformed.tum", "bad_quat.tum", "comments_only.tum", "malformed.kitti",
             "bad_rotation.kitti", "non_utf8.tum", "non_utf8.kitti", "reflection.kitti",
             "huge_rotation.kitti")
# Valid ten-frame trajectories (keyframes at 0, 3, 6, 9), each with the
# file its keyframes move onto or that serves as its ground truth.
ODD_TEXT = (("crlf.tum", "tabs.tum"), ("tabs.tum", "interior_comments.tum"),
            ("interior_comments.tum", "crlf.tum"), ("crlf.kitti", "interior_comments.kitti"),
            ("interior_comments.kitti", "crlf.kitti"), ("latin1_header.tum", "crlf.tum"))
# The --config inputs: every value of the valid one differs from the
# flag's default; the invalid one names a rotation space that does not exist.
CONFIGS = {
    "config.json": '{"methods": "all", "trans-space": "se3-v", "rot-space": "euler", '
                   '"raw-division": true, "assoc-tol": 0.02}\n',
    "bad_config.json": '{"methods": "all", "rot-space": "rpy"}\n',
}



def zero_yaw_line(stamp, x, yaw):
    return f"{stamp} {x} 0 0 0 0 {math.sin(yaw / 2)!r} {math.cos(yaw / 2)!r}\n"


# Keyframes at t=0 and t=1 with zero yaw and a frame between them with yaw
# 0.3; ground truth turns the second keyframe's yaw to 0.1.  Under
# --raw-division the baselines divide by the zero yaw gap.
ZERO_YAW = {
    "zero_yaw.tum": zero_yaw_line(0, 0, 0) + zero_yaw_line(0.5, 0.5, 0.3) + zero_yaw_line(1, 1, 0),
    "zero_yaw_kf_index.txt": "0\n2\n",
    "zero_yaw_gt.tum": zero_yaw_line(0, 0, 0) + zero_yaw_line(0.5, 0.5, 0.3)
    + zero_yaw_line(1, 1, 0.1),
}
# The zero-yaw input under a stem that report.csv's sequence cell must quote.
QUOTED_STEM = 'zero,"yaw"'
ZERO_YAW[f"{QUOTED_STEM}.tum"] = ZERO_YAW["zero_yaw.tum"]


def shared_stamps_line(stamp, x, yaw):
    return f"{stamp} {x!r} {0.1 * x!r} 0 0 0 {math.sin(yaw / 2)!r} {math.cos(yaw / 2)!r}\n"


# Keyframes at t=0, 0.5 and 1 (lines 0, 4 and 7); frames 2 and 3 share t=0.2,
# and frame 5 shares keyframe 4's stamp.  Ground truth stretches x and yaw.
SHARED_STAMPS_T = (0.0, 0.1, 0.2, 0.2, 0.5, 0.5, 0.7, 1.0, 1.1)
SHARED_STAMPS = {
    "shared_stamps.tum": "".join(shared_stamps_line(t, t + 0.01 * k, 0.2 * t)
                                 for k, t in enumerate(SHARED_STAMPS_T)),
    "shared_stamps_kf_index.txt": "0\n4\n7\n",
    "shared_stamps_gt.tum": "".join(shared_stamps_line(t, 1.05 * t + 0.01 * k, 0.25 * t)
                                    for k, t in enumerate(SHARED_STAMPS_T)),
}

REPEATED = "repeated-updates"  # the in-process command; its arguments follow
REPEATED_UPDATES = """
import sys
from pathlib import Path
from posecorrect import evaluate, io
from posecorrect.trajectory import KeyframeUpdates, from_world_poses, snap_to_gt

scene, out = Path(sys.argv[1]), Path(sys.argv[2])
out.mkdir(parents=True)
est, gt = io.read_tum(scene / "est.tum"), io.read_tum(scene / "gt.tum")
traj = from_world_poses(est, io.read_keyframe_index(scene / "kf_index.txt", est))
snap = snap_to_gt(traj, gt)
kf = traj.kf
collapsed = 1.5 * kf.t
collapsed[1] = collapsed[0]  # keyframe 1 on keyframe 0's translation: a degenerate new baseline
cycle = {
    "snap": snap,
    "scaled": KeyframeUpdates(kf.q, kf.t, kf.q, 1.5 * kf.t),
    "back": KeyframeUpdates(snap.new_q, snap.new_t, kf.q, kf.t),  # other old poses
    "collapsed": KeyframeUpdates(kf.q, kf.t, kf.q, collapsed),
}
configs = [evaluate.MethodConfig(m) for m in evaluate.METHODS]
configs.append(evaluate.MethodConfig("proposed", scale_squared=True))
for k, name in enumerate(["snap", "scaled", "snap", "back", "back", "scaled", "collapsed",
                          "scaled", "snap"]):
    for cfg in configs:
        world, diagnostics = evaluate.correct_trajectory(traj, cycle[name], cfg)
        tag = f"{k}-{name}-{cfg.name}" + ("-squared" if cfg.scale_squared else "")
        io.write_tum(out / f"{tag}.tum", world)
        evaluate.write_diagnostics_csv(out / f"{tag}.csv", diagnostics)
"""

KITTI_INPUTS = """
import sys
from posecorrect import io
for name in ("est", "gt"):
    io.write_kitti(f"in/{name}.kitti", io.read_tum(f"{sys.argv[1]}/{name}.tum"))
"""


def scene_commands(scene: str, out: str) -> list[list[str]]:
    traj = ["--traj", f"{scene}/est.tum", "--kf-index", f"{scene}/kf_index.txt"]
    ev = ["evaluate", *traj, "--gt", f"{scene}/gt.tum", "--methods", "all"]
    corr = ["correct", *traj, "--kf-old", f"{scene}/est.tum", "--kf-new", f"{scene}/gt.tum"]
    commands = [
        [*ev, "--trans-space", ts, "--rot-space", rs, "--out", f"{out}/eval-{ts}-{rs}"]
        for ts, rs in SPACE_PAIRS
    ]
    for flag in ("--scale-squared", "--raw-division"):
        commands.append([*ev, flag, "--out", f"{out}/eval{flag}"])
    commands += [[*corr, "--methods", m, "--out", f"{out}/corr-{m}"] for m in METHODS]
    commands.append([*corr, "--methods", "proposed", "--scale-squared",
                     "--out", f"{out}/corr-proposed--scale-squared"])
    commands += [
        [*corr, "--methods", m, "--raw-division", "--out", f"{out}/corr-{m}--raw-division"]
        for m in RAW_DIVISION_METHODS
    ]
    return commands


def command_set() -> list[list[str]]:
    sim = ["--traj", "out/sim/est.tum", "--kf-index", "out/sim/kf_index.txt"]
    commands = [
        # The README quick start.
        ["simulate", "--shape", "forward", "--seed", "5", "--drift", "1.0", "--out", "out/sim"],
        ["evaluate", *sim, "--gt", "out/sim/gt.tum", "--methods", "all", "--out", "out/eval"],
        ["correct", *sim, "--kf-old", "out/sim/est.tum", "--kf-new", "out/sim/gt.tum",
         "--methods", "proposed", "--out", "out/corr"],
        ["bench", "--methods", "all", "--repetitions", "20", "--out", "out/bench"],
        ["simulate", "--shape", "mav", "--seed", "3", "--out", "out/mav"],
        *scene_commands("out/sim", "out/sim-runs"),
        *scene_commands("out/mav", "out/mav-runs"),
        *(["correct", "--traj", "in/est.kitti", "--kf-index", "out/sim/kf_index.txt",
           "--kf-old", "in/est.kitti", "--kf-new", "in/gt.kitti", "--methods", m,
           "--out", f"out/corr-kitti-{m}"] for m in ("proposed", "se3-v")),
        ["simulate", "--shape", "rotonly", "--seed", "2", "--drift", "1.0", "--out", "out/rotonly"],
        *(["correct", "--traj", "out/rotonly/est.tum", "--kf-index", "out/rotonly/kf_index.txt",
           "--kf-old", "out/rotonly/est.tum", "--kf-new", "out/rotonly/gt.tum", "--methods", m,
           "--out", f"out/rotonly-corr-{m}"] for m in METHODS),
        ["simulate", "--shape", "line", "--seed", "4", "--drift", "0.5", "--out", "out/line"],
        ["simulate", "--shape", "forward", "--n-keyframes", "3", "--rels-per-segment", "0",
         "--drift", "0.5", "--out", "out/forward-no-rels"],
        *(["evaluate", *sim, "--gt", "out/sim/gt.tum", "--config", f"in/{name}",
           "--out", f"out/eval-{name[:-5]}"] for name in CONFIGS),
        ["simulate", "--shape", "mav", "--n-keyframes", "300", "--rels-per-segment", "9",
         "--drift", "1.0", "--out", "out/mav300"],
        ["evaluate", "--traj", "out/mav300/est.tum", "--kf-index", "out/mav300/kf_index.txt",
         "--gt", "out/mav300/gt.tum", "--methods", "all", "--out", "out/mav300-eval"],
        ["evaluate", "--traj", "in/zero_yaw.tum", "--kf-index", "in/zero_yaw_kf_index.txt",
         "--gt", "in/zero_yaw_gt.tum", "--methods", "no-correction,xyz,se3-v,quat,so3,proposed",
         "--raw-division", "--out", "out/zero-yaw-eval"],
        ["evaluate", "--traj", f"in/{QUOTED_STEM}.tum", "--kf-index", "in/zero_yaw_kf_index.txt",
         "--gt", "in/zero_yaw_gt.tum", "--methods", "no-correction,proposed",
         "--out", "out/quoted-stem-eval"],
        ["evaluate", "--traj", "out/forward-no-rels/est.tum",
         "--kf-index", "out/forward-no-rels/kf_index.txt", "--gt", "out/forward-no-rels/gt.tum",
         "--methods", "all", "--out", "out/forward-no-rels-eval"],
        ["evaluate", "--traj", "in/shared_stamps.tum",
         "--kf-index", "in/shared_stamps_kf_index.txt", "--gt", "in/shared_stamps_gt.tum",
         "--methods", "all", "--out", "out/shared-stamps-eval"],
        *(["correct", "--traj", "in/shared_stamps.tum",
           "--kf-index", "in/shared_stamps_kf_index.txt", "--kf-old", "in/shared_stamps.tum",
           "--kf-new", "in/shared_stamps_gt.tum", "--methods", m,
           "--out", f"out/shared-stamps-corr-{m}"] for m in METHODS),
        *([REPEATED, f"out/{scene}", f"out/repeat-{scene}"] for scene in ("sim", "mav", "rotonly")),
    ]
    for name in MALFORMED:
        commands.append(["evaluate", "--traj", f"data/{name}", "--gt", "data/valid.tum",
                         "--kf-index", "out/sim/kf_index.txt", "--methods", "all",
                         "--out", f"out/bad-eval-{name}"])
        commands.append(["correct", "--traj", f"data/{name}", "--kf-index", "out/sim/kf_index.txt",
                         "--kf-old", "data/valid.tum", "--kf-new", "data/valid.tum",
                         "--methods", "proposed", "--out", f"out/bad-corr-{name}"])
    bad_index = ["--traj", "data/tabs.tum", "--kf-index", "data/non_utf8_kf_index.txt"]
    commands.append(["evaluate", *bad_index, "--gt", "data/crlf.tum", "--methods", "all",
                     "--out", "out/bad-eval-kf-index"])
    commands.append(["correct", *bad_index, "--kf-old", "data/tabs.tum",
                     "--kf-new", "data/crlf.tum", "--methods", "proposed",
                     "--out", "out/bad-corr-kf-index"])
    for name, other in ODD_TEXT:
        traj = ["--traj", f"data/{name}", "--kf-index", "data/ten_frames_kf_index.txt"]
        commands.append(["evaluate", *traj, "--gt", f"data/{other}", "--methods", "all",
                         "--out", f"out/odd-eval-{name}"])
        commands.append(["correct", *traj, "--kf-old", f"data/{name}", "--kf-new", f"data/{other}",
                         "--methods", "proposed", "--out", f"out/odd-corr-{name}"])
    return commands


def run(checkout: Path, cwd: Path, argv: list[str]) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "POSECORRECT_LOG"}
    env["PYTHONPATH"] = str(checkout / "src")
    if argv[0] == REPEATED:
        argv = [sys.executable, "-c", REPEATED_UPDATES, *argv[1:]]
    else:
        argv = [sys.executable, "-m", "posecorrect.cli", *argv]
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True)


def files(root: Path) -> dict[str, Path]:
    return {p.relative_to(root).as_posix(): p for p in sorted(root.rglob("*")) if p.is_file()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="parent checkout")
    p.add_argument("--change", type=Path, required=True, help="changed checkout")
    args = p.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    commands = command_set()
    differences = []
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        work = {name: Path(tmp) / name for name in sides}
        for name, cwd in work.items():
            shutil.copytree(sides["change"] / "tests" / "data", cwd / "data")
            (cwd / "in").mkdir()
            for config, text in (CONFIGS | ZERO_YAW | SHARED_STAMPS).items():
                (cwd / "in" / config).write_text(text, encoding="utf-8")
        results = {name: [] for name in sides}
        for k, command in enumerate(commands):
            for name in sides:
                results[name].append(run(sides[name], work[name], command))
            if k == 4:  # both scenes exist: write the KITTI inputs once, for both sides
                env = dict(os.environ, PYTHONPATH=str(sides["change"] / "src"))
                subprocess.run([sys.executable, "-c", KITTI_INPUTS, "out/sim"],
                               cwd=work["change"], env=env, check=True)
                for kitti in (work["change"] / "in").iterdir():
                    shutil.copy(kitti, work["parent"] / "in" / kitti.name)
        for command, old, new in zip(commands, results["parent"], results["change"]):
            line = " ".join(command)
            for what in ("returncode", "stdout", "stderr"):
                if getattr(old, what) != getattr(new, what):
                    differences.append(f"{what} differs: {line}")
            last = new.stderr.decode(errors="replace").strip().splitlines()[-1:]
            print(f"exit {old.returncode}/{new.returncode}: {line}",
                  *(last if new.returncode else []), sep="\n    ", file=sys.stderr)
        old_files, new_files = (files(work[name] / "out") for name in sides)
        for path in sorted(set(old_files) | set(new_files)):
            if path not in old_files or path not in new_files:
                differences.append(f"only on one side: out/{path}")
            elif not any(f"out/{path}".startswith(t + "/") for t in TIMED_OUTPUTS) and (
                old_files[path].read_bytes() != new_files[path].read_bytes()
            ):
                differences.append(f"content differs: out/{path}")
    for line in differences:
        print(line)
    print(f"{len(commands)} commands, {len(new_files)} output files: "
          + (f"{len(differences)} differences" if differences else "all byte-identical"))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
