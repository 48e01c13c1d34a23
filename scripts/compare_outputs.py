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
  lines, which they read line by line.

For every command the exit code, standard output and standard error are
compared, and afterwards every file the commands wrote.  ``bench`` output
holds timings, so only its exit code, its streams and the names of its
files are compared.  The inputs that are not made by a command (the KITTI
trajectories, and ``tests/data``) are written once, from the change
checkout, and copied to both sides.  Exits 0 when everything is
byte-identical, 1 otherwise, and lists each difference.
"""
from __future__ import annotations

import argparse
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
    return subprocess.run([sys.executable, "-m", "posecorrect.cli", *argv], cwd=cwd, env=env,
                          capture_output=True)


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
