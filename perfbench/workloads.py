"""Seeded inputs, the timed operation and its output check, per workload.

Every input is built from public library calls (``synth.path_world_poses``,
``synth.keyframe_positions``, ``fixtures.displaced_estimate``,
``synth.SimilarityTransform``, ``io.write_tum``); ``generate_scene`` is not
used because no workload reads landmarks.  The program is driven only
through ``posecorrect.cli.main`` (batch workloads) and
``posecorrect.evaluate.correct_trajectory`` (online workload); both are
looked up on their module at call time so that the tracer's wrappers are
picked up.
"""
from __future__ import annotations

import csv
import json
import math
import shutil
from pathlib import Path

import numpy as np

from posecorrect import cli, evaluate, fixtures, synth
from posecorrect import io as trajio
from posecorrect.liegeom import Pose, so3_exp
from posecorrect.trajectory import KeyframeUpdate, from_world_poses

REFERENCE_FILE = Path(__file__).with_name("reference_report.json")

POSE_TOL_M = 1e-9      # similarity oracle, translation (acceptance criterion 1)
POSE_TOL_RAD = 1e-9    # similarity oracle, rotation
UNIT_QUAT_TOL = 1e-9   # |‖q‖ - 1| accepted on perturbed outputs
REPORT_RTOL = 1e-9     # report.csv against the stored reference values

# (n_keyframes, rels_per_segment) per workload and size; online-window also
# fixes the window length in keyframes.
SIZES = {
    "evaluate-all": {"full": (300, 9), "tiny": (6, 3)},
    "correct-forward": {"full": (200, 49), "tiny": (6, 5)},
    "online-window": {"full": (400, 9), "tiny": (12, 3)},
}
WINDOW_KEYFRAMES = {"full": 10, "tiny": 4}


class CheckFailed(AssertionError):
    """An operation returned, but its output is wrong."""


def poses_to_arrays(poses) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stamps (N,), translations (N,3) and wxyz quaternions (N,4)."""
    stamps = np.array([fid.stamp for fid, _ in poses])
    trans = np.array([pose.translation for _, pose in poses]).reshape(-1, 3)
    quats = np.array([pose.rotation.quat for _, pose in poses]).reshape(-1, 4)
    return stamps, trans, quats


def rotation_gap_rad(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Rotation angle between paired unit quaternions, accurate near zero.

    The chord between unit quaternions is ``2 sin(theta / 4)``; taking the
    shorter of ``q1 - q2`` and ``q1 + q2`` removes the sign ambiguity.  An
    ``acos`` of the dot product would floor at about 1e-8 rad.
    """
    chord = np.minimum(
        np.linalg.norm(q1 - q2, axis=1), np.linalg.norm(q1 + q2, axis=1)
    )
    return 4.0 * np.arcsin(np.minimum(chord / 2.0, 1.0))


def check_similarity_oracle(got_t, got_q, want_t, want_q) -> None:
    """Corrected poses must equal the similarity-mapped input poses."""
    if got_t.shape != want_t.shape or got_q.shape != want_q.shape:
        raise CheckFailed(f"got {len(got_t)} poses, expected {len(want_t)}")
    check_finite_unit(got_t, got_q)
    dt = float(np.max(np.linalg.norm(got_t - want_t, axis=1), initial=0.0))
    dr = float(np.max(rotation_gap_rad(got_q, want_q), initial=0.0))
    if not (dt <= POSE_TOL_M and dr <= POSE_TOL_RAD):
        raise CheckFailed(
            f"similarity oracle: max translation error {dt:.3e} m "
            f"(limit {POSE_TOL_M}), max rotation error {dr:.3e} rad (limit {POSE_TOL_RAD})"
        )


def check_finite_unit(trans, quats) -> None:
    if not (np.all(np.isfinite(trans)) and np.all(np.isfinite(quats))):
        raise CheckFailed("non-finite pose values")
    drift = float(np.max(np.abs(np.linalg.norm(quats, axis=1) - 1.0), initial=0.0))
    if drift > UNIT_QUAT_TOL:
        raise CheckFailed(f"quaternion norm departs from 1 by {drift:.3e}")


def read_tum_arrays(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stamps, translations and wxyz quaternions of a TUM file."""
    data = np.loadtxt(path, comments="#", ndmin=2)
    return data[:, 0], data[:, 1:4], data[:, [7, 4, 5, 6]]


def random_similarity(rng: np.random.Generator) -> synth.SimilarityTransform:
    return synth.SimilarityTransform.random(rng, scale=float(rng.uniform(0.5, 2.0)))


def _write_kf_index(path, frames, positions) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# keyframe frame indices\n")
        for p in positions:
            fh.write(f"{frames[p][0].index}\n")


class Workload:
    """One seeded workload: inputs built once, then ``run_op`` per call.

    ``run_op`` returns the latency-relevant result; ``check`` raises
    :class:`CheckFailed` on a wrong output; ``clear_output`` removes the
    files an operation wrote.  ``frames`` is the number of trajectory
    frames one operation handles.
    """

    name = ""
    out = None  # the CLI's --out directory, for batch workloads

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.n_keyframes, self.rels_per_segment = SIZES[self.name][size]

    def spec(self, shape: str) -> synth.SceneSpec:
        return synth.SceneSpec(
            shape=shape,
            n_keyframes=self.n_keyframes,
            rels_per_segment=self.rels_per_segment,
            seed=self.seed,
        )

    def clear_output(self) -> None:
        """Delete the last operation's output, so that each check reads
        only files written by the operation it judges."""
        if self.out is not None:
            shutil.rmtree(self.out, ignore_errors=True)

    def describe(self) -> dict:
        return {
            "frames": self.frames,
            "keyframes": self.keyframes,
            "rels_per_segment": self.rels_per_segment,
            "size": self.size,
        }


class EvaluateAll(Workload):
    """``posecorrect evaluate --methods all`` on a displaced ``mav`` estimate."""

    name = "evaluate-all"

    def __init__(self, seed: int, size: str, workdir: Path):
        super().__init__(seed, size, workdir)
        spec = self.spec("mav")
        gt = synth.path_world_poses(spec)
        positions = synth.keyframe_positions(spec)
        est = fixtures.displaced_estimate(gt, positions, seed=seed)
        self.est_path = self.workdir / "est.tum"
        self.gt_path = self.workdir / "gt.tum"
        self.kf_path = self.workdir / "kf_index.txt"
        self.out = self.workdir / "out"
        trajio.write_tum(self.est_path, est)
        trajio.write_tum(self.gt_path, gt)
        _write_kf_index(self.kf_path, gt, positions)
        self.frames = len(est)
        self.keyframes = len(positions)
        self.relatives = self.frames - self.keyframes
        self.reference = load_reference(seed, size)

    def run_op(self):
        return cli.main([
            "evaluate", "--traj", str(self.est_path), "--gt", str(self.gt_path),
            "--kf-index", str(self.kf_path), "--methods", "all", "--out", str(self.out),
        ])

    def check(self, status) -> None:
        if status != 0:
            raise CheckFailed(f"evaluate exited with {status}")
        rows = read_report(self.out / "report.csv")
        if [r["method"] for r in rows] != list(evaluate.METHODS):
            raise CheckFailed("report.csv does not list every method once, in order")
        for row in rows:
            values = [float(row[k]) for k in REPORT_VALUE_COLUMNS]
            if not all(math.isfinite(v) for v in values):
                raise CheckFailed(f"report.csv: non-finite value for {row['method']}")
            name = f"frame_errors_{row['method']}.csv"
            errors = np.loadtxt(self.out / name, delimiter=",", skiprows=1, ndmin=2)
            if len(errors) != self.relatives:
                raise CheckFailed(f"{name} has {len(errors)} rows, expected {self.relatives}")
            if not np.all(np.isfinite(errors)):
                raise CheckFailed(f"{name}: non-finite value")
        if self.reference is not None:
            compare_report(rows, self.reference)


class CorrectForward(Workload):
    """``posecorrect correct --methods proposed`` after a similarity update
    of a long ``forward`` run; the update files hold only the keyframes."""

    name = "correct-forward"

    def __init__(self, seed: int, size: str, workdir: Path):
        super().__init__(seed, size, workdir)
        spec = self.spec("forward")
        frames = synth.path_world_poses(spec)
        positions = synth.keyframe_positions(spec)
        self.sim = random_similarity(np.random.default_rng(seed + 1))
        kf_old = [frames[p] for p in positions]
        kf_new = [(fid, self.sim.apply_pose(pose)) for fid, pose in kf_old]
        self.traj_path = self.workdir / "traj.tum"
        self.kf_path = self.workdir / "kf_index.txt"
        self.old_path = self.workdir / "kf_old.tum"
        self.new_path = self.workdir / "kf_new.tum"
        self.out = self.workdir / "out"
        trajio.write_tum(self.traj_path, frames)
        _write_kf_index(self.kf_path, frames, positions)
        trajio.write_tum(self.old_path, kf_old)
        trajio.write_tum(self.new_path, kf_new)
        self.want = poses_to_arrays(
            [(fid, self.sim.apply_pose(pose)) for fid, pose in frames]
        )
        self.frames = len(frames)
        self.keyframes = len(positions)

    def run_op(self, method: str = "proposed"):
        return cli.main([
            "correct", "--traj", str(self.traj_path), "--kf-index", str(self.kf_path),
            "--kf-old", str(self.old_path), "--kf-new", str(self.new_path),
            "--methods", method, "--out", str(self.out),
        ])

    def check(self, status) -> None:
        if status != 0:
            raise CheckFailed(f"correct exited with {status}")
        stamps, trans, quats = read_tum_arrays(self.out / "corrected.tum")
        want_stamps, want_t, want_q = self.want
        if not np.array_equal(stamps, want_stamps):
            raise CheckFailed("corrected.tum frames differ from the input frames")
        check_similarity_oracle(trans, quats, want_t, want_q)


class OnlineWindow(Workload):
    """Many small ``correct_trajectory`` calls, one keyframe window each.

    Every third update is a pure similarity: it has an exact oracle, and
    its segment gaps vanish, so the nlerp branch runs.  The others add a
    per-keyframe SE(3) perturbation large enough that most gaps take the
    general slerp branch; a back-end's updates are rarely exact
    similarities.  Cycling the kinds per call keeps the mix fixed however
    many calls a run makes.
    """

    name = "online-window"
    SIMILARITY_EVERY = 3
    PERTURB_ROT = 0.05     # rad per axis; most segment gaps exceed the nlerp cutoff
    PERTURB_TRANS = 0.02   # m

    def __init__(self, seed: int, size: str, workdir: Path):
        super().__init__(seed, size, workdir)
        spec = self.spec("mav")
        frames = synth.path_world_poses(spec)
        per_window = WINDOW_KEYFRAMES[size]
        step = self.rels_per_segment + 1
        span = (per_window - 1) * step + 1
        local_kfs = [k * step for k in range(per_window)]
        rng = np.random.default_rng(seed + 2)
        self.cfg = evaluate.MethodConfig("proposed")
        # windows[w] = (trajectory, {perturbed: (updates, expected arrays)})
        self.windows = []
        for first in range(0, len(frames) - span + 1, (per_window - 1) * step):
            window = frames[first:first + span]
            traj = from_world_poses(window, local_kfs)
            variants = {}
            for perturbed in (False, True):
                sim = random_similarity(rng)
                updates = []
                for i, kf in enumerate(traj.keyframes):
                    new = sim.apply_pose(kf.world_pose)
                    if perturbed:
                        wobble = Pose(
                            so3_exp(rng.normal(0.0, self.PERTURB_ROT, size=3)),
                            rng.normal(0.0, self.PERTURB_TRANS, size=3),
                        )
                        new = wobble * new
                    updates.append(KeyframeUpdate(i, kf.world_pose, new))
                want = None if perturbed else poses_to_arrays(
                    [(fid, sim.apply_pose(pose)) for fid, pose in window]
                )
                variants[perturbed] = (updates, want)
            self.windows.append((traj, variants))
        self.calls = 0
        self.frames = span
        self.keyframes = per_window

    def describe(self) -> dict:
        return {**super().describe(), "windows": len(self.windows),
                "path_keyframes": self.n_keyframes}

    def run_op(self):
        k = self.calls
        self.calls += 1
        traj, variants = self.windows[k % len(self.windows)]
        updates, want = variants[k % self.SIMILARITY_EVERY != 0]
        world, diagnostics = evaluate.correct_trajectory(traj, updates, self.cfg)
        return world, diagnostics, want

    def check(self, result) -> None:
        world, _, want = result
        if len(world) != self.frames:
            raise CheckFailed(f"got {len(world)} poses, expected {self.frames}")
        _, trans, quats = poses_to_arrays(world)
        if want is None:
            check_finite_unit(trans, quats)
        else:
            check_similarity_oracle(trans, quats, want[1], want[2])


WORKLOADS = {w.name: w for w in (EvaluateAll, CorrectForward, OnlineWindow)}

# -- report.csv ------------------------------------------------------------------

REPORT_VALUE_COLUMNS = (
    "t_mean_cm", "t_std_cm", "t_median_cm", "r_mean_deg", "r_std_deg", "r_median_deg",
)


def read_report(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def load_reference(seed: int, size: str):
    """Stored report.csv values for this seed, or None when none are stored."""
    if size != "full" or not REFERENCE_FILE.exists():
        return None
    table = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return table["seeds"].get(str(seed))


def report_values(rows) -> dict:
    return {
        row["method"]: [float(row[k]) for k in REPORT_VALUE_COLUMNS]
        + [int(row["singular_hits"])]
        for row in rows
    }


def compare_report(rows, reference: dict) -> None:
    got = report_values(rows)
    if sorted(got) != sorted(reference):
        raise CheckFailed("report.csv methods differ from the stored reference")
    for method, want in reference.items():
        for column, g, w in zip(REPORT_VALUE_COLUMNS + ("singular_hits",), got[method], want):
            if not math.isclose(g, w, rel_tol=REPORT_RTOL, abs_tol=0.0):
                raise CheckFailed(
                    f"report.csv {method}.{column} = {g!r}, reference {w!r}"
                )
