"""Error metrics, the keyframe-snap evaluation protocol, and timing.

The protocol snaps every keyframe of the estimated trajectory onto its
ground-truth pose, applies the selected correction method to the relative
frames of each segment, composes the world poses of those frames alone on
the snapped keyframes and reports their per-frame errors (the snapped
keyframes would contribute zeros).  Statistics follow the mean +-
standard deviation (median) convention with the sample (n-1) standard
deviation.  The segment
diagnostics are a table of :data:`SEGMENT_DEFAULTS` rows, one per keyframe.
"""
from __future__ import annotations

import logging
import math
import time
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import baseline, correction
from .baseline import RotSpace, TransSpace
from .floatfmt import write_columns
from .liegeom import rotation_angles_deg, vec_norm
from .trajectory import (
    DEFAULT_ASSOC_TOL,
    FrameId,
    FrameTable,
    KeyframeUpdates,
    SegmentBatch,
    Trajectory,
    associate,
    compose_world_poses,
    relative_world_poses,
    snap_to_gt,
)

log = logging.getLogger("posecorrect.evaluate")


@dataclass(frozen=True)
class MethodConfig:
    """A correction method plus the knobs it needs.

    Translation-space baselines take their rotation treatment from
    ``rot_space`` and rotation-space baselines take their translation
    treatment from ``trans_space``; the proposed method uses neither.
    """

    name: str
    trans_space: TransSpace = TransSpace.XYZ
    rot_space: RotSpace = RotSpace.QUAT
    scale_squared: bool = False
    raw_division: bool = False

    def __post_init__(self):
        if self.name not in METHODS:
            raise ValueError(f"unknown method {self.name!r}; choose from {tuple(METHODS)}")

    def spaces(self) -> tuple[TransSpace, RotSpace]:
        method = METHODS[self.name]
        if method.trans_space is None and method.rot_space is None:
            raise ValueError(f"method {self.name!r} interpolates in no vector space")
        return method.trans_space or self.trans_space, method.rot_space or self.rot_space


# A segment row that no kernel fills in; its fields, in order, are the
# columns of diagnostics.csv.  The proposed correction fills ``s``,
# ``degenerate_baseline`` and the alpha range, the baselines the hit counts.
SEGMENT_DEFAULTS = np.array((0, False, math.nan, False, math.nan, math.nan, 0, 0, 0), dtype=[
    ("segment", "i8"), ("terminal", "?"), ("s", "f8"), ("degenerate_baseline", "?"),
    ("alpha_min", "f8"), ("alpha_max", "f8"),
    ("singular_hits", "i8"),     # components with |x_ab| < SINGULARITY_EPS
    ("gimbal_hits", "i8"),       # Euler vectorizations near pitch = +-pi/2
    ("quat_renorm_hits", "i8"),  # renormalization moved the quaternion > 1e-6
])


@dataclass
class TrajectoryDiagnostics:
    segments: np.ndarray  # one SEGMENT_DEFAULTS row per keyframe
    not_finite: tuple[int, int] = (0, 0)  # corrected frames not finite, of all corrected

    singular_hits = property(lambda self: int(self.segments["singular_hits"].sum()))
    gimbal_hits = property(lambda self: int(self.segments["gimbal_hits"].sum()))
    degenerate_segments = property(lambda self: int(self.segments["degenerate_baseline"].sum()))

    def warn_not_finite(self, method: str) -> None:
        if self.not_finite[0]:
            log.warning("method %s: %d of %d corrected frames are not finite",
                        method, *self.not_finite)


# Kernel adapters: correct the full segments of a trajectory, given as a
# SegmentBatch, and return the poses of their relative frames relative to
# each updated opening keyframe as (N, 4) quaternion and (N, 3) translation
# arrays, plus the diagnostics columns it computes, by name, one value per
# segment.  ``updates`` is the trajectory's KeyframeUpdates table and
# ``pairs()`` returns its KeyframePairs; a kernel calls it at most once.
# Kernels are looked up through their modules at call time, so a patched
# module attribute takes effect.


def _unchanged(batch: SegmentBatch, updates, pairs, cfg: MethodConfig):
    return batch.rels.q, batch.rels.t, {}


def _proposed(batch: SegmentBatch, updates, pairs, cfg: MethodConfig):
    return correction.correct_segment(batch, pairs(), cfg.scale_squared)


def _interpolated(batch: SegmentBatch, updates, pairs, cfg: MethodConfig):
    ts, rs = cfg.spaces()
    return baseline.interp_correct_segment(batch, pairs(), ts, rs, raw_division=cfg.raw_division)


class Method(NamedTuple):
    """A row of :data:`METHODS`; a ``None`` space is taken from the config."""

    kernel: Callable[..., tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]]
    trans_space: Optional[TransSpace] = None
    rot_space: Optional[RotSpace] = None
    terminal_s: float = math.nan  # the s recorded for a terminal segment


METHODS = {
    "no-correction": Method(_unchanged),
    "xyz": Method(_interpolated, trans_space=TransSpace.XYZ),
    "se3-v": Method(_interpolated, trans_space=TransSpace.SE3_V),
    "euler": Method(_interpolated, rot_space=RotSpace.EULER),
    "quat": Method(_interpolated, rot_space=RotSpace.QUAT),
    "so3": Method(_interpolated, rot_space=RotSpace.SO3),
    # Without a closing keyframe only the opening keyframe's condition
    # remains, whose scale ratio is 1.
    "proposed": Method(_proposed, terminal_s=1.0),
}


def _correct(
    traj: Trajectory, updates: KeyframeUpdates, pairs, cfg: MethodConfig
) -> tuple[np.ndarray, np.ndarray, TrajectoryDiagnostics]:
    """Run ``cfg``'s kernel on every full segment of ``traj`` for
    ``updates``, whose pairs ``pairs()`` returns.  Returns every relative
    frame's pose relative to its updated parent keyframe, in segment
    order, and the diagnostics.  No method has an interpolation target
    without a closing keyframe, so the terminal segment's relative poses
    pass through; with none, the kernel's arrays are returned as they are."""
    method = METHODS[cfg.name]
    q, t, columns = method.kernel(traj.full_segments(), updates, pairs, cfg)
    if traj.diagnostics_template is None:
        # Only the last segment, which no keyframe closes, is terminal.
        template = np.full(len(traj.kf), SEGMENT_DEFAULTS)
        template["segment"] = np.arange(len(traj.kf))
        template["terminal"][-1] = True
        template.flags.writeable = False
        traj.diagnostics_template = template
    segments = traj.diagnostics_template.copy()
    for name, column in columns.items():
        segments[name][:-1] = column
    segments["s"][-1] = method.terminal_s
    not_finite = 0
    if not (np.isfinite(q).all() and np.isfinite(t).all()):
        not_finite = int(np.count_nonzero(~np.isfinite(np.hstack((q, t))).all(axis=1)))
    diagnostics = TrajectoryDiagnostics(segments, (not_finite, len(q)))
    diagnostics.warn_not_finite(cfg.name)
    last = traj.offsets[-2]
    if last == len(traj.rel):
        return q, t, diagnostics
    return (np.concatenate((q, traj.rel.q[last:])), np.concatenate((t, traj.rel.t[last:])),
            diagnostics)


def correct_trajectory(
    traj: Trajectory,
    updates,
    cfg: MethodConfig,
) -> tuple[FrameTable, TrajectoryDiagnostics]:
    """Apply a correction method to every segment, in segment order, and
    rebuild world poses on the updated keyframes, as a table ordered by
    ``(stamp, index)``.

    ``updates`` is a :class:`KeyframeUpdates` table or a sequence of
    :class:`KeyframeUpdate`, one per keyframe, in keyframe order.
    """
    updates = KeyframeUpdates.of(updates)
    if len(updates) != len(traj.kf):
        raise ValueError(
            f"need one update per keyframe ({len(traj.kf)}), got {len(updates)}"
        )
    q, t, diagnostics = _correct(
        traj, updates, lambda: correction.keyframe_pairs(traj.full_segments(), updates), cfg
    )
    return compose_world_poses(traj, updates.new_q, updates.new_t, q, t), diagnostics


# -- error metrics --------------------------------------------------------------


@dataclass(frozen=True)
class FrameError:
    frame: FrameId
    translation_cm: float
    rotation_deg: float


@dataclass(frozen=True)
class FrameErrors:
    """Per-frame errors as arrays, one row per scored frame: its stamp and
    index, the translation error (cm) and the rotation error (deg).
    Iterating yields :class:`FrameError` objects, built on demand."""

    stamps: np.ndarray
    indices: np.ndarray
    translation_cm: np.ndarray
    rotation_deg: np.ndarray

    def __len__(self) -> int:
        return len(self.stamps)

    def __iter__(self):
        return (
            FrameError(FrameId(stamp, index), t_err, r_err)
            for stamp, index, t_err, r_err in zip(
                self.stamps.tolist(),
                self.indices.tolist(),
                self.translation_cm.tolist(),
                self.rotation_deg.tolist(),
            )
        )


@dataclass(frozen=True)
class ErrorStats:
    mean: float
    std: float
    median: float
    count: int

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "ErrorStats":
        v = np.asarray(values, dtype=float)
        if v.size == 0:
            return cls(math.nan, math.nan, math.nan, 0)
        std = float(np.std(v, ddof=1)) if v.size > 1 else 0.0
        # np.median's steps, bit for bit, without the numpy.ma import of its
        # NaN check: the middle value, or the mean of the two middle ones
        # (a mean, not (a + b) / 2: its sum starts at +0.0), and the last
        # value when that is a NaN (partitioned last, as numpy sorts NaN).
        n, half = v.size, v.size // 2
        part = np.partition(v, [half - 1 + n % 2, half, n - 1])
        median = part[-1] if np.isnan(part[-1]) else np.mean(part[half - 1 + n % 2:half + 1])
        return cls(float(np.mean(v)), std, float(median), int(v.size))

    def format(self) -> str:
        return f"{self.mean:.3f}+-{self.std:.2f} ({self.median:.3f})"


# The error columns: per-frame translation error (cm) and rotation error
# (deg) of estimated rows against their ground-truth rows.
ERROR_COLUMNS = {
    "t": lambda t, gt_t: vec_norm(t - gt_t) * 100.0,
    "q": rotation_angles_deg,
}


def frame_errors(est, gt, tol: float = DEFAULT_ASSOC_TOL) -> FrameErrors:
    """Per-frame translation (cm) and rotation (deg) errors of ``est``
    against the nearest-timestamp association in ``gt`` (each a
    :class:`FrameTable` or ``(FrameId, Pose)`` pairs)."""
    est, gt = FrameTable.of(est), FrameTable.of(gt)
    rows = associate(est.stamps, gt, tol)
    return FrameErrors(est.stamps, est.indices, ERROR_COLUMNS["t"](est.t, gt.t[rows]),
                       ERROR_COLUMNS["q"](est.q, gt.q[rows]))


@dataclass(frozen=True)
class MethodReport:
    method: str
    translation: ErrorStats
    rotation: ErrorStats
    singular_hits: int
    gimbal_hits: int
    degenerate_segments: int


class SnapProtocol:
    """The keyframe-snap protocol for one trajectory and ground truth.

    What does not depend on the method is done once: the keyframes are
    snapped to ground truth and the update's keyframe pairs computed, and
    the relative frames, whose stamps every method keeps, are associated
    with ground truth on the first :meth:`run`, after its correction, so
    errors surface in the order of a single run.  Every method's
    :class:`FrameErrors` shares their stamp and index arrays.  :meth:`run`
    corrects one method and scores the world poses of the relative frames
    alone, in segment order, which is their ``(stamp, index)`` order;
    configs that give a kernel the same inputs share one run, and
    byte-equal corrected rows one error column and its statistics.  The
    trajectory's memo lets the kernel runs share their update-invariant
    geometry.
    """

    def __init__(self, traj: Trajectory, gt, tol: float = DEFAULT_ASSOC_TOL):
        self.traj, self.gt, self.tol = traj, FrameTable.of(gt), tol
        self.updates = updates = snap_to_gt(traj, self.gt, tol)
        batch = traj.full_segments()
        # Closing over self would make a cycle that outlives `del protocol`.
        self.pairs = cache(lambda: correction.keyframe_pairs(batch, updates))
        self.gt_rows = None  # the ground-truth poses of the relative frames, by error kind
        self.runs, self.scores = {}, {}  # (report, errors, diagnostics) by config; by rows

    def _score(self, kind: str, rows: np.ndarray) -> tuple[np.ndarray, ErrorStats]:
        """The ``kind`` error column of the corrected ``rows`` and its
        statistics, computed for the first rows of these bytes."""
        key = kind, rows.tobytes()
        if key not in self.scores:
            column = ERROR_COLUMNS[kind](rows, self.gt_rows[kind])
            self.scores[key] = column, ErrorStats.from_values(column)
        return self.scores[key]

    def run(self, cfg: MethodConfig) -> tuple[MethodReport, FrameErrors]:
        """Correct, and score the relative frames."""
        method = METHODS[cfg.name]
        space = cfg.spaces() if method.trans_space or method.rot_space else cfg.name
        key = (method.kernel, space, cfg.scale_squared, cfg.raw_division)
        if key in self.runs:
            report, errors, diagnostics = self.runs[key]
            diagnostics.warn_not_finite(cfg.name)
            return replace(report, method=cfg.name), errors
        traj, updates = self.traj, self.updates
        rel_q, rel_t, diagnostics = _correct(traj, updates, self.pairs, cfg)
        q, t = relative_world_poses(traj, updates.new_q, updates.new_t, rel_q, rel_t)
        if self.gt_rows is None:
            rows = associate(traj.rel.stamps, self.gt, self.tol)
            self.gt_rows = {"q": self.gt.q[rows], "t": self.gt.t[rows]}
        (t_err, t_stats), (q_err, q_stats) = self._score("t", t), self._score("q", q)
        errors = FrameErrors(traj.rel.stamps, traj.rel.indices, t_err, q_err)
        report = MethodReport(
            method=cfg.name,
            translation=t_stats,
            rotation=q_stats,
            singular_hits=diagnostics.singular_hits,
            gimbal_hits=diagnostics.gimbal_hits,
            degenerate_segments=diagnostics.degenerate_segments,
        )
        self.runs[key] = report, errors, diagnostics
        return report, errors


# -- timing ----------------------------------------------------------------------


def bench(
    fn: Callable[[object], object],
    fixtures: Sequence[object],
    repetitions: int = 200,
    warmup: int = 20,
) -> ErrorStats:
    """Wall time per call of ``fn`` over the fixtures, in milliseconds,
    reported as mean +- std (median)."""
    for k in range(warmup):
        fn(fixtures[k % len(fixtures)])
    times = []
    for k in range(repetitions):
        fixture = fixtures[k % len(fixtures)]
        start = time.perf_counter_ns()
        fn(fixture)
        times.append((time.perf_counter_ns() - start) / 1e6)
    return ErrorStats.from_values(times)


# -- report files ----------------------------------------------------------------

REPORT_HEADER = (b"sequence,method,t_mean_cm,t_std_cm,t_median_cm,"
                 b"r_mean_deg,r_std_deg,r_median_deg,singular_hits,time_ms_median\r\n")


def write_report_csv(path, rows: Sequence[tuple[str, MethodReport]]) -> None:
    """One row per (sequence, method), in ``csv``'s default dialect.  The
    ``time_ms_median`` cell is left empty so evaluation output stays
    byte-deterministic; ``bench`` writes timings to its own ``timing.csv``."""
    stats = [(s.mean, s.std, s.median) for _, rep in rows for s in (rep.translation, rep.rotation)]
    with open(path, "wb") as fh:
        fh.write(REPORT_HEADER)
        write_columns([(fh, [
            [sequence.encode() for sequence, _ in rows], [rep.method.encode() for _, rep in rows],
            *np.array(stats, dtype=float).reshape(-1, 6).T,
            np.array([rep.singular_hits for _, rep in rows], dtype=np.int64), [b""] * len(rows),
        ])], [","] * 9 + ["\r\n"])


def write_frame_errors_csv(files) -> None:
    """Write one per-frame error table per ``(path, FrameErrors)`` pair, in
    ``csv``'s default dialect.  Methods share the frames they score, and
    baselines that treat translation or rotation alike share that error
    column: :func:`floatfmt.write_columns` formats each shared column once."""
    files = list(files)
    with ExitStack() as stack:
        handles = [stack.enter_context(open(path, "wb")) for path, _ in files]
        for fh in handles:
            fh.write(b"stamp,index,translation_cm,rotation_deg\r\n")
        write_columns([(fh, [e.stamps, e.indices, e.translation_cm, e.rotation_deg])
                      for fh, (_, e) in zip(handles, files)], [","] * 3 + ["\r\n"])


def write_diagnostics_csv(path, diagnostics: TrajectoryDiagnostics) -> None:
    """One row per segment, one column per diagnostics field, in ``csv``'s
    default dialect, bools as 0/1."""
    table = diagnostics.segments
    columns = [table[name].astype(np.int64) if table[name].dtype == bool else table[name]
               for name in table.dtype.names]
    with open(path, "wb") as fh:
        fh.write(",".join(table.dtype.names).encode() + b"\r\n")
        write_columns([(fh, columns)], [","] * (len(columns) - 1) + ["\r\n"])
