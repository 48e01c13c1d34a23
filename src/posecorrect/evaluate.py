"""Error metrics, the keyframe-snap evaluation protocol, and timing.

The protocol snaps every keyframe of the estimated trajectory onto its
ground-truth pose, applies the selected correction method to the relative
frames of each segment, rebuilds world poses and reports per-frame errors
of the relative frames only (the snapped keyframes would contribute
zeros).  Statistics follow the mean +- standard deviation (median)
convention with the sample (n-1) standard deviation.
"""
from __future__ import annotations

import csv
import logging
import math
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import baseline, correction
from .baseline import RotSpace, TransSpace
from .liegeom import rotation_angles_deg, vec_norm
from .trajectory import (
    DEFAULT_ASSOC_TOL,
    FrameId,
    FrameTable,
    KeyframeUpdates,
    SegmentBatch,
    SegmentRecord,
    Trajectory,
    associate,
    compose_world_poses,
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


@dataclass
class TrajectoryDiagnostics:
    segments: list[SegmentRecord] = field(default_factory=list)

    @property
    def singular_hits(self) -> int:
        return sum(rec.singular_hits for rec in self.segments)

    @property
    def gimbal_hits(self) -> int:
        return sum(rec.gimbal_hits for rec in self.segments)

    @property
    def degenerate_segments(self) -> int:
        return sum(1 for rec in self.segments if rec.degenerate_baseline)


# Kernel adapters: correct the full segments of a trajectory, given as a
# SegmentBatch, and return the poses of their relative frames relative to
# each updated opening keyframe as (N, 4) quaternion and (N, 3) translation
# arrays, plus one SegmentRecord per segment.  ``updates`` is the
# trajectory's KeyframeUpdates table.  Kernels are looked up through their
# modules at call time, so a patched module attribute takes effect.


def _unchanged(batch: SegmentBatch, updates, cfg: MethodConfig):
    return batch.rels.q, batch.rels.t, [SegmentRecord(i) for i in batch.index.tolist()]


def _proposed(batch: SegmentBatch, updates, cfg: MethodConfig):
    return correction.correct_segment(batch, updates, cfg.scale_squared)


def _interpolated(batch: SegmentBatch, updates, cfg: MethodConfig):
    ts, rs = cfg.spaces()
    return baseline.interp_correct_segment(
        batch, updates, ts, rs, raw_division=cfg.raw_division
    )


class Method(NamedTuple):
    """A row of :data:`METHODS`; a ``None`` space is taken from the config."""

    kernel: Callable[..., tuple[np.ndarray, np.ndarray, list[SegmentRecord]]]
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
    n_keyframes = len(traj.kf)
    if len(updates) != n_keyframes:
        raise ValueError(
            f"need one update per keyframe ({n_keyframes}), got {len(updates)}"
        )
    method = METHODS[cfg.name]
    # Only the last segment, which no keyframe closes, is terminal.
    q, t, records = method.kernel(traj.full_segments(), updates, cfg)
    not_finite = int(np.count_nonzero(~np.isfinite(np.hstack((q, t))).all(axis=1)))
    if not_finite:
        log.warning(
            "method %s: %d of %d corrected frames are not finite", cfg.name, not_finite, len(q)
        )
    # No method has an interpolation target without a closing keyframe, so
    # the terminal segment's relative poses ride along with the updated
    # opening keyframe.
    last = traj.offsets[-2]
    world = compose_world_poses(
        traj,
        updates.new_q,
        updates.new_t,
        np.concatenate((q, traj.rel.q[last:])),
        np.concatenate((t, traj.rel.t[last:])),
    )
    records.append(SegmentRecord(n_keyframes - 1, terminal=True, s=method.terminal_s))
    return world, TrajectoryDiagnostics(records)


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
        return cls(float(np.mean(v)), std, float(np.median(v)), int(v.size))

    def format(self) -> str:
        return f"{self.mean:.3f}+-{self.std:.2f} ({self.median:.3f})"


def frame_errors(est, gt, tol: float = DEFAULT_ASSOC_TOL, *, rows=None) -> FrameErrors:
    """Per-frame translation (cm) and rotation (deg) errors of ``est``
    against the nearest-timestamp association in ``gt`` (each a
    :class:`FrameTable` or ``(FrameId, Pose)`` pairs).  ``rows``, when
    given, is that association, as :func:`associate` returns it."""
    est, gt = FrameTable.of(est), FrameTable.of(gt)
    if rows is None:
        rows = associate(est.stamps, gt, tol)
    return FrameErrors(
        est.stamps,
        est.indices,
        vec_norm(est.t - gt.t[rows]) * 100.0,
        rotation_angles_deg(est.q, gt.q[rows]),
    )


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
    snapped to ground truth here, and the relative frames, whose stamps
    every method keeps, are associated with ground truth on the first
    :meth:`run`, after its correction, so errors surface in the order of a
    single run.  :meth:`run` corrects and scores one method.
    """

    def __init__(self, traj: Trajectory, gt, tol: float = DEFAULT_ASSOC_TOL):
        self.traj, self.gt, self.tol = traj, FrameTable.of(gt), tol
        self.updates = snap_to_gt(traj, self.gt, tol)
        self.is_rel = np.zeros(traj.frame_count, dtype=bool)
        self.is_rel[traj.rel_rows] = True
        self.gt_rows = None

    def run(self, cfg: MethodConfig) -> tuple[MethodReport, FrameErrors]:
        """Correct, and score the relative frames."""
        world, diagnostics = correct_trajectory(self.traj, self.updates, cfg)
        est = world.take(self.is_rel)
        if self.gt_rows is None:
            self.gt_rows = associate(est.stamps, self.gt, self.tol)
        errors = frame_errors(est, self.gt, rows=self.gt_rows)
        report = MethodReport(
            method=cfg.name,
            translation=ErrorStats.from_values(errors.translation_cm),
            rotation=ErrorStats.from_values(errors.rotation_deg),
            singular_hits=diagnostics.singular_hits,
            gimbal_hits=diagnostics.gimbal_hits,
            degenerate_segments=diagnostics.degenerate_segments,
        )
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

REPORT_COLUMNS = (
    "sequence",
    "method",
    "t_mean_cm",
    "t_std_cm",
    "t_median_cm",
    "r_mean_deg",
    "r_std_deg",
    "r_median_deg",
    "singular_hits",
    "time_ms_median",
)


def write_report_csv(path, rows: Sequence[tuple[str, MethodReport]]) -> None:
    """One row per (sequence, method).  The ``time_ms_median`` cell is left
    empty so evaluation output stays byte-deterministic; ``bench`` writes
    timings to its own ``timing.csv``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for sequence, rep in rows:
            writer.writerow(
                [
                    sequence,
                    rep.method,
                    repr(rep.translation.mean),
                    repr(rep.translation.std),
                    repr(rep.translation.median),
                    repr(rep.rotation.mean),
                    repr(rep.rotation.std),
                    repr(rep.rotation.median),
                    rep.singular_hits,
                    "",
                ]
            )


FRAME_ERRORS_HEADER = "stamp,index,translation_cm,rotation_deg\r\n"


def write_frame_errors_csv(files) -> None:
    """Write one per-frame error table per ``(path, FrameErrors)`` pair.

    Each file is the ``csv`` dialect's text of ``repr`` cells.  A column is
    formatted once per call: the stamp and index column is reused while its
    values are byte-equal to the previous file's, and an error column whose
    values are byte-equal to one already formatted reuses that text (equal
    bytes give equal ``repr``; ``-0.0 == 0.0`` does not), which is kept
    until the last file that uses it is written.  Methods share the frames
    they score, and baselines that treat translation or rotation alike
    share that error column.  Rows are streamed to the file rather than
    joined, so that no whole-file string is held beside the columns.
    """
    files = list(files)
    uses = Counter(v.tobytes() for _, e in files for v in (e.translation_cm, e.rotation_deg))
    cells: dict[bytes, list[str]] = {}

    def reprs(values: np.ndarray) -> list[str]:
        key = values.tobytes()
        if key not in cells:
            cells[key] = list(map(repr, values.tolist()))
        uses[key] -= 1
        return cells[key] if uses[key] else cells.pop(key)

    keys_of = keys = None
    for path, errors in files:
        frames = errors.stamps.tobytes() + errors.indices.tobytes()
        if frames != keys_of:
            keys_of = frames
            keys = [f"{s!r},{i}," for s, i in zip(errors.stamps.tolist(), errors.indices.tolist())]
        rows = zip(keys, reprs(errors.translation_cm), reprs(errors.rotation_deg))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(FRAME_ERRORS_HEADER)
            fh.writelines(f"{k}{t},{r}\r\n" for k, t, r in rows)


DIAGNOSTICS_COLUMNS = tuple(f.name for f in fields(SegmentRecord))


def _diagnostics_cell(value):
    """A bool as 0/1, a float by ``repr`` (``nan`` included), an int as is."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return repr(value)
    return value


def write_diagnostics_csv(path, diagnostics: TrajectoryDiagnostics) -> None:
    """One row per segment, one column per :class:`SegmentRecord` field."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DIAGNOSTICS_COLUMNS)
        for rec in diagnostics.segments:
            writer.writerow(
                [_diagnostics_cell(getattr(rec, name)) for name in DIAGNOSTICS_COLUMNS]
            )
