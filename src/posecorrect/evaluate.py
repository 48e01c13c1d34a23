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
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import baseline, correction
from .baseline import RotSpace, TransSpace
from .liegeom import Pose, pose_arrays, poses_from_arrays, rotation_angles_deg, vec_norm
from .trajectory import (
    DEFAULT_ASSOC_TOL,
    FrameId,
    KeyframeUpdate,
    Segment,
    SegmentBatch,
    SegmentRecord,
    Trajectory,
    associate,
    compose_world_poses,
    rel_pose_arrays,
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


# Kernel adapters: correct the full segments of a trajectory, in order, and
# return the poses of their relative frames relative to each updated opening
# keyframe as (N, 4) quaternion and (N, 3) translation arrays, plus one
# SegmentRecord per segment.  ``updates[i]`` is the update of keyframe i.
# Kernels are looked up through their modules at call time, so a patched
# module attribute takes effect.


def _unchanged(segments: Sequence[Segment], updates, cfg: MethodConfig):
    return (*rel_pose_arrays(segments), [SegmentRecord(seg.index) for seg in segments])


def _proposed(segments: Sequence[Segment], updates, cfg: MethodConfig):
    return correction.correct_segment(SegmentBatch(segments), updates, cfg.scale_squared)


def _interpolated(segments: Sequence[Segment], updates, cfg: MethodConfig):
    ts, rs = cfg.spaces()
    return baseline.interp_correct_segment(
        SegmentBatch(segments), updates, ts, rs, raw_division=cfg.raw_division
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


def _correct_one_segment(
    seg: Segment,
    upd_a: KeyframeUpdate,
    upd_b: Optional[KeyframeUpdate],
    cfg: MethodConfig,
) -> tuple[list[Pose], SegmentRecord]:
    method = METHODS[cfg.name]
    if seg.terminal:
        # A terminal partial segment has no closing keyframe, so no method
        # has an interpolation target: relative poses ride along with the
        # updated opening keyframe.
        record = SegmentRecord(seg.index, terminal=True, s=method.terminal_s)
        return [rel.rel_pose for rel in seg.rels], record
    q, t, (record,) = method.kernel([seg], {seg.index: upd_a, seg.index + 1: upd_b}, cfg)
    return poses_from_arrays(q, t), record


def correct_trajectory(
    traj: Trajectory,
    updates: Sequence[KeyframeUpdate],
    cfg: MethodConfig,
) -> tuple[list[tuple[FrameId, Pose]], TrajectoryDiagnostics]:
    """Apply a correction method to every segment, in segment order, and
    rebuild world poses on the updated keyframes.

    ``updates`` must carry one entry per keyframe, in keyframe order.
    """
    if len(updates) != len(traj.keyframes):
        raise ValueError(
            f"need one update per keyframe ({len(traj.keyframes)}), got {len(updates)}"
        )
    # Only the last segment, which no keyframe closes, is terminal.
    *full, last = traj.segments
    q, t, records = METHODS[cfg.name].kernel(full, updates, cfg)
    not_finite = int(np.count_nonzero(~np.isfinite(np.hstack((q, t))).all(axis=1)))
    if not_finite:
        log.warning(
            "method %s: %d of %d corrected frames are not finite", cfg.name, not_finite, len(q)
        )
    last_poses, last_record = _correct_one_segment(last, updates[last.index], None, cfg)
    last_q, last_t = pose_arrays(last_poses)
    world = compose_world_poses(
        traj,
        [upd.new_pose for upd in updates],
        np.concatenate((q, last_q)),
        np.concatenate((t, last_t)),
    )
    return world, TrajectoryDiagnostics(records + [last_record])


# -- error metrics --------------------------------------------------------------


@dataclass(frozen=True)
class FrameError:
    frame: FrameId
    translation_cm: float
    rotation_deg: float


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


def frame_errors(
    est: Sequence[tuple[FrameId, Pose]],
    gt: Sequence[tuple[FrameId, Pose]],
    tol: float = DEFAULT_ASSOC_TOL,
) -> list[FrameError]:
    """Per-frame translation (cm) and rotation (deg) errors against the
    nearest-timestamp ground-truth association."""
    matches = associate([fid.stamp for fid, _ in est], gt, tol)
    q, t = pose_arrays(pose for _, pose in est)
    ref_q, ref_t = pose_arrays(ref for _, ref in matches)
    return [
        FrameError(fid, t_err, r_err)
        for (fid, _), t_err, r_err in zip(
            est,
            (vec_norm(t - ref_t) * 100.0).tolist(),
            rotation_angles_deg(q, ref_q).tolist(),
        )
    ]


@dataclass(frozen=True)
class MethodReport:
    method: str
    translation: ErrorStats
    rotation: ErrorStats
    singular_hits: int
    gimbal_hits: int
    degenerate_segments: int


def run_protocol(
    traj: Trajectory,
    gt: Sequence[tuple[FrameId, Pose]],
    cfg: MethodConfig,
    tol: float = DEFAULT_ASSOC_TOL,
) -> tuple[MethodReport, list[FrameError]]:
    """Snap keyframes to ground truth, correct, and score relative frames."""
    updates = snap_to_gt(traj, gt, tol)
    world, diagnostics = correct_trajectory(traj, updates, cfg)
    rel_ids = {rel.id for rel in traj.relatives}
    est_rel = [(fid, pose) for fid, pose in world if fid in rel_ids]
    errors = frame_errors(est_rel, gt, tol)
    report = MethodReport(
        method=cfg.name,
        translation=ErrorStats.from_values([e.translation_cm for e in errors]),
        rotation=ErrorStats.from_values([e.rotation_deg for e in errors]),
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


def write_frame_errors_csv(path, errors: Sequence[FrameError]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("stamp", "index", "translation_cm", "rotation_deg"))
        for e in errors:
            writer.writerow(
                [repr(e.frame.stamp), e.frame.index, repr(e.translation_cm), repr(e.rotation_deg)]
            )


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
