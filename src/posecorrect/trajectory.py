"""Keyframe-anchored trajectory model.

A trajectory is a list of keyframes with world poses plus relative frames
whose poses are stored with respect to a parent keyframe (``rel_pose`` is
``T_{kf,frame}``).  Segments group the relative frames between consecutive
keyframes; a terminal partial segment (no closing keyframe) collects any
trailing relative frames.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .liegeom import Pose, pose_arrays, pose_inverse, pose_mul, poses_from_arrays

DEFAULT_ASSOC_TOL = 0.01  # seconds; nearest-timestamp association window


class AssociationError(ValueError):
    """A frame could not be matched to a keyframe or ground-truth pose.

    ``query`` is the position of the unmatched stamp among the stamps
    passed to :func:`associate`, or ``None`` for other failures.
    """

    def __init__(self, message: str, query: Optional[int] = None):
        super().__init__(message)
        self.query = query


@dataclass(frozen=True, order=True, slots=True)
class FrameId:
    stamp: float
    index: int


@dataclass(frozen=True, slots=True)
class Keyframe:
    id: FrameId
    world_pose: Pose


@dataclass(frozen=True, slots=True)
class RelativeFrame:
    id: FrameId
    parent: int          # keyframe index i
    rel_pose: Pose       # T_{kf_i, frame}


@dataclass(frozen=True, slots=True)
class Segment:
    """Relative frames between keyframe ``kf_a`` and ``kf_b``.

    ``kf_b is None`` marks the terminal partial segment after the last
    keyframe.
    """

    index: int
    kf_a: Keyframe
    kf_b: Optional[Keyframe]
    rels: tuple[RelativeFrame, ...]

    @property
    def terminal(self) -> bool:
        return self.kf_b is None


@dataclass(frozen=True)
class SegmentBatch:
    """Segments corrected in one call; ``rels`` are their relative frames,
    in segment order, as for a single :class:`Segment`, and ``counts`` the
    number of relative frames of each segment."""

    segments: tuple[Segment, ...]
    rels: tuple[RelativeFrame, ...] = field(init=False)
    counts: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(
            self, "rels", tuple(rel for seg in self.segments for rel in seg.rels)
        )
        object.__setattr__(self, "counts", tuple(len(seg.rels) for seg in self.segments))

    def per_frame(self, values) -> np.ndarray:
        """Row ``i`` of ``values`` (one row per segment) repeated once for
        each relative frame of segment ``i``."""
        return np.repeat(values, self.counts, axis=0)

    def reduce(self, ufunc: np.ufunc, values: np.ndarray, empty) -> np.ndarray:
        """``ufunc.reduce`` over each segment's rows of ``values`` (one row
        per relative frame); ``empty`` for a segment with no rows."""
        counts = np.array(self.counts, dtype=int)
        out = np.full(len(counts), empty, dtype=values.dtype)
        filled = counts > 0
        if filled.any():
            out[filled] = ufunc.reduceat(values, (np.cumsum(counts) - counts)[filled])
        return out


@dataclass
class SegmentRecord:
    """Diagnostics of one corrected segment; its fields, in order, are the
    columns of ``diagnostics.csv``.  The proposed correction fills ``s``,
    ``degenerate_baseline`` and the ``alpha`` range, the interpolation
    baselines the hit counters."""

    segment: int
    terminal: bool = False
    s: float = math.nan
    degenerate_baseline: bool = False
    alpha_min: float = math.nan
    alpha_max: float = math.nan
    singular_hits: int = 0      # components with |x_ab| < SINGULARITY_EPS
    gimbal_hits: int = 0        # Euler vectorizations near pitch = +-pi/2
    quat_renorm_hits: int = 0   # renormalization moved the quaternion > 1e-6


@dataclass(frozen=True, slots=True)
class KeyframeUpdate:
    index: int
    old_pose: Pose
    new_pose: Pose


def segmentize(
    keyframes: Sequence[Keyframe],
    relatives: Sequence[RelativeFrame],
) -> tuple[Segment, ...]:
    """Partition relative frames into per-keyframe-pair segments.

    The parent index recorded on each relative frame is authoritative; a
    frame whose parent does not exist, or whose timestamp falls outside its
    parent's segment window, raises :class:`AssociationError`.  A frame at
    exactly a keyframe timestamp belongs to the segment that keyframe opens.
    """
    if not keyframes:
        raise AssociationError("trajectory has no keyframes")
    stamps = [kf.id.stamp for kf in keyframes]
    if any(b <= a for a, b in zip(stamps, stamps[1:])):
        raise AssociationError("keyframe timestamps must be strictly increasing")

    n = len(keyframes)
    buckets: list[list[RelativeFrame]] = [[] for _ in range(n)]
    for rel in relatives:
        i = rel.parent
        if not 0 <= i < n:
            raise AssociationError(
                f"relative frame {rel.id} references missing keyframe {i}"
            )
        lo = stamps[i]
        hi = stamps[i + 1] if i + 1 < n else float("inf")
        if not lo <= rel.id.stamp < hi:
            raise AssociationError(
                f"relative frame {rel.id} lies outside keyframe {i}'s segment"
            )
        buckets[i].append(rel)

    segments = []
    for i in range(n):
        rels = tuple(sorted(buckets[i], key=lambda r: (r.id.stamp, r.id.index)))
        kf_b = keyframes[i + 1] if i + 1 < n else None
        segments.append(Segment(index=i, kf_a=keyframes[i], kf_b=kf_b, rels=rels))
    return tuple(segments)


@dataclass(frozen=True)
class Trajectory:
    keyframes: tuple[Keyframe, ...]
    relatives: tuple[RelativeFrame, ...]
    segments: tuple[Segment, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "keyframes", tuple(self.keyframes))
        object.__setattr__(self, "relatives", tuple(self.relatives))
        object.__setattr__(
            self, "segments", segmentize(self.keyframes, self.relatives)
        )

    @property
    def frame_count(self) -> int:
        return len(self.keyframes) + len(self.relatives)


def from_world_poses(
    frames: Sequence[tuple[FrameId, Pose]],
    keyframe_positions: Sequence[int],
) -> Trajectory:
    """Build a trajectory from world poses, rebasing non-keyframes onto the
    keyframe that opens their segment.

    ``keyframe_positions`` are indices into ``frames``.
    """
    if not keyframe_positions:
        raise AssociationError("keyframe index selects no frames")
    positions = sorted(set(int(i) for i in keyframe_positions))
    if positions[0] < 0 or positions[-1] >= len(frames):
        raise AssociationError(
            f"keyframe position out of range (n_frames={len(frames)})"
        )
    keyframes = [Keyframe(frames[p][0], frames[p][1]) for p in positions]
    is_rel = np.ones(len(frames), dtype=bool)
    is_rel[positions] = False
    rel_frames = [frames[p] for p in np.flatnonzero(is_rel).tolist()]
    kf_stamps = np.array([kf.id.stamp for kf in keyframes])
    rel_stamps = np.array([fid.stamp for fid, _ in rel_frames])
    parents = np.searchsorted(kf_stamps, rel_stamps, side="right") - 1
    if (parents < 0).any():
        fid = rel_frames[int(np.argmax(parents < 0))][0]
        raise AssociationError(f"frame {fid} precedes the first keyframe; cannot anchor it")
    kf_inv_q, kf_inv_t = pose_inverse(*pose_arrays(kf.world_pose for kf in keyframes))
    q, t = pose_mul(
        kf_inv_q[parents], kf_inv_t[parents], *pose_arrays(world for _, world in rel_frames)
    )
    relatives = [
        RelativeFrame(fid, i, rel)
        for (fid, _), i, rel in zip(rel_frames, parents.tolist(), poses_from_arrays(q, t))
    ]
    return Trajectory(tuple(keyframes), tuple(relatives))


def rel_pose_arrays(segments: Sequence[Segment]) -> tuple[np.ndarray, np.ndarray]:
    """Stored relative poses of ``segments`` as arrays, in segment order."""
    return pose_arrays(rel.rel_pose for seg in segments for rel in seg.rels)


def _compose_on_segments(
    segments: Sequence[Segment], bases: Sequence[Pose], q: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``bases[seg.index] * pose`` for the pose ``(q, t)`` of every relative
    frame of ``segments`` (rows in segment order), as arrays."""
    batch = SegmentBatch(segments)
    base_q, base_t = pose_arrays(bases[seg.index] for seg in segments)
    return pose_mul(batch.per_frame(base_q), batch.per_frame(base_t), q, t)


def compose_world_poses(
    traj: Trajectory,
    keyframe_poses: Sequence[Pose],
    rel_q: np.ndarray,
    rel_t: np.ndarray,
) -> list[tuple[FrameId, Pose]]:
    """World pose of every frame of ``traj``: keyframe ``i`` at
    ``keyframe_poses[i]``, and each relative frame at its opening
    keyframe's pose times its relative pose, row ``k`` of the (N, 4)
    quaternions ``rel_q`` and (N, 3) translations ``rel_t`` for the
    ``k``-th relative frame in segment order.  Ordered by timestamp."""
    q, t = _compose_on_segments(traj.segments, keyframe_poses, rel_q, rel_t)
    out = [(kf.id, pose) for kf, pose in zip(traj.keyframes, keyframe_poses)]
    ids = [rel.id for seg in traj.segments for rel in seg.rels]
    out.extend(zip(ids, poses_from_arrays(q, t)))
    out.sort(key=lambda item: (item[0].stamp, item[0].index))
    return out


def world_poses(traj: Trajectory) -> list[tuple[FrameId, Pose]]:
    """World pose of every frame: keyframes pass through, relative frames
    compose ``kf.world_pose * rel_pose``.  Ordered by timestamp."""
    return compose_world_poses(
        traj, [kf.world_pose for kf in traj.keyframes], *rel_pose_arrays(traj.segments)
    )


def rebase(traj: Trajectory, keyframe_poses: Sequence[Pose]) -> Trajectory:
    """``traj`` with its keyframes moved to ``keyframe_poses`` (one per
    keyframe, in order; ``ValueError`` otherwise) and every relative pose
    re-expressed against them, so that each frame keeps its world pose."""
    keyframes = [
        Keyframe(kf.id, pose) for kf, pose in zip(traj.keyframes, keyframe_poses, strict=True)
    ]
    segments = traj.segments
    world = _compose_on_segments(
        segments, [kf.world_pose for kf in traj.keyframes], *rel_pose_arrays(segments)
    )
    q, t = _compose_on_segments(segments, [pose.inverse() for pose in keyframe_poses], *world)
    rels = [rel for seg in segments for rel in seg.rels]
    relatives = [
        RelativeFrame(rel.id, rel.parent, pose)
        for rel, pose in zip(rels, poses_from_arrays(q, t))
    ]
    return Trajectory(tuple(keyframes), tuple(relatives))


def associate(
    stamps: Sequence[float],
    reference: Sequence[tuple[FrameId, Pose]],
    tol: float = DEFAULT_ASSOC_TOL,
    *,
    allow_missing: bool = False,
) -> list[Optional[tuple[FrameId, Pose]]]:
    """Nearest-timestamp match in ``reference`` for every query stamp.

    ``reference`` need not be sorted: it is stable-sorted by stamp here and
    all queries are resolved by one ``np.searchsorted`` pass.  For a query
    ``t`` the candidates are the last reference stamp below ``t`` and the
    first one at or above it; the nearer wins, and on equal distance the
    earlier stamp wins.  Among duplicate reference stamps, the last one
    below ``t`` or the first one at or above ``t`` is the candidate.  A
    match at a distance of exactly ``tol`` seconds is accepted.

    A query with no match raises :class:`AssociationError` naming its
    stamp, with ``query`` set to its position in ``stamps``; with
    ``allow_missing`` it yields ``None`` instead.
    """
    ref_stamps = np.fromiter(
        (fid.stamp for fid, _ in reference), dtype=float, count=len(reference)
    )
    order = np.argsort(ref_stamps, kind="stable")
    sorted_stamps = ref_stamps[order]
    queries = np.asarray(stamps, dtype=float).reshape(-1)
    n = len(sorted_stamps)
    if n == 0:
        picks = np.zeros(len(queries), dtype=int)
        missing = np.ones(len(queries), dtype=bool)
    else:
        j = np.searchsorted(sorted_stamps, queries, side="left")
        below = np.maximum(j - 1, 0)
        above = np.minimum(j, n - 1)
        d_below = np.where(j > 0, np.abs(sorted_stamps[below] - queries), np.inf)
        d_above = np.where(j < n, np.abs(sorted_stamps[above] - queries), np.inf)
        nearer_above = d_above < d_below
        picks = order[np.where(nearer_above, above, below)]
        missing = np.where(nearer_above, d_above, d_below) > tol
    if not allow_missing and missing.any():
        k = int(np.argmax(missing))
        raise AssociationError(
            f"no pose within {tol} s of timestamp {float(queries[k]):.6f}", query=k
        )
    return [
        None if miss else reference[p] for p, miss in zip(picks.tolist(), missing.tolist())
    ]


def snap_to_gt(
    traj: Trajectory,
    gt: Sequence[tuple[FrameId, Pose]],
    tol: float = DEFAULT_ASSOC_TOL,
) -> list[KeyframeUpdate]:
    """One update per keyframe: old = estimated world pose, new = associated
    ground-truth pose.  Missing associations raise, never drop silently."""
    matches = associate([kf.id.stamp for kf in traj.keyframes], gt, tol)
    return [
        KeyframeUpdate(index=i, old_pose=kf.world_pose, new_pose=pose)
        for i, (kf, (_, pose)) in enumerate(zip(traj.keyframes, matches))
    ]


def identity_updates(traj: Trajectory) -> list[KeyframeUpdate]:
    """Updates with new == old for every keyframe (no back-end change)."""
    return [
        KeyframeUpdate(index=i, old_pose=kf.world_pose, new_pose=kf.world_pose)
        for i, kf in enumerate(traj.keyframes)
    ]
