"""Keyframe-anchored trajectory model, held as arrays.

A :class:`FrameTable` holds frames as rows: stamps (N,), frame indices
(N,), canonical wxyz quaternions (N, 4) and translations (N, 3).  The
parsers return one, the writers take one, and the correction returns one.

A :class:`Trajectory` is a table of keyframe world poses, with strictly
increasing stamps, plus a table of relative frames whose poses are stored
with respect to a parent keyframe (``T_{kf,frame}``), one parent index per
row.  The relative rows are kept in segment order: by parent keyframe,
then stamp, then frame index.  Segment ``i`` is the range
``offsets[i]:offsets[i + 1]`` of those rows: the frames between keyframe
``i`` and keyframe ``i + 1``, or, for the last keyframe, the terminal
partial segment of trailing frames.  A :class:`SegmentBatch` hands the
rows of the full segments to the correction kernels (whose diagnostics
table ``evaluate`` owns), and a :class:`KeyframeUpdates` table carries
the old and new pose of every keyframe.

A trajectory keeps its full-segment batch, and the batch a one-entry
memo of the correction geometry that no keyframe update changes, keyed on
the bytes of the old keyframe poses; :func:`rebase` carries neither over.
It also keeps what no pose changes, read-only, and :func:`rebase` carries
that over: the ``stamps`` and ``indices`` of all its frames in ``(stamp,
index)`` order, which every world table it composes shares, and the
diagnostics rows that ``evaluate`` fills in on the first correction and
every later one copies.  None of this is checked against the
trajectory's arrays again, so those arrays are not to be changed in place.

The tables are the one representation, and every function here takes a
:class:`FrameTable`.  The object forms that remain are the ones the
perfbench workloads build their inputs with, one pose at a time:
iterating or indexing a :class:`FrameTable` yields ``(FrameId, Pose)``
pairs, :meth:`FrameTable.of` builds a table from them (as ``io.write_tum``
does), ``traj.keyframes`` yields :class:`Keyframe` objects, and
:meth:`KeyframeUpdates.of` builds a table from :class:`KeyframeUpdate`
objects (as ``evaluate.correct_trajectory`` does).  A table has no
``==``; compare its arrays.  The correction path reads only the arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

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
class KeyframeUpdate:
    index: int
    old_pose: Pose
    new_pose: Pose


class FrameTable:
    """Frames as rows: ``stamps`` (N,), frame ``indices`` (N,), canonical
    wxyz quaternions ``q`` (N, 4) and translations ``t`` (N, 3).

    It is a read-only sequence of ``(FrameId, Pose)`` pairs: ``len``,
    iteration, an integer index (a pair) and a slice or an index array (a
    table) all work.  The pairs are built on the first iteration and kept,
    so a caller that reads them several times pays for one ``FrameId`` and
    one ``Pose`` per frame; the arrays are not to be changed in place.
    """

    __slots__ = ("stamps", "indices", "q", "t", "_pairs")

    def __init__(self, stamps, indices, q, t):
        self.stamps = np.asarray(stamps, dtype=float)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.q = np.asarray(q, dtype=float).reshape(-1, 4)
        self.t = np.asarray(t, dtype=float).reshape(-1, 3)
        self._pairs = None

    @classmethod
    def of(cls, frames) -> "FrameTable":
        """``frames`` as a table: a table as is, a sequence of ``(FrameId,
        Pose)`` pairs row by row."""
        if isinstance(frames, cls):
            return frames
        frames = list(frames)
        q, t = pose_arrays(pose for _, pose in frames)
        return cls(
            np.fromiter((fid.stamp for fid, _ in frames), dtype=float, count=len(frames)),
            np.fromiter((fid.index for fid, _ in frames), dtype=np.int64, count=len(frames)),
            q,
            t,
        )

    def __len__(self) -> int:
        return len(self.stamps)

    def take(self, rows) -> "FrameTable":
        """The rows ``rows`` (a slice, an index array or a boolean mask)."""
        return FrameTable(self.stamps[rows], self.indices[rows], self.q[rows], self.t[rows])

    def ids(self) -> list[FrameId]:
        return [FrameId(s, i) for s, i in zip(self.stamps.tolist(), self.indices.tolist())]

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            (pair,) = self.take([key])
            return pair
        return self.take(key)

    def __iter__(self) -> Iterator[tuple[FrameId, Pose]]:
        if self._pairs is None:
            self._pairs = list(zip(self.ids(), poses_from_arrays(self.q, self.t)))
        return iter(self._pairs)


class KeyframeUpdates:
    """The old and new world pose of every keyframe, row ``i`` for
    keyframe ``i``: quaternions ``old_q``/``new_q`` (K, 4) and translations
    ``old_t``/``new_t`` (K, 3), as float arrays."""

    __slots__ = ("old_q", "old_t", "new_q", "new_t")

    def __init__(self, old_q, old_t, new_q, new_t):
        self.old_q, self.old_t, self.new_q, self.new_t = (
            np.asarray(v, dtype=float) for v in (old_q, old_t, new_q, new_t)
        )

    @classmethod
    def of(cls, updates) -> "KeyframeUpdates":
        """``updates`` as a table: a table as is, a sequence of
        :class:`KeyframeUpdate` (``updates[i]`` for keyframe ``i``) row by
        row."""
        if isinstance(updates, cls):
            return updates
        updates = list(updates)
        return cls(
            *pose_arrays(upd.old_pose for upd in updates),
            *pose_arrays(upd.new_pose for upd in updates),
        )

    def __len__(self) -> int:
        return len(self.old_q)


class SegmentBatch:
    """Full segments corrected in one call, as rows.

    ``index`` (S,) holds each segment's opening keyframe (the closing one
    is ``index + 1``), ``counts`` (S,) its number of relative frames,
    ``start`` and ``stop`` (S,) the stamps of its two keyframes, and
    ``rels`` the table of all their relative frames in segment order, each
    pose relative to its segment's opening keyframe.  A batch holds no
    terminal segment, which has no closing keyframe.

    :meth:`Trajectory.full_segments` builds one.  ``memo`` is
    ``correction``'s ``(key, value)`` memo of the batch's update-invariant
    geometry, ``None`` until a kernel runs.
    """

    __slots__ = ("index", "counts", "start", "stop", "rels", "memo")

    def __init__(self, index, counts, start, stop, rels: FrameTable):
        self.index, self.counts, self.start, self.stop, self.rels, self.memo = (
            index, counts, start, stop, rels, None
        )

    def per_frame(self, values) -> np.ndarray:
        """Row ``i`` of ``values`` (one row per segment) repeated once for
        each relative frame of segment ``i``."""
        return np.repeat(values, self.counts, axis=0)

    def reduce(self, ufunc: np.ufunc, values: np.ndarray, empty) -> np.ndarray:
        """``ufunc.reduce`` over each segment's rows of ``values`` (one row
        per relative frame); ``empty`` for a segment with no rows."""
        out = np.full(len(self.counts), empty, dtype=values.dtype)
        filled = self.counts > 0
        if filled.any():
            out[filled] = ufunc.reduceat(values, (np.cumsum(self.counts) - self.counts)[filled])
        return out


def _first(mask: np.ndarray) -> Optional[int]:
    return int(np.argmax(mask)) if mask.any() else None


class Trajectory:
    """Keyframe world poses ``kf`` (a :class:`FrameTable`) plus relative
    frames ``rel`` (poses relative to their parent keyframe) with
    ``parents`` (M,), in segment order; segment ``i`` is the rel rows
    ``offsets[i]:offsets[i + 1]``.  ``kf_rows`` and ``rel_rows`` are the
    positions of the keyframe and relative rows among all frames ordered by
    ``(stamp, index)``, and ``stamps`` and ``indices`` (read-only) those
    frames' columns.  ``diagnostics_template`` is ``evaluate``'s read-only
    diagnostics table of the trajectory, ``None`` until it is filled in.

    ``Trajectory(kf, rel, parents)`` validates its input.  The keyframe
    stamps must be strictly increasing.  The parent index of each relative
    frame is authoritative: a frame whose parent does not exist, or whose
    stamp falls outside its parent's segment window, raises
    :class:`AssociationError` naming the frame.  A frame at exactly a
    keyframe stamp belongs to the segment that keyframe opens; frames after
    the last keyframe form the terminal segment.  The relative rows are
    then sorted into segment order.
    """

    __slots__ = ("kf", "rel", "parents", "offsets", "kf_rows", "rel_rows", "stamps", "indices",
                 "diagnostics_template", "_full")

    def __init__(self, kf: FrameTable, rel: FrameTable, parents):
        parents = np.asarray(parents, dtype=np.int64)
        n = len(kf)
        if n == 0:
            raise AssociationError("trajectory has no keyframes")
        if (kf.stamps[1:] <= kf.stamps[:-1]).any():
            raise AssociationError("keyframe timestamps must be strictly increasing")
        missing = (parents < 0) | (parents >= n)
        known = np.where(missing, 0, parents)
        lo = kf.stamps[known]
        hi = np.append(kf.stamps[1:], math.inf)[known]
        outside = ~((lo <= rel.stamps) & (rel.stamps < hi))
        k = _first(missing | outside)
        if k is not None:
            (fid,) = rel.take([k]).ids()
            i = int(parents[k])
            if missing[k]:
                raise AssociationError(f"relative frame {fid} references missing keyframe {i}")
            raise AssociationError(f"relative frame {fid} lies outside keyframe {i}'s segment")

        order = np.lexsort((rel.indices, rel.stamps, parents))
        self.kf = kf
        self.rel = rel.take(order)
        self.parents = parents[order]
        self.offsets = np.concatenate(([0], np.cumsum(np.bincount(parents, minlength=n))))
        # Frame order is a stable sort of the keyframes, then the relative
        # frames in segment order, by (stamp, index).
        stamps = np.concatenate((kf.stamps, self.rel.stamps))
        indices = np.concatenate((kf.indices, self.rel.indices))
        frame_order = np.lexsort((indices, stamps))
        rows = np.empty(len(frame_order), dtype=np.int64)
        rows[frame_order] = np.arange(len(frame_order))
        self.kf_rows, self.rel_rows = rows[:n], rows[n:]
        self.stamps, self.indices = stamps[frame_order], indices[frame_order]
        self.stamps.flags.writeable = self.indices.flags.writeable = False
        self.diagnostics_template = self._full = None

    def _with_poses(self, kf_q, kf_t, rel_q, rel_t) -> "Trajectory":
        """This trajectory's frames and structure with new pose arrays."""
        traj = object.__new__(Trajectory)
        traj.kf = FrameTable(self.kf.stamps, self.kf.indices, kf_q, kf_t)
        traj.rel = FrameTable(self.rel.stamps, self.rel.indices, rel_q, rel_t)
        traj.parents, traj.offsets = self.parents, self.offsets
        traj.kf_rows, traj.rel_rows = self.kf_rows, self.rel_rows
        traj.stamps, traj.indices = self.stamps, self.indices
        traj.diagnostics_template, traj._full = self.diagnostics_template, None
        return traj

    @property
    def frame_count(self) -> int:
        return len(self.kf) + len(self.rel)

    def full_segments(self) -> SegmentBatch:
        """Every segment that a keyframe closes, as a batch, built on the
        first call and kept with its memo."""
        if self._full is None:
            self._full = SegmentBatch(
                np.arange(len(self.kf) - 1),
                np.diff(self.offsets[:-1]),
                self.kf.stamps[:-1],
                self.kf.stamps[1:],
                self.rel.take(slice(0, self.offsets[-2])),
            )
        return self._full

    @property
    def keyframes(self) -> tuple[Keyframe, ...]:
        """The keyframes as objects, built on demand."""
        return tuple(Keyframe(fid, pose) for fid, pose in self.kf)


def from_world_poses(frames: FrameTable, keyframe_positions: Sequence[int]) -> Trajectory:
    """Build a trajectory from world poses, rebasing non-keyframes onto the
    keyframe that opens their segment.

    ``keyframe_positions`` are indices into ``frames``.
    """
    # A mask, not np.unique: on numpy 2.4 its first call imports numpy.ma (1.5 MB).
    positions = np.asarray(keyframe_positions, dtype=np.int64).reshape(-1)
    if len(positions) == 0:
        raise AssociationError("keyframe index selects no frames")
    if positions.min() < 0 or positions.max() >= len(frames):
        raise AssociationError(
            f"keyframe position out of range (n_frames={len(frames)})"
        )
    is_rel = np.ones(len(frames), dtype=bool)
    is_rel[positions] = False
    kf, rel = frames.take(~is_rel), frames.take(is_rel)
    parents = np.searchsorted(kf.stamps, rel.stamps, side="right") - 1
    k = _first(parents < 0)
    if k is not None:
        raise AssociationError(
            f"frame {rel.take([k]).ids()[0]} precedes the first keyframe; cannot anchor it"
        )
    kf_inv_q, kf_inv_t = pose_inverse(kf.q, kf.t)
    q, t = pose_mul(kf_inv_q[parents], kf_inv_t[parents], rel.q, rel.t)
    return Trajectory(kf, FrameTable(rel.stamps, rel.indices, q, t), parents)


def relative_world_poses(
    traj: Trajectory,
    kf_q: np.ndarray,
    kf_t: np.ndarray,
    rel_q: np.ndarray,
    rel_t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """World pose of each relative frame of ``traj``, in segment order: its
    parent keyframe's pose (row ``i`` of ``kf_q``/``kf_t`` for keyframe
    ``i``) times its relative pose (row ``k`` of ``rel_q``/``rel_t``).
    Segment order is the ``(stamp, index)`` order of the relative frames,
    since each segment is a window of stamps."""
    return pose_mul(kf_q[traj.parents], kf_t[traj.parents], rel_q, rel_t)


def compose_world_poses(
    traj: Trajectory,
    kf_q: np.ndarray,
    kf_t: np.ndarray,
    rel_q: np.ndarray,
    rel_t: np.ndarray,
) -> FrameTable:
    """World pose of every frame of ``traj``, ordered by ``(stamp,
    index)``: keyframe ``i`` at row ``i`` of ``kf_q``/``kf_t``, and each
    relative frame at its parent keyframe's pose times its relative pose,
    row ``k`` of ``rel_q``/``rel_t`` for the ``k``-th relative frame in
    segment order.  The table shares ``traj``'s read-only ``stamps`` and
    ``indices``."""
    q, t = relative_world_poses(traj, kf_q, kf_t, rel_q, rel_t)
    n = traj.frame_count
    out_q, out_t = np.empty((n, 4)), np.empty((n, 3))
    out_q[traj.kf_rows], out_t[traj.kf_rows] = kf_q, kf_t
    out_q[traj.rel_rows], out_t[traj.rel_rows] = q, t
    return FrameTable(traj.stamps, traj.indices, out_q, out_t)


def world_poses(traj: Trajectory) -> FrameTable:
    """World pose of every frame: keyframes pass through, relative frames
    compose ``kf.world_pose * rel_pose``.  Ordered by ``(stamp, index)``."""
    return compose_world_poses(traj, traj.kf.q, traj.kf.t, traj.rel.q, traj.rel.t)


def rebase(traj: Trajectory, kf_q: np.ndarray, kf_t: np.ndarray) -> Trajectory:
    """``traj`` with its keyframes moved to the poses ``kf_q``/``kf_t``
    (one row per keyframe, in order; ``ValueError`` otherwise) and every
    relative pose re-expressed against them, so that each frame keeps its
    world pose.  What no pose changes, the ``stamps``, ``indices`` and
    diagnostics template, is carried over; the segment batch and its memo
    are not."""
    if len(kf_q) != len(traj.kf) or len(kf_t) != len(traj.kf):
        raise ValueError(f"need one pose per keyframe ({len(traj.kf)}), got {len(kf_q)}")
    p = traj.parents
    world_q, world_t = relative_world_poses(traj, traj.kf.q, traj.kf.t, traj.rel.q, traj.rel.t)
    inv_q, inv_t = pose_inverse(kf_q, kf_t)
    return traj._with_poses(kf_q, kf_t, *pose_mul(inv_q[p], inv_t[p], world_q, world_t))


def associate(
    stamps: Sequence[float],
    reference: FrameTable,
    tol: float = DEFAULT_ASSOC_TOL,
    *,
    allow_missing: bool = False,
) -> np.ndarray:
    """Position in ``reference`` of the nearest-timestamp match of every
    query stamp.

    ``reference`` need not be sorted: it is stable-sorted by stamp here and
    all queries are resolved by one ``np.searchsorted`` pass.  For a query
    ``t`` the candidates are the last reference stamp below ``t`` and the
    first one at or above it; the nearer wins, and on equal distance the
    earlier stamp wins.  Among duplicate reference stamps, the last one
    below ``t`` or the first one at or above ``t`` is the candidate.  A
    match at a distance of exactly ``tol`` seconds is accepted.

    A query with no match raises :class:`AssociationError` naming its
    stamp, with ``query`` set to its position in ``stamps``; with
    ``allow_missing`` its position is -1 instead.
    """
    ref_stamps = reference.stamps
    order = np.argsort(ref_stamps, kind="stable")
    sorted_stamps = ref_stamps[order]
    queries = np.asarray(stamps, dtype=float).reshape(-1)
    n = len(sorted_stamps)
    if n == 0:
        picks = np.zeros(len(queries), dtype=np.int64)
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
    k = _first(missing)
    if not allow_missing and k is not None:
        raise AssociationError(
            f"no pose within {tol} s of timestamp {float(queries[k]):.6f}", query=k
        )
    return np.where(missing, -1, picks)


def snap_to_gt(traj: Trajectory, gt: FrameTable, tol: float = DEFAULT_ASSOC_TOL) -> KeyframeUpdates:
    """One update per keyframe: old = estimated world pose, new = the
    associated ground-truth pose.  Missing associations raise, never drop
    silently."""
    rows = associate(traj.kf.stamps, gt, tol)
    return KeyframeUpdates(traj.kf.q, traj.kf.t, gt.q[rows], gt.t[rows])

