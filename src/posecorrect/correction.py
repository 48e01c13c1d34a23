"""Measurement-constraint pose correction for relative frames.

Given the back-end's update of the two keyframes enclosing a segment, each
keyframe alone pins the corrected relative pose: the relative rotation is
preserved and the relative translation is scaled by the ratio ``s`` of the
new to the old inter-keyframe baseline (the depth-ratio proxy).  The two
single-keyframe solutions generally disagree once the update is not a
similarity; their gap ``(dR, dt)`` is the SE(3) discrepancy

    gap = sol_a^-1 * T_{a*b*} * sol_b

expressed in the frame implied by the opening keyframe's solution.  The
final pose blends the gap with a per-frame factor ``alpha`` (distance ratio
along the segment): rotation by slerp from identity to ``dR``, translation
by linear interpolation from zero to ``dt`` mapped through the blended
rotation.  ``alpha = 0`` returns the opening keyframe's solution exactly;
``alpha = 1`` closes the far keyframe's constraint.

:func:`correct_segment` is the entry point: it corrects every full
segment of a :class:`SegmentBatch`, usually all of a trajectory's, in one
pass over (N, 4) quaternion and (N, 3) translation arrays, with the
per-segment quantities (the inter-keyframe poses, ``s`` and the inverse)
computed once per segment.  :func:`correct_segment_scalar` is the same
correction for one segment, one frame at a time, on :class:`Pose` values;
it is the reference that the tests compare the batched kernel against bit
for bit.  Its single-keyframe
solutions and gap are plain ``(rotation, translation)`` pairs of a
:class:`Rotation` and a 3-vector.

No divisions by per-axis components occur anywhere, which is what makes
this correction immune to the axis-aligned singularities of element-wise
vector-space interpolation.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .liegeom import (
    Pose,
    Rotation,
    pose_arrays,
    pose_inverse,
    pose_mul,
    quat_inverse,
    quat_mul,
    quat_rotate,
    slerp,
    slerp_from_identity,
    vec_norm,
)
from .trajectory import (
    KeyframeUpdate,
    Segment,
    SegmentBatch,
    SegmentRecord,
    rel_pose_arrays,
)

DEGENERATE_BASELINE = 1e-9  # meters; below this the scale ratio is unusable


def scale_factor(t_ab_old, t_ab_new, squared: bool = False) -> tuple[float, bool]:
    """Ratio ``s`` of the new to the old inter-keyframe translation norm
    (the depth-ratio proxy), plus a flag marking a near-zero baseline,
    where ``s`` falls back to 1.

    ``squared=True`` uses the squared-norm ratio instead (kept for
    comparison; the unsquared ratio is the one that is exact under
    similarity updates).
    """
    n_old = float(np.linalg.norm(t_ab_old))
    n_new = float(np.linalg.norm(t_ab_new))
    if n_old < DEGENERATE_BASELINE or n_new < DEGENERATE_BASELINE:
        return 1.0, True
    s = n_new / n_old
    return (s * s if squared else s), False


def condition_from_kf(rel_old: Pose, s: float) -> tuple[Rotation, np.ndarray]:
    """Single-keyframe solution as a ``(rotation, translation)`` pair: the
    relative pose implied by one keyframe's constraint, rotation kept and
    translation scaled by ``s``."""
    return rel_old.rotation, s * rel_old.translation


def fusion_gap(
    sol_a: tuple[Rotation, np.ndarray],
    sol_b: tuple[Rotation, np.ndarray],
    t_ab_new: Pose,
) -> tuple[Rotation, np.ndarray]:
    """Gap ``(drot, dtrans)`` between the two condition solutions of one
    segment, expressed in the opening-keyframe solution's frame.

    ``sol_a`` is relative to the updated opening keyframe, ``sol_b`` to the
    updated closing keyframe, both ``(rotation, translation)`` pairs from
    :func:`condition_from_kf`; ``t_ab_new`` is the updated closing keyframe
    relative to the updated opening one.
    """
    rot_a, trans_a = sol_a
    rot_b, trans_b = sol_b
    rot_a_inv = rot_a.inverse()
    drot = rot_a_inv * (t_ab_new.rotation * rot_b)
    delta = t_ab_new.translation + t_ab_new.rotation.apply(trans_b) - trans_a
    return drot, rot_a_inv.apply(delta)


def timestamp_fraction(seg: Segment, j: int) -> float:
    """Position of relative frame ``j`` in a full segment's time window."""
    t_a = seg.kf_a.id.stamp
    return (seg.rels[j].id.stamp - t_a) / (seg.kf_b.id.stamp - t_a)


def _alpha(seg: Segment, j: int, rel_b: Pose, degenerate_baseline: bool) -> float:
    """Interpolation factor ``alpha = d_a / (d_a + d_b)`` of relative frame
    ``j``, whose pose relative to the closing keyframe is ``rel_b``; a
    degenerate baseline or coincident geometry falls back to the timestamp
    fraction."""
    if not degenerate_baseline:
        d_a = float(np.linalg.norm(seg.rels[j].rel_pose.translation))
        d_b = float(np.linalg.norm(rel_b.translation))
        total = d_a + d_b
        if total >= DEGENERATE_BASELINE:
            return d_a / total
    return timestamp_fraction(seg, j)


def fuse(
    sol_a: tuple[Rotation, np.ndarray], gap: tuple[Rotation, np.ndarray], alpha: float
) -> Pose:
    """Blend the opening-keyframe solution ``(rotation, translation)``
    toward the gap ``(drot, dtrans)`` by ``alpha``."""
    rot_a, trans_a = sol_a
    drot, dtrans = gap
    rot = rot_a * slerp(Rotation.identity(), drot, alpha)
    trans = trans_a + alpha * rot.apply(dtrans)
    return Pose(rot, trans)


def _segment_setup(
    upd_a: KeyframeUpdate, upd_b: KeyframeUpdate, scale_squared: bool
) -> tuple[Pose, Pose, float, bool]:
    """Per-segment quantities of the correction: the inverse of the old pose
    of the closing keyframe relative to the opening one, the new such pose,
    ``s`` and the degenerate-baseline flag."""
    t_ab_old = upd_a.old_pose.inverse() * upd_b.old_pose
    t_ab_new = upd_a.new_pose.inverse() * upd_b.new_pose
    s, degenerate = scale_factor(t_ab_old.translation, t_ab_new.translation, scale_squared)
    return t_ab_old.inverse(), t_ab_new, s, degenerate


def correct_segment_scalar(
    seg: Segment,
    upd_a: KeyframeUpdate,
    upd_b: KeyframeUpdate,
    scale_squared: bool = False,
) -> tuple[list[Pose], SegmentRecord]:
    """Correct every relative frame of a full segment, one frame at a time.

    Returns poses relative to the updated opening keyframe plus the
    segment's record: ``s``, the degenerate-baseline flag and the range of
    ``alpha``.  This is the reference that :func:`correct_segment` is
    tested against bit for bit.
    """
    if seg.terminal:
        raise ValueError("segment is terminal: it has no closing keyframe")
    t_ab_old_inv, t_ab_new, s, degenerate = _segment_setup(upd_a, upd_b, scale_squared)

    corrected = []
    alphas = []
    for j, rel in enumerate(seg.rels):
        rel_b_old = t_ab_old_inv * rel.rel_pose
        sol_a = condition_from_kf(rel.rel_pose, s)
        sol_b = condition_from_kf(rel_b_old, s)
        gap = fusion_gap(sol_a, sol_b, t_ab_new)
        alpha = _alpha(seg, j, rel_b_old, degenerate)
        alphas.append(alpha)
        corrected.append(fuse(sol_a, gap, alpha))
    return corrected, SegmentRecord(
        seg.index,
        s=s,
        degenerate_baseline=degenerate,
        alpha_min=min(alphas, default=math.nan),
        alpha_max=max(alphas, default=math.nan),
    )


class KeyframePairs(NamedTuple):
    """Per-segment quantities that the batched kernels share, one row per
    segment: the old pose of the closing keyframe relative to the opening
    one (``t_ab_old``) and its inverse, the new such pose (``t_ab_new``)
    as quaternion and translation arrays, and ``s`` with its
    degenerate-baseline flag."""

    old_q: np.ndarray
    old_t: np.ndarray
    old_inv_q: np.ndarray
    old_inv_t: np.ndarray
    new_q: np.ndarray
    new_t: np.ndarray
    s: np.ndarray
    degenerate: np.ndarray


def keyframe_pairs(
    segments: Sequence[Segment],
    updates: Sequence[KeyframeUpdate],
    scale_squared: bool = False,
) -> KeyframePairs:
    """:func:`_segment_setup` of every full segment at once, on arrays and
    bitwise equal to it; ``updates[i]`` is the update of keyframe ``i``."""
    for seg in segments:
        if seg.terminal:
            raise ValueError("segment is terminal: it has no closing keyframe")

    def between(attr: str):
        q_a, t_a = pose_arrays(getattr(updates[seg.index], attr) for seg in segments)
        q_b, t_b = pose_arrays(getattr(updates[seg.index + 1], attr) for seg in segments)
        return pose_mul(*pose_inverse(q_a, t_a), q_b, t_b)

    old_q, old_t = between("old_pose")
    new_q, new_t = between("new_pose")
    n_old, n_new = vec_norm(old_t), vec_norm(new_t)
    degenerate = (n_old < DEGENERATE_BASELINE) | (n_new < DEGENERATE_BASELINE)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = n_new / n_old
    if scale_squared:
        s = s * s
    s[degenerate] = 1.0
    return KeyframePairs(
        old_q, old_t, *pose_inverse(old_q, old_t), new_q, new_t, s, degenerate
    )


def correct_segment(
    batch: SegmentBatch,
    updates: Sequence[KeyframeUpdate],
    scale_squared: bool = False,
) -> tuple[np.ndarray, np.ndarray, list[SegmentRecord]]:
    """Correct every relative frame of the full segments of ``batch`` in
    one pass.

    ``updates[i]`` is the update of keyframe ``i``.  Returns the corrected
    poses of ``batch.rels`` relative to each segment's updated opening
    keyframe as (N, 4) quaternions and (N, 3) translations, plus one record
    per segment.  Each value is bitwise equal to
    :func:`correct_segment_scalar` on the segment: the per-segment setup is
    :func:`keyframe_pairs`, and the per-frame steps are the array twins of
    its scalar operations.
    """
    segments, per_frame = batch.segments, batch.per_frame
    pairs = keyframe_pairs(segments, updates, scale_squared)
    q, t = rel_pose_arrays(segments)
    q_b, t_b = pose_mul(per_frame(pairs.old_inv_q), per_frame(pairs.old_inv_t), q, t)  # rel_b_old
    alpha = _alphas(
        t,
        t_b,
        np.array([rel.id.stamp for rel in batch.rels]),
        per_frame([seg.kf_a.id.stamp for seg in segments]),
        per_frame([seg.kf_b.id.stamp - seg.kf_a.id.stamp for seg in segments]),
        per_frame(pairs.degenerate),
    )

    # condition_from_kf, fusion_gap and fuse, row by row.
    s = per_frame(pairs.s)[:, None]
    new_q, new_t = per_frame(pairs.new_q), per_frame(pairs.new_t)
    trans_a = s * t
    rot_a_inv = quat_inverse(q)
    drot = quat_mul(rot_a_inv, quat_mul(new_q, q_b))
    dtrans = quat_rotate(rot_a_inv, new_t + quat_rotate(new_q, s * t_b) - trans_a)
    rot = quat_mul(q, slerp_from_identity(drot, alpha))
    trans = trans_a + alpha[:, None] * quat_rotate(rot, dtrans)

    records = [
        SegmentRecord(seg.index, s=s_seg, degenerate_baseline=flag, alpha_min=a_min, alpha_max=a_max)
        for seg, s_seg, flag, a_min, a_max in zip(
            segments,
            pairs.s.tolist(),
            pairs.degenerate.tolist(),
            batch.reduce(np.minimum, alpha, math.nan).tolist(),
            batch.reduce(np.maximum, alpha, math.nan).tolist(),
        )
    ]
    return rot, trans, records


def _alphas(t, t_b, stamps, t_a, span, degenerate) -> np.ndarray:
    """:func:`_alpha` of every row: ``d_a / (d_a + d_b)`` from the relative
    translations to the opening (``t``) and closing (``t_b``) keyframe, or
    the timestamp fraction ``(stamps - t_a) / span`` on a degenerate
    baseline or coincident geometry."""
    alpha = (stamps - t_a) / span
    d_a = vec_norm(t)
    total = d_a + vec_norm(t_b)
    np.divide(d_a, total, out=alpha, where=~degenerate & (total >= DEGENERATE_BASELINE))
    return alpha
