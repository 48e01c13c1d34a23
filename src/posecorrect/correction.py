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

The single-keyframe solutions and the gap are plain ``(rotation,
translation)`` pairs of a :class:`Rotation` and a 3-vector; only the fused
result is built as a :class:`Pose`.

No divisions by per-axis components occur anywhere, which is what makes
this correction immune to the axis-aligned singularities of element-wise
vector-space interpolation.
"""
from __future__ import annotations

import math

import numpy as np

from .liegeom import Pose, Rotation, slerp
from .trajectory import KeyframeUpdate, Segment, SegmentRecord

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


def interp_factor(seg: Segment, j: int) -> float:
    """Distance-ratio interpolation factor of relative frame ``j`` of a full
    segment, with both distances taken from the pre-update geometry."""
    t_ab = seg.kf_a.world_pose.inverse() * seg.kf_b.world_pose
    return _alpha(seg, j, t_ab.inverse() * seg.rels[j].rel_pose, False)


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


def correct_segment(
    seg: Segment,
    upd_a: KeyframeUpdate,
    upd_b: KeyframeUpdate,
    scale_squared: bool = False,
) -> tuple[list[Pose], SegmentRecord]:
    """Correct every relative frame of a full segment.

    Returns poses relative to the updated opening keyframe plus the
    segment's record: ``s``, the degenerate-baseline flag and the range of
    ``alpha``.
    """
    if seg.terminal:
        raise ValueError("segment is terminal: it has no closing keyframe")
    t_ab_old = upd_a.old_pose.inverse() * upd_b.old_pose
    t_ab_new = upd_a.new_pose.inverse() * upd_b.new_pose
    s, degenerate = scale_factor(t_ab_old.translation, t_ab_new.translation, scale_squared)
    t_ab_old_inv = t_ab_old.inverse()

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
