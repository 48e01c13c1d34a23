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

No divisions by per-axis components occur anywhere, which is what makes
this correction immune to the axis-aligned singularities of element-wise
vector-space interpolation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .liegeom import Pose, Rotation, slerp
from .trajectory import KeyframeUpdate, Segment

DEGENERATE_BASELINE = 1e-9  # meters; below this the scale ratio is unusable


@dataclass(frozen=True)
class ScaleFactor:
    """Baseline ratio ``s`` (depth-ratio proxy); ``degenerate`` marks a
    near-zero pre-update baseline where ``s`` falls back to 1."""

    s: float
    degenerate: bool = False


@dataclass(frozen=True)
class ConditionSolution:
    """Corrected relative pose implied by a single keyframe's constraint."""

    rot: Rotation
    trans: np.ndarray

    def as_pose(self) -> Pose:
        return Pose(self.rot, self.trans)


@dataclass(frozen=True)
class FusionGap:
    """Disagreement between the two condition solutions, expressed in the
    opening-keyframe solution's frame."""

    drot: Rotation
    dtrans: np.ndarray


def scale_factor(t_ab_old, t_ab_new, squared: bool = False) -> ScaleFactor:
    """Ratio of the new to the old inter-keyframe translation norm.

    ``squared=True`` uses the squared-norm ratio instead (kept for
    comparison; the unsquared ratio is the one that is exact under
    similarity updates).
    """
    n_old = float(np.linalg.norm(t_ab_old))
    n_new = float(np.linalg.norm(t_ab_new))
    if n_old < DEGENERATE_BASELINE or n_new < DEGENERATE_BASELINE:
        return ScaleFactor(1.0, degenerate=True)
    s = n_new / n_old
    return ScaleFactor(s * s if squared else s)


def condition_from_kf(rel_old: Pose, s: ScaleFactor) -> ConditionSolution:
    """Single-keyframe solution: rotation kept, translation scaled by s."""
    return ConditionSolution(rel_old.rotation, s.s * rel_old.translation)


def fusion_gap(
    sol_a: ConditionSolution, sol_b: ConditionSolution, t_ab_new: Pose
) -> FusionGap:
    """Gap between the two condition solutions of one segment.

    ``sol_a`` is relative to the updated opening keyframe, ``sol_b`` to the
    updated closing keyframe; ``t_ab_new`` is the updated closing keyframe
    relative to the updated opening one.
    """
    rot_a_inv = sol_a.rot.inverse()
    drot = rot_a_inv * (t_ab_new.rotation * sol_b.rot)
    delta = t_ab_new.translation + t_ab_new.rotation.apply(sol_b.trans) - sol_a.trans
    return FusionGap(drot, rot_a_inv.apply(delta))


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


@dataclass(frozen=True)
class CorrectionDiagnostics:
    """Per-segment record of the proposed correction."""

    s: float
    degenerate_baseline: bool
    alpha_min: float
    alpha_max: float


def fuse(sol_a: ConditionSolution, gap: FusionGap, alpha: float) -> Pose:
    """Blend the opening-keyframe solution toward the gap by ``alpha``."""
    rot = sol_a.rot * slerp(Rotation.identity(), gap.drot, alpha)
    trans = sol_a.trans + alpha * rot.apply(gap.dtrans)
    return Pose(rot, trans)


def correct_segment(
    seg: Segment,
    upd_a: KeyframeUpdate,
    upd_b: KeyframeUpdate,
    scale_squared: bool = False,
) -> tuple[list[Pose], CorrectionDiagnostics]:
    """Correct every relative frame of a full segment.

    Returns poses relative to the updated opening keyframe plus per-segment
    diagnostics.
    """
    if seg.terminal:
        raise ValueError("segment is terminal: it has no closing keyframe")
    t_ab_old = upd_a.old_pose.inverse() * upd_b.old_pose
    t_ab_new = upd_a.new_pose.inverse() * upd_b.new_pose
    sf = scale_factor(t_ab_old.translation, t_ab_new.translation, scale_squared)
    t_ab_old_inv = t_ab_old.inverse()

    corrected = []
    alphas = []
    for j, rel in enumerate(seg.rels):
        rel_b_old = t_ab_old_inv * rel.rel_pose
        sol_a = condition_from_kf(rel.rel_pose, sf)
        sol_b = condition_from_kf(rel_b_old, sf)
        gap = fusion_gap(sol_a, sol_b, t_ab_new)
        alpha = _alpha(seg, j, rel_b_old, sf.degenerate)
        alphas.append(alpha)
        corrected.append(fuse(sol_a, gap, alpha))
    diag = CorrectionDiagnostics(
        s=sf.s,
        degenerate_baseline=sf.degenerate,
        alpha_min=min(alphas, default=math.nan),
        alpha_max=max(alphas, default=math.nan),
    )
    return corrected, diag

