"""Element-wise vector-space interpolation of keyframe corrections.

The baseline converts relative poses to vectors, applies the component-wise
update-and-scale rule

    x*_aj = x_aj + (x*_ab - x_ab) * x_aj / x_ab

with per-component division, and converts back.  Translation is vectorized
in XYZ or in the translation part ``v`` of the se(3) tangent; rotation in
intrinsic Z-Y-X Euler angles, in the full 4-component quaternion (w >= 0),
or in the so(3) rotation vector.  Translation and rotation are corrected in
their chosen spaces independently and reassembled.

Components of ``x_ab`` smaller than ``SINGULARITY_EPS`` make the factor
numerically explosive; by default such components receive no correction
(factor zeroed) and the event is counted.  ``raw_division=True`` reproduces
the unguarded IEEE behavior (inf/NaN) for failure-mode studies.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from . import liegeom
from .liegeom import Pose, Rotation
from .trajectory import KeyframeUpdate, Segment, SegmentRecord

SINGULARITY_EPS = 1e-12
QUAT_RENORM_TOL = 1e-6


class TransSpace(Enum):
    XYZ = "xyz"
    SE3_V = "se3-v"


class RotSpace(Enum):
    EULER = "euler"
    QUAT = "quat"
    SO3 = "so3"


def vectorize(
    pose: Pose,
    ts: TransSpace,
    rs: RotSpace,
    diagnostics: SegmentRecord | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Vector views of a pose: (translation vector, rotation vector, so(3)
    log of the rotation).  The log is computed once, when ``SE3_V`` or
    ``SO3`` needs it, and is ``None`` otherwise."""
    omega = None
    if ts is TransSpace.SE3_V or rs is RotSpace.SO3:
        omega = liegeom.so3_log(pose.rotation)
    if ts is TransSpace.XYZ:
        tvec = np.array(pose.translation)
    else:
        tvec = liegeom.so3_left_jacobian_inv(omega) @ pose.translation
    if rs is RotSpace.EULER:
        rvec = liegeom.euler_zyx_from(pose.rotation)
        if diagnostics is not None and liegeom.gimbal_proximity(pose.rotation):
            diagnostics.gimbal_hits += 1
    elif rs is RotSpace.QUAT:
        rvec = np.array(pose.rotation.quat)
    else:
        rvec = omega
    return tvec, rvec, omega


def _rotation_from_vec(
    rvec: np.ndarray,
    rs: RotSpace,
    diagnostics: SegmentRecord | None = None,
) -> Rotation:
    if rs is RotSpace.EULER:
        return liegeom.euler_zyx_to(rvec)
    if rs is RotSpace.QUAT:
        norm = float(np.linalg.norm(rvec))
        if norm < SINGULARITY_EPS:
            # Exact cancellation of every component; nothing recoverable.
            if diagnostics is not None:
                diagnostics.quat_renorm_hits += 1
            return Rotation.identity()
        if diagnostics is not None and abs(norm - 1.0) > QUAT_RENORM_TOL:
            diagnostics.quat_renorm_hits += 1
        return Rotation(rvec)
    return liegeom.so3_exp(rvec)


def devectorize(
    tvec: np.ndarray,
    rvec: np.ndarray,
    ts: TransSpace,
    rs: RotSpace,
    diagnostics: SegmentRecord | None = None,
) -> Pose:
    """Inverse of :func:`vectorize`; quaternions are renormalized.

    For ``SE3_V`` the translation is mapped back through the left Jacobian
    of the rotation encoded by ``rvec``, so the reassembled pose is exactly
    ``exp`` of the tangent when ``rs`` is ``SO3``.
    """
    rot = _rotation_from_vec(rvec, rs, diagnostics)
    if ts is TransSpace.XYZ:
        trans = tvec
    else:
        trans = liegeom.so3_left_jacobian(liegeom.so3_log(rot)) @ tvec
    return Pose(rot, trans)


def _guarded_factor(
    numerator: np.ndarray,
    denominator: np.ndarray,
    raw_division: bool,
    diagnostics: SegmentRecord,
) -> np.ndarray:
    """Per-component ``numerator / denominator`` with the singularity guard."""
    small = np.abs(denominator) < SINGULARITY_EPS
    diagnostics.singular_hits += int(np.count_nonzero(small))
    if raw_division:
        with np.errstate(divide="ignore", invalid="ignore"):
            return numerator / denominator
    out = np.zeros_like(numerator)
    ok = ~small
    out[ok] = numerator[ok] / denominator[ok]
    return out


def interp_correct_segment(
    seg: Segment,
    upd_a: KeyframeUpdate,
    upd_b: KeyframeUpdate,
    ts: TransSpace,
    rs: RotSpace,
    raw_division: bool = False,
) -> tuple[list[Pose], SegmentRecord]:
    """Correct every relative frame of a full segment in vector space.

    Returns poses relative to the updated opening keyframe, plus the
    segment's record with its singular/gimbal/renormalization counts.
    """
    if seg.terminal:
        raise ValueError("interpolation needs a closing keyframe; segment is terminal")
    diag = SegmentRecord(seg.index)
    t_ab_old = upd_a.old_pose.inverse() * upd_b.old_pose
    t_ab_new = upd_a.new_pose.inverse() * upd_b.new_pose
    tv_old, rv_old, om_old = vectorize(t_ab_old, ts, rs, diag)
    tv_new, rv_new, om_new = vectorize(t_ab_new, ts, rs, diag)
    dt = tv_new - tv_old
    dr = rv_new - rv_old
    if ts is TransSpace.SE3_V:
        dom = om_new - om_old

    corrected = []
    for rel in seg.rels:
        tv, rv, om = vectorize(rel.rel_pose, ts, rs, diag)
        tv_star = tv + dt * _guarded_factor(tv, tv_old, raw_division, diag)
        rv_star = rv + dr * _guarded_factor(rv, rv_old, raw_division, diag)
        rot = _rotation_from_vec(rv_star, rs, diag)
        if ts is TransSpace.XYZ:
            trans = tv_star
        else:
            # v maps back through the left Jacobian of the interpolated
            # rotation part of the same tangent, keeping the translation
            # result independent of the rotation-space choice.
            om_star = om + dom * _guarded_factor(om, om_old, raw_division, diag)
            trans = liegeom.so3_left_jacobian(om_star) @ tv_star
        corrected.append(Pose(rot, trans))
    return corrected, diag
