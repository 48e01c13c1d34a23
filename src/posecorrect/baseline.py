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

:func:`interp_correct_segment` is the entry point: it corrects every full
segment of a :class:`SegmentBatch` in one pass over (N, 4) quaternion and
(N, 3) translation arrays, with the keyframe-pair vectors computed once
per segment by :func:`correction.keyframe_pairs`.  Vectorization, the
guarded update and the rotation rebuild run on the ``liegeom`` array
forms, and the hit counters are summed per segment.
:func:`interp_correct_segment_scalar` is the same correction for one
segment, one frame at a time, on :class:`Pose` values; it is the
reference that the tests compare the batched kernel against bit for bit.
"""
from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from . import liegeom
from .correction import keyframe_pairs
from .liegeom import Pose, Rotation, mat_vec
from .trajectory import (
    KeyframeUpdate,
    Segment,
    SegmentBatch,
    SegmentRecord,
    rel_pose_arrays,
)

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
    diagnostics: SegmentRecord | None = None,
) -> np.ndarray:
    """Per-component ``numerator / denominator`` with the singularity guard,
    for one vector or an (N, k) stack; ``diagnostics`` counts the guarded
    components."""
    small = np.abs(denominator) < SINGULARITY_EPS
    if diagnostics is not None:
        diagnostics.singular_hits += int(np.count_nonzero(small))
    if raw_division:
        with np.errstate(divide="ignore", invalid="ignore"):
            return numerator / denominator
    return np.divide(numerator, denominator, out=np.zeros_like(numerator), where=~small)


def interp_correct_segment_scalar(
    seg: Segment,
    upd_a: KeyframeUpdate,
    upd_b: KeyframeUpdate,
    ts: TransSpace,
    rs: RotSpace,
    raw_division: bool = False,
) -> tuple[list[Pose], SegmentRecord]:
    """Correct every relative frame of a full segment in vector space, one
    frame at a time.

    Returns poses relative to the updated opening keyframe, plus the
    segment's record with its singular/gimbal/renormalization counts.  This
    is the reference that :func:`interp_correct_segment` is tested against
    bit for bit.
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


def _vectorize_rows(q: np.ndarray, t: np.ndarray, ts: TransSpace, rs: RotSpace):
    """Array twin of :func:`vectorize` on poses ``(q, t)``: translation
    vectors, rotation vectors, so(3) logs (``None`` unless needed) and the
    rows that count a gimbal hit."""
    omega = None
    if ts is TransSpace.SE3_V or rs is RotSpace.SO3:
        omega = liegeom.so3_log_rows(q)
    tvec = t if ts is TransSpace.XYZ else mat_vec(liegeom.so3_left_jacobian_inv_rows(omega), t)
    gimbal = np.zeros(len(q), dtype=bool)
    if rs is RotSpace.EULER:
        rvec = liegeom.euler_zyx_from_rows(q)
        gimbal = liegeom.gimbal_proximity_rows(q)
    elif rs is RotSpace.QUAT:
        rvec = q
    else:
        rvec = omega
    return tvec, rvec, omega, gimbal


def _rotation_rows(rvec: np.ndarray, rs: RotSpace) -> tuple[np.ndarray, np.ndarray]:
    """Array twin of :func:`_rotation_from_vec`: canonical quaternions plus
    the rows that count a renormalization hit."""
    if rs is RotSpace.EULER:
        return liegeom.euler_zyx_to_rows(rvec), np.zeros(len(rvec), dtype=bool)
    if rs is RotSpace.SO3:
        return liegeom.so3_exp_rows(rvec), np.zeros(len(rvec), dtype=bool)
    norm = liegeom.vec_norm(rvec)
    zero = norm < SINGULARITY_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        q = liegeom.quat_normalize(rvec)
    q[zero] = Rotation.identity().quat
    return q, zero | (np.abs(norm - 1.0) > QUAT_RENORM_TOL)


def interp_correct_segment(
    batch: SegmentBatch,
    updates: Sequence[KeyframeUpdate],
    ts: TransSpace,
    rs: RotSpace,
    raw_division: bool = False,
) -> tuple[np.ndarray, np.ndarray, list[SegmentRecord]]:
    """Correct every relative frame of the full segments of ``batch`` in
    vector space, in one pass.

    ``updates[i]`` is the update of keyframe ``i``.  Returns the corrected
    poses of ``batch.rels`` relative to each segment's updated opening
    keyframe as (N, 4) quaternions and (N, 3) translations, plus one record
    per segment.  Each value and count is bitwise equal to
    :func:`interp_correct_segment_scalar` on the segment.
    """
    segments, per_frame = batch.segments, batch.per_frame
    pairs = keyframe_pairs(segments, updates)
    tv_old, rv_old, om_old, gimbal_old = _vectorize_rows(pairs.old_q, pairs.old_t, ts, rs)
    tv_new, rv_new, om_new, gimbal_new = _vectorize_rows(pairs.new_q, pairs.new_t, ts, rs)
    tv, rv, om, gimbal = _vectorize_rows(*rel_pose_arrays(segments), ts, rs)

    def update(x, x_old, x_new):
        x_old = per_frame(x_old)
        return x + (per_frame(x_new) - x_old) * _guarded_factor(x, x_old, raw_division)

    rot, renorm = _rotation_rows(update(rv, rv_old, rv_new), rs)
    trans = update(tv, tv_old, tv_new)
    # The scalar kernel counts the small components of each denominator
    # once per frame.
    small = [tv_old, rv_old]
    if ts is TransSpace.SE3_V:
        # v maps back through the left Jacobian of the interpolated
        # rotation part of the same tangent, keeping the translation
        # result independent of the rotation-space choice.
        trans = mat_vec(liegeom.so3_left_jacobian_rows(update(om, om_old, om_new)), trans)
        small.append(om_old)
    singular = sum(np.count_nonzero(np.abs(x) < SINGULARITY_EPS, axis=1) for x in small)

    records = [
        SegmentRecord(
            seg.index, singular_hits=n_singular, gimbal_hits=n_gimbal, quat_renorm_hits=n_renorm
        )
        for seg, n_singular, n_gimbal, n_renorm in zip(
            segments,
            (singular * batch.counts).tolist(),
            (
                gimbal_old.astype(int) + gimbal_new + batch.reduce(np.add, gimbal.astype(int), 0)
            ).tolist(),
            batch.reduce(np.add, renorm.astype(int), 0).tolist(),
        )
    ]
    return rot, trans, records
