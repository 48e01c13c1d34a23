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
(N, 3) translation arrays, from the update's keyframe pairs
(:func:`correction.keyframe_pairs`, whose old half comes from the batch's
memo), vectorized once per segment.  Vectorization, the guarded update
and the rotation rebuild run on the ``liegeom`` array forms, and the hit
counts are summed per segment.
``interp_correct_segment_scalar`` in ``tests/reference_kernels.py`` is the
same correction for one segment, one frame at a time, on ``Pose`` values;
the tests compare this kernel against it bit for bit.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from . import liegeom
from .correction import KeyframePairs
from .liegeom import mat_vec
from .trajectory import SegmentBatch

SINGULARITY_EPS = 1e-12
QUAT_RENORM_TOL = 1e-6
IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])


class TransSpace(Enum):
    XYZ = "xyz"
    SE3_V = "se3-v"


class RotSpace(Enum):
    EULER = "euler"
    QUAT = "quat"
    SO3 = "so3"


def _guarded_factor(
    numerator: np.ndarray,
    denominator: np.ndarray,
    raw_division: bool,
) -> np.ndarray:
    """Per-component ``numerator / denominator`` with the singularity guard,
    for one vector or an (N, k) stack."""
    small = np.abs(denominator) < SINGULARITY_EPS
    if raw_division:
        with np.errstate(divide="ignore", invalid="ignore"):
            return numerator / denominator
    return np.divide(numerator, denominator, out=np.zeros_like(numerator), where=~small)


def _vectorize_rows(q: np.ndarray, t: np.ndarray, ts: TransSpace, rs: RotSpace):
    """Vector views of poses ``(q, t)`` in spaces ``ts`` and ``rs``:
    translation vectors, rotation vectors, so(3) logs (``None`` unless
    needed) and the rows that count a gimbal hit."""
    omega = None
    if ts is TransSpace.SE3_V or rs is RotSpace.SO3:
        omega = liegeom.so3_log_rows(q)
    tvec = t if ts is TransSpace.XYZ else mat_vec(liegeom.so3_left_jacobian_inv_rows(omega), t)
    gimbal = np.zeros(len(q), dtype=bool)
    if rs is RotSpace.EULER:
        rvec, gimbal = liegeom.euler_zyx_from_rows(q)
    elif rs is RotSpace.QUAT:
        rvec = q
    else:
        rvec = omega
    return tvec, rvec, omega, gimbal


def _rotation_rows(rvec: np.ndarray, rs: RotSpace) -> tuple[np.ndarray, np.ndarray]:
    """Rotations of the vectors ``rvec`` of space ``rs`` as canonical
    quaternions (a quaternion is renormalized, or the identity when every
    component cancels), plus the rows that count a renormalization hit."""
    if rs is RotSpace.EULER:
        return liegeom.euler_zyx_to_rows(rvec), np.zeros(len(rvec), dtype=bool)
    if rs is RotSpace.SO3:
        return liegeom.so3_exp_rows(rvec), np.zeros(len(rvec), dtype=bool)
    norm = liegeom.vec_norm(rvec)
    zero = norm < SINGULARITY_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        q = liegeom.quat_normalize(rvec)
    q[zero] = IDENTITY_QUAT
    return q, zero | (np.abs(norm - 1.0) > QUAT_RENORM_TOL)


def interp_correct_segment(
    batch: SegmentBatch,
    pairs: KeyframePairs,
    ts: TransSpace,
    rs: RotSpace,
    raw_division: bool = False,
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Correct every relative frame of the full segments of ``batch`` in
    vector space, in one pass.

    ``pairs`` is the batch's :func:`correction.keyframe_pairs` for the
    update.  Returns the corrected poses of ``batch.rels`` relative to each
    segment's updated opening keyframe as (N, 4) quaternions and (N, 3)
    translations, plus the diagnostics columns ``singular_hits``,
    ``gimbal_hits`` and ``quat_renorm_hits``, one count per segment.  Each value and count is
    bitwise equal to the scalar reference on the segment.
    """
    per_frame = batch.per_frame
    tv_old, rv_old, om_old, gimbal_old = _vectorize_rows(pairs.old.q, pairs.old.t, ts, rs)
    tv_new, rv_new, om_new, gimbal_new = _vectorize_rows(pairs.new_q, pairs.new_t, ts, rs)
    tv, rv, om, gimbal = _vectorize_rows(batch.rels.q, batch.rels.t, ts, rs)

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

    gimbal_hits = gimbal_old.astype(int) + gimbal_new + batch.reduce(np.add, gimbal.astype(int), 0)
    return rot, trans, {
        "singular_hits": singular * batch.counts,
        "gimbal_hits": gimbal_hits,
        "quat_renorm_hits": batch.reduce(np.add, renorm.astype(int), 0),
    }
