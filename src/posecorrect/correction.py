"""Measurement-constraint pose correction for relative frames.

Given the back-end's update of the two keyframes enclosing a segment, each
keyframe alone pins the corrected relative pose: the relative rotation is
preserved and the relative translation is scaled by the ratio ``s`` of the
new to the old inter-keyframe baseline (the depth-ratio proxy).  The two
single-keyframe solutions generally disagree once the update is not a
similarity; their gap ``(dR, dt)`` is the SE(3) discrepancy

    gap = sol_a^-1 * T_{a*b*} * sol_b

expressed in the frame implied by the opening keyframe's solution.  The
final pose blends the gap with a per-frame factor
``alpha = d_a / (d_a + d_b)``, the frame's distance to the opening
keyframe over the sum of its distances to both (the timestamp fraction on
a degenerate baseline): rotation by slerp from identity to ``dR``,
translation by linear interpolation from zero to ``dt`` mapped through the
blended rotation.  ``alpha = 0`` returns the opening keyframe's solution
exactly; ``alpha = 1`` closes the far keyframe's constraint.

:func:`correct_segment` corrects every full segment of a
:class:`SegmentBatch`, usually all of a trajectory's, in one pass over
(N, 4) quaternion and (N, 3) translation arrays, with the per-segment
quantities (the inter-keyframe poses, ``s`` and the inverse) computed once
per segment.  ``correct_segment_scalar`` in ``tests/reference_kernels.py``
is the same correction for one segment, one frame at a time, on ``Pose``
values; the tests compare this kernel against it bit for bit.

No divisions by per-axis components occur anywhere, which is what makes
this correction immune to the axis-aligned singularities of element-wise
vector-space interpolation.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .liegeom import (
    pose_inverse,
    pose_mul,
    quat_inverse,
    quat_mul,
    quat_rotate,
    slerp_from_identity,
    vec_norm,
)
from .trajectory import KeyframeUpdates, SegmentBatch

DEGENERATE_BASELINE = 1e-9  # meters; below this the scale ratio is unusable


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
    batch: SegmentBatch,
    updates,
    scale_squared: bool = False,
) -> KeyframePairs:
    """The :class:`KeyframePairs` of every segment of ``batch`` at once,
    bitwise equal to the per-segment setup of the scalar reference;
    ``updates`` is a :class:`KeyframeUpdates` table or a sequence of
    :class:`KeyframeUpdate`, row ``i`` for keyframe ``i``."""
    updates = KeyframeUpdates.of(updates)
    # The old keyframe pairs, then the new ones, as one stack of rows.
    a = np.concatenate((batch.index, batch.index + len(updates)))
    kf_q = np.concatenate((updates.old_q, updates.new_q))
    kf_t = np.concatenate((updates.old_t, updates.new_t))
    q, t = pose_mul(*pose_inverse(kf_q[a], kf_t[a]), kf_q[a + 1], kf_t[a + 1])
    n = vec_norm(t)
    k = len(batch.index)
    old_q, new_q, old_t, new_t, n_old, n_new = q[:k], q[k:], t[:k], t[k:], n[:k], n[k:]
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
    updates,
    scale_squared: bool = False,
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Correct every relative frame of the full segments of ``batch`` in
    one pass.

    ``updates`` is a :class:`KeyframeUpdates` table or a sequence of
    :class:`KeyframeUpdate`, row ``i`` for keyframe ``i``.  Returns the
    corrected poses of ``batch.rels`` relative to each segment's updated
    opening keyframe as (N, 4) quaternions and (N, 3) translations, plus the
    diagnostics columns ``s``, ``degenerate_baseline``, ``alpha_min`` and
    ``alpha_max``, one value per segment.  Each value is bitwise equal to
    the scalar reference on the segment: the per-segment setup is
    :func:`keyframe_pairs`, and the per-frame steps are the array twins of
    its scalar operations.
    """
    pairs = keyframe_pairs(batch, updates, scale_squared)
    # The per-segment table, repeated once for all its columns.
    table = batch.per_frame(np.column_stack((
        pairs.old_inv_q, pairs.old_inv_t, pairs.new_q, pairs.new_t,
        pairs.s, batch.start, batch.stop - batch.start, pairs.degenerate,
    )))
    q, t = batch.rels.q, batch.rels.t
    q_b, t_b = pose_mul(table[:, 0:4], table[:, 4:7], q, t)  # rel_b_old
    alpha = _alphas(t, t_b, batch.rels.stamps, table[:, 15], table[:, 16], table[:, 17] != 0.0)

    # The two single-keyframe solutions, their gap and the blend, row by row.
    s, new_q, new_t = table[:, 14:15], table[:, 7:11], table[:, 11:14]
    trans_a = s * t
    rot_a_inv = quat_inverse(q)
    drot = quat_mul(rot_a_inv, quat_mul(new_q, q_b))
    dtrans = quat_rotate(rot_a_inv, new_t + quat_rotate(new_q, s * t_b) - trans_a)
    rot = quat_mul(q, slerp_from_identity(drot, alpha))
    trans = trans_a + alpha[:, None] * quat_rotate(rot, dtrans)

    return rot, trans, {
        "s": pairs.s,
        "degenerate_baseline": pairs.degenerate,
        "alpha_min": batch.reduce(np.minimum, alpha, math.nan),
        "alpha_max": batch.reduce(np.maximum, alpha, math.nan),
    }


def _alphas(t, t_b, stamps, t_a, span, degenerate) -> np.ndarray:
    """``alpha`` of every row: ``d_a / (d_a + d_b)`` from the relative
    translations to the opening (``t``) and closing (``t_b``) keyframe, or
    the timestamp fraction ``(stamps - t_a) / span`` on a degenerate
    baseline or coincident geometry."""
    alpha = (stamps - t_a) / span
    d_a = vec_norm(t)
    total = d_a + vec_norm(t_b)
    np.divide(d_a, total, out=alpha, where=~degenerate & (total >= DEGENERATE_BASELINE))
    return alpha
