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
(N, 4) quaternion and (N, 3) translation arrays.  The per-segment
quantities (the inter-keyframe poses, ``s`` and the inverse) are the
update's :class:`KeyframePairs`, computed once per update by
:func:`keyframe_pairs` and shared by every kernel that corrects it.  What
depends only on the batch and the old keyframe poses (:class:`OldGeometry`,
the blend factor ``alpha`` and its per-segment min and max among it) is kept
in the batch's one-entry memo while those poses stay byte-equal, so a
repeated update pays only for the new poses, the gap and the slerp.
``correct_segment_scalar`` in ``tests/reference_kernels.py`` is the same
correction for one segment, one frame at a time, on ``Pose`` values; the
tests compare this kernel against it bit for bit.

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


class OldGeometry:
    """The half of the correction of a batch that no keyframe update
    changes: per segment the old pose of the closing keyframe relative to
    the opening one (``q``, ``t``), its ``norm`` and its inverse (``inv_q``,
    ``inv_t``), and per relative frame what :meth:`frames` lists, the blend
    factor ``alpha`` and its per-segment min and max among it, built on its
    first call."""

    def __init__(self, q: np.ndarray, t: np.ndarray, norm: np.ndarray):
        self.q, self.t, self.norm = q, t, norm
        self.inv_q, self.inv_t = pose_inverse(q, t)
        self._frames = None

    def frames(self, batch: SegmentBatch) -> tuple[np.ndarray, ...]:
        """``(q_b, t_b, rot_a_inv, d_a, d_a + d_b, timestamp fraction)`` and the
        read-only ``(alpha, alpha_min, alpha_max)`` of a non-degenerate update."""
        if self._frames is None:
            q, t = batch.rels.q, batch.rels.t
            table = batch.per_frame(np.column_stack((
                self.inv_q, self.inv_t, batch.start, batch.stop - batch.start,
            )))
            q_b, t_b = pose_mul(table[:, 0:4], table[:, 4:7], q, t)  # rel_b_old
            d_a = vec_norm(t)
            total = d_a + vec_norm(t_b)
            fraction = (batch.rels.stamps - table[:, 7]) / table[:, 8]
            blend = _blend(batch, d_a, total, fraction)
            for column in blend:
                column.flags.writeable = False
            self._frames = q_b, t_b, quat_inverse(q), d_a, total, fraction, *blend
        return self._frames


def _blend(batch: SegmentBatch, d_a, total, fraction, keep=True) -> tuple[np.ndarray, ...]:
    """alpha, or the timestamp fraction off ``keep`` or on coincident geometry, with its extrema."""
    alpha = fraction.copy()
    np.divide(d_a, total, out=alpha, where=keep & (total >= DEGENERATE_BASELINE))
    return alpha, batch.reduce(np.minimum, alpha, math.nan), batch.reduce(np.maximum, alpha, math.nan)


class KeyframePairs(NamedTuple):
    """Per-segment quantities that the batched kernels share, one row per
    segment: the :class:`OldGeometry` of the old keyframe poses, the new
    pose of the closing keyframe relative to the opening one (``t_ab_new``)
    as quaternion and translation arrays, and ``s`` with its
    degenerate-baseline flag.  A kernel reads them and changes none."""

    old: OldGeometry
    new_q: np.ndarray
    new_t: np.ndarray
    s: np.ndarray
    degenerate: np.ndarray


def _pairs(a: np.ndarray, kf_q: np.ndarray, kf_t: np.ndarray):
    """Pose ``a + 1`` relative to pose ``a`` among ``kf_q``/``kf_t``, row by row, and its length."""
    b = a + 1
    q, t = pose_mul(*pose_inverse(kf_q[a], kf_t[a]), kf_q[b], kf_t[b])
    return q, t, vec_norm(t)


def keyframe_pairs(batch: SegmentBatch, updates: KeyframeUpdates) -> KeyframePairs:
    """The :class:`KeyframePairs` of every segment of ``batch`` at once,
    bitwise equal to the per-segment setup of the scalar reference without
    ``scale_squared``; ``updates`` has row ``i`` for keyframe ``i``.

    The old half comes from the batch's memo while the old poses stay
    byte-equal; on a miss the old and new pairs are one stacked chain."""
    key = (updates.old_q.tobytes(), updates.old_t.tobytes())
    if batch.memo is not None and batch.memo[0] == key:
        q, t, norm = _pairs(batch.index, updates.new_q, updates.new_t)
    else:
        a, n = batch.index, len(batch.index)
        q, t, norm = _pairs(np.concatenate((a, a + len(updates))),
                            np.concatenate((updates.old_q, updates.new_q)),
                            np.concatenate((updates.old_t, updates.new_t)))
        batch.memo = key, OldGeometry(q[:n], t[:n], norm[:n])
        q, t, norm = q[n:], t[n:], norm[n:]
    old = batch.memo[1]
    degenerate = (old.norm < DEGENERATE_BASELINE) | (norm < DEGENERATE_BASELINE)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = norm / old.norm
    s[degenerate] = 1.0
    return KeyframePairs(old, q, t, s, degenerate)


def correct_segment(
    batch: SegmentBatch,
    pairs: KeyframePairs,
    scale_squared: bool = False,
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Correct every relative frame of the full segments of ``batch`` in
    one pass.

    ``pairs`` is the batch's :func:`keyframe_pairs` for the update; with
    ``scale_squared`` the kernel squares their ``s``.  Returns the
    corrected poses of ``batch.rels`` relative to each segment's updated
    opening keyframe as (N, 4) quaternions and (N, 3) translations, plus
    the diagnostics columns ``s``, ``degenerate_baseline``, ``alpha_min``
    and ``alpha_max``, one value per segment.  Each value is bitwise equal
    to the scalar reference on the segment: the per-segment setup is
    :func:`keyframe_pairs`, and the per-frame steps are the array twins of
    its scalar operations.
    """
    s_ab = pairs.s * pairs.s if scale_squared else pairs.s  # a degenerate 1.0 stays 1.0
    q_b, t_b, rot_a_inv, d_a, total, fraction, alpha, alpha_min, alpha_max = pairs.old.frames(batch)
    if pairs.degenerate.any():  # the memo's blend is for updates without one
        keep = ~batch.per_frame(pairs.degenerate)
        alpha, alpha_min, alpha_max = _blend(batch, d_a, total, fraction, keep)
    # The per-segment table, repeated once for all its columns.
    table = batch.per_frame(np.column_stack((pairs.new_q, pairs.new_t, s_ab)))

    # The two single-keyframe solutions, their gap and the blend, row by row.
    q, t = batch.rels.q, batch.rels.t
    s, new_q, new_t = table[:, 7:8], table[:, 0:4], table[:, 4:7]
    trans_a = s * t
    drot = quat_mul(rot_a_inv, quat_mul(new_q, q_b))
    dtrans = quat_rotate(rot_a_inv, new_t + quat_rotate(new_q, s * t_b) - trans_a)
    rot = quat_mul(q, slerp_from_identity(drot, alpha))
    trans = trans_a + alpha[:, None] * quat_rotate(rot, dtrans)

    return rot, trans, {
        "s": s_ab,
        "degenerate_baseline": pairs.degenerate,
        "alpha_min": alpha_min,
        "alpha_max": alpha_max,
    }
