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
per segment.  What depends only on the batch and the old keyframe poses
(:class:`OldGeometry`) is kept in the batch's one-entry memo while those
poses stay byte-equal, so a repeated update pays only for the new poses,
the gap and the blend.  ``correct_segment_scalar`` in ``tests/reference_kernels.py``
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


class OldGeometry:
    """The half of the correction of a batch that no keyframe update
    changes, for old keyframe poses ``old_q``/``old_t``: per segment the
    old pose of the closing keyframe relative to the opening one (``q``,
    ``t``), its ``norm`` and its inverse (``inv_q``, ``inv_t``), and per
    relative frame what :meth:`frames` lists, built on its first call."""

    def __init__(self, batch: SegmentBatch, old_q: np.ndarray, old_t: np.ndarray):
        a = batch.index
        self.q, self.t = pose_mul(*pose_inverse(old_q[a], old_t[a]), old_q[a + 1], old_t[a + 1])
        self.norm = vec_norm(self.t)
        self.inv_q, self.inv_t = pose_inverse(self.q, self.t)
        self._frames = None

    @classmethod
    def of(cls, batch: SegmentBatch, updates: KeyframeUpdates) -> "OldGeometry":
        """The geometry of ``batch`` for the old poses of ``updates``, from
        the batch's memo when those poses are byte-equal to the last ones."""
        key = (updates.old_q.tobytes(), updates.old_t.tobytes())
        if batch.memo is None or batch.memo[0] != key:
            batch.memo = key, cls(batch, updates.old_q, updates.old_t)
        return batch.memo[1]

    def frames(self, batch: SegmentBatch) -> tuple[np.ndarray, ...]:
        """``(q_b, t_b, rot_a_inv, d_a, d_a + d_b, timestamp fraction)``."""
        if self._frames is None:
            q, t = batch.rels.q, batch.rels.t
            table = batch.per_frame(np.column_stack((
                self.inv_q, self.inv_t, batch.start, batch.stop - batch.start,
            )))
            q_b, t_b = pose_mul(table[:, 0:4], table[:, 4:7], q, t)  # rel_b_old
            d_a = vec_norm(t)
            fraction = (batch.rels.stamps - table[:, 7]) / table[:, 8]
            self._frames = q_b, t_b, quat_inverse(q), d_a, d_a + vec_norm(t_b), fraction
        return self._frames


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
    updates: KeyframeUpdates,
    scale_squared: bool = False,
) -> KeyframePairs:
    """The :class:`KeyframePairs` of every segment of ``batch`` at once,
    bitwise equal to the per-segment setup of the scalar reference;
    ``updates`` has row ``i`` for keyframe ``i``."""
    old = OldGeometry.of(batch, updates)
    a, kf_q, kf_t = batch.index, updates.new_q, updates.new_t
    new_q, new_t = pose_mul(*pose_inverse(kf_q[a], kf_t[a]), kf_q[a + 1], kf_t[a + 1])
    n_new = vec_norm(new_t)
    degenerate = (old.norm < DEGENERATE_BASELINE) | (n_new < DEGENERATE_BASELINE)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = n_new / old.norm
    if scale_squared:
        s = s * s
    s[degenerate] = 1.0
    return KeyframePairs(old.q, old.t, old.inv_q, old.inv_t, new_q, new_t, s, degenerate)


def correct_segment(
    batch: SegmentBatch,
    updates: KeyframeUpdates,
    scale_squared: bool = False,
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Correct every relative frame of the full segments of ``batch`` in
    one pass.

    ``updates`` has row ``i`` for keyframe ``i``.  Returns the corrected
    poses of ``batch.rels`` relative to each segment's updated opening
    keyframe as (N, 4) quaternions and (N, 3) translations, plus the
    diagnostics columns ``s``, ``degenerate_baseline``, ``alpha_min`` and
    ``alpha_max``, one value per segment.  Each value is bitwise equal to
    the scalar reference on the segment: the per-segment setup is
    :func:`keyframe_pairs`, and the per-frame steps are the array twins of
    its scalar operations.
    """
    pairs = keyframe_pairs(batch, updates, scale_squared)
    q_b, t_b, rot_a_inv, d_a, total, fraction = OldGeometry.of(batch, updates).frames(batch)
    # The per-segment table, repeated once for all its columns.
    table = batch.per_frame(np.column_stack((pairs.new_q, pairs.new_t, pairs.s, pairs.degenerate)))
    # alpha = d_a / (d_a + d_b), or the timestamp fraction on a degenerate
    # baseline or coincident geometry.
    alpha = fraction.copy()
    valid = (table[:, 8] == 0.0) & (total >= DEGENERATE_BASELINE)
    np.divide(d_a, total, out=alpha, where=valid)

    # The two single-keyframe solutions, their gap and the blend, row by row.
    q, t = batch.rels.q, batch.rels.t
    s, new_q, new_t = table[:, 7:8], table[:, 0:4], table[:, 4:7]
    trans_a = s * t
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

