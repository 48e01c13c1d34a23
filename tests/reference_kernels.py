"""Scalar reference kernels: the per-segment, frame-at-a-time forms of the
batched kernels, which the tests compare them against bit for bit.  No
command runs them.  The equations are in the docstrings of
:mod:`posecorrect.correction` and :mod:`posecorrect.baseline`;
:func:`reference_correct` picks the reference of a method by name.  Each
takes a full segment as row ``k`` of a ``SegmentBatch`` (its keyframe
stamps and its rows of ``rels``, :func:`segment_rels`) and the keyframe
updates as rows (``updates[i]`` the ``KeyframeUpdate`` of keyframe
``i``, from a ``KeyframeUpdates`` table or a list).
:func:`segment_trajectory` builds a trajectory of one full segment from
poses, :func:`_orthonormalize` is the one-row form of
``io._kitti_check``, :func:`parse_tum_fields` and :func:`parse_floats`
the one-line forms of ``io.read_tum``'s and ``io.read_kitti``'s
conversion and checks, :func:`format_tum_line` the one-line form of
``io.write_tum``, :func:`bench_segment` the fixture of acceptance
criterion 8, and :func:`frame_errors` the reference of the evaluation
protocol's scoring.

The synthetic generators have their per-frame forms here too: the
``pose_at`` paths of :data:`SCALAR_PATHS` and the frame-at-a-time
:func:`path_world_poses_scalar`, :func:`noisy_fixture_scalar` and
:func:`displaced_estimate_scalar`, which build one ``Pose`` per frame and
return ``(FrameId, Pose)`` pairs, and :func:`project`, the one-point
pinhole projection that a scene's observation table is checked against.
The array generators of ``synth`` and ``fixtures`` are compared against
them bit for bit, draws included (:func:`with_generator_states`).

So are ``liegeom``'s array forms, against the scalar formulas of the next
section (:func:`so3_log_scalar` and the rest), which call no array form:
from ``liegeom`` this module takes only the value types, the scalar forms
that keep their own bodies and the private constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from posecorrect.baseline import QUAT_RENORM_TOL, SINGULARITY_EPS, RotSpace, TransSpace, _guarded_factor
from posecorrect.correction import DEGENERATE_BASELINE
from posecorrect.evaluate import ERROR_COLUMNS, FrameErrors
from posecorrect.io import (
    NON_FINITE,
    QUAT_NORM_TOL,
    REFLECTION,
    ROTATION_DRIFT_TOL,
    TrajectoryParseError,
    _convert_fields,
    _drift_error,
    _quat_norm_error,
)
from posecorrect.fixtures import JITTER_ROT, JITTER_TRANS
from posecorrect.liegeom import _GIMBAL_COS, _SMALL_ANGLE, _SMALL_V_ANGLE
from posecorrect.liegeom import Pose, Rotation, euler_zyx_to, slerp, so3_exp
from posecorrect.synth import (
    KEYFRAME_DT,
    MIN_DEPTH,
    Camera,
    GenerationError,
    SceneSpec,
    SimilarityTransform,
    keyframe_positions,
    path_world_poses,
)
from posecorrect.trajectory import (
    FrameId,
    FrameTable,
    KeyframeUpdate,
    SegmentBatch,
    Trajectory,
    associate,
    from_world_poses,
)


# -- liegeom's scalar formulas, documented at their array forms ------------------


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def rotation_from_matrix_scalar(m) -> Rotation:
    m = np.asarray(m, dtype=float)
    m00, m01, m02 = m[0]
    m10, m11, m12 = m[1]
    m20, m21, m22 = m[2]
    tr = m00 + m11 + m22
    if tr >= m00 and tr >= m11 and tr >= m22:
        s = 2.0 * math.sqrt(1.0 + tr)
        q = (0.25 * s, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s)
    elif m00 >= m11 and m00 >= m22:
        s = 2.0 * math.sqrt(1.0 + m00 - m11 - m22)
        q = ((m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s)
    elif m11 >= m22:
        s = 2.0 * math.sqrt(1.0 + m11 - m00 - m22)
        q = ((m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s)
    else:
        s = 2.0 * math.sqrt(1.0 + m22 - m00 - m11)
        q = ((m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s)
    return Rotation(q)


def rotation_matrix_scalar(r: Rotation) -> np.ndarray:
    w, x, y, z = r.quat
    return np.array([
        [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
        [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
        [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
    ])


def so3_log_scalar(r: Rotation) -> np.ndarray:
    w, x, y, z = r.quat
    s = math.sqrt(x * x + y * y + z * z)
    if s < _SMALL_ANGLE:
        k = 2.0 / w  # relative error O(s^2)
    else:
        k = 2.0 * math.atan2(s, w) / s
    return k * np.array([x, y, z])


def _v_coeffs(angle: float) -> tuple[float, float]:
    # Half-angle forms avoid the 1 - cos cancellation at moderate angles.
    if angle < _SMALL_V_ANGLE:
        a2 = angle * angle
        return 0.5 - a2 / 24.0, 1.0 / 6.0 - a2 / 120.0
    a2 = angle * angle
    s_half = math.sin(0.5 * angle)
    return 2.0 * s_half * s_half / a2, (angle - math.sin(angle)) / (a2 * angle)


def so3_left_jacobian_scalar(omega: np.ndarray) -> np.ndarray:
    angle = math.sqrt(float(omega @ omega))
    c1, c2 = _v_coeffs(angle)
    k = _skew(omega)
    return np.eye(3) + c1 * k + c2 * (k @ k)


def so3_left_jacobian_inv_scalar(omega: np.ndarray) -> np.ndarray:
    angle = math.sqrt(float(omega @ omega))
    if angle < _SMALL_V_ANGLE:
        c = 1.0 / 12.0 + angle * angle / 720.0
    else:
        # (theta/2) * cot(theta/2) stays well conditioned up to pi.
        half = 0.5 * angle
        c = (1.0 - half * math.cos(half) / math.sin(half)) / (angle * angle)
    k = _skew(omega)
    return np.eye(3) - 0.5 * k + c * (k @ k)


def euler_zyx_from_scalar(r: Rotation) -> np.ndarray:
    m = rotation_matrix_scalar(r)
    sp = min(1.0, max(-1.0, -m[2, 0]))
    pitch = math.asin(sp)
    if math.hypot(m[2, 1], m[2, 2]) < _GIMBAL_COS:
        yaw = math.atan2(-m[0, 1], m[1, 1])
        roll = 0.0
    else:
        yaw = math.atan2(m[1, 0], m[0, 0])
        roll = math.atan2(m[2, 1], m[2, 2])
    return np.array([yaw, pitch, roll])


def gimbal_proximity_scalar(r: Rotation) -> bool:
    m = rotation_matrix_scalar(r)
    return math.hypot(m[2, 1], m[2, 2]) < _GIMBAL_COS


def rotation_angle_deg_scalar(r1: Rotation, r2: Rotation) -> float:
    aw, ax, ay, az = r1.quat.tolist()
    bw, bx, by, bz = r2.quat.tolist()
    # r1^-1 * r2, scalar and vector parts; the pairwise grouping cancels
    # exactly for identical inputs.
    w = aw * bw + ax * bx + ay * by + az * bz
    x = (aw * bx - ax * bw) + (az * by - ay * bz)
    y = (aw * by - ay * bw) + (ax * bz - az * bx)
    z = (aw * bz - az * bw) + (ay * bx - ax * by)
    return math.degrees(2.0 * math.atan2(math.hypot(x, math.hypot(y, z)), abs(w)))


@dataclass
class SegmentRecord:
    """The diagnostics of one segment as the scalar references count them;
    its fields are the columns of ``diagnostics.csv``, so a row of the
    table that ``evaluate.correct_trajectory`` returns is
    ``SegmentRecord(*row)``."""

    segment: int
    terminal: bool = False
    s: float = math.nan
    degenerate_baseline: bool = False
    alpha_min: float = math.nan
    alpha_max: float = math.nan
    singular_hits: int = 0
    gimbal_hits: int = 0
    quat_renorm_hits: int = 0


def columns_of(records: list[SegmentRecord]) -> dict:
    """``records`` as the diagnostics columns that a batched kernel returns:
    every field but ``segment`` and ``terminal``, one value per record."""
    return {
        f.name: np.array([getattr(record, f.name) for record in records])
        for f in fields(SegmentRecord)[2:]
    }


def records_of(columns: dict, index) -> list[SegmentRecord]:
    """The diagnostics ``columns`` that a batched kernel returns, as one
    record per segment, numbered by ``index`` (the batch's)."""
    names = list(columns)
    return [
        SegmentRecord(i, **dict(zip(names, values)))
        for i, *values in zip(index.tolist(), *(columns[name].tolist() for name in names))
    ]


def segment_rels(batch: SegmentBatch, k: int) -> FrameTable:
    """The relative frames of full segment ``k`` of ``batch``: its rows of
    ``rels``."""
    stop = int(batch.counts[: k + 1].sum())
    return batch.rels.take(slice(stop - int(batch.counts[k]), stop))


def segment_trajectory(kf_a: Pose, kf_b: Pose, rels, stamps=None) -> Trajectory:
    """Keyframes 0 and 100 at stamps 0 and 1, posed at ``kf_a`` and
    ``kf_b``, and frames 1, 2, ... between them at ``stamps`` (0.1 apart by
    default) with the poses ``rels`` relative to keyframe 0: one full
    segment and an empty terminal one."""
    stamps = stamps or [0.1 * (j + 1) for j in range(len(rels))]
    kf = FrameTable.of([(FrameId(0.0, 0), kf_a), (FrameId(1.0, 100), kf_b)])
    rel = FrameTable.of((FrameId(s, j + 1), pose) for j, (s, pose) in enumerate(zip(stamps, rels)))
    return Trajectory(kf, rel, np.zeros(len(rel), dtype=np.int64))


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


def timestamp_fraction(batch: SegmentBatch, k: int, stamp: float) -> float:
    """Position of ``stamp`` in the time window of full segment ``k``."""
    t_a = float(batch.start[k])
    return (stamp - t_a) / (float(batch.stop[k]) - t_a)


def _alpha(rel_a: Pose, rel_b: Pose, degenerate_baseline: bool, fraction: float) -> float:
    """Interpolation factor ``alpha = d_a / (d_a + d_b)`` of a relative
    frame whose poses relative to the opening and closing keyframes are
    ``rel_a`` and ``rel_b``; a degenerate baseline or coincident geometry
    falls back to its timestamp ``fraction``."""
    if not degenerate_baseline:
        d_a = float(np.linalg.norm(rel_a.translation))
        d_b = float(np.linalg.norm(rel_b.translation))
        total = d_a + d_b
        if total >= DEGENERATE_BASELINE:
            return d_a / total
    return fraction


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
    batch: SegmentBatch, k: int, updates, scale_squared: bool = False
) -> tuple[list[Pose], SegmentRecord]:
    """Correct every relative frame of full segment ``k`` of ``batch``, one
    frame at a time.

    Returns poses relative to the updated opening keyframe plus the
    segment's record: ``s``, the degenerate-baseline flag and the range of
    ``alpha``.  This is the reference that :func:`correct_segment` is
    tested against bit for bit.
    """
    i = int(batch.index[k])
    t_ab_old_inv, t_ab_new, s, degenerate = _segment_setup(updates[i], updates[i + 1], scale_squared)

    corrected = []
    alphas = []
    for fid, rel in segment_rels(batch, k):
        rel_b_old = t_ab_old_inv * rel
        sol_a = condition_from_kf(rel, s)
        sol_b = condition_from_kf(rel_b_old, s)
        gap = fusion_gap(sol_a, sol_b, t_ab_new)
        alpha = _alpha(rel, rel_b_old, degenerate, timestamp_fraction(batch, k, fid.stamp))
        alphas.append(alpha)
        corrected.append(fuse(sol_a, gap, alpha))
    return corrected, SegmentRecord(
        i,
        s=s,
        degenerate_baseline=degenerate,
        alpha_min=min(alphas, default=math.nan),
        alpha_max=max(alphas, default=math.nan),
    )


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
        omega = so3_log_scalar(pose.rotation)
    if ts is TransSpace.XYZ:
        tvec = np.array(pose.translation)
    else:
        tvec = so3_left_jacobian_inv_scalar(omega) @ pose.translation
    if rs is RotSpace.EULER:
        rvec = euler_zyx_from_scalar(pose.rotation)
        if diagnostics is not None and gimbal_proximity_scalar(pose.rotation):
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
        return euler_zyx_to(rvec)
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
    return so3_exp(rvec)


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
        trans = so3_left_jacobian_scalar(so3_log_scalar(rot)) @ tvec
    return Pose(rot, trans)


def _counted_factor(numerator, denominator, raw_division: bool, diagnostics: SegmentRecord):
    """``baseline._guarded_factor``, with the guarded components of
    ``denominator`` counted into ``diagnostics.singular_hits``."""
    diagnostics.singular_hits += int(np.count_nonzero(np.abs(denominator) < SINGULARITY_EPS))
    return _guarded_factor(numerator, denominator, raw_division)


def interp_correct_segment_scalar(
    batch: SegmentBatch,
    k: int,
    updates,
    ts: TransSpace,
    rs: RotSpace,
    raw_division: bool = False,
) -> tuple[list[Pose], SegmentRecord]:
    """Correct every relative frame of full segment ``k`` of ``batch`` in
    vector space, one frame at a time.

    Returns poses relative to the updated opening keyframe, plus the
    segment's record with its singular/gimbal/renormalization counts.  This
    is the reference that :func:`interp_correct_segment` is tested against
    bit for bit.
    """
    i = int(batch.index[k])
    upd_a, upd_b = updates[i], updates[i + 1]
    diag = SegmentRecord(i)
    t_ab_old = upd_a.old_pose.inverse() * upd_b.old_pose
    t_ab_new = upd_a.new_pose.inverse() * upd_b.new_pose
    tv_old, rv_old, om_old = vectorize(t_ab_old, ts, rs, diag)
    tv_new, rv_new, om_new = vectorize(t_ab_new, ts, rs, diag)
    dt = tv_new - tv_old
    dr = rv_new - rv_old
    if ts is TransSpace.SE3_V:
        dom = om_new - om_old

    corrected = []
    for _, rel in segment_rels(batch, k):
        tv, rv, om = vectorize(rel, ts, rs, diag)
        tv_star = tv + dt * _counted_factor(tv, tv_old, raw_division, diag)
        rv_star = rv + dr * _counted_factor(rv, rv_old, raw_division, diag)
        rot = _rotation_from_vec(rv_star, rs, diag)
        if ts is TransSpace.XYZ:
            trans = tv_star
        else:
            # v maps back through the left Jacobian of the interpolated
            # rotation part of the same tangent, keeping the translation
            # result independent of the rotation-space choice.
            om_star = om + dom * _counted_factor(om, om_old, raw_division, diag)
            trans = so3_left_jacobian_scalar(om_star) @ tv_star
        corrected.append(Pose(rot, trans))
    return corrected, diag


def reference_correct(batch: SegmentBatch, k: int, updates, cfg):
    """The scalar reference of the method of ``evaluate.METHODS`` that the
    ``MethodConfig`` ``cfg`` names, on full segment ``k`` of ``batch``: its
    corrected poses relative to the updated opening keyframe and its
    record.  ``no-correction`` passes the stored relative poses through."""
    if cfg.name == "no-correction":
        return [pose for _, pose in segment_rels(batch, k)], SegmentRecord(int(batch.index[k]))
    if cfg.name == "proposed":
        return correct_segment_scalar(batch, k, updates, cfg.scale_squared)
    ts, rs = cfg.spaces()
    return interp_correct_segment_scalar(batch, k, updates, ts, rs, cfg.raw_division)


def _orthonormalize(m: np.ndarray, path, line: int) -> np.ndarray:
    """One 3x3 rotation block as read: rejected when ``m^T m`` departs from
    the identity by more than :data:`ROTATION_DRIFT_TOL` or when it is a
    reflection, as is when within 1e-12 of the identity, projected onto
    SO(3) by SVD otherwise.  :func:`_kitti_check` is its array twin."""
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries: drift inf or nan
        drift = float(np.max(np.abs(m.T @ m - np.eye(3))))
    if not drift <= ROTATION_DRIFT_TOL:
        raise TrajectoryParseError(path, line, _drift_error(drift))
    if np.linalg.det(m) < 0.0:
        raise TrajectoryParseError(path, line, REFLECTION)
    if drift <= 1e-12:
        return m
    u, _, vt = np.linalg.svd(m)
    return u @ vt


def parse_floats(fields: list[str], path, line: int, count: int, layout: str = "") -> list[float]:
    """One line's ``fields`` as ``count`` finite floats, raising as the
    readers do."""
    vals = _convert_fields(fields, path, line, count, layout)
    if not all(math.isfinite(v) for v in vals):
        raise TrajectoryParseError(path, line, NON_FINITE)
    return vals


def parse_tum_fields(fields: list[str], path, line: int) -> tuple[float, Pose]:
    """One TUM line's stamp and pose: the one-line form of ``io.read_tum``."""
    stamp, tx, ty, tz, qx, qy, qz, qw = parse_floats(fields, path, line, 8, " (stamp t q)")
    norm = float(np.linalg.norm([qw, qx, qy, qz]))
    if abs(norm - 1.0) > QUAT_NORM_TOL:
        raise TrajectoryParseError(path, line, _quat_norm_error(norm))
    return stamp, Pose(Rotation((qw, qx, qy, qz)), (tx, ty, tz))


def format_tum_line(stamp: float, pose: Pose) -> str:
    """One TUM line, ``repr`` of each value: the one-line form of
    ``io.write_tum``."""
    t = pose.translation
    w, x, y, z = pose.rotation.quat
    vals = (stamp, t[0], t[1], t[2], x, y, z, w)
    return " ".join(repr(float(v)) for v in vals)


def bench_segment() -> tuple[SegmentBatch, list[KeyframeUpdate]]:
    """A batch of one 3-relative-frame full segment and a non-trivial update
    of its two keyframes: the fixture that acceptance criterion 8 times the
    scalar correction on."""
    spec = SceneSpec(shape="forward", n_keyframes=2, rels_per_segment=3, seed=3)
    frames = path_world_poses(spec)
    traj = from_world_poses(frames, keyframe_positions(spec))
    kf_a, kf_b = (kf.world_pose for kf in traj.keyframes)
    sim = SimilarityTransform(
        so3_exp((0.01, -0.02, 0.03)), np.array([0.4, -0.2, 0.1]), 1.05
    )
    nudge = Pose(so3_exp((0.0, 1e-3, 0.0)), (5e-3, -2e-3, 1e-3))
    updates = [
        KeyframeUpdate(0, kf_a, sim.apply_pose(kf_a)),
        KeyframeUpdate(1, kf_b, nudge * sim.apply_pose(kf_b)),
    ]
    return traj.full_segments(), updates


def frame_errors(est, gt) -> FrameErrors:
    """The errors of every row of ``est`` (a table or ``(FrameId, Pose)``
    pairs) against the nearest-stamp row of ``gt``, by ``ERROR_COLUMNS``:
    the long way that ``SnapProtocol``'s scoring is compared against."""
    est, gt = FrameTable.of(est), FrameTable.of(gt)
    rows = associate(est.stamps, gt)
    return FrameErrors(est.stamps, est.indices, ERROR_COLUMNS["t"](est.t, gt.t[rows]),
                       ERROR_COLUMNS["q"](est.q, gt.q[rows]))


# -- synthetic generators, one frame at a time -------------------------------------


def _path_forward(spec: SceneSpec, rng: np.random.Generator) -> Callable[[float], Pose]:
    speed = 1.2
    ax = 2e-4 * (1.0 + 0.2 * rng.uniform())
    ay = 2e-4 * (1.0 + 0.2 * rng.uniform())
    phase_y = rng.uniform(0.0, 2.0 * math.pi)

    def pose_at(t: float) -> Pose:
        pos = (
            ax * math.sin(math.pi * t / KEYFRAME_DT + 0.5 * math.pi),
            ay * math.sin(2.0 * math.pi * t / (KEYFRAME_DT * 1.003) + phase_y),
            speed * t,
        )
        yaw = 2e-3 * math.sin(2.0 * math.pi * t / (3.0 * KEYFRAME_DT))
        return Pose(euler_zyx_to((yaw, 0.0, 0.0)), pos)

    return pose_at


def _path_mav(spec: SceneSpec, rng: np.random.Generator) -> Callable[[float], Pose]:
    ph = rng.uniform(0.0, 2.0 * math.pi, size=6)

    def pose_at(t: float) -> Pose:
        pos = (
            0.8 * math.sin(2.0 * math.pi * t / 8.0 + ph[0]),
            0.5 * math.sin(2.0 * math.pi * t / 6.5 + ph[1]),
            0.7 * t + 0.3 * math.sin(2.0 * math.pi * t / 5.0 + ph[2]),
        )
        angles = (
            0.12 * math.sin(2.0 * math.pi * t / 7.0 + ph[3]),
            0.08 * math.sin(2.0 * math.pi * t / 5.5 + ph[4]),
            0.06 * math.sin(2.0 * math.pi * t / 6.0 + ph[5]),
        )
        return Pose(euler_zyx_to(angles), pos)

    return pose_at


def _path_line(spec: SceneSpec, rng: np.random.Generator) -> Callable[[float], Pose]:
    speed = 1.0

    def pose_at(t: float) -> Pose:
        return Pose(Rotation.identity(), (0.0, 0.0, speed * t))

    return pose_at


def _path_rotonly(spec: SceneSpec, rng: np.random.Generator) -> Callable[[float], Pose]:
    def pose_at(t: float) -> Pose:
        yaw = 0.25 * math.sin(2.0 * math.pi * t / (4.0 * KEYFRAME_DT))
        return Pose(euler_zyx_to((yaw, 0.0, 0.0)), (0.0, 0.0, 0.0))

    return pose_at


SCALAR_PATHS: dict[str, Callable[[SceneSpec, np.random.Generator], Callable[[float], Pose]]] = {
    "forward": _path_forward,
    "mav": _path_mav,
    "line": _path_line,
    "rotonly": _path_rotonly,
}


def frame_grid_scalar(n_keyframes: int, rels_per_segment: int) -> tuple[list[float], list[int]]:
    dt = KEYFRAME_DT / (rels_per_segment + 1)
    n_frames = n_keyframes + (n_keyframes - 1) * rels_per_segment
    stamps = [i * dt for i in range(n_frames)]
    return stamps, [i * (rels_per_segment + 1) for i in range(n_keyframes)]


def path_world_poses_scalar(spec: SceneSpec) -> list[tuple[FrameId, Pose]]:
    """World poses of every frame of the spec's path, keyframes included."""
    if spec.shape not in SCALAR_PATHS:
        raise GenerationError(f"unknown path shape {spec.shape!r}; choose from {sorted(SCALAR_PATHS)}")
    rng = np.random.default_rng(spec.seed)
    pose_at = SCALAR_PATHS[spec.shape](spec, rng)
    stamps, _ = frame_grid_scalar(spec.n_keyframes, spec.rels_per_segment)
    return [(FrameId(t, i), pose_at(t)) for i, t in enumerate(stamps)]


def with_generator_states(monkeypatch, call):
    """``call()``'s result and the final ``bit_generator.state`` of each
    generator that ``np.random.default_rng`` made during it."""
    made, default_rng = [], np.random.default_rng

    def recording(*args, **kwargs):
        made.append(default_rng(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    try:
        result = call()
    finally:
        monkeypatch.setattr(np.random, "default_rng", default_rng)
    return result, [g.bit_generator.state for g in made]


def project(camera: Camera, world_to_cam: Pose, point) -> Optional[tuple[np.ndarray, float]]:
    """Pinhole projection of one world point; None when behind the camera.
    The point is applied as a one-row stack, the ``Rotation.apply`` form
    that scenes are projected with."""
    p = world_to_cam.apply(np.asarray(point, dtype=float).reshape(1, 3))[0]
    depth = float(p[2])
    if depth <= MIN_DEPTH:
        return None
    pixel = np.array([camera.fx * p[0] / depth + camera.cx, camera.fy * p[1] / depth + camera.cy])
    return pixel, depth


def _smooth_field(rng: np.random.Generator, amplitude: float, t_total: float):
    """Random smooth scalar field: two low-frequency sinusoids."""
    amps = amplitude * rng.uniform(0.5, 1.0, size=2)
    periods = np.array([t_total / rng.uniform(0.8, 1.3), t_total / rng.uniform(1.8, 2.6)])
    phases = rng.uniform(0.0, 2.0 * math.pi, size=2)

    def field(t: float) -> float:
        return float(
            amps[0] * math.sin(2.0 * math.pi * t / periods[0] + phases[0])
            + amps[1] * math.sin(2.0 * math.pi * t / periods[1] + phases[1])
        )

    return field


def _jitter(rng: np.random.Generator) -> Pose:
    """Per-frame SE(3) measurement jitter of a relative frame."""
    return Pose(
        so3_exp(rng.normal(0.0, JITTER_ROT, size=3)),
        rng.normal(0.0, JITTER_TRANS, size=3),
    )


def noisy_fixture_scalar(seed: int):
    """``fixtures.noisy_fixture``, one ``Pose`` per frame: the trajectory
    and the ground-truth pairs."""
    rng = np.random.default_rng(seed)
    stamps, kf_positions = frame_grid_scalar(n_keyframes=11, rels_per_segment=9)
    t_total = stamps[-1]
    speed = 1.0

    ph = rng.uniform(0.0, 2.0 * math.pi, size=5)

    def base_pose(t: float) -> Pose:
        pos = (
            5e-4 * math.sin(2.0 * math.pi * t / 3.3 + ph[0]),
            4e-4 * math.sin(2.0 * math.pi * t / 2.6 + ph[1]),
            speed * t,
        )
        angles = (
            0.020 * math.sin(2.0 * math.pi * t / 6.3 + ph[2]),
            0.012 * math.sin(2.0 * math.pi * t / 4.7 + ph[3]),
            0.008 * math.sin(2.0 * math.pi * t / 5.9 + ph[4]),
        )
        return Pose(euler_zyx_to(angles), pos)

    pos_f = [  # lateral x, lateral y, forward z
        _smooth_field(rng, 0.012, t_total),
        _smooth_field(rng, 0.012, t_total),
        _smooth_field(rng, 0.006, t_total),
    ]
    rot_f = [_smooth_field(rng, 0.008, t_total) for _ in range(3)]

    def gt_pose(t: float) -> Pose:
        base = base_pose(t)
        offset = np.array([f(t) for f in pos_f])
        return Pose(so3_exp([f(t) for f in rot_f]) * base.rotation,
                    base.translation + offset)

    gt_frames = [(FrameId(t, i), gt_pose(t)) for i, t in enumerate(stamps)]
    kf_set = set(kf_positions)
    est_frames = []
    for i, t in enumerate(stamps):
        est = base_pose(t)
        if i not in kf_set:
            est = est * _jitter(rng)
        est_frames.append((FrameId(t, i), est))
    return from_world_poses(est_frames, kf_positions), gt_frames


def displaced_estimate_scalar(
    frames, kf_positions, seed: int, magnitude: float = 1.0
) -> list[tuple[FrameId, Pose]]:
    """``fixtures.displaced_estimate``, one ``Pose`` per frame."""
    rng = np.random.default_rng(seed + 77)
    t_total = frames[-1][0].stamp - frames[0][0].stamp
    pos_f = [_smooth_field(rng, 0.01 * magnitude, t_total) for _ in range(3)]
    rot_f = [_smooth_field(rng, 0.004 * magnitude, t_total) for _ in range(3)]
    kf_set = set(kf_positions)
    out = []
    for i, (fid, pose) in enumerate(frames):
        t = fid.stamp
        est = Pose(
            so3_exp([f(t) for f in rot_f]) * pose.rotation,
            pose.translation + np.array([f(t) for f in pos_f]),
        )
        if i not in kf_set:
            est = est * _jitter(rng)
        out.append((fid, est))
    return out
