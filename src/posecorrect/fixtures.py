"""Deterministic evaluation fixtures.

These builders produce (estimated trajectory, ground-truth poses) pairs for
the evaluation protocol:

* :func:`singular_fixture` - a forward-dominant vehicle run whose keyframe
  updates carry a 1 cm lateral component while one segment's pre-update
  lateral change is a fraction of a micrometer.  Element-wise interpolation
  divides by that change and explodes; the constraint-based correction does
  not divide and stays tight.
* :func:`noisy_fixture` - seeded forward-style runs warped by a smooth
  scale/rotation/translation drift with per-frame jitter on the relative
  frames: the generic "correct a drifted estimate onto ground truth"
  regime, deliberately not a similarity.
* :func:`similarity_case` - synthetic scene plus a global similarity
  update, the exactness oracle.

:func:`noisy_fixture` and :func:`displaced_estimate` compute on (N, 4)
quaternion and (N, 3) translation arrays and return ``FrameTable`` rows.
Their per-frame forms, and ``bench_segment``, the small full segment that
acceptance criterion 8 times the scalar correction on, are in
``tests/reference_kernels.py``.
"""
from __future__ import annotations

import math

import numpy as np

from .liegeom import Pose, Rotation, euler_zyx_to_rows, pose_mul, quat_mul, so3_exp_rows
from .synth import (
    KEYFRAME_DT,
    MapUpdate,
    Scene,
    SceneSpec,
    SimilarityTransform,
    apply_similarity_update,
    frame_grid,
    generate_scene,
)
from .trajectory import FrameId, FrameTable, Trajectory, from_world_poses

JITTER_ROT = 0.0014   # rad per axis: so(3) jitter of a relative frame
JITTER_TRANS = 0.002  # m per axis: translation jitter of a relative frame


# -- singularity-contrast fixture ----------------------------------------------


def singular_fixture() -> tuple[Trajectory, list[tuple[FrameId, Pose]]]:
    """Forward-dominant estimate with a 1 cm lateral keyframe update.

    The estimated path runs along z at 1.2 m/s with sub-millimeter lateral
    structure: an x cosine locked to twice the keyframe spacing and a y
    bump centered just off one segment midpoint, so that segment's lateral
    y change is ~1e-6 m (small, nonzero, and above the division guard).
    The ground truth adds a centimeter-scale x cosine (so the keyframes
    alternate +-1 cm laterally) and a millimeter-scale y bump.  Rotations
    are identity so the axes stay uncoupled.
    """
    stamps, kf_positions = frame_grid(n_keyframes=11, rels_per_segment=9)
    speed = 1.2
    ax_est, ax_gt = 2e-4, 1e-2
    ay_est, ay_gt = 5e-4, 1.5e-3

    def est_position(t: float) -> np.ndarray:
        return np.array([
            ax_est * math.cos(math.pi * t / KEYFRAME_DT),
            ay_est * math.exp(-((t - 4.497) ** 2) / (2.0 * 0.18**2)),
            speed * t,
        ])

    def gt_offset(t: float) -> np.ndarray:
        # The z component vanishes at keyframes: it is invisible to the
        # updates and uncorrectable by any method, a shared intra-segment
        # error floor that peaks exactly where the lateral chord residual
        # crosses zero (keeps per-frame error profiles flat and medians
        # realistic).
        return np.array([
            ax_gt * math.cos(math.pi * t / KEYFRAME_DT),
            ay_gt * math.exp(-((t - 4.3) ** 2) / (2.0 * 0.25**2)),
            7.5e-4 * (1.0 - math.cos(2.0 * math.pi * t / KEYFRAME_DT)),
        ])

    est_frames = [
        (FrameId(t, i), Pose(Rotation.identity(), est_position(t)))
        for i, t in enumerate(stamps.tolist())
    ]
    gt_frames = [
        (fid, Pose(pose.rotation, pose.translation + gt_offset(fid.stamp)))
        for fid, pose in est_frames
    ]
    return from_world_poses(est_frames, kf_positions), gt_frames


# -- drifted noisy fixture -------------------------------------------------------


def _smooth_fields(rng: np.random.Generator, amplitudes, t_total: float, t: np.ndarray):
    """Random smooth scalar fields at the stamps ``t``, one column per
    amplitude: two low-frequency sinusoids each."""
    columns = []
    for amplitude in amplitudes:
        amps = amplitude * rng.uniform(0.5, 1.0, size=2)
        periods = np.array([t_total / rng.uniform(0.8, 1.3), t_total / rng.uniform(1.8, 2.6)])
        phases = rng.uniform(0.0, 2.0 * math.pi, size=2)
        columns.append(
            amps[0] * np.sin(2.0 * math.pi * t / periods[0] + phases[0])
            + amps[1] * np.sin(2.0 * math.pi * t / periods[1] + phases[1])
        )
    return np.column_stack(columns)


def _jittered(q, t, kf_positions, rng: np.random.Generator):
    """``(q, t)`` with every row but those at ``kf_positions`` composed, in
    place, with SE(3) measurement jitter: one row of so(3) and translation
    noise per jittered frame, drawn in frame order."""
    rel = np.ones(len(q), dtype=bool)
    rel[np.asarray(kf_positions, dtype=np.int64)] = False
    jitter = rng.normal(0.0, (JITTER_ROT,) * 3 + (JITTER_TRANS,) * 3, size=(rel.sum(), 6))
    q[rel], t[rel] = pose_mul(q[rel], t[rel], so3_exp_rows(jitter[:, :3]), jitter[:, 3:])
    return q, t


def noisy_fixture(seed: int) -> tuple[Trajectory, FrameTable]:
    """Seeded non-similarity fixture with measurement jitter.

    The estimate is a forward-style run (sub-millimeter lateral structure,
    small three-axis attitude wobble) whose relative frames carry
    independent SE(3) jitter.  The ground truth displaces it by seeded
    smooth per-axis position fields (centimeter-scale laterally) and a
    smooth rotation field, so the keyframe updates are centimeter/
    sub-degree scale and deliberately not a similarity.  The tiny lateral
    inter-keyframe components of the estimate become the divisors of
    element-wise interpolation, which turns the jitter into amplified
    output noise; the constraint-based correction has no such division.
    """
    rng = np.random.default_rng(seed)
    t, kf_positions = frame_grid(n_keyframes=11, rels_per_segment=9)
    t_total = t[-1]
    speed = 1.0

    ph = rng.uniform(0.0, 2.0 * math.pi, size=5)
    base_t = np.column_stack((
        5e-4 * np.sin(2.0 * math.pi * t / 3.3 + ph[0]),
        4e-4 * np.sin(2.0 * math.pi * t / 2.6 + ph[1]),
        speed * t,
    ))
    base_q = euler_zyx_to_rows(np.column_stack((
        0.020 * np.sin(2.0 * math.pi * t / 6.3 + ph[2]),
        0.012 * np.sin(2.0 * math.pi * t / 4.7 + ph[3]),
        0.008 * np.sin(2.0 * math.pi * t / 5.9 + ph[4]),
    )))

    offset = _smooth_fields(rng, (0.012, 0.012, 0.006), t_total, t)  # lateral x, y, forward z
    rotvec = _smooth_fields(rng, (0.008,) * 3, t_total, t)
    indices = np.arange(len(t))
    gt = FrameTable(t, indices, quat_mul(so3_exp_rows(rotvec), base_q), base_t + offset)
    # The estimate is the base path, jittered in place after gt is built.
    est_q, est_t = _jittered(base_q, base_t, kf_positions, rng)
    return from_world_poses(FrameTable(t, indices, est_q, est_t), kf_positions), gt


def displaced_estimate(frames, kf_positions, seed: int, magnitude: float = 1.0) -> FrameTable:
    """Displace ground-truth frames (a :class:`FrameTable` or ``(FrameId,
    Pose)`` pairs) into a plausible estimate: smooth SE(3) offset fields
    (about a centimeter laterally at magnitude 1) plus per-frame jitter on
    the frames that ``kf_positions`` (positions in ``frames``) leaves out."""
    frames = FrameTable.of(frames)
    rng = np.random.default_rng(seed + 77)
    t = frames.stamps
    t_total = t[-1] - t[0]
    offset = _smooth_fields(rng, (0.01 * magnitude,) * 3, t_total, t)
    rotvec = _smooth_fields(rng, (0.004 * magnitude,) * 3, t_total, t)
    q = quat_mul(so3_exp_rows(rotvec), frames.q)
    q, pos = _jittered(q, frames.t + offset, kf_positions, rng)
    return FrameTable(t, frames.indices, q, pos)


# -- similarity exactness fixture -------------------------------------------------


SIMILARITY_SHAPES = ("forward", "mav", "line")
SIMILARITY_SCALES = (0.5, 1.0, 2.0)


def similarity_case(
    case: int,
) -> tuple[Scene, MapUpdate, list[tuple[FrameId, Pose]]]:
    """Scene, similarity map update and the transformed GT world poses.

    ``case`` cycles through the shape and scale libraries with its own
    random rigid part, giving a deterministic family of exactness cases.
    """
    shape = SIMILARITY_SHAPES[case % len(SIMILARITY_SHAPES)]
    scale = SIMILARITY_SCALES[(case // len(SIMILARITY_SHAPES)) % len(SIMILARITY_SCALES)]
    spec = SceneSpec(
        shape=shape, n_keyframes=6, rels_per_segment=4, n_landmarks=120, seed=1000 + case
    )
    scene = generate_scene(spec)
    sim = SimilarityTransform.random(np.random.default_rng(2000 + case), scale=scale)
    update = apply_similarity_update(scene, sim)
    target = [(fid, sim.apply_pose(pose)) for fid, pose in scene.gt_world_poses()]
    return scene, update, target
