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
* :func:`bench_segment` - a small full segment, the fixture of acceptance
  criterion 8 (the scalar correction's latency).
"""
from __future__ import annotations

import math

import numpy as np

from .liegeom import Pose, Rotation, euler_zyx_to, so3_exp
from .synth import (
    KEYFRAME_DT,
    MapUpdate,
    Scene,
    SceneSpec,
    SimilarityTransform,
    apply_similarity_update,
    frame_grid,
    generate_scene,
    keyframe_positions,
    path_world_poses,
)
from .trajectory import (
    FrameId,
    KeyframeUpdate,
    Segment,
    Trajectory,
    from_world_poses,
)

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
        for i, t in enumerate(stamps)
    ]
    gt_frames = [
        (fid, Pose(pose.rotation, pose.translation + gt_offset(fid.stamp)))
        for fid, pose in est_frames
    ]
    return from_world_poses(est_frames, kf_positions), gt_frames


# -- drifted noisy fixture -------------------------------------------------------


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


def noisy_fixture(seed: int) -> tuple[Trajectory, list[tuple[FrameId, Pose]]]:
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
    stamps, kf_positions = frame_grid(n_keyframes=11, rels_per_segment=9)
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


def displaced_estimate(
    frames, kf_positions, seed: int, magnitude: float = 1.0
) -> list[tuple[FrameId, Pose]]:
    """Displace a ground-truth frame list into a plausible estimate: smooth
    SE(3) offset fields (about a centimeter laterally at magnitude 1) plus
    per-frame jitter on the non-keyframes."""
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


# -- timing fixture ----------------------------------------------------------------


def bench_segment() -> tuple[Segment, KeyframeUpdate, KeyframeUpdate]:
    """A 3-relative-frame full segment with a non-trivial update: the
    fixture that acceptance criterion 8 times the scalar correction on."""
    spec = SceneSpec(shape="forward", n_keyframes=2, rels_per_segment=3, seed=3)
    frames = path_world_poses(spec)
    traj = from_world_poses(frames, keyframe_positions(spec))
    seg = traj.segments[0]
    sim = SimilarityTransform(
        so3_exp((0.01, -0.02, 0.03)), np.array([0.4, -0.2, 0.1]), 1.05
    )
    nudge = Pose(so3_exp((0.0, 1e-3, 0.0)), (5e-3, -2e-3, 1e-3))
    upd_a = KeyframeUpdate(0, seg.kf_a.world_pose, sim.apply_pose(seg.kf_a.world_pose))
    upd_b = KeyframeUpdate(
        1, seg.kf_b.world_pose, nudge * sim.apply_pose(seg.kf_b.world_pose)
    )
    return seg, upd_a, upd_b
