"""Synthetic scenes: landmarks, pinhole projections and update models.

A scene bundles a keyframe trajectory, world landmarks and the pixel/depth
observations of those landmarks from every frame, held as arrays: the
landmarks as an (L, 3) array whose row is the landmark id, and the
observations as one :class:`Observations` table of frame indices,
landmark ids, (M, 2) pixels and (M,) depths.  Zero-noise scenes
reproject exactly, which makes them the oracle for the correction's
measurement-preservation property: a global similarity update rescales all
depths uniformly and leaves every pixel untouched, so the corrected poses
must reproject the updated landmarks onto the original measurements.

:func:`generate_scene` inverts every frame pose once, finds which
landmarks each frame sees in one array pass over blocks of frames, and
projects only the landmarks that a top-up round adds.  The update models
return a ``KeyframeUpdates`` table, and :func:`reprojection_rms` scores a
``FrameTable``.  The scalar projection that the tests compare the
observation table against, observation by observation, is in
``tests/reference_kernels.py``.

Path library: ``forward`` (vehicle-like, motion almost entirely along the
camera axis - the singular regime for element-wise interpolation), ``mav``
(smooth 6-DoF wandering), ``line`` (exact 1-D translation) and ``rotonly``
(rotation in place, the zero-baseline regime).  A path maps the stamp
array to (N, 4) quaternions and (N, 3) translations, and
:func:`path_world_poses` returns a ``FrameTable``; the per-frame forms
that the tests compare them against are in ``tests/reference_kernels.py``.

Scene container format (line oriented, '#' comments allowed)::

    [camera]
    fx fy cx cy width height
    [poses]           # TUM fields, one line per frame, file order = index
    stamp tx ty tz qx qy qz qw
    [keyframes]       # frame indices (into [poses]) that are keyframes
    [landmarks]       # id x y z
    [observations]    # frame_index landmark_id u v depth

Each section is one :func:`~posecorrect.floatfmt.write_columns` call: floats
as ``repr`` and integers as ``str``, so serialization is byte-deterministic.
The file is written as bytes, so its lines end with ``\\n`` on every
platform.  The package writes this container and ships no reader for it:
no command reads a scene back.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import io as trajio
from .floatfmt import write_columns
from .liegeom import (
    Pose,
    Rotation,
    euler_zyx_to_rows,
    pose_inverse,
    pose_mul,
    quat_mul,
    quat_rotate,
    so3_exp_rows,
)
from .trajectory import FrameTable, KeyframeUpdates, Trajectory, from_world_poses, world_poses

MIN_DEPTH = 1e-6          # meters; at or below this a point is behind the camera
MIN_SHARED_LANDMARKS = 8  # required common landmarks per adjacent frame pair
DEPTH_BAND = (2.5, 25.0)  # sampling band for generated landmarks, meters
PIXEL_MARGIN = 40.0       # sampling margin inside the image, pixels
KEYFRAME_DT = 1.0         # seconds between consecutive keyframes
PROJECTION_BLOCK = 1 << 18  # frame-landmark pairs projected at once; bounds the temporaries

# A path: stamps (N,) -> canonical quaternions (N, 4), translations (N, 3).
Path = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


class GenerationError(RuntimeError):
    """The requested scene cannot satisfy its visibility requirements."""


@dataclass(frozen=True)
class Camera:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int = 640
    height: int = 480

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


DEFAULT_CAMERA = Camera(fx=500.0, fy=500.0, cx=320.0, cy=240.0)


@dataclass(frozen=True)
class SimilarityTransform:
    """Global map update ``p -> scale * R @ p + t``."""

    rotation: Rotation
    translation: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0.0:
            raise ValueError("similarity scale must be positive")
        t = np.array(self.translation, dtype=float).reshape(3)
        t.setflags(write=False)
        object.__setattr__(self, "translation", t)

    @classmethod
    def random(cls, rng: np.random.Generator, scale: float = 1.0) -> "SimilarityTransform":
        return cls(Rotation.random(rng), rng.uniform(-4.0, 4.0, size=3), scale)

    def apply_points(self, points: np.ndarray) -> np.ndarray:
        return self.scale * self.rotation.apply(points) + self.translation

    def apply_pose(self, world_pose: Pose) -> Pose:
        return Pose(
            self.rotation * world_pose.rotation,
            self.apply_points(world_pose.translation),
        )

    def apply_rows(self, q: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`apply_pose` of every pose row ``(q, t)``, on the arrays."""
        rotation = np.broadcast_to(self.rotation.quat, q.shape)
        return quat_mul(rotation, q), self.scale * quat_rotate(rotation, t) + self.translation


@dataclass(frozen=True)
class MapUpdate:
    """A back-end map refinement: keyframe pose updates plus the moved
    landmarks, an (L, 3) array."""

    keyframe_updates: KeyframeUpdates
    landmarks: np.ndarray


@dataclass(frozen=True)
class SceneSpec:
    shape: str = "forward"
    n_keyframes: int = 8
    rels_per_segment: int = 4
    n_landmarks: int = 150
    pixel_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # Compared, not converted: float() of an integer overflows past 1e308.
        # numpy counts and indexes sizes in int64; a seed may be any size.
        for name, low, high in (("n_keyframes", 2, 2**63), ("rels_per_segment", 0, 2**63),
                                ("n_landmarks", 1, 2**63), ("pixel_noise", 0, math.inf),
                                ("seed", 0, math.inf)):
            value = getattr(self, name)
            if not low <= value < high:
                raise GenerationError(f"{name} must be >= {low} and < {high}, got {value!r}")


@dataclass(frozen=True, eq=False)
class Observations:
    """Observations as rows, ordered by frame, then landmark: the index of
    the observing frame ``frame_indices`` (M,), ``landmark_ids`` (M,),
    ``pixels`` (M, 2) and ``depths`` (M,)."""

    frame_indices: np.ndarray
    landmark_ids: np.ndarray
    pixels: np.ndarray
    depths: np.ndarray


@dataclass(frozen=True)
class Scene:
    """A trajectory, its world landmarks as an (L, 3) array whose row is
    the landmark id, and their observations."""

    camera: Camera
    trajectory: Trajectory
    landmarks: np.ndarray
    observations: Observations

    def gt_world_poses(self) -> FrameTable:
        return world_poses(self.trajectory)


# -- projection ---------------------------------------------------------------


def unproject(camera: Camera, pixels: np.ndarray, depths: np.ndarray) -> np.ndarray:
    """Camera-frame points (N, 3) of pixels (N, 2) at known depths (N,)."""
    rays = (pixels - (camera.cx, camera.cy)) / (camera.fx, camera.fy)
    return depths[:, None] * np.column_stack((rays, np.ones(len(depths))))


def project_many(
    camera: Camera, q: np.ndarray, t: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pinhole projection of world points through world-to-camera poses,
    row by row, with ``q`` (..., 4), ``t`` (..., 3) and ``points`` (..., 3)
    broadcast: (pixels (..., 2), depths (...), in-front mask (...)).

    The rotation is ``Rotation.apply``'s form for a stack of points (two
    cross products), whose bits ``simulate``'s files hold."""
    u = q[..., 1:]
    uv = np.cross(u, points)
    p = points + 2.0 * (q[..., :1] * uv + np.cross(u, uv)) + t
    depths = p[..., 2]
    front = depths > MIN_DEPTH
    safe = np.where(front, depths, 1.0)[..., None]
    pixels = (camera.fx, camera.fy) * p[..., :2] / safe + (camera.cx, camera.cy)
    return pixels, depths, front


def _in_bounds(camera: Camera, pixels: np.ndarray) -> np.ndarray:
    return ((pixels >= 0.0) & (pixels < (camera.width, camera.height))).all(axis=-1)


# -- path library -------------------------------------------------------------


def _path_forward(spec: SceneSpec, rng: np.random.Generator) -> Path:
    speed = 1.2
    ax = 2e-4 * (1.0 + 0.2 * rng.uniform())
    ay = 2e-4 * (1.0 + 0.2 * rng.uniform())
    phase_y = rng.uniform(0.0, 2.0 * math.pi)

    def path(t: np.ndarray):
        pos = np.column_stack((
            ax * np.sin(math.pi * t / KEYFRAME_DT + 0.5 * math.pi),
            ay * np.sin(2.0 * math.pi * t / (KEYFRAME_DT * 1.003) + phase_y),
            speed * t,
        ))
        yaw = 2e-3 * np.sin(2.0 * math.pi * t / (3.0 * KEYFRAME_DT))
        return euler_zyx_to_rows(np.column_stack((yaw, np.zeros((len(t), 2))))), pos

    return path


def _path_mav(spec: SceneSpec, rng: np.random.Generator) -> Path:
    ph = rng.uniform(0.0, 2.0 * math.pi, size=6)

    def path(t: np.ndarray):
        pos = np.column_stack((
            0.8 * np.sin(2.0 * math.pi * t / 8.0 + ph[0]),
            0.5 * np.sin(2.0 * math.pi * t / 6.5 + ph[1]),
            0.7 * t + 0.3 * np.sin(2.0 * math.pi * t / 5.0 + ph[2]),
        ))
        angles = np.column_stack((
            0.12 * np.sin(2.0 * math.pi * t / 7.0 + ph[3]),
            0.08 * np.sin(2.0 * math.pi * t / 5.5 + ph[4]),
            0.06 * np.sin(2.0 * math.pi * t / 6.0 + ph[5]),
        ))
        return euler_zyx_to_rows(angles), pos

    return path


def _path_line(spec: SceneSpec, rng: np.random.Generator) -> Path:
    speed = 1.0

    def path(t: np.ndarray):
        pos = np.zeros((len(t), 3))
        pos[:, 2] = speed * t
        return np.tile((1.0, 0.0, 0.0, 0.0), (len(t), 1)), pos

    return path


def _path_rotonly(spec: SceneSpec, rng: np.random.Generator) -> Path:
    def path(t: np.ndarray):
        yaw = 0.25 * np.sin(2.0 * math.pi * t / (4.0 * KEYFRAME_DT))
        angles = np.column_stack((yaw, np.zeros((len(t), 2))))
        return euler_zyx_to_rows(angles), np.zeros((len(t), 3))

    return path


PATHS: dict[str, Callable[[SceneSpec, np.random.Generator], Path]] = {
    "forward": _path_forward,
    "mav": _path_mav,
    "line": _path_line,
    "rotonly": _path_rotonly,
}


def path_world_poses(spec: SceneSpec) -> FrameTable:
    """World poses of every frame of the spec's path, keyframes included,
    as a table whose row ``i`` is frame ``i``."""
    if spec.shape not in PATHS:
        raise GenerationError(f"unknown path shape {spec.shape!r}; choose from {sorted(PATHS)}")
    rng = np.random.default_rng(spec.seed)
    path = PATHS[spec.shape](spec, rng)
    stamps, _ = frame_grid(spec.n_keyframes, spec.rels_per_segment)
    return FrameTable(stamps, np.arange(len(stamps)), *path(stamps))


def keyframe_positions(spec: SceneSpec) -> list[int]:
    return frame_grid(spec.n_keyframes, spec.rels_per_segment)[1].tolist()


def frame_grid(n_keyframes: int, rels_per_segment: int) -> tuple[np.ndarray, np.ndarray]:
    """Stamps of every frame, keyframes included, and the positions of the
    keyframes among them: keyframes :data:`KEYFRAME_DT` apart with
    ``rels_per_segment`` evenly spaced frames between each pair."""
    dt = KEYFRAME_DT / (rels_per_segment + 1)
    n_frames = n_keyframes + (n_keyframes - 1) * rels_per_segment
    return np.arange(n_frames) * dt, np.arange(n_keyframes) * (rels_per_segment + 1)


# -- scene generation ----------------------------------------------------------


def _sample_landmarks(
    camera: Camera, frames: FrameTable, hosts: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One world point through the frustum of each frame row of ``hosts``
    (uniform pixel and depth, drawn as u, v, depth per point)."""
    low = (PIXEL_MARGIN, PIXEL_MARGIN, DEPTH_BAND[0])
    high = (camera.width - PIXEL_MARGIN, camera.height - PIXEL_MARGIN, DEPTH_BAND[1])
    draws = rng.uniform(low, high, size=(len(hosts), 3))
    points = unproject(camera, draws[:, :2], draws[:, 2])
    return quat_rotate(frames.q[hosts], points) + frames.t[hosts]


def _visibility(
    camera: Camera, inv_q: np.ndarray, inv_t: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Whether each frame (row; world-to-camera poses ``inv_q``/``inv_t``)
    sees each point (column) in front of it and inside its image."""
    table = np.empty((len(inv_q), len(points)), dtype=bool)
    step = max(1, PROJECTION_BLOCK // len(points))
    for start in range(0, len(inv_q), step):
        rows = slice(start, start + step)
        pixels, _, front = project_many(camera, inv_q[rows, None], inv_t[rows, None], points)
        table[rows] = front & _in_bounds(camera, pixels)
    return table


def generate_scene(spec: SceneSpec) -> Scene:
    """Deterministic scene for a path spec.

    Guarantees at least :data:`MIN_SHARED_LANDMARKS` landmarks shared by
    every adjacent frame pair (topping up through the weakest pair when
    needed) and raises :class:`GenerationError` when the spec cannot
    satisfy visibility.
    """
    frames = path_world_poses(spec)
    rng = np.random.default_rng(spec.seed + 1)
    camera = DEFAULT_CAMERA
    inv_q, inv_t = pose_inverse(frames.q, frames.t)
    points = _sample_landmarks(camera, frames, np.arange(spec.n_landmarks) % len(frames), rng)
    table = _visibility(camera, inv_q, inv_t, points)

    for _ in range(60):
        shared = np.count_nonzero(table[:-1] & table[1:], axis=1)
        if shared.min() >= MIN_SHARED_LANDMARKS:
            break
        # Top up through the weakest adjacent pair, alternating its two frames.
        weakest = int(np.argmin(shared))
        hosts = weakest + np.arange(MIN_SHARED_LANDMARKS) % 2
        added = _sample_landmarks(camera, frames, hosts, rng)
        points = np.concatenate((points, added))
        table = np.concatenate((table, _visibility(camera, inv_q, inv_t, added)), axis=1)
    else:
        raise GenerationError("could not reach the shared-landmark minimum; spec is infeasible")

    seen = table.any(axis=1)
    if not seen.all():
        raise GenerationError(f"no landmark visible from frame {int(np.argmin(seen))}")

    rows, ids = np.nonzero(table)
    pixels, depths = np.empty((len(rows), 2)), np.empty(len(rows))
    for start in range(0, len(rows), PROJECTION_BLOCK):
        block = slice(start, start + PROJECTION_BLOCK)
        f, lm = rows[block], ids[block]
        pixels[block], depths[block], _ = project_many(camera, inv_q[f], inv_t[f], points[lm])
    if spec.pixel_noise > 0.0:
        pixels = pixels + rng.normal(0.0, spec.pixel_noise, size=pixels.shape)
        keep = _in_bounds(camera, pixels)
        rows, ids, pixels, depths = rows[keep], ids[keep], pixels[keep], depths[keep]

    trajectory = from_world_poses(frames, keyframe_positions(spec))
    observations = Observations(frames.indices[rows], ids, pixels, depths)
    return Scene(camera, trajectory, points, observations)


# -- update models -------------------------------------------------------------


def apply_similarity_update(scene: Scene, sim: SimilarityTransform) -> MapUpdate:
    """Similarity map update: keyframes and landmarks move together and all
    feature depths scale uniformly, so pixel measurements are preserved.
    Each keyframe moves as ``sim.apply_pose`` moves it."""
    kf = scene.trajectory.kf
    updates = KeyframeUpdates(kf.q, kf.t, *sim.apply_rows(kf.q, kf.t))
    return MapUpdate(updates, sim.apply_points(scene.landmarks))


def perturb_keyframes_update(
    scene: Scene,
    rot_sigma: float,
    trans_sigma: float,
    rng: np.random.Generator,
) -> MapUpdate:
    """Independent SE(3) perturbation of every keyframe pose (landmarks
    kept) - the non-exact update regime.  Each keyframe draws its so(3)
    and then its translation noise, in keyframe order."""
    kf = scene.trajectory.kf
    wobble = rng.normal(0.0, (rot_sigma,) * 3 + (trans_sigma,) * 3, size=(len(kf), 6))
    new_q, new_t = pose_mul(so3_exp_rows(wobble[:, :3]), wobble[:, 3:], kf.q, kf.t)
    return MapUpdate(KeyframeUpdates(kf.q, kf.t, new_q, new_t), scene.landmarks)


# -- reprojection --------------------------------------------------------------


@dataclass(frozen=True)
class ReprojectionResult:
    rms_px: float
    n_used: int
    n_behind: int


def reprojection_rms(
    scene: Scene, candidates: FrameTable, landmarks: np.ndarray
) -> ReprojectionResult:
    """RMS pixel distance between the stored observations and reprojections
    of ``landmarks`` (row = landmark id) through the candidate world poses,
    the rows of ``candidates`` matched by frame index.  Behind-camera
    observations are excluded and counted."""
    obs = scene.observations
    found = np.isin(obs.frame_indices, candidates.indices)
    if not found.all():
        missing = sorted(set(obs.frame_indices[~found].tolist()))
        raise ValueError(f"candidate poses missing for frames {missing[:5]}")

    order = np.argsort(candidates.indices, kind="stable")
    rows = order[np.searchsorted(candidates.indices[order], obs.frame_indices)]
    inv_q, inv_t = pose_inverse(candidates.q, candidates.t)
    pixels, _, front = project_many(
        scene.camera, inv_q[rows], inv_t[rows], landmarks[obs.landmark_ids]
    )
    d = pixels[front] - obs.pixels[front]
    n_used = int(np.count_nonzero(front))
    rms = math.sqrt(float(np.sum(d * d)) / n_used) if n_used else math.inf
    return ReprojectionResult(rms, n_used, len(front) - n_used)


# -- serialization ---------------------------------------------------------------


def save_scene(scene: Scene, path) -> None:
    """Write the scene container, one table per section, as bytes."""
    frames = scene.gt_world_poses()
    kf_rows = np.flatnonzero(np.isin(frames.indices, scene.trajectory.kf.indices))
    cam = scene.camera
    obs = scene.observations
    sections = [
        (b"# posecorrect scene v1\n[camera]\n", [
            *np.array([[cam.fx, cam.fy, cam.cx, cam.cy]], dtype=float).T,
            np.array([cam.width]), np.array([cam.height])]),
        (b"[poses]\n", trajio.tum_columns(frames)),
        (b"[keyframes]\n", [kf_rows]),
        (b"[landmarks]\n", [np.arange(len(scene.landmarks)), *scene.landmarks.T]),
        (b"[observations]\n", [
            obs.frame_indices, obs.landmark_ids, *obs.pixels.T, obs.depths]),
    ]
    with open(path, "wb") as fh:
        for header, columns in sections:
            fh.write(header)
            write_columns([(fh, columns)], [" "] * (len(columns) - 1) + ["\n"])
