"""Synthetic scenes: landmarks, pinhole projections and update models.

A scene bundles a keyframe trajectory, world landmarks and the pixel/depth
observations of those landmarks from every frame.  Zero-noise scenes
reproject exactly, which makes them the oracle for the correction's
measurement-preservation property: a global similarity update rescales all
depths uniformly and leaves every pixel untouched, so the corrected poses
must reproject the updated landmarks onto the original measurements.

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
from typing import Callable, Optional, Sequence

import numpy as np

from . import io as trajio
from .floatfmt import write_columns
from .liegeom import Pose, Rotation, euler_zyx_to_rows, so3_exp
from .trajectory import (
    FrameId,
    FrameTable,
    KeyframeUpdate,
    Trajectory,
    from_world_poses,
    world_poses,
)

MIN_DEPTH = 1e-6          # meters; at or below this a point is behind the camera
MIN_SHARED_LANDMARKS = 8  # required common landmarks per adjacent frame pair
DEPTH_BAND = (2.5, 25.0)  # sampling band for generated landmarks, meters
PIXEL_MARGIN = 40.0       # sampling margin inside the image, pixels
KEYFRAME_DT = 1.0         # seconds between consecutive keyframes

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
class Landmark:
    id: int
    position: np.ndarray

    def __post_init__(self):
        p = np.array(self.position, dtype=float).reshape(3)
        p.setflags(write=False)
        object.__setattr__(self, "position", p)


@dataclass(frozen=True)
class Observation:
    frame_index: int
    landmark_id: int
    pixel: tuple[float, float]
    depth: float


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


@dataclass(frozen=True)
class MapUpdate:
    """A back-end map refinement: keyframe pose updates plus the moved
    landmarks (and the similarity that produced them, when there is one)."""

    keyframe_updates: tuple[KeyframeUpdate, ...]
    landmarks: tuple[Landmark, ...]
    similarity: Optional[SimilarityTransform] = None


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


@dataclass(frozen=True)
class Scene:
    camera: Camera
    trajectory: Trajectory
    landmarks: tuple[Landmark, ...]
    observations: tuple[Observation, ...]

    def gt_world_poses(self) -> FrameTable:
        return world_poses(self.trajectory)


# -- projection ---------------------------------------------------------------


def project(camera: Camera, world_to_cam: Pose, point) -> Optional[tuple[np.ndarray, float]]:
    """Pinhole projection of a world point; None when behind the camera."""
    p = world_to_cam.apply(np.asarray(point, dtype=float))
    depth = float(p[2])
    if depth <= MIN_DEPTH:
        return None
    pixel = np.array([
        camera.fx * p[0] / depth + camera.cx,
        camera.fy * p[1] / depth + camera.cy,
    ])
    return pixel, depth


def unproject(camera: Camera, pixel, depth: float) -> np.ndarray:
    """Camera-frame point of a pixel at a known depth."""
    u, v = float(pixel[0]), float(pixel[1])
    return depth * np.array([
        (u - camera.cx) / camera.fx,
        (v - camera.cy) / camera.fy,
        1.0,
    ])


def project_many(
    camera: Camera, world_to_cam: Pose, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized projection: (pixels (N,2), depths (N,), in-front mask)."""
    p = world_to_cam.apply(points)
    depths = p[:, 2]
    front = depths > MIN_DEPTH
    safe = np.where(front, depths, 1.0)
    pixels = np.stack(
        [
            camera.fx * p[:, 0] / safe + camera.cx,
            camera.fy * p[:, 1] / safe + camera.cy,
        ],
        axis=1,
    )
    return pixels, depths, front


def _in_bounds(camera: Camera, pixels: np.ndarray, margin: float = 0.0) -> np.ndarray:
    return (
        (pixels[:, 0] >= margin)
        & (pixels[:, 0] < camera.width - margin)
        & (pixels[:, 1] >= margin)
        & (pixels[:, 1] < camera.height - margin)
    )


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
    camera: Camera,
    frames: Sequence[tuple[FrameId, Pose]],
    count: int,
    rng: np.random.Generator,
    start_id: int,
    through: Optional[Sequence[int]] = None,
) -> list[Landmark]:
    """Sample landmarks through frame frustums (uniform pixel and depth)."""
    hosts = list(through) if through is not None else list(range(len(frames)))
    out = []
    for k in range(count):
        host = frames[hosts[k % len(hosts)]][1]
        pixel = (
            rng.uniform(PIXEL_MARGIN, camera.width - PIXEL_MARGIN),
            rng.uniform(PIXEL_MARGIN, camera.height - PIXEL_MARGIN),
        )
        depth = rng.uniform(*DEPTH_BAND)
        out.append(Landmark(start_id + k, host.apply(unproject(camera, pixel, depth))))
    return out


def _visibility(
    camera: Camera,
    frames: Sequence[tuple[FrameId, Pose]],
    landmarks: Sequence[Landmark],
) -> np.ndarray:
    points = np.array([lm.position for lm in landmarks])
    table = np.zeros((len(frames), len(landmarks)), dtype=bool)
    for k, (_, pose) in enumerate(frames):
        pixels, _, front = project_many(camera, pose.inverse(), points)
        table[k] = front & _in_bounds(camera, pixels)
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
    landmarks = _sample_landmarks(camera, frames, spec.n_landmarks, rng, start_id=0)

    for _ in range(60):
        table = _visibility(camera, frames, landmarks)
        shared = [
            int(np.count_nonzero(table[k] & table[k + 1]))
            for k in range(len(frames) - 1)
        ]
        if min(shared) >= MIN_SHARED_LANDMARKS:
            break
        weakest = int(np.argmin(shared))
        landmarks.extend(
            _sample_landmarks(
                camera, frames, MIN_SHARED_LANDMARKS, rng,
                start_id=len(landmarks), through=[weakest, weakest + 1],
            )
        )
    else:
        raise GenerationError(
            "could not reach the shared-landmark minimum; spec is infeasible"
        )

    if not np.all(table.any(axis=1)):
        missing = int(np.argmin(table.any(axis=1)))
        raise GenerationError(f"no landmark visible from frame {missing}")

    points = np.array([lm.position for lm in landmarks])
    observations = []
    for k, (fid, pose) in enumerate(frames):
        pixels, depths, _ = project_many(camera, pose.inverse(), points)
        visible = np.flatnonzero(table[k])
        px = pixels[visible]
        if spec.pixel_noise > 0.0:
            px = px + rng.normal(0.0, spec.pixel_noise, size=px.shape)
            keep = _in_bounds(camera, px)
            visible = visible[keep]
            px = px[keep]
        for lm_row, pixel in zip(visible, px):
            observations.append(
                Observation(
                    frame_index=fid.index,
                    landmark_id=landmarks[lm_row].id,
                    pixel=(float(pixel[0]), float(pixel[1])),
                    depth=float(depths[lm_row]),
                )
            )

    trajectory = from_world_poses(frames, keyframe_positions(spec))
    return Scene(camera, trajectory, tuple(landmarks), tuple(observations))


# -- update models -------------------------------------------------------------


def apply_similarity_update(scene: Scene, sim: SimilarityTransform) -> MapUpdate:
    """Similarity map update: keyframes and landmarks move together and all
    feature depths scale uniformly, so pixel measurements are preserved."""
    updates = tuple(
        KeyframeUpdate(i, kf.world_pose, sim.apply_pose(kf.world_pose))
        for i, kf in enumerate(scene.trajectory.keyframes)
    )
    points = np.array([lm.position for lm in scene.landmarks])
    moved = sim.apply_points(points)
    landmarks = tuple(
        Landmark(lm.id, moved[k]) for k, lm in enumerate(scene.landmarks)
    )
    return MapUpdate(updates, landmarks, sim)


def perturb_keyframes_update(
    scene: Scene,
    rot_sigma: float,
    trans_sigma: float,
    rng: np.random.Generator,
) -> MapUpdate:
    """Independent SE(3) perturbation of every keyframe pose (landmarks
    kept) - the non-exact update regime."""
    updates = []
    for i, kf in enumerate(scene.trajectory.keyframes):
        wobble = Pose(
            so3_exp(rng.normal(0.0, rot_sigma, size=3)),
            rng.normal(0.0, trans_sigma, size=3),
        )
        updates.append(KeyframeUpdate(i, kf.world_pose, wobble * kf.world_pose))
    return MapUpdate(tuple(updates), scene.landmarks, None)


# -- reprojection --------------------------------------------------------------


@dataclass(frozen=True)
class ReprojectionResult:
    rms_px: float
    n_used: int
    n_behind: int


def reprojection_rms(
    scene: Scene,
    candidate_poses: Sequence[tuple[FrameId, Pose]],
    landmarks: Sequence[Landmark],
) -> ReprojectionResult:
    """RMS pixel distance between the stored observations and reprojections
    of ``landmarks`` through the candidate world poses.  Behind-camera
    observations are excluded and counted."""
    pose_by_index = {fid.index: pose for fid, pose in candidate_poses}
    position_by_id = {lm.id: lm.position for lm in landmarks}

    frame_indices = sorted({obs.frame_index for obs in scene.observations})
    missing = [k for k in frame_indices if k not in pose_by_index]
    if missing:
        raise ValueError(f"candidate poses missing for frames {missing[:5]}")

    by_frame: dict[int, list[Observation]] = {k: [] for k in frame_indices}
    for obs in scene.observations:
        by_frame[obs.frame_index].append(obs)

    sq_sum = 0.0
    n_used = 0
    n_behind = 0
    for k in frame_indices:
        group = by_frame[k]
        points = np.array([position_by_id[obs.landmark_id] for obs in group])
        measured = np.array([obs.pixel for obs in group])
        pixels, _, front = project_many(scene.camera, pose_by_index[k].inverse(), points)
        n_behind += int(np.count_nonzero(~front))
        if np.any(front):
            d = pixels[front] - measured[front]
            sq_sum += float(np.sum(d * d))
            n_used += int(np.count_nonzero(front))
    rms = math.sqrt(sq_sum / n_used) if n_used else math.inf
    return ReprojectionResult(rms, n_used, n_behind)


# -- serialization ---------------------------------------------------------------


def save_scene(scene: Scene, path) -> None:
    """Write the scene container, one table per section, as bytes."""
    frames = scene.gt_world_poses()
    kf_rows = np.flatnonzero(np.isin(frames.indices, scene.trajectory.kf.indices))
    cam = scene.camera
    ids = np.array([lm.id for lm in scene.landmarks], dtype=np.int64)
    points = np.array([lm.position for lm in scene.landmarks], dtype=float).reshape(-1, 3)
    obs = scene.observations
    sections = [
        (b"# posecorrect scene v1\n[camera]\n", [
            *np.array([[cam.fx, cam.fy, cam.cx, cam.cy]], dtype=float).T,
            np.array([cam.width]), np.array([cam.height])]),
        (b"[poses]\n", trajio.tum_columns(frames)),
        (b"[keyframes]\n", [kf_rows]),
        (b"[landmarks]\n", [ids, *points.T]),
        (b"[observations]\n", [
            np.array([o.frame_index for o in obs], dtype=np.int64),
            np.array([o.landmark_id for o in obs], dtype=np.int64),
            *np.array([(*o.pixel, o.depth) for o in obs], dtype=float).reshape(-1, 3).T]),
    ]
    with open(path, "wb") as fh:
        for header, columns in sections:
            fh.write(header)
            write_columns([(fh, columns)], [" "] * (len(columns) - 1) + ["\n"])
