"""Pose correction for relative frames in keyframe-based SLAM.

After a SLAM back-end refines keyframe poses, the frames stored relative to
those keyframes are stale.  This package corrects them in closed form by
preserving the measurement constraints between the two enclosing keyframes,
alongside the classical element-wise vector-space interpolation baselines
(XYZ, se(3) translation, Euler, quaternion, so(3)), a synthetic-scene
oracle, and an evaluation/timing harness.

Trajectories are tables (:class:`FrameTable`, :class:`Trajectory`,
:class:`KeyframeUpdates`); the names below that are objects (``Pose``,
``Rotation``, ``FrameId``, ``Keyframe``, ``KeyframeUpdate``) build and
read those tables one pose at a time.
"""

from .liegeom import (
    Pose,
    Rotation,
    euler_zyx_to,
    slerp,
    so3_exp,
)
from .trajectory import (
    FrameId,
    FrameTable,
    Keyframe,
    KeyframeUpdate,
    KeyframeUpdates,
    Trajectory,
    from_world_poses,
    snap_to_gt,
    world_poses,
)

__version__ = "0.1.0"

__all__ = [
    "Pose",
    "Rotation",
    "euler_zyx_to",
    "slerp",
    "so3_exp",
    "FrameId",
    "FrameTable",
    "Keyframe",
    "KeyframeUpdate",
    "KeyframeUpdates",
    "Trajectory",
    "from_world_poses",
    "snap_to_gt",
    "world_poses",
    "__version__",
]
