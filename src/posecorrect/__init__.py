"""Pose correction for relative frames in keyframe-based SLAM.

After a SLAM back-end refines keyframe poses, the frames stored relative to
those keyframes are stale.  This package corrects them in closed form by
preserving the measurement constraints between the two enclosing keyframes,
alongside the classical element-wise vector-space interpolation baselines
(XYZ, se(3) translation, Euler, quaternion, so(3)), a synthetic-scene
oracle, and an evaluation/timing harness.
"""

from .liegeom import (
    Pose,
    Rotation,
    Twist,
    euler_zyx_from,
    euler_zyx_to,
    rotation_angle_deg,
    se3_exp,
    se3_log,
    slerp,
    so3_exp,
    so3_log,
)
from .trajectory import (
    FrameId,
    FrameTable,
    Keyframe,
    KeyframeUpdate,
    KeyframeUpdates,
    RelativeFrame,
    Segment,
    Trajectory,
    from_world_poses,
    segmentize,
    snap_to_gt,
    world_poses,
)

__version__ = "0.1.0"

__all__ = [
    "Pose",
    "Rotation",
    "Twist",
    "euler_zyx_from",
    "euler_zyx_to",
    "rotation_angle_deg",
    "se3_exp",
    "se3_log",
    "slerp",
    "so3_exp",
    "so3_log",
    "FrameId",
    "FrameTable",
    "Keyframe",
    "KeyframeUpdate",
    "KeyframeUpdates",
    "RelativeFrame",
    "Segment",
    "Trajectory",
    "from_world_poses",
    "segmentize",
    "snap_to_gt",
    "world_poses",
    "__version__",
]
