"""Pose correction for relative frames in keyframe-based SLAM.

After a SLAM back-end refines keyframe poses, the frames stored relative to
those keyframes are stale.  This package corrects them in closed form by
preserving the measurement constraints between the two enclosing keyframes,
alongside the classical element-wise vector-space interpolation baselines
(XYZ, se(3) translation, Euler, quaternion, so(3)), a synthetic-scene
oracle, and an evaluation/timing harness.

Trajectories are tables (:class:`FrameTable`, :class:`Trajectory`,
:class:`KeyframeUpdates`), and the names below are those tables and the
functions on them.  The per-pose objects (``Pose``, ``Rotation``,
``so3_exp``, ``FrameId``, ``Keyframe``, ``KeyframeUpdate``) are not
exported: they stay in ``liegeom`` and ``trajectory`` only because the
perfbench workloads build their inputs with them, one pose at a time.
"""

from .trajectory import (
    FrameTable,
    KeyframeUpdates,
    Trajectory,
    from_world_poses,
    snap_to_gt,
    world_poses,
)

__version__ = "0.1.0"

__all__ = [
    "FrameTable",
    "KeyframeUpdates",
    "Trajectory",
    "from_world_poses",
    "snap_to_gt",
    "world_poses",
    "__version__",
]
