"""Trajectory file parsers and writers (TUM and KITTI formats).

TUM lines are ``stamp tx ty tz qx qy qz qw`` with '#' comments; the
on-disk quaternion order is x, y, z, w and is converted to the internal
w, x, y, z on read.  KITTI lines are the 12 row-major entries of the 3x4
``[R | t]`` matrix; the frame index is the line position and timestamps
are synthesized from a fixed frame rate.

Parsers reject malformed input with the offending file and line number
rather than guessing.  Floats are written with ``repr`` so that
write-then-read is exact.
"""
from __future__ import annotations

import logging
import math
from typing import Optional

import numpy as np

from .liegeom import Pose, Rotation
from .trajectory import AssociationError, FrameId, associate

log = logging.getLogger("posecorrect.io")

QUAT_NORM_TOL = 1e-3     # parse-time unit-quaternion tolerance
ROTATION_DRIFT_TOL = 1e-3  # max ||R^T R - I|| accepted for orthonormalization


class TrajectoryParseError(ValueError):
    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


def _require_finite(vals, path, line: int) -> None:
    if not all(math.isfinite(v) for v in vals):
        raise TrajectoryParseError(path, line, "non-finite field (nan or inf)")


def format_tum_line(stamp: float, pose: Pose) -> str:
    t = pose.translation
    w, x, y, z = pose.rotation.quat
    vals = (stamp, t[0], t[1], t[2], x, y, z, w)
    return " ".join(repr(float(v)) for v in vals)


def parse_tum_fields(fields: list[str], path, line: int) -> tuple[float, Pose]:
    if len(fields) != 8:
        raise TrajectoryParseError(
            path, line, f"expected 8 fields (stamp t q), got {len(fields)}"
        )
    try:
        vals = [float(f) for f in fields]
    except ValueError as exc:
        raise TrajectoryParseError(path, line, f"non-numeric field: {exc}") from None
    _require_finite(vals, path, line)
    stamp, tx, ty, tz, qx, qy, qz, qw = vals
    norm = float(np.linalg.norm([qw, qx, qy, qz]))
    if abs(norm - 1.0) > QUAT_NORM_TOL:
        raise TrajectoryParseError(
            path, line, f"quaternion norm {norm:.6f} departs from 1 by more than {QUAT_NORM_TOL}"
        )
    return stamp, Pose(Rotation((qw, qx, qy, qz)), (tx, ty, tz))


def read_tum(path) -> list[tuple[FrameId, Pose]]:
    """Read a TUM trajectory, ordered by timestamp (stable sort, with a
    warning, when the file is not monotone)."""
    records: list[tuple[float, Pose]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            records.append(parse_tum_fields(text.split(), path, lineno))
    if any(b[0] < a[0] for a, b in zip(records, records[1:])):
        log.warning("%s: timestamps not monotone; applying stable sort", path)
        records.sort(key=lambda item: item[0])
    return [(FrameId(stamp, i), pose) for i, (stamp, pose) in enumerate(records)]


def write_tum(path, poses) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# stamp tx ty tz qx qy qz qw\n")
        for fid, pose in poses:
            fh.write(format_tum_line(fid.stamp, pose) + "\n")


def _orthonormalize(m: np.ndarray, path, line: int) -> np.ndarray:
    drift = float(np.max(np.abs(m.T @ m - np.eye(3))))
    if drift <= 1e-12:
        return m
    if drift > ROTATION_DRIFT_TOL:
        raise TrajectoryParseError(
            path, line, f"rotation departs from SO(3) by {drift:.2e} (limit {ROTATION_DRIFT_TOL})"
        )
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    if np.linalg.det(r) < 0.0:
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r


def read_kitti(path, frame_rate: float = 10.0) -> list[tuple[FrameId, Pose]]:
    """Read a KITTI pose file; the frame index is the line number and
    timestamps are ``index / frame_rate``."""
    out: list[tuple[FrameId, Pose]] = []
    index = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            fields = text.split()
            if len(fields) != 12:
                raise TrajectoryParseError(
                    path, lineno, f"expected 12 fields, got {len(fields)}"
                )
            try:
                floats = [float(f) for f in fields]
            except ValueError as exc:
                raise TrajectoryParseError(path, lineno, f"non-numeric field: {exc}") from None
            _require_finite(floats, path, lineno)
            vals = np.array(floats).reshape(3, 4)
            rot = _orthonormalize(vals[:, :3], path, lineno)
            out.append(
                (FrameId(index / frame_rate, index), Pose(Rotation.from_matrix(rot), vals[:, 3]))
            )
            index += 1
    return out


def write_kitti(path, poses) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for _, pose in poses:
            m = pose.matrix[:3, :]
            fh.write(" ".join(repr(float(v)) for v in m.reshape(-1)) + "\n")


def read_keyframe_index(path, frames) -> list[int]:
    """Resolve a keyframe-index file against a frame list.

    Each line is either an integer frame index or a finite timestamp; all
    timestamps are associated in one call within the default tolerance.
    Unresolvable entries, and entries that resolve to a frame an earlier
    line already selected, raise with the file and line number.
    """
    by_index = {fid.index: k for k, (fid, _) in enumerate(frames)}
    entries: list[tuple[int, Optional[int]]] = []  # (line, position)
    stamps: list[float] = []
    stamp_slots: list[int] = []  # entries still waiting for their stamp's match
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            try:
                idx = int(text)
            except ValueError:
                idx = None
            if idx is not None:
                if idx not in by_index:
                    raise TrajectoryParseError(
                        path, lineno, f"frame index {idx} not present in trajectory"
                    )
                entries.append((lineno, by_index[idx]))
                continue
            try:
                stamp = float(text)
            except ValueError:
                stamp = math.nan
            if not math.isfinite(stamp):
                raise TrajectoryParseError(
                    path, lineno, f"expected frame index or timestamp, got {text!r}"
                )
            stamp_slots.append(len(entries))
            entries.append((lineno, None))
            stamps.append(stamp)
    if stamps:
        try:
            matches = associate(stamps, frames)
        except AssociationError as exc:
            line = entries[stamp_slots[exc.query]][0]
            raise TrajectoryParseError(path, line, str(exc)) from None
        for slot, (fid, _) in zip(stamp_slots, matches):
            entries[slot] = (entries[slot][0], by_index[fid.index])
    positions = []
    selected_at: dict[int, int] = {}
    for lineno, pos in entries:
        if pos in selected_at:
            raise TrajectoryParseError(
                path,
                lineno,
                f"selects frame index {frames[pos][0].index} again "
                f"(first selected at line {selected_at[pos]})",
            )
        selected_at[pos] = lineno
        positions.append(pos)
    return positions
