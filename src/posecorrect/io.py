"""Trajectory file parsers and writers (TUM and KITTI formats).

TUM lines are ``stamp tx ty tz qx qy qz qw`` with '#' comments; the
on-disk quaternion order is x, y, z, w and is converted to the internal
w, x, y, z on read.  KITTI lines are the 12 row-major entries of the 3x4
``[R | t]`` matrix; the frame index is the line position and timestamps
are synthesized from a fixed frame rate.

The readers return one :class:`~posecorrect.trajectory.FrameTable`; the
writers take a table or ``(FrameId, Pose)`` pairs.  Both readers read the
file in blocks of lines and convert all the fields of a block with one
``float`` pass into a flat array; only a block that fails is walked line
by line, to name its first bad line.  The TUM value checks then run on
the whole array, so a file costs a few array passes rather than a
``Pose`` per line; KITTI rows are checked and orthonormalized one at a
time.  Parsers reject malformed input with the file and line number of
the first offending line, rather than guessing.
The writers format a whole table with :mod:`~posecorrect.floatfmt`, whose
text of each float is byte-equal to its ``repr``, so write-then-read is
exact; they write bytes, so a file does not depend on the platform's
newline translation.
:func:`parse_tum_fields` and :func:`format_tum_line` are the one-line
forms, which scene files use and the tests compare the readers and
writers against.
"""
from __future__ import annotations

import logging
import math
from array import array
from itertools import chain
from typing import Iterator, Optional

import numpy as np

from .floatfmt import write_table
from .liegeom import Pose, Rotation, quat_matrix, quat_normalize, vec_norm
from .trajectory import AssociationError, FrameTable, associate

log = logging.getLogger("posecorrect.io")

QUAT_NORM_TOL = 1e-3     # parse-time unit-quaternion tolerance
ROTATION_DRIFT_TOL = 1e-3  # max ||R^T R - I|| accepted for orthonormalization


class TrajectoryParseError(ValueError):
    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


def data_lines(path) -> Iterator[tuple[int, str]]:
    """``(line number, stripped text)`` of every data line of a text file:
    lines are numbered from 1, and blank lines and ``#`` comments are
    skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if text and not text.startswith("#"):
                yield lineno, text


NON_FINITE = "non-finite field (nan or inf)"


def _convert_fields(fields: list[str], path, line: int, count: int, layout: str = "") -> list[float]:
    """``fields`` as ``count`` floats, finite or not; ``layout`` follows the
    field count in the error message."""
    if len(fields) != count:
        raise TrajectoryParseError(
            path, line, f"expected {count} fields{layout}, got {len(fields)}"
        )
    try:
        return [float(f) for f in fields]
    except ValueError as exc:
        raise TrajectoryParseError(path, line, f"non-numeric field: {exc}") from None


def _parse_floats(fields: list[str], path, line: int, count: int, layout: str = "") -> list[float]:
    """``fields`` as ``count`` finite floats."""
    vals = _convert_fields(fields, path, line, count, layout)
    if not all(math.isfinite(v) for v in vals):
        raise TrajectoryParseError(path, line, NON_FINITE)
    return vals


def format_tum_line(stamp: float, pose: Pose) -> str:
    t = pose.translation
    w, x, y, z = pose.rotation.quat
    vals = (stamp, t[0], t[1], t[2], x, y, z, w)
    return " ".join(repr(float(v)) for v in vals)


def _quat_norm_error(norm: float) -> str:
    return f"quaternion norm {norm:.6f} departs from 1 by more than {QUAT_NORM_TOL}"


def parse_tum_fields(fields: list[str], path, line: int) -> tuple[float, Pose]:
    stamp, tx, ty, tz, qx, qy, qz, qw = _parse_floats(fields, path, line, 8, " (stamp t q)")
    norm = float(np.linalg.norm([qw, qx, qy, qz]))
    if abs(norm - 1.0) > QUAT_NORM_TOL:
        raise TrajectoryParseError(path, line, _quat_norm_error(norm))
    return stamp, Pose(Rotation((qw, qx, qy, qz)), (tx, ty, tz))


BLOCK_HINT = 1 << 16  # characters of text read per block of lines


def _parse_rows(path, count: int, layout: str = ""):
    """The fields of the data lines of ``path`` as an (N, ``count``) float
    array, their line numbers, and the error of the first line whose field
    count or conversion fails (``None`` when none does); the rows stop
    there.  Finite values are not checked here.

    The file is read in blocks of lines and each block is converted in one
    pass; a block that fails is walked line by line with
    :func:`_convert_fields`, so the error is the one-line reader's."""
    values = array("d")
    linenos: list[int] = []
    error = None
    first = 1  # line number of the block's first line
    with open(path, "r", encoding="utf-8") as fh:
        while error is None:
            lines = fh.readlines(BLOCK_HINT)
            if not lines:
                break
            texts = [line.strip() for line in lines]
            numbers = [k for k, text in enumerate(texts, start=first) if text and text[0] != "#"]
            fields = [texts[k - first].split() for k in numbers]
            first += len(lines)
            try:
                if any(len(f) != count for f in fields):
                    raise ValueError
                block = array("d", map(float, chain.from_iterable(fields)))
            except ValueError:
                for lineno, f in zip(numbers, fields):
                    try:
                        values.extend(_convert_fields(f, path, lineno, count, layout))
                    except TrajectoryParseError as exc:
                        error = exc
                        break
                    linenos.append(lineno)
                continue
            values.extend(block)
            linenos.extend(numbers)
    rows = np.frombuffer(values, dtype=float).reshape(-1, count)
    return rows, linenos, error


def read_tum(path) -> FrameTable:
    """Read a TUM trajectory, ordered by timestamp (stable sort, with a
    warning, when the file is not monotone).  Frame ``i`` of the result has
    index ``i``."""
    rows, linenos, error = _parse_rows(path, 8, " (stamp t q)")
    wxyz = rows[:, [7, 4, 5, 6]]
    finite = np.isfinite(rows).all(axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        norm = vec_norm(wxyz)
    bad = ~finite | (np.abs(norm - 1.0) > QUAT_NORM_TOL)
    if bad.any():
        k = int(np.argmax(bad))
        message = NON_FINITE if not finite[k] else _quat_norm_error(norm[k])
        raise TrajectoryParseError(path, linenos[k], message)
    if error is not None:
        raise error
    stamps = rows[:, 0]
    if (stamps[1:] < stamps[:-1]).any():
        log.warning("%s: timestamps not monotone; applying stable sort", path)
        order = np.argsort(stamps, kind="stable")
        rows, wxyz, stamps = rows[order], wxyz[order], stamps[order]
    return FrameTable(stamps, np.arange(len(rows)), quat_normalize(wxyz), rows[:, 1:4])


def write_tum(path, poses) -> None:
    """Write a :class:`FrameTable` or ``(FrameId, Pose)`` pairs as TUM
    lines; each line equals :func:`format_tum_line` of its frame."""
    frames = FrameTable.of(poses)
    rows = np.column_stack((frames.stamps, frames.t, frames.q[:, 1:], frames.q[:, :1]))
    with open(path, "wb") as fh:
        fh.write(b"# stamp tx ty tz qx qy qz qw\n")
        write_table(fh, rows, [" "] * 7 + ["\n"])


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


def read_kitti(path, frame_rate: float = 10.0) -> FrameTable:
    """Read a KITTI pose file; the frame index is the line number and
    timestamps are ``index / frame_rate``."""
    rows, linenos, error = _parse_rows(path, 12)
    finite = np.isfinite(rows).all(axis=1)
    n_finite = len(rows) if finite.all() else int(np.argmin(finite))
    q = np.empty((n_finite, 4))
    for k, (vals, lineno) in enumerate(zip(rows[:n_finite].reshape(-1, 3, 4), linenos)):
        q[k] = Rotation.from_matrix(_orthonormalize(vals[:, :3], path, lineno)).quat
    if n_finite < len(rows):
        raise TrajectoryParseError(path, linenos[n_finite], NON_FINITE)
    if error is not None:
        raise error
    index = np.arange(len(rows))
    return FrameTable(index / frame_rate, index, q, rows[:, 3::4])


def write_kitti(path, poses) -> None:
    frames = FrameTable.of(poses)
    rows = np.concatenate((quat_matrix(frames.q), frames.t[:, :, None]), axis=2)
    with open(path, "wb") as fh:
        write_table(fh, rows.reshape(-1, 12), [" "] * 11 + ["\n"])


def read_keyframe_index(path, frames) -> list[int]:
    """Resolve a keyframe-index file against the frames of a
    :class:`FrameTable` (or ``(FrameId, Pose)`` pairs), as positions.

    Each line is either an integer frame index or a finite timestamp; all
    timestamps are associated in one call within the default tolerance.
    Unresolvable entries, and entries that resolve to a frame an earlier
    line already selected, raise with the file and line number.
    """
    frames = FrameTable.of(frames)
    indices = frames.indices.tolist()
    by_index = {index: k for k, index in enumerate(indices)}
    entries: list[tuple[int, Optional[int]]] = []  # (line, position)
    stamps: list[float] = []
    stamp_slots: list[int] = []  # entries still waiting for their stamp's match
    for lineno, text in data_lines(path):
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
        for slot, row in zip(stamp_slots, matches.tolist()):
            entries[slot] = (entries[slot][0], by_index[indices[row]])
    positions = []
    selected_at: dict[int, int] = {}
    for lineno, pos in entries:
        if pos in selected_at:
            raise TrajectoryParseError(
                path,
                lineno,
                f"selects frame index {indices[pos]} again "
                f"(first selected at line {selected_at[pos]})",
            )
        selected_at[pos] = lineno
        positions.append(pos)
    return positions
