"""Trajectory file parsers and writers (TUM and KITTI formats).

TUM lines are ``stamp tx ty tz qx qy qz qw`` with '#' comments; the
on-disk quaternion order is x, y, z, w and is converted to the internal
w, x, y, z on read.  KITTI lines are the 12 row-major entries of the 3x4
``[R | t]`` matrix; the frame index is the line position and timestamps
are synthesized from a fixed frame rate.

The readers return one :class:`~posecorrect.trajectory.FrameTable`; the
writers take a table or ``(FrameId, Pose)`` pairs.  Both readers first try
``np.loadtxt``, whose C tokenizer converts each field with the same
correctly rounded routine as ``float``, on files that pass a strict gate:
leading ``#`` lines, then only digits, ``.eE+-`` and whitespace, with the
expected column count on every line (:func:`_fast_rows`).  Any other file,
or one whose table fails a value check, is read again one line at a time
by :func:`data_lines`, the one line reader of every text input, and each
line is converted by ``float`` (:func:`_parse_rows`), which names the
first bad line.  Comment lines may hold any bytes; a data line that is not
UTF-8 fails at its own line.  The value checks run on the whole array:
finite values and unit quaternions for TUM, finite values, the drift and
reflection checks, SVD projection and matrix-to-quaternion conversion of
every rotation for KITTI.  So a file costs a few array passes rather than
a ``Pose`` per line.  Under ``POSECORRECT_LOG=DEBUG`` each read logs which
path it took and, on a fallback, which check sent it there.
Each writer is one :func:`~posecorrect.floatfmt.write_columns` call, whose
floats are byte-equal to ``repr``, so write-then-read is exact.
:func:`parse_tum_fields` is the one-line TUM reader, which scene files use;
the tests' one-line oracles are in ``tests/reference_kernels.py``.
"""
from __future__ import annotations

import logging
import math
import re
from array import array
from typing import Iterator

import numpy as np

from .floatfmt import write_columns
from .liegeom import Pose, Rotation, quat_from_matrix, quat_matrix, quat_normalize, vec_norm
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
    skipped whatever bytes they hold.  A byte that is not UTF-8 decodes to
    a lone surrogate, which no number parses, so a data line holding one
    fails at its own line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
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


def _quat_norm_error(norm: float) -> str:
    return f"quaternion norm {norm:.6f} departs from 1 by more than {QUAT_NORM_TOL}"


def parse_tum_fields(fields: list[str], path, line: int) -> tuple[float, Pose]:
    stamp, tx, ty, tz, qx, qy, qz, qw = _parse_floats(fields, path, line, 8, " (stamp t q)")
    norm = float(np.linalg.norm([qw, qx, qy, qz]))
    if abs(norm - 1.0) > QUAT_NORM_TOL:
        raise TrajectoryParseError(path, line, _quat_norm_error(norm))
    return stamp, Pose(Rotation((qw, qx, qy, qz)), (tx, ty, tz))


def _parse_rows(path, count: int, layout: str = ""):
    """The fields of the data lines of ``path`` as an (N, ``count``) float
    array, their line numbers, and the error of the first line whose field
    count or conversion fails (``None`` when none does); the rows stop
    there.  Finite values are not checked here."""
    values = array("d")
    linenos: list[int] = []
    error = None
    for lineno, text in data_lines(path):
        try:
            values.extend(_convert_fields(text.split(), path, lineno, count, layout))
        except TrajectoryParseError as exc:
            error = exc
            break
        linenos.append(lineno)
    return np.frombuffer(values, dtype=float).reshape(-1, count), linenos, error


# Leading comment lines: '#' in the first column, each ended by a newline.
_HEADER = re.compile(rb"(?:#[^\r\n]*(?:\r\n?|\n))*")
# Every byte a data line of a file on the fast path may hold.
_NUMBER_BYTES = b"0123456789.eE+- \t\r\n"


def _fast_rows(path, count: int):
    """The data rows of ``path`` as an (N, ``count``) array converted by
    ``np.loadtxt``, or ``None`` and the gate check the file failed.

    ``np.loadtxt`` converts each field with ``PyOS_string_to_double``, the
    routine behind ``float``, so its values equal :func:`_parse_rows`'.
    The gate keeps it to text on which the two agree on the rest too: after
    the leading ``#`` lines, which both skip, every byte is a digit,
    ``.eE+-``, a space, a tab or a newline, there is at least one data
    line, and ``np.loadtxt`` finds ``count`` columns on every line."""
    with open(path, "rb") as fh:
        data = fh.read()
    body = data[_HEADER.match(data).end():]
    del data
    if body.translate(None, _NUMBER_BYTES):
        return None, "a byte outside the number grammar"
    if not body or body.isspace():
        return None, "no data line"
    # str.splitlines breaks lines only where universal newlines do, since
    # the gate admits no other line boundary.
    lines = body.decode("ascii").splitlines()
    del body
    try:
        rows = np.loadtxt(lines, comments=None, ndmin=2)
    except ValueError as exc:
        return None, f"np.loadtxt: {exc}"
    if rows.shape[1] != count:
        return None, f"{rows.shape[1]} columns"
    return rows, None


def _read_rows(path, count: int, layout: str, check):
    """The data rows of ``path`` as an (N, ``count``) array, and the value
    ``check`` derives from them.  ``check(rows)`` returns ``(value, bad)``,
    where ``bad`` is ``(k, message)`` for the first bad row ``k``, or
    ``None``.

    A file that passes :func:`_fast_rows`' gate and ``check`` costs one
    ``np.loadtxt``.  Any other file is read again by :func:`_parse_rows`,
    whose line numbers name the first error in file order: a bad row, then
    a line that does not convert."""
    rows, reason = _fast_rows(path, count)
    if rows is not None:
        value, bad = check(rows)
        if bad is None:
            log.debug("%s: %d rows by np.loadtxt", path, len(rows))
            return rows, value
        reason = "a row fails the value checks"
    log.debug("%s: read line by line (%s)", path, reason)
    rows, linenos, error = _parse_rows(path, count, layout)
    value, bad = check(rows)
    if bad is not None:
        raise TrajectoryParseError(path, linenos[bad[0]], bad[1])
    if error is not None:
        raise error
    return rows, value


def _tum_check(rows):
    """The (N, 4) wxyz quaternions of a TUM table, and ``(k, message)`` of
    its first non-finite row or non-unit quaternion (``None`` when there is
    none)."""
    wxyz = rows[:, [7, 4, 5, 6]]
    finite = np.isfinite(rows).all(axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        norm = vec_norm(wxyz)
    bad = ~finite | (np.abs(norm - 1.0) > QUAT_NORM_TOL)
    if bad.any():
        k = int(np.argmax(bad))
        return wxyz, (k, NON_FINITE if not finite[k] else _quat_norm_error(norm[k]))
    return wxyz, None


def read_tum(path) -> FrameTable:
    """Read a TUM trajectory, ordered by timestamp (stable sort, with a
    warning, when the file is not monotone).  Frame ``i`` of the result has
    index ``i``."""
    rows, wxyz = _read_rows(path, 8, " (stamp t q)", _tum_check)
    stamps = rows[:, 0]
    if (stamps[1:] < stamps[:-1]).any():
        log.warning("%s: timestamps not monotone; applying stable sort", path)
        order = np.argsort(stamps, kind="stable")
        rows, wxyz, stamps = rows[order], wxyz[order], stamps[order]
    return FrameTable(stamps, np.arange(len(rows)), quat_normalize(wxyz), rows[:, 1:4])


def tum_columns(frames: FrameTable) -> list[np.ndarray]:
    """The columns of TUM lines: stamp, translation, then xyzw quaternion."""
    return [frames.stamps, *frames.t.T, *frames.q[:, 1:].T, frames.q[:, 0]]


def write_tum(path, poses) -> None:
    """Write a :class:`FrameTable` or ``(FrameId, Pose)`` pairs as TUM
    lines, ``repr`` of each value."""
    frames = FrameTable.of(poses)
    with open(path, "wb") as fh:
        fh.write(b"# stamp tx ty tz qx qy qz qw\n")
        write_columns([(fh, tum_columns(frames))], [" "] * 7 + ["\n"])


def _drift_error(drift: float) -> str:
    return f"rotation departs from SO(3) by {drift:.2e} (limit {ROTATION_DRIFT_TOL})"


REFLECTION = "rotation block has a negative determinant (a reflection, not a rotation)"


def _kitti_check(rows):
    """The (N, 4) quaternions of a KITTI table, and ``(k, message)`` of its
    first bad row (``None`` when there is none).

    A rotation block is rejected when ``m^T m`` departs from the identity
    by more than :data:`ROTATION_DRIFT_TOL` or when it is a reflection,
    kept as is when within 1e-12 of the identity, and projected onto SO(3)
    by SVD otherwise.  The rows are checked in file order, so a drift or
    reflection error before the first non-finite row wins and no row after
    the first error is projected.  ``_orthonormalize`` in
    ``tests/reference_kernels.py`` is the one-row form, which the tests
    compare this against."""
    finite = np.isfinite(rows).all(axis=1)
    n = len(rows) if finite.all() else int(np.argmin(finite))
    m = rows[:n].reshape(-1, 3, 4)[:, :, :3]
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries: drift inf or nan
        drift = np.abs(m.transpose(0, 2, 1) @ m - np.eye(3)).max(axis=(1, 2))
        over = ~(drift <= ROTATION_DRIFT_TOL)
        bad = over | (np.linalg.det(m) < 0.0)
    stop = int(np.argmax(bad)) if bad.any() else n
    r = m[:stop].copy()
    fix = np.flatnonzero(~(drift[:stop] <= 1e-12))
    if fix.size:
        u, _, vt = np.linalg.svd(r[fix])
        r[fix] = u @ vt
    if stop < n:
        return None, (stop, _drift_error(drift[stop]) if over[stop] else REFLECTION)
    if n < len(rows):
        return None, (n, NON_FINITE)
    return quat_from_matrix(r), None


def read_kitti(path, frame_rate: float = 10.0) -> FrameTable:
    """Read a KITTI pose file; the frame index is the line number and
    timestamps are ``index / frame_rate``."""
    rows, q = _read_rows(path, 12, "", _kitti_check)
    index = np.arange(len(rows))
    return FrameTable(index / frame_rate, index, q, rows[:, 3::4])


def write_kitti(path, poses) -> None:
    frames = FrameTable.of(poses)
    rows = np.concatenate((quat_matrix(frames.q), frames.t[:, :, None]), axis=2)
    with open(path, "wb") as fh:
        write_columns([(fh, list(rows.reshape(-1, 12).T))], [" "] * 11 + ["\n"])


def read_keyframe_index(path, frames) -> list[int]:
    """Resolve a keyframe-index file against the frames of a
    :class:`FrameTable` (or ``(FrameId, Pose)`` pairs), as positions.

    Each line is either an integer frame index or a finite timestamp; all
    timestamps are associated in one call within the default tolerance.
    An index, or the index of a timestamp's frame, resolves to the last
    frame that holds it, all in one sorted lookup.  Unresolvable entries,
    and entries that resolve to a frame an earlier line already selected,
    raise with the file and line number.
    """
    frames = FrameTable.of(frames)
    lines: list[int] = []
    ints, int_slots, stamps, stamp_slots = [], [], [], []  # values, and their entries
    bad = None  # the first line that is neither, which ends the file's valid part
    for lineno, text in data_lines(path):
        try:
            ints.append(int(text))
            int_slots.append(len(lines))
        except ValueError:
            try:
                stamp = float(text)
            except ValueError:
                stamp = math.nan
            if not math.isfinite(stamp):
                bad = TrajectoryParseError(
                    path, lineno, f"expected frame index or timestamp, got {text!r}"
                )
                break
            stamp_slots.append(len(lines))
            stamps.append(stamp)
        lines.append(lineno)
    order = np.argsort(frames.indices, kind="stable")
    sorted_indices = frames.indices[order]

    def last_with(values: np.ndarray) -> np.ndarray:  # positions, -1 where none
        at = np.searchsorted(sorted_indices, values, side="right") - 1
        found = at >= 0
        found[found] = sorted_indices[at[found]] == values[found]
        positions = np.full(len(values), -1)
        positions[found] = order[at[found]]
        return positions

    positions = [0] * len(lines)
    in_range = [-(2**63) <= v < 2**63 for v in ints]
    found = last_with(np.array([v if ok else 0 for v, ok in zip(ints, in_range)], np.int64))
    for slot, value, ok, pos in zip(int_slots, ints, in_range, found.tolist()):
        if not ok or pos < 0:
            raise TrajectoryParseError(
                path, lines[slot], f"frame index {value} not present in trajectory"
            )
        positions[slot] = pos
    if bad is not None:
        raise bad
    if stamps:
        try:
            matches = associate(stamps, frames)
        except AssociationError as exc:
            raise TrajectoryParseError(path, lines[stamp_slots[exc.query]], str(exc)) from None
        for slot, pos in zip(stamp_slots, last_with(frames.indices[matches]).tolist()):
            positions[slot] = pos
    selected_at: dict[int, int] = {}
    for lineno, pos in zip(lines, positions):
        if pos in selected_at:
            raise TrajectoryParseError(
                path,
                lineno,
                f"selects frame index {frames.indices[pos]} again "
                f"(first selected at line {selected_at[pos]})",
            )
        selected_at[pos] = lineno
    return positions
