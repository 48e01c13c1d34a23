"""The readers' ``np.loadtxt`` path against ``float`` and the line reader:
field values bitwise, every gate case against ``_parse_rows``, the KITTI
array twins against their row forms, and the debug line per file."""

import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posecorrect import io as trajio
from posecorrect.liegeom import quat_from_matrix, quat_matrix, quat_normalize
from reference_kernels import _orthonormalize, check_translation, rotation_from_matrix_scalar

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"

# -- field values ------------------------------------------------------------------

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e-4, 0.1, 1.0]


@st.composite
def decimals(draw):
    """Decimal text: an optional sign, up to 40 digits with the point
    anywhere or nowhere (``.5`` and ``5.`` included), an optional exponent
    up to 400 in magnitude."""
    digits = draw(st.text("0123456789", min_size=1, max_size=40))
    point = draw(st.none() | st.integers(0, len(digits)))
    mantissa = digits if point is None else digits[:point] + "." + digits[point:]
    exponent = draw(st.none() | st.integers(-400, 400))
    sign = draw(st.sampled_from(["", "+", "-"]))
    text = sign + mantissa
    if exponent is not None:
        text += draw(st.sampled_from(["e", "E"])) + draw(st.sampled_from(["", "+"])) * (
            exponent >= 0
        ) + str(exponent)
    return text


TOKENS = (
    st.sampled_from(EDGE_VALUES).map(repr)
    | st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.floats(-3e-308, 3e-308).map(repr)
    | decimals()
)


def write(tmp_dir, name, data: bytes) -> Path:
    path = tmp_dir / name
    path.write_bytes(data)
    return path


class TestFieldValues:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(TOKENS, min_size=8, max_size=8), min_size=1, max_size=6))
    def test_fast_rows_equal_float_bitwise(self, tmp_path_factory, lines):
        text = "# stamp tx ty tz qx qy qz qw\n" + "".join(" ".join(f) + "\n" for f in lines)
        path = write(tmp_path_factory.mktemp("values"), "v.tum", text.encode())
        rows, reason = trajio._fast_rows(path, 8)
        assert reason is None
        want = np.array([[float(f) for f in fields] for fields in lines])
        assert rows.shape == want.shape and rows.tobytes() == want.tobytes()
        line_rows, _, error = trajio._parse_rows(path, 8)
        assert error is None and line_rows.tobytes() == rows.tobytes()

    def test_rounding_edges(self, tmp_path):
        # Exact midpoints between neighbouring doubles round to even, and
        # one digit past them decides the other way.
        tokens = ["9007199254740993", "9007199254740995", "9007199254740993.000000000001",
                  "2.4703282292062327e-324", "2.4703282292062328e-324",
                  "1.7976931348623158e308", "1.797693134862315807e308", "1e400", "-1e400",
                  "1e-400", "-1e-400", "0e999"]
        tokens += ["0"] * (-len(tokens) % 4)
        lines = [tokens[k:k + 4] for k in range(0, len(tokens), 4)]
        path = write(tmp_path, "edges.txt", "".join(" ".join(f) + "\n" for f in lines).encode())
        rows, reason = trajio._fast_rows(path, 4)
        assert reason is None
        want = np.array([[float(f) for f in fields] for fields in lines])
        assert rows.tobytes() == want.tobytes()


# -- the gate ------------------------------------------------------------------------

ROW = b"0.5 1.0 2.0 3.0 0.0 0.0 0.0 1.0"
ROW2 = b"1.0 2.0 0.5 -1.0 0.0 0.0 0.7071067811865476 0.7071067811865476"
HEADER = b"# stamp tx ty tz qx qy qz qw\n"

# (name, file bytes, whether np.loadtxt reads it)
GATE_CASES = [
    ("plain", HEADER + ROW + b"\n" + ROW2 + b"\n", True),
    ("no final newline", HEADER + ROW + b"\n" + ROW2, True),
    ("no header", ROW + b"\n" + ROW2 + b"\n", True),
    ("crlf", HEADER.replace(b"\n", b"\r\n") + ROW + b"\r\n" + ROW2 + b"\r\n", True),
    ("lone cr", HEADER.replace(b"\n", b"\r") + ROW + b"\r" + ROW2 + b"\r", True),
    ("mixed newlines", HEADER + ROW + b"\r" + ROW2 + b"\r\n" + ROW + b"\n", True),
    ("blank and whitespace lines", HEADER + b"\n" + ROW + b"\n \t \n\r\n" + ROW2 + b"\n\n", True),
    ("tabs and indents", HEADER + b"\t " + ROW.replace(b" ", b"\t \t") + b"  \n", True),
    ("plus signs and bare points",
     HEADER + b"+.5 1. +2.0e+0 3E0 -.0 0. 0.0 1.000000000000000000000000000001\n", True),
    ("two header lines", b"# a\n#b\n" + ROW + b"\n", True),
    ("utf-8 header", "# résumé ✓\n".encode() + ROW + b"\n", True),
    ("1e400", HEADER + ROW + b"\n" + ROW.replace(b"3.0", b"1e400") + b"\n", True),
    ("norm far from 1", HEADER + ROW + b"\n" + ROW.replace(b" 1.0", b" 1.2") + b"\n", True),
    ("interior comment", HEADER + ROW + b"\n# interior\n" + ROW2 + b"\n", False),
    ("indented comment", b"  # indented\n" + ROW + b"\n", False),
    ("comment after a blank line", b"\n# late header\n" + ROW + b"\n", False),
    ("inline comment", HEADER + ROW + b" # inline\n", False),
    ("comments of digits", HEADER + ROW + b" #5\n#1 2\n" + ROW2 + b"\n", False),
    ("underscore", HEADER + ROW.replace(b"2.0", b"1_0") + b"\n", False),
    ("form feed", HEADER + ROW.replace(b" ", b"\x0c", 1) + b"\n", False),
    ("form feed line break", HEADER + ROW + b"\x0c" + ROW2 + b"\n", False),
    ("nbsp", HEADER + ROW.replace(b" ", b"\xc2\xa0", 1) + b"\n", False),
    ("bom", b"\xef\xbb\xbf" + HEADER + ROW + b"\n", False),
    ("invalid utf-8 in header", b"# caf\xe9\n" + ROW + b"\n", True),
    ("invalid utf-8 in data", HEADER + ROW + b"\xff\n", False),
    ("nan", HEADER + ROW.replace(b"3.0", b"nan") + b"\n", False),
    ("inf", HEADER + ROW.replace(b"3.0", b"-inf") + b"\n", False),
    ("word", HEADER + ROW.replace(b"3.0", b"three") + b"\n", False),
    ("empty", b"", False),
    ("header only", HEADER, False),
    ("header only, no final newline", HEADER.rstrip(), False),
    ("blank lines only", b"\n \n\t\r\n", False),
    ("twelve columns", b"1 0 0 0 0 1 0 0 0 0 1 0\n", False),
    ("short line", HEADER + ROW + b"\n0.5 1.0\n", False),
    ("bad token", HEADER + ROW.replace(b"2.0", b"2.0.0") + b"\n", False),
    ("lone sign", HEADER + ROW.replace(b"2.0", b"-") + b"\n", False),
    ("lone point", HEADER + ROW.replace(b"2.0", b".") + b"\n", False),
    ("exponent only", HEADER + ROW.replace(b"2.0", b"e5") + b"\n", False),
]

KITTI_ROW = b"1 0 0 0 0 1 0 0 0 0 1 0"
KITTI_CASES = [
    ("plain", KITTI_ROW + b"\n" + KITTI_ROW.replace(b"0 0 1 0", b"0 0 1 3") + b"\n", True),
    ("crlf", KITTI_ROW + b"\r\n" + KITTI_ROW + b"\r\n", True),
    ("projected row", (DATA / "valid.kitti").read_bytes(), True),
    ("reflection near SO(3)", b"1 0 0 0 0 1 0 0 0 0 -1.000001 0\n", True),
    ("drift", KITTI_ROW + b"\n1.01 0 0 0 0 1 0 0 0 0 1 0\n", True),
    ("drift after 1e400", KITTI_ROW.replace(b"0 0 1 0", b"0 0 1 1e400") + b"\n"
     + b"1.01 0 0 0 0 1 0 0 0 0 1 0\n", True),
    ("1e400 after drift", b"1.01 0 0 0 0 1 0 0 0 0 1 0\n"
     + KITTI_ROW.replace(b"0 0 1 0", b"0 0 1 1e400") + b"\n", True),
    ("overflowing rotation", (DATA / "huge_rotation.kitti").read_bytes(), True),
    ("interior comment", KITTI_ROW + b"\n# interior\n" + KITTI_ROW + b"\n", False),
    ("eight columns", ROW + b"\n", False),
    ("drift before a short line", b"1.01 0 0 0 0 1 0 0 0 0 1 0\n1 2 3\n", False),
]


def outcome(read, path):
    """A table's arrays, or an exception's type, text and line."""
    try:
        table = read(path)
    except Exception as exc:  # noqa: BLE001 - every type is compared
        return ("raised", type(exc), str(exc), getattr(exc, "line", None))
    return ("table", table.stamps.tobytes(), table.indices.tobytes(), table.q.tobytes(),
            table.t.tobytes())


def line_reader_outcome(monkeypatch, read, path):
    """``read`` with the fast path turned off: ``_parse_rows`` and the value
    checks alone."""
    with monkeypatch.context() as m:
        m.setattr(trajio, "_fast_rows", lambda path, count: (None, "off"))
        return outcome(read, path)


def read_logged(caplog, read, path):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="posecorrect.io"):
        got = outcome(read, path)
    messages = [r.getMessage() for r in caplog.records if r.name == "posecorrect.io"]
    return got, [m for m in messages if "timestamps not monotone" not in m]


class TestGate:
    @pytest.mark.parametrize("name,data,fast", GATE_CASES, ids=[c[0] for c in GATE_CASES])
    def test_tum_case_equals_line_reader(self, tmp_path, monkeypatch, caplog, name, data, fast):
        path = write(tmp_path, "case.tum", data)
        got, messages = read_logged(caplog, trajio.read_tum, path)
        assert got == line_reader_outcome(monkeypatch, trajio.read_tum, path)
        rows, reason = trajio._fast_rows(path, 8)
        assert (rows is not None) == fast, reason
        assert len(messages) == 1
        took_fast = messages[0].endswith("rows by np.loadtxt")
        assert took_fast == (fast and got[0] == "table"), messages

    @pytest.mark.parametrize("name,data,fast", KITTI_CASES, ids=[c[0] for c in KITTI_CASES])
    def test_kitti_case_equals_line_reader(self, tmp_path, monkeypatch, caplog, name, data, fast):
        path = write(tmp_path, "case.kitti", data)
        got, messages = read_logged(caplog, trajio.read_kitti, path)
        assert got == line_reader_outcome(monkeypatch, trajio.read_kitti, path)
        rows, reason = trajio._fast_rows(path, 12)
        assert (rows is not None) == fast, reason
        assert len(messages) == 1
        assert messages[0].endswith("rows by np.loadtxt") == (fast and got[0] == "table")

    def test_value_errors_name_their_line(self, tmp_path):
        path = write(tmp_path, "e.tum", HEADER + ROW + b"\n\n" + ROW.replace(b"2.0", b"1e999") + b"\n")
        with pytest.raises(trajio.TrajectoryParseError, match="non-finite") as err:
            trajio.read_tum(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("name", ["crlf.tum", "tabs.tum", "interior_comments.tum",
                                      "crlf.kitti", "interior_comments.kitti"])
    def test_data_files_equal_line_reader(self, monkeypatch, name):
        read = trajio.read_kitti if name.endswith(".kitti") else trajio.read_tum
        got = outcome(read, DATA / name)
        assert got[0] == "table" and len(np.frombuffer(got[1])) == 10
        assert got == line_reader_outcome(monkeypatch, read, DATA / name)
        fast = trajio._fast_rows(DATA / name, 12 if name.endswith(".kitti") else 8)[0]
        assert (fast is not None) == ("interior" not in name)

    def test_missing_file_raises_as_before(self, tmp_path, monkeypatch):
        path = tmp_path / "absent.tum"
        got = outcome(trajio.read_tum, path)
        assert got[1] is FileNotFoundError
        assert got == line_reader_outcome(monkeypatch, trajio.read_tum, path)


class TestDebugLog:
    def test_one_stderr_line_per_file_read(self, tmp_path):
        out = tmp_path / "out"
        env = dict(os.environ, POSECORRECT_LOG="DEBUG", PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "posecorrect.cli", "correct",
             "--traj", str(DATA / "interior_comments.tum"),
             "--kf-index", str(DATA / "ten_frames_kf_index.txt"),
             "--kf-old", str(DATA / "crlf.tum"), "--kf-new", str(DATA / "tabs.tum"),
             "--methods", "proposed", "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        lines = [line for line in proc.stderr.splitlines() if "posecorrect.io" in line]
        assert lines == [
            f"DEBUG posecorrect.io: {DATA / 'interior_comments.tum'}: read line by line "
            "(a byte outside the number grammar)",
            f"DEBUG posecorrect.io: {DATA / 'crlf.tum'}: 10 rows by np.loadtxt",
            f"DEBUG posecorrect.io: {DATA / 'tabs.tum'}: 10 rows by np.loadtxt",
        ]
        assert proc.stdout == ""
        for path in out.iterdir():
            assert b"DEBUG" not in path.read_bytes() and b"np.loadtxt" not in path.read_bytes()


# -- KITTI array twins ------------------------------------------------------------


def row_kitti_check(rows):
    """The KITTI value checks one row at a time, as ``read_kitti`` did them:
    ``_orthonormalize``, ``check_translation`` and ``rotation_from_matrix_scalar``
    on each finite row up to the first non-finite one."""
    finite = np.isfinite(rows).all(axis=1)
    n = len(rows) if finite.all() else int(np.argmin(finite))
    q = np.empty((n, 4))
    for k, vals in enumerate(rows[:n].reshape(-1, 3, 4)):
        try:
            q[k] = rotation_from_matrix_scalar(_orthonormalize(vals[:, :3], "p", k)).quat
            check_translation(vals[:, 3], "p", k)
        except trajio.TrajectoryParseError as exc:
            return None, (k, str(exc).split(": ", 1)[1])
    if n < len(rows):
        return None, (n, trajio.NON_FINITE)
    return q, None


def near_rotations(seed, n, scale, reflections=True):
    """Rotation matrices (half-turns about each axis among them), each
    entry moved by up to ``scale``, and, with ``reflections``, every fifth
    one a reflection."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 4))
    q[: min(n, 12)] = np.tile(np.eye(4), (3, 1))[: min(n, 12)]
    m = quat_matrix(quat_normalize(q))
    if reflections:
        m[::5, 2] *= -1.0
    return m + rng.uniform(-scale, scale, m.shape)


def kitti_rows(m, t=None):
    t = np.zeros((len(m), 3)) if t is None else t
    return np.concatenate((m, t[:, :, None]), axis=2).reshape(-1, 12)


class TestKittiTwins:
    @pytest.mark.parametrize("scale", [0.0, 1e-15, 1e-9, 1e-6, 3e-4])
    @pytest.mark.parametrize("seed", range(3))
    def test_quat_from_matrix_equals_rotation_from_matrix(self, seed, scale):
        m = near_rotations(seed, 200, scale)
        want = np.array([rotation_from_matrix_scalar(mk).quat for mk in m])
        assert quat_from_matrix(m).tobytes() == want.tobytes()

    @pytest.mark.parametrize("scale", [0.0, 1e-13, 1e-8, 1e-5, 2e-4])
    @pytest.mark.parametrize("seed", range(3))
    def test_kitti_check_equals_row_form(self, seed, scale):
        rows = kitti_rows(near_rotations(seed, 150, scale, reflections=False))
        q, bad = trajio._kitti_check(rows)
        want_q, want_bad = row_kitti_check(rows)
        assert bad == want_bad is None
        assert q.tobytes() == want_q.tobytes()

    def test_overflowing_rotation_is_a_drift_error(self, monkeypatch):
        # An entry of m^T m sums 1e400 and -1e400: inf where the matmul
        # fuses multiply and add, nan where it does not.  Neither passes.
        path = DATA / "huge_rotation.kitti"
        assert trajio._fast_rows(path, 12)[0] is not None
        got = outcome(trajio.read_kitti, path)
        assert got == line_reader_outcome(monkeypatch, trajio.read_kitti, path)
        drift = got[2].rsplit(" by ", 1)[1].split()[0]
        assert got[2] == f"{path}:1: {trajio._drift_error(float(drift))}" and drift in ("inf", "nan")
        assert got[:2] == ("raised", trajio.TrajectoryParseError) and got[3] == 1
        rows = np.loadtxt(path, ndmin=2)
        assert trajio._kitti_check(rows)[1] == row_kitti_check(rows)[1] == (
            0, trajio._drift_error(float(drift)))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(["ok", "small", "reflect", "over", "nan", "huge"]),
                    min_size=1, max_size=12), st.integers(0, 2**32 - 1))
    def test_kitti_check_errors_equal_row_form(self, kinds, seed):
        rng = np.random.default_rng(seed)
        m = quat_matrix(quat_normalize(rng.normal(size=(len(kinds), 4))))
        t = rng.uniform(-5, 5, (len(kinds), 3))
        for k, kind in enumerate(kinds):
            if kind == "small":
                m[k] += rng.uniform(-1e-5, 1e-5, (3, 3))
            elif kind == "reflect":
                m[k, 2] *= -1.0
                m[k] += rng.uniform(-1e-5, 1e-5, (3, 3))
            elif kind == "over":
                m[k] *= 1.01
            elif kind == "nan":
                t[k, 1] = math.nan
            elif kind == "huge":
                t[k, 2] = 1e160
        rows = kitti_rows(m, t)
        got, want = trajio._kitti_check(rows), row_kitti_check(rows)
        assert got[1] == want[1]
        if want[1] is None:
            assert got[0].tobytes() == want[0].tobytes()
