"""TUM/KITTI parsers and writers: fixtures, round-trips, error reporting."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posecorrect.io import (
    TrajectoryParseError,
    _parse_rows,
    read_keyframe_index,
    read_kitti,
    read_tum,
    write_kitti,
    write_tum,
)
from posecorrect.liegeom import Pose, Rotation, quat_matrix, quat_normalize
from posecorrect.trajectory import FrameId, FrameTable
from reference_kernels import format_tum_line, rotation_angle_deg_scalar

DATA = Path(__file__).parent / "data"


def random_poses(seed: int, n: int = 1000):
    rng = np.random.default_rng(seed)
    return [
        (FrameId(round(0.05 * i, 6), i), Pose(Rotation.random(rng), rng.uniform(-50, 50, 3)))
        for i in range(n)
    ]


class TestTum:
    def test_identity_line(self, tmp_path):
        path = tmp_path / "one.tum"
        path.write_text("0.0 0 0 0 0 0 0 1\n")
        [(fid, pose)] = read_tum(path)
        assert fid.stamp == 0.0
        np.testing.assert_array_equal(pose.translation, np.zeros(3))
        assert rotation_angle_deg_scalar(pose.rotation, Rotation.identity()) == 0.0

    def test_fixture_file_parses_with_comments(self):
        poses = read_tum(DATA / "valid.tum")
        assert len(poses) == 4
        assert poses[2][1].translation[0] == 2.0
        # qx qy qz qw on disk maps to a 90 degree yaw here.
        from posecorrect.liegeom import so3_exp

        assert rotation_angle_deg_scalar(poses[2][1].rotation, so3_exp((0, 0, math.pi / 2))) < 1e-9

    def test_comment_only_file_is_empty(self):
        assert read_tum(DATA / "comments_only.tum") == []

    def test_round_trip_1000_random_poses(self, tmp_path):
        poses = random_poses(0)
        path = tmp_path / "rt.tum"
        write_tum(path, poses)
        back = read_tum(path)
        assert len(back) == len(poses)
        for (fa, pa), (fb, pb) in zip(poses, back):
            assert abs(fa.stamp - fb.stamp) <= 1e-9
            np.testing.assert_allclose(pa.translation, pb.translation, atol=1e-9)
            assert rotation_angle_deg_scalar(pa.rotation, pb.rotation) < 1e-9

    def test_malformed_line_carries_file_and_number(self):
        with pytest.raises(TrajectoryParseError) as err:
            read_tum(DATA / "malformed.tum")
        assert err.value.line == 3
        assert "malformed.tum" in str(err.value)

    def test_bad_quaternion_norm_rejected(self):
        with pytest.raises(TrajectoryParseError, match="norm"):
            read_tum(DATA / "bad_quat.tum")

    def test_nonmonotone_sorted_with_warning(self, tmp_path, caplog):
        path = tmp_path / "shuffled.tum"
        path.write_text(
            "1.0 1 0 0 0 0 0 1\n"
            "0.0 0 0 0 0 0 0 1\n"
            "2.0 2 0 0 0 0 0 1\n"
        )
        import logging

        with caplog.at_level(logging.WARNING, logger="posecorrect.io"):
            poses = read_tum(path)
        assert [fid.stamp for fid, _ in poses] == [0.0, 1.0, 2.0]
        assert any("monotone" in rec.message for rec in caplog.records)

    def test_non_numeric_field_rejected(self, tmp_path):
        path = tmp_path / "alpha.tum"
        path.write_text("0.0 a 0 0 0 0 0 1\n")
        with pytest.raises(TrajectoryParseError, match="non-numeric"):
            read_tum(path)

    @pytest.mark.parametrize("line", ["nan 0 0 0 0 0 0 1", "0.1 0 nan 0 0 0 0 1", "0.1 0 0 inf 0 0 0 1"])
    def test_non_finite_field_rejected_with_line(self, tmp_path, line):
        path = tmp_path / "nan.tum"
        path.write_text(f"0.0 0 0 0 0 0 0 1\n{line}\n")
        with pytest.raises(TrajectoryParseError, match="non-finite") as err:
            read_tum(path)
        assert err.value.line == 2


class TestKitti:
    def test_identity_row(self, tmp_path):
        poses = read_kitti(DATA / "valid.kitti")
        assert rotation_angle_deg_scalar(poses[0][1].rotation, Rotation.identity()) == 0.0
        np.testing.assert_array_equal(poses[0][1].translation, np.zeros(3))

    def test_translation_row(self):
        poses = read_kitti(DATA / "valid.kitti")
        np.testing.assert_array_equal(poses[1][1].translation, [5.0, -2.0, 3.0])

    def test_small_rotation_drift_orthonormalized(self):
        poses = read_kitti(DATA / "valid.kitti")
        m = quat_matrix(poses.q[2:3])[0]
        assert np.max(np.abs(m.T @ m - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(m) - 1.0) < 1e-12

    def test_non_finite_field_rejected_with_line(self, tmp_path):
        path = tmp_path / "nan.kitti"
        path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n1 0 0 nan 0 1 0 0 0 0 1 0\n")
        with pytest.raises(TrajectoryParseError, match="non-finite") as err:
            read_kitti(path)
        assert err.value.line == 2

    def test_timestamps_from_frame_rate(self):
        poses = read_kitti(DATA / "valid.kitti", frame_rate=20.0)
        assert [fid.stamp for fid, _ in poses] == [0.0, 0.05, 0.1]

    def test_wrong_field_count_rejected_with_line(self):
        with pytest.raises(TrajectoryParseError) as err:
            read_kitti(DATA / "malformed.kitti")
        assert err.value.line == 2

    def test_large_rotation_drift_rejected(self):
        with pytest.raises(TrajectoryParseError, match="SO"):
            read_kitti(DATA / "bad_rotation.kitti")

    def test_kitti_to_tum_and_back(self, tmp_path):
        poses = random_poses(1, n=200)
        kitti_path = tmp_path / "a.kitti"
        write_kitti(kitti_path, poses)
        via_kitti = read_kitti(kitti_path, frame_rate=20.0)
        tum_path = tmp_path / "b.tum"
        write_tum(tum_path, via_kitti)
        via_tum = read_tum(tum_path)
        kitti2 = tmp_path / "c.kitti"
        write_kitti(kitti2, via_tum)
        final = read_kitti(kitti2, frame_rate=20.0)
        for (_, pa), (_, pb) in zip(poses, final):
            np.testing.assert_allclose(pa.translation, pb.translation, atol=1e-9)
            assert rotation_angle_deg_scalar(pa.rotation, pb.rotation) < 1e-9


# Values at the formatter's edges: signed zeros, subnormals, the largest
# positional value and the switch to exponent form at 1e16 and 1e-4.
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
         1e16, -1e16, 9999999999999998.0, 1e-4, -1e-4, 9.999999999999999e-05, 1e-5,
         0.1, 1.0, 12.35, 123456789.0]


def values(bound=None):
    """Floats weighted toward ``EDGES``; finite and within ``bound`` when
    one is given, anything (nan and inf included) otherwise."""
    anything = st.floats(-bound, bound) if bound else st.floats()
    return st.one_of(st.sampled_from(EDGES), st.floats(-3e-308, 3e-308), anything)


@st.composite
def frame_tables(draw, elements, max_rows=12):
    n = draw(st.integers(0, max_rows))
    cells = np.array(draw(st.lists(elements, min_size=8 * n, max_size=8 * n)), dtype=float)
    cells = cells.reshape(n, 8)
    return FrameTable(cells[:, 0], np.arange(n), cells[:, 4:], cells[:, 1:4])


def old_kitti_text(table) -> str:
    """``write_kitti`` as it was: ``repr`` of each entry of each 3x4 row."""
    rows = np.concatenate((quat_matrix(table.q), table.t[:, :, None]), axis=2).reshape(-1, 12)
    return "".join(" ".join(map(repr, row)) + "\n" for row in rows.tolist())


class TestWriterPins:
    """The array writers against their one-line forms."""

    @settings(max_examples=150, deadline=None)
    @given(frame_tables(values()))
    def test_write_tum_lines_equal_format_tum_line(self, tmp_path_factory, table):
        path = tmp_path_factory.mktemp("tum") / "t.tum"
        write_tum(path, table)
        want = ["# stamp tx ty tz qx qy qz qw"] + [
            format_tum_line(fid.stamp, pose) for fid, pose in table
        ]
        assert path.read_bytes() == "".join(line + "\n" for line in want).encode()

    @settings(max_examples=150, deadline=None)
    @given(frame_tables(values(bound=1e6)))
    def test_write_kitti_equals_repr_join(self, tmp_path_factory, table):
        path = tmp_path_factory.mktemp("kitti") / "t.kitti"
        write_kitti(path, table)
        assert path.read_bytes() == old_kitti_text(table).encode()

    @pytest.mark.parametrize("rows", [0, 1])
    def test_zero_and_one_row_tables(self, tmp_path, rows):
        table = FrameTable([-0.0] * rows, range(rows), [[1.0, -0.0, 5e-324, 1e16]] * rows,
                           [[1e-4, -1e-5, 0.0]] * rows)
        write_tum(tmp_path / "t.tum", table)
        assert (tmp_path / "t.tum").read_text() == "# stamp tx ty tz qx qy qz qw\n" + (
            "-0.0 0.0001 -1e-05 0.0 -0.0 5e-324 1e+16 1.0\n" * rows
        )
        write_kitti(tmp_path / "t.kitti", table)
        assert (tmp_path / "t.kitti").read_text() == old_kitti_text(table)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 20).flatmap(lambda n: st.tuples(
            st.lists(values(bound=1e9), min_size=n, max_size=n),
            st.lists(values(bound=1e9), min_size=3 * n, max_size=3 * n),
            st.lists(st.floats(-1.0, 1.0), min_size=4 * n, max_size=4 * n),
        ))
    )
    def test_tum_round_trip_is_bitwise(self, tmp_path_factory, cells):
        stamps, t, q = (np.array(c, dtype=float) for c in cells)
        stamps, t, q = np.sort(stamps), t.reshape(-1, 3), q.reshape(-1, 4)
        q[np.linalg.norm(q, axis=1) < 0.1] = [0.5, -0.5, 0.5, -0.5]
        table = FrameTable(stamps, np.arange(len(stamps)), quat_normalize(q), t)
        path = tmp_path_factory.mktemp("rt") / "t.tum"
        write_tum(path, table)
        rows, _, error = _parse_rows(path, 8)
        assert error is None
        written = np.column_stack((table.stamps, table.t, table.q[:, 1:], table.q[:, :1]))
        assert rows.tobytes() == written.tobytes()
        back = read_tum(path)
        assert back.stamps.tobytes() == table.stamps.tobytes()
        assert back.t.tobytes() == table.t.tobytes()
        assert back.q.tobytes() == quat_normalize(table.q).tobytes()  # read_tum renormalizes


class TestKeyframeIndex:
    def test_integer_indices(self, tmp_path):
        frames = random_poses(2, n=10)
        path = tmp_path / "kf.txt"
        path.write_text("# keyframes\n0\n4\n9\n")
        assert read_keyframe_index(path, frames) == [0, 4, 9]

    def test_timestamps(self, tmp_path):
        frames = random_poses(3, n=10)
        path = tmp_path / "kf.txt"
        path.write_text(f"{frames[0][0].stamp}\n{frames[5][0].stamp}\n")
        assert read_keyframe_index(path, frames) == [0, 5]

    def test_unknown_index_rejected(self, tmp_path):
        frames = random_poses(4, n=5)
        path = tmp_path / "kf.txt"
        path.write_text("17\n")
        with pytest.raises(TrajectoryParseError, match="17"):
            read_keyframe_index(path, frames)

    def test_unmatched_timestamp_rejected(self, tmp_path):
        frames = random_poses(5, n=5)
        path = tmp_path / "kf.txt"
        path.write_text("99.5\n")
        with pytest.raises(TrajectoryParseError):
            read_keyframe_index(path, frames)

    def test_garbage_rejected_with_line(self, tmp_path):
        frames = random_poses(6, n=5)
        path = tmp_path / "kf.txt"
        path.write_text("0\nbanana\n")
        with pytest.raises(TrajectoryParseError) as err:
            read_keyframe_index(path, frames)
        assert err.value.line == 2

    def test_unmatched_timestamp_names_its_line(self, tmp_path):
        frames = random_poses(7, n=5)
        path = tmp_path / "kf.txt"
        path.write_text(f"0\n{frames[2][0].stamp}\n99.5\n")
        with pytest.raises(TrajectoryParseError, match="99.5") as err:
            read_keyframe_index(path, frames)
        assert err.value.line == 3

    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_non_finite_timestamp_rejected(self, tmp_path, text):
        frames = random_poses(8, n=5)
        path = tmp_path / "kf.txt"
        path.write_text(f"0\n{text}\n")
        with pytest.raises(TrajectoryParseError) as err:
            read_keyframe_index(path, frames)
        assert err.value.line == 2

    def test_repeated_frame_rejected_with_both_lines(self, tmp_path):
        frames = random_poses(9, n=10)
        path = tmp_path / "kf.txt"
        # Line 4 names by timestamp the frame line 2 selected by index.
        path.write_text(f"# keyframes\n4\n0\n{frames[4][0].stamp}\n")
        with pytest.raises(TrajectoryParseError, match="line 2") as err:
            read_keyframe_index(path, frames)
        assert err.value.line == 4
