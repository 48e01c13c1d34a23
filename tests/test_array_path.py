"""The array path against the object path it replaced: the TUM/KITTI
readers and writers against their one-line forms, random TUM text, whole
``correct`` and ``evaluate`` runs at the benchmark's sizes against a
``Pose``-by-``Pose`` recomputation, the synthetic generators against their
per-frame forms, and a count of the ``Pose`` objects a CLI run and the
generators and the scene build."""

import bisect
import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posecorrect import fixtures, synth
from posecorrect import io as trajio
from posecorrect.cli import main
from posecorrect.evaluate import METHODS, MethodConfig
from posecorrect.liegeom import Pose, Rotation, quat_normalize
from posecorrect.synth import PATHS, SceneSpec, frame_grid, keyframe_positions, path_world_poses
from posecorrect.trajectory import (
    FrameId,
    FrameTable,
    KeyframeUpdate,
    Trajectory,
    from_world_poses,
    world_poses,
)
from reference_kernels import (
    SCALAR_PATHS,
    _orthonormalize,
    displaced_estimate_scalar,
    format_tum_line,
    frame_errors,
    frame_grid_scalar,
    noisy_fixture_scalar,
    parse_floats,
    parse_tum_fields,
    path_world_poses_scalar,
    reference_correct,
    rotation_angle_deg_scalar,
    rotation_from_matrix_scalar,
    rotation_matrix_scalar,
    segment_rels,
    with_generator_states,
)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_table_equals_pairs(table, pairs):
    assert len(table) == len(pairs)
    assert table.ids() == [fid for fid, _ in pairs]
    for k, (_, pose) in enumerate(pairs):
        assert same_bits(table.q[k], pose.rotation.quat)
        assert same_bits(table.t[k], pose.translation)


# -- one-line oracles --------------------------------------------------------------


def object_read_tum(path):
    """The TUM reader as one ``Pose`` per line: ``parse_tum_fields`` on each
    data line, then a stable sort by stamp."""
    records = [
        parse_tum_fields(text.split(), path, lineno)
        for lineno, text in trajio.data_lines(path)
    ]
    records.sort(key=lambda item: item[0])
    return [(FrameId(stamp, i), pose) for i, (stamp, pose) in enumerate(records)]


def object_read_kitti(path, frame_rate=10.0):
    """The KITTI reader as one ``Pose`` per line."""
    out = []
    for index, (lineno, text) in enumerate(trajio.data_lines(path)):
        vals = np.array(parse_floats(text.split(), path, lineno, 12)).reshape(3, 4)
        rot = _orthonormalize(vals[:, :3], path, lineno)
        out.append((FrameId(index / frame_rate, index), Pose(rotation_from_matrix_scalar(rot), vals[:, 3])))
    return out


def object_tum_text(pairs) -> str:
    return "# stamp tx ty tz qx qy qz qw\n" + "".join(
        format_tum_line(fid.stamp, pose) + "\n" for fid, pose in pairs
    )


def object_kitti_text(pairs) -> str:
    return "".join(
        " ".join(repr(float(v)) for v in np.column_stack((
            rotation_matrix_scalar(pose.rotation), pose.translation)).reshape(-1)) + "\n"
        for _, pose in pairs
    )


def outcome(read, path):
    try:
        return read(path), None
    except trajio.TrajectoryParseError as exc:
        return None, (exc.line, str(exc))


def random_pairs(seed, n, half_turns=True):
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n):
        q = rng.normal(size=4)
        if half_turns and i % 7 == 0:
            q[0] = 0.0
            q[1 + i % 3] *= -1.0
        pairs.append((FrameId(float(rng.uniform(-5, 5)), i), Pose(Rotation(q), rng.uniform(-50, 50, 3))))
    return pairs


class TestReadersAndWriters:
    @pytest.mark.parametrize("seed", range(3))
    def test_tum_table_equals_object_reader_and_writer(self, tmp_path, seed):
        pairs = random_pairs(seed, 600)  # unsorted stamps, half-turns
        path = tmp_path / "a.tum"
        path.write_text(object_tum_text(pairs))
        table = trajio.read_tum(path)
        assert_table_equals_pairs(table, object_read_tum(path))
        trajio.write_tum(tmp_path / "b.tum", table)
        assert (tmp_path / "b.tum").read_text() == object_tum_text(object_read_tum(path))
        trajio.write_tum(tmp_path / "c.tum", pairs)
        assert (tmp_path / "c.tum").read_text() == path.read_text()

    @pytest.mark.parametrize("seed", range(3))
    def test_kitti_table_equals_object_reader_and_writer(self, tmp_path, seed):
        pairs = random_pairs(seed, 300)
        path = tmp_path / "a.kitti"
        path.write_text(object_kitti_text(pairs))
        table = trajio.read_kitti(path, frame_rate=20.0)
        assert_table_equals_pairs(table, object_read_kitti(path, frame_rate=20.0))
        trajio.write_kitti(tmp_path / "b.kitti", table)
        assert (tmp_path / "b.kitti").read_text() == object_kitti_text(table)
        trajio.write_kitti(tmp_path / "c.kitti", pairs)
        assert (tmp_path / "c.kitti").read_text() == path.read_text()

    def test_kitti_errors_name_the_first_bad_line(self, tmp_path):
        good = "1 0 0 0 0 1 0 0 0 0 1 0\n"
        drifted = "1.01 0 0 0 0 1 0 0 0 0 1 0\n"
        for lines, line in (
            ([good, drifted, good, "1 2 3\n"], 2),      # drift before a short line
            ([good, good, "1 2 3\n", drifted], 3),      # a short line before drift
            ([good, "1 0 0 nan 0 1 0 0 0 0 1 0\n", drifted], 2),
        ):
            path = tmp_path / "e.kitti"
            path.write_text("".join(lines))
            _, want = outcome(object_read_kitti, path)
            _, got = outcome(trajio.read_kitti, path)
            assert got == want and got[0] == line

    def test_kitti_errors_far_into_the_file(self, tmp_path):
        good = object_kitti_text(random_pairs(5, 600)).splitlines(keepends=True)
        for lines, line in (
            (good[:500] + ["1 0 0 0 0 1 0 0 0 0 1 x\n"] + good[500:], 501),
            (good[:20] + ["1 0 0 inf 0 1 0 0 0 0 1 0\n"] + good[20:500] + ["1 2\n"], 21),
            (good[:20] + ["1.01 0 0 0 0 1 0 0 0 0 1 0\n"] + good[20:500] + ["1 2\n"], 21),
            (good[:500] + ["1.01 0 0 0 0 1 0 0 0 0 1 0\n", "1 0 0 0 0 1 0 0 0 0 1 nan\n"], 501),
        ):
            path = tmp_path / "e.kitti"
            path.write_text("".join(lines))
            _, want = outcome(object_read_kitti, path)
            _, got = outcome(trajio.read_kitti, path)
            assert got == want and got[0] == line

    def test_table_sequence_behaviour(self):
        pairs = random_pairs(4, 5, half_turns=False)
        table = FrameTable.of(pairs)
        assert FrameTable.of(table) is table
        assert_table_equals_pairs(table, pairs)
        assert len(FrameTable.of([])) == 0
        fid, pose = table[-1]
        assert fid == pairs[-1][0] and same_bits(pose.translation, pairs[-1][1].translation)
        assert table[1:3].ids() == [fid for fid, _ in pairs[1:3]]
        for outside in (5, -6):
            with pytest.raises(IndexError):
                table[outside]
        assert [fid for fid, _ in table] == table.ids()


# Fields that parse to the same float in different spellings, plus the
# signed zeros and half-turn quaternions whose sign rule the reader must
# reproduce.
COORD = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -1e-300]
)
QUAT = st.sampled_from([
    (0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, -1.0), (1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0),
    (0.0, -1.0, 0.0, 0.0), (-0.0, -0.0, -1.0, 0.0), (0.0, 0.0, -1.0, -0.0),
    (-0.6, 0.8, 0.0, 0.0), (0.5, -0.5, 0.5, -0.5), (0.0, 0.0, 0.0, 1.0005),
]) | st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 4).filter(
    lambda q: sum(v * v for v in q) > 0.01
).map(lambda q: tuple(v / math.sqrt(sum(u * u for u in q)) for v in q))


@st.composite
def tum_line(draw):
    stamp = draw(st.sampled_from([0.0, -0.0, 1.0, 2.5]) | COORD)
    fields = [repr(stamp)] + [repr(draw(COORD)) for _ in range(3)]
    fields += [repr(v) for v in draw(QUAT)]
    fault = draw(st.sampled_from(["none"] * 12 + [
        "short", "long", "word", "nan", "inf", "norm", "comment", "blank", "spelling",
    ]))
    k = draw(st.integers(0, 7))
    if fault == "short":
        del fields[k]
    elif fault == "long":
        fields.append("0")
    elif fault == "word":
        fields[k] = "x1"
    elif fault in ("nan", "inf"):
        fields[k] = draw(st.sampled_from([fault, "-" + fault, fault.upper()]))
    elif fault == "norm":
        fields[4:] = [repr(1.01 * float(v)) if v not in ("0.0", "-0.0") else "1.1" for v in fields[4:]]
    elif fault == "comment":
        return "# " + " ".join(fields)
    elif fault == "blank":
        return "   "
    elif fault == "spelling":
        fields[k] = draw(st.sampled_from(["+1", "1e0", "1_0", "1.", ".5", "-0"]))
    sep = draw(st.sampled_from([" ", "\t", "  "]))
    return sep.join(fields)


class TestRandomTumText:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(tum_line(), max_size=12))
    def test_reads_like_the_object_reader_or_raises_at_the_same_line(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("tum") / "r.tum"
        path.write_text("\n".join(lines) + "\n")
        want, want_error = outcome(object_read_tum, path)
        got, got_error = outcome(trajio.read_tum, path)
        assert got_error == want_error
        if want is None:
            return
        assert_table_equals_pairs(got, want)
        # Written with repr, read back exactly: stamps and translations are
        # unchanged and each quaternion is normalized once more.
        again_path = path.with_suffix(".out.tum")
        trajio.write_tum(again_path, got)
        assert again_path.read_text() == object_tum_text(want)
        again = trajio.read_tum(again_path)
        assert same_bits(again.stamps, got.stamps) and same_bits(again.t, got.t)
        assert same_bits(again.q, quat_normalize(got.q))
        assert again.indices.tolist() == list(range(len(got)))


def long_tum_lines():
    """A comment line and 1,500 valid TUM lines."""
    return object_tum_text(random_pairs(6, 1500)).splitlines(keepends=True)


def with_line(lines, k, text):
    return lines[:k] + [text] + lines[k:]


LONG_FILE_CASES = {
    # name: (file text from the valid lines, line of the first error or None)
    "non-numeric far into the file": (
        lambda v: "".join(with_line(v, 1000, "1 2 3 x 0 0 0 1\n")), 1001),
    "non-finite row before a later short row": (
        lambda v: "".join(with_line(with_line(v, 1000, "1 2 3\n"), 10, "1 2 3 nan 0 0 0 1\n")), 11),
    "short row before a later non-finite row": (
        lambda v: "".join(with_line(with_line(v, 1000, "1 2 3 nan 0 0 0 1\n"), 10, "1 2 3\n")), 11),
    "non-finite row two lines before a non-numeric row": (
        lambda v: "".join(with_line(with_line(v, 12, "1 2 3 x 0 0 0 1\n"), 10, "1 2 3 inf 0 0 0 1\n")),
        11),
    "short row two lines before a non-numeric row": (
        lambda v: "".join(with_line(with_line(v, 12, "1 2 3 x 0 0 0 1\n"), 10, "1 2 3\n")), 11),
    "quaternion norm far into the file": (
        lambda v: "".join(with_line(v, 1000, "1 2 3 4 0 0 0 2\n")), 1001),
    "CRLF endings": (lambda v: "".join(v).replace("\n", "\r\n"), None),
    "CR endings": (lambda v: "".join(v).replace("\n", "\r"), None),
    "CR endings, error far into the file": (
        lambda v: "".join(with_line(v, 1000, "x\n")).replace("\n", "\r"), 1001),
    # str.splitlines would end a line at \x0c or \x1c; a file does not, and
    # str.split takes them as whitespace between fields.
    "form feed between fields": (
        lambda v: "".join(with_line(v, 700, v[700].replace(" ", "\x0c", 1))), None),
    "form feed joining two lines": (
        lambda v: "".join(v[:700] + [v[700].rstrip("\n") + "\x0c"] + v[701:]), 701),
    "file separator between fields, error after it": (
        lambda v: "".join(with_line(with_line(v, 1200, "1\n"), 700, v[5].replace(" ", "\x1c", 1))),
        1202),
    "last line without newline": (lambda v: "".join(v).rstrip("\n"), None),
    "bad last line without newline": (lambda v: "".join(v) + "1 2 3 4", 1502),
    "comments and blank lines throughout": (
        lambda v: "".join(line if k % 3 else "  # c\n\n" + line for k, line in enumerate(v)), None),
}


class TestLongFiles:
    """The line reader against the one-line reader on files of 1,500 lines
    with odd line endings and errors far into the file."""

    @pytest.mark.parametrize("case", sorted(LONG_FILE_CASES))
    def test_tum_reads_like_the_object_reader(self, tmp_path, case):
        text, line = LONG_FILE_CASES[case]
        path = tmp_path / "b.tum"
        path.write_bytes(text(long_tum_lines()).encode("utf-8"))
        want, want_error = outcome(object_read_tum, path)
        got, got_error = outcome(trajio.read_tum, path)
        assert got_error == want_error
        assert (want_error and want_error[0]) == line
        if want is not None:
            assert_table_equals_pairs(got, want)


# -- whole runs against the object path ---------------------------------------------


def object_trajectory(frames, positions):
    """``from_world_poses`` one ``Pose`` product at a time."""
    positions = sorted(set(positions))
    keyframes = [frames[p] for p in positions]
    stamps = [fid.stamp for fid, _ in keyframes]
    rels, parents = [], []
    for k, (fid, world) in enumerate(frames):
        if k in positions:
            continue
        parents.append(bisect.bisect_right(stamps, fid.stamp) - 1)
        rels.append((fid, keyframes[parents[-1]][1].inverse() * world))
    return Trajectory(FrameTable.of(keyframes), FrameTable.of(rels), parents)


def object_correct(traj, updates, cfg):
    """World poses after the scalar reference of method ``cfg`` on each full
    segment, composed with ``Pose.__mul__`` and sorted by (stamp, index);
    the terminal segment's frames ride on the last keyframe."""
    out = [(fid, upd.new_pose) for fid, upd in zip(traj.kf.ids(), updates)]
    batch = traj.full_segments()
    for k in range(len(batch.index)):
        poses, _ = reference_correct(batch, k, updates, cfg)
        out += [(fid, updates[k].new_pose * pose) for (fid, _), pose in zip(segment_rels(batch, k), poses)]
    last = updates[len(traj.kf) - 1].new_pose
    out += [(fid, last * pose) for fid, pose in traj.rel.take(slice(traj.offsets[-2], None))]
    out.sort(key=lambda item: (item[0].stamp, item[0].index))
    return out


def write_kf_index(path, frames, positions):
    path.write_text("# keyframe frame indices\n" + "".join(f"{frames[p][0].index}\n" for p in positions))


class TestRunsEqualObjectPath:
    def test_correct_at_the_correct_forward_size(self, tmp_path):
        # 200 keyframes with 49 frames between each pair (9,951 frames); the
        # update files hold only the keyframes, the old ones displaced from
        # the trajectory, so that the CLI rebases.
        spec = SceneSpec(shape="forward", n_keyframes=200, rels_per_segment=49, seed=0)
        frames = path_world_poses(spec)
        positions = keyframe_positions(spec)
        old = fixtures.displaced_estimate([frames[p] for p in positions], [], seed=1)
        new = fixtures.displaced_estimate([frames[p] for p in positions], [], seed=2)
        trajio.write_tum(tmp_path / "traj.tum", frames)
        write_kf_index(tmp_path / "kf.txt", frames, positions)
        trajio.write_tum(tmp_path / "old.tum", old)
        trajio.write_tum(tmp_path / "new.tum", new)
        assert main([
            "correct", "--traj", str(tmp_path / "traj.tum"), "--kf-index", str(tmp_path / "kf.txt"),
            "--kf-old", str(tmp_path / "old.tum"), "--kf-new", str(tmp_path / "new.tum"),
            "--out", str(tmp_path / "out"),
        ]) == 0

        read = object_read_tum(tmp_path / "traj.tum")
        old_read, new_read = object_read_tum(tmp_path / "old.tum"), object_read_tum(tmp_path / "new.tum")
        traj = object_trajectory(read, positions)
        parents = traj.parents.tolist()
        rels = [(fid, old_read[p][1].inverse() * (traj.kf[p][1] * rel))
                for (fid, rel), p in zip(traj.rel, parents)]
        kf = FrameTable.of((fid, pose) for fid, (_, pose) in zip(traj.kf.ids(), old_read))
        traj = Trajectory(kf, FrameTable.of(rels), parents)
        updates = [
            KeyframeUpdate(i, o, n) for i, ((_, o), (_, n)) in enumerate(zip(old_read, new_read))
        ]
        want = object_correct(traj, updates, MethodConfig("proposed"))
        assert (tmp_path / "out" / "corrected.tum").read_text() == object_tum_text(want)

    def test_evaluate_at_the_evaluate_all_size(self, tmp_path):
        # 300 keyframes with 9 frames between each pair (2,701 frames).
        spec = SceneSpec(shape="mav", n_keyframes=300, rels_per_segment=9, seed=0)
        gt = path_world_poses(spec)
        positions = keyframe_positions(spec)
        est = fixtures.displaced_estimate(gt, positions, seed=0)
        trajio.write_tum(tmp_path / "est.tum", est)
        trajio.write_tum(tmp_path / "gt.tum", gt)
        write_kf_index(tmp_path / "kf.txt", gt, positions)
        assert main([
            "evaluate", "--traj", str(tmp_path / "est.tum"), "--gt", str(tmp_path / "gt.tum"),
            "--kf-index", str(tmp_path / "kf.txt"), "--methods", "all", "--out", str(tmp_path / "out"),
        ]) == 0

        est_read, gt_read = object_read_tum(tmp_path / "est.tum"), object_read_tum(tmp_path / "gt.tum")
        traj = object_trajectory(est_read, positions)
        gt_at = {fid.stamp: pose for fid, pose in gt_read}  # the stamps coincide
        updates = [KeyframeUpdate(i, pose, gt_at[fid.stamp]) for i, (fid, pose) in enumerate(traj.kf)]
        rel_ids = set(traj.rel.ids())
        for name in METHODS:
            world = object_correct(traj, updates, MethodConfig(name))
            rows = [
                [repr(fid.stamp), str(fid.index),
                 repr(float(np.linalg.norm(pose.translation - gt_at[fid.stamp].translation)) * 100.0),
                 repr(rotation_angle_deg_scalar(pose.rotation, gt_at[fid.stamp].rotation))]
                for fid, pose in world if fid in rel_ids
            ]
            with open(tmp_path / "out" / f"frame_errors_{name}.csv", newline="") as fh:
                assert list(csv.reader(fh))[1:] == rows, name

    def test_frame_errors_equal_on_pairs_and_tables(self):
        traj, gt = fixtures.noisy_fixture(3)
        est = world_poses(traj)
        by_table = frame_errors(est, FrameTable.of(gt))
        by_pairs = frame_errors(list(est), gt)
        for a, b in zip(
            (by_table.stamps, by_table.translation_cm, by_table.rotation_deg),
            (by_pairs.stamps, by_pairs.translation_cm, by_pairs.rotation_deg),
        ):
            assert same_bits(a, b)


# -- objects built on the hot path ----------------------------------------------------


@pytest.fixture()
def pose_counter(monkeypatch):
    """Counts ``Pose`` and canonical ``Rotation`` constructions."""
    counts = {"n": 0}
    pose_init, from_canonical = Pose.__init__, Rotation._from_canonical.__func__

    def counted_init(self, *args, **kwargs):
        counts["n"] += 1
        pose_init(self, *args, **kwargs)

    def counted_canonical(cls, q):
        counts["n"] += 1
        return from_canonical(cls, q)

    monkeypatch.setattr(Pose, "__init__", counted_init)
    monkeypatch.setattr(Rotation, "_from_canonical", classmethod(counted_canonical))
    return counts


def test_cli_builds_no_object_per_frame(tmp_path, pose_counter):
    spec = SceneSpec(shape="mav", n_keyframes=201, rels_per_segment=9, seed=4)
    gt = path_world_poses(spec)
    positions = keyframe_positions(spec)
    est = fixtures.displaced_estimate(gt, positions, seed=4)
    trajio.write_tum(tmp_path / "est.tum", est)
    trajio.write_tum(tmp_path / "gt.tum", gt)
    trajio.write_tum(tmp_path / "old.tum", [est[p] for p in positions])
    trajio.write_tum(tmp_path / "new.tum", [gt[p] for p in positions])
    write_kf_index(tmp_path / "kf.txt", gt, positions)
    relatives = len(gt) - len(positions)
    assert len(gt) >= 2000
    runs = {
        "correct": ["--kf-old", str(tmp_path / "old.tum"), "--kf-new", str(tmp_path / "new.tum")],
        "evaluate": ["--gt", str(tmp_path / "gt.tum")],
    }
    for command, extra in runs.items():
        pose_counter["n"] = 0
        assert main([
            command, "--traj", str(tmp_path / "est.tum"), "--kf-index", str(tmp_path / "kf.txt"),
            *extra, "--methods", "proposed", "--out", str(tmp_path / command),
        ]) == 0
        assert pose_counter["n"] < relatives, command
    # The counter sees the object path.
    pose_counter["n"] = 0
    list(from_world_poses(gt, positions).rel)
    assert pose_counter["n"] >= relatives


def test_table_builds_its_pairs_once(pose_counter):
    table = FrameTable.of(random_pairs(6, 50, half_turns=False))
    pose_counter["n"] = 0
    first = list(table)
    built = pose_counter["n"]
    assert built >= len(table)
    # Two more passes, as a caller reading stamps, translations and
    # quaternions one after another makes, reuse the same pairs.
    assert all(a is b for (_, a), (_, b) in zip(table, first))
    assert len(list(table)) == len(first)
    assert pose_counter["n"] == built


# -- synthetic generators against their per-frame forms ------------------------------


def assert_same_bits_as_pairs(table, pairs):
    """``table`` is a :class:`FrameTable` whose every array has the bits of
    the table of ``pairs``."""
    assert isinstance(table, FrameTable)
    want = FrameTable.of(pairs)
    for got, expected in zip(
        (table.stamps, table.indices, table.q, table.t), (want.stamps, want.indices, want.q, want.t)
    ):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("shape", sorted(PATHS))
def test_path_equals_its_per_frame_form(monkeypatch, shape, seed):
    assert sorted(SCALAR_PATHS) == sorted(PATHS)
    for n_keyframes, rels_per_segment in ((8, 4), (3, 0), (30, 9)):
        spec = SceneSpec(shape=shape, n_keyframes=n_keyframes, rels_per_segment=rels_per_segment,
                         seed=seed)
        got, got_states = with_generator_states(monkeypatch, lambda: path_world_poses(spec))
        want, want_states = with_generator_states(monkeypatch, lambda: path_world_poses_scalar(spec))
        assert_same_bits_as_pairs(got, want)
        assert got_states == want_states and len(got_states) == 1
        stamps, positions = frame_grid(n_keyframes, rels_per_segment)
        assert (stamps.tolist(), positions.tolist()) == frame_grid_scalar(n_keyframes, rels_per_segment)
        assert keyframe_positions(spec) == positions.tolist()


@pytest.mark.parametrize("magnitude", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("keyframes", ["none", "all", "every 10th"])
def test_displaced_estimate_equals_its_per_frame_form(monkeypatch, magnitude, keyframes):
    gt = path_world_poses(SceneSpec(shape="mav", n_keyframes=30, rels_per_segment=9, seed=2))
    positions = {"none": [], "all": list(range(len(gt))), "every 10th": list(range(0, len(gt), 10))}
    kf = positions[keyframes]
    got, got_states = with_generator_states(
        monkeypatch, lambda: fixtures.displaced_estimate(gt, kf, seed=3, magnitude=magnitude)
    )
    want, want_states = with_generator_states(
        monkeypatch, lambda: displaced_estimate_scalar(list(gt), kf, seed=3, magnitude=magnitude)
    )
    assert_same_bits_as_pairs(got, want)
    assert got_states == want_states and len(got_states) == 1
    # Pairs are accepted as input too.
    assert_same_bits_as_pairs(fixtures.displaced_estimate(list(gt), kf, seed=3, magnitude=magnitude), want)


@pytest.mark.parametrize("seed", range(6))
def test_noisy_fixture_equals_its_per_frame_form(monkeypatch, seed):
    (traj, gt), got_states = with_generator_states(monkeypatch, lambda: fixtures.noisy_fixture(seed))
    (want_traj, want_gt), want_states = with_generator_states(
        monkeypatch, lambda: noisy_fixture_scalar(seed)
    )
    assert_same_bits_as_pairs(gt, want_gt)
    assert_same_bits_as_pairs(traj.kf, want_traj.kf)
    assert_same_bits_as_pairs(traj.rel, want_traj.rel)
    assert traj.parents.tolist() == want_traj.parents.tolist()
    assert got_states == want_states and len(got_states) == 1


def test_generators_build_no_pose_per_frame(monkeypatch, pose_counter):
    rotation_init = Rotation.__init__

    def counted_init(self, *args, **kwargs):
        pose_counter["n"] += 1
        rotation_init(self, *args, **kwargs)

    sim = synth.SimilarityTransform.random(np.random.default_rng(1), scale=1.5)
    monkeypatch.setattr(Rotation, "__init__", counted_init)
    spec = SceneSpec(shape="mav", n_keyframes=50, rels_per_segment=9, seed=1, pixel_noise=0.5)
    gt = path_world_poses(spec)
    fixtures.displaced_estimate(gt, keyframe_positions(spec), seed=1)
    fixtures.noisy_fixture(1)
    scene = synth.generate_scene(spec)
    synth.perturb_keyframes_update(scene, 0.01, 0.01, np.random.default_rng(1))
    synth.reprojection_rms(scene, gt, synth.apply_similarity_update(scene, sim).landmarks)
    assert pose_counter["n"] == 0
    # The counter sees the per-frame forms.
    path_world_poses_scalar(spec)
    assert pose_counter["n"] >= len(gt)
