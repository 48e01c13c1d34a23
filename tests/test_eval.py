"""Evaluation protocol: error metrics, statistics, the method registry,
the whole-trajectory driver and the timing harness."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posecorrect import correction, evaluate, fixtures
from posecorrect.baseline import RotSpace, TransSpace
from posecorrect.correction import keyframe_pairs
from posecorrect.evaluate import (
    METHODS,
    SEGMENT_DEFAULTS,
    ErrorStats,
    MethodConfig,
    SnapProtocol,
    TrajectoryDiagnostics,
    bench,
    correct_trajectory,
    write_diagnostics_csv,
    write_report_csv,
)
from posecorrect.liegeom import Pose, Rotation, so3_exp
from posecorrect.synth import SceneSpec, keyframe_positions, path_world_poses
from posecorrect.trajectory import (
    AssociationError,
    FrameId,
    FrameTable,
    KeyframeUpdate,
    from_world_poses,
    snap_to_gt,
    world_poses,
)
from reference_kernels import (
    SegmentRecord,
    bench_segment,
    correct_segment_scalar,
    frame_errors,
    identity_updates,
    reference_correct,
    rotation_angle_deg_scalar,
    rotation_matrix_scalar,
    segment_rels,
    update_rows,
)


class TestErrorStats:
    def test_constant_list(self):
        stats = ErrorStats.from_values([2.5, 2.5, 2.5, 2.5])
        assert stats.mean == 2.5
        assert stats.std == 0.0
        assert stats.median == 2.5
        assert stats.count == 4

    def test_sample_std(self):
        stats = ErrorStats.from_values([1.0, 3.0])
        assert abs(stats.std - math.sqrt(2.0)) < 1e-12

    def test_single_value_std_zero(self):
        assert ErrorStats.from_values([7.0]).std == 0.0

    def test_median_within_range(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0, 10, size=101)
        stats = ErrorStats.from_values(vals)
        assert vals.min() <= stats.median <= vals.max()

    def test_empty(self):
        stats = ErrorStats.from_values([])
        assert stats.count == 0 and math.isnan(stats.mean)

    def test_format_convention(self):
        assert ErrorStats(1.234, 0.56, 0.987, 10).format() == "1.234+-0.56 (0.987)"

    @pytest.mark.parametrize("n", range(1, 65))
    def test_median_is_np_median_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324]
        cases = [rng.normal(size=n), np.full(n, -0.0), np.full(n, math.inf)]
        for _ in range(40):
            v = rng.normal(size=n) * 10.0 ** rng.integers(-5, 5)
            k = rng.integers(0, n + 1)
            v[rng.choice(n, size=k)] = rng.choice(specials, size=k)
            cases.append(v)
        with np.errstate(all="ignore"):  # inf - inf in the means, overflow in the std
            for v in cases:
                got = ErrorStats.from_values(v).median
                assert np.float64(got).tobytes() == np.median(v).tobytes(), v

    def test_median_of_nothing_is_nan(self):
        with pytest.warns(RuntimeWarning):
            want = np.median(np.array([]))
        assert math.isnan(ErrorStats.from_values([]).median) and math.isnan(want)


class TestFrameErrors:
    def _random_poses(self, rng, n=20):
        return [
            (FrameId(0.1 * i, i), Pose(Rotation.random(rng), rng.normal(size=3)))
            for i in range(n)
        ]

    def test_est_equals_gt_all_zero(self):
        poses = self._random_poses(np.random.default_rng(1))
        errors = frame_errors(poses, poses)
        assert not errors.translation_cm.any() and not errors.rotation_deg.any()

    def test_one_centimeter_shift(self):
        poses = self._random_poses(np.random.default_rng(2))
        est = [
            (fid, Pose(p.rotation, p.translation + np.array([0.01, 0.0, 0.0])))
            for fid, p in poses
        ]
        errors = frame_errors(est, poses)
        assert (np.abs(errors.translation_cm - 1.0) < 1e-9).all()
        assert (errors.rotation_deg < 1e-9).all()

    def test_equal_to_scalar_pose_arithmetic_bitwise(self):
        rng = np.random.default_rng(4)
        gt = self._random_poses(rng, n=200)
        est = [
            (fid, Pose(so3_exp(rng.normal(0, 0.1, 3)) * p.rotation, p.translation + rng.normal(0, 0.2, 3)))
            for fid, p in gt
        ]
        est[0] = gt[0]
        errors = frame_errors(est, gt)
        for (_, pe), (_, pg), t_err, r_err in zip(
            est, gt, errors.translation_cm.tolist(), errors.rotation_deg.tolist()
        ):
            assert t_err == float(np.linalg.norm(pe.translation - pg.translation)) * 100.0
            assert r_err == rotation_angle_deg_scalar(pe.rotation, pg.rotation)

    def test_double_entry_against_independent_recompute(self):
        rng = np.random.default_rng(3)
        gt = self._random_poses(rng)
        est = [
            (fid, Pose(so3_exp(rng.normal(0, 0.1, 3)) * p.rotation, p.translation + rng.normal(0, 0.2, 3)))
            for fid, p in gt
        ]
        errors = frame_errors(est, gt)
        for (fid, pe), (_, pg), t_err, r_err in zip(
            est, gt, errors.translation_cm.tolist(), errors.rotation_deg.tolist()
        ):
            t_ref = float(np.sqrt(np.sum((pe.translation - pg.translation) ** 2))) * 100.0
            m = rotation_matrix_scalar(pe.rotation).T @ rotation_matrix_scalar(pg.rotation)
            c = min(1.0, max(-1.0, (np.trace(m) - 1.0) / 2.0))
            r_ref = math.degrees(math.acos(c))
            assert abs(t_err - t_ref) < 1e-9
            assert abs(r_err - r_ref) < 1e-6


class TestDriver:
    def test_identity_updates_keep_world_poses(self):
        traj, _ = fixtures.noisy_fixture(0)
        updates = identity_updates(traj)
        for name in METHODS:
            world, _ = correct_trajectory(traj, updates, MethodConfig(name))
            baseline = world_poses(traj)
            for (fa, pa), (fb, pb) in zip(baseline, world):
                assert fa == fb
                assert np.linalg.norm(pa.translation - pb.translation) < 1e-12
                assert rotation_angle_deg_scalar(pa.rotation, pb.rotation) < 1e-10

    def test_terminal_segment_passthrough(self):
        # Frames after the last keyframe ride along with its updated pose in
        # every method; only the proposed method records s = 1.
        rng = np.random.default_rng(12)
        frames = [
            (FrameId(0.2 * j, j), Pose(Rotation.random(rng), rng.normal(size=3)))
            for j in range(6)
        ]
        traj = from_world_poses(FrameTable.of(frames), [0, 3])
        terminal = traj.rel.take(slice(traj.offsets[-2], None))
        assert len(terminal) == 2 and traj.parents[-1] == len(traj.kf) - 1
        updates = [
            KeyframeUpdate(i, kf.world_pose, Pose(Rotation.random(rng), rng.normal(size=3)))
            for i, kf in enumerate(traj.keyframes)
        ]
        for name in METHODS:
            cfg = MethodConfig(name)
            world, diagnostics = correct_trajectory(traj, updates, cfg)
            record = SegmentRecord(*diagnostics.segments[-1].tolist())
            assert record.terminal is True
            if name == "proposed":
                assert record.s == 1.0
            else:
                assert math.isnan(record.s), name
            got = dict(world)
            for fid, rel in terminal:
                want = updates[-1].new_pose * rel
                np.testing.assert_array_equal(got[fid].translation, want.translation)
                np.testing.assert_array_equal(got[fid].rotation.quat, want.rotation.quat)

    @pytest.mark.parametrize("case", ["zero-yaw", "shared-stamps"])
    def test_not_finite_counts_kernel_rows_with_a_non_finite_value(self, case):
        # The raw-division baselines leave non-finite rows on the zero-yaw
        # input (Euler's infinite angle raises instead); the count is that
        # of the kernel's rows holding any, and (0, n) when every row is finite.
        traj, gt = _protocol_case(case)
        updates, batch = snap_to_gt(traj, gt), traj.full_segments()
        non_finite_methods = 0
        for name in (name for name in METHODS if name != "euler"):
            cfg = MethodConfig(name, raw_division=True)
            q, t, _ = METHODS[name].kernel(batch, lambda: keyframe_pairs(batch, updates), cfg)
            rows = int(np.count_nonzero(~np.isfinite(np.hstack((q, t))).all(axis=1)))
            _, diagnostics = correct_trajectory(traj, updates, cfg)
            assert diagnostics.not_finite == (rows, len(batch.rels)), name
            non_finite_methods += rows > 0
        assert non_finite_methods == (4 if case == "zero-yaw" else 0)

    def test_not_finite_counts_rows_with_a_non_finite_translation_alone(self, monkeypatch):
        traj, gt = _protocol_case("shared-stamps")
        kernel = correction.correct_segment

        def with_bad_translations(batch, pairs, scale_squared):
            q, t, columns = kernel(batch, pairs, scale_squared)
            t = t.copy()
            t[[1, 3], 2] = math.nan
            return q, t, columns

        monkeypatch.setattr(correction, "correct_segment", with_bad_translations)
        _, diagnostics = correct_trajectory(traj, snap_to_gt(traj, gt), MethodConfig("proposed"))
        assert diagnostics.not_finite == (2, len(traj.full_segments().rels))

    def test_world_poses_equal_scalar_composition_bitwise(self):
        # One array pass composes every method's world poses; each must be
        # the scalar product of the updated opening keyframe and the pose
        # the scalar reference kernel gives (the stored relative pose for
        # no-correction), to the last bit.
        traj, gt = fixtures.noisy_fixture(1)
        updates = snap_to_gt(traj, gt)
        rows = update_rows(updates)
        for name in METHODS:
            cfg = MethodConfig(name)
            world, _ = correct_trajectory(traj, updates, cfg)
            got = dict(world)
            batch = traj.full_segments()
            for k in range(len(batch.index)):
                poses, _ = reference_correct(batch, k, rows, cfg)
                for (fid, _), pose in zip(segment_rels(batch, k), poses, strict=True):
                    want = rows[k].new_pose * pose
                    assert got[fid].rotation.quat.tobytes() == want.rotation.quat.tobytes()
                    assert got[fid].translation.tobytes() == want.translation.tobytes()

    def test_records_numbered_by_segment(self):
        # The table has one row per segment, numbered in order; only the row
        # of the terminal segment (here with two frames) is marked terminal.
        rng = np.random.default_rng(13)
        frames = [
            (FrameId(0.2 * j, j), Pose(Rotation.random(rng), rng.normal(size=3)))
            for j in range(9)
        ]
        traj = from_world_poses(FrameTable.of(frames), [0, 3, 6])
        updates = [
            KeyframeUpdate(i, kf.world_pose, Pose(Rotation.random(rng), rng.normal(size=3)))
            for i, kf in enumerate(traj.keyframes)
        ]
        n = len(traj.offsets) - 1
        assert n == 3 and traj.offsets[-1] - traj.offsets[-2] == 2
        for name in METHODS:
            _, diagnostics = correct_trajectory(traj, updates, MethodConfig(name))
            assert diagnostics.segments["segment"].tolist() == list(range(n)), name
            assert diagnostics.segments["terminal"].tolist() == [False] * (n - 1) + [True], name

    def test_update_count_mismatch_rejected(self):
        traj, _ = fixtures.noisy_fixture(2)
        with pytest.raises(ValueError, match="one update per keyframe"):
            correct_trajectory(traj, [], MethodConfig("proposed"))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            MethodConfig("bspline")

    def test_method_space_pairing(self):
        cfg = MethodConfig("xyz", rot_space=RotSpace.SO3)
        assert cfg.spaces() == (TransSpace.XYZ, RotSpace.SO3)
        cfg = MethodConfig("euler", trans_space=TransSpace.SE3_V)
        assert cfg.spaces() == (TransSpace.SE3_V, RotSpace.EULER)
        with pytest.raises(ValueError):
            MethodConfig("proposed").spaces()


class TestRunProtocol:
    def test_gt_as_estimate_zero_for_every_method(self):
        scene_traj, gt = fixtures.noisy_fixture(3)
        from posecorrect.trajectory import from_world_poses

        kf_positions = [kf.id.index for kf in scene_traj.keyframes]
        # Build the estimate from the GT itself.
        positions = [i for i, (fid, _) in enumerate(gt) if fid.index in set(kf_positions)]
        traj = from_world_poses(gt, positions)
        for name in METHODS:
            report, errors = SnapProtocol(traj, gt).run(MethodConfig(name))
            assert report.translation.mean < 1e-10, name
            assert report.rotation.mean < 1e-8, name

    def test_pure_similarity_exact_for_every_method(self):
        # A clean similarity update scales every vectorization uniformly,
        # so even the element-wise baselines reproduce it; the proposed
        # method's advantage needs a non-similarity component.
        scene, update, target = fixtures.similarity_case(4)
        traj = scene.trajectory
        for name in METHODS:
            report, _ = SnapProtocol(traj, target).run(MethodConfig(name))
            assert report.translation.mean < 1e-9, name

    def test_perturbed_update_proposed_near_floor_baselines_above(self):
        traj, gt = fixtures.noisy_fixture(0)
        proposed, _ = SnapProtocol(traj, gt).run(MethodConfig("proposed"))
        for name in ("xyz", "se3-v", "no-correction"):
            report, _ = SnapProtocol(traj, gt).run(MethodConfig(name))
            assert report.translation.mean > 1.5 * proposed.translation.mean, name

    @pytest.mark.parametrize("spaces", [(TransSpace.XYZ, RotSpace.QUAT),
                                        (TransSpace.SE3_V, RotSpace.EULER),
                                        (TransSpace.SE3_V, RotSpace.SO3)])
    @pytest.mark.parametrize("raw_division", [False, True])
    def test_shared_runs_equal_a_fresh_protocol_per_method(self, spaces, raw_division):
        traj, gt = fixtures.noisy_fixture(1)
        protocol = SnapProtocol(traj, gt)
        for name in METHODS:
            cfg = MethodConfig(name, *spaces, raw_division=raw_division)
            shared_report, shared = protocol.run(cfg)
            fresh_report, fresh = SnapProtocol(traj, gt).run(cfg)
            assert repr(shared_report) == repr(fresh_report), name
            for column in ("stamps", "indices", "translation_cm", "rotation_deg"):
                assert getattr(shared, column).tobytes() == getattr(fresh, column).tobytes(), name

    def test_methods_share_one_stamp_and_index_column(self):
        traj, gt = fixtures.noisy_fixture(1)
        protocol = SnapProtocol(traj, gt)
        first = protocol.run(MethodConfig("no-correction"))[1]
        for name in METHODS:
            errors = protocol.run(MethodConfig(name))[1]
            assert errors.stamps is first.stamps and errors.indices is first.indices, name

    def test_protocol_scores_byte_equal_rows_once(self, monkeypatch):
        # xyz and se3-v interpolate rotation alike, in the quaternion space.
        traj, gt = fixtures.noisy_fixture(2)
        scored = []
        angles = evaluate.ERROR_COLUMNS["q"]
        monkeypatch.setitem(evaluate.ERROR_COLUMNS, "q",
                            lambda q, gt_q: scored.append(len(q)) or angles(q, gt_q))
        protocol = SnapProtocol(traj, gt)
        xyz_report, xyz = protocol.run(MethodConfig("xyz"))
        se3v_report, se3v = protocol.run(MethodConfig("se3-v"))
        assert scored == [len(traj.rel)]
        assert se3v.rotation_deg is xyz.rotation_deg and se3v_report.rotation is xyz_report.rotation
        assert se3v.translation_cm.tobytes() != xyz.translation_cm.tobytes()
        world = correct_trajectory(traj, snap_to_gt(traj, gt), MethodConfig("xyz"))[0]
        reference = frame_errors(world.take(traj.rel_rows), gt)
        assert xyz.rotation_deg.tobytes() == reference.rotation_deg.tobytes()

    def test_relative_frames_only_are_scored(self):
        traj, gt = fixtures.noisy_fixture(4)
        report, errors = SnapProtocol(traj, gt).run(MethodConfig("no-correction"))
        assert report.translation.count == len(traj.rel)
        scored = zip(errors.stamps.tolist(), errors.indices.tolist())
        assert {FrameId(*k) for k in scored} <= set(traj.rel.ids())


def _frames(stamps, q, t) -> FrameTable:
    return FrameTable(stamps, np.arange(len(stamps)), q, t)


def _protocol_case(name: str):
    """``(trajectory, ground truth)`` of a seeded protocol case."""
    spec = SceneSpec(shape="mav", n_keyframes=6, rels_per_segment=3, seed=41)
    gt, positions = path_world_poses(spec), keyframe_positions(spec)
    stamps = gt.stamps.copy()
    if name == "shared-stamps":
        # A relative frame at a keyframe's stamp on either side of it by
        # index, two relative frames that share a stamp, and two whose
        # stamps run against their indices.
        stamps[positions[1] + 1] = stamps[positions[1] - 1] = stamps[positions[1]]
        stamps[positions[3] + 2] = stamps[positions[3] + 1]
        swap = [positions[4] + 1, positions[4] + 2]
        stamps[swap] = stamps[swap[::-1]]
    if name == "one-keyframe":
        positions = [0]
    if name == "no-relative-frames":
        positions = list(range(len(gt)))
    if name == "zero-yaw":
        # Keyframes with zero yaw and a frame between them with yaw 0.3,
        # the second keyframe turned to yaw 0.1: under raw division the
        # baselines divide by the zero yaw gap.
        yaws, x = np.array([0.0, 0.3, 0.0]), np.array([0.0, 0.5, 1.0])
        q = np.column_stack((np.cos(yaws / 2), 0 * yaws, 0 * yaws, np.sin(yaws / 2)))
        t = np.column_stack((x, 0 * x, 0 * x))
        est = _frames(x, q, t)
        yaws[2] = 0.1
        gt_q = np.column_stack((np.cos(yaws / 2), 0 * yaws, 0 * yaws, np.sin(yaws / 2)))
        return from_world_poses(est, [0, 2]), _frames(x, gt_q, t)
    gt = _frames(stamps, gt.q, gt.t)
    est = fixtures.displaced_estimate(gt, positions, seed=42)
    return from_world_poses(est, positions), gt


def reference_run(traj, gt, cfg):
    """The protocol's report and errors the long way: the world table of
    ``correct_trajectory``, its relative rows, ``frame_errors`` and
    ``ErrorStats``."""
    world, diagnostics = correct_trajectory(traj, snap_to_gt(traj, gt), cfg)
    is_rel = np.zeros(len(world), dtype=bool)
    is_rel[traj.rel_rows] = True
    errors = frame_errors(world.take(is_rel), gt)
    report = evaluate.MethodReport(
        cfg.name, ErrorStats.from_values(errors.translation_cm),
        ErrorStats.from_values(errors.rotation_deg), diagnostics.singular_hits,
        diagnostics.gimbal_hits, diagnostics.degenerate_segments,
    )
    return report, errors


class TestProtocolAgainstReference:
    """``SnapProtocol.run`` composes and scores the relative frames alone,
    in segment order; the reference scores the relative rows of the world
    table, in ``(stamp, index)`` order.  They agree bit for bit."""

    @pytest.mark.parametrize("case", ["plain", "shared-stamps", "one-keyframe",
                                      "no-relative-frames", "zero-yaw"])
    @pytest.mark.parametrize("raw_division", [False, True])
    def test_every_method_equals_the_reference(self, case, raw_division):
        traj, gt = _protocol_case(case)
        if case == "shared-stamps":
            assert len(traj.rel) - len(np.unique(traj.rel.stamps)) == 2
            assert len(np.intersect1d(traj.rel.stamps, traj.kf.stamps)) == 1
        protocol = SnapProtocol(traj, gt)
        not_finite = 0
        for name in METHODS:
            cfg = MethodConfig(name, raw_division=raw_division)
            try:
                want_report, want = reference_run(traj, gt, cfg)
            except ValueError as error:  # euler on the zero yaw gap
                with pytest.raises(ValueError, match=str(error)):
                    protocol.run(cfg)
                continue
            report, errors = protocol.run(cfg)
            assert repr(report) == repr(want_report), name
            for column in ("stamps", "indices", "translation_cm", "rotation_deg"):
                assert getattr(errors, column).tobytes() == getattr(want, column).tobytes(), name
            not_finite += not np.isfinite(errors.translation_cm).all()
        assert not_finite == (4 if case == "zero-yaw" and raw_division else 0)

    def test_two_keyframes_sharing_a_stamp_are_rejected(self):
        gt = path_world_poses(SceneSpec(shape="mav", n_keyframes=3, rels_per_segment=1, seed=43))
        stamps = gt.stamps.copy()
        stamps[2] = stamps[0]
        with pytest.raises(AssociationError, match="strictly increasing"):
            from_world_poses(_frames(stamps, gt.q, gt.t), [0, 2, 4])


class TestBench:
    def test_small_fixture_timing_stats(self):
        batch, updates = bench_segment()
        stats = bench(
            lambda fx: correct_segment_scalar(fx[0], 0, fx[1]),
            [(batch, updates)],
            repetitions=50,
            warmup=5,
        )
        assert stats.count == 50
        assert stats.median > 0.0 and math.isfinite(stats.median)
        assert stats.mean > 0.0 and stats.std >= 0.0

    def test_proposed_and_so3_same_order_of_magnitude(self):
        # Reference timings put the slerp-based correction a few times
        # slower than the so(3) interpolation, same order of magnitude.
        # Wall-clock ordering is too flaky to pin down in CI, so only the
        # magnitude bound is asserted.
        traj, gt = fixtures.noisy_fixture(0)
        updates = snap_to_gt(traj, gt)
        medians = {}
        for name in ("so3", "proposed"):
            cfg = MethodConfig(name)
            stats = bench(
                lambda upd, cfg=cfg: correct_trajectory(traj, upd, cfg),
                [updates],
                repetitions=80,
                warmup=20,
            )
            medians[name] = stats.median
        ratio = medians["proposed"] / medians["so3"]
        assert 1.0 / 100.0 < ratio < 100.0


class TestSingularDiagnostics:
    def test_cross_module_singular_hit_counts(self):
        # The constructed singular fixture trips the per-component guard
        # for the element-wise spaces; the proposed correction performs no
        # such division and reports zero hits.
        traj, gt = fixtures.singular_fixture()
        se3v, _ = SnapProtocol(traj, gt).run(MethodConfig("se3-v"))
        proposed, _ = SnapProtocol(traj, gt).run(MethodConfig("proposed"))
        assert se3v.singular_hits >= 1
        assert proposed.singular_hits == 0
        assert proposed.degenerate_segments == 0


class TestReportCsv:
    def test_report_columns_and_determinism(self, tmp_path):
        traj, gt = fixtures.noisy_fixture(5)
        rows = []
        for name in ("no-correction", "proposed"):
            report, _ = SnapProtocol(traj, gt).run(MethodConfig(name))
            rows.append(("fixture5", report))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(p1, rows)
        write_report_csv(p2, rows)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == (
            "sequence,method,t_mean_cm,t_std_cm,t_median_cm,"
            "r_mean_deg,r_std_deg,r_median_deg,singular_hits,time_ms_median"
        )
        # Timing stays empty in evaluation reports.
        assert p1.read_text().splitlines()[1].endswith(",")


def _diagnostics_cell(value):
    """A bool as 0/1, a float by ``repr`` (``nan`` included), an int as is."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return repr(value)
    return value


def diagnostics_csv_oracle(table) -> bytes:
    """``diagnostics.csv`` written row by row and cell by cell, as the
    writer did when each segment was a record object."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(table.dtype.names)
    for row in table.tolist():
        writer.writerow([_diagnostics_cell(value) for value in row])
    return text.getvalue().encode("utf-8")


FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.225073858507201e-308]),
    st.floats(),
)
INTS = st.integers(-(2**63), 2**63 - 1)
ROWS = st.tuples(INTS, st.booleans(), FLOATS, st.booleans(), FLOATS, FLOATS, INTS, INTS, INTS)


class TestDiagnosticsCsv:
    def test_columns_and_cells_literal(self, tmp_path):
        # One column per table field, in order; bools as 0/1, floats by
        # repr (nan included), ints as they are.
        table = np.full(2, SEGMENT_DEFAULTS)
        table[0] = (7, False, 1.0 / 3.0, True, 0.1, 0.875, 2, 1, 4)
        table["segment"][1], table["terminal"][1] = 8, True
        path = tmp_path / "diagnostics.csv"
        write_diagnostics_csv(path, TrajectoryDiagnostics(table))
        assert path.read_bytes() == (
            b"segment,terminal,s,degenerate_baseline,alpha_min,alpha_max,"
            b"singular_hits,gimbal_hits,quat_renorm_hits\r\n"
            b"7,0,0.3333333333333333,1,0.1,0.875,2,1,4\r\n"
            b"8,1,nan,0,nan,nan,0,0,0\r\n"
        )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ROWS, max_size=20))
    @example([(2**63 - 1, True, -0.0, False, 5e-324, math.inf, -(2**63), 0, 1),
              (0, False, math.nan, True, -math.inf, -5e-324, 1, 2**40, -1)])
    def test_writer_equals_per_cell_oracle(self, tmp_path_factory, rows):
        table = np.array(rows, dtype=SEGMENT_DEFAULTS.dtype)
        path = tmp_path_factory.mktemp("diag") / "diagnostics.csv"
        write_diagnostics_csv(path, TrajectoryDiagnostics(table))
        assert path.read_bytes() == diagnostics_csv_oracle(table)
