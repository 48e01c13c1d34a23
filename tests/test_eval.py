"""Evaluation protocol: error metrics, statistics, the method registry,
the whole-trajectory driver and the timing harness."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posecorrect import evaluate, fixtures
from posecorrect.baseline import RotSpace, TransSpace
from posecorrect.evaluate import (
    METHODS,
    SEGMENT_DEFAULTS,
    ErrorStats,
    MethodConfig,
    SnapProtocol,
    TrajectoryDiagnostics,
    bench,
    correct_trajectory,
    frame_errors,
    write_diagnostics_csv,
    write_report_csv,
)
from posecorrect.liegeom import Pose, Rotation, rotation_angle_deg, so3_exp
from posecorrect.trajectory import (
    FrameId,
    KeyframeUpdate,
    from_world_poses,
    identity_updates,
    snap_to_gt,
    world_poses,
)
from reference_kernels import (
    SegmentRecord,
    bench_segment,
    correct_segment_scalar,
    reference_correct,
    rotation_angle_deg_scalar,
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
        for e in frame_errors(poses, poses):
            assert e.translation_cm == 0.0
            assert e.rotation_deg == 0.0

    def test_one_centimeter_shift(self):
        poses = self._random_poses(np.random.default_rng(2))
        est = [
            (fid, Pose(p.rotation, p.translation + np.array([0.01, 0.0, 0.0])))
            for fid, p in poses
        ]
        for e in frame_errors(est, poses):
            assert abs(e.translation_cm - 1.0) < 1e-9
            assert e.rotation_deg < 1e-9

    def test_equal_to_scalar_pose_arithmetic_bitwise(self):
        rng = np.random.default_rng(4)
        gt = self._random_poses(rng, n=200)
        est = [
            (fid, Pose(so3_exp(rng.normal(0, 0.1, 3)) * p.rotation, p.translation + rng.normal(0, 0.2, 3)))
            for fid, p in gt
        ]
        est[0] = gt[0]
        for (_, pe), (_, pg), err in zip(est, gt, frame_errors(est, gt)):
            assert err.translation_cm == float(np.linalg.norm(pe.translation - pg.translation)) * 100.0
            assert err.rotation_deg == rotation_angle_deg_scalar(pe.rotation, pg.rotation)

    def test_double_entry_against_independent_recompute(self):
        rng = np.random.default_rng(3)
        gt = self._random_poses(rng)
        est = [
            (fid, Pose(so3_exp(rng.normal(0, 0.1, 3)) * p.rotation, p.translation + rng.normal(0, 0.2, 3)))
            for fid, p in gt
        ]
        errors = frame_errors(est, gt)
        for (fid, pe), (_, pg), err in zip(est, gt, errors):
            t_ref = float(np.sqrt(np.sum((pe.translation - pg.translation) ** 2))) * 100.0
            m = pe.rotation.matrix.T @ pg.rotation.matrix
            c = min(1.0, max(-1.0, (np.trace(m) - 1.0) / 2.0))
            r_ref = math.degrees(math.acos(c))
            assert abs(err.translation_cm - t_ref) < 1e-9
            assert abs(err.rotation_deg - r_ref) < 1e-6


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
                assert rotation_angle_deg(pa.rotation, pb.rotation) < 1e-10

    def test_terminal_segment_passthrough(self):
        # Frames after the last keyframe ride along with its updated pose in
        # every method; only the proposed method records s = 1.
        rng = np.random.default_rng(12)
        frames = [
            (FrameId(0.2 * j, j), Pose(Rotation.random(rng), rng.normal(size=3)))
            for j in range(6)
        ]
        traj = from_world_poses(frames, [0, 3])
        terminal = traj.segments[-1]
        assert terminal.terminal and len(terminal.rels) == 2
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
            for rel in terminal.rels:
                want = updates[-1].new_pose * rel.rel_pose
                np.testing.assert_array_equal(got[rel.id].translation, want.translation)
                np.testing.assert_array_equal(got[rel.id].rotation.quat, want.rotation.quat)

    def test_world_poses_equal_scalar_composition_bitwise(self):
        # One array pass composes every method's world poses; each must be
        # the scalar product of the updated opening keyframe and the pose
        # the scalar reference kernel gives (the stored relative pose for
        # no-correction), to the last bit.
        traj, gt = fixtures.noisy_fixture(1)
        updates = snap_to_gt(traj, gt)
        for name in METHODS:
            cfg = MethodConfig(name)
            world, _ = correct_trajectory(traj, updates, cfg)
            got = dict(world)
            for seg in traj.segments[:-1]:
                upd_a, upd_b = updates[seg.index], updates[seg.index + 1]
                poses, _ = reference_correct(seg, upd_a, upd_b, cfg)
                for rel, pose in zip(seg.rels, poses, strict=True):
                    want = upd_a.new_pose * pose
                    assert got[rel.id].rotation.quat.tobytes() == want.rotation.quat.tobytes()
                    assert got[rel.id].translation.tobytes() == want.translation.tobytes()

    def test_records_numbered_by_segment(self):
        # The table has one row per segment, numbered in order; only the row
        # of the terminal segment (here with two frames) is marked terminal.
        rng = np.random.default_rng(13)
        frames = [
            (FrameId(0.2 * j, j), Pose(Rotation.random(rng), rng.normal(size=3)))
            for j in range(9)
        ]
        traj = from_world_poses(frames, [0, 3, 6])
        updates = [
            KeyframeUpdate(i, kf.world_pose, Pose(Rotation.random(rng), rng.normal(size=3)))
            for i, kf in enumerate(traj.keyframes)
        ]
        n = len(traj.segments)
        assert n == 3 and len(traj.segments[-1].rels) == 2
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

    def test_frame_errors_scores_byte_equal_rows_once(self, monkeypatch):
        traj, gt = fixtures.noisy_fixture(2)
        est = correct_trajectory(traj, snap_to_gt(traj, gt), MethodConfig("xyz"))[0]
        scored = []
        angles = evaluate.rotation_angles_deg
        monkeypatch.setattr(evaluate, "rotation_angles_deg",
                            lambda q1, q2: scored.append(len(q1)) or angles(q1, q2))
        scores = {}
        first = frame_errors(est, gt, scores=scores)
        again = frame_errors(est.take(np.arange(len(est))), gt, scores=scores)
        assert scored == [len(est)]
        assert again.rotation_deg is first.rotation_deg
        assert again.translation_cm is first.translation_cm
        assert first.rotation_deg.tobytes() == frame_errors(est, gt).rotation_deg.tobytes()

    def test_relative_frames_only_are_scored(self):
        traj, gt = fixtures.noisy_fixture(4)
        report, errors = SnapProtocol(traj, gt).run(MethodConfig("no-correction"))
        assert report.translation.count == len(traj.relatives)
        rel_ids = {rel.id for rel in traj.relatives}
        assert all(e.frame in rel_ids for e in errors)


class TestBench:
    def test_small_fixture_timing_stats(self):
        seg, upd_a, upd_b = bench_segment()
        stats = bench(
            lambda fx: correct_segment_scalar(fx[0], fx[1], fx[2]),
            [(seg, upd_a, upd_b)],
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
