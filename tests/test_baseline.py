"""Element-wise vector-space interpolation: exact cases, the singular
regime, SO(3) safety of the devectorized output, and the batched kernel
against the per-segment one, bit for bit."""

import dataclasses
import math

import numpy as np
import pytest

from posecorrect import fixtures
from posecorrect.baseline import RotSpace, TransSpace, interp_correct_segment
from posecorrect.correction import keyframe_pairs
from posecorrect.liegeom import Pose, Rotation, euler_zyx_to, quat_matrix, so3_exp
from posecorrect.trajectory import (
    FrameId,
    FrameTable,
    KeyframeUpdate,
    KeyframeUpdates,
    Trajectory,
    from_world_poses,
    snap_to_gt,
)
from reference_kernels import (
    SegmentRecord,
    devectorize,
    interp_correct_segment_scalar,
    records_of,
    rotation_angle_deg_scalar,
    segment_rels,
    segment_trajectory,
    vectorize,
)

ALL_SPACES = [(ts, rs) for ts in TransSpace for rs in RotSpace]


def one_segment(kf_a_pose, kf_b_pose, rels):
    """A batch of one full segment between keyframes at ``kf_a_pose`` and
    ``kf_b_pose``, holding the relative poses ``rels``."""
    return segment_trajectory(kf_a_pose, kf_b_pose, rels).full_segments()


class TestVectorize:
    @pytest.mark.parametrize("ts,rs", ALL_SPACES)
    def test_identity_pose_gives_zero_vectors(self, ts, rs):
        tvec, rvec, _ = vectorize(Pose.identity(), ts, rs)
        np.testing.assert_array_equal(tvec, np.zeros(3))
        if rs is RotSpace.QUAT:
            np.testing.assert_array_equal(rvec, [1.0, 0.0, 0.0, 0.0])
        else:
            np.testing.assert_array_equal(rvec, np.zeros(3))

    def test_pure_translation_se3v_equals_translation(self):
        p = Pose(Rotation.identity(), (1.0, -2.0, 3.0))
        tvec, _, _ = vectorize(p, TransSpace.SE3_V, RotSpace.SO3)
        np.testing.assert_allclose(tvec, [1.0, -2.0, 3.0], atol=1e-15)

    def test_quat_vector_has_nonnegative_w(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            _, rvec, _ = vectorize(Pose(Rotation.random(rng), np.zeros(3)), TransSpace.XYZ, RotSpace.QUAT)
            assert rvec[0] >= 0.0

    @pytest.mark.parametrize("ts,rs", ALL_SPACES)
    def test_round_trip_away_from_degeneracies(self, ts, rs):
        rng = np.random.default_rng(7)
        n = 0
        while n < 200:
            p = Pose(Rotation.random(rng), rng.uniform(-5, 5, size=3))
            pitch = math.asin(min(1.0, max(-1.0, -quat_matrix(p.rotation.quat[None])[0, 2, 0])))
            if rs is RotSpace.EULER and abs(math.cos(pitch)) < 1e-3:
                continue
            n += 1
            q = devectorize(*vectorize(p, ts, rs)[:2], ts, rs)
            assert rotation_angle_deg_scalar(p.rotation, q.rotation) < 1e-9
            np.testing.assert_allclose(p.translation, q.translation, atol=1e-9)

    def test_gimbal_flag_counted(self):
        diag = SegmentRecord(0)
        p = Pose(euler_zyx_to((0.2, math.pi / 2, 0.0)), np.zeros(3))
        vectorize(p, TransSpace.XYZ, RotSpace.EULER, diag)
        assert diag.gimbal_hits == 1


class TestInterpCorrectSegment:
    def _identity_update_case(self, ts, rs):
        rng = np.random.default_rng(11)
        kf_a = Pose(Rotation.random(rng), rng.normal(size=3))
        kf_b = Pose(Rotation.random(rng), kf_a.translation + rng.normal(size=3))
        rels = [Pose(Rotation.random(rng), rng.uniform(-1, 1, size=3)) for _ in range(4)]
        updates = [KeyframeUpdate(0, kf_a, kf_a), KeyframeUpdate(1, kf_b, kf_b)]
        return one_segment(kf_a, kf_b, rels), updates, rels

    @pytest.mark.parametrize("ts,rs", ALL_SPACES)
    def test_identity_updates_leave_rels_unchanged(self, ts, rs):
        batch, updates, rels = self._identity_update_case(ts, rs)
        out, diag = interp_correct_segment_scalar(batch, 0, updates, ts, rs)
        for got, rel in zip(out, rels):
            assert rotation_angle_deg_scalar(got.rotation, rel.rotation) < 1e-12
            np.testing.assert_allclose(got.translation, rel.translation, atol=1e-12)

    @pytest.mark.parametrize("ts,rs", ALL_SPACES)
    def test_identity_updates_bitwise_in_vector_space(self, ts, rs):
        # With bitwise-equal old and new keyframe poses the correction term
        # is exactly zero bit for bit, so the interpolated vectors equal
        # the input vectors; only the final devectorization rounds.
        batch, (upd_a, upd_b), rels = self._identity_update_case(ts, rs)
        diag = SegmentRecord(0)
        t_ab_old = upd_a.old_pose.inverse() * upd_b.old_pose
        t_ab_new = upd_a.new_pose.inverse() * upd_b.new_pose
        tv_old, rv_old, _ = vectorize(t_ab_old, ts, rs, diag)
        tv_new, rv_new, _ = vectorize(t_ab_new, ts, rs, diag)
        np.testing.assert_array_equal(tv_new - tv_old, np.zeros_like(tv_old))
        np.testing.assert_array_equal(rv_new - rv_old, np.zeros_like(rv_old))
        out, _ = interp_correct_segment_scalar(batch, 0, [upd_a, upd_b], ts, rs)
        for got, rel in zip(out, rels):
            if ts is TransSpace.XYZ:
                np.testing.assert_array_equal(got.translation, rel.translation)

    def test_single_axis_doubling_in_xyz(self):
        # KF_b's new translation doubles along x only; a rel at the x
        # midpoint doubles its x while y and z are untouched.
        kf_a = Pose.identity()
        kf_b = Pose(Rotation.identity(), (2.0, 0.4, -0.6))
        rel = Pose(Rotation.identity(), (1.0, 0.25, 0.3))
        upd_a = KeyframeUpdate(0, kf_a, kf_a)
        upd_b = KeyframeUpdate(1, kf_b, Pose(Rotation.identity(), (4.0, 0.4, -0.6)))
        out, _ = interp_correct_segment_scalar(
            one_segment(kf_a, kf_b, [rel]), 0, [upd_a, upd_b], TransSpace.XYZ, RotSpace.QUAT
        )
        np.testing.assert_allclose(out[0].translation, [2.0, 0.25, 0.3], atol=1e-12)

    def test_pure_scale_on_1d_line_is_exact(self):
        # 1-D translation-only trajectory under a pure scale update: XYZ
        # interpolation reproduces the scaled positions exactly.
        scale = 1.7
        kf_a = Pose.identity()
        kf_b = Pose(Rotation.identity(), (0.0, 0.0, 2.0))
        rels = [Pose(Rotation.identity(), (0.0, 0.0, z)) for z in (0.5, 1.0, 1.5)]
        upd_a = KeyframeUpdate(0, kf_a, kf_a)
        upd_b = KeyframeUpdate(1, kf_b, Pose(Rotation.identity(), (0.0, 0.0, 2.0 * scale)))
        out, _ = interp_correct_segment_scalar(
            one_segment(kf_a, kf_b, rels), 0, [upd_a, upd_b], TransSpace.XYZ, RotSpace.QUAT
        )
        for got, rel in zip(out, rels):
            np.testing.assert_allclose(
                got.translation, rel.translation * scale, atol=1e-12
            )

    def _singular_case(self):
        # The x component of the old inter-keyframe translation is exactly
        # zero while the update moves KF_b 1 cm along x.
        kf_a = Pose.identity()
        kf_b = Pose(Rotation.identity(), (0.0, 0.0, 1.0))
        rel = Pose(Rotation.identity(), (0.2, 0.0, 0.5))
        upd_a = KeyframeUpdate(0, kf_a, kf_a)
        upd_b = KeyframeUpdate(1, kf_b, Pose(Rotation.identity(), (0.01, 0.0, 1.0)))
        return one_segment(kf_a, kf_b, [rel]), [upd_a, upd_b]

    def test_singular_component_guarded_by_default(self):
        batch, updates = self._singular_case()
        out, diag = interp_correct_segment_scalar(batch, 0, updates, TransSpace.XYZ, RotSpace.QUAT)
        assert diag.singular_hits >= 1
        # Guarded: no correction on the singular component, rest intact.
        np.testing.assert_allclose(out[0].translation, [0.2, 0.0, 0.5], atol=1e-12)
        assert np.all(np.isfinite(out[0].translation))

    def test_singular_component_unbounded_with_raw_division(self):
        batch, updates = self._singular_case()
        out, diag = interp_correct_segment_scalar(
            batch, 0, updates, TransSpace.XYZ, RotSpace.QUAT, raw_division=True
        )
        assert diag.singular_hits >= 1
        assert not np.all(np.isfinite(out[0].translation))

    def test_se3v_counts_singular_hits_on_zero_baseline(self):
        rng = np.random.default_rng(3)
        kf_a = Pose(Rotation.random(rng), rng.normal(size=3))
        batch = one_segment(kf_a, kf_a, [Pose(so3_exp((0.1, 0, 0)), (0.05, 0, 0))])
        upd = KeyframeUpdate(0, kf_a, kf_a)
        out, diag = interp_correct_segment_scalar(batch, 0, [upd, upd], TransSpace.SE3_V, RotSpace.SO3)
        assert diag.singular_hits >= 1
        assert np.all(np.isfinite(out[0].translation))

    @pytest.mark.parametrize("ts,rs", ALL_SPACES)
    def test_outputs_always_on_so3(self, ts, rs):
        rng = np.random.default_rng(13)
        for _ in range(20):
            kf_a = Pose(Rotation.random(rng), rng.normal(size=3))
            kf_b = Pose(Rotation.random(rng), kf_a.translation + rng.normal(size=3))
            rels = [Pose(Rotation.random(rng), rng.uniform(-1, 1, 3)) for _ in range(3)]
            batch = one_segment(kf_a, kf_b, rels)
            upd_a = KeyframeUpdate(
                0, kf_a, Pose(Rotation.random(rng), kf_a.translation + rng.normal(0, 0.1, 3))
            )
            upd_b = KeyframeUpdate(
                1, kf_b, Pose(Rotation.random(rng), kf_b.translation + rng.normal(0, 0.1, 3))
            )
            out, _ = interp_correct_segment_scalar(batch, 0, [upd_a, upd_b], ts, rs)
            for pose in out:
                m = quat_matrix(pose.rotation.quat[None])[0]
                assert abs(np.linalg.det(m) - 1.0) < 1e-9
                assert np.max(np.abs(m.T @ m - np.eye(3))) < 1e-9

    def test_quat_renormalization_deviation_counted(self):
        # Large inconsistent rotation updates drive the element-wise
        # quaternion off the unit sphere by more than 1e-6.
        rng = np.random.default_rng(5)
        kf_a = Pose.identity()
        kf_b = Pose(so3_exp((0.0, 0.0, 0.4)), (0.0, 0.0, 1.0))
        rel = Pose(so3_exp((0.0, 0.0, 0.2)), (0.0, 0.0, 0.5))
        upd_a = KeyframeUpdate(0, kf_a, Pose(so3_exp((0.5, 0.0, 0.0)), (0.0, 0.0, 0.0)))
        upd_b = KeyframeUpdate(1, kf_b, Pose(so3_exp((0.0, 1.4, 0.3)), (0.3, 0.0, 1.0)))
        _, diag = interp_correct_segment_scalar(
            one_segment(kf_a, kf_b, [rel]), 0, [upd_a, upd_b], TransSpace.XYZ, RotSpace.QUAT
        )
        assert diag.quat_renorm_hits >= 1


# -- the batched kernel against the scalar reference, bit for bit ----------------


def same_values(a, b) -> bool:
    """Equal bit patterns outside NaN, so -0.0 differs from 0.0, and NaN in
    the same places."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (
        a.shape == b.shape
        and np.array_equal(nan, np.isnan(b))
        and a[~nan].tobytes() == b[~nan].tobytes()
    )


def assert_batch_equals_scalar(batch, updates, ts, rs, raw_division=False):
    """``interp_correct_segment`` on the full segments of ``batch`` against
    ``interp_correct_segment_scalar`` per segment: every pose and every
    record field."""
    q, t, columns = interp_correct_segment(
        batch, keyframe_pairs(batch, KeyframeUpdates.of(updates)), ts, rs, raw_division=raw_division
    )
    records = records_of(columns, batch.index)
    assert len(records) == len(batch.index)
    j = 0
    for k, record in enumerate(records):
        poses, want = interp_correct_segment_scalar(batch, k, updates, ts, rs, raw_division)
        assert repr(dataclasses.astuple(record)) == repr(dataclasses.astuple(want))
        assert len(poses) == len(segment_rels(batch, k))
        for pose in poses:
            assert same_values(q[j], pose.rotation.quat)
            assert same_values(t[j], pose.translation)
            j += 1
    assert j == len(q) == len(t)
    return records


def degenerate_trajectory():
    """Keyframes at positions 0, 3, 4, 7 and 10 of 12 frames: segment 0 has
    a zero baseline, segment 1 no frames, segment 2 a closing keyframe and
    two frames at pitch pi/2 relative to its opening keyframe, and segment
    4 is terminal."""
    rng = np.random.default_rng(41)
    frames = [
        (FrameId(0.1 * j, j), Pose(Rotation.random(rng), rng.normal(size=3)))
        for j in range(12)
    ]
    frames[3] = (frames[3][0], Pose(Rotation.random(rng), frames[0][1].translation))
    kf = frames[4][1]
    for j in (5, 6, 7):
        gimbal = Pose(euler_zyx_to((0.1 * j, 0.5 * math.pi, -0.2)), rng.normal(size=3))
        frames[j] = (frames[j][0], kf * gimbal)
    traj = from_world_poses(frames, [0, 3, 4, 7, 10])
    assert np.diff(traj.offsets).tolist() == [2, 0, 2, 2, 1]
    return traj


def perturbed_updates(traj, seed, rot=0.05, trans=0.02):
    rng = np.random.default_rng(seed)
    return [
        KeyframeUpdate(
            i,
            kf.world_pose,
            Pose(so3_exp(rng.normal(0.0, rot, 3)), rng.normal(0.0, trans, 3)) * kf.world_pose,
        )
        for i, kf in enumerate(traj.keyframes)
    ]


class TestBatchedBaseline:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("ts,rs", ALL_SPACES)
    def test_noisy_fixtures(self, ts, rs, seed):
        traj, gt = fixtures.noisy_fixture(seed)
        assert_batch_equals_scalar(traj.full_segments(), snap_to_gt(traj, gt), ts, rs)

    @pytest.mark.parametrize("raw_division", [False, True])
    @pytest.mark.parametrize("ts,rs", ALL_SPACES)
    def test_singular_fixture(self, ts, rs, raw_division):
        traj, gt = fixtures.singular_fixture()
        records = assert_batch_equals_scalar(
            traj.full_segments(), snap_to_gt(traj, gt), ts, rs, raw_division
        )
        assert sum(rec.singular_hits for rec in records) > 0

    @pytest.mark.parametrize("ts,rs", ALL_SPACES)
    def test_empty_segment_degenerate_baseline_and_gimbal(self, ts, rs):
        traj = degenerate_trajectory()
        records = assert_batch_equals_scalar(
            traj.full_segments(), perturbed_updates(traj, seed=42), ts, rs
        )
        assert records[0].singular_hits > 0
        if rs is RotSpace.EULER:
            # Segment 2's two frames, and the closing keyframe of segment
            # 2 seen from its opening one, before and after the update.
            assert records[2].gimbal_hits >= 2
            assert records[1].gimbal_hits == 0

    def test_cancelled_quaternion_falls_back_to_identity(self):
        # The old inter-keyframe rotation is the identity and the new one a
        # half-turn, so an identity relative rotation cancels to exactly
        # zero in every component.
        kf_b = Pose(Rotation.identity(), (0.0, 0.0, 1.0))
        batch = one_segment(Pose.identity(), kf_b, [Pose(Rotation.identity(), (0.0, 0.0, 0.5))])
        turned = Pose(Rotation((0.0, 1.0, 0.0, 0.0)), (0.0, 0.0, 1.0))
        updates = [KeyframeUpdate(0, Pose.identity(), Pose.identity()), KeyframeUpdate(1, kf_b, turned)]
        (record,) = assert_batch_equals_scalar(batch, updates, TransSpace.XYZ, RotSpace.QUAT)
        assert record.quat_renorm_hits == 1
        q, _, _ = interp_correct_segment(
            batch, keyframe_pairs(batch, KeyframeUpdates.of(updates)), TransSpace.XYZ, RotSpace.QUAT
        )
        assert q.tolist() == [[1.0, 0.0, 0.0, 0.0]]

    def test_empty_batch(self):
        # One keyframe: the trajectory has no full segment.
        traj = Trajectory(FrameTable.of([(FrameId(0.0, 0), Pose.identity())]), FrameTable.of([]), [])
        batch = traj.full_segments()
        q, t, columns = interp_correct_segment(
            batch, keyframe_pairs(batch, KeyframeUpdates.of([])), TransSpace.SE3_V, RotSpace.SO3
        )
        assert q.shape == (0, 4) and t.shape == (0, 3)
        assert {name: len(column) for name, column in columns.items()} == {
            "singular_hits": 0, "gimbal_hits": 0, "quat_renorm_hits": 0
        }
