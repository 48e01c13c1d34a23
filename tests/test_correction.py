"""Constraint-based correction: scale factor, condition solutions, the
fusion gap, interpolation factor, full-segment correction, and the batched
kernel against the per-segment one, bit for bit."""

import dataclasses
import math

import numpy as np
import pytest

from posecorrect import fixtures
from posecorrect.baseline import RotSpace, TransSpace, interp_correct_segment
from posecorrect.correction import correct_segment, keyframe_pairs
from posecorrect.evaluate import MethodConfig, correct_trajectory
from posecorrect.liegeom import Pose, Rotation, so3_exp
from posecorrect.synth import (
    SceneSpec,
    SimilarityTransform,
    generate_scene,
    keyframe_positions,
    path_world_poses,
)
from posecorrect.trajectory import (
    FrameId,
    KeyframeUpdate,
    KeyframeUpdates,
    Trajectory,
    from_world_poses,
    identity_updates,
    snap_to_gt,
)
from reference_kernels import (
    SegmentRecord,
    _segment_setup,
    bench_segment,
    condition_from_kf,
    correct_segment_scalar,
    fuse,
    fusion_gap,
    records_of,
    rotation_angle_deg_scalar,
    scale_factor,
    segment_rels,
    segment_trajectory,
    timestamp_fraction,
)


class TestScaleFactor:
    def test_equal_vectors_give_one(self):
        s, degenerate = scale_factor((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))
        assert s == 1.0
        assert not degenerate

    def test_doubled_vector_gives_two(self):
        s, _ = scale_factor((1.0, 0.0, 0.0), (2.0, 0.0, 0.0))
        assert s == 2.0

    def test_definitional_identity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            old = rng.uniform(-5, 5, size=3)
            new = rng.uniform(-5, 5, size=3)
            s, _ = scale_factor(old, new)
            assert abs(s * np.linalg.norm(old) - np.linalg.norm(new)) < 1e-12

    def test_degenerate_baseline_flagged(self):
        s, degenerate = scale_factor((1e-10, 0.0, 0.0), (1.0, 0.0, 0.0))
        assert degenerate and s == 1.0

    def test_squared_mode(self):
        s, _ = scale_factor((1.0, 0.0, 0.0), (2.0, 0.0, 0.0), squared=True)
        assert s == 4.0

    def test_always_finite_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            s, _ = scale_factor(rng.normal(0, 1e-9, 3), rng.normal(size=3))
            assert math.isfinite(s) and s > 0


class TestConditionSolution:
    def test_unit_scale_reproduces_rel_pose(self):
        rng = np.random.default_rng(2)
        rel = Pose(Rotation.random(rng), rng.normal(size=3))
        rot, trans = condition_from_kf(rel, 1.0)
        assert rot is rel.rotation
        np.testing.assert_array_equal(trans, rel.translation)

    def test_scale_two(self):
        rel = Pose(so3_exp((0.1, 0.2, 0.3)), (1.0, 0.0, 0.0))
        rot, trans = condition_from_kf(rel, 2.0)
        np.testing.assert_array_equal(trans, [2.0, 0.0, 0.0])
        assert rotation_angle_deg_scalar(rot, rel.rotation) == 0.0

    def test_both_keyframe_conditions_agree_under_similarity(self):
        # Under a similarity update the Eq.-12-style and Eq.-13-style
        # solutions imply the same world pose for the frame.
        rng = np.random.default_rng(3)
        kf_a = Pose(Rotation.random(rng), rng.normal(size=3))
        kf_b = Pose(Rotation.random(rng), rng.normal(size=3))
        frame = Pose(Rotation.random(rng), rng.normal(size=3))
        sim = SimilarityTransform(Rotation.random(rng), rng.normal(size=3), 1.7)

        rel_a = kf_a.inverse() * frame
        rel_b = kf_b.inverse() * frame
        s = 1.7
        sol_a = condition_from_kf(rel_a, s)
        sol_b = condition_from_kf(rel_b, s)
        world_a = sim.apply_pose(kf_a) * Pose(*sol_a)
        world_b = sim.apply_pose(kf_b) * Pose(*sol_b)
        assert rotation_angle_deg_scalar(world_a.rotation, world_b.rotation) < 1e-9
        np.testing.assert_allclose(world_a.translation, world_b.translation, atol=1e-9)


class TestFusionGap:
    def _consistent_geometry(self, rng):
        kf_a = Pose(Rotation.random(rng), rng.normal(size=3))
        kf_b = Pose(Rotation.random(rng), rng.normal(size=3))
        frame = Pose(Rotation.random(rng), rng.normal(size=3))
        return kf_a, kf_b, frame

    def test_identity_update_zero_gap(self):
        rng = np.random.default_rng(4)
        kf_a, kf_b, frame = self._consistent_geometry(rng)
        s = 1.0
        sol_a = condition_from_kf(kf_a.inverse() * frame, s)
        sol_b = condition_from_kf(kf_b.inverse() * frame, s)
        drot, dtrans = fusion_gap(sol_a, sol_b, kf_a.inverse() * kf_b)
        assert rotation_angle_deg_scalar(drot, Rotation.identity()) < 1e-9
        assert np.linalg.norm(dtrans) < 1e-12

    def test_similarity_update_zero_gap(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            kf_a, kf_b, frame = self._consistent_geometry(rng)
            scale = rng.uniform(0.5, 2.0)
            sim = SimilarityTransform(Rotation.random(rng), rng.normal(size=3), scale)
            s = scale
            sol_a = condition_from_kf(kf_a.inverse() * frame, s)
            sol_b = condition_from_kf(kf_b.inverse() * frame, s)
            t_ab_new = sim.apply_pose(kf_a).inverse() * sim.apply_pose(kf_b)
            drot, dtrans = fusion_gap(sol_a, sol_b, t_ab_new)
            assert rotation_angle_deg_scalar(drot, Rotation.identity()) < 1e-9
            assert np.linalg.norm(dtrans) < 1e-9

    def test_inconsistent_update_closes_far_constraint_at_alpha_one(self):
        # KF_b perturbed by an extra centimeter along x: the gap is nonzero
        # and the fused pose at alpha = 1, composed through KF_b's updated
        # pose, satisfies KF_b's condition (direct substitution).
        rng = np.random.default_rng(6)
        kf_a, kf_b, frame = self._consistent_geometry(rng)
        rel_a = kf_a.inverse() * frame
        rel_b = kf_b.inverse() * frame
        s = 1.0
        sol_a = condition_from_kf(rel_a, s)
        rot_b, trans_b = sol_b = condition_from_kf(rel_b, s)
        kf_b_new = Pose(kf_b.rotation, kf_b.translation + np.array([0.01, 0.0, 0.0]))
        drot, dtrans = gap = fusion_gap(sol_a, sol_b, kf_a.inverse() * kf_b_new)
        assert np.linalg.norm(dtrans) > 1e-4

        fused = fuse(sol_a, gap, 1.0)
        world = kf_a * fused
        implied_rel_b = kf_b_new.inverse() * world
        assert rotation_angle_deg_scalar(implied_rel_b.rotation, rot_b) < 1e-9
        np.testing.assert_allclose(implied_rel_b.translation, trans_b, atol=1e-9)


def recorded_alpha(traj):
    """The alpha that the batched kernel records for a trajectory of one
    one-frame full segment under an identity update."""
    batch = traj.full_segments()
    _, _, columns = correct_segment(batch, keyframe_pairs(batch, identity_updates(traj)))
    (alpha,) = columns["alpha_min"].tolist()
    assert columns["alpha_max"].tolist() == [alpha]
    return alpha


class TestInterpFactor:
    def test_frame_at_opening_keyframe_gives_zero(self):
        kf_a = Pose.identity()
        kf_b = Pose(Rotation.identity(), (0.0, 0.0, 1.0))
        traj = segment_trajectory(kf_a, kf_b, [Pose.identity()])
        assert recorded_alpha(traj) == 0.0

    def test_equidistant_frame_gives_half(self):
        kf_a = Pose.identity()
        kf_b = Pose(Rotation.identity(), (0.0, 0.0, 1.0))
        traj = segment_trajectory(kf_a, kf_b, [Pose(Rotation.identity(), (0.0, 0.0, 0.5))])
        assert abs(recorded_alpha(traj) - 0.5) < 1e-12

    def test_uniform_speed_line_matches_arc_length_fraction(self):
        kf_a = Pose.identity()
        kf_b = Pose(Rotation.identity(), (0.0, 0.0, 2.0))
        fracs = [0.1, 0.25, 0.4, 0.65, 0.9]
        for f in fracs:
            traj = segment_trajectory(kf_a, kf_b, [Pose(Rotation.identity(), (0.0, 0.0, 2.0 * f))])
            assert abs(recorded_alpha(traj) - f) < 1e-12

    def test_coincident_geometry_falls_back_to_timestamps(self):
        kf_a = Pose.identity()
        traj = segment_trajectory(kf_a, kf_a, [Pose.identity()], stamps=[0.25])
        assert recorded_alpha(traj) == timestamp_fraction(traj.full_segments(), 0, 0.25)
        assert abs(recorded_alpha(traj) - 0.25) < 1e-12


class TestCorrectSegment:
    def test_identity_updates_reproduce_input(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            kf_a = Pose(Rotation.random(rng), rng.normal(size=3))
            kf_b = Pose(Rotation.random(rng), kf_a.translation + rng.normal(size=3))
            rels = [Pose(Rotation.random(rng), rng.uniform(-1, 1, 3)) for _ in range(4)]
            traj = segment_trajectory(kf_a, kf_b, rels)
            out, diag = correct_segment_scalar(traj.full_segments(), 0, identity_updates(traj))
            for got, rel in zip(out, rels):
                assert rotation_angle_deg_scalar(got.rotation, rel.rotation) < 1e-10
                np.testing.assert_allclose(got.translation, rel.translation, atol=1e-12)

    def test_alpha_zero_equals_condition_solution_exactly(self):
        rng = np.random.default_rng(9)
        kf_a = Pose(Rotation.random(rng), rng.normal(size=3))
        kf_b = Pose(Rotation.random(rng), rng.normal(size=3))
        # A relative frame coincident with KF_a has alpha = 0.
        rel = Pose(Rotation.random(rng), (0.0, 0.0, 0.0))
        batch = segment_trajectory(kf_a, kf_b, [rel]).full_segments()
        upd_a = KeyframeUpdate(0, kf_a, Pose(Rotation.random(rng), rng.normal(size=3)))
        upd_b = KeyframeUpdate(1, kf_b, Pose(Rotation.random(rng), rng.normal(size=3)))
        out, diag = correct_segment_scalar(batch, 0, [upd_a, upd_b])
        t_ab_old = upd_a.old_pose.inverse() * upd_b.old_pose
        t_ab_new = upd_a.new_pose.inverse() * upd_b.new_pose
        s, _ = scale_factor(t_ab_old.translation, t_ab_new.translation)
        rot, trans = condition_from_kf(rel, s)
        assert diag.alpha_min == 0.0
        np.testing.assert_allclose(out[0].rotation.quat, rot.quat, atol=1e-15)
        np.testing.assert_allclose(out[0].translation, trans, atol=1e-12)

    def test_similarity_update_recovers_transformed_gt(self):
        scene = generate_scene(SceneSpec(shape="mav", n_keyframes=5, seed=21))
        sim = SimilarityTransform.random(np.random.default_rng(22), scale=2.0)
        target = [(fid, sim.apply_pose(p)) for fid, p in scene.gt_world_poses()]
        traj = scene.trajectory
        updates = snap_to_gt(traj, target)
        target_map = dict(target)
        batch = traj.full_segments()
        for k in range(len(batch.index)):
            out, _ = correct_segment_scalar(batch, k, updates)
            base = updates[k].new_pose
            for (fid, _), pose in zip(segment_rels(batch, k), out):
                world = base * pose
                want = target_map[fid]
                assert rotation_angle_deg_scalar(world.rotation, want.rotation) < 1e-6
                assert np.linalg.norm(world.translation - want.translation) < 1e-9

    def test_scale_squared_mode_breaks_similarity_exactness(self):
        # The squared-norm reading of the baseline ratio is kept as a
        # switch; on a scale-2 similarity with off-axis relative frames it
        # is visibly wrong (on a pure 1-D line the gap blend would hide it).
        scene = generate_scene(SceneSpec(shape="mav", n_keyframes=4, seed=23))
        sim = SimilarityTransform(Rotation.identity(), np.zeros(3), 2.0)
        target = [(fid, sim.apply_pose(p)) for fid, p in scene.gt_world_poses()]
        traj = scene.trajectory
        updates = snap_to_gt(traj, target)
        batch = traj.full_segments()
        out, _ = correct_segment_scalar(batch, 0, updates, scale_squared=True)
        base = updates[0].new_pose
        target_map = dict(target)
        worst = max(
            np.linalg.norm((base * pose).translation - target_map[fid].translation)
            for (fid, _), pose in zip(segment_rels(batch, 0), out)
        )
        assert worst > 1e-2

    def test_zero_baseline_segment_no_nan(self):
        rng = np.random.default_rng(10)
        kf_pose = Pose(Rotation.random(rng), rng.normal(size=3))
        rels = [Pose(so3_exp((0.0, 0.0, 0.1 * j)), np.zeros(3)) for j in range(1, 4)]
        batch = segment_trajectory(kf_pose, kf_pose, rels).full_segments()
        upd_a = KeyframeUpdate(0, kf_pose, Pose(Rotation.random(rng), kf_pose.translation))
        upd_b = KeyframeUpdate(1, kf_pose, upd_a.new_pose)
        out, diag = correct_segment_scalar(batch, 0, [upd_a, upd_b])
        assert diag.degenerate_baseline
        for pose in out:
            assert np.all(np.isfinite(pose.translation))
            assert np.all(np.isfinite(pose.rotation.quat))
        # Degenerate baseline: alpha falls back to the timestamp fraction.
        np.testing.assert_allclose(diag.alpha_min, 0.1, atol=1e-12)
        np.testing.assert_allclose(diag.alpha_max, 0.3, atol=1e-12)

    def test_latency_same_order_as_reference(self):
        # Reference medians are ~0.1-1.5 ms per correction on laptop-class
        # hardware; require the same order of magnitude, not the value.
        import time

        batch, updates = bench_segment()
        correct_segment_scalar(batch, 0, updates)  # warm
        times = []
        for _ in range(50):
            t0 = time.perf_counter()
            correct_segment_scalar(batch, 0, updates)
            times.append(time.perf_counter() - t0)
        assert np.median(times) < 10e-3


# -- the batched kernel against the scalar reference, bit for bit ----------------


def same_bits(a, b) -> bool:
    """Equal bit patterns, so -0.0 differs from 0.0 and NaN equals NaN."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def record_bits(record) -> str:
    return repr(dataclasses.astuple(record))


def assert_batch_equals_scalar(traj, updates):
    """``correct_segment`` on the full segments, and the world poses and
    records of ``correct_trajectory``, bitwise against ``correct_segment_scalar``
    per segment composed with ``Pose.__mul__``; the terminal segment's
    frames ride along with its opening keyframe."""
    batch = Trajectory(traj.kf, traj.rel, traj.parents).full_segments()
    q, t, columns = correct_segment(batch, keyframe_pairs(batch, KeyframeUpdates.of(updates)))
    records = records_of(columns, batch.index)
    world, diagnostics = correct_trajectory(traj, updates, MethodConfig("proposed"))
    world = dict(world)
    rows = [SegmentRecord(*row) for row in diagnostics.segments.tolist()]
    assert list(map(record_bits, rows[:-1])) == list(map(record_bits, records))
    j = 0
    for k, record in enumerate(records):
        poses, want = correct_segment_scalar(batch, k, updates)
        assert record_bits(record) == record_bits(want)
        base = updates[k].new_pose
        for (fid, _), pose in zip(segment_rels(batch, k), poses):
            assert same_bits(q[j], pose.rotation.quat) and same_bits(t[j], pose.translation)
            expected = base * pose
            assert same_bits(world[fid].rotation.quat, expected.rotation.quat)
            assert same_bits(world[fid].translation, expected.translation)
            j += 1
    assert j == len(q) == len(t)
    last = len(traj.kf) - 1
    assert rows[-1].terminal is True and rows[-1].segment == last
    for fid, rel in traj.rel.take(slice(traj.offsets[-2], None)):
        expected = updates[last].new_pose * rel
        assert same_bits(world[fid].rotation.quat, expected.rotation.quat)
        assert same_bits(world[fid].translation, expected.translation)


def perturbed_updates(traj, seed, rot=0.05, trans=0.02):
    """Per-keyframe SE(3) perturbations of the stored keyframe poses."""
    rng = np.random.default_rng(seed)
    return [
        KeyframeUpdate(
            i,
            kf.world_pose,
            Pose(so3_exp(rng.normal(0.0, rot, 3)), rng.normal(0.0, trans, 3)) * kf.world_pose,
        )
        for i, kf in enumerate(traj.keyframes)
    ]


class TestBatchedKernel:
    @pytest.mark.parametrize("seed", range(6))
    def test_noisy_fixtures(self, seed):
        traj, gt = fixtures.noisy_fixture(seed)
        assert_batch_equals_scalar(traj, snap_to_gt(traj, gt))

    def test_singular_fixture(self):
        traj, gt = fixtures.singular_fixture()
        assert_batch_equals_scalar(traj, snap_to_gt(traj, gt))

    @pytest.mark.parametrize("case", range(3))
    def test_similarity_cases(self, case):
        scene, update, _ = fixtures.similarity_case(case)
        assert_batch_equals_scalar(scene.trajectory, update.keyframe_updates)

    def test_perturbed_mav_path_reaches_slerp_branch(self):
        spec = SceneSpec(shape="mav", n_keyframes=40, rels_per_segment=9, seed=31)
        traj = from_world_poses(path_world_poses(spec), keyframe_positions(spec))
        updates = perturbed_updates(traj, seed=32)
        # Gaps whose rotation is too large for the nlerp branch.
        slerped = 0
        batch = traj.full_segments()
        for k in range(len(batch.index)):
            upd_a, upd_b = updates[k], updates[k + 1]
            t_ab_old = upd_a.old_pose.inverse() * upd_b.old_pose
            t_ab_new = upd_a.new_pose.inverse() * upd_b.new_pose
            s, _ = scale_factor(t_ab_old.translation, t_ab_new.translation)
            for _, rel in segment_rels(batch, k):
                sol_b = condition_from_kf(t_ab_old.inverse() * rel, s)
                drot, _ = fusion_gap(condition_from_kf(rel, s), sol_b, t_ab_new)
                slerped += drot.quat[0] <= 0.9995
        assert slerped > 100
        assert_batch_equals_scalar(traj, updates)

    def test_degenerate_empty_and_terminal_segments(self):
        # Keyframes at positions 0, 3, 4 and 7 of 10 frames: segment 0 has a
        # zero baseline (frame 3 sits where frame 0 is), segment 1 has no
        # frames and segment 3 is terminal with two.
        rng = np.random.default_rng(33)
        frames = [
            (FrameId(0.1 * j, j), Pose(Rotation.random(rng), rng.normal(size=3)))
            for j in range(10)
        ]
        frames[3] = (frames[3][0], Pose(Rotation.random(rng), frames[0][1].translation))
        traj = from_world_poses(frames, [0, 3, 4, 7])
        assert np.diff(traj.offsets).tolist() == [2, 0, 2, 2]
        updates = perturbed_updates(traj, seed=34)
        batch = traj.full_segments()
        pairs = keyframe_pairs(batch, KeyframeUpdates.of(updates))
        records = records_of(correct_segment(batch, pairs)[2], batch.index)
        assert records[0].degenerate_baseline and records[0].s == 1.0
        assert records[0].alpha_min == timestamp_fraction(batch, 0, float(batch.rels.stamps[0]))
        assert math.isnan(records[1].alpha_min) and math.isnan(records[1].alpha_max)
        assert_batch_equals_scalar(traj, updates)

    @pytest.mark.parametrize("scale_squared", [False, True])
    def test_keyframe_pairs_equal_scalar_setup(self, scale_squared):
        # The perturbed mav path, plus segments with a zero baseline, no
        # frames, and a zero baseline after the update only.
        spec = SceneSpec(shape="mav", n_keyframes=12, rels_per_segment=3, seed=35)
        frames = list(path_world_poses(spec))
        positions = keyframe_positions(spec)
        rot = Rotation.random(np.random.default_rng(36))
        frames[positions[2]] = (frames[positions[2]][0], Pose(rot, frames[positions[1]][1].translation))
        traj = from_world_poses(frames, positions + [positions[3] + 1])
        updates = perturbed_updates(traj, seed=37)
        updates[6] = KeyframeUpdate(6, updates[6].old_pose, updates[5].new_pose)
        batch, table = traj.full_segments(), KeyframeUpdates.of(updates)
        assert batch.counts[3] == 0
        # A memo miss computes the old and new pairs as one stacked chain,
        # a hit the new ones alone; the kernel squares s itself.
        miss = keyframe_pairs(batch, table)
        hit = keyframe_pairs(batch, table)
        assert hit.old is miss.old
        s_column = correct_segment(batch, hit, scale_squared)[2]["s"]
        for pairs in (miss, hit):
            assert np.flatnonzero(pairs.degenerate).tolist() == [1, 5]
        for k in range(len(batch.index)):
            upd_a, upd_b = updates[k], updates[k + 1]
            old_inv, new, s, degenerate = _segment_setup(upd_a, upd_b, scale_squared)
            old = upd_a.old_pose.inverse() * upd_b.old_pose
            for pairs in (miss, hit):
                for got, want in (
                    (pairs.old.q[k], old.rotation.quat), (pairs.old.t[k], old.translation),
                    (pairs.old.inv_q[k], old_inv.rotation.quat),
                    (pairs.old.inv_t[k], old_inv.translation),
                    (pairs.new_q[k], new.rotation.quat), (pairs.new_t[k], new.translation),
                ):
                    assert same_bits(got, want)
                assert pairs.degenerate[k].item() is degenerate
            assert repr(s_column[k].item()) == repr(s)
            if not scale_squared:
                assert repr(miss.s[k].item()) == repr(s) and repr(hit.s[k].item()) == repr(s)


class TestSharedPairs:
    def test_kernels_on_shared_pairs_equal_standalone_calls(self):
        # A perturbed mav path with a zero old baseline (segment 1) and a
        # zero new one (segment 5), one set of pairs for every kernel; the
        # squaring proposed run goes first, so a kernel that changed the
        # pairs in place would show in the runs after it.
        spec = SceneSpec(shape="mav", n_keyframes=10, rels_per_segment=3, seed=44)
        frames = list(path_world_poses(spec))
        positions = keyframe_positions(spec)
        rot = Rotation.random(np.random.default_rng(45))
        moved = Pose(rot, frames[positions[1]][1].translation)
        frames[positions[2]] = (frames[positions[2]][0], moved)
        traj = from_world_poses(frames, positions)
        updates = perturbed_updates(traj, seed=46)
        updates[6] = KeyframeUpdate(6, updates[6].old_pose, updates[5].new_pose)
        table = KeyframeUpdates.of(updates)
        runs = [(correct_segment, (True,)), (correct_segment, (False,))]
        runs += [(interp_correct_segment, (ts, rs, raw)) for ts in TransSpace for rs in RotSpace
                 for raw in (False, True)]
        batch = traj.full_segments()
        pairs = keyframe_pairs(batch, table)
        assert np.flatnonzero(pairs.degenerate).tolist() == [1, 5]
        arrays = lambda: [a.tobytes() for a in (*pairs[1:], pairs.old.q, pairs.old.t, pairs.old.norm)]
        before = arrays()
        for kernel, args in runs:
            fresh = Trajectory(traj.kf, traj.rel, traj.parents).full_segments()
            with np.errstate(invalid="ignore"):  # raw division's NaN rows reach a matmul
                shared = kernel(batch, pairs, *args)
                alone = kernel(fresh, keyframe_pairs(fresh, table), *args)
            assert same_bits(shared[0], alone[0]) and same_bits(shared[1], alone[1]), args
            assert shared[2].keys() == alone[2].keys()
            for name, column in shared[2].items():
                assert same_bits(column, alone[2][name]), (args, name)
        assert arrays() == before
