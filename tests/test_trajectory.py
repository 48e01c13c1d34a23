"""Trajectory model: the table constructor's validation and segment
order, world reconstruction, association, GT snapping."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posecorrect.liegeom import Pose, Rotation, pose_arrays, so3_exp
from posecorrect.synth import SceneSpec, generate_scene
from posecorrect.trajectory import (
    AssociationError,
    FrameId,
    FrameTable,
    Trajectory,
    associate,
    from_world_poses,
    rebase,
    snap_to_gt,
    world_poses,
)
from reference_kernels import (
    identity_pose,
    identity_rotation,
    identity_updates,
    inverse_pose,
    rotation_angle_deg_scalar,
    update_rows,
)


def table(stamps, indices, poses=None) -> FrameTable:
    """Frames at ``stamps`` with frame ``indices``, at the identity unless
    ``poses`` are given."""
    if poses is None:
        poses = [identity_pose()] * len(stamps)
    return FrameTable(stamps, indices, *pose_arrays(poses))


def segment_sizes(traj) -> list[int]:
    return np.diff(traj.offsets).tolist()


class TestTableConstructor:
    def test_two_keyframes_three_rels(self):
        traj = Trajectory(table([0.0, 10.0], [0, 1]), table([2.0, 5.0, 8.0], [10, 11, 12]), [0, 0, 0])
        assert segment_sizes(traj) == [3, 0]  # one full + empty terminal
        batch = traj.full_segments()
        assert batch.index.tolist() == [0] and batch.counts.tolist() == [3]
        assert (batch.start.tolist(), batch.stop.tolist()) == ([0.0], [10.0])

    def test_no_relative_frames(self):
        traj = Trajectory(table([0.0, 1.0, 2.0], [0, 1, 2]), table([], []), [])
        assert segment_sizes(traj) == [0, 0, 0]

    def test_kitti_seq00_scale(self):
        # 1355 keyframes, 4541 frames total: 1354 full segments + terminal,
        # and 4541 - 1355 relative frames.
        n_kf, n_total = 1355, 4541
        stamps = np.arange(n_total) * 0.1
        kf_pos = np.arange(n_kf) * (n_total // n_kf)
        rel_pos = np.setdiff1d(np.arange(n_total), kf_pos)
        parents = np.searchsorted(kf_pos, rel_pos) - 1
        traj = Trajectory(table(stamps[kf_pos], kf_pos), table(stamps[rel_pos], rel_pos), parents)
        assert len(traj.offsets) - 1 == 1354 + 1
        assert traj.offsets[-1] == n_total - n_kf
        assert len(traj.full_segments().counts) == 1354

    def test_unresolvable_parent_names_frame(self):
        with pytest.raises(AssociationError, match="index=77"):
            Trajectory(table([0.0], [0]), table([1.0], [77]), [3])

    def test_rel_outside_segment_window_rejected(self):
        with pytest.raises(AssociationError, match="outside"):
            Trajectory(table([0.0, 1.0], [0, 1]), table([1.5], [5]), [0])

    def test_rel_at_keyframe_stamp_joins_the_segment_it_opens(self):
        traj = Trajectory(table([0.0, 1.0], [0, 1]), table([1.0], [5]), [1])
        assert segment_sizes(traj) == [0, 1]

    def test_trailing_rels_form_terminal_segment(self):
        traj = Trajectory(table([0.0, 1.0], [0, 1]), table([1.5, 2.0], [5, 6]), [1, 1])
        assert segment_sizes(traj) == [0, 2]
        assert len(traj.full_segments().rels) == 0

    def test_nonincreasing_keyframe_stamps_rejected(self):
        with pytest.raises(AssociationError, match="strictly increasing"):
            Trajectory(table([1.0, 1.0], [0, 1]), table([], []), [])

    def test_flatten_is_identity_on_input_frames(self):
        stamps, indices, parents = [], [], []
        for i in range(6):
            for j in range(3):
                if i + 0.2 + 0.2 * j < 5.0 or i == 5:
                    stamps.append(i + 0.2 + 0.2 * j)
                    indices.append(100 + 10 * i + j)
                    parents.append(i)
        order = np.random.default_rng(0).permutation(len(stamps))  # any input order
        rel = table(np.array(stamps)[order], np.array(indices)[order])
        traj = Trajectory(table(np.arange(6.0), np.arange(6)), rel, np.array(parents)[order])
        assert sorted(traj.rel.ids()) == sorted(FrameId(s, i) for s, i in zip(stamps, indices))
        assert traj.offsets[-1] + len(traj.kf) == len(stamps) + 6


class TestOrder:
    def test_segments_sort_their_frames_by_stamp_then_index(self):
        rel = table([0.5, 0.5, 1.5, 0.25, 1.0], [7, 3, 5, 2, 4])
        traj = Trajectory(table([0.0, 1.0], [0, 1]), rel, [0, 0, 1, 0, 1])
        ids = [(fid.stamp, fid.index) for fid in traj.rel.ids()]
        assert ids == [(0.25, 2), (0.5, 3), (0.5, 7), (1.0, 4), (1.5, 5)]
        assert segment_sizes(traj) == [3, 2] and traj.parents.tolist() == [0, 0, 0, 1, 1]

    def test_world_poses_order_ties_by_index(self):
        # Frame 1 shares its stamp with keyframe 2 and joins the segment
        # that keyframe opens, yet comes first in frame order.
        frames = [(FrameId(s, i), identity_pose()) for i, s in enumerate([0.0, 0.5, 0.5, 0.75])]
        traj = from_world_poses(FrameTable.of(frames), [0, 2])
        assert traj.parents.tolist() == [1, 1]
        assert [fid.index for fid, _ in world_poses(traj)] == [0, 1, 2, 3]


class TestWorldPoses:
    def test_identity_rel_equals_keyframe_pose(self):
        rng = np.random.default_rng(1)
        world = Pose(Rotation.random(rng), rng.normal(size=3))
        traj = Trajectory(table([0.0], [0], [world]), table([0.5], [1]), [0])
        out = dict(world_poses(traj))
        got = out[FrameId(0.5, 1)]
        assert rotation_angle_deg_scalar(got.rotation, world.rotation) == 0.0
        np.testing.assert_array_equal(got.translation, world.translation)

    def test_translation_composition(self):
        moved = Pose(identity_rotation(), (1.0, 0.0, 0.0))
        traj = Trajectory(table([0.0], [0]), table([0.5], [1], [moved]), [0])
        out = dict(world_poses(traj))
        np.testing.assert_array_equal(out[FrameId(0.5, 1)].translation, [1.0, 0.0, 0.0])

    def test_reconstruction_matches_generating_scene(self):
        # Rels built by rebasing GT world poses must reconstruct exactly.
        scene = generate_scene(SceneSpec(shape="mav", n_keyframes=5, seed=3))
        frames = scene.gt_world_poses()
        rebuilt = dict(world_poses(scene.trajectory))
        for fid, pose in frames:
            got = rebuilt[fid]
            assert np.linalg.norm(got.translation - pose.translation) < 1e-12
            assert rotation_angle_deg_scalar(got.rotation, pose.rotation) < 1e-12

    def test_ordering_by_timestamp(self):
        traj = Trajectory(table([0.0, 1.0], [0, 2]), table([0.5, 1.5], [1, 3]), [0, 1])
        stamps = [fid.stamp for fid, _ in world_poses(traj)]
        assert stamps == sorted(stamps)


class TestFromWorldPoses:
    def test_rebase_round_trip(self):
        rng = np.random.default_rng(5)
        frames = []
        for i in range(9):
            frames.append(
                (FrameId(i * 0.25, i), Pose(Rotation.random(rng), rng.normal(size=3)))
            )
        traj = from_world_poses(FrameTable.of(frames), [0, 4, 8])
        rebuilt = dict(world_poses(traj))
        for fid, pose in frames:
            got = rebuilt[fid]
            assert np.linalg.norm(got.translation - pose.translation) < 1e-9
            assert rotation_angle_deg_scalar(got.rotation, pose.rotation) < 1e-9

    def test_relative_poses_equal_scalar_rebase_bitwise(self):
        # Unsorted and repeated keyframe positions, a frame at a keyframe's
        # stamp (it joins the segment that keyframe opens) and a terminal
        # frame: each relative pose is the scalar Pose product to the bit.
        rng = np.random.default_rng(8)
        stamps = [0.0, 0.2, 0.4, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4]
        frames = [
            (FrameId(s, i), Pose(Rotation.random(rng), rng.normal(size=3)))
            for i, s in enumerate(stamps)
        ]
        traj = from_world_poses(FrameTable.of(frames), [5, 0, 2, 5, 7])
        parents = traj.parents.tolist()
        assert list(zip(traj.rel.indices.tolist(), parents)) == [(1, 0), (3, 1), (4, 1), (6, 2), (8, 3)]
        world = dict(frames)
        for (fid, rel), parent in zip(traj.rel, parents):
            want = inverse_pose(traj.kf[parent][1]) * world[fid]
            assert rel.rotation.quat.tobytes() == want.rotation.quat.tobytes()
            assert rel.translation.tobytes() == want.translation.tobytes()

    def test_frame_before_first_keyframe_rejected(self):
        frames = [(FrameId(0.0, 0), identity_pose()), (FrameId(1.0, 1), identity_pose())]
        with pytest.raises(AssociationError, match="precedes"):
            from_world_poses(FrameTable.of(frames), [1])

    def test_empty_keyframe_selection_rejected(self):
        with pytest.raises(AssociationError):
            from_world_poses(table([0.0], [0]), [])

    def test_out_of_range_position_rejected(self):
        with pytest.raises(AssociationError, match="out of range"):
            from_world_poses(table([0.0], [0]), [4])


class TestRebase:
    def test_keyframes_move_and_world_poses_stay(self):
        rng = np.random.default_rng(6)
        frames = [
            (FrameId(i * 0.25, i), Pose(Rotation.random(rng), rng.normal(size=3)))
            for i in range(10)
        ]
        traj = from_world_poses(FrameTable.of(frames), [0, 4, 8])  # frame 9 is terminal
        poses = [Pose(Rotation.random(rng), rng.normal(size=3)) for _ in traj.keyframes]
        q, t = pose_arrays(poses)
        rebased = rebase(traj, q, t)
        assert rebased.kf.q.tobytes() == q.tobytes() and rebased.kf.t.tobytes() == t.tobytes()
        assert rebased.kf.ids() == traj.kf.ids() and rebased.rel.ids() == traj.rel.ids()
        assert rebased.parents.tolist() == traj.parents.tolist()
        before = dict(world_poses(traj))
        for fid, got in world_poses(rebased):
            if fid in traj.kf.ids():
                continue
            want = before[fid]
            assert np.linalg.norm(got.translation - want.translation) < 1e-9
            assert rotation_angle_deg_scalar(got.rotation, want.rotation) < 1e-9

    def test_array_composition_equals_scalar_bitwise(self):
        # world_poses and rebase compose on arrays; each pose must be the
        # scalar Pose product to the last bit, terminal frames included.
        rng = np.random.default_rng(7)
        frames = [
            (FrameId(i * 0.25, i), Pose(Rotation.random(rng), rng.normal(size=3)))
            for i in range(12)
        ]
        traj = from_world_poses(FrameTable.of(frames), [0, 4, 5, 9])  # an empty segment, a terminal one
        poses = [Pose(Rotation.random(rng), rng.normal(size=3)) for _ in traj.keyframes]
        world = dict(world_poses(traj))
        rebased = dict(rebase(traj, *pose_arrays(poses)).rel)
        for (fid, rel), parent in zip(traj.rel, traj.parents.tolist()):
            want = traj.kf[parent][1] * rel
            assert world[fid].rotation.quat.tobytes() == want.rotation.quat.tobytes()
            assert world[fid].translation.tobytes() == want.translation.tobytes()
            want = inverse_pose(poses[parent]) * want
            assert rebased[fid].rotation.quat.tobytes() == want.rotation.quat.tobytes()
            assert rebased[fid].translation.tobytes() == want.translation.tobytes()

    def test_pose_count_mismatch_rejected(self):
        traj = Trajectory(table([0.0, 1.0], [0, 2]), table([0.5], [1]), [0])
        for poses in ([identity_pose()], [identity_pose()] * 3):
            with pytest.raises(ValueError):
                rebase(traj, *pose_arrays(poses))


class TestSnapToGt:
    def _traj(self, rng):
        frames = [
            (FrameId(i * 0.5, i), Pose(Rotation.random(rng), rng.normal(size=3)))
            for i in range(7)
        ]
        return from_world_poses(FrameTable.of(frames), [0, 3, 6]), frames

    def test_estimate_equals_gt_gives_identity_updates(self):
        traj, frames = self._traj(np.random.default_rng(0))
        updates = snap_to_gt(traj, FrameTable.of(frames))
        assert len(updates) == 3
        for upd in update_rows(updates):
            assert rotation_angle_deg_scalar(upd.old_pose.rotation, upd.new_pose.rotation) == 0.0
            np.testing.assert_array_equal(upd.old_pose.translation, upd.new_pose.translation)

    def test_global_left_transform(self):
        traj, frames = self._traj(np.random.default_rng(1))
        g = Pose(so3_exp((0.1, -0.2, 0.3)), (1.0, 2.0, -3.0))
        gt = [(fid, g * pose) for fid, pose in frames]
        for upd in update_rows(snap_to_gt(traj, FrameTable.of(gt))):
            expected = g * upd.old_pose
            assert rotation_angle_deg_scalar(upd.new_pose.rotation, expected.rotation) < 1e-9
            np.testing.assert_allclose(upd.new_pose.translation, expected.translation, atol=1e-9)

    def test_injected_perturbation_recovered_exactly(self):
        rng = np.random.default_rng(2)
        traj, frames = self._traj(rng)
        nudges = {}
        gt = []
        for fid, pose in frames:
            nudge = Pose(so3_exp(rng.normal(0, 0.01, 3)), rng.normal(0, 0.05, 3))
            nudges[fid] = nudge
            gt.append((fid, nudge * pose))
        for i, upd in enumerate(update_rows(snap_to_gt(traj, FrameTable.of(gt)))):
            fid = traj.keyframes[i].id
            recovered = upd.new_pose * inverse_pose(upd.old_pose)
            assert rotation_angle_deg_scalar(recovered.rotation, nudges[fid].rotation) < 1e-9
            np.testing.assert_allclose(
                recovered.translation, nudges[fid].translation, atol=1e-9
            )

    def test_missing_association_names_timestamp(self):
        traj, frames = self._traj(np.random.default_rng(3))
        gt = [(fid, pose) for fid, pose in frames if fid.stamp != 1.5]
        with pytest.raises(AssociationError, match="1.5"):
            snap_to_gt(traj, FrameTable.of(gt))

    def test_association_tolerance_window(self):
        traj, frames = self._traj(np.random.default_rng(4))
        gt = [(FrameId(fid.stamp + 0.004, fid.index), pose) for fid, pose in frames]
        snap_to_gt(traj, FrameTable.of(gt))  # inside the 10 ms default window
        gt_far = [(FrameId(fid.stamp + 0.02, fid.index), pose) for fid, pose in frames]
        with pytest.raises(AssociationError):
            snap_to_gt(traj, FrameTable.of(gt_far))

    def test_identity_updates_reconstruct_input(self):
        traj, frames = self._traj(np.random.default_rng(6))
        updates = identity_updates(traj)
        assert all(
            upd.old_pose is upd.new_pose or True for upd in update_rows(updates)
        )
        rebuilt = dict(world_poses(traj))
        for fid, pose in frames:
            np.testing.assert_allclose(
                rebuilt[fid].translation, pose.translation, atol=1e-9
            )


def scalar_associate(stamp, reference, tol):
    """Reference oracle: the per-query bisect lookup over a stable-sorted
    reference, as the package resolved stamps before the batched search."""
    reference = sorted(reference, key=lambda item: item[0].stamp)
    stamps = [fid.stamp for fid, _ in reference]
    j = bisect.bisect_left(stamps, stamp)
    best = None
    for k in (j - 1, j):
        if 0 <= k < len(reference):
            d = abs(stamps[k] - stamp)
            if best is None or d < best[0]:
                best = (d, reference[k])
    if best is None or best[0] > tol:
        return None
    return best[1]


# Stamps on a 1/8 s grid make duplicates, exact midpoints and distances of
# exactly ``tol`` common, and keep every difference exact in binary.
GRID = st.integers(min_value=0, max_value=40).map(lambda k: k / 8)


@st.composite
def association_cases(draw):
    ref_stamps = draw(st.lists(GRID, min_size=0, max_size=25))
    reference = [(FrameId(t, i), identity_pose()) for i, t in enumerate(ref_stamps)]
    reference = draw(st.permutations(reference))  # unsorted input
    tol = draw(st.sampled_from([0.0, 1 / 16, 1 / 8, 3 / 16, 1.0]))
    probes = [-1.0, 6.0]  # before the first and after the last stamp
    for t in ref_stamps:
        probes += [t, t - tol, t + tol, t + 1 / 16]  # exact, at tol, midpoint
    queries = draw(
        st.lists(st.sampled_from(probes) | GRID | st.floats(-2.0, 7.0), max_size=30)
    )
    return queries, reference, tol


class TestAssociate:
    @settings(max_examples=300, deadline=None)
    @given(association_cases())
    def test_matches_scalar_oracle(self, case):
        queries, reference, tol = case
        want = [scalar_associate(q, reference, tol) for q in queries]
        got = associate(queries, FrameTable.of(reference), tol, allow_missing=True)
        assert [reference[k][0] if k >= 0 else None for k in got.tolist()] == [
            m and m[0] for m in want
        ]
        first_miss = next((k for k, m in enumerate(want) if m is None), None)
        if first_miss is None:
            np.testing.assert_array_equal(associate(queries, FrameTable.of(reference), tol), got)
        else:
            with pytest.raises(AssociationError) as err:
                associate(queries, FrameTable.of(reference), tol)
            assert err.value.query == first_miss
            assert f"{queries[first_miss]:.6f}" in str(err.value)

    def test_tie_goes_to_the_earlier_stamp(self):
        reference = table([1.0, 0.0], [1, 0])
        assert associate([0.5], reference, tol=0.5).tolist() == [1]

    def test_duplicate_stamps_pick_last_below_and_first_at_or_above(self):
        reference = table([0.0, 0.0, 1.0, 1.0], [0, 1, 2, 3])
        assert associate([0.25, 1.0], reference, tol=0.5).tolist() == [1, 2]

    def test_distance_equal_to_tol_is_accepted(self):
        reference = table([1.0], [0])
        assert associate([1.25, 0.75], reference, tol=0.25).tolist() == [0, 0]
        assert associate([1.5], reference, tol=0.25, allow_missing=True).tolist() == [-1]

    def test_empty_reference_misses_every_query(self):
        assert associate([0.0, 1.0], table([], []), allow_missing=True).tolist() == [-1, -1]
        with pytest.raises(AssociationError, match="0.000000"):
            associate([0.0], table([], []))
