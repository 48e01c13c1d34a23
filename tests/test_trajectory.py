"""Trajectory model: segmentation, world reconstruction, association, GT
snapping."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posecorrect.liegeom import Pose, Rotation, pose_arrays, rotation_angle_deg, so3_exp
from posecorrect.synth import SceneSpec, generate_scene
from posecorrect.trajectory import (
    AssociationError,
    FrameId,
    Keyframe,
    RelativeFrame,
    Trajectory,
    associate,
    from_world_poses,
    identity_updates,
    rebase,
    segmentize,
    snap_to_gt,
    world_poses,
)


def kf(i: int, stamp: float, pose: Pose = None) -> Keyframe:
    return Keyframe(FrameId(stamp, i), pose if pose is not None else Pose.identity())


def rel(index: int, stamp: float, parent: int, pose: Pose = None) -> RelativeFrame:
    return RelativeFrame(
        FrameId(stamp, index), parent, pose if pose is not None else Pose.identity()
    )


class TestSegmentize:
    def test_two_keyframes_three_rels(self):
        keyframes = [kf(0, 0.0), kf(1, 10.0)]
        rels = [rel(10, 2.0, 0), rel(11, 5.0, 0), rel(12, 8.0, 0)]
        segments = segmentize(keyframes, rels)
        assert len(segments) == 2  # one full + empty terminal
        assert len(segments[0].rels) == 3
        assert not segments[0].terminal
        assert segments[1].terminal
        assert segments[1].rels == ()

    def test_no_relative_frames(self):
        segments = segmentize([kf(0, 0.0), kf(1, 1.0), kf(2, 2.0)], [])
        assert [len(s.rels) for s in segments] == [0, 0, 0]

    def test_kitti_seq00_scale(self):
        # 1355 keyframes, 4541 frames total: 1354 full segments + terminal,
        # and 4541 - 1355 relative frames.
        n_kf, n_total = 1355, 4541
        kf_stride = n_total // n_kf
        kf_positions = set(i * kf_stride for i in range(n_kf))
        keyframes = []
        rels = []
        stamps = [i * 0.1 for i in range(n_total)]
        kf_sorted = sorted(kf_positions)
        for i, stamp in enumerate(stamps):
            if i in kf_positions:
                keyframes.append(Keyframe(FrameId(stamp, i), Pose.identity()))
            else:
                parent = sum(1 for p in kf_sorted if p < i) - 1
                rels.append(RelativeFrame(FrameId(stamp, i), parent, Pose.identity()))
        segments = segmentize(keyframes, rels)
        assert len(segments) == 1354 + 1
        assert sum(len(s.rels) for s in segments) == n_total - n_kf
        assert sum(not s.terminal for s in segments) == 1354

    def test_unresolvable_parent_names_frame(self):
        with pytest.raises(AssociationError, match="index=77"):
            segmentize([kf(0, 0.0)], [RelativeFrame(FrameId(1.0, 77), 3, Pose.identity())])

    def test_rel_outside_segment_window_rejected(self):
        with pytest.raises(AssociationError, match="outside"):
            segmentize([kf(0, 0.0), kf(1, 1.0)], [rel(5, 1.5, 0)])

    def test_rel_at_keyframe_stamp_joins_the_segment_it_opens(self):
        segments = segmentize([kf(0, 0.0), kf(1, 1.0)], [rel(5, 1.0, 1)])
        assert len(segments[1].rels) == 1

    def test_trailing_rels_form_terminal_segment(self):
        segments = segmentize([kf(0, 0.0), kf(1, 1.0)], [rel(5, 1.5, 1), rel(6, 2.0, 1)])
        assert segments[1].terminal
        assert len(segments[1].rels) == 2

    def test_nonincreasing_keyframe_stamps_rejected(self):
        with pytest.raises(AssociationError, match="strictly increasing"):
            segmentize([kf(0, 1.0), kf(1, 1.0)], [])

    def test_flatten_is_identity_on_input_frames(self):
        rng = np.random.default_rng(0)
        keyframes = [kf(i, float(i)) for i in range(6)]
        rels = [
            rel(100 + 10 * i + j, i + 0.2 + 0.2 * j, i)
            for i in range(6)
            for j in range(3)
            if i + 0.2 + 0.2 * j < 5.0 or i == 5
        ]
        segments = segmentize(keyframes, rels)
        flattened = sorted(
            (r.id for s in segments for r in s.rels), key=lambda f: (f.stamp, f.index)
        )
        assert flattened == sorted((r.id for r in rels), key=lambda f: (f.stamp, f.index))
        assert sum(len(s.rels) for s in segments) + len(keyframes) == len(rels) + 6


class TestOrder:
    def test_segments_sort_their_frames_by_stamp_then_index(self):
        rels = [rel(7, 0.5, 0), rel(3, 0.5, 0), rel(5, 1.5, 1), rel(2, 0.25, 0), rel(4, 1.0, 1)]
        segments = Trajectory((kf(0, 0.0), kf(1, 1.0)), rels).segments
        assert [[(r.id.stamp, r.id.index) for r in seg.rels] for seg in segments] == [
            [(0.25, 2), (0.5, 3), (0.5, 7)], [(1.0, 4), (1.5, 5)]
        ]

    def test_world_poses_order_ties_by_index(self):
        # Frame 1 shares its stamp with keyframe 2 and joins the segment
        # that keyframe opens, yet comes first in frame order.
        frames = [(FrameId(s, i), Pose.identity()) for i, s in enumerate([0.0, 0.5, 0.5, 0.75])]
        traj = from_world_poses(frames, [0, 2])
        assert [r.parent for r in traj.relatives] == [1, 1]
        assert [fid.index for fid, _ in world_poses(traj)] == [0, 1, 2, 3]


class TestWorldPoses:
    def test_identity_rel_equals_keyframe_pose(self):
        rng = np.random.default_rng(1)
        world = Pose(Rotation.random(rng), rng.normal(size=3))
        traj = Trajectory((Keyframe(FrameId(0.0, 0), world),), (rel(1, 0.5, 0),))
        out = dict(world_poses(traj))
        got = out[FrameId(0.5, 1)]
        assert rotation_angle_deg(got.rotation, world.rotation) == 0.0
        np.testing.assert_array_equal(got.translation, world.translation)

    def test_translation_composition(self):
        traj = Trajectory(
            (Keyframe(FrameId(0.0, 0), Pose.identity()),),
            (rel(1, 0.5, 0, Pose(Rotation.identity(), (1.0, 0.0, 0.0))),),
        )
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
            assert rotation_angle_deg(got.rotation, pose.rotation) < 1e-12

    def test_ordering_by_timestamp(self):
        traj = Trajectory(
            (kf(0, 0.0), kf(2, 1.0)),
            (rel(1, 0.5, 0), rel(3, 1.5, 1)),
        )
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
        traj = from_world_poses(frames, [0, 4, 8])
        rebuilt = dict(world_poses(traj))
        for fid, pose in frames:
            got = rebuilt[fid]
            assert np.linalg.norm(got.translation - pose.translation) < 1e-9
            assert rotation_angle_deg(got.rotation, pose.rotation) < 1e-9

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
        traj = from_world_poses(frames, [5, 0, 2, 5, 7])
        assert [(r.id.index, r.parent) for r in traj.relatives] == [
            (1, 0), (3, 1), (4, 1), (6, 2), (8, 3)
        ]
        world = dict(frames)
        for r in traj.relatives:
            want = traj.keyframes[r.parent].world_pose.inverse() * world[r.id]
            assert r.rel_pose.rotation.quat.tobytes() == want.rotation.quat.tobytes()
            assert r.rel_pose.translation.tobytes() == want.translation.tobytes()

    def test_frame_before_first_keyframe_rejected(self):
        frames = [(FrameId(0.0, 0), Pose.identity()), (FrameId(1.0, 1), Pose.identity())]
        with pytest.raises(AssociationError, match="precedes"):
            from_world_poses(frames, [1])

    def test_empty_keyframe_selection_rejected(self):
        with pytest.raises(AssociationError):
            from_world_poses([(FrameId(0.0, 0), Pose.identity())], [])

    def test_out_of_range_position_rejected(self):
        with pytest.raises(AssociationError, match="out of range"):
            from_world_poses([(FrameId(0.0, 0), Pose.identity())], [4])


class TestRebase:
    def test_keyframes_move_and_world_poses_stay(self):
        rng = np.random.default_rng(6)
        frames = [
            (FrameId(i * 0.25, i), Pose(Rotation.random(rng), rng.normal(size=3)))
            for i in range(10)
        ]
        traj = from_world_poses(frames, [0, 4, 8])  # frame 9 is terminal
        poses = [Pose(Rotation.random(rng), rng.normal(size=3)) for _ in traj.keyframes]
        q, t = pose_arrays(poses)
        rebased = rebase(traj, q, t)
        assert rebased.kf.q.tobytes() == q.tobytes() and rebased.kf.t.tobytes() == t.tobytes()
        assert [k.id for k in rebased.keyframes] == [k.id for k in traj.keyframes]
        assert [(r.id, r.parent) for r in rebased.relatives] == [
            (r.id, r.parent) for r in traj.relatives
        ]
        before = dict(world_poses(traj))
        for fid, got in world_poses(rebased):
            if fid in {k.id for k in traj.keyframes}:
                continue
            want = before[fid]
            assert np.linalg.norm(got.translation - want.translation) < 1e-9
            assert rotation_angle_deg(got.rotation, want.rotation) < 1e-9

    def test_array_composition_equals_scalar_bitwise(self):
        # world_poses and rebase compose on arrays; each pose must be the
        # scalar Pose product to the last bit, terminal frames included.
        rng = np.random.default_rng(7)
        frames = [
            (FrameId(i * 0.25, i), Pose(Rotation.random(rng), rng.normal(size=3)))
            for i in range(12)
        ]
        traj = from_world_poses(frames, [0, 4, 5, 9])  # an empty segment, a terminal one
        poses = [Pose(Rotation.random(rng), rng.normal(size=3)) for _ in traj.keyframes]
        world = dict(world_poses(traj))
        rebased = {r.id: r.rel_pose for r in rebase(traj, *pose_arrays(poses)).relatives}
        for r in traj.relatives:
            want = traj.keyframes[r.parent].world_pose * r.rel_pose
            assert world[r.id].rotation.quat.tobytes() == want.rotation.quat.tobytes()
            assert world[r.id].translation.tobytes() == want.translation.tobytes()
            want = poses[r.parent].inverse() * want
            assert rebased[r.id].rotation.quat.tobytes() == want.rotation.quat.tobytes()
            assert rebased[r.id].translation.tobytes() == want.translation.tobytes()

    def test_pose_count_mismatch_rejected(self):
        traj = Trajectory((kf(0, 0.0), kf(2, 1.0)), (rel(1, 0.5, 0),))
        for poses in ([Pose.identity()], [Pose.identity()] * 3):
            with pytest.raises(ValueError):
                rebase(traj, *pose_arrays(poses))


class TestSnapToGt:
    def _traj(self, rng):
        frames = [
            (FrameId(i * 0.5, i), Pose(Rotation.random(rng), rng.normal(size=3)))
            for i in range(7)
        ]
        return from_world_poses(frames, [0, 3, 6]), frames

    def test_estimate_equals_gt_gives_identity_updates(self):
        traj, frames = self._traj(np.random.default_rng(0))
        updates = snap_to_gt(traj, frames)
        assert len(updates) == 3
        for upd in updates:
            assert rotation_angle_deg(upd.old_pose.rotation, upd.new_pose.rotation) == 0.0
            np.testing.assert_array_equal(upd.old_pose.translation, upd.new_pose.translation)

    def test_global_left_transform(self):
        traj, frames = self._traj(np.random.default_rng(1))
        g = Pose(so3_exp((0.1, -0.2, 0.3)), (1.0, 2.0, -3.0))
        gt = [(fid, g * pose) for fid, pose in frames]
        for upd in snap_to_gt(traj, gt):
            expected = g * upd.old_pose
            assert rotation_angle_deg(upd.new_pose.rotation, expected.rotation) < 1e-9
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
        for i, upd in enumerate(snap_to_gt(traj, gt)):
            fid = traj.keyframes[i].id
            recovered = upd.new_pose * upd.old_pose.inverse()
            assert rotation_angle_deg(recovered.rotation, nudges[fid].rotation) < 1e-9
            np.testing.assert_allclose(
                recovered.translation, nudges[fid].translation, atol=1e-9
            )

    def test_missing_association_names_timestamp(self):
        traj, frames = self._traj(np.random.default_rng(3))
        gt = [(fid, pose) for fid, pose in frames if fid.stamp != 1.5]
        with pytest.raises(AssociationError, match="1.5"):
            snap_to_gt(traj, gt)

    def test_association_tolerance_window(self):
        traj, frames = self._traj(np.random.default_rng(4))
        gt = [(FrameId(fid.stamp + 0.004, fid.index), pose) for fid, pose in frames]
        snap_to_gt(traj, gt)  # inside the 10 ms default window
        gt_far = [(FrameId(fid.stamp + 0.02, fid.index), pose) for fid, pose in frames]
        with pytest.raises(AssociationError):
            snap_to_gt(traj, gt_far)

    def test_identity_updates_reconstruct_input(self):
        traj, frames = self._traj(np.random.default_rng(6))
        updates = identity_updates(traj)
        assert all(
            upd.old_pose is upd.new_pose or True for upd in updates
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
    reference = [(FrameId(t, i), Pose.identity()) for i, t in enumerate(ref_stamps)]
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
        got = associate(queries, reference, tol, allow_missing=True)
        assert [reference[k][0] if k >= 0 else None for k in got.tolist()] == [
            m and m[0] for m in want
        ]
        first_miss = next((k for k, m in enumerate(want) if m is None), None)
        if first_miss is None:
            np.testing.assert_array_equal(associate(queries, reference, tol), got)
        else:
            with pytest.raises(AssociationError) as err:
                associate(queries, reference, tol)
            assert err.value.query == first_miss
            assert f"{queries[first_miss]:.6f}" in str(err.value)

    def test_tie_goes_to_the_earlier_stamp(self):
        reference = [(FrameId(1.0, 1), Pose.identity()), (FrameId(0.0, 0), Pose.identity())]
        assert associate([0.5], reference, tol=0.5).tolist() == [1]

    def test_duplicate_stamps_pick_last_below_and_first_at_or_above(self):
        reference = [(FrameId(t, i), Pose.identity()) for i, t in enumerate([0.0, 0.0, 1.0, 1.0])]
        assert associate([0.25, 1.0], reference, tol=0.5).tolist() == [1, 2]

    def test_distance_equal_to_tol_is_accepted(self):
        reference = [(FrameId(1.0, 0), Pose.identity())]
        assert associate([1.25, 0.75], reference, tol=0.25).tolist() == [0, 0]
        assert associate([1.5], reference, tol=0.25, allow_missing=True).tolist() == [-1]

    def test_empty_reference_misses_every_query(self):
        assert associate([0.0, 1.0], [], allow_missing=True).tolist() == [-1, -1]
        with pytest.raises(AssociationError, match="0.000000"):
            associate([0.0], [])
