"""The trajectory's memo of its update-invariant correction geometry, and
what it keeps that no pose changes.

Every result of a trajectory that has corrected before, under any method
and after any other update, is bitwise equal to the same call on a freshly
built trajectory, diagnostics included; a change of the old keyframe
poses, down to the sign of a zero, rebuilds the memo; ``rebase`` does not
carry it over but carries the read-only stamp and index columns and
diagnostics template, which every result shares or copies; and nothing
outside the trajectory keeps it alive."""

import gc
import weakref

import numpy as np
import pytest

from posecorrect import fixtures
from posecorrect.correction import DEGENERATE_BASELINE, keyframe_pairs
from posecorrect.evaluate import METHODS, MethodConfig, correct_trajectory
from posecorrect.liegeom import Pose, so3_exp
from posecorrect.synth import SceneSpec, SimilarityTransform, keyframe_positions, path_world_poses
from posecorrect.trajectory import (
    KeyframeUpdate,
    KeyframeUpdates,
    Trajectory,
    from_world_poses,
    rebase,
    world_poses,
)

CONFIGS = [MethodConfig(name) for name in METHODS] + [
    MethodConfig("proposed", scale_squared=True),
    MethodConfig("so3", raw_division=True),
]
SIMILARITY_EVERY = 3  # as the online-window workload cycles its updates


def estimate(seed: int, n_keyframes: int = 6, origin: bool = False,
             trailing: bool = False) -> Trajectory:
    """A displaced ``mav`` estimate; with ``origin`` its first keyframe is
    the identity pose, whose zeros the sign tests flip, and with
    ``trailing`` its last keyframe is a relative frame, so that four frames
    follow the last keyframe."""
    spec = SceneSpec(shape="mav", n_keyframes=n_keyframes, rels_per_segment=3, seed=seed)
    frames = path_world_poses(spec)
    positions = keyframe_positions(spec)
    est = list(fixtures.displaced_estimate(frames, positions, seed=seed))
    if origin:
        est[0] = (est[0][0], Pose.identity())
    return from_world_poses(est, positions[:-1] if trailing else positions)


def fresh(traj: Trajectory) -> Trajectory:
    """The same trajectory, built again, with no memo."""
    return Trajectory(traj.kf, traj.rel, traj.parents)


def similarity_updates(traj: Trajectory, seed: int) -> list[KeyframeUpdate]:
    rng = np.random.default_rng(seed)
    sim = SimilarityTransform.random(rng, scale=float(rng.uniform(0.5, 2.0)))
    return [KeyframeUpdate(i, kf.world_pose, sim.apply_pose(kf.world_pose))
            for i, kf in enumerate(traj.keyframes)]


def perturbed(poses, seed: int, rot: float = 0.05, trans: float = 0.02) -> list[Pose]:
    rng = np.random.default_rng(seed)
    return [Pose(so3_exp(rng.normal(0.0, rot, 3)), rng.normal(0.0, trans, 3)) * pose
            for pose in poses]


def perturbed_updates(traj: Trajectory, seed: int, old=None) -> list[KeyframeUpdate]:
    old = [kf.world_pose for kf in traj.keyframes] if old is None else old
    return [KeyframeUpdate(i, o, n) for i, (o, n) in enumerate(zip(old, perturbed(old, seed)))]


def collapsed_updates(traj: Trajectory, seed: int, k: int = 2) -> list[KeyframeUpdate]:
    """Perturbed updates whose new poses put keyframe ``k`` on keyframe
    ``k - 1``'s translation: a degenerate new baseline on segment ``k - 1``,
    whose old baseline is fine."""
    updates = perturbed_updates(traj, seed)
    moved = Pose(updates[k].new_pose.rotation, updates[k - 1].new_pose.translation)
    updates[k] = KeyframeUpdate(k, updates[k].old_pose, moved)
    return updates


def assert_same_as_fresh(traj: Trajectory, updates, cfg: MethodConfig):
    """``traj``'s result, checked bitwise against a fresh trajectory's."""
    world, diagnostics = correct_trajectory(traj, updates, cfg)
    want_world, want_diagnostics = correct_trajectory(fresh(traj), updates, cfg)
    for column in ("stamps", "indices", "q", "t"):
        assert getattr(world, column).tobytes() == getattr(want_world, column).tobytes(), cfg
    assert diagnostics.segments.tobytes() == want_diagnostics.segments.tobytes(), cfg
    assert diagnostics.not_finite == want_diagnostics.not_finite, cfg
    return world, diagnostics


@pytest.mark.parametrize("seed", range(3))
def test_repeated_updates_equal_a_fresh_trajectory(seed):
    # One trajectory corrected again and again, cycling similarity and
    # perturbed updates and one collapsed update between them, every method
    # sharing its memo.
    traj = estimate(seed)
    for k in range(7):
        if k % SIMILARITY_EVERY == 0:
            updates = similarity_updates(traj, 100 * seed + k)
        elif k == 4:
            updates = collapsed_updates(traj, 100 * seed + k)
        else:
            updates = perturbed_updates(traj, 100 * seed + k)
        for cfg in CONFIGS:
            assert_same_as_fresh(traj, updates, cfg)


@pytest.mark.parametrize("trailing", [False, True])
def test_every_method_repeated_on_one_trajectory_equals_a_fresh_one(trailing):
    # Every method with and without scale_squared, then a no-correction
    # call between two proposed ones, all copying one diagnostics template
    # and sharing one stamp and index column.
    traj = estimate(8, trailing=trailing)
    assert (traj.offsets[-1] > traj.offsets[-2]) == trailing
    calls = [MethodConfig(name, scale_squared=squared)
             for squared in (False, True) for name in METHODS]
    calls += [MethodConfig("proposed"), MethodConfig("no-correction"), MethodConfig("proposed")]
    for k, cfg in enumerate(calls):
        updates = similarity_updates(traj, 80 + k) if k % 2 else perturbed_updates(traj, 80 + k)
        _, diagnostics = assert_same_as_fresh(traj, updates, cfg)
        table = diagnostics.segments
        assert table["segment"].tolist() == list(range(len(traj.kf)))
        assert table["terminal"].tolist() == [False] * (len(traj.kf) - 1) + [True]
        if cfg.name == "proposed":
            assert table["s"][-1] == 1.0
        else:
            assert np.isnan(table["s"][-1]), cfg


def test_kept_columns_and_template_are_read_only_and_shared():
    traj = estimate(9, trailing=True)
    assert traj.diagnostics_template is None
    world, diagnostics = correct_trajectory(traj, perturbed_updates(traj, 90),
                                            MethodConfig("proposed"))
    template = traj.diagnostics_template
    for column in (traj.stamps, traj.indices, template):
        assert not column.flags.writeable
    again, _ = correct_trajectory(traj, similarity_updates(traj, 91), MethodConfig("xyz"))
    assert traj.diagnostics_template is template
    for table in (world, again, world_poses(traj)):
        assert table.stamps is traj.stamps and table.indices is traj.indices
    with pytest.raises(ValueError, match="read-only"):
        world.stamps[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        again.indices[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        template["s"][0] = 1.0
    # Each result's diagnostics is its own copy of the template.
    diagnostics.segments["s"][:] = 7.0
    assert np.isnan(template["s"]).all()


@pytest.mark.parametrize("trailing", [False, True])
def test_a_rebase_of_a_used_trajectory_equals_a_fresh_one(trailing):
    traj = estimate(10, trailing=trailing)
    updates = KeyframeUpdates.of(perturbed_updates(traj, 100))
    for cfg in CONFIGS:
        correct_trajectory(traj, updates, cfg)
    moved = rebase(traj, updates.new_q, updates.new_t)
    assert moved.stamps is traj.stamps and moved.indices is traj.indices
    assert moved.diagnostics_template is traj.diagnostics_template is not None
    for k, cfg in enumerate(CONFIGS):
        assert_same_as_fresh(moved, similarity_updates(moved, 101 + k), cfg)


def test_a_hit_after_a_miss_equals_a_fresh_trajectory():
    traj = estimate(3)
    own = similarity_updates(traj, 30)
    moved_old = perturbed([kf.world_pose for kf in traj.keyframes], 31)
    other = perturbed_updates(traj, 32, old=moved_old)
    batch = traj.full_segments()
    for updates in (own, other, other, own, own, other):
        for cfg in CONFIGS:
            assert_same_as_fresh(traj, updates, cfg)
        table = KeyframeUpdates.of(updates)
        assert batch.memo[0] == (table.old_q.tobytes(), table.old_t.tobytes())
    assert traj.full_segments() is batch


@pytest.mark.parametrize("scale_squared", [False, True])
def test_a_collapsed_update_between_memo_hits_equals_a_fresh_trajectory(scale_squared):
    # The memo keeps alpha and its extrema for updates with no degenerate
    # baseline; a collapsed update between two that reuse them recomputes
    # its own, and leaves the memo as it was.
    cfg = MethodConfig("proposed", scale_squared=scale_squared)
    traj = estimate(7)
    batch = traj.full_segments()
    cycle = [perturbed_updates(traj, 70), collapsed_updates(traj, 71), perturbed_updates(traj, 72),
             collapsed_updates(traj, 73), similarity_updates(traj, 74)]
    assert_same_as_fresh(traj, cycle[0], cfg)
    geometry = batch.memo[1]
    for updates in cycle[1:]:
        assert_same_as_fresh(traj, updates, cfg)
        assert batch.memo[1] is geometry
    *_, fraction, alpha, alpha_min, alpha_max = geometry.frames(batch)
    for column in (alpha, alpha_min, alpha_max):
        assert not column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0.5
    pairs = keyframe_pairs(batch, KeyframeUpdates.of(cycle[1]))
    assert pairs.degenerate.tolist() == [i == 1 for i in range(len(batch.index))]
    assert (geometry.norm >= DEGENERATE_BASELINE).all()
    _, diagnostics = correct_trajectory(traj, cycle[1], cfg)
    # Segment 1 blends by its timestamp fractions, not by the memo's alpha.
    got = diagnostics.segments[["alpha_min", "alpha_max"]][1].tolist()
    assert got == (batch.reduce(np.minimum, fraction, np.nan)[1],
                   batch.reduce(np.maximum, fraction, np.nan)[1])
    assert got != (alpha_min[1], alpha_max[1])
    others = np.arange(len(batch.index)) != 1
    assert diagnostics.segments["alpha_min"][:-1][others].tobytes() == alpha_min[others].tobytes()
    assert diagnostics.segments["alpha_max"][:-1][others].tobytes() == alpha_max[others].tobytes()


@pytest.mark.parametrize("column", ["old_q", "old_t"])
def test_old_poses_that_differ_by_the_sign_of_a_zero_rebuild_the_memo(column):
    traj = estimate(4, origin=True)
    assert (getattr(traj.kf, column[-1])[0, 1:] == 0.0).all()
    updates = KeyframeUpdates.of(perturbed_updates(traj, 40))
    flipped = {name: getattr(updates, name).copy() for name in ("old_q", "old_t", "new_q", "new_t")}
    flipped[column][0, -1] = -0.0
    flipped = KeyframeUpdates(**flipped)
    for cfg in (cfg for cfg in CONFIGS if cfg.name != "no-correction"):  # a kernel that reads it
        assert_same_as_fresh(traj, updates, cfg)
        geometry = traj.full_segments().memo[1]
        assert_same_as_fresh(traj, flipped, cfg)
        assert traj.full_segments().memo[1] is not geometry
        assert traj.full_segments().memo[0] == (flipped.old_q.tobytes(), flipped.old_t.tobytes())


def test_rebase_does_not_carry_the_memo_over():
    traj = estimate(5)
    updates = KeyframeUpdates.of(perturbed_updates(traj, 50))
    correct_trajectory(traj, updates, MethodConfig("proposed"))
    assert traj.full_segments().memo is not None
    moved = rebase(traj, updates.new_q, updates.new_t)
    assert moved.full_segments() is not traj.full_segments()
    assert moved.full_segments().memo is None
    again = similarity_updates(moved, 51)
    for cfg in CONFIGS:
        assert_same_as_fresh(moved, again, cfg)
        assert_same_as_fresh(traj, updates, cfg)


def test_nothing_outside_the_trajectory_keeps_it():
    # A module-level cache of trajectories, batches or their geometry
    # would keep these objects alive after the caller drops them.
    traj = estimate(6)
    for cfg in CONFIGS:
        correct_trajectory(traj, similarity_updates(traj, 60), cfg)
    geometry = traj.full_segments().memo[1]
    kept = [traj.kf.q, traj.full_segments().rels.q, geometry, *geometry.frames(traj.full_segments())]
    refs = [weakref.ref(obj) for obj in kept]
    del traj, geometry, kept
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
