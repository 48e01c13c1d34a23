"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with ``pytest -s tests/test_acceptance.py`` to see them all).

Tolerances are pinned here and nowhere else.  The dataset tables of the
reference material depend on external SLAM runs and are treated as
documented references, not as targets; acceptance is property-based plus
order-of-magnitude timing.
"""

import math
import time
from pathlib import Path

import numpy as np

from posecorrect import fixtures
from posecorrect import io as trajio
from posecorrect.cli import main as cli_main
from posecorrect.evaluate import (
    METHODS,
    MethodConfig,
    SnapProtocol,
    bench,
    correct_trajectory,
)
from posecorrect.liegeom import (
    Pose,
    Rotation,
    euler_zyx_from_rows,
    euler_zyx_to_rows,
    mat_vec,
    quat_matrix,
    quat_normalize,
    rotation_angles_deg,
    slerp,
    so3_exp,
    so3_exp_rows,
    so3_left_jacobian_inv_rows,
    so3_left_jacobian_rows,
    so3_log_rows,
)
from posecorrect.synth import (
    SceneSpec,
    SimilarityTransform,
    generate_scene,
    reprojection_rms,
)
from posecorrect.trajectory import (
    FrameId,
    KeyframeUpdate,
    identity_updates,
    snap_to_gt,
    world_poses,
)
from reference_kernels import (
    bench_segment,
    condition_from_kf,
    correct_segment_scalar,
    fuse,
    fusion_gap,
    rotation_angle_deg_scalar,
    scale_factor,
    segment_rels,
    segment_trajectory,
)

DATA = Path(__file__).parent / "data"


def _criterion(num: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    assert passed, f"criterion {num} failed: {description}{suffix}"


def test_criterion_1_similarity_exactness():
    start = time.perf_counter()
    worst_rot = 0.0
    worst_trans = 0.0
    worst_px = 0.0
    for case in range(20):
        scene, update, target = fixtures.similarity_case(case)
        traj = scene.trajectory
        updates = snap_to_gt(traj, target)
        world, _ = correct_trajectory(traj, updates, MethodConfig("proposed"))
        target_map = dict(target)
        rel_ids = set(traj.rel.ids())
        for fid, pose in world:
            if fid not in rel_ids:
                continue
            want = target_map[fid]
            worst_rot = max(worst_rot, rotation_angle_deg_scalar(pose.rotation, want.rotation))
            worst_trans = max(
                worst_trans, float(np.linalg.norm(pose.translation - want.translation))
            )
        rr = reprojection_rms(scene, world, update.landmarks)
        worst_px = max(worst_px, rr.rms_px)
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        "similarity updates recovered exactly on 20 seeded scenes",
        worst_rot < 1e-6 and worst_trans < 1e-9 and worst_px < 1e-6 and elapsed < 10.0,
        f"rot {worst_rot:.2e} deg, trans {worst_trans:.2e} m, reproj {worst_px:.2e} px, {elapsed:.2f} s",
    )


def test_criterion_2_identity_invariance():
    start = time.perf_counter()
    traj, _ = fixtures.noisy_fixture(0)
    updates = identity_updates(traj)
    reference = world_poses(traj)
    worst = 0.0
    for name in METHODS:
        world, _ = correct_trajectory(traj, updates, MethodConfig(name))
        for (fa, pa), (fb, pb) in zip(reference, world):
            assert fa == fb
            worst = max(worst, float(np.linalg.norm(pa.translation - pb.translation)))
            worst = max(worst, rotation_angle_deg_scalar(pa.rotation, pb.rotation))
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        "old = new keyframe poses leave every method's output unchanged",
        worst < 1e-12 and elapsed < 1.0,
        f"worst deviation {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_3_boundary_consistency():
    rng = np.random.default_rng(33)
    # alpha = 0: a frame coincident with the opening keyframe returns the
    # opening-keyframe condition solution exactly.
    kf_a_pose = Pose(Rotation.random(rng), rng.normal(size=3))
    kf_b_pose = Pose(Rotation.random(rng), rng.normal(size=3))
    rel = Pose(Rotation.random(rng), (0.0, 0.0, 0.0))
    batch = segment_trajectory(kf_a_pose, kf_b_pose, [rel], stamps=[0.4]).full_segments()
    upd_a = KeyframeUpdate(0, kf_a_pose, Pose(Rotation.random(rng), rng.normal(size=3)))
    upd_b = KeyframeUpdate(1, kf_b_pose, Pose(Rotation.random(rng), rng.normal(size=3)))
    out, diag = correct_segment_scalar(batch, 0, [upd_a, upd_b])
    t_ab_old = upd_a.old_pose.inverse() * upd_b.old_pose
    t_ab_new = upd_a.new_pose.inverse() * upd_b.new_pose
    s, _ = scale_factor(t_ab_old.translation, t_ab_new.translation)
    rot, trans = condition_from_kf(rel, s)
    alpha0_ok = (
        diag.alpha_min == 0.0
        and np.max(np.abs(out[0].rotation.quat - rot.quat)) < 1e-15
        and np.max(np.abs(out[0].translation - trans)) < 1e-12
    )

    # alpha = 1 on similarity fixtures: the fused pose composed through the
    # far keyframe satisfies the far-keyframe condition.
    worst = 0.0
    for case in (0, 4, 8):
        scene, update, target = fixtures.similarity_case(case)
        traj = scene.trajectory
        updates = snap_to_gt(traj, target)
        upd_a, upd_b = updates[0], updates[1]
        t_ab_old = upd_a.old_pose.inverse() * upd_b.old_pose
        t_ab_new = upd_a.new_pose.inverse() * upd_b.new_pose
        s, _ = scale_factor(t_ab_old.translation, t_ab_new.translation)
        for _, rel_pose in segment_rels(traj.full_segments(), 0):
            sol_a = condition_from_kf(rel_pose, s)
            rot_b, trans_b = sol_b = condition_from_kf(t_ab_old.inverse() * rel_pose, s)
            gap = fusion_gap(sol_a, sol_b, t_ab_new)
            fused = fuse(sol_a, gap, 1.0)
            implied = t_ab_new.inverse() * fused
            worst = max(worst, rotation_angle_deg_scalar(implied.rotation, rot_b))
            worst = max(worst, float(np.linalg.norm(implied.translation - trans_b)))
    _criterion(
        3,
        "alpha = 0 returns the opening condition exactly; alpha = 1 closes the far constraint",
        alpha0_ok and worst < 1e-9,
        f"alpha-1 residual {worst:.2e}",
    )


def test_criterion_4_singularity_contrast():
    start = time.perf_counter()
    traj, gt = fixtures.singular_fixture()
    stats = {}
    errors = {}
    for name in METHODS:
        report, errs = SnapProtocol(traj, gt).run(MethodConfig(name))
        stats[name] = report
        errors[name] = np.array([e.translation_cm for e in errs])
    se3v = errors["se3-v"]
    prop = errors["proposed"]
    se3v_ratio = se3v.max() / np.median(se3v)
    prop_ratio = prop.max() / np.median(prop)
    mean_ok = all(
        stats["proposed"].translation.mean < stats[m].translation.mean
        for m in METHODS
        if m != "proposed"
    )
    elapsed = time.perf_counter() - start
    _criterion(
        4,
        "element-wise interpolation explodes on the forward-dominant fixture, the proposed correction does not",
        se3v_ratio > 10.0 and prop_ratio < 2.0 and mean_ok and elapsed < 5.0,
        f"se3-v max/med {se3v_ratio:.0f}, proposed max/med {prop_ratio:.2f}, {elapsed:.2f} s",
    )


def test_criterion_5_error_ordering_across_seeds():
    wins = 0
    for seed in range(10):
        traj, gt = fixtures.noisy_fixture(seed)
        reports = {name: SnapProtocol(traj, gt).run(MethodConfig(name))[0] for name in METHODS}
        p = reports["proposed"]
        t_ok = all(
            p.translation.mean < reports[m].translation.mean
            and p.translation.std < reports[m].translation.std
            for m in ("xyz", "se3-v", "no-correction")
        )
        r_ok = all(
            p.rotation.mean < reports[m].rotation.mean for m in ("euler", "quat", "so3")
        )
        wins += int(t_ok and r_ok)
    _criterion(
        5,
        "proposed beats the baselines in mean/std ordering on seeded noisy fixtures",
        wins >= 9,
        f"{wins}/10 seeds",
    )


def _so3_safe(rotation: Rotation) -> bool:
    q = rotation.quat
    if not np.all(np.isfinite(q)):
        return False
    m = quat_matrix(q[None])[0]
    return (
        abs(np.linalg.det(m) - 1.0) < 1e-9
        and np.max(np.abs(m.T @ m - np.eye(3))) < 1e-9
    )


def test_criterion_6_so3_safety_everywhere():
    cases = []
    # Standard fixtures.
    traj, gt = fixtures.singular_fixture()
    cases.append((traj, snap_to_gt(traj, gt)))
    for seed in (0, 1):
        traj, gt = fixtures.noisy_fixture(seed)
        cases.append((traj, snap_to_gt(traj, gt)))
    # Similarity scene.
    scene, update, target = fixtures.similarity_case(3)
    cases.append((scene.trajectory, snap_to_gt(scene.trajectory, target)))
    # Pure-rotation (zero-baseline) scene, updated by an extra rotation.
    rot_scene = generate_scene(SceneSpec(shape="rotonly", n_keyframes=5, seed=44))
    spin = SimilarityTransform(so3_exp((0.0, 0.3, 0.0)), np.zeros(3), 1.0)
    rot_target = [(fid, spin.apply_pose(p)) for fid, p in rot_scene.gt_world_poses()]
    cases.append((rot_scene.trajectory, snap_to_gt(rot_scene.trajectory, rot_target)))
    # Zero-baseline segment whose relative frames do move.
    rng = np.random.default_rng(45)
    pivot = Pose(Rotation.random(rng), rng.normal(size=3))
    wander = [Pose(so3_exp(rng.normal(0, 0.1, 3)), rng.normal(0, 0.3, 3)) for _ in range(3)]
    zb_traj = segment_trajectory(pivot, pivot, wander, stamps=[0.2, 0.4, 0.6])
    zb_updates = [
        KeyframeUpdate(0, pivot, Pose(so3_exp((0.2, 0.0, 0.1)) * pivot.rotation, pivot.translation)),
        KeyframeUpdate(1, pivot, Pose(so3_exp((0.0, 0.1, 0.0)) * pivot.rotation, pivot.translation)),
    ]
    cases.append((zb_traj, zb_updates))

    checked = 0
    ok = True
    for traj, updates in cases:
        for name in METHODS:
            world, _ = correct_trajectory(traj, updates, MethodConfig(name))
            for _, pose in world:
                checked += 1
                ok = ok and _so3_safe(pose.rotation) and bool(
                    np.all(np.isfinite(pose.translation))
                )
    _criterion(
        6,
        "every output rotation is SO(3)-clean and nothing is NaN/Inf",
        ok,
        f"{checked} poses across {len(cases)} fixtures x {len(METHODS)} methods",
    )


def test_criterion_7_lie_geometry_suite():
    rng = np.random.default_rng(77)
    n = 10_000
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = rng.uniform(0.0, math.pi - 1e-3, size=n)
    # Each sample's draws in the order of the one-sample loop.
    t, q2, a = np.empty((n, 3)), np.empty((n, 4)), np.empty(n)
    for k in range(n):
        t[k] = rng.uniform(-10, 10, 3)
        q2[k] = Rotation.random(rng).quat
        a[k] = rng.uniform()
    w = angles[:, None] * axes
    q = so3_exp_rows(w)
    # so(3) round trip.
    worst = float(np.max(np.abs(so3_log_rows(q) - w)))
    # quaternion round trip.
    worst = max(worst, float(rotation_angles_deg(quat_normalize(q.copy()), q).max()))
    # se(3) round trip: log through the inverse left Jacobian, exp through
    # the left Jacobian.
    omega = so3_log_rows(q)
    v = mat_vec(so3_left_jacobian_inv_rows(omega), t)
    worst = max(worst, float(rotation_angles_deg(q, so3_exp_rows(omega)).max()))
    worst = max(worst, float(np.linalg.norm(t - mat_vec(so3_left_jacobian_rows(omega), v), axis=1).max()))
    # Euler round trip away from the gimbal band.
    angles_e, _ = euler_zyx_from_rows(q)
    away = np.abs(angles_e[:, 1]) < math.pi / 2 - 1e-3
    worst = max(worst, float(rotation_angles_deg(euler_zyx_to_rows(angles_e[away]), q[away]).max()))
    # slerp: angle linearity and symmetry.
    r, r2 = [Rotation._from_canonical(row) for row in q], [Rotation._from_canonical(row) for row in q2]
    forward = np.array([slerp(ra, rb, ak).quat for ra, rb, ak in zip(r, r2, a.tolist())])
    backward = np.array([slerp(rb, ra, 1.0 - ak).quat for ra, rb, ak in zip(r, r2, a.tolist())])
    full = rotation_angles_deg(q, q2)
    part = rotation_angles_deg(q, forward)
    worst_slerp = max(float((np.abs(part - a * full) / np.maximum(1.0, full)).max()),
                      float(rotation_angles_deg(forward, backward).max()))
    _criterion(
        7,
        "10^4-sample exp/log/euler/quat round-trips and slerp properties hold to 1e-9",
        worst < 1e-9 and worst_slerp < 1e-9,
        f"round-trip {worst:.2e}, slerp {worst_slerp:.2e}",
    )


def test_criterion_8_timing_order_of_magnitude():
    batch, updates = bench_segment()
    assert batch.counts.tolist() == [3]
    stats = bench(
        lambda fx: correct_segment_scalar(fx[0], 0, fx[1]),
        [(batch, updates)],
        repetitions=400,
        warmup=50,
    )
    formatted = stats.format()
    convention_ok = "+-" in formatted and "(" in formatted
    _criterion(
        8,
        "median full-segment correction under 1 ms on the 3-frame fixture",
        stats.median < 1.0 and convention_ok,
        f"{formatted} ms over {stats.count} runs",
    )


def test_criterion_9_io_round_trips_and_errors(tmp_path, capsys):
    rng = np.random.default_rng(99)
    poses = [
        (FrameId(0.1 * i, i), Pose(Rotation.random(rng), rng.uniform(-20, 20, 3)))
        for i in range(500)
    ]
    tum_path = tmp_path / "a.tum"
    trajio.write_tum(tum_path, poses)
    via_tum = trajio.read_tum(tum_path)
    kitti_path = tmp_path / "b.kitti"
    trajio.write_kitti(kitti_path, via_tum)
    via_kitti = trajio.read_kitti(kitti_path)
    worst = 0.0
    for (_, pa), (_, pb) in zip(poses, via_kitti):
        worst = max(worst, float(np.linalg.norm(pa.translation - pb.translation)))
        worst = max(worst, rotation_angle_deg_scalar(pa.rotation, pb.rotation))

    code_tum = cli_main([
        "evaluate", "--traj", str(DATA / "malformed.tum"),
        "--gt", str(DATA / "valid.tum"), "--kf-index", str(DATA / "valid.tum"),
        "--out", str(tmp_path / "x1"),
    ])
    err_tum = capsys.readouterr().err
    code_kitti = cli_main([
        "evaluate", "--traj", str(DATA / "malformed.kitti"),
        "--gt", str(DATA / "valid.kitti"), "--kf-index", str(DATA / "valid.tum"),
        "--out", str(tmp_path / "x2"),
    ])
    err_kitti = capsys.readouterr().err
    errors_ok = (
        code_tum == 2
        and "malformed.tum:3" in err_tum
        and code_kitti == 2
        and "malformed.kitti:2" in err_kitti
    )
    _criterion(
        9,
        "TUM/KITTI round-trips hold to 1e-9 and malformed inputs fail with line numbers",
        worst < 1e-9 and errors_ok,
        f"round-trip {worst:.2e}; exit codes {code_tum}/{code_kitti}",
    )


def test_criterion_10_run_determinism(tmp_path):
    sim = tmp_path / "sim"
    assert cli_main([
        "simulate", "--shape", "forward", "--seed", "5", "--drift", "1.0",
        "--out", str(sim),
    ]) == 0
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"run_{run}"
        assert cli_main([
            "evaluate", "--traj", str(sim / "est.tum"), "--gt", str(sim / "gt.tum"),
            "--kf-index", str(sim / "kf_index.txt"),
            "--methods", "all", "--out", str(out),
        ]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir() if p.name != "config.json")
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes() for name in names
    )
    _criterion(
        10,
        "two identical evaluation runs give byte-identical output",
        identical and "report.csv" in names,
        f"{len(names)} files compared",
    )
