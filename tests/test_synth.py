"""Synthetic scenes: projection geometry, generation invariants, the
similarity update model, reprojection scoring and serialization."""

import math

import numpy as np
import pytest

from posecorrect.io import tum_columns
from posecorrect.liegeom import Pose, Rotation, so3_exp
from posecorrect.synth import (
    Camera,
    GenerationError,
    MIN_SHARED_LANDMARKS,
    SceneSpec,
    SimilarityTransform,
    apply_similarity_update,
    generate_scene,
    keyframe_positions,
    perturb_keyframes_update,
    project,
    project_many,
    reprojection_rms,
    save_scene,
    unproject,
)
from reference_kernels import rotation_angle_deg_scalar, scale_factor

CAM = Camera(fx=500.0, fy=500.0, cx=320.0, cy=240.0)


class TestProjection:
    def test_point_on_optical_axis(self):
        out = project(CAM, Pose.identity(), (0.0, 0.0, 5.0))
        assert out is not None
        pixel, depth = out
        np.testing.assert_array_equal(pixel, [CAM.cx, CAM.cy])
        assert depth == 5.0

    def test_unit_offset_at_depth_five(self):
        pixel, depth = project(CAM, Pose.identity(), (1.0, 0.0, 5.0))
        np.testing.assert_allclose(pixel, [420.0, 240.0], atol=1e-12)

    def test_behind_camera_returns_none(self):
        assert project(CAM, Pose.identity(), (0.0, 0.0, -1.0)) is None
        assert project(CAM, Pose.identity(), (0.0, 0.0, 0.0)) is None

    def test_unproject_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            world_to_cam = Pose(Rotation.random(rng), rng.normal(size=3))
            p_cam = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 30)])
            p_world = world_to_cam.inverse().apply(p_cam)
            out = project(CAM, world_to_cam, p_world)
            assert out is not None
            pixel, depth = out
            recovered_cam = unproject(CAM, pixel, depth)
            np.testing.assert_allclose(recovered_cam, p_cam, atol=1e-9)
            recovered_world = world_to_cam.inverse().apply(recovered_cam)
            np.testing.assert_allclose(recovered_world, p_world, atol=1e-9)

    def test_project_many_matches_scalar(self):
        rng = np.random.default_rng(1)
        pose = Pose(Rotation.random(rng), rng.normal(size=3))
        pts = rng.uniform(-5, 5, size=(50, 3))
        pixels, depths, front = project_many(CAM, pose, pts)
        for k in range(50):
            single = project(CAM, pose, pts[k])
            if single is None:
                assert not front[k]
            else:
                assert front[k]
                np.testing.assert_allclose(pixels[k], single[0], atol=1e-12)
                assert abs(depths[k] - single[1]) < 1e-12

    def test_camera_validation(self):
        with pytest.raises(ValueError):
            Camera(fx=-1.0, fy=500.0, cx=320.0, cy=240.0)
        with pytest.raises(ValueError):
            Camera(fx=500.0, fy=500.0, cx=900.0, cy=240.0)


class TestGeneration:
    @pytest.mark.parametrize("shape", ["forward", "mav", "line", "rotonly"])
    def test_shapes_generate(self, shape):
        scene = generate_scene(SceneSpec(shape=shape, n_keyframes=5, seed=1))
        assert len(scene.observations) > 0
        assert scene.trajectory.frame_count == 5 + 4 * 4

    def test_same_seed_same_scene(self, tmp_path):
        a = generate_scene(SceneSpec(shape="mav", seed=9))
        b = generate_scene(SceneSpec(shape="mav", seed=9))
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        save_scene(a, pa)
        save_scene(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_zero_noise_zero_residual(self):
        scene = generate_scene(SceneSpec(shape="forward", seed=2))
        rr = reprojection_rms(scene, scene.gt_world_poses(), scene.landmarks)
        assert rr.rms_px < 1e-12
        assert rr.n_behind == 0

    def test_pixel_noise_shows_up_in_residual(self):
        # Isotropic sigma = 0.5 px per component: distance RMS ~ 0.5 * sqrt(2).
        scene = generate_scene(SceneSpec(shape="forward", seed=2, pixel_noise=0.5))
        rr = reprojection_rms(scene, scene.gt_world_poses(), scene.landmarks)
        assert 0.55 < rr.rms_px < 0.85

    def test_forward_path_is_forward_dominant(self):
        scene = generate_scene(SceneSpec(shape="forward", seed=3))
        kfs = scene.trajectory.keyframes
        for a, b in zip(kfs, kfs[1:]):
            delta = b.world_pose.translation - a.world_pose.translation
            assert abs(delta[0]) < 1e-3 * abs(delta[2])
            assert abs(delta[1]) < 1e-3 * abs(delta[2])

    def test_shared_landmark_minimum(self):
        scene = generate_scene(SceneSpec(shape="mav", seed=4, n_landmarks=60))
        frames = scene.gt_world_poses()
        seen = {}
        for obs in scene.observations:
            seen.setdefault(obs.frame_index, set()).add(obs.landmark_id)
        for (fa, _), (fb, _) in zip(frames, frames[1:]):
            assert len(seen[fa.index] & seen[fb.index]) >= MIN_SHARED_LANDMARKS

    def test_infeasible_spec_raises(self):
        with pytest.raises(GenerationError):
            generate_scene(SceneSpec(shape="forward", seed=5, n_landmarks=0))

    @pytest.mark.parametrize(
        "field, value",
        [("n_keyframes", 1), ("n_keyframes", 0), ("rels_per_segment", -1),
         ("pixel_noise", math.nan), ("pixel_noise", -0.5), ("n_landmarks", 0),
         ("n_landmarks", -5), ("seed", -3),
         # Past float range: the sizes are compared as integers.
         ("n_keyframes", 10**400 - 1), ("rels_per_segment", 10**400 - 1),
         ("n_landmarks", 10**400 - 1)],
    )
    def test_out_of_range_spec_rejected(self, field, value):
        with pytest.raises(GenerationError, match=field):
            SceneSpec(**{field: value})

    def test_seed_of_any_size_accepted(self):
        assert SceneSpec(seed=10**400).seed == 10**400

    def test_unknown_shape_raises(self):
        with pytest.raises(GenerationError, match="unknown path shape"):
            generate_scene(SceneSpec(shape="spiral"))

    def test_observation_pixels_inside_image(self):
        scene = generate_scene(SceneSpec(shape="mav", seed=6, pixel_noise=1.0))
        for obs in scene.observations:
            assert 0 <= obs.pixel[0] < scene.camera.width
            assert 0 <= obs.pixel[1] < scene.camera.height
            assert obs.depth > 0


class TestSimilarityUpdate:
    def test_identity_changes_nothing(self):
        scene = generate_scene(SceneSpec(shape="mav", seed=7))
        update = apply_similarity_update(scene, SimilarityTransform(Rotation.identity(), np.zeros(3)))
        for upd in update.keyframe_updates:
            np.testing.assert_array_equal(upd.old_pose.translation, upd.new_pose.translation)
            assert rotation_angle_deg_scalar(upd.old_pose.rotation, upd.new_pose.rotation) == 0.0
        for old, new in zip(scene.landmarks, update.landmarks):
            np.testing.assert_array_equal(old.position, new.position)

    def test_scale_two_doubles_distances_and_scale_factor(self):
        scene = generate_scene(SceneSpec(shape="forward", seed=8))
        sim = SimilarityTransform(Rotation.identity(), np.zeros(3), 2.0)
        update = apply_similarity_update(scene, sim)
        kfs = update.keyframe_updates
        for a, b in zip(kfs, kfs[1:]):
            d_old = np.linalg.norm(b.old_pose.translation - a.old_pose.translation)
            d_new = np.linalg.norm(b.new_pose.translation - a.new_pose.translation)
            assert abs(d_new - 2.0 * d_old) < 1e-12
            t_ab_old = (a.old_pose.inverse() * b.old_pose).translation
            t_ab_new = (a.new_pose.inverse() * b.new_pose).translation
            assert abs(scale_factor(t_ab_old, t_ab_new)[0] - 2.0) < 1e-12

    def test_observations_invariant_under_similarity(self):
        # Recomputing pixels from updated landmarks through updated GT
        # frames must reproduce the stored pixels: uniform depth scaling
        # cancels in the pinhole division.
        scene = generate_scene(SceneSpec(shape="mav", seed=9))
        sim = SimilarityTransform.random(np.random.default_rng(10), scale=1.6)
        update = apply_similarity_update(scene, sim)
        moved = [(fid, sim.apply_pose(p)) for fid, p in scene.gt_world_poses()]
        rr = reprojection_rms(scene, moved, update.landmarks)
        assert rr.rms_px < 1e-9
        assert rr.n_behind == 0

    def test_depths_scale_uniformly(self):
        scene = generate_scene(SceneSpec(shape="forward", seed=11))
        s = 0.5
        sim = SimilarityTransform.random(np.random.default_rng(12), scale=s)
        update = apply_similarity_update(scene, sim)
        moved = {fid.index: sim.apply_pose(p) for fid, p in scene.gt_world_poses()}
        pos = {lm.id: lm.position for lm in update.landmarks}
        for obs in scene.observations[::37]:
            cam = moved[obs.frame_index].inverse().apply(pos[obs.landmark_id])
            assert abs(cam[2] - s * obs.depth) < 1e-9

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            SimilarityTransform(Rotation.identity(), np.zeros(3), 0.0)


class TestReprojection:
    def test_perturbation_sensitivity_matches_first_order_prediction(self):
        # Shift every camera 1 mm along its own x axis; the first-order
        # pixel shift per observation is fx * delta / depth.  The measured
        # RMS must match that prediction computed from the stored depths.
        scene = generate_scene(SceneSpec(shape="forward", seed=13))
        delta = 1e-3
        moved = []
        for fid, pose in scene.gt_world_poses():
            shift_world = pose.rotation.apply(np.array([delta, 0.0, 0.0]))
            moved.append((fid, Pose(pose.rotation, pose.translation + shift_world)))
        rr = reprojection_rms(scene, moved, scene.landmarks)
        predicted = math.sqrt(
            float(
                np.mean(
                    [(scene.camera.fx * delta / obs.depth) ** 2 for obs in scene.observations]
                )
            )
        )
        assert abs(rr.rms_px / predicted - 1.0) < 0.05
        assert 0.01 < rr.rms_px < 1.0  # ~0.1 px order for fx=500, depths 2.5-25 m

    def test_perturbed_keyframes_update_moves_reprojection(self):
        scene = generate_scene(SceneSpec(shape="mav", seed=14))
        update = perturb_keyframes_update(scene, 0.002, 0.005, np.random.default_rng(15))
        moved = [
            (kf.id, upd.new_pose)
            for kf, upd in zip(scene.trajectory.keyframes, update.keyframe_updates)
        ]
        kf_ids = {kf.id.index for kf in scene.trajectory.keyframes}
        obs_subset = tuple(o for o in scene.observations if o.frame_index in kf_ids)
        scene_kf_only = type(scene)(
            scene.camera, scene.trajectory, scene.landmarks, obs_subset
        )
        rr = reprojection_rms(scene_kf_only, moved, update.landmarks)
        assert rr.rms_px > 0.1

    def test_missing_candidate_pose_rejected(self):
        scene = generate_scene(SceneSpec(shape="line", seed=16))
        with pytest.raises(ValueError, match="missing"):
            reprojection_rms(scene, scene.gt_world_poses()[:3], scene.landmarks)

    def test_behind_camera_excluded_and_counted(self):
        scene = generate_scene(SceneSpec(shape="line", seed=17))
        flipped = [
            (fid, Pose(so3_exp((0.0, math.pi, 0.0)) * p.rotation, p.translation))
            for fid, p in scene.gt_world_poses()
        ]
        rr = reprojection_rms(scene, flipped, scene.landmarks)
        assert rr.n_behind == len(scene.observations)
        assert rr.n_used == 0


class TestSceneSerialization:
    @pytest.mark.parametrize("spec", [
        SceneSpec(shape="mav", seed=18, pixel_noise=0.3),
        SceneSpec(shape="forward", seed=4, pixel_noise=1.5),
        SceneSpec(shape="line", seed=9),
        SceneSpec(shape="rotonly", seed=2, pixel_noise=0.3),
        # Keyframes only: every [poses] row is a [keyframes] row.
        SceneSpec(shape="mav", rels_per_segment=0, seed=5),
        SceneSpec(shape="forward", n_keyframes=2, seed=6),
        SceneSpec(shape="line", n_landmarks=1, seed=3),
        # A seed past int64 still gives a scene the file holds.
        SceneSpec(shape="mav", seed=2**70),
    ], ids=["mav noisy", "forward noisy", "line", "rotonly noisy", "keyframes only",
            "two keyframes", "few landmarks", "huge seed"])
    def test_sections_read_back_bitwise(self, tmp_path, spec):
        # Each section of scene.txt, read back by np.loadtxt, holds the
        # scene's values bit for bit.
        scene = generate_scene(spec)
        path = tmp_path / "scene.txt"
        save_scene(scene, path)
        sections, name = {}, None
        for line in path.read_text().splitlines():
            if line.startswith("["):
                name = line[1:-1]
                sections[name] = []
            elif not line.startswith("#"):
                sections[name].append(line)
        read = {name: np.loadtxt(lines, ndmin=2) for name, lines in sections.items()}
        cam = scene.camera
        want = {
            "camera": [[cam.fx, cam.fy, cam.cx, cam.cy, cam.width, cam.height]],
            "poses": np.column_stack(tum_columns(scene.gt_world_poses())),
            "keyframes": np.array(keyframe_positions(spec))[:, None],
            "landmarks": [(lm.id, *lm.position) for lm in scene.landmarks],
            "observations": [(o.frame_index, o.landmark_id, *o.pixel, o.depth)
                             for o in scene.observations],
        }
        assert list(read) == list(want)
        for name, rows in want.items():
            rows = np.asarray(rows, dtype=float)
            assert read[name].shape == rows.shape and read[name].tobytes() == rows.tobytes(), name
