"""Synthetic scenes: projection geometry, generation invariants, the update
models, reprojection scoring, serialization and the scalar and pinned oracles."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from posecorrect.io import tum_columns
from posecorrect.liegeom import (
    Pose,
    Rotation,
    pose_arrays,
    pose_inverse,
    quat_mul,
    quat_rotate,
    rotation_angles_deg,
    so3_exp,
)
from posecorrect.synth import (
    Camera,
    GenerationError,
    MIN_SHARED_LANDMARKS,
    SceneSpec,
    Observations,
    SimilarityTransform,
    apply_similarity_update,
    generate_scene,
    keyframe_positions,
    path_world_poses,
    perturb_keyframes_update,
    project_many,
    reprojection_rms,
    save_scene,
    unproject,
)
from posecorrect.trajectory import FrameTable
from reference_kernels import project, scale_factor, with_generator_states

CAM = Camera(fx=500.0, fy=500.0, cx=320.0, cy=240.0)


class TestProjection:
    def test_identity_pose(self):
        # On the optical axis, one unit off it at depth five, behind the camera and at it.
        points = np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 5.0], [0.0, 0.0, -1.0], [0.0, 0.0, 0.0]])
        pixels, depths, front = project_many(CAM, np.eye(4)[0], np.zeros(3), points)
        assert front.tolist() == [True, True, False, False] and depths[:2].tolist() == [5.0, 5.0]
        np.testing.assert_array_equal(pixels[0], [CAM.cx, CAM.cy])
        np.testing.assert_allclose(pixels[1], [420.0, 240.0], atol=1e-12)

    def test_unproject_round_trip(self):
        rng = np.random.default_rng(0)
        q, t = pose_arrays(Pose(Rotation.random(rng), rng.normal(size=3)) for _ in range(200))
        inv_q, inv_t = pose_inverse(q, t)
        p_cam = rng.uniform((-2.0, -2.0, 0.5), (2.0, 2.0, 30.0), size=(200, 3))
        p_world = quat_rotate(inv_q, p_cam) + inv_t
        pixels, depths, front = project_many(CAM, q, t, p_world)
        assert front.all()
        recovered_cam = unproject(CAM, pixels, depths)
        np.testing.assert_allclose(recovered_cam, p_cam, atol=1e-9)
        np.testing.assert_allclose(quat_rotate(inv_q, recovered_cam) + inv_t, p_world, atol=1e-9)

    def test_camera_validation(self):
        with pytest.raises(ValueError):
            Camera(fx=-1.0, fy=500.0, cx=320.0, cy=240.0)
        with pytest.raises(ValueError):
            Camera(fx=500.0, fy=500.0, cx=900.0, cy=240.0)


class TestGeneration:
    @pytest.mark.parametrize("shape", ["forward", "mav", "line", "rotonly"])
    def test_shapes_generate(self, shape):
        scene = generate_scene(SceneSpec(shape=shape, n_keyframes=5, seed=1))
        assert len(scene.observations.depths) > 0
        assert scene.trajectory.frame_count == 5 + 4 * 4

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
        delta = np.diff(scene.trajectory.kf.t, axis=0)
        assert (np.abs(delta[:, :2]) < 1e-3 * np.abs(delta[:, 2:])).all()

    def test_shared_landmark_minimum(self):
        scene = generate_scene(SceneSpec(shape="mav", seed=4, n_landmarks=60))
        frames, obs = scene.gt_world_poses(), scene.observations
        seen = np.zeros((obs.frame_indices.max() + 1, len(scene.landmarks)), dtype=bool)
        seen[obs.frame_indices, obs.landmark_ids] = True
        seen = seen[frames.indices]  # one row per frame, in frame order
        assert (np.count_nonzero(seen[:-1] & seen[1:], axis=1) >= MIN_SHARED_LANDMARKS).all()

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
        pixels, depths = scene.observations.pixels, scene.observations.depths
        assert ((0 <= pixels) & (pixels < (scene.camera.width, scene.camera.height))).all()
        assert (depths > 0).all()


class TestSimilarityUpdate:
    def test_identity_changes_nothing(self):
        scene = generate_scene(SceneSpec(shape="mav", seed=7))
        update = apply_similarity_update(scene, SimilarityTransform(Rotation.identity(), np.zeros(3)))
        upd = update.keyframe_updates
        np.testing.assert_array_equal(upd.old_t, upd.new_t)
        assert (rotation_angles_deg(upd.old_q, upd.new_q) == 0.0).all()
        np.testing.assert_array_equal(scene.landmarks, update.landmarks)

    def test_scale_two_doubles_distances_and_scale_factor(self):
        scene = generate_scene(SceneSpec(shape="forward", seed=8))
        sim = SimilarityTransform(Rotation.identity(), np.zeros(3), 2.0)
        upd = apply_similarity_update(scene, sim).keyframe_updates
        d_old = np.linalg.norm(np.diff(upd.old_t, axis=0), axis=1)
        d_new = np.linalg.norm(np.diff(upd.new_t, axis=0), axis=1)
        assert (np.abs(d_new - 2.0 * d_old) < 1e-12).all()

        def t_ab(q, t):  # each keyframe's translation in the frame of the one before
            inv_q, inv_t = pose_inverse(q[:-1], t[:-1])
            return quat_rotate(inv_q, t[1:]) + inv_t

        for old, new in zip(t_ab(upd.old_q, upd.old_t), t_ab(upd.new_q, upd.new_t)):
            assert abs(scale_factor(old, new)[0] - 2.0) < 1e-12


    def test_observations_invariant_under_similarity(self):
        # Recomputing pixels from updated landmarks through updated GT
        # frames must reproduce the stored pixels: uniform depth scaling
        # cancels in the pinhole division.
        scene = generate_scene(SceneSpec(shape="mav", seed=9))
        sim = SimilarityTransform.random(np.random.default_rng(10), scale=1.6)
        update = apply_similarity_update(scene, sim)
        moved = FrameTable.of([(fid, sim.apply_pose(p)) for fid, p in scene.gt_world_poses()])
        rr = reprojection_rms(scene, moved, update.landmarks)
        assert rr.rms_px < 1e-9
        assert rr.n_behind == 0
        # Each keyframe moves as sim.apply_pose moves it, bit for bit.
        want, upd = moved.take(scene.trajectory.kf_rows), update.keyframe_updates
        assert upd.new_q.tobytes() == want.q.tobytes() and upd.new_t.tobytes() == want.t.tobytes()

    def test_depths_scale_uniformly(self):
        scene = generate_scene(SceneSpec(shape="forward", seed=11))
        s = 0.5
        sim = SimilarityTransform.random(np.random.default_rng(12), scale=s)
        update = apply_similarity_update(scene, sim)
        moved = FrameTable.of([(fid, sim.apply_pose(p)) for fid, p in scene.gt_world_poses()])
        inv_q, inv_t = pose_inverse(moved.q, moved.t)
        # A path frame's index is its row.
        f, lm = scene.observations.frame_indices[::37], scene.observations.landmark_ids[::37]
        cam = quat_rotate(inv_q[f], update.landmarks[lm]) + inv_t[f]
        assert (np.abs(cam[:, 2] - s * scene.observations.depths[::37]) < 1e-9).all()

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
        frames = scene.gt_world_poses()
        shift_world = quat_rotate(frames.q, np.tile((delta, 0.0, 0.0), (len(frames), 1)))
        shifted = FrameTable(frames.stamps, frames.indices, frames.q, frames.t + shift_world)
        rr = reprojection_rms(scene, shifted, scene.landmarks)
        predicted = math.sqrt(np.mean((scene.camera.fx * delta / scene.observations.depths) ** 2))
        assert abs(rr.rms_px / predicted - 1.0) < 0.05
        assert 0.01 < rr.rms_px < 1.0  # ~0.1 px order for fx=500, depths 2.5-25 m

    def test_perturbed_keyframes_update_moves_reprojection(self):
        scene = generate_scene(SceneSpec(shape="mav", seed=14))
        update = perturb_keyframes_update(scene, 0.002, 0.005, np.random.default_rng(15))
        kf, upd, obs = scene.trajectory.kf, update.keyframe_updates, scene.observations
        keep = np.isin(obs.frame_indices, kf.indices)
        kf_only = Observations(*(getattr(obs, f.name)[keep] for f in dataclasses.fields(obs)))
        kf_scene = dataclasses.replace(scene, observations=kf_only)
        rr = reprojection_rms(kf_scene, FrameTable(kf.stamps, kf.indices, upd.new_q, upd.new_t),
                              update.landmarks)
        assert rr.rms_px > 0.1
        # Each keyframe draws its so(3), then its translation noise, in order.
        rng = np.random.default_rng(15)
        want = [Pose(so3_exp(rng.normal(0.0, 0.002, 3)), rng.normal(0.0, 0.005, 3)) * p
                for _, p in kf]
        q, t = pose_arrays(want)
        assert upd.new_q.tobytes() == q.tobytes() and upd.new_t.tobytes() == t.tobytes()

    def test_missing_candidate_pose_rejected(self):
        scene = generate_scene(SceneSpec(shape="line", seed=16))
        with pytest.raises(ValueError, match="missing"):
            reprojection_rms(scene, scene.gt_world_poses().take(slice(0, 3)), scene.landmarks)

    def test_behind_camera_excluded_and_counted(self):
        scene = generate_scene(SceneSpec(shape="line", seed=17))
        frames = scene.gt_world_poses()
        flip = np.broadcast_to(so3_exp((0.0, math.pi, 0.0)).quat, frames.q.shape)
        flipped = FrameTable(frames.stamps, frames.indices, quat_mul(flip, frames.q), frames.t)
        rr = reprojection_rms(scene, flipped, scene.landmarks)
        assert rr.n_behind == len(scene.observations.depths)
        assert rr.n_used == 0


# Scene specs with the sha256 of their scene.txt and the final state of the
# scene's generator (the path tests pin the path's): simulate's files.
SCENES = {
    "mav noisy": (SceneSpec(shape="mav", seed=18, pixel_noise=0.3),
                  "affb5a99f8037d6defe833370283b776aef881f6a0a1622cf93c37a4d3c9cfc4",
                  133889831554863671031976179195529467170),
    "forward noisy": (SceneSpec(shape="forward", seed=4, pixel_noise=1.5),
                      "f7cb64a0be7c80f2503093d93a28ee2572e5fe9d15c43ff9d425b8f4b3d5cf97",
                      110963777091304375816159802922753154887),
    "line": (SceneSpec(shape="line", seed=9),
             "a301a40d0676bb071d17842c37ee4ef01f9e23a38a6cc4b772c30f62352ea842",
             181856398546650057564461512687197665113),
    "rotonly noisy": (SceneSpec(shape="rotonly", seed=2, pixel_noise=0.3),
                      "17306a60895f878b71125659eecd66a1528edf2c5a014d760a2ee862f55c3dad",
                      206807713885565805761621470222446562066),
    # Keyframes only: every [poses] row is a [keyframes] row.
    "keyframes only": (SceneSpec(shape="mav", rels_per_segment=0, seed=5),
                       "032c723db75bdd20fe3105b2fb5ebd2c46aece4022f1022320bc2f6a1c7bed7c",
                       316583439257815485394779737995351591614),
    "two keyframes": (SceneSpec(shape="forward", n_keyframes=2, seed=6),
                      "69ee2e2968f825b1a9820a25819f5836f87e180128bdaa71d34a411bc1e4fe30",
                      122189894641096730646995971450834774030),
    # Two top-up rounds through the weakest pair.
    "few landmarks": (SceneSpec(shape="line", n_landmarks=1, seed=3),
                      "5b203ff003811ffeac8a92d95be56dfea0edbe27bf60b3ab3a6ba19f6d441e4d",
                      333745762058983232234985214045603476843),
    # A seed past int64 still gives a scene the file holds.
    "huge seed": (SceneSpec(shape="mav", seed=2**70),
                  "fc8500ef297abf778eed9af7842a8500e629fafc16ccde4777e6e09cdce592c6",
                  178620293386980833400295871390377459185),
}


class TestSceneSerialization:
    @pytest.mark.parametrize("spec, sha256, scene_state", SCENES.values(), ids=list(SCENES))
    def test_scene_file_and_draws_pinned(self, monkeypatch, tmp_path, spec, sha256, scene_state):
        scene, states = with_generator_states(monkeypatch, lambda: generate_scene(spec))
        save_scene(scene, tmp_path / "scene.txt")
        assert hashlib.sha256((tmp_path / "scene.txt").read_bytes()).hexdigest() == sha256
        assert len(states) == 2 and states[1]["state"]["state"] == scene_state

    @pytest.mark.parametrize("name", SCENES)
    def test_observations_equal_per_frame_projection(self, name):
        # Each path frame's Pose.inverse() projects every landmark through
        # the scalar project.  A zero-noise scene observes exactly the pairs
        # in front and inside the image, at those pixels; a noisy one a subset.
        spec = SCENES[name][0]
        scene = generate_scene(spec)
        cam = scene.camera
        visible = {}
        for fid, pose in path_world_poses(spec):
            world_to_cam = pose.inverse()
            for lm, point in enumerate(scene.landmarks):
                out = project(cam, world_to_cam, point)
                if out is not None and 0 <= out[0][0] < cam.width and 0 <= out[0][1] < cam.height:
                    visible[fid.index, lm] = out
        obs = scene.observations
        pairs = list(zip(obs.frame_indices.tolist(), obs.landmark_ids.tolist()))
        assert set(pairs) <= set(visible) and pairs == sorted(pairs)
        assert obs.depths.tobytes() == np.array([visible[p][1] for p in pairs]).tobytes()
        if spec.pixel_noise == 0.0:
            assert pairs == list(visible)
            assert obs.pixels.tobytes() == np.array([visible[p][0] for p in pairs]).tobytes()

    @pytest.mark.parametrize("name", SCENES)
    def test_sections_read_back_bitwise(self, tmp_path, name):
        # Each section of scene.txt, read back by np.loadtxt, holds the
        # scene's values bit for bit.
        spec = SCENES[name][0]
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
        cam, obs = scene.camera, scene.observations
        want = {
            "camera": [[cam.fx, cam.fy, cam.cx, cam.cy, cam.width, cam.height]],
            "poses": np.column_stack(tum_columns(scene.gt_world_poses())),
            "keyframes": np.array(keyframe_positions(spec))[:, None],
            "landmarks": np.column_stack((np.arange(len(scene.landmarks)), scene.landmarks)),
            "observations": np.column_stack((obs.frame_indices, obs.landmark_ids, obs.pixels,
                                             obs.depths)),
        }
        assert list(read) == list(want)
        for name, rows in want.items():
            rows = np.asarray(rows, dtype=float)
            assert read[name].shape == rows.shape and read[name].tobytes() == rows.tobytes(), name
