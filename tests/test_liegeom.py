"""Rotation/pose algebra: analytic cases, round-trips, and cross-checks
against scipy's independently implemented conversions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation as ScipyRotation

from posecorrect.liegeom import (
    Pose,
    Rotation,
    _math_rows,
    euler_zyx_to,
    euler_zyx_from_rows,
    euler_zyx_to_rows,
    mat_vec,
    pose_arrays,
    pose_inverse,
    pose_mul,
    poses_from_arrays,
    quat_from_matrix,
    quat_inverse,
    quat_matrix,
    quat_mul,
    quat_normalize,
    quat_rotate,
    rotation_angles_deg,
    slerp,
    slerp_from_identity,
    so3_exp,
    so3_exp_rows,
    so3_left_jacobian_inv_rows,
    so3_left_jacobian_rows,
    so3_log_rows,
    vec_norm,
)
from reference_kernels import (
    euler_zyx_from_scalar, gimbal_proximity_scalar, rotation_angle_deg_scalar, rotation_matrix_scalar,
    so3_left_jacobian_inv_scalar, so3_left_jacobian_scalar, so3_log_scalar,
)


def random_rotation(seed: int) -> Rotation:
    return Rotation.random(np.random.default_rng(seed))


def random_quats(seed: int, n: int) -> np.ndarray:
    """The quaternions of ``n`` uniformly random rotations, as rows."""
    return quat_normalize(np.random.default_rng(seed).normal(size=(n, 4)))


def as_scipy(q: np.ndarray) -> ScipyRotation:
    """Rows of wxyz quaternions as scipy rotations, which take xyzw."""
    return ScipyRotation.from_quat(q[:, [1, 2, 3, 0]])


@st.composite
def rotations(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_rotation(seed)


@st.composite
def poses(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return Pose(Rotation.random(rng), rng.uniform(-10.0, 10.0, size=3))


def so3_checks(r: Rotation, tol: float = 1e-9):
    m = rotation_matrix_scalar(r)
    assert abs(np.linalg.det(m) - 1.0) < tol
    assert np.max(np.abs(m.T @ m - np.eye(3))) < tol
    assert abs(np.linalg.norm(r.quat) - 1.0) < 1e-12
    assert r.quat[0] >= 0.0


class TestRotationBasics:
    def test_identity(self):
        r = Rotation.identity()
        assert np.allclose(rotation_matrix_scalar(r), np.eye(3))
        np.testing.assert_array_equal(r.quat, [1.0, 0.0, 0.0, 0.0])

    def test_quat_canonicalization_flips_negative_w(self):
        r = Rotation((-0.5, 0.5, 0.5, 0.5))
        assert r.quat[0] == 0.5

    def test_half_turn_canonical_sheet(self):
        a = Rotation((0.0, 0.0, 0.0, 1.0))
        b = Rotation((0.0, 0.0, 0.0, -1.0))
        np.testing.assert_array_equal(a.quat, b.quat)

    def test_matrix_round_trip_matches_scipy(self):
        q = random_quats(0, 50)
        m = quat_matrix(q)
        np.testing.assert_allclose(m, as_scipy(q).as_matrix(), atol=1e-12)
        assert rotation_angles_deg(q, quat_from_matrix(m)).max() < 1e-9

    def test_compose_matches_matrix_product(self):
        a, b = random_rotation(1), random_rotation(2)
        np.testing.assert_allclose(rotation_matrix_scalar(a * b),
                                   rotation_matrix_scalar(a) @ rotation_matrix_scalar(b), atol=1e-12)

    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(3)
        r = Rotation.random(rng)
        m = rotation_matrix_scalar(r)
        v = rng.normal(size=3)
        np.testing.assert_allclose(r.apply(v), m @ v, atol=1e-12)
        stack = rng.normal(size=(7, 3))
        np.testing.assert_allclose(r.apply(stack), stack @ m.T, atol=1e-12)

    @settings(max_examples=150)
    @given(rotations(), rotations())
    def test_composition_stays_on_so3(self, a, b):
        so3_checks(a * b)
        so3_checks(a.inverse())

    def test_inverse_composes_to_identity(self):
        for seed in range(20):
            r = random_rotation(seed)
            assert rotation_angle_deg_scalar(r * r.inverse(), Rotation.identity()) < 1e-9


class TestSo3ExpLog:
    def test_log_identity_is_zero(self):
        np.testing.assert_array_equal(so3_log_rows(Rotation.identity().quat[None]), np.zeros((1, 3)))

    def test_log_quarter_turn_about_z(self):
        q = quat_from_matrix(np.array([[[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]]))
        np.testing.assert_allclose(so3_log_rows(q), [[0.0, 0.0, math.pi / 2]], atol=1e-12)

    def test_exp_zero_is_identity(self):
        assert rotation_angle_deg_scalar(so3_exp((0.0, 0.0, 0.0)), Rotation.identity()) == 0.0

    def test_exp_half_turn_about_x(self):
        np.testing.assert_allclose(
            rotation_matrix_scalar(so3_exp((math.pi, 0.0, 0.0))), np.diag([1.0, -1.0, -1.0]), atol=1e-12
        )

    def test_collinear_composition(self):
        # exp(a) * exp(a) == exp(2a) for collinear arguments.
        a = np.array([0.3, -0.2, 0.5])
        lhs = so3_exp(a) * so3_exp(a)
        rhs = so3_exp(2.0 * a)
        assert rotation_angle_deg_scalar(lhs, rhs) < 1e-9

    def test_round_trip_1000_random(self):
        q = random_quats(42, 1000)
        assert rotation_angles_deg(q, so3_exp_rows(so3_log_rows(q))).max() < 1e-9

    def test_log_is_canonical(self):
        w = so3_log_rows(random_quats(7, 500))
        assert np.linalg.norm(w, axis=1).max() <= math.pi + 1e-12

    def test_near_pi_angles_stable(self):
        axis = np.random.default_rng(11).normal(size=(200, 3))
        axis /= np.linalg.norm(axis, axis=1, keepdims=True)
        w = (math.pi - 1e-7) * axis
        np.testing.assert_allclose(so3_log_rows(so3_exp_rows(w)), w, atol=1e-9)

    def test_tiny_angles_stable(self):
        w = np.array([1e-12, 1e-9, 1e-7])[:, None] * np.array([1.0, -0.5, 0.25])
        np.testing.assert_allclose(so3_log_rows(so3_exp_rows(w)), w, rtol=1e-6, atol=1e-15)

    def test_matches_scipy_rotvec(self):
        q = random_quats(0, 50)
        np.testing.assert_allclose(so3_log_rows(q), as_scipy(q).as_rotvec(), atol=1e-10)


class TestPose:
    @settings(max_examples=100)
    @given(poses(), poses(), poses())
    def test_composition_associativity(self, a, b, c):
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert rotation_angle_deg_scalar(lhs.rotation, rhs.rotation) < 1e-9
        np.testing.assert_allclose(lhs.translation, rhs.translation, atol=1e-9)

    @settings(max_examples=100)
    @given(poses())
    def test_inverse_composes_to_identity(self, p):
        ident = p * p.inverse()
        assert rotation_angle_deg_scalar(ident.rotation, Rotation.identity()) < 1e-9
        np.testing.assert_allclose(ident.translation, np.zeros(3), atol=1e-9)

    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(8)
        p = Pose(Rotation.random(rng), rng.normal(size=3))
        v = rng.normal(size=3)
        expected = rotation_matrix_scalar(p.rotation) @ v + p.translation
        np.testing.assert_allclose(p.apply(v), expected, atol=1e-12)


class TestEuler:
    def test_identity(self):
        angles, gimbal = euler_zyx_from_rows(Rotation.identity().quat[None])
        np.testing.assert_array_equal(angles, np.zeros((1, 3)))
        assert gimbal.tolist() == [False]

    def test_pure_yaw(self):
        angles, _ = euler_zyx_from_rows(euler_zyx_to_rows(np.array([[math.pi / 2, 0.0, 0.0]])))
        np.testing.assert_allclose(angles, [[math.pi / 2, 0.0, 0.0]], atol=1e-12)

    def test_round_trip_random_nondegenerate(self):
        q = random_quats(99, 1200)
        angles, _ = euler_zyx_from_rows(q)
        keep = np.abs(np.cos(angles[:, 1])) >= 1e-3
        assert keep.sum() >= 1000
        assert rotation_angles_deg(q[keep], euler_zyx_to_rows(angles[keep])).max() < 1e-9

    def test_matches_scipy_convention(self):
        q = random_quats(0, 50)
        np.testing.assert_allclose(euler_zyx_from_rows(q)[0], as_scipy(q).as_euler("ZYX"), atol=1e-10)

    def test_gimbal_flagged_and_result_still_returned(self):
        q = euler_zyx_to_rows(np.array([[0.3, math.pi / 2, 0.0], [0.3, 0.4, 0.5]]))
        angles, gimbal = euler_zyx_from_rows(q)
        assert gimbal.tolist() == [True, False]  # not for a generic rotation
        assert np.all(np.isfinite(angles))
        # Yaw - roll is the observable combination at the singularity.
        assert rotation_angles_deg(q, euler_zyx_to_rows(angles)).max() < 1e-6


class TestSlerp:
    def test_endpoints_exact(self):
        q0, q1 = random_rotation(0), random_rotation(1)
        assert slerp(q0, q1, 0.0) is q0
        assert slerp(q0, q1, 1.0) is q1

    def test_same_rotation_any_factor(self):
        r = random_rotation(5)
        for a in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert rotation_angle_deg_scalar(slerp(r, r, a), r) < 1e-12

    def test_geodesic_midpoint_single_axis(self):
        q1 = so3_exp((0.0, 0.0, math.pi / 2))
        mid = slerp(Rotation.identity(), q1, 0.5)
        expected = so3_exp((0.0, 0.0, math.pi / 4))
        assert rotation_angle_deg_scalar(mid, expected) < 1e-12

    def test_angle_linearity_1000_random_pairs(self):
        # Independent oracle: the geodesic angle computed from the matrix
        # trace, not from the slerp path under test.
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            q0 = Rotation.random(rng)
            q1 = Rotation.random(rng)
            a = rng.uniform()
            full = _trace_angle_deg(q0, q1)
            part = _trace_angle_deg(q0, slerp(q0, q1, a))
            assert abs(part - a * full) < 1e-9 * max(1.0, full)

    @settings(max_examples=150)
    @given(rotations(), rotations(), st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry(self, q0, q1, a):
        lhs = slerp(q0, q1, a)
        rhs = slerp(q1, q0, 1.0 - a)
        assert rotation_angle_deg_scalar(lhs, rhs) < 1e-9

    def test_nearly_parallel_falls_back_to_nlerp(self):
        q0 = Rotation.identity()
        q1 = so3_exp((1e-5, 0.0, 0.0))
        mid = slerp(q0, q1, 0.5)
        so3_checks(mid)
        assert rotation_angle_deg_scalar(mid, so3_exp((0.5e-5, 0.0, 0.0))) < 1e-9

    def test_out_of_range_factor_rejected(self):
        with pytest.raises(ValueError):
            slerp(random_rotation(0), random_rotation(1), 1.5)

    @pytest.mark.parametrize("wxyz", [(math.nan, 0.0, 0.0, 0.0), (1.0, math.inf, 0.0, 0.0)])
    def test_non_finite_quaternion_rejected(self, wxyz):
        with pytest.raises(ValueError, match="non-finite"):
            slerp(Rotation.identity(), Rotation(wxyz), 0.5)
        with pytest.raises(ValueError, match="non-finite"):
            slerp(Rotation(wxyz), Rotation.identity(), 0.5)


def _trace_angle_deg(r1: Rotation, r2: Rotation) -> float:
    m = rotation_matrix_scalar(r1).T @ rotation_matrix_scalar(r2)
    c = min(1.0, max(-1.0, (np.trace(m) - 1.0) / 2.0))
    return math.degrees(math.acos(c))


class TestRotationAngle:
    def test_same_rotation_zero(self):
        q = random_quats(3, 20)
        assert rotation_angles_deg(q, q).tolist() == [0.0] * 20

    def test_quarter_turn_is_90(self):
        q = np.array([Rotation.identity().quat, so3_exp((0, 0, math.pi / 2)).quat])
        assert abs(rotation_angles_deg(q[:1], q[1:])[0] - 90.0) < 1e-12

    @settings(max_examples=150)
    @given(rotations(), rotations())
    def test_symmetric(self, a, b):
        assert abs(rotation_angle_deg_scalar(a, b) - rotation_angle_deg_scalar(b, a)) < 1e-9

    def test_range(self):
        d = rotation_angles_deg(random_quats(17, 300), random_quats(18, 300))
        assert d.min() >= 0.0 and d.max() <= 180.0

    @settings(max_examples=500)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=20))
    def test_degrees_is_one_multiply_bitwise(self, values):
        # rotation_angles_deg multiplies by 180 / pi in place of math.degrees.
        x = np.array(values)
        with np.errstate(over="ignore"):
            got = x * (180.0 / math.pi)
        assert got.tobytes() == np.array([math.degrees(v) for v in values]).tobytes()

    def test_matches_trace_formula(self):
        rng = np.random.default_rng(23)
        pairs = [(Rotation.random(rng), Rotation.random(rng)) for _ in range(300)]
        got = rotation_angles_deg(*(np.array([r.quat for r in rots]) for rots in zip(*pairs)))
        want = [_trace_angle_deg(a, b) for a, b in pairs]
        assert np.abs(got - want).max() < 1e-7


# -- array forms against the scalar operations, bit for bit ----------------------


@st.composite
def raw_quaternions(draw):
    """An unnormalized quaternion: random, an exact half-turn (w = +-0 with
    negative or zero vector components), the identity, or a rotation close
    enough to the identity for slerp's nlerp branch."""
    kind = draw(st.sampled_from(("random", "half-turn", "identity", "near-identity")))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    if kind == "random":
        return rng.normal(size=4)
    if kind == "half-turn":
        v = rng.normal(size=3)
        v[rng.random(3) < 0.4] = 0.0
        v[rng.integers(3)] = -abs(rng.normal()) - 0.1
        return np.array([draw(st.sampled_from((0.0, -0.0))), *v])
    if kind == "identity":
        return np.array([1.0, 0.0, 0.0, 0.0])
    return so3_exp(rng.normal(0.0, 0.01, size=3)).quat * rng.uniform(0.5, 2.0)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit patterns, so -0.0 differs from 0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


batches = st.lists(raw_quaternions(), min_size=1, max_size=6)
factors = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(min_value=0.0, max_value=1.0))


class TestArrayForms:
    @settings(max_examples=200)
    @given(batches)
    def test_normalize_matches_rotation_constructor(self, rows):
        got = quat_normalize(np.array(rows))
        for row, raw in zip(got, rows):
            assert same_bits(row, Rotation(tuple(raw)).quat)

    @settings(max_examples=200)
    @given(st.lists(st.tuples(raw_quaternions(), raw_quaternions()), min_size=1, max_size=6))
    def test_product_and_inverse_match(self, pairs):
        a = [Rotation(tuple(qa)) for qa, _ in pairs]
        b = [Rotation(tuple(qb)) for _, qb in pairs]
        qa = np.array([r.quat for r in a])
        qb = np.array([r.quat for r in b])
        for row, ra, rb in zip(quat_mul(qa, qb), a, b):
            assert same_bits(row, (ra * rb).quat)
        for row, ra in zip(quat_inverse(qa), a):
            assert same_bits(row, ra.inverse().quat)

    @settings(max_examples=200)
    @given(batches, st.integers(min_value=0, max_value=2**31 - 1))
    def test_rotate_and_pose_product_match(self, rows, seed):
        rng = np.random.default_rng(seed)
        a = [Pose(Rotation(tuple(q)), rng.uniform(-10.0, 10.0, 3)) for q in rows]
        b = [Pose(Rotation.random(rng), rng.uniform(-10.0, 10.0, 3)) for _ in rows]
        qa, ta = pose_arrays(a)
        qb, tb = pose_arrays(b)
        for row, pa, pb in zip(quat_rotate(qa, tb), a, b):
            assert same_bits(row, pa.rotation.apply(pb.translation))
        q, t = pose_mul(qa, ta, qb, tb)
        for got, pa, pb in zip(poses_from_arrays(q, t), a, b):
            want = pa * pb
            assert same_bits(got.rotation.quat, want.rotation.quat)
            assert same_bits(got.translation, want.translation)
        for n, v in zip(vec_norm(tb), tb):
            assert same_bits(n, np.float64(np.linalg.norm(v)))

    @settings(max_examples=300)
    @given(st.lists(st.tuples(raw_quaternions(), factors), min_size=1, max_size=6))
    def test_slerp_from_identity_matches(self, pairs):
        rots = [Rotation(tuple(q)) for q, _ in pairs]
        alphas = np.array([a for _, a in pairs])
        got = slerp_from_identity(np.array([r.quat for r in rots]), alphas)
        for row, r, a in zip(got, rots, alphas.tolist()):
            assert same_bits(row, slerp(Rotation.identity(), r, a).quat)

    def test_slerp_branches_reached(self):
        # The cases the property test draws cover both interior branches.
        near = so3_exp((0.01, 0.0, 0.0)).quat
        far = so3_exp((1.0, 0.0, 0.0)).quat
        assert near[0] > 0.9995 > far[0]
        got = slerp_from_identity(np.array([near, far]), np.array([0.5, 0.5]))
        for row, q in zip(got, (near, far)):
            assert same_bits(row, slerp(Rotation.identity(), Rotation(q), 0.5).quat)

    @pytest.mark.parametrize("wxyz", [(math.nan, 0.0, 0.0, 0.0), (1.0, math.inf, 0.0, 0.0)])
    def test_non_finite_quaternion_rejected(self, wxyz):
        q = np.array([Rotation.identity().quat, Rotation(wxyz).quat])
        with pytest.raises(ValueError, match="non-finite"):
            slerp_from_identity(q, np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="non-finite"):
            slerp(Rotation.identity(), Rotation(wxyz), 0.5)
        # At the endpoints no dot product is taken, in either form.
        ends = slerp_from_identity(q, np.array([0.0, 1.0]))
        assert same_bits(ends[1], Rotation(wxyz).quat)

    def test_out_of_range_factor_rejected(self):
        with pytest.raises(ValueError, match="interpolation factor"):
            slerp_from_identity(np.array([random_rotation(0).quat]), np.array([1.5]))

    @pytest.mark.parametrize("layout", ["interior", "ends", "invalid"])
    def test_slerp_from_identity_on_each_factor_layout(self, layout):
        # Factors all interior take the path without gathers, factors with
        # exact ends the gathered one; a NaN or out-of-range factor raises
        # in both forms, naming the first such factor.
        rng = np.random.default_rng(17)
        rots = [Rotation.random(rng) for _ in range(6)]
        rots += [Rotation.identity(), so3_exp((0.01, 0.0, 0.0)), Rotation((0.0, -1.0, 0.0, 0.0))]
        q = np.array([r.quat for r in rots])
        alphas = rng.uniform(0.05, 0.95, len(rots))
        if layout == "ends":
            alphas[[0, 6]], alphas[[1, 7]] = 0.0, 1.0
        if layout == "invalid":
            for bad in (math.nan, -0.25, 1.5):
                alphas[3] = bad
                with pytest.raises(ValueError, match=f"interpolation factor .* got {bad}$"):
                    slerp_from_identity(q, alphas)
                with pytest.raises(ValueError, match=f"interpolation factor .* got {bad}$"):
                    slerp(Rotation.identity(), rots[3], bad)
            return
        got = slerp_from_identity(q, alphas)
        for row, r, a in zip(got, rots, alphas.tolist()):
            assert same_bits(row, slerp(Rotation.identity(), r, a).quat)


def cascade_normalize(q: np.ndarray) -> np.ndarray:
    """``Rotation.__init__``'s w/x/y/z comparison cascade on an (N, 4) or
    (4,) array: the oracle for ``quat_normalize``'s sign test."""
    w, x, y, z = q.T
    q = q / np.sqrt(w * w + x * x + y * y + z * z)[..., None]
    w, x, y, z = q.T
    flip = (w < 0.0) | (
        (w == 0.0) & ((x < 0.0) | ((x == 0.0) & ((y < 0.0) | ((y == 0.0) & (z < 0.0)))))
    )
    np.negative(q, out=q, where=flip[..., None])
    return q


# Signed zeros, half-turn and unit components, NaN, the infinities, and
# magnitudes whose squares underflow to zero (the norm is then 0, and the
# scaled row mixes infinities with NaN) or overflow to infinity.
SHEET_COMPONENTS = (0.0, -0.0, 1.0, -1.0, 0.5, math.nan, math.inf, -math.inf,
                    1e-170, -1e-170, 1e200, -1e200)


class TestSheetAndStrides:
    """``quat_normalize``'s sign test against the comparison cascade, and
    the quaternion products on strided column views against contiguous
    copies, bit for bit."""

    def test_sign_test_matches_cascade_on_every_component_mix(self):
        grid = np.array(np.meshgrid(*[SHEET_COMPONENTS] * 4, indexing="ij")).reshape(4, -1).T
        with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
            got, want = quat_normalize(grid), cascade_normalize(grid.copy())
        assert same_bits(got, want)
        # The grid reaches both sheets and the degenerate rows.
        assert ((grid[:, 0] < 0.0) & (got[:, 0] > 0.0)).any()
        assert np.isnan(got).any() and np.isinf(got).any()

    @pytest.mark.parametrize("wxyz", [
        (-0.0, 0.0, -0.0, -2.0), (0.0, -0.0, 3.0, -1.0), (-1.0, 2.0, -3.0, 4.0),
        (-1e-170, 0.0, 0.0, 0.0), (1.0, math.nan, 0.0, 0.0), (-1.0, 0.0, math.inf, 0.0),
    ])
    def test_single_quaternion(self, wxyz):
        q = np.array(wxyz)
        with np.errstate(divide="ignore", invalid="ignore"):
            got, want = quat_normalize(q), cascade_normalize(q.copy())
            row = quat_normalize(q[None])[0]
        assert got.shape == (4,)
        assert same_bits(got, want)
        assert same_bits(got, row)
        if np.isfinite(q).all() and abs(wxyz[0]) > 1e-100:
            assert same_bits(got, Rotation(wxyz).quat)

    @settings(max_examples=100)
    @given(st.lists(st.tuples(raw_quaternions(), raw_quaternions()), min_size=1, max_size=6),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_products_on_repeated_table_views(self, pairs, seed):
        # A per-segment table repeated per frame, as the proposed kernel
        # builds one, sliced into quaternion and translation columns.
        rng = np.random.default_rng(seed)
        n = len(pairs)
        qa = quat_normalize(np.array([a for a, _ in pairs]))
        qb = quat_normalize(np.array([b for _, b in pairs]))
        ta, tb = rng.uniform(-10.0, 10.0, (2, n, 3))
        per_segment = np.column_stack((qa, ta, qb, tb, rng.uniform(0.5, 2.0, n)))
        table = np.repeat(per_segment, rng.integers(2, 5, n), axis=0)
        views = table[:, 0:4], table[:, 4:7], table[:, 7:11], table[:, 11:14]
        assert not any(v.flags.c_contiguous for v in views)
        copies = [np.ascontiguousarray(v) for v in views]
        assert same_bits(quat_mul(views[0], views[2]), quat_mul(copies[0], copies[2]))
        assert same_bits(quat_rotate(views[0], views[3]), quat_rotate(copies[0], copies[3]))
        for got, want in zip(pose_mul(*views), pose_mul(*copies)):
            assert same_bits(got, want)
        # A 1-wide column view scales a translation view, as ``s`` does.
        s_col = table[:, 14:15]
        assert same_bits(quat_rotate(views[2], s_col * views[1]),
                         quat_rotate(copies[2], np.ascontiguousarray(s_col) * copies[1]))


@st.composite
def tangents(draw):
    """An axis-angle vector: zero, just below or above the Taylor switch of
    the exp/log factors (1e-8 rad) or of the V-matrix coefficients (1e-4
    rad), or random up to beyond pi."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    scale = draw(st.sampled_from((0.0, 1e-8, 1e-4, None)))
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    if scale is None:
        return axis * rng.uniform(0.0, 3.5)
    return axis * scale * draw(st.sampled_from((0.5, 0.999999, 1.0, 1.000001, 2.0)))


@st.composite
def euler_angles(draw):
    """(yaw, pitch, roll), with the pitch random or within 1e-9 of +-pi/2."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    yaw, pitch, roll = rng.uniform(-math.pi, math.pi, 3)
    if draw(st.booleans()):
        pitch = draw(st.sampled_from((0.5, -0.5))) * math.pi + rng.uniform(-1e-9, 1e-9)
    return np.array([yaw, pitch, roll])


tangent_batches = st.lists(tangents(), min_size=1, max_size=6)


class TestLieArrayForms:
    """The exp/log, Jacobian, Euler and metric array forms against their
    scalar forms, bit for bit: ``so3_exp`` and ``euler_zyx_to`` of the
    package, and the oracles of ``reference_kernels`` for the rest."""

    @settings(max_examples=200)
    @given(batches)
    def test_log_matrix_euler_and_gimbal_match(self, rows):
        rots = [Rotation(tuple(q)) for q in rows]
        q = np.array([r.quat for r in rots])
        for r, log, m, euler, gimbal in zip(
            rots, so3_log_rows(q), quat_matrix(q), *euler_zyx_from_rows(q)
        ):
            assert same_bits(log, so3_log_scalar(r))
            assert same_bits(m, rotation_matrix_scalar(r))
            assert same_bits(euler, euler_zyx_from_scalar(r))
            assert gimbal == gimbal_proximity_scalar(r)

    @settings(max_examples=200)
    @given(st.lists(euler_angles(), min_size=1, max_size=6))
    def test_euler_round_trip_and_gimbal_match(self, angles):
        q = euler_zyx_to_rows(np.array(angles))
        for row, a in zip(q, angles):
            assert same_bits(row, euler_zyx_to(a).quat)
        rots = [Rotation._from_canonical(row) for row in q]
        for euler, gimbal, r in zip(*euler_zyx_from_rows(q), rots):
            assert same_bits(euler, euler_zyx_from_scalar(r))
            assert gimbal == gimbal_proximity_scalar(r)

    def test_near_gimbal_pitch_flagged(self):
        q = euler_zyx_to_rows(np.array([[0.3, 0.5 * math.pi, 0.1], [0.3, 0.2, 0.1]]))
        angles, gimbal = euler_zyx_from_rows(q)
        assert gimbal.tolist() == [True, False]
        assert angles[0, 2] == 0.0

    @settings(max_examples=300)
    @given(tangent_batches, st.integers(min_value=0, max_value=2**31 - 1))
    def test_exp_and_jacobians_match(self, omegas, seed):
        omega = np.array(omegas)
        v = np.random.default_rng(seed).uniform(-10.0, 10.0, omega.shape)
        jac, jac_inv = so3_left_jacobian_rows(omega), so3_left_jacobian_inv_rows(omega)
        for row, w in zip(so3_exp_rows(omega), omega):
            assert same_bits(row, so3_exp(w).quat)
        for j, j_inv, w, x, jx, jx_inv in zip(
            jac, jac_inv, omega, v, mat_vec(jac, v), mat_vec(jac_inv, v)
        ):
            assert same_bits(j, so3_left_jacobian_scalar(w))
            assert same_bits(j_inv, so3_left_jacobian_inv_scalar(w))
            assert same_bits(jx, so3_left_jacobian_scalar(w) @ x)
            assert same_bits(jx_inv, so3_left_jacobian_inv_scalar(w) @ x)

    @settings(max_examples=200)
    @given(st.lists(st.tuples(raw_quaternions(), raw_quaternions()), min_size=1, max_size=6),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_pose_inverse_and_angles_match(self, pairs, seed):
        rng = np.random.default_rng(seed)
        a = [Rotation(tuple(qa)) for qa, _ in pairs]
        b = [Rotation(tuple(qb)) for _, qb in pairs]
        poses = [Pose(r, rng.uniform(-10.0, 10.0, 3)) for r in a]
        q, t = pose_inverse(*pose_arrays(poses))
        for got_q, got_t, pose in zip(q, t, poses):
            assert same_bits(got_q, pose.inverse().rotation.quat)
            assert same_bits(got_t, pose.inverse().translation)
        angles = rotation_angles_deg(np.array([r.quat for r in a]), np.array([r.quat for r in b]))
        for got, ra, rb in zip(angles.tolist(), a, b):
            assert got == rotation_angle_deg_scalar(ra, rb)

    def test_infinite_argument_raises_and_nan_propagates(self):
        # math.sin and math.cos raise on inf and pass NaN through; so do
        # the array forms.
        for fn, scalar in ((so3_exp_rows, so3_exp), (euler_zyx_to_rows, euler_zyx_to),
                           (so3_left_jacobian_rows, so3_left_jacobian_scalar)):
            with pytest.raises(ValueError, match="math domain error"):
                scalar(np.array([math.inf, 0.0, 0.0]))
            with pytest.raises(ValueError, match="math domain error"):
                fn(np.array([[0.1, 0.2, 0.3], [math.inf, 0.0, 0.0]]))
            assert np.isnan(fn(np.array([[math.nan, 0.0, 0.0]]))).any()

    def test_empty_batches(self):
        q, v = np.zeros((0, 4)), np.zeros((0, 3))
        angles, gimbal = euler_zyx_from_rows(q)
        assert so3_log_rows(q).shape == angles.shape == (0, 3)
        assert so3_exp_rows(v).shape == euler_zyx_to_rows(v).shape == (0, 4)
        assert so3_left_jacobian_rows(v).shape == (0, 3, 3)
        assert gimbal.shape == rotation_angles_deg(q, q).shape == (0,)


SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
           1e-300, -1.0, -0.5, 0.0625, 1.0, 3.0, 1e300]


class TestMathRows:
    """``_math_rows`` is a Python loop of the same ``math`` function, bit
    for bit, on the values where numpy and ``math`` part ways."""

    @pytest.mark.parametrize("fn", [math.acos, math.asin, math.sin])
    def test_one_argument(self, fn):
        values = np.array([x for x in SPECIAL if _domain(fn, x)] + [0.3, -0.7, 1e-9, 2 ** -1074])
        want = np.array([fn(x) for x in values.tolist()])
        assert same_bits(_math_rows(fn, values), want)

    @pytest.mark.parametrize("fn", [math.atan2, math.hypot])
    def test_two_arguments(self, fn):
        y, x = (np.array(v) for v in zip(*((a, b) for a in SPECIAL for b in SPECIAL)))
        want = np.array([fn(a, b) for a, b in zip(y.tolist(), x.tolist())])
        assert same_bits(_math_rows(fn, y, x), want)

    def test_empty(self):
        assert _math_rows(math.atan2, np.empty(0), np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("fn,bad", [(math.acos, 1.5), (math.asin, -2.0), (math.sin, math.inf)])
    def test_domain_error_raises_as_math_does(self, fn, bad):
        # The CLI's --raw-division message names this text.
        with pytest.raises(ValueError, match="^math domain error$"):
            _math_rows(fn, np.array([0.5, bad, math.nan]))

    def test_np_sin_is_math_sin_on_slerp_arguments(self):
        # slerp_from_identity takes its sines from np.sin, not from math.sin
        # mapped over the rows: theta = acos(w) over [0, pi] and the
        # (1 - t) * theta and t * theta of every factor t in [0, 1].
        rng = np.random.default_rng(7)
        w = np.concatenate((rng.uniform(-1.0, 1.0, 2000), np.linspace(-1.0, 1.0, 257),
                            [0.9995, np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0), -0.0]))
        tiny = 2.2250738585072014e-308  # the least normal float
        theta = np.concatenate((_math_rows(math.acos, w),
                                [0.0, 5e-324, 1e-310, tiny, math.pi, np.nextafter(math.pi, 0.0)]))
        assert theta.max() == math.pi and theta.min() == 0.0
        t = np.concatenate((rng.uniform(0.0, 1.0, 24),
                            [0.0, 5e-324, 1e-300, 0.5, np.nextafter(1.0, 0.0), 1.0]))
        args = np.concatenate((theta, np.outer(1.0 - t, theta).ravel(), np.outer(t, theta).ravel()))
        assert ((args > 0.0) & (args < tiny)).sum() > 100  # subnormals
        want = np.array([math.sin(x) for x in args.tolist()])
        assert same_bits(np.sin(args), want)


def _domain(fn, x) -> bool:
    try:
        fn(x)
    except ValueError:
        return False
    return True
