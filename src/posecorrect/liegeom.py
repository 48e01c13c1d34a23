"""SO(3)/SE(3) value types and the rotation formulas on arrays: products
and inverses, exp/log maps, left Jacobians, Euler and matrix conversions,
spherical linear interpolation and geodesic angles.

Conventions used consistently across the package:

* ``Rotation`` stores a unit quaternion ``(w, x, y, z)``.  The scalar part
  is canonicalized to ``w >= 0`` (double-cover pick) so that element-wise
  operations on quaternion components are well defined.  3x3 matrices are
  derived (:func:`quat_matrix`), never the stored state.
* ``Pose`` is the rigid transform ``T_AB`` mapping points from frame {B}
  into frame {A}: ``p_A = R_AB @ p_B + t_AB``.  Equivalently, the pose of
  {B} expressed in {A}.  Composition follows ``T_AC = T_AB * T_BC``.
* Euler angles are intrinsic Z-Y-X, returned as ``(yaw, pitch, roll)`` in
  radians: ``R = Rz(yaw) @ Ry(pitch) @ Rx(roll)``.
* Rotation vectors (axis-angle, radians) are canonical with angle in
  ``[0, pi]``.
* The se(3) tangent pairs a translation part ``v`` with a rotation part
  ``omega``; ``exp`` maps ``v`` through the left Jacobian (V matrix).

All types are immutable values and all functions are pure.

Each rotation formula is written once; the package runs the array forms
at the end.  The scalar forms kept here (``Rotation`` and ``Pose`` with
their products, ``Rotation.apply`` and ``so3_exp``) are the ones the
perfbench workloads build their inputs with; the other scalar oracles of
the array forms are in ``tests/reference_kernels.py``.
"""
from __future__ import annotations

import math
from typing import Iterable

import numpy as np

_SMALL_ANGLE = 1e-8   # Taylor branch for exp/log trig factors
_SMALL_V_ANGLE = 1e-4  # Taylor branch for V-matrix coefficients
_GIMBAL_COS = 1e-6    # |cos(pitch)| below this counts as gimbal proximity
_NLERP_DOT = 0.9995   # slerp falls back to normalized lerp above this dot
_RAD_TO_DEG = 180.0 / math.pi  # the factor of math.degrees


def _vec3(v) -> np.ndarray:
    # Reshape only when needed, and then copy: a reshaped view would keep a
    # second array object alive with every pose.
    out = np.array(v, dtype=float)
    if out.shape != (3,):
        out = np.array(out.reshape(3))
    out.setflags(write=False)
    return out


class Rotation:
    """A rotation, stored as a unit quaternion ``(w, x, y, z)`` with w >= 0."""

    __slots__ = ("_q",)

    def __init__(self, wxyz) -> None:
        if isinstance(wxyz, np.ndarray):
            w, x, y, z = wxyz.tolist()
        else:
            w, x, y, z = wxyz
        n = math.sqrt(w * w + x * x + y * y + z * z)
        w, x, y, z = w / n, x / n, y / n, z / n
        if w < 0.0 or (
            # Half-turn: w-sign is uninformative, pick a deterministic sheet.
            w == 0.0
            and (x < 0.0 or (x == 0.0 and (y < 0.0 or (y == 0.0 and z < 0.0))))
        ):
            w, x, y, z = -w, -x, -y, -z
        q = np.array((w, x, y, z))
        q.setflags(write=False)
        object.__setattr__(self, "_q", q)

    # -- constructors ------------------------------------------------------

    @classmethod
    def random(cls, rng: np.random.Generator) -> "Rotation":
        """Uniformly distributed rotation (normalized Gaussian quaternion)."""
        return cls(rng.normal(size=4))

    @classmethod
    def _from_canonical(cls, q: np.ndarray) -> "Rotation":
        """Wrap a read-only row that is already unit and canonical, such as
        a row of :func:`quat_normalize`.  ``Rotation(q)`` would normalize it
        again, which can change its last bits."""
        r = object.__new__(cls)
        object.__setattr__(r, "_q", q)
        return r

    # -- views -------------------------------------------------------------

    @property
    def quat(self) -> np.ndarray:
        """Unit quaternion ``(w, x, y, z)`` with ``w >= 0`` (read-only)."""
        return self._q

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "Rotation") -> "Rotation":
        aw, ax, ay, az = self._q
        bw, bx, by, bz = other._q
        return Rotation((
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ))

    def apply(self, v) -> np.ndarray:
        """Rotate one 3-vector or an (N, 3) stack of vectors."""
        v = np.asarray(v, dtype=float)
        w, x, y, z = self._q.tolist()
        if v.ndim == 1:
            vx, vy, vz = v.tolist()
            ax = y * vz - z * vy + w * vx
            ay = z * vx - x * vz + w * vy
            az = x * vy - y * vx + w * vz
            return np.array((
                vx + 2.0 * (y * az - z * ay),
                vy + 2.0 * (z * ax - x * az),
                vz + 2.0 * (x * ay - y * ax),
            ))
        u = self._q[1:]
        uv = np.cross(u, v)
        return v + 2.0 * (w * uv + np.cross(u, uv))


class Pose:
    """Rigid transform ``T_AB = (R_AB, t_AB)``; maps {B} points into {A}."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation: Rotation, translation) -> None:
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", _vec3(translation))

    def __mul__(self, other: "Pose") -> "Pose":
        return Pose(
            self.rotation * other.rotation,
            self.rotation.apply(other.translation) + self.translation,
        )


# -- so(3) exp --------------------------------------------------------------


def so3_exp(rotvec) -> Rotation:
    """Rotation from an axis-angle vector (Rodrigues; Taylor below 1e-8 rad)."""
    w = np.asarray(rotvec, dtype=float).reshape(3)
    angle = math.sqrt(float(w @ w))
    if angle < _SMALL_ANGLE:
        k = 0.5 - angle * angle / 48.0
        qw = 1.0 - angle * angle / 8.0
    else:
        k = math.sin(0.5 * angle) / angle
        qw = math.cos(0.5 * angle)
    return Rotation((qw, k * w[0], k * w[1], k * w[2]))


# -- array forms ------------------------------------------------------------
#
# The rotation formulas, on (N, 4) quaternion and (N, 3) vector arrays.
# ``so3_exp`` and the ``Rotation``/``Pose`` arithmetic keep scalar bodies,
# which input builders call once per pose (a one-row array call costs
# several times as much); the twins here repeat their IEEE operations in
# order, bit for bit, as they do those of the scalar oracles in
# ``tests/reference_kernels.py`` (``slerp``, of which only the start at
# the identity has a row form, ``euler_zyx_to`` and the one-pose inverses).
# numpy does + - * /, sqrt, sin and cos, writing multi-column results
# through ufunc ``out=`` into one array; the bitwise tests pin ``np.sin``
# and ``np.cos`` to ``math``, slerp's sines included.  ``acos``, ``asin``,
# ``atan2`` and ``hypot``, where numpy's results differ or are not pinned,
# are the ``math`` functions mapped over the rows by :func:`_math_rows`: one
# call of the same function per element, on the Python floats of ``tolist``.

_SHEET_WEIGHTS = np.array((8.0, 4.0, 2.0, 1.0))


def _math_rows(fn, *columns: np.ndarray) -> np.ndarray:
    """The ``math`` function ``fn`` of one or two arguments over equal-length
    1-D arrays, as a float array.  A domain error raises as in the scalar
    form, and no floating-point flag reaches numpy."""
    return np.fromiter(map(fn, *(c.tolist() for c in columns)), float, count=len(columns[0]))


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Array twin of ``Rotation(q)``: scale each row to unit norm, then pick
    the ``w >= 0`` sheet; a half-turn (``w == 0``) takes the sheet whose
    first nonzero of x, y, z is positive.

    Sign rule: a scaled row is negated when the first of its w, x, y, z
    that is not zero is negative, a NaN ending the search as a positive
    value does.  That is the scalar form's w/x/y/z cascade in one test:
    ``fmin(sign(q), 1)`` maps each component to -1, ±0 or 1 (NaN to 1),
    and its dot with (8, 4, 2, 1) is negative exactly when the rule
    negates the row."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    q = q / np.sqrt(w * w + x * x + y * y + z * z)[..., None]
    sign = np.sign(q)
    flip = np.fmin(sign, 1.0, out=sign).dot(_SHEET_WEIGHTS) < 0.0
    np.negative(q, out=q, where=flip[..., None])
    return q


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Array twin of ``Rotation.__mul__`` (Hamilton product, normalized)."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(a.shape)
    np.subtract(aw * bw - ax * bx - ay * by, az * bz, out=out[..., 0])
    np.subtract(aw * bx + ax * bw + ay * bz, az * by, out=out[..., 1])
    np.add(aw * by - ax * bz + ay * bw, az * bx, out=out[..., 2])
    np.add(aw * bz + ax * by - ay * bx, az * bw, out=out[..., 3])
    return quat_normalize(out)


_CONJUGATE = np.array((1.0, -1.0, -1.0, -1.0))


def quat_inverse(q: np.ndarray) -> np.ndarray:
    """Array twin of the scalar inverse ``Rotation((w, -x, -y, -z))``."""
    return quat_normalize(q * _CONJUGATE)


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Array twin of ``Rotation.apply`` on one 3-vector per row."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    ax = y * vz - z * vy + w * vx
    ay = z * vx - x * vz + w * vy
    az = x * vy - y * vx + w * vz
    out = np.empty(v.shape)
    np.add(vx, 2.0 * (y * az - z * ay), out=out[..., 0])
    np.add(vy, 2.0 * (z * ax - x * az), out=out[..., 1])
    np.add(vz, 2.0 * (x * ay - y * ax), out=out[..., 2])
    return out


def pose_mul(qa: np.ndarray, ta: np.ndarray, qb: np.ndarray, tb: np.ndarray):
    """Array twin of ``Pose.__mul__``: ``(qa, ta) * (qb, tb)`` per row,
    returned as ``(quaternions, translations)``."""
    return quat_mul(qa, qb), quat_rotate(qa, tb) + ta


def pose_inverse(q: np.ndarray, t: np.ndarray):
    """Array twin of the scalar inverse ``Pose(r, -r.apply(t))`` with ``r``
    the inverse rotation, returned as ``(quaternions, translations)``."""
    q_inv = quat_inverse(q)
    return q_inv, -quat_rotate(q_inv, t)


def vec_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (N, k) array, bitwise equal to
    ``np.linalg.norm`` of the row: both take the dot product that numpy's
    matrix product takes, where ``sqrt(x*x + y*y + z*z)`` can round
    differently."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, 0, 0]


def mat_vec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``m[i] @ v[i]`` for (N, 3, 3) matrices and (N, 3) vectors; the
    batched matrix product rounds as the scalar ``@`` does."""
    return np.matmul(m, v[:, :, None])[:, :, 0]


def _require_trig_domain(x: np.ndarray) -> None:
    # math.sin and math.cos raise on an infinite argument where numpy
    # returns NaN; the array forms raise as the scalar ones do.
    if np.isinf(x).any():
        raise ValueError("math domain error")


def _skew_rows(v: np.ndarray) -> np.ndarray:
    k = np.zeros((len(v), 3, 3))
    k[:, 0, 1], k[:, 0, 2] = -v[:, 2], v[:, 1]
    k[:, 1, 0], k[:, 1, 2] = v[:, 2], -v[:, 0]
    k[:, 2, 0], k[:, 2, 1] = -v[:, 1], v[:, 0]
    return k


def so3_exp_rows(rotvec: np.ndarray) -> np.ndarray:
    """Array twin of :func:`so3_exp`: canonical quaternions of (N, 3)
    axis-angle vectors."""
    angle = vec_norm(rotvec)
    _require_trig_domain(angle)
    small = angle < _SMALL_ANGLE
    a2 = angle * angle
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(small, 0.5 - a2 / 48.0, np.sin(0.5 * angle) / angle)
    qw = np.where(small, 1.0 - a2 / 8.0, np.cos(0.5 * angle))
    return quat_normalize(np.column_stack((qw, k[:, None] * rotvec)))


def so3_log_rows(q: np.ndarray) -> np.ndarray:
    """Canonical axis-angles (angle in [0, pi]) of (N, 4) canonical
    quaternions; w >= 0 keeps atan2 stable at both ends."""
    w, x, y, z = q.T
    s = np.sqrt(x * x + y * y + z * z)
    atan = _math_rows(math.atan2, s, w)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(s < _SMALL_ANGLE, 2.0 / w, 2.0 * atan / s)
    return k[:, None] * q[:, 1:]


def so3_left_jacobian_rows(omega: np.ndarray) -> np.ndarray:
    """(N, 3, 3) V matrices of (N, 3) rotation vectors; half-angle forms
    avoid the 1 - cos cancellation at moderate angles."""
    angle = vec_norm(omega)
    _require_trig_domain(angle)
    a2 = angle * angle
    s_half = np.sin(0.5 * angle)
    small = angle < _SMALL_V_ANGLE
    # A tangent made non-finite by an unguarded division gives NaN entries
    # here, without a floating-point warning.
    with np.errstate(divide="ignore", invalid="ignore"):
        c1 = np.where(small, 0.5 - a2 / 24.0, 2.0 * s_half * s_half / a2)
        c2 = np.where(small, 1.0 / 6.0 - a2 / 120.0, (angle - np.sin(angle)) / (a2 * angle))
        k = _skew_rows(omega)
        return np.eye(3) + c1[:, None, None] * k + c2[:, None, None] * np.matmul(k, k)


def so3_left_jacobian_inv_rows(omega: np.ndarray) -> np.ndarray:
    """Inverse V matrices; (theta/2) cot(theta/2) is well conditioned to pi."""
    angle = vec_norm(omega)
    _require_trig_domain(angle)
    half = 0.5 * angle
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(
            angle < _SMALL_V_ANGLE,
            1.0 / 12.0 + angle * angle / 720.0,
            (1.0 - half * np.cos(half) / np.sin(half)) / (angle * angle),
        )
    k = _skew_rows(omega)
    return np.eye(3) - 0.5 * k + c[:, None, None] * np.matmul(k, k)


def euler_zyx_to_rows(angles: np.ndarray) -> np.ndarray:
    """Canonical quaternions of (N, 3) intrinsic Z-Y-X ``(yaw, pitch,
    roll)`` rows: ``Rz(yaw) * Ry(pitch) * Rx(roll)`` as quaternions."""
    _require_trig_domain(angles)
    cy, cp, cr = np.cos(0.5 * angles).T
    sy, sp, sr = np.sin(0.5 * angles).T
    return quat_normalize(np.stack((
        cy * cp * cr + sy * sp * sr,
        cy * cp * sr - sy * sp * cr,
        cy * sp * cr + sy * cp * sr,
        sy * cp * cr - cy * sp * sr,
    ), axis=-1))


def quat_matrix(q: np.ndarray) -> np.ndarray:
    """The (N, 3, 3) rotation matrices of (N, 4) quaternions."""
    w, x, y, z = q.T
    return np.stack((
        1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y),
        2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x),
        2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y),
    ), axis=-1).reshape(-1, 3, 3)


def quat_from_matrix(m: np.ndarray) -> np.ndarray:
    """Largest-component (Shepperd) conversion of (N, 3, 3) matrices to
    canonical quaternions: each row takes the branch of the largest of its
    trace and diagonal entries."""
    m00, m01, m02 = m[:, 0, 0], m[:, 0, 1], m[:, 0, 2]
    m10, m11, m12 = m[:, 1, 0], m[:, 1, 1], m[:, 1, 2]
    m20, m21, m22 = m[:, 2, 0], m[:, 2, 1], m[:, 2, 2]
    tr = m00 + m11 + m22
    big = np.where((tr >= m00) & (tr >= m11) & (tr >= m22), 0, np.where(
        (m00 >= m11) & (m00 >= m22), 1, np.where(m11 >= m22, 2, 3)
    ))
    # Only the chosen radicand reaches sqrt; the others may be negative.
    s = 2.0 * np.sqrt(np.choose(big, (
        1.0 + tr, 1.0 + m00 - m11 - m22, 1.0 + m11 - m00 - m22, 1.0 + m22 - m00 - m11
    )))
    big_part = 0.25 * s
    dx, dy, dz = (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s
    sxy, sxz, syz = (m01 + m10) / s, (m02 + m20) / s, (m12 + m21) / s
    return quat_normalize(np.column_stack((
        np.choose(big, (big_part, dx, dy, dz)),
        np.choose(big, (dx, big_part, sxy, sxz)),
        np.choose(big, (dy, sxy, big_part, syz)),
        np.choose(big, (dz, sxz, syz, big_part)),
    )))


def euler_zyx_from_rows(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z-Y-X ``(yaw, pitch, roll)`` rows of (N, 4) canonical quaternions and
    gimbal flags (``|cos(pitch)| < 1e-6``: only yaw - roll is observable; roll is 0)."""
    m = quat_matrix(q)
    gimbal = _math_rows(math.hypot, m[:, 2, 1], m[:, 2, 2]) < _GIMBAL_COS
    out = np.empty((len(q), 3))
    # fmin and fmax, like Python's min and max, pass a NaN over.
    out[:, 1] = _math_rows(math.asin, np.fmin(1.0, np.fmax(-1.0, -m[:, 2, 0])))
    out[:, 0] = _math_rows(math.atan2, np.where(gimbal, -m[:, 0, 1], m[:, 1, 0]),
                           np.where(gimbal, m[:, 1, 1], m[:, 0, 0]))
    out[:, 2] = np.where(gimbal, 0.0, _math_rows(math.atan2, m[:, 2, 1], m[:, 2, 2]))
    return out, gimbal


_IDENTITY_QUAT = np.array((1.0, 0.0, 0.0, 0.0))


def slerp_from_identity(q: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Geodesic interpolation from the identity (``a[i] = 0``) to row
    ``q[i]`` (``a[i] = 1``), normalized lerp above a dot of 0.9995: the
    scalar ``slerp`` of ``tests/reference_kernels.py`` from the identity.

    Rows of ``q`` are canonical (``w >= 0``), so the dot with the identity
    is ``w`` and the shortest-arc flip never applies.  ``a == 0`` yields
    the identity and ``a == 1`` the row itself, exactly; a non-finite row
    at an interior ``a`` raises ``ValueError``, as does ``a`` outside
    [0, 1].
    """
    interior = (a > 0.0) & (a < 1.0)
    if interior.all():  # no row to gather or scatter
        return _slerp_interior(q, a[:, None])
    inside = (a >= 0.0) & (a <= 1.0)
    if not inside.all():
        bad = float(a[np.argmin(inside)])
        raise ValueError(f"interpolation factor must be in [0, 1], got {bad}")
    out = np.where((a == 0.0)[:, None], _IDENTITY_QUAT, q)
    mid = np.flatnonzero(interior)
    if mid.size:
        out[mid] = _slerp_interior(q[mid], a[mid, None])
    return out


def _slerp_interior(q: np.ndarray, a: np.ndarray) -> np.ndarray:
    """:func:`slerp_from_identity` of rows ``q`` at the interior factors ``a`` (N, 1)."""
    if not np.isfinite(q).all():
        raise ValueError("slerp of a non-finite quaternion")
    # The nlerp blend of every row, replaced where the dot is at most the
    # cutoff (rows are finite here, so that is where it is not above it).
    blend = _IDENTITY_QUAT + a * (q - _IDENTITY_QUAT)
    far = q[:, 0] <= _NLERP_DOT
    if far.any():
        theta = _math_rows(math.acos, np.fmin(1.0, q[far, 0]))
        t = a[far, 0]
        s, s0, s1 = np.sin((theta, (1.0 - t) * theta, t * theta))
        # Computed in full: c0 * 0 + c1 * x can turn a -0.0 into 0.0, and
        # the sign of a zero reaches the half-turn canonicalization.
        blend[far] = (s0 / s)[:, None] * _IDENTITY_QUAT + (s1 / s)[:, None] * q[far]
    return quat_normalize(blend)


def pose_arrays(poses: Iterable[Pose]) -> tuple[np.ndarray, np.ndarray]:
    """The (N, 4) quaternions and (N, 3) translations of ``poses``."""
    poses = list(poses)
    q = np.array([p.rotation.quat for p in poses]).reshape(-1, 4)
    t = np.array([p.translation for p in poses]).reshape(-1, 3)
    return q, t


def poses_from_arrays(q: np.ndarray, t: np.ndarray) -> list[Pose]:
    """One :class:`Pose` per row of canonical quaternions ``q`` (from
    :func:`quat_normalize`, kept bit for bit) and translations ``t``."""
    q = np.array(q)
    q.setflags(write=False)
    return [Pose(Rotation._from_canonical(r), v) for r, v in zip(q, t)]


def rotation_angles_deg(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Geodesic angle in degrees, in [0, 180], between the rows of two
    (N, 4) canonical quaternion arrays."""
    aw, ax, ay, az = q1.T
    bw, bx, by, bz = q2.T
    # q1^-1 * q2; the pairwise grouping cancels exactly for equal inputs.
    w = aw * bw + ax * bx + ay * by + az * bz
    x = (aw * bx - ax * bw) + (az * by - ay * bz)
    y = (aw * by - ay * bw) + (ax * bz - az * bx)
    z = (aw * bz - az * bw) + (ay * bx - ax * by)
    r = _math_rows(math.hypot, x, _math_rows(math.hypot, y, z))
    with np.errstate(all="ignore"):  # math.degrees(x) is x * (180.0 / math.pi), bit for bit
        return 2.0 * _math_rows(math.atan2, r, np.abs(w)) * _RAD_TO_DEG
