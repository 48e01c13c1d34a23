"""SO(3)/SE(3) value types: rotations, rigid transforms, exp/log maps,
Euler and axis-angle conversions, and spherical linear interpolation.

Conventions used consistently across the package:

* ``Rotation`` stores a unit quaternion ``(w, x, y, z)``.  The scalar part
  is canonicalized to ``w >= 0`` (double-cover pick) so that element-wise
  operations on quaternion components are well defined.  3x3 matrices are
  derived views, never the stored state.
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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

_SMALL_ANGLE = 1e-8   # Taylor branch for exp/log trig factors
_SMALL_V_ANGLE = 1e-4  # Taylor branch for V-matrix coefficients
_GIMBAL_COS = 1e-6    # |cos(pitch)| below this counts as gimbal proximity
_NLERP_DOT = 0.9995   # slerp falls back to normalized lerp above this dot


def _vec3(v) -> np.ndarray:
    # Reshape only when needed, and then copy: a reshaped view would keep a
    # second array object alive with every pose.
    out = np.array(v, dtype=float)
    if out.shape != (3,):
        out = np.array(out.reshape(3))
    out.setflags(write=False)
    return out


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


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
    def identity(cls) -> "Rotation":
        return cls((1.0, 0.0, 0.0, 0.0))

    @classmethod
    def from_matrix(cls, m) -> "Rotation":
        """Largest-component (Shepperd) matrix-to-quaternion conversion."""
        m = np.asarray(m, dtype=float)
        m00, m01, m02 = m[0]
        m10, m11, m12 = m[1]
        m20, m21, m22 = m[2]
        tr = m00 + m11 + m22
        if tr >= m00 and tr >= m11 and tr >= m22:
            s = 2.0 * math.sqrt(1.0 + tr)
            q = (0.25 * s, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s)
        elif m00 >= m11 and m00 >= m22:
            s = 2.0 * math.sqrt(1.0 + m00 - m11 - m22)
            q = ((m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s)
        elif m11 >= m22:
            s = 2.0 * math.sqrt(1.0 + m11 - m00 - m22)
            q = ((m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s)
        else:
            s = 2.0 * math.sqrt(1.0 + m22 - m00 - m11)
            q = ((m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s)
        return cls(q)

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

    @property
    def matrix(self) -> np.ndarray:
        w, x, y, z = self._q
        return np.array([
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
        ])

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

    def inverse(self) -> "Rotation":
        w, x, y, z = self._q
        return Rotation((w, -x, -y, -z))

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        w, x, y, z = self._q
        return f"Rotation(w={w:.9g}, x={x:.9g}, y={y:.9g}, z={z:.9g})"


@dataclass(frozen=True)
class Twist:
    """se(3) tangent element: translation part ``v`` and rotation ``omega``."""

    v: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", _vec3(self.v))
        object.__setattr__(self, "omega", _vec3(self.omega))


class Pose:
    """Rigid transform ``T_AB = (R_AB, t_AB)``; maps {B} points into {A}."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation: Rotation, translation) -> None:
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", _vec3(translation))

    @classmethod
    def identity(cls) -> "Pose":
        return cls(Rotation.identity(), (0.0, 0.0, 0.0))

    @classmethod
    def from_matrix(cls, m) -> "Pose":
        m = np.asarray(m, dtype=float)
        return cls(Rotation.from_matrix(m[:3, :3]), m[:3, 3])

    @property
    def matrix(self) -> np.ndarray:
        out = np.eye(4)
        out[:3, :3] = self.rotation.matrix
        out[:3, 3] = self.translation
        return out

    def __mul__(self, other: "Pose") -> "Pose":
        return Pose(
            self.rotation * other.rotation,
            self.rotation.apply(other.translation) + self.translation,
        )

    def inverse(self) -> "Pose":
        rinv = self.rotation.inverse()
        return Pose(rinv, -rinv.apply(self.translation))

    def apply(self, p) -> np.ndarray:
        return self.rotation.apply(p) + self.translation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        t = self.translation
        return f"Pose({self.rotation!r}, t=({t[0]:.9g}, {t[1]:.9g}, {t[2]:.9g}))"


# -- so(3) exp/log ----------------------------------------------------------


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


def so3_log(r: Rotation) -> np.ndarray:
    """Canonical axis-angle of ``r`` with angle in [0, pi].

    Quaternion-based form: stable at both the small-angle and the near-pi
    ends (w >= 0 keeps atan2 on the canonical sheet).
    """
    w, x, y, z = r.quat
    s = math.sqrt(x * x + y * y + z * z)
    if s < _SMALL_ANGLE:
        k = 2.0 / w  # relative error O(s^2)
    else:
        k = 2.0 * math.atan2(s, w) / s
    return k * np.array([x, y, z])


# -- se(3) exp/log ----------------------------------------------------------


def _v_coeffs(angle: float) -> tuple[float, float]:
    # Half-angle forms avoid the 1 - cos cancellation at moderate angles.
    if angle < _SMALL_V_ANGLE:
        a2 = angle * angle
        return 0.5 - a2 / 24.0, 1.0 / 6.0 - a2 / 120.0
    a2 = angle * angle
    s_half = math.sin(0.5 * angle)
    return 2.0 * s_half * s_half / a2, (angle - math.sin(angle)) / (a2 * angle)


def so3_left_jacobian(omega: np.ndarray) -> np.ndarray:
    """The V matrix mapping se(3) translation tangents to translations."""
    angle = math.sqrt(float(omega @ omega))
    c1, c2 = _v_coeffs(angle)
    k = _skew(omega)
    return np.eye(3) + c1 * k + c2 * (k @ k)


def so3_left_jacobian_inv(omega: np.ndarray) -> np.ndarray:
    angle = math.sqrt(float(omega @ omega))
    if angle < _SMALL_V_ANGLE:
        c = 1.0 / 12.0 + angle * angle / 720.0
    else:
        # (theta/2) * cot(theta/2) stays well conditioned up to pi.
        half = 0.5 * angle
        c = (1.0 - half * math.cos(half) / math.sin(half)) / (angle * angle)
    k = _skew(omega)
    return np.eye(3) - 0.5 * k + c * (k @ k)


def se3_exp(t: Twist) -> Pose:
    return Pose(so3_exp(t.omega), so3_left_jacobian(t.omega) @ t.v)


def se3_log(p: Pose) -> Twist:
    omega = so3_log(p.rotation)
    return Twist(so3_left_jacobian_inv(omega) @ p.translation, omega)


# -- Euler (intrinsic Z-Y-X) -------------------------------------------------


def euler_zyx_to(angles) -> Rotation:
    """Rotation from intrinsic Z-Y-X angles ``(yaw, pitch, roll)``."""
    yaw, pitch, roll = np.asarray(angles, dtype=float).reshape(3)
    cy, sy = math.cos(0.5 * yaw), math.sin(0.5 * yaw)
    cp, sp = math.cos(0.5 * pitch), math.sin(0.5 * pitch)
    cr, sr = math.cos(0.5 * roll), math.sin(0.5 * roll)
    # Rz(yaw) * Ry(pitch) * Rx(roll) as quaternions.
    return Rotation((
        cy * cp * cr + sy * sp * sr,
        cy * cp * sr - sy * sp * cr,
        cy * sp * cr + sy * cp * sr,
        sy * cp * cr - cy * sp * sr,
    ))


def euler_zyx_from(r: Rotation) -> np.ndarray:
    """Intrinsic Z-Y-X angles ``(yaw, pitch, roll)`` of ``r``.

    Near pitch = +-pi/2 only yaw - roll is observable; roll is pinned to 0
    there.  Use :func:`gimbal_proximity` to detect that regime.
    """
    m = r.matrix
    sp = min(1.0, max(-1.0, -m[2, 0]))
    pitch = math.asin(sp)
    if math.hypot(m[2, 1], m[2, 2]) < _GIMBAL_COS:
        yaw = math.atan2(-m[0, 1], m[1, 1])
        roll = 0.0
    else:
        yaw = math.atan2(m[1, 0], m[0, 0])
        roll = math.atan2(m[2, 1], m[2, 2])
    return np.array([yaw, pitch, roll])


def gimbal_proximity(r: Rotation) -> bool:
    """True when ``|cos(pitch)| < 1e-6``, i.e. the Z-Y-X chart degenerates."""
    m = r.matrix
    return math.hypot(m[2, 1], m[2, 2]) < _GIMBAL_COS


# -- interpolation and metrics ----------------------------------------------


def slerp(q0: Rotation, q1: Rotation, a: float) -> Rotation:
    """Geodesic interpolation from ``q0`` (a=0) to ``q1`` (a=1).

    Uses shortest-arc sign correction and falls back to normalized lerp
    when the quaternion dot exceeds 0.9995.  The endpoints are returned
    exactly; a non-finite quaternion raises ``ValueError``.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"interpolation factor must be in [0, 1], got {a}")
    if a == 0.0:
        return q0
    if a == 1.0:
        return q1
    qa = q0.quat
    qb = q1.quat
    dot = float(qa @ qb)
    if not math.isfinite(dot):
        raise ValueError("slerp of a non-finite quaternion")
    if dot < 0.0:
        qb = -qb
        dot = -dot
    if dot > _NLERP_DOT:
        return Rotation(qa + a * (qb - qa))
    theta = math.acos(min(1.0, dot))
    s = math.sin(theta)
    return Rotation((math.sin((1.0 - a) * theta) / s) * qa + (math.sin(a * theta) / s) * qb)


# -- array forms ------------------------------------------------------------
#
# Row-wise twins of the scalar operations above on (N, 4) quaternion and
# (N, 3) vector arrays.  Each performs the scalar form's IEEE operations in
# the same order, using numpy only for + - * / and sqrt and ``math`` for
# the trigonometry, so every result is bitwise equal to the scalar one.


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Array twin of ``Rotation(q)``: scale each row to unit norm, then pick
    the ``w >= 0`` sheet; a half-turn (``w == 0``) takes the sheet whose
    first nonzero of x, y, z is positive."""
    w, x, y, z = q.T
    q = q / np.sqrt(w * w + x * x + y * y + z * z)[..., None]
    w, x, y, z = q.T
    flip = (w < 0.0) | (
        (w == 0.0) & ((x < 0.0) | ((x == 0.0) & ((y < 0.0) | ((y == 0.0) & (z < 0.0)))))
    )
    np.negative(q, out=q, where=flip[..., None])
    return q


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Array twin of ``Rotation.__mul__`` (Hamilton product, normalized)."""
    aw, ax, ay, az = a.T
    bw, bx, by, bz = b.T
    return quat_normalize(np.stack((
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ), axis=-1))


_CONJUGATE = np.array((1.0, -1.0, -1.0, -1.0))


def quat_inverse(q: np.ndarray) -> np.ndarray:
    """Array twin of ``Rotation.inverse``."""
    return quat_normalize(q * _CONJUGATE)


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Array twin of ``Rotation.apply`` on one 3-vector per row."""
    w, x, y, z = q.T
    vx, vy, vz = v.T
    ax = y * vz - z * vy + w * vx
    ay = z * vx - x * vz + w * vy
    az = x * vy - y * vx + w * vz
    return np.stack((
        vx + 2.0 * (y * az - z * ay),
        vy + 2.0 * (z * ax - x * az),
        vz + 2.0 * (x * ay - y * ax),
    ), axis=-1)


def pose_mul(qa: np.ndarray, ta: np.ndarray, qb: np.ndarray, tb: np.ndarray):
    """Array twin of ``Pose.__mul__``: ``(qa, ta) * (qb, tb)`` per row,
    returned as ``(quaternions, translations)``."""
    return quat_mul(qa, qb), quat_rotate(qa, tb) + ta


def pose_inverse(q: np.ndarray, t: np.ndarray):
    """Array twin of ``Pose.inverse``, returned as ``(quaternions,
    translations)``."""
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
    """Array twin of :func:`so3_log` on (N, 4) canonical quaternions."""
    w, x, y, z = q.T
    s = np.sqrt(x * x + y * y + z * z)
    atan = np.array([math.atan2(a, b) for a, b in zip(s.tolist(), w.tolist())])
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(s < _SMALL_ANGLE, 2.0 / w, 2.0 * atan / s)
    return k[:, None] * q[:, 1:]


def so3_left_jacobian_rows(omega: np.ndarray) -> np.ndarray:
    """Array twin of :func:`so3_left_jacobian`: (N, 3, 3) V matrices."""
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
    """Array twin of :func:`so3_left_jacobian_inv`."""
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
    """Array twin of :func:`euler_zyx_to` on (N, 3) ``(yaw, pitch, roll)``
    rows."""
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
    """Array twin of ``Rotation.matrix``: (N, 3, 3) matrices."""
    w, x, y, z = q.T
    return np.stack((
        1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y),
        2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x),
        2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y),
    ), axis=-1).reshape(-1, 3, 3)


def gimbal_proximity_rows(q: np.ndarray) -> np.ndarray:
    """Array twin of :func:`gimbal_proximity`, one flag per row."""
    m = quat_matrix(q)
    return np.array(
        [math.hypot(a, b) for a, b in zip(m[:, 2, 1].tolist(), m[:, 2, 2].tolist())]
    ) < _GIMBAL_COS


def euler_zyx_from_rows(q: np.ndarray) -> np.ndarray:
    """Array twin of :func:`euler_zyx_from`: (N, 3) ``(yaw, pitch, roll)``
    rows of (N, 4) canonical quaternions."""
    m = quat_matrix(q)
    entries = (
        m[:, i, j].tolist() for i, j in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2))
    )
    rows = []
    for gimbal, m00, m01, m10, m11, m20, m21, m22 in zip(
        gimbal_proximity_rows(q).tolist(), *entries
    ):
        pitch = math.asin(min(1.0, max(-1.0, -m20)))
        if gimbal:
            rows.append((math.atan2(-m01, m11), pitch, 0.0))
        else:
            rows.append((math.atan2(m10, m00), pitch, math.atan2(m21, m22)))
    return np.array(rows).reshape(-1, 3)


_IDENTITY_QUAT = np.array((1.0, 0.0, 0.0, 0.0))


def slerp_from_identity(q: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Array twin of ``slerp(Rotation.identity(), Rotation(q[i]), a[i])``.

    Rows of ``q`` are canonical (``w >= 0``), so the dot with the identity
    is ``w`` and the shortest-arc flip never applies.  ``a == 0`` yields
    the identity and ``a == 1`` the row itself, exactly; a non-finite row
    at an interior ``a`` raises ``ValueError``, as does ``a`` outside
    [0, 1].
    """
    inside = (a >= 0.0) & (a <= 1.0)
    if not inside.all():
        bad = float(a[np.argmin(inside)])
        raise ValueError(f"interpolation factor must be in [0, 1], got {bad}")
    out = q.copy()
    out[a == 0.0] = _IDENTITY_QUAT
    mid = np.flatnonzero((a > 0.0) & (a < 1.0))
    if mid.size == 0:
        return out
    qm, am = q[mid], a[mid]
    if not np.isfinite(qm).all():
        raise ValueError("slerp of a non-finite quaternion")
    dot = qm[:, 0]
    blend = np.empty_like(qm)
    near = dot > _NLERP_DOT
    blend[near] = _IDENTITY_QUAT + am[near, None] * (qm[near] - _IDENTITY_QUAT)
    far = ~near
    c0, c1 = [], []
    for d, t in zip(dot[far].tolist(), am[far].tolist()):
        theta = math.acos(min(1.0, d))
        s = math.sin(theta)
        c0.append(math.sin((1.0 - t) * theta) / s)
        c1.append(math.sin(t * theta) / s)
    # Computed in full: c0 * 0 + c1 * x can turn a -0.0 into 0.0, and the
    # sign of a zero reaches the half-turn canonicalization.
    blend[far] = np.array(c0)[:, None] * _IDENTITY_QUAT + np.array(c1)[:, None] * qm[far]
    out[mid] = quat_normalize(blend)
    return out


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


def rotation_angle_deg(r1: Rotation, r2: Rotation) -> float:
    """Geodesic angle between two rotations, in degrees, in [0, 180]."""
    aw, ax, ay, az = r1.quat.tolist()
    bw, bx, by, bz = r2.quat.tolist()
    # r1^-1 * r2, scalar and vector parts; the pairwise grouping cancels
    # exactly for identical inputs.
    w = aw * bw + ax * bx + ay * by + az * bz
    x = (aw * bx - ax * bw) + (az * by - ay * bz)
    y = (aw * by - ay * bw) + (ax * bz - az * bx)
    z = (aw * bz - az * bw) + (ay * bx - ax * by)
    return math.degrees(2.0 * math.atan2(math.hypot(x, math.hypot(y, z)), abs(w)))


def rotation_angles_deg(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Array twin of :func:`rotation_angle_deg` on rows of (N, 4)
    canonical quaternions."""
    aw, ax, ay, az = q1.T
    bw, bx, by, bz = q2.T
    w = aw * bw + ax * bx + ay * by + az * bz
    x = (aw * bx - ax * bw) + (az * by - ay * bz)
    y = (aw * by - ay * bw) + (ax * bz - az * bx)
    z = (aw * bz - az * bw) + (ay * bx - ax * by)
    return np.array([
        math.degrees(2.0 * math.atan2(math.hypot(a, math.hypot(b, c)), abs(d)))
        for a, b, c, d in zip(x.tolist(), y.tolist(), z.tolist(), w.tolist())
    ])
