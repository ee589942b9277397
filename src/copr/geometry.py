"""6-DoF pose types, relative poses, and rotation error measures.

Conventions
-----------
- Translations are 3-vectors in meters, expressed in the world frame.
- Quaternions are stored in (w, x, y, z) order and kept unit-norm.
- Quaternions are canonicalized to a non-negative scalar part; when the
  scalar part is exactly zero the first non-zero vector component is made
  non-negative. This removes the double-cover ambiguity so that rotations
  used as regression targets are unique.
- Relative translations are world-frame differences (target minus anchor),
  not anchor-camera-frame offsets.

All types are immutable values and all functions are pure, so everything in
this module is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CountMismatch, DimMismatch, RefusedNonFinite, ZeroQuaternion

_ZERO_NORM = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _vector(values, size: int, what: str) -> np.ndarray:
    """``values`` as a float64 ``size``-vector.

    Raises:
        DimMismatch: if ``values`` does not hold exactly ``size`` components.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size != size:
        raise DimMismatch(f"{what} needs {size} components, got {v.size}")
    return v.reshape(size)


def row_block(values, width: int, what: str) -> np.ndarray:
    """``values`` as a float64 (n, ``width``) block; a single vector is one row.

    Raises:
        DimMismatch: if the rows do not hold ``width`` components.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.size and a.shape[-1:] != (width,):
        raise DimMismatch(f"{what} rows need {width} components, got shape {a.shape}")
    return a.reshape(-1, width)


def normalize_quat_rows(q) -> np.ndarray:
    """Each row of an (n, 4) array divided by the square root of its
    :func:`row_dots` self dot product, then negated if its first non-zero
    component is negative.

    Raises:
        DimMismatch: if the rows do not hold 4 components.
        ZeroQuaternion: if a row's norm is at or below 1e-12.
    """
    q = row_block(q, 4, "quaternion")
    norms = np.sqrt(row_dots(q, q))
    if np.any(norms <= _ZERO_NORM):
        raise ZeroQuaternion(f"quaternion norm {float(norms.min()):.3e} too small to normalize")
    out = q / norms[:, None]
    # Canonical sign: the first non-zero component becomes positive.
    first = out[np.arange(len(out)), np.argmax(out != 0.0, axis=1)]
    out[first < 0.0] *= -1.0
    return out


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product a * b for (w, x, y, z) quaternions."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (n, m) arrays, each bit-equal to ``np.dot``.

    A stacked (1, m) @ (m, 1) matmul runs the same dot kernel as ``np.dot``
    on one row (and ``np.linalg.norm`` is the square root of that dot);
    ``einsum`` sums in another order.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def angular_error_deg_many(qs_a: np.ndarray, qs_b: np.ndarray) -> np.ndarray:
    """Rotation angle in degrees between the unit quaternions of each row pair
    of two (n, 4) arrays: 2*arccos(min(1, |<q_a, q_b>|)) with :func:`row_dots`,
    sign-invariant, in [0, 180] and never NaN (``fmin`` maps a NaN dot to 1).
    The arccos is libm's (``math.acos``); numpy's differs from it in the last
    bit for some inputs.
    """
    dots = np.fmin(1.0, np.abs(row_dots(np.asarray(qs_a, dtype=np.float64), np.asarray(qs_b, dtype=np.float64))))
    return np.degrees(2.0 * np.fromiter(map(math.acos, dots), dtype=np.float64, count=len(dots)))


@dataclass(frozen=True)
class Pose:
    """A 6-DoF pose: world translation plus unit quaternion orientation."""

    t: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        t, q = pose_blocks(_vector(self.t, 3, "pose translation"), _vector(self.q, 4, "quaternion"))
        object.__setattr__(self, "t", t[0])
        object.__setattr__(self, "q", q[0])


def pose_blocks(t, q) -> tuple[np.ndarray, np.ndarray]:
    """Read-only copies of (n, 3) translations and (n, 4) quaternions, the
    quaternions normalized once by :func:`normalize_quat_rows`.

    Raises:
        DimMismatch: if the rows do not hold 3 and 4 components.
        CountMismatch: if the blocks differ in row count.
        RefusedNonFinite: if a translation is not finite.
        ZeroQuaternion: if a quaternion's norm is at or below 1e-12.
    """
    t = row_block(t, 3, "translation").copy()
    if not np.all(np.isfinite(t)):
        raise RefusedNonFinite("translation must be finite")
    q = normalize_quat_rows(q)
    if len(t) != len(q):
        raise CountMismatch(f"{len(t)} translation rows but {len(q)} quaternion rows")
    return _readonly(t), _readonly(q)


def poses(t, q) -> list[Pose]:
    """:class:`Pose` values over the rows of (n, 3) translations and (n, 4)
    quaternions, each bit-equal to ``Pose(t=t[i], q=q[i])``; each pose holds
    read-only row views of :func:`pose_blocks`.
    """
    t, q = pose_blocks(t, q)
    out = []
    for t_row, q_row in zip(t, q):
        pose = object.__new__(Pose)
        object.__setattr__(pose, "t", t_row)
        object.__setattr__(pose, "q", q_row)
        out.append(pose)
    return out


@dataclass(frozen=True)
class RelativePose:
    """Translation difference plus rotation from an anchor pose to a target.

    Flattens to exactly 7 components: (dt, dq) with dq in (w, x, y, z) order.
    """

    dt: np.ndarray
    dq: np.ndarray

    def __post_init__(self):
        dt, dq = pose_blocks(_vector(self.dt, 3, "relative translation"), _vector(self.dq, 4, "quaternion"))
        object.__setattr__(self, "dt", dt[0])
        object.__setattr__(self, "dq", dq[0])

    def as_vector(self) -> np.ndarray:
        """Return the stacked 7-vector (dt, dq)."""
        return np.concatenate([self.dt, self.dq])


def relative_pose_rows(t_a, q_a, t_b, q_b) -> np.ndarray:
    """Relative poses from anchors ``a`` to targets ``b`` as (n, 7) rows (dt, dq).

    dt = t_b - t_a in the world frame; dq = conj(q_a) * q_b (Hamilton
    product), scaled to unit norm and canonical sign by
    :func:`normalize_quat_rows`; a row is what :class:`RelativePose` holds
    when given (dt, the unnormalized product).

    Raises:
        DimMismatch: if the rows do not hold 3 and 4 components.
        CountMismatch: if the four blocks differ in row count.
        RefusedNonFinite: if a translation difference is not finite.
        ZeroQuaternion: if a product's norm is at or below 1e-12.
    """
    t_a = row_block(t_a, 3, "anchor translation")
    q_a = row_block(q_a, 4, "anchor quaternion")
    t_b = row_block(t_b, 3, "target translation")
    q_b = row_block(q_b, 4, "target quaternion")
    if not len(t_a) == len(q_a) == len(t_b) == len(q_b):
        raise CountMismatch(f"relative pose blocks hold {len(t_a)}, {len(q_a)}, {len(t_b)} and {len(q_b)} rows")
    out = np.empty((len(t_a), 7))
    np.subtract(t_b, t_a, out=out[:, :3])
    if not np.all(np.isfinite(out[:, :3])):
        raise RefusedNonFinite("relative translation must be finite")
    aw, ax, ay, az = q_a[:, 0], -q_a[:, 1], -q_a[:, 2], -q_a[:, 3]
    bw, bx, by, bz = q_b.T
    dq = np.empty((len(t_a), 4))
    dq[:, 0] = aw * bw - ax * bx - ay * by - az * bz
    dq[:, 1] = aw * bx + ax * bw + ay * bz - az * by
    dq[:, 2] = aw * by - ax * bz + ay * bw + az * bx
    dq[:, 3] = aw * bz + ax * by - ay * bx + az * bw
    out[:, 3:] = normalize_quat_rows(dq)
    return out
