"""Pose math tests: normalization, relative poses, angular error."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copr.errors import CountMismatch, DimMismatch, RefusedNonFinite, ZeroQuaternion
from copr.geometry import (
    Pose,
    RelativePose,
    angular_error_deg_many,
    normalize_quat_rows,
    poses,
    quat_multiply,
    relative_pose_rows,
)


def _unit(q):
    """One quaternion through the row kernel."""
    return normalize_quat_rows(q)[0]


def _rand_unit_quat(rng):
    return _unit(rng.standard_normal(4))


# Scalar references, one value at a time, for the row kernels.
def _scalar_normalize(q):
    """q / sqrt(q . q), negated when its first non-zero component is negative."""
    q = np.asarray(q, dtype=np.float64)
    out = q / math.sqrt(float(np.dot(q, q)))
    first = next((c for c in out if c != 0.0), 0.0)
    return -out if first < 0.0 else out


def _scalar_angle(q_a, q_b):
    """2 acos(min(1, |q_a . q_b|)) in degrees."""
    return math.degrees(2.0 * math.acos(min(1.0, abs(float(np.dot(q_a, q_b))))))


def _relative(a: Pose, b: Pose):
    """(dt, dq) from pose ``a`` to pose ``b``: one row of the kernel."""
    row = relative_pose_rows(a.t, a.q, b.t, b.q)[0]
    return row[:3], row[3:]


def _conj(q):
    """Conjugate of a (w, x, y, z) quaternion: the inverse of a unit one."""
    w, x, y, z = q
    return np.array([w, -x, -y, -z])


# Independent oracle: quaternion -> rotation matrix -> relative rotation ->
# quaternion (Shepperd extraction), never touching quat_multiply.
def _rotmat(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _quat_from_rotmat(m):
    t = np.trace(m)
    if t > 0:
        s = math.sqrt(t + 1.0) * 2
        q = [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
    else:
        i = int(np.argmax(np.diag(m)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(1.0 + m[i, i] - m[j, j] - m[k, k]) * 2
        q = [0.0, 0.0, 0.0, 0.0]
        q[0] = (m[k, j] - m[j, k]) / s
        q[i + 1] = 0.25 * s
        q[j + 1] = (m[j, i] + m[i, j]) / s
        q[k + 1] = (m[k, i] + m[i, k]) / s
    return _unit(q)


class TestNormalizeQuat:
    def test_scaled_identity(self):
        np.testing.assert_array_equal(_unit([2, 0, 0, 0]), [1, 0, 0, 0])

    def test_canonical_sign_flip(self):
        np.testing.assert_array_equal(_unit([-1, 0, 0, 0]), [1, 0, 0, 0])

    def test_hand_norm(self):
        np.testing.assert_allclose(_unit([1, 1, 1, 1]), [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_zero_raises(self):
        with pytest.raises(ZeroQuaternion):
            _unit([0, 0, 0, 1e-13])
        with pytest.raises(ZeroQuaternion):
            Pose(t=[0, 0, 0], q=[0, 0, 0, 1e-13])

    def test_zero_w_canonicalizes_on_first_nonzero(self):
        q = _unit([0.0, -1.0, 0.5, 0.0])
        assert q[0] == 0.0 and q[1] > 0.0

    @given(st.lists(st.floats(-10, 10), min_size=4, max_size=4))
    def test_unit_and_canonical(self, vals):
        q = np.asarray(vals)
        if math.sqrt(float(q @ q)) <= 1e-12:
            return
        out = _unit(q)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-9
        first_nonzero = next((c for c in out if c != 0.0), 1.0)
        assert first_nonzero > 0.0


class TestRowKernels:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.floats(-10, 10), min_size=4, max_size=4), min_size=1, max_size=12))
    def test_normalize_quat_rows_equals_the_scalar_reference_bitwise(self, rows):
        q = np.asarray(rows + _AXIS_QUATS, dtype=np.float64)
        q = q[np.sqrt(np.einsum("ij,ij->i", q, q)) > 1e-11]
        got = normalize_quat_rows(q)
        for row, qi in zip(got, q):
            assert row.tobytes() == _scalar_normalize(qi).tobytes()
            assert Pose(t=[0, 0, 0], q=qi).q.tobytes() == row.tobytes()

    def test_normalize_quat_rows_rejects_a_zero_row(self):
        with pytest.raises(ZeroQuaternion):
            normalize_quat_rows([[1, 0, 0, 0], [0, 0, 0, 1e-13]])

    def test_poses_equal_per_row_poses_and_are_read_only(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal((6, 3))
        q = np.r_[rng.standard_normal((4, 4)), _AXIS_QUATS[:2]]
        values = poses(t, q)
        for i, p in enumerate(values):
            one = Pose(t=t[i], q=q[i])
            assert p.t.tobytes() == one.t.tobytes() and p.q.tobytes() == one.q.tobytes()
            with pytest.raises(ValueError):
                p.t[0] = 0.0
        t[0, 0] = 99.0
        assert values[0].t[0] != 99.0

    def test_block_row_counts_must_agree(self):
        q = np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
        with pytest.raises(CountMismatch, match="2 translation rows but 3 quaternion rows"):
            poses(np.zeros((2, 3)), q)
        with pytest.raises(CountMismatch):
            poses(np.zeros((4, 3)), q)

    def test_wrong_widths_are_typed(self):
        with pytest.raises(DimMismatch):
            poses(np.zeros((2, 2)), np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)))
        with pytest.raises(DimMismatch):
            poses(np.zeros((2, 3)), np.tile([1.0, 0.0, 0.0], (2, 1)))
        with pytest.raises(DimMismatch):
            Pose(t=[0.0, 0.0], q=[1, 0, 0, 0])
        with pytest.raises(DimMismatch):
            Pose(t=[0.0, 0.0, 0.0], q=[1, 0, 0])
        with pytest.raises(DimMismatch):
            RelativePose(dt=[0.0, 0.0, 0.0, 0.0], dq=[1, 0, 0, 0])

    def test_non_finite_translation_is_refused(self):
        with pytest.raises(RefusedNonFinite):
            poses([[0, math.inf, 0]], [[1, 0, 0, 0]])
        with pytest.raises(RefusedNonFinite):
            Pose(t=[0, math.nan, 0], q=[1, 0, 0, 0])
        with pytest.raises(RefusedNonFinite):
            RelativePose(dt=[math.inf, 0, 0], dq=[1, 0, 0, 0])


# Unit quaternions with exact zeros and negative leading components, so
# canonical sign is decided past the first component.
_AXIS_QUATS = [[0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, -0.6, 0.8, 0], [0.6, 0, 0, -0.8]]


class TestRelativePoseRows:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_rows_equal_scalar_relative_pose_bitwise(self, seed, n):
        rng = np.random.default_rng(seed)
        quats = [
            _rand_unit_quat(rng) if rng.random() < 0.6 else _unit(_AXIS_QUATS[rng.integers(6)])
            for _ in range(2 * n)
        ]
        poses = [Pose(t=rng.standard_normal(3) * 10, q=q) for q in quats]
        a, b = poses[:n], poses[n:]
        rows = relative_pose_rows(
            [p.t for p in a], [p.q for p in a], [p.t for p in b], [p.q for p in b]
        )
        assert rows.shape == (n, 7)
        for row, pa, pb in zip(rows, a, b):
            # Scalar reference: RelativePose normalizes the raw Hamilton product.
            scalar = RelativePose(dt=pb.t - pa.t, dq=quat_multiply(_conj(pa.q), pb.q))
            assert row.tobytes() == scalar.as_vector().tobytes()

    def test_relative_pose_values_are_read_only(self):
        rng = np.random.default_rng(2)
        for _ in range(4):
            pa = Pose(t=rng.standard_normal(3), q=_rand_unit_quat(rng))
            pb = Pose(t=rng.standard_normal(3), q=_rand_unit_quat(rng))
            rp = RelativePose(*_relative(pa, pb))
            with pytest.raises(ValueError):
                rp.dq[0] = 0.0
            with pytest.raises(ValueError):
                rp.dt[0] = 0.0

    def test_block_shapes_are_validated(self):
        q2 = np.tile([1.0, 0.0, 0.0, 0.0], (2, 1))
        with pytest.raises(DimMismatch):  # a (3, 2) block is not 2 translations
            relative_pose_rows(np.arange(6.0).reshape(3, 2), q2, np.zeros((2, 3)), q2)
        with pytest.raises(DimMismatch):
            relative_pose_rows(np.zeros((2, 2)), q2, np.zeros((2, 3)), q2)
        with pytest.raises(DimMismatch):
            relative_pose_rows(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)), q2)
        with pytest.raises(CountMismatch):
            relative_pose_rows(np.zeros((3, 3)), q2, np.zeros((2, 3)), q2)
        with pytest.raises(CountMismatch):
            relative_pose_rows(np.zeros((2, 3)), q2, np.zeros((2, 3)), q2[:1])

    def test_rejects_non_finite_translation_and_zero_quaternion(self):
        with pytest.raises(RefusedNonFinite):
            relative_pose_rows([[0, 0, math.nan]], [[1, 0, 0, 0]], [[0, 0, 0]], [[1, 0, 0, 0]])
        with pytest.raises(ZeroQuaternion):
            relative_pose_rows([[0, 0, 0]], [[0, 0, 0, 0]], [[0, 0, 0]], [[1, 0, 0, 0]])

    def test_angular_error_many_matches_scalar(self):
        rng = np.random.default_rng(31)
        qa = np.array([_rand_unit_quat(rng) for _ in range(500)] + [_unit(q) for q in _AXIS_QUATS])
        qb = np.array([_rand_unit_quat(rng) for _ in range(500)] + [_unit(q) for q in _AXIS_QUATS[::-1]])
        qb[:50] = qa[:50]
        got = angular_error_deg_many(qa, qb)
        want = np.array([_scalar_angle(x, y) for x, y in zip(qa, qb)])
        assert got.tobytes() == want.tobytes()


class TestRelativePose:
    def test_self_is_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = Pose(t=rng.standard_normal(3), q=_rand_unit_quat(rng))
            dt, dq = _relative(p, p)
            np.testing.assert_allclose(dt, 0.0, atol=0)
            np.testing.assert_allclose(dq, [1, 0, 0, 0], atol=1e-12)

    def test_translation_plus_yaw(self):
        anchor = Pose(t=[0, 0, 0], q=[1, 0, 0, 0])
        target = Pose(t=[1, 0, 0], q=[math.cos(math.pi / 4), 0, 0, math.sin(math.pi / 4)])
        dt, dq = _relative(anchor, target)
        np.testing.assert_allclose(dt, [1, 0, 0], atol=0)
        s = math.sqrt(2) / 2
        np.testing.assert_allclose(dq, [s, 0, 0, s], atol=1e-12)

    def test_pure_translation(self):
        anchor = Pose(t=[1, 2, 3], q=[1, 0, 0, 0])
        target = Pose(t=[1, 2, 4], q=[1, 0, 0, 0])
        dt, dq = _relative(anchor, target)
        np.testing.assert_array_equal(dt, [0, 0, 1])
        np.testing.assert_array_equal(dq, [1, 0, 0, 0])

    def test_matches_rotation_matrix_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = Pose(t=rng.standard_normal(3), q=_rand_unit_quat(rng))
            b = Pose(t=rng.standard_normal(3), q=_rand_unit_quat(rng))
            expected = _quat_from_rotmat(_rotmat(a.q).T @ _rotmat(b.q))
            np.testing.assert_allclose(_relative(a, b)[1], expected, atol=1e-9)

    def test_composition_reproduces_target(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = Pose(t=rng.standard_normal(3), q=_rand_unit_quat(rng))
            b = Pose(t=rng.standard_normal(3), q=_rand_unit_quat(rng))
            recomposed = _unit(quat_multiply(a.q, _relative(a, b)[1]))
            np.testing.assert_allclose(recomposed, b.q, atol=1e-9)

    def test_flat_vector_has_seven_components(self):
        rp = RelativePose(dt=[1, 2, 3], dq=[1, 0, 0, 0])
        v = rp.as_vector()
        assert v.shape == (7,)
        np.testing.assert_array_equal(v, [1, 2, 3, 1, 0, 0, 0])


def _angle(q_a, q_b) -> float:
    """The angle between two quaternions, as a one-row block."""
    return float(angular_error_deg_many(np.reshape(q_a, (1, 4)), np.reshape(q_b, (1, 4)))[0])


class TestAngularError:
    def test_identity_zero(self):
        assert _angle([1, 0, 0, 0], [1, 0, 0, 0]) == 0.0

    def test_double_cover_zero(self):
        q = _unit([0.3, 0.4, -0.2, 0.6])
        assert _angle(q, -q) == _angle(q, q)
        assert _angle(q, -q) <= 1e-5

    def test_ninety_degrees(self):
        s = math.sqrt(2) / 2
        assert abs(_angle([1, 0, 0, 0], [s, 0, 0, s]) - 90.0) <= 1e-9

    def test_symmetric_exactly(self):
        rng = np.random.default_rng(3)
        qa, qb = normalize_quat_rows(rng.standard_normal((100, 4))), normalize_quat_rows(rng.standard_normal((100, 4)))
        assert angular_error_deg_many(qa, qb).tobytes() == angular_error_deg_many(qb, qa).tobytes()

    def test_range(self):
        rng = np.random.default_rng(5)
        qa, qb = normalize_quat_rows(rng.standard_normal((200, 4))), normalize_quat_rows(rng.standard_normal((200, 4)))
        v = angular_error_deg_many(qa, qb)
        assert np.all((0.0 <= v) & (v <= 180.0))

    def test_clamp_prevents_nan(self):
        q = _unit([1, 1e-8, 0, 0])
        assert math.isfinite(_angle(q, q))


class TestHelpers:
    def test_conjugate_inverts(self):
        rng = np.random.default_rng(17)
        q = _rand_unit_quat(rng)
        np.testing.assert_allclose(_unit(quat_multiply(q, _conj(q))), [1, 0, 0, 0], atol=1e-12)

    def test_pose_is_immutable(self):
        p = Pose(t=[0, 0, 0], q=[1, 0, 0, 0])
        with pytest.raises(ValueError):
            p.t[0] = 1.0
