"""Geometric value types: poses, envelopes, boxes, IoU, chi-square."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from workcell.errors import InsufficientDataError, NumericError
from workcell.geometry import (
    GaussianEnvelope,
    OrientedBox,
    PointCloudData,
    PoseSE3,
    cholesky_solve,
    envelope_from_points,
    mahalanobis_between,
    spd_inverse,
    xy_iou,
)
from workcell.world_model import CHI2_THRESH_3DOF


def random_rotation(seed):
    return Rotation.random(random_state=np.random.default_rng(seed)).as_matrix()


# -- PoseSE3 ------------------------------------------------------------------


def test_pose_identity_is_noop():
    p = np.array([1.0, -2.0, 3.0])
    assert np.allclose(PoseSE3.identity().apply(p), p)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_pose_compose_matches_sequential_application(seed_a, seed_b):
    rng = np.random.default_rng(seed_a + 31 * seed_b)
    a = PoseSE3(random_rotation(seed_a), rng.uniform(-1, 1, 3))
    b = PoseSE3(random_rotation(seed_b), rng.uniform(-1, 1, 3))
    pts = rng.uniform(-2, 2, (5, 3))
    assert np.allclose(a.compose(b).apply(pts), a.apply(b.apply(pts)), atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_pose_inverse_roundtrip(seed):
    rng = np.random.default_rng(seed)
    pose = PoseSE3(random_rotation(seed), rng.uniform(-1, 1, 3))
    pts = rng.uniform(-2, 2, (7, 3))
    assert np.allclose(pose.inverse().apply(pose.apply(pts)), pts, atol=1e-10)


def test_pose_rejects_non_rotation():
    with pytest.raises(ValueError):
        PoseSE3(2 * np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        # Reflection: orthonormal but det = -1.
        PoseSE3(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


def test_pose_rejects_non_finite_translation():
    with pytest.raises(ValueError):
        PoseSE3(np.eye(3), [0.0, np.nan, 0.0])


# -- GaussianEnvelope ---------------------------------------------------------


def test_envelope_symmetrizes_covariance():
    cov = np.array([[1.0, 0.1, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.0]])
    env = GaussianEnvelope(np.zeros(3), cov)
    assert np.allclose(env.covariance, env.covariance.T)


def test_envelope_rejects_asymmetric_and_non_psd():
    with pytest.raises(ValueError):
        GaussianEnvelope(np.zeros(3), [[1, 0.5, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        GaussianEnvelope(np.zeros(3), -np.eye(3))


def test_envelope_from_points_matches_sample_statistics():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(200, 3))
    env = envelope_from_points(PointCloudData(pts))
    assert np.allclose(env.mean, pts.mean(axis=0))
    expected = np.cov(pts.T, ddof=1) + 1e-6 * np.eye(3)
    assert np.allclose(env.covariance, expected, atol=1e-12)


def test_envelope_from_points_needs_two_points():
    with pytest.raises(InsufficientDataError):
        envelope_from_points(PointCloudData(np.zeros((1, 3))))


# -- OrientedBox --------------------------------------------------------------


def test_box_volume():
    box = OrientedBox([0, 0, 0], [1, 2, 3])
    assert box.volume == pytest.approx(48.0)


def test_box_contains_respects_rotation():
    rot = Rotation.from_euler("z", 45, degrees=True).as_matrix()
    box = OrientedBox([0, 0, 0], [1, 0.1, 0.1], rot)
    inside = np.array([0.6, 0.6, 0.0]) / np.sqrt(2) * np.sqrt(2)  # along box x-axis
    along_axis = rot @ np.array([0.9, 0.0, 0.0])
    assert box.contains(along_axis[None])[0]
    assert not box.contains(np.array([[0.9, 0.0, 0.0]]))[0]
    assert inside is not None


def test_box_rejects_nonpositive_extents():
    with pytest.raises(ValueError):
        OrientedBox([0, 0, 0], [1, 0, 1])


# -- linear algebra helpers ---------------------------------------------------


def test_cholesky_solve_matches_numpy():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    spd = a @ a.T + 4 * np.eye(4)
    rhs = rng.normal(size=4)
    assert np.allclose(cholesky_solve(spd, rhs), np.linalg.solve(spd, rhs))
    assert np.allclose(spd_inverse(spd), np.linalg.inv(spd), atol=1e-10)


def test_cholesky_solve_rejects_indefinite():
    with pytest.raises(NumericError):
        cholesky_solve(np.diag([1.0, -1.0, 1.0]), np.ones(3))


def test_mahalanobis_between_oracle():
    a = GaussianEnvelope([0, 0, 0], np.eye(3))
    b = GaussianEnvelope([2, 0, 0], np.eye(3))
    # Summed covariance 2I: d = sqrt(4 / 2) = sqrt(2).
    assert mahalanobis_between(a, b) == pytest.approx(np.sqrt(2.0))
    assert mahalanobis_between(a, b) == pytest.approx(mahalanobis_between(b, a))
    assert mahalanobis_between(a, a) == pytest.approx(0.0)


# -- IoU ----------------------------------------------------------------------


def _footprint(center, half):
    c, h = np.asarray(center, dtype=float), np.asarray(half, dtype=float)
    return c - h, c + h


def test_box_iou_identical_and_disjoint():
    a = _footprint([0, 0, 0], [1, 1, 1])
    assert xy_iou(*a, *a) == pytest.approx(1.0)
    b = _footprint([10, 0, 0], [1, 1, 1])
    assert xy_iou(*a, *b) == 0.0
    # Only the footprint counts: a box above another overlaps it fully.
    assert xy_iou(*a, *_footprint([0, 0, 5], [1, 1, 1])) == pytest.approx(1.0)


def test_box_iou_axis_aligned_exact():
    a = _footprint([0, 0, 0], [1, 1, 1])
    b = _footprint([1, 0, 0], [1, 1, 1])
    # Intersection 1x2 = 2, union 4 + 4 - 2 = 6.
    assert xy_iou(*a, *b) == pytest.approx(2.0 / 6.0)
    assert xy_iou(*b, *a) == xy_iou(*a, *b)
    # A degenerate footprint has no area and no union.
    flat = _footprint([0, 0, 0], [0, 0, 1])
    assert xy_iou(*flat, *flat) == 0.0


# -- chi-square ---------------------------------------------------------------


def test_chi_square_threshold_known_quantiles():
    from scipy.stats import chi2

    # The literal stands in for the 95% quantile of chi-square with 3 dof.
    assert CHI2_THRESH_3DOF == pytest.approx(chi2.ppf(0.95, 3), abs=1e-3)
