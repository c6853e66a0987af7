"""Scale-aware robust registration."""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from workcell.errors import RegistrationError
from workcell.geometry import PointCloudData, PoseSE3
from workcell.registration import icp_register


def _cloud(rng, n=120):
    return rng.uniform(-0.5, 0.5, size=(n, 3)) * np.array([1.0, 0.6, 0.3])


def _transform(points, scale, rot, trans):
    return scale * (points @ rot.T + trans)


def test_identity_registration():
    rng = np.random.default_rng(0)
    pts = _cloud(rng)
    res = icp_register(PointCloudData(pts), PointCloudData(pts.copy()))
    assert res.scale == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(res.pose.rotation, np.eye(3), atol=1e-8)
    assert np.allclose(res.pose.translation, 0.0, atol=1e-8)
    assert res.residual < 1e-9


def test_clean_similarity_recovery():
    rng = np.random.default_rng(42)
    pts = _cloud(rng)
    rot = Rotation.from_euler("xyz", [5, -8, 12], degrees=True).as_matrix()
    trans = np.array([0.05, -0.02, 0.08])
    scale = 1.17
    target = _transform(pts, scale, rot, trans)
    res = icp_register(PointCloudData(pts), PointCloudData(target))
    assert res.scale == pytest.approx(scale, abs=1e-6)
    assert np.allclose(res.pose.rotation, rot, atol=1e-6)
    assert np.allclose(res.pose.translation, trans, atol=1e-6)


def test_outlier_robustness():
    rng = np.random.default_rng(7)
    pts = _cloud(rng, n=200)
    rot = Rotation.from_euler("z", 6, degrees=True).as_matrix()
    trans = np.array([0.03, 0.01, -0.02])
    scale = 0.9
    target = _transform(pts, scale, rot, trans)
    # Replace 20% of target points by gross outliers.
    n_out = len(target) // 5
    target = np.vstack([target, rng.uniform(3, 5, size=(n_out, 3))])
    res = icp_register(PointCloudData(pts), PointCloudData(target))
    assert res.scale == pytest.approx(scale, abs=1e-3)
    assert np.allclose(res.pose.translation, trans, atol=1e-3)
    assert np.allclose(res.pose.rotation, rot, atol=1e-3)


def test_registration_rejects_degenerate_input():
    pts = PointCloudData(np.zeros((0, 3)))
    with pytest.raises(RegistrationError):
        icp_register(pts, pts)
    some = PointCloudData(np.random.default_rng(1).normal(size=(10, 3)))
    with pytest.raises(RegistrationError):
        icp_register(some, some, init_scale=0.0)
    # Collinear source: rank-deficient cross-covariance.
    line = PointCloudData(np.outer(np.linspace(0, 1, 20), [1.0, 0.0, 0.0]))
    with pytest.raises(RegistrationError):
        icp_register(line, line)


def test_warm_start_converges_faster():
    rng = np.random.default_rng(5)
    pts = _cloud(rng)
    rot = Rotation.from_euler("y", 20, degrees=True).as_matrix()
    target = _transform(pts, 1.05, rot, np.array([0.1, 0.0, 0.0]))
    cold = icp_register(PointCloudData(pts), PointCloudData(target))
    warm = icp_register(
        PointCloudData(pts), PointCloudData(target),
        init=PoseSE3(rot, [0.1, 0.0, 0.0]), init_scale=1.05,
    )
    assert warm.residual <= cold.residual + 1e-12
    assert warm.iterations <= cold.iterations
    assert warm.scale == pytest.approx(1.05, abs=1e-6)
