"""Scale-aware robust point-set registration.

Aligns a source cloud to an observed cloud under a similarity
transform q ~ s * (R p + t). Correspondences are nearest neighbors,
reweighted each iteration with Huber weights whose knee tracks the
residual median, with closed-form rotation (SVD) and scale updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import RegistrationError
from .geometry import PointCloudData, PoseSE3

_CONVERGENCE_TOL = 1e-8
_HUBER_MEDIAN_FACTOR = 2.5


@dataclass
class RegistrationResult:
    pose: PoseSE3
    scale: float
    residual: float
    iterations: int

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")


def icp_register(
    source: PointCloudData,
    target: PointCloudData,
    init: PoseSE3 | None = None,
    init_scale: float = 1.0,
    max_iter: int = 60,
) -> RegistrationResult:
    """Estimate (scale, rotation, translation) mapping source onto target."""
    if len(source) == 0 or len(target) == 0:
        raise RegistrationError("registration requires non-empty clouds")
    if init_scale <= 0:
        raise RegistrationError("init_scale must be positive")

    p = source.points
    q_all = target.points
    tree = cKDTree(q_all)

    pose = init or PoseSE3.identity()
    rot = pose.rotation.copy()
    trans = pose.translation.copy()
    scale = float(init_scale)

    prev_residual = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        moved = scale * (p @ rot.T + trans)
        dists, idx = tree.query(moved)
        q = q_all[idx]
        residuals = dists
        med = float(np.median(residuals))
        delta = max(_HUBER_MEDIAN_FACTOR * med, 1e-12)
        w = np.where(residuals <= delta, 1.0, delta / np.maximum(residuals, 1e-30))

        wsum = w.sum()
        if wsum < 1e-12:
            raise RegistrationError("all correspondence weights vanished")
        p_bar = (w[:, None] * p).sum(axis=0) / wsum
        q_bar = (w[:, None] * q).sum(axis=0) / wsum
        p_c = p - p_bar
        q_c = q - q_bar

        h = (w[:, None] * p_c).T @ q_c
        u, sing, vt = np.linalg.svd(h)
        if sing[1] < 1e-12:
            raise RegistrationError("degenerate (rank-deficient) cross-covariance")
        v = vt.T
        rot_new = v @ u.T
        if np.linalg.det(rot_new) < 0:
            v = v.copy()
            v[:, -1] *= -1
            rot_new = v @ u.T

        denom = float((w * (p_c**2).sum(axis=1)).sum())
        if denom < 1e-15:
            raise RegistrationError("source cloud has no spread")
        scale_new = float((w * np.einsum("ij,ij->i", q_c, p_c @ rot_new.T)).sum()) / denom
        if scale_new <= 0:
            raise RegistrationError("scale update became non-positive")

        # q_bar = s (R p_bar + t)  =>  t = q_bar / s - R p_bar
        trans_new = q_bar / scale_new - rot_new @ p_bar

        rot, trans, scale = rot_new, trans_new, scale_new
        moved = scale * (p @ rot.T + trans)
        residual = float(np.mean(np.linalg.norm(moved - q, axis=1)))
        if abs(prev_residual - residual) < _CONVERGENCE_TOL:
            prev_residual = residual
            break
        prev_residual = residual

    return RegistrationResult(
        pose=PoseSE3(rot, trans),
        scale=scale,
        residual=float(prev_residual),
        iterations=iterations,
    )
