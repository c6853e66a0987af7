"""Core geometric and probabilistic value types.

Everything here is a pure value or a pure function; no shared state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .errors import InsufficientDataError, NumericError

# Regularizer added to sample covariances so envelopes stay SPD.
COV_EPSILON = 1e-6
# Minimum eigenvalue an envelope covariance may carry.
MIN_EIGENVALUE = 1e-9

# Sign patterns of a box's eight corners, one row per corner.
CORNER_SIGNS = np.array(
    [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
    dtype=float,
)
CORNER_SIGNS.flags.writeable = False

_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


def as_point3(p) -> np.ndarray:
    """Coerce to a finite 3-vector of floats."""
    a = np.asarray(p, dtype=float).reshape(3)
    if not np.isfinite(a).all():
        raise ValueError(f"point has non-finite components: {a}")
    return a


def _allclose(a: np.ndarray, b: np.ndarray, atol: float) -> bool:
    """``np.allclose(a, b, atol=atol)`` for finite ``b``: the same rule,
    ``|a - b| <= atol + 1e-5 * |b|`` for every entry, in the same double
    arithmetic, without numpy's per-call overhead on nine entries."""
    for x, y in zip(a.ravel().tolist(), b.ravel().tolist()):
        if not abs(x - y) <= atol + 1e-5 * abs(y):
            return False
    return True


def _check_rotation(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float).reshape(3, 3)
    if not _allclose(r.T @ r, _EYE3, atol=1e-8):
        raise ValueError("rotation matrix is not orthonormal")
    if not abs(np.linalg.det(r) - 1.0) < 1e-6:
        raise ValueError("rotation matrix determinant is not +1")
    return r


@dataclass(frozen=True)
class PoseSE3:
    """Rigid transform: x_out = rotation @ x + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", _check_rotation(self.rotation))
        object.__setattr__(self, "translation", as_point3(self.translation))

    @classmethod
    def identity(cls) -> "PoseSE3":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = pts @ self.rotation.T + self.translation
        return out[0] if np.asarray(points).ndim == 1 else out

    def compose(self, other: "PoseSE3") -> "PoseSE3":
        """self after other: (self * other)(x) = self(other(x))."""
        return PoseSE3(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "PoseSE3":
        rt = self.rotation.T
        return PoseSE3(rt, -rt @ self.translation)


@dataclass(frozen=True)
class GaussianEnvelope:
    """Positional belief (mean, covariance) acting as a spatial index."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", as_point3(self.mean))
        cov = np.asarray(self.covariance, dtype=float).reshape(3, 3)
        if not np.isfinite(cov).all():
            raise ValueError(f"covariance has non-finite entries: {cov.tolist()}")
        if not _allclose(cov, cov.T, atol=1e-9):
            raise ValueError("covariance must be symmetric")
        cov = 0.5 * (cov + cov.T)
        # Ascending eigenvalues from the routine np.linalg.eigvalsh runs.
        eigvals, _, info = lapack.dsyevd(cov, compute_v=0, lower=1)
        if info != 0:
            raise ValueError(f"covariance eigenvalues did not converge (dsyevd info {info})")
        if eigvals[0] < MIN_EIGENVALUE * (1 - 1e-9):
            raise ValueError(
                f"covariance smallest eigenvalue {eigvals[0]:.3e} below floor"
            )
        object.__setattr__(self, "covariance", cov)


@dataclass(frozen=True)
class OrientedBox:
    """Box with center, positive half-extents, and an orientation."""

    center: np.ndarray
    half_extents: np.ndarray
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        object.__setattr__(self, "center", as_point3(self.center))
        he = np.asarray(self.half_extents, dtype=float).reshape(3)
        if not np.all(he > 0):
            raise ValueError("half extents must be positive")
        object.__setattr__(self, "half_extents", he)
        object.__setattr__(self, "rotation", _check_rotation(self.rotation))

    @property
    def volume(self) -> float:
        return float(8.0 * np.prod(self.half_extents))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the box (boundary inclusive)."""
        local = (np.atleast_2d(points) - self.center) @ self.rotation
        return np.all(np.abs(local) <= self.half_extents + 1e-12, axis=1)


@dataclass
class PointCloudData:
    """Ordered point set with optional per-point semantic labels."""

    points: np.ndarray
    labels: list[str] | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if self.labels is not None and len(self.labels) != len(self.points):
            raise ValueError("label count must match point count")

    def __len__(self) -> int:
        return len(self.points)


def cholesky_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve matrix @ x = rhs for SPD matrix, raising NumericError on failure.

    Calls the LAPACK routines that scipy's ``cho_factor``/``cho_solve``
    wrap, with the same arguments, so the result is theirs to the bit.
    """
    factor, info = lapack.dpotrf(matrix, lower=1, clean=0)
    if info > 0:
        raise NumericError(
            f"matrix is not positive definite: {info}-th leading minor "
            "of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    x, info = lapack.dpotrs(factor, rhs, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def spd_inverse(matrix: np.ndarray) -> np.ndarray:
    return cholesky_solve(matrix, np.eye(len(matrix)))


def mahalanobis_between(a: GaussianEnvelope, b: GaussianEnvelope) -> float:
    """Gating distance between two envelopes under the summed covariance."""
    diff = a.mean - b.mean
    d2 = float(diff @ cholesky_solve(a.covariance + b.covariance, diff))
    return float(np.sqrt(max(d2, 0.0)))


# Smallest determinant of the unit-diagonal scaling of a summed covariance
# that mahalanobis_pairs answers for. Above it the scaled condition number
# is below 27 / 1e-6, so a distance carries a relative error of order 1e-8
# at most, and each Cholesky pivot is far above roundoff, so the closed form
# and LAPACK agree on positive definiteness.
_MIN_SCALED_DET = 1e-6


def mahalanobis_pairs(a: list[GaussianEnvelope], b: list[GaussianEnvelope]) -> np.ndarray:
    """(len(a), len(b)) matrix of mahalanobis_between(a[k], b[i]) for two
    non-empty lists, all pairs in one numpy pass by a closed-form 3x3
    Cholesky factorization.

    A finite entry agrees with the per-pair value to far better than a
    relative 1e-6. An entry is NaN or infinite where the summed covariance
    is not positive definite or too ill-conditioned to promise that, and
    where the arithmetic overflows.
    """
    d = np.array([e.mean for e in a])[:, None] - np.array([e.mean for e in b])[None]
    s = (np.array([e.covariance for e in a])[:, None]
         + np.array([e.covariance for e in b])[None])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        l00 = np.sqrt(s[..., 0, 0])
        l10 = s[..., 1, 0] / l00
        l20 = s[..., 2, 0] / l00
        p1 = s[..., 1, 1] - l10 * l10
        l11 = np.sqrt(p1)
        l21 = (s[..., 2, 1] - l20 * l10) / l11
        p2 = s[..., 2, 2] - l20 * l20 - l21 * l21
        y0 = d[..., 0] / l00
        y1 = (d[..., 1] - l10 * y0) / l11
        y2 = (d[..., 2] - l20 * y0 - l21 * y1) / np.sqrt(p2)
        dist = np.sqrt(y0 * y0 + y1 * y1 + y2 * y2)
        scaled_det = p1 * p2 / (s[..., 1, 1] * s[..., 2, 2])
    dist[~(scaled_det >= _MIN_SCALED_DET)] = np.nan
    return dist


def envelope_from_points(pc: PointCloudData) -> GaussianEnvelope:
    """Fit an envelope: centroid plus regularized sample covariance."""
    if len(pc) < 2:
        raise InsufficientDataError(
            f"envelope fit needs at least 2 points, got {len(pc)}"
        )
    mean = pc.points.mean(axis=0)
    centered = pc.points - mean
    cov = (centered.T @ centered) / (len(pc) - 1) + COV_EPSILON * np.eye(3)
    return GaussianEnvelope(mean, cov)


def xy_iou(lo_a, hi_a, lo_b, hi_b) -> float:
    """Footprint IoU of two axis-aligned boxes given by their (lo, hi)
    corners; only the x and y components are read."""
    ix = max(0.0, min(hi_a[0], hi_b[0]) - max(lo_a[0], lo_b[0]))
    iy = max(0.0, min(hi_a[1], hi_b[1]) - max(lo_a[1], lo_b[1]))
    inter = ix * iy
    area_a = (hi_a[0] - lo_a[0]) * (hi_a[1] - lo_a[1])
    area_b = (hi_b[0] - lo_b[0]) * (hi_b[1] - lo_b[1])
    union = area_a + area_b - inter
    if union <= 0:
        return 0.0
    return float(min(max(inter / union, 0.0), 1.0))
