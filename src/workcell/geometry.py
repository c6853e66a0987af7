"""Core geometric and probabilistic value types.

Everything here is a pure value or a pure function; no shared state.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy

from .errors import InsufficientDataError, NumericError


def _load_flapack():
    """``scipy.linalg._flapack``, the compiled module whose LAPACK functions
    ``scipy.linalg.lapack`` re-exports, loaded without ``scipy.linalg``'s
    package init: that init clones numpy's namespace through
    ``scipy._lib._array_api``, about 0.3 s and 20 MB."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    path = [os.path.join(d, "linalg") for d in scipy.__path__]
    found = importlib.machinery.PathFinder.find_spec("_flapack", path)
    if found is None:
        raise ImportError(f"scipy's _flapack extension is not in {path}")
    spec = importlib.util.spec_from_file_location(name, found.origin)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


lapack = _load_flapack()

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


def read_only_view(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; ``a`` itself stays as it is."""
    view = a.view()
    view.flags.writeable = False
    return view


def as_point3(p) -> np.ndarray:
    """Coerce to a finite 3-vector of floats."""
    a = np.asarray(p, dtype=float).reshape(3)
    if not all(map(math.isfinite, a.tolist())):
        raise ValueError(f"point has non-finite components: {a}")
    return a


def _close(x: float, y: float, atol: float) -> bool:
    """``np.allclose``'s rule for one entry of ``a`` against finite ``b``,
    ``|a - b| <= atol + 1e-5 * |b|``, in the same double arithmetic."""
    return abs(x - y) <= atol + 1e-5 * abs(y)


def _allclose(a: np.ndarray, b: np.ndarray, atol: float) -> bool:
    """``np.allclose(a, b, atol=atol)`` for finite ``b``, entry by entry,
    without numpy's per-call overhead on nine entries."""
    for x, y in zip(a.ravel().tolist(), b.ravel().tolist()):
        if not _close(x, y, atol):
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


@dataclass(frozen=True)
class GaussianEnvelope:
    """Positional belief (mean, covariance) acting as a spatial index."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", as_point3(self.mean))
        # The rule is checked on Python floats, which are the same IEEE
        # doubles numpy would compute with, at a fraction of its per-call
        # cost on nine entries.
        rows = np.asarray(self.covariance, dtype=float).reshape(3, 3).tolist()
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = rows
        if not all(map(math.isfinite, (a00, a01, a02, a10, a11, a12, a20, a21, a22))):
            raise ValueError(f"covariance has non-finite entries: {rows}")
        if not all(_close(x, y, 1e-9) and _close(y, x, 1e-9)
                   for x, y in ((a01, a10), (a02, a20), (a12, a21))):
            raise ValueError("covariance must be symmetric")
        # 0.5 * (cov + cov.T), entry by entry; a sum of finite entries can
        # overflow, and an infinite covariance is refused.
        s00, s11, s22 = 0.5 * (a00 + a00), 0.5 * (a11 + a11), 0.5 * (a22 + a22)
        s01, s02, s12 = 0.5 * (a01 + a10), 0.5 * (a02 + a20), 0.5 * (a12 + a21)
        if not all(map(math.isfinite, (s00, s11, s22, s01, s02, s12))):
            raise ValueError("covariance overflows when symmetrized")
        cov = np.array([[s00, s01, s02], [s01, s11, s12], [s02, s12, s22]])
        # Ascending eigenvalues from the routine np.linalg.eigvalsh runs.
        eigvals, _, info = lapack.dsyevd(cov, compute_v=0, lower=1)
        if info != 0:
            raise ValueError(f"covariance eigenvalues did not converge (dsyevd info {info})")
        if eigvals[0] < MIN_EIGENVALUE * (1 - 1e-9):
            raise ValueError(
                f"covariance smallest eigenvalue {eigvals[0]:.3e} below floor"
            )
        object.__setattr__(self, "covariance", cov)

    @cached_property
    def info(self) -> np.ndarray:
        """The information matrix, ``spd_inverse(covariance)``, computed on
        first use and read-only."""
        info = spd_inverse(self.covariance)
        info.flags.writeable = False
        return info

    @cached_property
    def box(self) -> tuple[np.ndarray, np.ndarray]:
        """The (lo, hi) corners of the axis-aligned box two standard
        deviations either side of the mean, computed on first use and
        read-only."""
        sigma = np.sqrt(np.diag(self.covariance))
        return read_only_view(self.mean - 2 * sigma), read_only_view(self.mean + 2 * sigma)


# Bound on the gap between the smallest eigenvalue np.linalg.eigvalsh gives
# for a symmetric 3x3 matrix and the one the constructor's dsyevd gives,
# relative to the matrix's largest absolute eigenvalue. Both routines are
# backward stable, so each lies within a few ulps of that scale from the
# exact value; 1e-12 allows thousands of ulps.
_EIGVALSH_REL_GAP = 1e-12


def envelope_stack(means, covariances) -> list[GaussianEnvelope]:
    """``[GaussianEnvelope(m, c) for m, c in zip(means, covariances)]``,
    the same envelopes to the bit, with the same exception for the first
    row the constructor refuses, but with every row checked in one pass.

    Means that form an (n, 3) stack and covariances that form an (n, 3, 3)
    stack get the constructor's rule row by row: finite entries,
    ``|c - c.T| <= 1e-9 + 1e-5 * |c.T|`` entrywise, a finite symmetrized
    ``0.5 * (c + c.T)``, which is stored, and a smallest eigenvalue of at
    least ``MIN_EIGENVALUE * (1 - 1e-9)``, read from one batched ``eigvalsh``. A
    row that passes is stored without running ``__post_init__``. A row
    that fails, or whose smallest eigenvalue lies within
    ``_EIGVALSH_REL_GAP`` times its largest absolute eigenvalue of the
    floor, goes to the constructor, whose own ``dsyevd`` then decides it,
    in row order. Inputs that do not form
    the two stacks all go to the constructor.
    """
    n = len(means)
    try:
        m = np.array(means, dtype=float)
        c = np.array(covariances, dtype=float)
    except (TypeError, ValueError, OverflowError):
        m = c = None
    if m is None or m.shape != (n, 3) or c.shape != (n, 3, 3):
        return [GaussianEnvelope(a, b) for a, b in zip(means, covariances)]
    ct = c.transpose(0, 2, 1)
    with np.errstate(invalid="ignore", over="ignore"):
        sym = 0.5 * (c + ct)
        # A finite sym means a finite c whose symmetrization did not overflow.
        ok = (np.isfinite(m).all(axis=1) & np.isfinite(sym).all(axis=(1, 2))
              & (np.abs(c - ct) <= 1e-9 + 1e-5 * np.abs(ct)).all(axis=(1, 2)))
    if ok.any():
        try:
            eig = np.linalg.eigvalsh(sym[ok])
        except np.linalg.LinAlgError:  # the constructor reports which row
            ok[:] = False
        else:
            floor = MIN_EIGENVALUE * (1 - 1e-9)
            ok[ok] = eig[:, 0] - floor > _EIGVALSH_REL_GAP * np.abs(eig).max(axis=1)
    out = []
    for i, (mean, cov, vouched) in enumerate(zip(m, sym, ok.tolist())):
        if vouched:
            env = object.__new__(GaussianEnvelope)
            object.__setattr__(env, "mean", mean)
            object.__setattr__(env, "covariance", cov)
        else:
            env = GaussianEnvelope(means[i], covariances[i])
        out.append(env)
    return out


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


@dataclass(frozen=True)
class PointCloudData:
    """Ordered point set, held in a read-only array."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", read_only_view(
            np.asarray(self.points, dtype=float).reshape(-1, 3)))

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
    # dpotrs solves into a copy of its right-hand side, so the shared
    # read-only identity serves every 3x3 call.
    return cholesky_solve(matrix, _EYE3 if len(matrix) == 3 else np.eye(len(matrix)))


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
