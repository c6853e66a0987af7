"""Geometric value types: poses, envelopes, boxes, IoU, chi-square."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import workcell
from workcell.errors import InsufficientDataError, NumericError
from workcell.geometry import (
    MIN_EIGENVALUE,
    GaussianEnvelope,
    OrientedBox,
    PointCloudData,
    PoseSE3,
    cholesky_solve,
    envelope_from_points,
    envelope_stack,
    mahalanobis_between,
    mahalanobis_pairs,
    spd_inverse,
    xy_iou,
)
from workcell.world_model import CHI2_THRESH_3DOF

from oracles import (
    check_rotation_reference,
    cholesky_solve_reference,
    envelope_reference,
    mahalanobis_reference,
)


def random_rotation(seed):
    return Rotation.random(random_state=np.random.default_rng(seed)).as_matrix()


# -- PoseSE3 ------------------------------------------------------------------


def test_pose_identity_is_noop():
    p = np.array([1.0, -2.0, 3.0])
    pose = PoseSE3.identity()
    assert np.allclose(p @ pose.rotation.T + pose.translation, p)


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
    assert box.half_extents.dtype == float
    assert 8.0 * np.prod(box.half_extents) == pytest.approx(48.0)


def _box_contains(box, point):
    local = (np.asarray(point, dtype=float) - box.center) @ box.rotation
    return bool(np.all(np.abs(local) <= box.half_extents))


def test_box_contains_respects_rotation():
    rot = Rotation.from_euler("z", 45, degrees=True).as_matrix()
    box = OrientedBox([0, 0, 0], [1, 0.1, 0.1], rot)
    assert np.array_equal(box.rotation, rot)
    along_axis = rot @ np.array([0.9, 0.0, 0.0])
    assert _box_contains(box, along_axis)
    assert not _box_contains(box, [0.9, 0.0, 0.0])


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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_spd_inverse_and_envelope_info_match_a_fresh_identity_solve(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3))
    cov = a @ a.T + 1e-3 * np.eye(3)
    want = cholesky_solve(cov, np.eye(3)).tobytes()
    assert spd_inverse(cov).tobytes() == want
    assert spd_inverse(cov).flags.writeable  # a fresh array for the caller
    assert np.array_equal(workcell.geometry._EYE3, np.eye(3))


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


def test_envelope_rejects_non_finite_covariance():
    for cov in (np.diag([np.inf, 1.0, 1.0]), np.diag([1.0, np.nan, 1.0])):
        with pytest.raises(ValueError, match="non-finite"):
            GaussianEnvelope(np.zeros(3), cov)
    cov = np.eye(3)
    cov[0, 1] = cov[1, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        GaussianEnvelope(np.zeros(3), cov)


# -- the same bits as the scipy / allclose / eigvalsh reference ---------------


def _outcome(fn, *args):
    """What a call gives: the bytes of its arrays, or the error it raised."""
    try:
        out = fn(*args)
    except (ValueError, NumericError) as exc:
        return type(exc).__name__
    if isinstance(out, tuple):
        return tuple((a.shape, a.tobytes()) for a in out)
    return out.shape, out.tobytes()


# Smallest eigenvalue of a generated covariance, relative to the floor: right
# at it, one part in 1e9 either side (the floor test's own margin), and clear.
_FLOOR_FACTORS = [1 - 2e-9, 1 - 1e-9, 1.0, 1 + 1e-9, 1 + 1e-6, 1e3, 1e7]


def _covariance(seed, floor_factor, spread, axes_seed=None):
    """Q diag(ev) Q^T in floating point: symmetric only to roundoff, with its
    smallest eigenvalue near floor_factor * MIN_EIGENVALUE along the first
    axis of Q, the rotation drawn from axes_seed (default: seed)."""
    rng = np.random.default_rng(seed)
    ev = np.array([floor_factor * MIN_EIGENVALUE,
                   *(floor_factor * MIN_EIGENVALUE * 10.0 ** rng.uniform(0, spread, 2))])
    q = random_rotation(seed if axes_seed is None else axes_seed)
    return q @ np.diag(ev) @ q.T


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from(_FLOOR_FACTORS),
       st.floats(0, 9), st.booleans())
def test_cholesky_solve_bytes_equal_scipy_wrappers(seed, floor_factor, spread, identity):
    cov = _covariance(seed, floor_factor, spread)
    rhs = np.eye(3) if identity else np.random.default_rng(seed).normal(size=3)
    assert _outcome(cholesky_solve, cov, rhs) == _outcome(cholesky_solve_reference, cov, rhs)


def test_cholesky_solve_indefinite_singular_and_nan_match_reference():
    for m in (np.diag([1.0, -1.0, 1.0]), np.zeros((3, 3)), np.diag([1.0, 1.0, np.nan])):
        assert _outcome(cholesky_solve, m, np.ones(3)) == \
            _outcome(cholesky_solve_reference, m, np.ones(3))
    assert _outcome(cholesky_solve, np.zeros((3, 3)), np.ones(3)) == "NumericError"


def _asymmetric(cov, nudge):
    """cov with entry (0, 1) moved off (1, 0) by nudge times the symmetry
    tolerance, |a - b| <= 1e-9 + 1e-5 |b|."""
    cov = cov.copy()
    cov[0, 1] = cov[1, 0] + nudge * (1e-9 + 1e-5 * abs(cov[1, 0]))
    return cov


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from(_FLOOR_FACTORS), st.floats(0, 9),
       st.sampled_from([0.0, 0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0, -1.0]))
def test_envelope_check_decides_and_stores_as_reference(seed, floor_factor, spread, nudge):
    cov = _asymmetric(_covariance(seed, floor_factor, spread), nudge)
    mean = np.random.default_rng(seed).normal(size=3)

    def package(m, c):
        env = GaussianEnvelope(m, c)
        return env.mean, env.covariance

    assert _outcome(package, mean, cov) == _outcome(envelope_reference, mean, cov)


_BIG = 1.7e308  # finite, but twice it overflows to inf


@pytest.mark.parametrize("mean, cov", [
    ([-0.0, 0.0, -0.0], [[1.0, -0.0, 0.0], [0.0, 2.0, -0.0], [-0.0, -0.0, 3.0]]),
    ([1, 2, 3], [[1, 0, 0], [0, 2, 0], [0, 0, 3]]),
    (np.array([1, 2, 3]), np.eye(3, dtype=int)),
    ([0.1, 0.2], np.eye(3)),
    ([0.1, 0.2, 0.3], np.eye(3).ravel().tolist()),
    ([0.1, 0.2, 0.3], [1.0] * 8),
    ([0.1, 0.2, 0.3], np.diag([_BIG, 1.0, 1.0])),
    ([0.1, 0.2, 0.3], [[1.0, _BIG, 0.0], [_BIG, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ([0.1, 0.2, 0.3], np.diag([np.nan, 1.0, 1.0])),
    ([0.1, np.inf, 0.3], np.eye(3)),
    ([0.1, 0.2, 0.3], [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ([0.1, 0.2, 0.3], np.diag([1.0, 1.0, 1e-12])),
    (["a", 0.2, 0.3], np.eye(3)),
])
def test_envelope_edge_cases_match_reference(mean, cov):
    def stored(build):
        try:
            arrays = build(mean, cov)
        except ValueError as exc:
            return str(exc)
        return [(a.dtype, a.shape, a.tobytes()) for a in arrays]

    def package(m, c):
        env = GaussianEnvelope(m, c)
        return env.mean, env.covariance

    assert stored(package) == stored(envelope_reference)


@pytest.mark.parametrize("cov", [
    np.diag([_BIG, 1.0, 1.0]),
    [[1.0, _BIG, 0.0], [_BIG, 1.0, 0.0], [0.0, 0.0, 1.0]],
])
def test_envelope_refuses_a_covariance_whose_symmetrization_overflows(cov):
    for build in (GaussianEnvelope, envelope_reference):
        with pytest.raises(ValueError, match="overflows when symmetrized"):
            build([0.1, 0.2, 0.3], cov)
    with pytest.raises(ValueError, match="overflows when symmetrized"):
        envelope_stack([[0.1, 0.2, 0.3]], [cov])


def _built(build, means, covs):
    """What building envelopes from the rows gives: the dtype, shape and
    bytes of every stored array, or the type and message of the error."""
    try:
        envs = build(means, covs)
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)
    return [(a.dtype, a.shape, a.tobytes()) for e in envs for a in (e.mean, e.covariance)]


def _one_by_one(means, covs):
    return [GaussianEnvelope(m, c) for m, c in zip(means, covs)]


def _stack_matches_constructor(means, covs):
    assert _built(envelope_stack, means, covs) == _built(_one_by_one, means, covs)


_FAULTS = [None, None, None, "nan_mean", "inf_cov", "nan_cov", "negative"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.sampled_from(_FLOOR_FACTORS),
                          st.floats(0, 9),
                          st.sampled_from([0.0, 0.0, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0]),
                          st.sampled_from(_FAULTS)), max_size=6))
def test_envelope_stack_decides_and_stores_as_constructor(rows):
    means, covs = [], []
    for seed, floor_factor, spread, nudge, fault in rows:
        cov = _asymmetric(_covariance(seed, floor_factor, spread), nudge)
        mean = np.random.default_rng(seed).normal(size=3)
        if fault == "nan_mean":
            mean[1] = np.nan
        elif fault == "inf_cov":
            cov[2, 2] = np.inf
        elif fault == "nan_cov":
            cov[0, 2] = cov[2, 0] = np.nan
        elif fault == "negative":
            cov = -cov
        means.append(mean)
        covs.append(cov)
    _stack_matches_constructor(means, covs)
    _stack_matches_constructor([m.tolist() for m in means], [c.tolist() for c in covs])


def test_envelope_stack_edge_cases_match_constructor():
    floor = MIN_EIGENVALUE * (1 - 1e-9)
    ok = [0.1, 0.2, 0.3], np.eye(3).tolist()
    assert envelope_stack([], []) == []
    # A smallest eigenvalue one part in 1e12 either side of the floor; the
    # diagonal makes it exact, the rotation only rounds it.
    for factor in (1 + 1e-12, 1 - 1e-12):
        for q in (np.eye(3), random_rotation(5)):
            cov = q @ np.diag([floor * factor, 1e-3, 2.0]) @ q.T
            _stack_matches_constructor([ok[0], [0, 0, 0]], [ok[1], cov])
    assert len(envelope_stack([[0, 0, 0]], [np.diag([floor * (1 + 1e-12), 1, 1])])) == 1
    with pytest.raises(ValueError, match="below floor"):
        envelope_stack([[0, 0, 0]], [np.diag([floor * (1 - 1e-12), 1, 1])])
    # Asymmetry a few ulps either side of the tolerance.
    for ulps in range(-3, 4):
        cov = np.eye(3) + 0.25
        tol = 1e-9 + 1e-5 * cov[1, 0]
        cov[0, 1] = cov[1, 0] + tol * (1 + ulps * np.finfo(float).eps)
        _stack_matches_constructor([ok[0]] * 2, [ok[1], cov])
    # NaN and inf in a mean and in a covariance; the first bad row decides.
    for bad in (np.nan, np.inf, -np.inf):
        _stack_matches_constructor([ok[0], [0, bad, 0]], [ok[1], ok[1]])
        _stack_matches_constructor([ok[0], ok[0]], [ok[1], np.diag([1, bad, 1])])
        _stack_matches_constructor([[0, 0, bad], ok[0]], [ok[1], np.diag([bad, 1, 1])])
    # Ragged or wrongly shaped rows: the constructor's reshape decides.
    flat = np.eye(3).ravel().tolist()
    for means, covs in (([[0, 0, 0], [0, 0]], [ok[1], ok[1]]),
                        ([[[0, 0, 0]], ok[0]], [ok[1], ok[1]]),
                        ([ok[0]] * 2, [flat, ok[1]]),
                        ([ok[0]] * 2, [flat, flat]),
                        ([[0, 0, 0, 0]], [ok[1]]),
                        ([ok[0]], [[[1, 0], [0, 1]]]),
                        ([ok[0]] * 2, [ok[1]]),
                        ([[0, "x", 0]], [ok[1]])):
        _stack_matches_constructor(means, covs)
    # Integer-valued lists become the same float64 arrays.
    _stack_matches_constructor([[1, 2, 3], [0, 0, 0]], [[[2, 1, 0], [1, 2, 0], [0, 0, 1]]] * 2)
    env, = envelope_stack([[1, 2, 3]], [[[2, 1, 0], [1, 2, 0], [0, 0, 1]]])
    assert env.mean.dtype == env.covariance.dtype == np.float64


# Axis stretch of a rotation at which r^T r stops passing allclose with
# atol 1e-8: (1 + e)^2 - 1 = 1e-8 + 1e-5. The opposite axis shrinks by
# 1 / (1 + e), so the determinant stays 1 and only the orthonormality test
# decides; one part in 1e9 of e is below the roundoff of r^T r.
_EDGE = np.sqrt(1 + 1e-8 + 1e-5) - 1
_STRETCHES = [0.0, 1e-9, _EDGE * (1 - 1e-3), _EDGE * (1 - 1e-9), _EDGE,
              _EDGE * (1 + 1e-9), _EDGE * (1 + 1e-3), 1e-4]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from(_STRETCHES), st.booleans())
def test_rotation_check_decides_as_reference(seed, stretch, reflect):
    r = random_rotation(seed) @ np.diag(
        [1 + stretch, 1 / (1 + stretch), -1.0 if reflect else 1.0])

    def package(rot):
        return PoseSE3(rot, np.zeros(3)).rotation

    assert _outcome(package, r) == _outcome(check_rotation_reference, r)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1.01, 1e3, 1e7]),
       st.sampled_from([0, 3, 6, 9, 11, 12]), st.integers(1, 4), st.integers(1, 4),
       st.booleans())
def test_mahalanobis_pairs_agree_with_the_per_pair_distance(seed, floor_factor, spread,
                                                             n_a, n_b, shared_axes):
    """Every finite batched distance is far inside the gate's recheck band
    around the per-pair one; ill-conditioned sums may come back non-finite.
    With shared axes the thin directions line up, so a sum can be as
    ill-conditioned as its parts."""
    rng = np.random.default_rng(seed)
    envs = [GaussianEnvelope(rng.normal(size=3) * 10.0 ** rng.uniform(-5, 0),
                             _covariance(seed + j, floor_factor, spread,
                                         seed if shared_axes else None))
            for j in range(n_a + n_b)]
    a, b = envs[:n_a], envs[n_a:]
    dist = mahalanobis_pairs(a, b)
    assert dist.shape == (n_a, n_b)
    for (k, i), d in np.ndenumerate(dist):
        if np.isfinite(d):
            exact = mahalanobis_reference(a[k], b[i])
            assert abs(d - exact) <= 1e-7 * exact


# -- one home for SPD algebra -------------------------------------------------

_SPD_CALLS = {"solve", "inv", "cholesky", "eigvalsh", "eigh"}


def _spd_algebra_uses(tree):
    """(line, what) of every scipy.linalg import and np.linalg SPD call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("scipy.linalg"):
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = {alias.name for alias in node.names}
            if node.module.startswith("scipy.linalg") or (
                    node.module == "scipy" and "linalg" in names):
                yield node.lineno, f"from {node.module} import ..."
            elif node.module == "numpy.linalg" and names & _SPD_CALLS:
                yield node.lineno, f"from numpy.linalg import {sorted(names & _SPD_CALLS)}"
        elif (isinstance(node, ast.Attribute) and node.attr in _SPD_CALLS
              and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
            yield node.lineno, f"linalg.{node.attr}"


def test_spd_algebra_lives_only_in_geometry():
    offenders = []
    for path in sorted(Path(workcell.__file__).parent.glob("*.py")):
        if path.name == "geometry.py":
            continue
        for line, what in _spd_algebra_uses(ast.parse(path.read_text())):
            offenders.append(f"{path.name}:{line} {what}")
    assert offenders == []


def test_spd_algebra_lint_sees_every_form():
    code = ("import scipy.linalg\nfrom scipy import linalg\nfrom scipy.linalg import lapack\n"
            "from numpy.linalg import inv\nnp.linalg.solve(a, b)\nnumpy.linalg.eigh(a)\n"
            "np.linalg.norm(v)\nnp.linalg.svd(a)\n")
    assert [line for line, _ in _spd_algebra_uses(ast.parse(code))] == [1, 2, 3, 4, 5, 6]


def _fresh_interpreter_stdout(code: str) -> str:
    src = Path(workcell.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=120,
    ).stdout


def _either_order(engine: str, reexport: str, same: str, module: str) -> list:
    """Both import orders of the engine module that loads one of scipy's
    compiled modules and the scipy module that re-exports it, with the
    expression that compares what the two hand out."""
    return [pytest.param(f"{a}\n{b}", same, module, id=f"{a}\n{b}")
            for a, b in ((engine, reexport), (reexport, engine))]


@pytest.mark.parametrize("imports, same, module", [
    *_either_order("import workcell.geometry as geometry",
                   "import scipy.linalg.lapack as lapack",
                   "[getattr(geometry.lapack, f) is getattr(lapack, f)\n"
                   "     for f in ('dpotrf', 'dpotrs', 'dsyevd')]",
                   "scipy.linalg._flapack"),
    *_either_order("import workcell.association as association",
                   "import scipy.optimize as optimize",
                   "[association.linear_sum_assignment is optimize.linear_sum_assignment]",
                   "scipy.optimize._lsap"),
])
def test_engine_lapack_is_scipy_linalg_lapack_in_either_import_order(imports, same, module):
    # The engine loads scipy's compiled LAPACK module and assignment solver
    # without the package inits around them; whichever side imports first,
    # both hand out the same functions from one module.
    out = _fresh_interpreter_stdout(imports + (
        "\nimport json, sys\nprint(json.dumps([\n"
        "    all(%s),\n"
        "    [m for m in sys.modules if m.endswith(%r)]]))\n"
        % (same, module.rpartition(".")[2])))
    assert json.loads(out) == [True, [module]]


@pytest.mark.parametrize("engine, missing", [
    ("workcell.geometry", "linalg"),
    ("workcell.association", "optimize"),
])
def test_engine_lapack_missing_raises_import_error(tmp_path, engine, missing):
    # No fallback to scipy's packages: when an extension is not where the
    # engine looks for it, the engine's import fails, names the place and
    # loads nothing from that package. The scipy path holds every package
    # the engine loads from but the missing one.
    for package in sorted({"linalg", "optimize"} - {missing}):
        os.symlink(Path(scipy.__path__[0]) / package, tmp_path / package)
    out = _fresh_interpreter_stdout(
        "import json, sys, scipy\nscipy.__path__ = [%r]\n"
        "try:\n    import %s\nexcept ImportError as e:\n"
        "    loaded = [m for m in sys.modules if m.startswith('scipy.%s')]\n"
        "    print(json.dumps([str(e), loaded]))\n"
        % (str(tmp_path), engine, missing))
    message, loaded = json.loads(out)
    assert str(tmp_path / missing) in message
    assert loaded == []


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


def test_envelope_box_is_two_sigma_to_the_bit():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.normal(size=(3, 3))
        env = GaussianEnvelope(rng.normal(size=3), a @ a.T + 1e-3 * np.eye(3))
        lo, hi = env.box
        # mean ± 2 sigma per axis, written out.
        sigma = np.sqrt(np.diag(env.covariance))
        assert lo.tobytes() == (env.mean - 2 * sigma).tobytes()
        assert hi.tobytes() == (env.mean + 2 * sigma).tobytes()
        assert env.box is env.box
        assert not lo.flags.writeable and not hi.flags.writeable


# -- chi-square ---------------------------------------------------------------


def test_chi_square_threshold_known_quantiles():
    from scipy.stats import chi2

    # The literal stands in for the 95% quantile of chi-square with 3 dof.
    assert CHI2_THRESH_3DOF == pytest.approx(chi2.ppf(0.95, 3), abs=1e-3)
