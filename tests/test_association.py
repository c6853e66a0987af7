"""Association: gating, hybrid cost, assignment, and reliability-weighted
fusion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from workcell.association import (
    AssociationConfig,
    GATED,
    MatchResult,
    ReliabilityJudgment,
    assign,
    build_cost_matrix,
    fuse,
    gamma_of,
    hybrid_cost,
)
from workcell.errors import NumericError
from workcell.geometry import GaussianEnvelope

from oracles import (
    assign_reference,
    brute_force_assignment_cost,
    build_cost_matrix_reference,
    fuse_reference,
    mahalanobis_reference,
)


class _Obs:
    def __init__(self, mean, cov_scale=0.01):
        self.envelope = GaussianEnvelope(mean, cov_scale * np.eye(3))


def _solver_total(cost, tau=np.inf):
    res = assign(cost, tau)
    return sum(c for _r, _m, c in res.matched)


# -- config and costs ---------------------------------------------------------


def test_config_weights_must_sum_to_one():
    AssociationConfig()
    with pytest.raises(ValueError):
        AssociationConfig(lambda_iou=0.6, lambda_sem=0.3)
    with pytest.raises(ValueError):
        AssociationConfig(tau_geo=-1)


def test_hybrid_cost_formula():
    cfg = AssociationConfig()
    assert hybrid_cost(1.0, 1.0, cfg) == 0.0
    assert hybrid_cost(0.0, 0.0, cfg) == pytest.approx(1.0)
    assert hybrid_cost(0.5, 1.0, cfg) == pytest.approx(0.35)
    with pytest.raises(ValueError):
        hybrid_cost(1.5, 0.5, cfg)
    with pytest.raises(ValueError):
        hybrid_cost(0.5, 1.7, cfg)


def test_build_cost_matrix_gates_distant_pairs():
    cfg = AssociationConfig()
    obs = [_Obs([0, 0, 0]), _Obs([5, 0, 0])]
    mem = [_Obs([0.01, 0, 0])]
    cost = build_cost_matrix(obs, mem, cfg, lambda k, i: 1.0, lambda k, i: 1.0)
    assert np.isfinite(cost[0, 0])
    assert cost[1, 0] == GATED


def test_gated_pairs_never_consult_scorers():
    cfg = AssociationConfig()
    obs = [_Obs([5, 0, 0])]
    mem = [_Obs([0, 0, 0])]

    def boom(k, i):
        raise AssertionError("scorer consulted for a gated pair")

    cost = build_cost_matrix(obs, mem, cfg, boom, boom)
    assert cost[0, 0] == GATED


# -- assignment ---------------------------------------------------------------


def test_assign_simple_oracle():
    cost = np.array([[0.1, 0.9], [0.8, 0.2]])
    res = assign(cost, tau_match=1.0)
    assert sorted(res.matched) == [(0, 0, pytest.approx(0.1)),
                                   (1, 1, pytest.approx(0.2))]


def test_assign_respects_tau_match():
    cost = np.array([[0.1, np.inf], [np.inf, 0.7]])
    res = assign(cost, tau_match=0.55)
    assert res.matched == [(0, 0, pytest.approx(0.1))]
    assert res.unmatched_observations == [1]
    assert res.unmatched_memory == [1]


def test_assign_prefers_real_pairs_over_gated():
    # The solver must never route an observation through a gated cell even
    # if that frees a cheaper cell for another row.
    cost = np.array([[0.3, np.inf], [0.2, 0.25]])
    res = assign(cost, tau_match=1.0)
    pairs = {(r, c) for r, c, _v in res.matched}
    assert pairs == {(0, 0), (1, 1)}


def test_assign_empty_dimensions():
    res = assign(np.zeros((0, 3)), 0.5)
    assert res.matched == [] and res.unmatched_memory == [0, 1, 2]
    res = assign(np.zeros((2, 0)), 0.5)
    assert res.unmatched_observations == [0, 1]


def test_assign_matches_brute_force_small():
    rng = np.random.default_rng(99)
    for _ in range(100):
        shape = rng.integers(1, 5, size=2)
        cost = rng.uniform(0, 1, size=shape)
        cost[rng.uniform(size=shape) < 0.3] = np.inf
        assert _solver_total(cost) == pytest.approx(
            brute_force_assignment_cost(cost)
        )


# Values that tie often: hybrid costs on a 0.35 grid, and the costs of a
# perfect-IoU pair at similarity 1, 0.5 and 0.2.
_TIED_COSTS = [0.0, 0.35, 0.7, 1.05] + [0.7 + 0.3 * (1 - s) for s in (1.0, 0.5, 0.2)]


@st.composite
def _cost_lists(draw, values):
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 24))
    if draw(st.booleans()):
        n_rows, n_cols = n_cols, n_rows
    row = st.lists(values, min_size=n_cols, max_size=n_cols)
    return draw(st.lists(row, min_size=n_rows, max_size=n_rows))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cost=_cost_lists(st.one_of(
    st.sampled_from(_TIED_COSTS + [np.inf, -np.inf, np.nan]),
    st.floats(0.0, 1.0, allow_nan=False),
)), tau_match=st.sampled_from([0.55, 1.0, np.inf]))
def test_assign_equals_scipy_reference(cost, tau_match):
    assert assign(np.array(cost), tau_match) == assign_reference(cost, tau_match)


def test_match_result_rejects_duplicates():
    with pytest.raises(ValueError):
        MatchResult(matched=[(0, 0, 0.1), (1, 0, 0.2)])


# -- fusion -------------------------------------------------------------------


def test_gamma_table_exact():
    assert gamma_of(ReliabilityJudgment.HIGH) == 1.0
    assert gamma_of(ReliabilityJudgment.MEDIUM) == 0.5
    assert gamma_of(ReliabilityJudgment.LOW) == 0.1
    assert gamma_of(ReliabilityJudgment.BAD) == 0.01


def test_fuse_zero_gamma_is_identity():
    prior = GaussianEnvelope([1, 2, 3], np.eye(3))
    obs = GaussianEnvelope([9, 9, 9], 0.1 * np.eye(3))
    assert fuse(prior, obs, 0.0) is prior
    with pytest.raises(ValueError):
        fuse(prior, obs, -0.5)


def test_fuse_scalar_oracle():
    # Diagonal case reduces to per-axis precision-weighted averaging.
    prior = GaussianEnvelope([0, 0, 0], 4.0 * np.eye(3))
    obs = GaussianEnvelope([1, 1, 1], 1.0 * np.eye(3))
    out = fuse(prior, obs, 1.0)
    # info: 1/4 + 1 = 1.25 -> cov 0.8; mean 0.8 * (0 + 1) = 0.8.
    assert np.allclose(np.diag(out.covariance), 0.8)
    assert np.allclose(out.mean, 0.8)


def test_fuse_tightens_uncertainty():
    prior = GaussianEnvelope([0, 0, 0], np.eye(3))
    obs = GaussianEnvelope([0.1, 0, 0], np.eye(3))
    out = fuse(prior, obs, 1.0)
    assert np.all(np.linalg.eigvalsh(out.covariance)
                  < np.linalg.eigvalsh(prior.covariance) + 1e-12)


def _spd(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3))
    return a @ a.T + 0.5 * np.eye(3)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_fuse_commutative_and_associative(sa, sb, sc):
    rng = np.random.default_rng(sa ^ (sb << 1) ^ (sc << 2))
    a = GaussianEnvelope(rng.uniform(-1, 1, 3), _spd(sa))
    b = GaussianEnvelope(rng.uniform(-1, 1, 3), _spd(sb + 1))
    c = GaussianEnvelope(rng.uniform(-1, 1, 3), _spd(sc + 2))
    ab = fuse(a, b, 1.0)
    ba = fuse(b, a, 1.0)
    assert np.allclose(ab.mean, ba.mean, atol=1e-10)
    assert np.allclose(ab.covariance, ba.covariance, atol=1e-10)
    abc = fuse(fuse(a, b, 1.0), c, 1.0)
    acb = fuse(fuse(a, c, 1.0), b, 1.0)
    assert np.allclose(abc.mean, acb.mean, atol=1e-9)
    assert np.allclose(abc.covariance, acb.covariance, atol=1e-10)


def _envelope(rng, scale):
    a = rng.normal(size=(3, 3)) * scale * 10.0 ** rng.uniform(-2, 0, 3)
    return GaussianEnvelope(rng.normal(size=3) * 0.1, a @ a.T + 1e-6 * np.eye(3))


def _bytes_or_error(fn, *args):
    try:
        mean, cov = fn(*args)
    except ValueError as exc:
        return str(exc)
    return mean.tobytes(), cov.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1e-4, 1e-2, 1.0]),
       st.sampled_from([1.0, 0.5, 0.1, 0.01, 100.0]))
def test_fuse_bytes_equal_reference(seed, scale, gamma):
    rng = np.random.default_rng(seed)
    prior, obs = _envelope(rng, scale), _envelope(rng, 0.01)

    def package(p, o, g):
        out = fuse(p, o, g)
        return out.mean, out.covariance

    assert _bytes_or_error(package, prior, obs, gamma) == \
        _bytes_or_error(fuse_reference, prior, obs, gamma)


# -- the batched gate against the per-pair loop -------------------------------


class _Item:
    def __init__(self, envelope):
        self.envelope = envelope


def _gate(build, observations, memory, cfg):
    """The cost matrix's bytes, or the error raised, plus every scorer call
    in the order it was made."""
    calls = []

    def scorer(tag):
        def score(k, i):
            calls.append((tag, k, i))
            return ((7 * k + 3 * i + len(tag)) % 11) / 10.0
        return score

    try:
        cost = build(observations, memory, cfg, scorer("iou"), scorer("sim"))
    except NumericError as exc:
        return type(exc).__name__, calls
    return (cost.shape, cost.tobytes()), calls


def _at_distance(rng, obs, target):
    """A memory envelope whose per-pair distance to obs is target, up to the
    roundoff of placing its mean."""
    mem = _envelope(rng, 0.02)
    u = rng.normal(size=3)
    unit = mahalanobis_reference(GaussianEnvelope(u, obs.covariance),
                                 GaussianEnvelope(np.zeros(3), mem.covariance))
    return GaussianEnvelope(obs.mean - target / unit * u, mem.covariance)


# Relative offsets from tau_geo at which boundary pairs are placed: inside the
# recheck band (1e-6), at its edge, and clear of it.
_OFFSETS = [0.0, 1e-9, -1e-9, 1e-7, -1e-7, 1e-6, -1e-6, 3e-6, -3e-6, 0.5, -0.5]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.integers(0, 5),
       st.lists(st.sampled_from(_OFFSETS), max_size=4))
def test_gate_matches_per_pair_loop(seed, n_obs, n_mem, offsets):
    rng = np.random.default_rng(seed)
    cfg = AssociationConfig()
    observations = [_Item(_envelope(rng, 0.02)) for _ in range(n_obs)]
    memory = [_Item(_envelope(rng, 0.02)) for _ in range(n_mem)]
    for off in offsets if observations else []:
        obs = observations[rng.integers(len(observations))].envelope
        memory.insert(rng.integers(len(memory) + 1),
                      _Item(_at_distance(rng, obs, cfg.tau_geo * (1 + off))))
    assert _gate(build_cost_matrix, observations, memory, cfg) == \
        _gate(build_cost_matrix_reference, observations, memory, cfg)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([-1, 0, 1]))
def test_gate_at_the_exact_distance_matches_per_pair_loop(seed, ulps):
    """tau_geo set to the per-pair distance itself, or one ulp either side:
    a batched distance that differs from it in the last bits falls on the
    other side of the gate unless the pair is rechecked."""
    rng = np.random.default_rng(seed)
    observations = [_Item(_envelope(rng, 0.02)) for _ in range(3)]
    memory = [_Item(_envelope(rng, 0.02)) for _ in range(3)]
    tau = mahalanobis_reference(observations[1].envelope, memory[2].envelope)
    for _ in range(abs(ulps)):
        tau = np.nextafter(tau, ulps * np.inf)
    cfg = AssociationConfig(tau_geo=float(tau))
    assert _gate(build_cost_matrix, observations, memory, cfg) == \
        _gate(build_cost_matrix_reference, observations, memory, cfg)


class _Fake:
    """An envelope-like value the constructor would refuse."""

    def __init__(self, mean, covariance):
        self.mean, self.covariance = np.asarray(mean, float), np.asarray(covariance, float)


def test_gate_raises_as_per_pair_loop_on_an_indefinite_sum():
    cfg = AssociationConfig()
    observations = [_Item(GaussianEnvelope([0, 0, 0], 0.01 * np.eye(3))),
                    _Item(_Fake([0, 0, 0], -np.eye(3)))]
    memory = [_Item(GaussianEnvelope([0.01, 0, 0], 0.01 * np.eye(3)))] * 2
    outcome = _gate(build_cost_matrix, observations, memory, cfg)
    assert outcome[0] == "NumericError"
    assert outcome == _gate(build_cost_matrix_reference, observations, memory, cfg)


def test_gate_with_no_observations_or_no_memory_consults_nothing():
    cfg = AssociationConfig()
    items = [_Item(GaussianEnvelope([0, 0, 0], 0.01 * np.eye(3)))] * 2
    for observations, memory in (([], items), (items, []), ([], [])):
        outcome = _gate(build_cost_matrix, observations, memory, cfg)
        assert outcome[1] == []
        assert outcome == _gate(build_cost_matrix_reference, observations, memory, cfg)
