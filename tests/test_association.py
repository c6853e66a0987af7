"""Association: gating, hybrid cost, assignment, confirmation window,
reliability-weighted fusion, and drift inflation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from workcell.association import (
    AssociationConfig,
    DRIFT_PER_CYCLE,
    GATED,
    MatchResult,
    ReliabilityJudgment,
    TentativeTrack,
    TrackFate,
    assign,
    build_cost_matrix,
    confirm_or_promote,
    fuse,
    gamma_of,
    hybrid_cost,
    inflate_drift,
)
from workcell.geometry import GaussianEnvelope

from oracles import brute_force_assignment_cost


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


def test_match_result_rejects_duplicates():
    with pytest.raises(ValueError):
        MatchResult(matched=[(0, 0, 0.1), (1, 0, 0.2)])


# -- confirmation window ------------------------------------------------------


def test_confirmation_window_two_sightings():
    cfg = AssociationConfig()
    track = TentativeTrack(observation=None)
    assert confirm_or_promote(track, True, cfg) == TrackFate.TENTATIVE
    assert confirm_or_promote(track, True, cfg) == TrackFate.PROMOTED


def test_confirmation_window_discards_on_miss():
    cfg = AssociationConfig()
    track = TentativeTrack(observation=None, count=1)
    assert confirm_or_promote(track, False, cfg) == TrackFate.DISCARDED


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


# -- drift --------------------------------------------------------------------


def test_inflate_drift_adds_isotropic_noise():
    env = GaussianEnvelope([0, 0, 0], 0.01 * np.eye(3))
    out = inflate_drift(env, cycles=3)
    assert np.allclose(out.covariance,
                       0.01 * np.eye(3) + 3 * DRIFT_PER_CYCLE * np.eye(3))
    assert inflate_drift(env, 0) is env
    with pytest.raises(ValueError):
        inflate_drift(env, -1)
