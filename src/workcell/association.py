"""Observation-to-memory matching and belief updates.

Gating by Mahalanobis distance, hybrid geometric-semantic cost, exact
one-to-one assignment by scipy's compiled solver, and reliability-modulated
information-filter fusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import (
    GaussianEnvelope,
    load_scipy_extension,
    mahalanobis_between,
    mahalanobis_pairs,
    spd_inverse,
)

# scipy's compiled assignment solver, which scipy.optimize re-exports:
# Crouse's shortest augmenting path (IEEE TAES 2016).
linear_sum_assignment = load_scipy_extension("optimize", "_lsap").linear_sum_assignment

# Sentinel for gated (infeasible) pairs.
GATED = np.inf
# Relative distance from tau_geo inside which a batched gating distance is
# not trusted to fall on the same side as the exact per-pair one.
_RECHECK_BAND = 1e-6
# Finite stand-in used when feeding the assignment solver.
_BIG_COST = 1e9


@dataclass
class AssociationConfig:
    lambda_iou: float = 0.7
    lambda_sem: float = 0.3
    tau_geo: float = 3.5
    tau_match: float = 0.55

    def __post_init__(self):
        if abs(self.lambda_iou + self.lambda_sem - 1.0) > 1e-12:
            raise ValueError("lambda_iou + lambda_sem must equal 1")
        if self.tau_geo <= 0 or self.tau_match <= 0:
            raise ValueError("thresholds must be positive")


@dataclass
class MatchResult:
    matched: list[tuple[int, int, float]] = field(default_factory=list)
    unmatched_observations: list[int] = field(default_factory=list)
    unmatched_memory: list[int] = field(default_factory=list)

    def __post_init__(self):
        obs = [m[0] for m in self.matched]
        mem = [m[1] for m in self.matched]
        if len(set(obs)) != len(obs) or len(set(mem)) != len(mem):
            raise ValueError("matched pairs must be one-to-one")


class ReliabilityJudgment(Enum):
    HIGH = "High"
    MEDIUM = "Medium"
    LOW = "Low"
    BAD = "Bad"


_GAMMA_TABLE = {
    ReliabilityJudgment.HIGH: 1.0,
    ReliabilityJudgment.MEDIUM: 0.5,
    ReliabilityJudgment.LOW: 0.1,
    ReliabilityJudgment.BAD: 0.01,
}


def gamma_of(alpha: ReliabilityJudgment) -> float:
    """Fusion weight for a discrete reliability judgment."""
    return _GAMMA_TABLE[alpha]


def hybrid_cost(iou: float, sim: float, cfg: AssociationConfig) -> float:
    """Weighted complement of geometric overlap and semantic similarity."""
    if not (0.0 <= iou <= 1.0 and 0.0 <= sim <= 1.0):
        raise ValueError("iou and sim must lie in [0, 1]")
    return cfg.lambda_iou * (1.0 - iou) + cfg.lambda_sem * (1.0 - sim)


def build_cost_matrix(
    observations: list,
    memory: list,
    cfg: AssociationConfig,
    iou_fn,
    sim_fn,
) -> np.ndarray:
    """(n_obs, n_mem) hybrid costs with GATED entries for infeasible pairs.

    iou_fn / sim_fn take (observation index, memory index) and return a
    scalar in [0, 1]; they are only consulted for pairs inside the gate,
    in row-major order.

    All gating distances come from one batched pass. A pair whose batched
    distance is not finite or lies within the recheck band around tau_geo
    is decided by mahalanobis_between instead, so every gate decision is
    the per-pair one.
    """
    cost = np.full((len(observations), len(memory)), GATED)
    if cost.size == 0:
        return cost
    dist = mahalanobis_pairs([o.envelope for o in observations],
                             [m.envelope for m in memory])
    recheck = ~np.isfinite(dist) | (
        np.abs(dist - cfg.tau_geo) <= _RECHECK_BAND * cfg.tau_geo)
    for k, i in np.argwhere(recheck | (dist < cfg.tau_geo)).tolist():
        if recheck[k, i] and mahalanobis_between(
                observations[k].envelope, memory[i].envelope) >= cfg.tau_geo:
            continue
        cost[k, i] = hybrid_cost(iou_fn(k, i), sim_fn(k, i), cfg)
    return cost


def assign(cost: np.ndarray, tau_match: float) -> MatchResult:
    """Exact minimum-cost one-to-one assignment over finite entries.

    Pairs exceeding tau_match are demoted to unmatched after solving.
    """
    cost = np.asarray(cost, dtype=float)
    n_obs, n_mem = cost.shape
    rows, cols = linear_sum_assignment(np.where(np.isfinite(cost), cost, _BIG_COST))
    matched = [(r, c, v) for r, c, v in zip(rows.tolist(), cols.tolist(),
                                            cost[rows, cols].tolist())
               if math.isfinite(v) and not v > tau_match]
    used_obs = {m[0] for m in matched}
    used_mem = {m[1] for m in matched}
    return MatchResult(
        matched=matched,
        unmatched_observations=[k for k in range(n_obs) if k not in used_obs],
        unmatched_memory=[i for i in range(n_mem) if i not in used_mem],
    )


def fuse(
    prior: GaussianEnvelope, obs: GaussianEnvelope, gamma: float
) -> GaussianEnvelope:
    """Information-filter fusion with the observation scaled by gamma."""
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    if gamma == 0.0:
        return prior
    # Each measurement is fused once, so neither side's inverse is kept.
    prior_info = spd_inverse(prior.covariance)
    obs_info = spd_inverse(obs.covariance)
    info = prior_info + gamma * obs_info
    cov = spd_inverse(info)
    cov = 0.5 * (cov + cov.T)
    mean = cov @ (prior_info @ prior.mean + gamma * (obs_info @ obs.mean))
    return GaussianEnvelope(mean, cov)
