"""Observation-to-memory matching and belief updates.

Gating by Mahalanobis distance, hybrid geometric-semantic cost, exact
one-to-one assignment, and reliability-modulated information-filter
fusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import (
    GaussianEnvelope,
    mahalanobis_between,
    mahalanobis_pairs,
    spd_inverse,
)

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


def _solve_assignment(cost: list[list[float]]) -> tuple[list[int], list[int]]:
    """Rows and columns of a minimum-cost assignment of a finite, non-empty
    matrix given as a list of rows.

    Crouse's shortest augmenting path ("On implementing 2D rectangular
    assignment algorithms", IEEE TAES 2016) as ``scipy.optimize.
    linear_sum_assignment`` runs it, step for step and in the same
    floating-point order, so ties break the same way and the result is
    scipy's: a tall matrix is solved transposed and reported in row
    order; each search scans the unvisited columns from a list filled in
    reverse and shrunk by moving its last entry into the gap; among
    equally cheap columns the scan takes the first, unless a later one is
    free.
    """
    n_rows, n_cols = len(cost), len(cost[0])
    transpose = n_cols < n_rows
    if transpose:
        cost = [list(col) for col in zip(*cost)]
        n_rows, n_cols = n_cols, n_rows
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    path = [-1] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    for cur_row in range(n_rows):
        # Shortest path from cur_row to a free column over reduced costs.
        shortest = [math.inf] * n_cols
        remaining = list(range(n_cols - 1, -1, -1))
        seen_rows: list[int] = []
        seen_cols: list[int] = []
        min_val = 0.0
        i = cur_row
        while True:
            seen_rows.append(i)
            row, u_i = cost[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                else:
                    r = shortest[j]
                if r < lowest or (r == lowest and row4col[j] == -1):
                    lowest = r
                    index = it
            min_val = lowest
            j = remaining[index]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                break
            i = row4col[j]
        # Dual updates, then flip the path's assignments.
        u[cur_row] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for k in seen_cols:
            v[k] -= min_val - shortest[k]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    if transpose:
        pairs = sorted(zip(col4row, range(n_rows)))
        return [r for r, _ in pairs], [c for _, c in pairs]
    return list(range(n_rows)), col4row


def assign(cost: np.ndarray, tau_match: float) -> MatchResult:
    """Exact minimum-cost one-to-one assignment over finite entries.

    Pairs exceeding tau_match are demoted to unmatched after solving.
    """
    cost = np.asarray(cost, dtype=float)
    n_obs, n_mem = cost.shape
    if n_obs == 0 or n_mem == 0:
        return MatchResult(
            matched=[],
            unmatched_observations=list(range(n_obs)),
            unmatched_memory=list(range(n_mem)),
        )
    values = cost.tolist()
    rows, cols = _solve_assignment(
        np.where(np.isfinite(cost), cost, _BIG_COST).tolist())
    matched = []
    for r, c in zip(rows, cols):
        x = values[r][c]
        if not math.isfinite(x) or x > tau_match:
            continue
        matched.append((r, c, x))
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
    prior_info = spd_inverse(prior.covariance)
    obs_info = obs.info  # an observation's envelope is often fused again
    info = prior_info + gamma * obs_info
    cov = spd_inverse(info)
    cov = 0.5 * (cov + cov.T)
    mean = cov @ (prior_info @ prior.mean + gamma * (obs_info @ obs.mean))
    return GaussianEnvelope(mean, cov)
