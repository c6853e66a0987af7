"""Independently derived reference implementations used to pin behavior.

These are deliberately naive (exhaustive enumeration, closed forms) so a
disagreement with the package points at the package.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np

# The assignment convention under test: the solver sees gated pairs as a
# large finite sentinel, always produces a full min(n, m) assignment, and
# sentinel pairs are dropped from the reported matching afterwards. The
# effective objective is therefore: maximize the number of feasible pairs,
# then minimize their summed cost.
_SENTINEL = 1e9


def brute_force_assignment_cost(cost: np.ndarray) -> float:
    """Minimum summed cost of the kept (finite) pairs under the convention
    above, by exhaustive enumeration. Feasible only up to ~6x6."""
    cost = np.asarray(cost, dtype=float)
    n_obs, n_mem = cost.shape
    if n_obs == 0 or n_mem == 0:
        return 0.0
    k = min(n_obs, n_mem)
    best_total = np.inf
    for r_sub in itertools.combinations(range(n_obs), k):
        for c_perm in itertools.permutations(range(n_mem), k):
            total = 0.0
            for r, c in zip(r_sub, c_perm):
                total += cost[r, c] if np.isfinite(cost[r, c]) else _SENTINEL
            best_total = min(best_total, total)
    # Strip the sentinel contribution of the gated pairs in the optimum.
    n_gated = int(round(best_total / _SENTINEL))
    return best_total - n_gated * _SENTINEL


def padded_permutation_cost(cost: np.ndarray) -> float:
    """Same quantity as brute_force_assignment_cost, computed by padding to
    a square matrix (dummy rows/cols cost 0) and vectorizing over all
    permutations. Fast enough for thousands of matrices up to 6x6."""
    cost = np.asarray(cost, dtype=float)
    n_obs, n_mem = cost.shape
    if n_obs == 0 or n_mem == 0:
        return 0.0
    n = max(n_obs, n_mem)
    finite = np.zeros((n, n))
    finite[:n_obs, :n_mem] = np.where(np.isfinite(cost), cost, 0.0)
    gated = np.zeros((n, n), dtype=bool)
    gated[:n_obs, :n_mem] = ~np.isfinite(cost)
    perms = np.array(list(itertools.permutations(range(n))))
    rows = np.arange(n)
    real_sums = finite[rows, perms].sum(axis=1)
    gate_counts = gated[rows, perms].sum(axis=1)
    # Lexicographic objective: fewest gated pairs first, then summed cost —
    # computed exactly, with no sentinel round-off.
    feasible = gate_counts == gate_counts.min()
    return float(real_sums[feasible].min())


def information_fusion(prior_mean, prior_cov, obs_mean, obs_cov, gamma):
    """Closed-form information-filter fusion written independently."""
    prior_info = np.linalg.inv(prior_cov)
    obs_info = np.linalg.inv(obs_cov)
    cov = np.linalg.inv(prior_info + gamma * obs_info)
    mean = cov @ (prior_info @ np.asarray(prior_mean, float)
                  + gamma * obs_info @ np.asarray(obs_mean, float))
    return mean, cov


def to_jsonable(value):
    """Plain-JSON copy of a value: the recursive encoder the package used
    before it let ``json.dumps`` convert numpy values through a hook.
    ``json.dumps(to_jsonable(x), sort_keys=True)`` is the reference output."""
    if isinstance(value, np.ndarray):
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): to_jsonable(v)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    return value


def zone_members(store, zone_id: str) -> list[str]:
    """The zone index rebuilt from the vertices: every vertex in the zone
    that is neither the robot nor archived, sorted by uid."""
    return sorted(
        uid for uid, v in store.vertices.items()
        if v.zone_id == zone_id and uid != "robot" and v.lifecycle.value != "Archived"
    )


def store_digest(store) -> str:
    """The store hash computed from scratch: SHA-256 of the whole document,
    encoded by the reference path above rather than the package's."""
    text = json.dumps(to_jsonable(store.to_dict()), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _ray_box_depth_reference(origins_dir, box, cam_origin):
    """Slab-test depth (distance along each unit-z camera ray) for one box.

    origins_dir: (N, 3) base-frame ray directions scaled so the camera-frame
    z component is 1; entries with no hit come back as +inf.
    """
    rel = cam_origin - box.center
    o_local = box.rotation.T @ rel
    d_local = origins_dir @ box.rotation  # row-wise R^T @ d

    t_near = np.full(len(origins_dir), -np.inf)
    t_far = np.full(len(origins_dir), np.inf)
    hit = np.ones(len(origins_dir), dtype=bool)
    for axis in range(3):
        d = d_local[:, axis]
        o = o_local[axis]
        h = box.half_extents[axis]
        parallel = np.abs(d) < 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (-h - o) / d
            t2 = (h - o) / d
        lo = np.minimum(t1, t2)
        hi = np.maximum(t1, t2)
        t_near = np.where(parallel, t_near, np.maximum(t_near, lo))
        t_far = np.where(parallel, t_far, np.minimum(t_far, hi))
        hit &= ~(parallel & (np.abs(o) > h))
    hit &= (t_far >= t_near) & (t_far > 0)
    t_enter = np.where(t_near > 0, t_near, t_far)
    return np.where(hit, t_enter, np.inf)


def render_frame_reference(world, camera):
    """The renderer before frame reuse and screen clipping: every box, built
    as an ``OrientedBox`` per call, slab-tested against every pixel ray.
    Returns ``(depth, mask, labels)`` as ``simulator.render_frame`` fills
    its ``Frame``."""
    from workcell.geometry import OrientedBox

    k = camera.intrinsics
    h, w = camera.height, camera.width
    uu, vv = np.meshgrid(np.arange(w), np.arange(h))
    rays_c = np.stack(
        [(uu.ravel() - k.cx) / k.fx, (vv.ravel() - k.cy) / k.fy,
         np.ones(w * h)], axis=1,
    )
    rays_b = rays_c @ camera.pose.rotation.T
    origin = camera.pose.translation

    best_depth = np.full(w * h, np.inf)
    best_id = np.full(w * h, -1, dtype=np.int32)
    for oid in sorted(world.objects):
        obj = world.objects[oid]
        box = OrientedBox(obj.pose.translation, obj.half_extents, obj.pose.rotation)
        t = _ray_box_depth_reference(rays_b, box, origin)
        closer = t < best_depth
        best_depth = np.where(closer, t, best_depth)
        best_id = np.where(closer, world.instance_ids[oid], best_id)

    depth = np.where(np.isfinite(best_depth), best_depth, 0.0).reshape(h, w)
    mask = best_id.reshape(h, w)
    visible = set(np.unique(mask)) - {-1}
    labels = {
        world.instance_ids[oid]: (world.objects[oid].label, 1.0)
        for oid in sorted(world.objects)
        if world.instance_ids[oid] in visible
    }
    return depth.astype(np.float32), mask, labels
