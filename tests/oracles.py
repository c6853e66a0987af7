"""Independently derived reference implementations used to pin behavior.

These are deliberately naive (exhaustive enumeration, closed forms) so a
disagreement with the package points at the package.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np
from scipy import linalg
from scipy.optimize import linear_sum_assignment

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


def scipy_assignment(cost) -> tuple[list[int], list[int]]:
    """Rows and columns of scipy's minimum-cost assignment, the solver the
    package's own port must reproduce tie for tie."""
    rows, cols = linear_sum_assignment(np.asarray(cost, dtype=float))
    return rows.tolist(), cols.tolist()


def assign_reference(cost, tau_match):
    """``association.assign`` as it was written on scipy's solver: gated
    pairs enter as the sentinel, and non-finite or over-threshold pairs
    are dropped after solving."""
    from workcell.association import MatchResult

    cost = np.asarray(cost, dtype=float)
    n_obs, n_mem = cost.shape
    if n_obs == 0 or n_mem == 0:
        return MatchResult([], list(range(n_obs)), list(range(n_mem)))
    rows, cols = linear_sum_assignment(np.where(np.isfinite(cost), cost, _SENTINEL))
    matched = [(int(r), int(c), float(cost[r, c])) for r, c in zip(rows, cols)
               if np.isfinite(cost[r, c]) and not cost[r, c] > tau_match]
    used_obs = {m[0] for m in matched}
    used_mem = {m[1] for m in matched}
    return MatchResult(
        matched,
        [k for k in range(n_obs) if k not in used_obs],
        [i for i in range(n_mem) if i not in used_mem],
    )


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


def find_edges_scan(store, predicate=None, subject=None, obj=None) -> list:
    """The edges matching every given field, by a scan of the edge list."""
    return [
        e for e in store.edges
        if predicate in (None, e.predicate) and subject in (None, e.subject)
        and obj in (None, e.obj)
    ]


def neighbors_scan(store, uids) -> set:
    """The other end of every edge with one end in ``uids``, by a scan."""
    uids = set(uids)
    return ({e.obj for e in store.edges if e.subject in uids}
            | {e.subject for e in store.edges if e.obj in uids})


def extract_subgraph_weighted(store, subtask: dict, synonyms: dict) -> tuple[list, list]:
    """The context subgraph as a relevance score: a candidate (an entity of
    a scoped zone, or a live argument) scores 1.0 as an argument, 0.5 as a
    1-hop neighbour of one and 0.2 when a keyword names its label, exactly
    or through ``synonyms``; it is kept above 0.3. The robot is always in.
    Returns the sorted vertex uids and the induced edges in edge order."""
    args = [a for a in subtask.get("args", []) if isinstance(a, str)]
    keywords = list(subtask.get("keywords", []))
    zones = {store.robot_zone} | set(subtask.get("zones", []))
    zones |= {a for a in args if a in store.zones}
    zones.discard("")

    def keyword_match(label: str) -> float:
        expansions = {label, *synonyms.get(label, [])}
        return float(any(kw in expansions or label in synonyms.get(kw, []) for kw in keywords))

    candidates = set()
    for z in zones:
        if z in store.zones:
            candidates.update(zone_members(store, z))
    candidates.update(a for a in args
                      if a in store.vertices and store.vertices[a].lifecycle.value != "Archived")
    hop = neighbors_scan(store, args)
    kept = {uid for uid in candidates if uid != "robot"
            and 1.0 * (uid in args) + 0.5 * (uid in hop)
            + 0.2 * keyword_match(store.vertices[uid].label) > 0.3}
    members = kept | {"robot"}
    return sorted(members), [e for e in store.edges if e.subject in members and e.obj in members]


def is_clear_scan(store, uid: str) -> bool:
    """No On edge that is not refuted has ``uid`` as its object, by a scan."""
    return not any(e.predicate == "On" and e.obj == uid and e.status.value != "Refuted"
                   for e in store.edges)


def held_uids_scan(store) -> list:
    """Vertices whose record is attached to the gripper, in the order of a
    scan of the vertex table."""
    return [
        uid for uid in store.vertices
        if uid in store.records and store.records[uid].attached_to == "gripper"
    ]


def store_digest(store) -> str:
    """The store hash computed from scratch: SHA-256 of the whole document,
    encoded by the reference path above rather than the package's."""
    text = json.dumps(to_jsonable(store.to_dict()), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def encoded_member(key: str, value) -> str:
    """``"key":value`` as it appears inside a canonical JSON object, encoded
    by the reference path above: the oracle for the store's entry texts."""
    return json.dumps(key) + ":" + json.dumps(to_jsonable(value), sort_keys=True,
                                              separators=(",", ":"))


def back_project(u: float, v: float, d: float, k) -> np.ndarray:
    """Pixel and depth to a camera-frame point: the per-pixel oracle for
    ``perception.lift_frame``."""
    return np.array([(u - k.cx) / k.fx * d, (v - k.cy) / k.fy * d, d])


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
        world.instance_ids[oid]: world.objects[oid].label
        for oid in sorted(world.objects)
        if world.instance_ids[oid] in visible
    }
    return depth.astype(np.float32), mask, labels


def lift_frame_reference(frame, k):
    """``perception.lift_frame`` as it was written on ``np.stack``,
    ``np.cross``, ``np.linalg.norm`` and ``PoseSE3.apply``; the package
    must reproduce it to the bit."""
    from workcell.perception import DEFAULT_RAY_EPSILON, LiftedPoints

    vv, uu = np.nonzero((frame.mask >= 0) & (frame.depth > 0))
    if len(uu) == 0:
        return LiftedPoints(np.zeros((0, 3)), np.zeros(0, dtype=np.int32))
    d = frame.depth[vv, uu].astype(float)
    rays_c = np.stack(
        [(uu - k.cx) / k.fx, (vv - k.cy) / k.fy, np.ones_like(d)], axis=1
    )
    pts_c = rays_c * d[:, None]
    # PoseSE3.apply on an (n, 3) array.
    pts_b = np.atleast_2d(pts_c) @ frame.camera_pose.rotation.T + frame.camera_pose.translation

    # Perpendicular distance of each point to its own pixel ray (base frame).
    origin = frame.camera_pose.translation
    dirs_b = pts_c @ frame.camera_pose.rotation.T
    dirs_b /= np.linalg.norm(dirs_b, axis=1, keepdims=True)
    rel = pts_b - origin
    cross = np.cross(dirs_b, rel)
    perp = np.linalg.norm(cross, axis=1)
    ids = frame.mask[vv, uu].astype(np.int32)
    ids[perp >= DEFAULT_RAY_EPSILON] = -1

    return LiftedPoints(pts_b, ids)


def on_relations_reference(world):
    """``SimWorld.on_relations`` as it was written, testing the footprint
    of one candidate pair at a time."""
    from workcell.world_model import EPS_CONTACT

    boxes = [(oid, o.pose.translation, o.half_extents)
             for oid, o in world.objects.items() if oid != world.gripper]
    if not boxes:
        return set()
    ids, centres, halves = zip(*boxes)
    centre, half = np.array(centres), np.array(halves)
    bottom, top = centre[:, 2] - half[:, 2], centre[:, 2] + half[:, 2]
    a, b = np.nonzero(np.abs(bottom[:, None] - top[None, :]) <= 2 * EPS_CONTACT)
    return {("On", ids[i], ids[j]) for i, j in zip(a.tolist(), b.tolist())
            if i != j and np.all(np.abs(centre[i, :2] - centre[j, :2]) <= half[j, :2])}


def visible_pixel_counts_reference(world, frame):
    """Pixel count per object id, tallied by ``np.unique``."""
    ids, tallies = np.unique(frame.mask, return_counts=True)
    by_instance = dict(zip(ids.tolist(), tallies.tolist()))
    return {oid: by_instance.get(world.instance_ids[oid], 0) for oid in world.objects}


def assemble_snapshot_reference(frame, k):
    """The snapshot before the centroid was shared: a boolean mask per
    instance, ``envelope_from_points``, and a quantization that computes
    its own centroid. Returns what ``perception.assemble_snapshot`` does."""
    from workcell.geometry import PointCloudData, envelope_from_points
    from workcell.perception import (
        DEFAULT_R_FAR,
        DEFAULT_R_NEAR,
        VOXEL_CELL_SIZE,
        BillboardGeom,
        Observation,
        PointsGeom,
        VoxelsGeom,
        lift_frame,
    )

    lifted = lift_frame(frame, k)
    observations = []
    for instance_id in sorted(frame.labels):
        pts = lifted.points[lifted.instance_ids == instance_id]
        if len(pts) < 2:
            continue
        centroid = pts.mean(axis=0)
        dist = float(np.linalg.norm(centroid))
        if dist < DEFAULT_R_NEAR:
            geometry = PointsGeom(PointCloudData(pts))
        elif dist < DEFAULT_R_FAR:
            cells = np.unique(np.floor(pts / VOXEL_CELL_SIZE).astype(np.int64), axis=0)
            geometry = VoxelsGeom(cells, VOXEL_CELL_SIZE)
        else:
            geometry = BillboardGeom(f"frame/crop/{instance_id}", centroid / dist, centroid)
        envelope = envelope_from_points(PointCloudData(pts))
        observations.append(Observation(frame.labels[instance_id], geometry, envelope))
    return observations


# -- SPD algebra and association before the direct-LAPACK rewrite ------------
#
# The package's solves, envelope checks and gate as they were written on top
# of scipy's wrappers, ``np.allclose`` and ``eigvalsh``, one pair at a time.
# The package must reproduce them to the bit.


def cholesky_solve_reference(matrix, rhs):
    from workcell.errors import NumericError

    try:
        factor = linalg.cho_factor(matrix, lower=True, check_finite=False)
    except linalg.LinAlgError as exc:
        raise NumericError(f"matrix is not positive definite: {exc}") from exc
    return linalg.cho_solve(factor, rhs, check_finite=False)


def spd_inverse_reference(matrix):
    return cholesky_solve_reference(matrix, np.eye(len(matrix)))


def mahalanobis_reference(a, b):
    diff = a.mean - b.mean
    d2 = float(diff @ cholesky_solve_reference(a.covariance + b.covariance, diff))
    return float(np.sqrt(max(d2, 0.0)))


def envelope_reference(mean, covariance):
    """The check of ``GaussianEnvelope`` on whole numpy arrays: the stored
    mean and covariance, or the ValueError the constructor raises."""
    from workcell.geometry import MIN_EIGENVALUE

    mean = np.asarray(mean, dtype=float).reshape(3)
    if not np.isfinite(mean).all():
        raise ValueError(f"point has non-finite components: {mean}")
    cov = np.asarray(covariance, dtype=float).reshape(3, 3)
    if not np.isfinite(cov).all():
        raise ValueError(f"covariance has non-finite entries: {cov.tolist()}")
    if not np.allclose(cov, cov.T, atol=1e-9):
        raise ValueError("covariance must be symmetric")
    with np.errstate(over="ignore"):  # finite entries can sum past the range
        cov = 0.5 * (cov + cov.T)
    if not np.isfinite(cov).all():
        raise ValueError("covariance overflows when symmetrized")
    eigvals = np.linalg.eigvalsh(cov)
    if eigvals.min() < MIN_EIGENVALUE * (1 - 1e-9):
        raise ValueError(
            f"covariance smallest eigenvalue {eigvals.min():.3e} below floor"
        )
    return mean, cov


def check_rotation_reference(r):
    r = np.asarray(r, dtype=float).reshape(3, 3)
    if not np.allclose(r.T @ r, np.eye(3), atol=1e-8):
        raise ValueError("rotation matrix is not orthonormal")
    if not abs(np.linalg.det(r) - 1.0) < 1e-6:
        raise ValueError("rotation matrix determinant is not +1")
    return r


def fuse_reference(prior, obs, gamma):
    """(mean, covariance) of the information-filter fusion."""
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    if gamma == 0.0:
        return prior.mean, prior.covariance
    prior_info = spd_inverse_reference(prior.covariance)
    obs_info = spd_inverse_reference(obs.covariance)
    info = prior_info + gamma * obs_info
    cov = spd_inverse_reference(info)
    cov = 0.5 * (cov + cov.T)
    mean = cov @ (prior_info @ prior.mean + gamma * (obs_info @ obs.mean))
    return envelope_reference(mean, cov)


def build_cost_matrix_reference(observations, memory, cfg, iou_fn, sim_fn):
    """The per-pair gate: every pair's distance on its own."""
    from workcell.association import GATED, hybrid_cost

    cost = np.full((len(observations), len(memory)), GATED)
    for k, obs in enumerate(observations):
        for i, mem in enumerate(memory):
            if mahalanobis_reference(obs.envelope, mem.envelope) >= cfg.tau_geo:
                continue
            cost[k, i] = hybrid_cost(iou_fn(k, i), sim_fn(k, i), cfg)
    return cost
