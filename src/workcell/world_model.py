"""Persistent world store: occupancy background, object registry,
semantic graph with grounding links, relation verification, and
lifecycle curation.

The store document (``to_dict``) is the whole state. Two things are
derived from it: the zone index, by one rule (``_indexed_zone``), and the
canonical-JSON text of each record and vertex, cached for ``state_hash``.
So every write to an entity goes through a ``WorldStore`` method that
keeps both: ``add_entity``, ``update_record``, ``update_vertex`` and
``restore_entity``. Edges are immutable, and ``state_hash`` compares the
edge list with the one it hashed last, so edge writes need no such method.
"""

from __future__ import annotations

import copy
import math
import pickle
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .association import (
    AssociationConfig,
    MatchResult,
    TentativeTrack,
    TrackFate,
    confirm_or_promote,
    fuse,
    inflate_drift,
)
from .errors import IntegrityError, WorkcellError
from .geometry import (
    GaussianEnvelope,
    OrientedBox,
    PointCloudData,
    PoseSE3,
    cholesky_solve,
    mahalanobis_between,
)
from .perception import BillboardGeom, GeomAbstraction, Observation, PointsGeom, VoxelsGeom
from .serialization import (
    Encoded,
    canonical_dumps,
    encoded,
    encoded_member,
    encoded_object,
    sha256_of,
)

# Occupancy log-odds increments and clamp bounds.
L_OCC = 0.85
L_FREE = -0.4
L_MIN = -2.0
L_MAX = 3.5

# Relation verification tolerances.
CHI2_THRESH_3DOF = 7.815
EPS_CONTACT = 0.01
DELTA_SUPP = 0.005
D_NEAR = 0.3
ALIGN_POS_TOL = 0.005
ALIGN_ANG_TOL_DEG = 2.0

# Lifecycle curation parameters.
LAMBDA_DECAY = 0.95
TAU_UNCERTAIN = 0.6
TAU_ARCHIVE = 0.1

STORE_SCHEMA_VERSION = 1


class Lifecycle(Enum):
    ACTIVE = "Active"
    UNCERTAIN = "Uncertain"
    ARCHIVED = "Archived"


class EdgeStatus(Enum):
    HYPOTHESIS = "Hypothesis"
    VERIFIED = "Verified"
    REFUTED = "Refuted"


@dataclass
class OccupancyMeasurement:
    index: tuple[int, int, int]
    hit: bool
    class_likelihood: dict[str, float] | None = None


@dataclass
class BackgroundMap:
    cell_size: float = 0.05
    # index -> [log_odds, {class: probability}]
    voxels: dict[tuple[int, int, int], list] = field(default_factory=dict)
    bounds: tuple[tuple[int, int, int], tuple[int, int, int]] | None = None
    l_min: float = L_MIN
    l_max: float = L_MAX

    def in_bounds(self, index: tuple[int, int, int]) -> bool:
        if self.bounds is None:
            return True
        lo, hi = self.bounds
        return all(lo[i] <= index[i] <= hi[i] for i in range(3))


def update_occupancy(
    bg: BackgroundMap, measurements: list[OccupancyMeasurement]
) -> BackgroundMap:
    """Additive log-odds update with clamping, plus recursive Bayes on classes."""
    for m in measurements:
        idx = tuple(int(v) for v in m.index)
        if not bg.in_bounds(idx):
            raise IntegrityError(f"voxel index {idx} out of bounds")
        log_odds, classes = bg.voxels.get(idx, [0.0, {}])
        log_odds = min(max(log_odds + (L_OCC if m.hit else L_FREE), bg.l_min), bg.l_max)
        if m.class_likelihood:
            if not classes:
                classes = {c: 1.0 / len(m.class_likelihood) for c in m.class_likelihood}
            post = {}
            for c in set(classes) | set(m.class_likelihood):
                post[c] = m.class_likelihood.get(c, 0.0) * classes.get(c, 0.0)
            norm = sum(post.values())
            if norm > 0:
                classes = {c: p / norm for c, p in post.items()}
        bg.voxels[idx] = [log_odds, classes]
    return bg


@dataclass
class ZoneNode:
    zone_id: str
    name: str
    reachable: list[str] = field(default_factory=list)
    extent: OrientedBox | None = None


@dataclass
class ShapePrior:
    prior_id: str
    canonical_cloud: PointCloudData
    functional_frame: PoseSE3 = field(default_factory=PoseSE3.identity)
    grasp_annotations: list[dict] = field(default_factory=list)


@dataclass
class ObjectRecord:
    record_id: str
    envelope: GaussianEnvelope
    geometry: GeomAbstraction | None = None
    shape_prior: str | None = None
    pose: PoseSE3 | None = None
    attached_to: str = "world"  # "world" or "gripper"

    def __post_init__(self):
        if self.pose is not None and self.shape_prior is None:
            raise IntegrityError("a posed record must reference a shape prior")


@dataclass
class ObjectVertex:
    uid: str
    label: str
    state_tag: str = ""
    attributes: dict[str, str] = field(default_factory=dict)
    grounding: str = ""  # ObjectRecord id
    lifecycle: Lifecycle = Lifecycle.ACTIVE
    confidence: float = 1.0
    zone_id: str = ""


@dataclass(frozen=True)
class RelationEdge:
    predicate: str
    subject: str
    obj: str
    status: EdgeStatus = EdgeStatus.HYPOTHESIS


ROBOT_UID = "robot"


def _assign(obj, fields: dict):
    for name, value in fields.items():
        if name not in obj.__dataclass_fields__:
            raise WorkcellError(f"{type(obj).__name__} has no field {name!r}")
        setattr(obj, name, value)


def _indexed_zone(v: ObjectVertex | None) -> str:
    """The zone index rule: a vertex is indexed under its zone_id if and
    only if it is not the robot and is not archived ("" for no zone)."""
    if v is None or v.uid == ROBOT_UID or v.lifecycle == Lifecycle.ARCHIVED:
        return ""
    return v.zone_id


class WorldStore:
    """The persistent store: single-writer, consistent snapshots."""

    def __init__(self):
        self.zones: dict[str, ZoneNode] = {}
        self.records: dict[str, ObjectRecord] = {}
        self.vertices: dict[str, ObjectVertex] = {}
        self.edges: list[RelationEdge] = []
        self.priors: dict[str, ShapePrior] = {}
        self.background = BackgroundMap()
        self.tentative: dict[int, TentativeTrack] = {}
        self._uid_counters: dict[str, int] = {}
        self._zone_index: dict[str, set[str]] = {}
        self._clear_hash_cache()
        self._init_robot()

    def _init_robot(self):
        env = GaussianEnvelope(np.zeros(3), 1e-6 * np.eye(3))
        self.records[ROBOT_UID] = ObjectRecord(record_id=ROBOT_UID, envelope=env)
        self.vertices[ROBOT_UID] = ObjectVertex(
            uid=ROBOT_UID, label="robot", grounding=ROBOT_UID
        )

    # -- uid and indexing --------------------------------------------------

    def next_uid(self, label: str) -> str:
        n = self._uid_counters.get(label, 0) + 1
        self._uid_counters[label] = n
        return f"{label}_{n}"

    def _reindex(self, uid: str, was: str):
        """The one writer of the zone index: move ``uid`` from ``was``, the
        zone the rule gave it before a change, to the zone it gives now."""
        now = _indexed_zone(self.vertices.get(uid))
        if was and was != now:
            self._zone_index[was].discard(uid)
        if now:
            self._zone_index.setdefault(now, set()).add(uid)

    @property
    def robot_zone(self) -> str:
        """The robot's zone, stored once: as its vertex's ``zone_id``."""
        return self.vertices[ROBOT_UID].zone_id

    @robot_zone.setter
    def robot_zone(self, zone_id: str):
        self.update_vertex(ROBOT_UID, zone_id=zone_id)

    # -- graph mutation ----------------------------------------------------

    def add_zone(self, zone: ZoneNode):
        self.zones[zone.zone_id] = zone

    def add_entity(
        self,
        label: str,
        envelope: GaussianEnvelope,
        zone_id: str,
        geometry: GeomAbstraction | None = None,
        attributes: dict[str, str] | None = None,
        shape_prior: str | None = None,
        pose: PoseSE3 | None = None,
        uid: str | None = None,
    ) -> str:
        uid = uid or self.next_uid(label)
        if uid in self.vertices:
            raise IntegrityError(f"uid {uid} already exists")
        self.records[uid] = ObjectRecord(
            record_id=uid,
            envelope=envelope,
            geometry=geometry,
            shape_prior=shape_prior,
            pose=pose,
        )
        self.vertices[uid] = ObjectVertex(
            uid=uid,
            label=label,
            attributes=dict(attributes or {}),
            grounding=uid,
            zone_id=zone_id,
        )
        self._reindex(uid, "")
        self.check_integrity([uid])
        return uid

    def update_record(self, record_id: str, **fields):
        """Set fields of a record in place and drop its cached text."""
        _assign(self.records[record_id], fields)
        self._fragments["records"].pop(record_id, None)

    def update_vertex(self, uid: str, **fields):
        """Set fields of a vertex in place, drop its cached text, and move
        it in the zone index if its zone or lifecycle changed."""
        was = _indexed_zone(self.vertices[uid])
        _assign(self.vertices[uid], fields)
        self._fragments["vertices"].pop(uid, None)
        self._reindex(uid, was)

    def restore_entity(self, uid: str, record: ObjectRecord | None,
                       vertex: ObjectVertex | None):
        """Put back an entity's record and vertex as captured earlier;
        None means the entity did not exist then."""
        was = _indexed_zone(self.vertices.get(uid))
        for table, value in ((self.records, record), (self.vertices, vertex)):
            if value is None:
                table.pop(uid, None)
            else:
                table[uid] = value
        for cache in self._fragments.values():
            cache.pop(uid, None)
        self._reindex(uid, was)

    def add_edge(
        self, predicate: str, subject: str, obj: str,
        status: EdgeStatus = EdgeStatus.HYPOTHESIS,
    ) -> RelationEdge:
        for endpoint in (subject, obj):
            if endpoint not in self.vertices and endpoint not in self.zones:
                raise IntegrityError(f"edge endpoint {endpoint} does not exist")
        edge = RelationEdge(predicate, subject, obj, status)
        self.edges.append(edge)
        return edge

    def remove_edges(self, predicate: str | None = None,
                     subject: str | None = None, obj: str | None = None) -> list[RelationEdge]:
        removed = self.find_edges(predicate, subject, obj)
        gone = {id(e) for e in removed}
        self.edges = [e for e in self.edges if id(e) not in gone]
        return removed

    def find_edges(self, predicate: str | None = None,
                   subject: str | None = None, obj: str | None = None) -> list[RelationEdge]:
        return [
            e for e in self.edges
            if (predicate is None or e.predicate == predicate)
            and (subject is None or e.subject == subject)
            and (obj is None or e.obj == obj)
        ]

    def neighbors(self, uids) -> set[str]:
        """Endpoints of every edge that has one end in ``uids``: the 1-hop
        neighbors, whatever the edge's status."""
        uids = set(uids)
        out = set()
        for e in self.edges:
            if e.subject in uids:
                out.add(e.obj)
            if e.obj in uids:
                out.add(e.subject)
        return out

    def is_clear(self, uid: str) -> bool:
        """No unrefuted On edge has ``uid`` as its support."""
        return not any(
            e.status != EdgeStatus.REFUTED
            for e in self.find_edges(predicate="On", obj=uid)
        )

    def check_integrity(self, uids=None):
        """No live vertex's grounding link dangles; only ``uids`` are
        checked when given, every vertex otherwise."""
        for uid in self.vertices if uids is None else uids:
            v = self.vertices[uid]
            if v.lifecycle in (Lifecycle.ACTIVE, Lifecycle.UNCERTAIN):
                if v.grounding not in self.records:
                    raise IntegrityError(f"vertex {uid} grounding link dangling")

    # -- queries -----------------------------------------------------------

    def entities_in_zone(self, zone_id: str) -> list[ObjectVertex]:
        """Non-archived vertices in a zone; candidate set is the zone index."""
        if zone_id not in self.zones:
            raise WorkcellError(f"unknown zone {zone_id}")
        return [
            self.vertices[uid]
            for uid in sorted(self._zone_index.get(zone_id, set()))
            if self.vertices[uid].lifecycle != Lifecycle.ARCHIVED
        ]

    def zone_candidate_count(self, zone_id: str) -> int:
        return len(self._zone_index.get(zone_id, set()))

    # -- persistence -------------------------------------------------------

    def _head(self) -> dict:
        """The document's sections other than records, vertices and edges."""
        return {
            "version": STORE_SCHEMA_VERSION,
            "robot_zone": self.robot_zone,
            "uid_counters": dict(self._uid_counters),
            "zones": {
                z.zone_id: {
                    "name": z.name,
                    "reachable": list(z.reachable),
                    "extent": None if z.extent is None else {
                        "center": z.extent.center.tolist(),
                        "half_extents": z.extent.half_extents.tolist(),
                        "rotation": z.extent.rotation.tolist(),
                    },
                }
                for z in self.zones.values()
            },
            "priors": {
                p.prior_id: {
                    "points": p.canonical_cloud.points.tolist(),
                    "functional_frame": _pose_doc(p.functional_frame),
                    "grasp_annotations": p.grasp_annotations,
                }
                for p in self.priors.values()
            },
            "background": {
                "cell_size": self.background.cell_size,
                "bounds": self.background.bounds,
                "voxels": [
                    {"index": list(k), "log_odds": v[0], "classes": v[1]}
                    for k, v in sorted(self.background.voxels.items())
                ],
            },
        }

    def to_dict(self) -> dict:
        return {
            **self._head(),
            "records": {uid: _record_doc(r) for uid, r in self.records.items()},
            "vertices": {uid: _vertex_doc(v) for uid, v in self.vertices.items()},
            "edges": [_edge_doc(e) for e in self.edges],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorldStore":
        if data.get("version") != STORE_SCHEMA_VERSION:
            raise WorkcellError(f"unsupported store schema {data.get('version')}")

        def pose_f(d):
            return None if d is None else PoseSE3(
                np.array(d["rotation"]), np.array(d["translation"])
            )

        store = cls.__new__(cls)
        store._clear_hash_cache()
        store._uid_counters = dict(data["uid_counters"])
        store.tentative = {}
        store.zones = {}
        for zid, z in data["zones"].items():
            extent = None
            if z["extent"] is not None:
                extent = OrientedBox(
                    np.array(z["extent"]["center"]),
                    np.array(z["extent"]["half_extents"]),
                    np.array(z["extent"]["rotation"]),
                )
            store.zones[zid] = ZoneNode(zid, z["name"], list(z["reachable"]), extent)
        store.records = {}
        for rid, r in data["records"].items():
            store.records[rid] = ObjectRecord(
                record_id=rid,
                envelope=GaussianEnvelope(
                    np.array(r["envelope"]["mean"]),
                    np.array(r["envelope"]["covariance"]),
                ),
                geometry=geom_from_dict(r["geometry"]),
                shape_prior=r["shape_prior"],
                pose=pose_f(r["pose"]),
                attached_to=r["attached_to"],
            )
        store.vertices = {}
        store._zone_index = {}
        for uid, v in data["vertices"].items():
            store.vertices[uid] = ObjectVertex(
                uid=uid, label=v["label"], state_tag=v["state_tag"],
                attributes=dict(v["attributes"]), grounding=v["grounding"],
                lifecycle=Lifecycle(v["lifecycle"]), confidence=v["confidence"],
                zone_id=v["zone_id"],
            )
            store._reindex(uid, "")
        store.edges = [
            RelationEdge(e["predicate"], e["subject"], e["object"], EdgeStatus(e["status"]))
            for e in data["edges"]
        ]
        store.priors = {
            pid: ShapePrior(
                pid, PointCloudData(np.array(p["points"])),
                pose_f(p["functional_frame"]) or PoseSE3.identity(),
                p["grasp_annotations"],
            )
            for pid, p in data["priors"].items()
        }
        bounds = data["background"]["bounds"]
        store.background = BackgroundMap(
            cell_size=data["background"]["cell_size"],
            bounds=None if bounds is None else (tuple(bounds[0]), tuple(bounds[1])),
        )
        for v in data["background"]["voxels"]:
            store.background.voxels[tuple(v["index"])] = [v["log_odds"], v["classes"]]
        return store

    def serialize(self) -> str:
        return canonical_dumps(self.to_dict())

    # -- hashing -----------------------------------------------------------

    def _clear_hash_cache(self):
        # Per table: the '"uid":{...}' text of each entry, and the uids in
        # sorted order (a dict, so its keys compare with the table's).
        self._fragments: dict[str, dict[str, str]] = {"records": {}, "vertices": {}}
        self._order: dict[str, dict[str, None]] = {"records": {}, "vertices": {}}
        self._hashed_edges: list[RelationEdge] | None = None
        self._head_key = b""
        self._sections: dict[str, Encoded] = {}  # top-level key -> its value's text
        self._digest = ""

    def state_hash(self) -> str:
        """``sha256(serialize())``, assembled from cached texts.

        Only the records and vertices whose text a write dropped (or that
        were never hashed) are encoded again; the edge list only when it
        differs from the one hashed last; the head sections only when
        their pickle differs, which is exact and, unlike encoding their
        floats, cheap. When nothing differs, the last digest is returned.
        """
        sections = self._sections
        changed = False
        for name, table, to_doc in (("records", self.records, _record_doc),
                                    ("vertices", self.vertices, _vertex_doc)):
            cache = self._fragments[name]
            if cache.keys() == table.keys() and name in sections:
                continue
            for uid in cache.keys() - table.keys():
                del cache[uid]
            for uid in table.keys() - cache.keys():
                cache[uid] = encoded_member(uid, to_doc(table[uid]))
            if self._order[name].keys() != table.keys():
                self._order[name] = dict.fromkeys(sorted(table))
            sections[name] = encoded_object([cache[uid] for uid in self._order[name]])
            changed = True
        if self.edges != self._hashed_edges:
            self._hashed_edges = list(self.edges)
            sections["edges"] = encoded([_edge_doc(e) for e in self.edges])
            changed = True
        head = self._head()
        key = pickle.dumps(head, pickle.HIGHEST_PROTOCOL)
        if key != self._head_key:
            self._head_key = key
            sections.update((name, encoded(value)) for name, value in head.items())
            changed = True
        if changed:
            self._digest = sha256_of(sections)
        return self._digest

    def snapshot(self) -> "WorldStore":
        return copy.deepcopy(self)


def _pose_doc(p: PoseSE3 | None):
    return None if p is None else {
        "rotation": p.rotation.tolist(), "translation": p.translation.tolist()
    }


def _record_doc(r: ObjectRecord) -> dict:
    return {
        "envelope": {
            "mean": r.envelope.mean.tolist(),
            "covariance": r.envelope.covariance.tolist(),
        },
        "geometry": geom_to_dict(r.geometry),
        "shape_prior": r.shape_prior,
        "pose": _pose_doc(r.pose),
        "attached_to": r.attached_to,
    }


def _vertex_doc(v: ObjectVertex) -> dict:
    return {
        "label": v.label,
        "state_tag": v.state_tag,
        "attributes": dict(v.attributes),
        "grounding": v.grounding,
        "lifecycle": v.lifecycle.value,
        "confidence": v.confidence,
        "zone_id": v.zone_id,
    }


def _edge_doc(e: RelationEdge) -> dict:
    return {"predicate": e.predicate, "subject": e.subject,
            "object": e.obj, "status": e.status.value}


def geom_to_dict(g: GeomAbstraction | None):
    if g is None:
        return None
    if isinstance(g, PointsGeom):
        return {"kind": "points", "points": g.cloud.points.tolist()}
    if isinstance(g, VoxelsGeom):
        return {"kind": "voxels", "cells": g.cells.tolist(), "cell_size": g.cell_size}
    if isinstance(g, BillboardGeom):
        return {
            "kind": "billboard", "image_ref": g.image_ref,
            "view_vector": g.view_vector.tolist(), "centroid": g.centroid.tolist(),
        }
    raise WorkcellError(f"unknown geometry {type(g)}")


def geom_from_dict(d) -> GeomAbstraction | None:
    if d is None:
        return None
    kind = d["kind"]
    if kind == "points":
        return PointsGeom(PointCloudData(np.array(d["points"]).reshape(-1, 3)))
    if kind == "voxels":
        return VoxelsGeom(np.array(d["cells"], dtype=np.int64).reshape(-1, 3), d["cell_size"])
    if kind == "billboard":
        return BillboardGeom(d["image_ref"], np.array(d["view_vector"]), np.array(d["centroid"]))
    raise WorkcellError(f"unknown geometry kind {kind}")


# -- relation verification ---------------------------------------------------


def record_bounds(record: ObjectRecord) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned bounds from stored geometry, else a 2-sigma envelope box."""
    g = record.geometry
    if isinstance(g, PointsGeom) and len(g.cloud) > 0:
        return g.cloud.points.min(axis=0), g.cloud.points.max(axis=0)
    if isinstance(g, VoxelsGeom) and len(g.cells) > 0:
        lo = g.cells.min(axis=0) * g.cell_size
        hi = (g.cells.max(axis=0) + 1) * g.cell_size
        return lo, hi
    sigma = np.sqrt(np.diag(record.envelope.covariance))
    return record.envelope.mean - 2 * sigma, record.envelope.mean + 2 * sigma


def _grounded_record(store: WorldStore, uid: str) -> ObjectRecord:
    v = store.vertices.get(uid)
    if v is None or v.grounding not in store.records:
        raise IntegrityError(f"relation endpoint {uid} is not grounded")
    return store.records[v.grounding]


def _mahal_sq(diff: np.ndarray, cov: np.ndarray) -> float:
    return float(diff @ cholesky_solve(cov, diff))


def _rotation_angle_deg(r: np.ndarray) -> float:
    c = (np.trace(r) - 1.0) / 2.0
    return math.degrees(math.acos(min(1.0, max(-1.0, c))))


def verify_relation(edge: RelationEdge, store: WorldStore) -> EdgeStatus:
    """Geometric/statistical test for a hypothesized relation."""
    a = _grounded_record(store, edge.subject)
    b = _grounded_record(store, edge.obj)
    pred = edge.predicate

    if pred == "Contact":
        d2 = _mahal_sq(b.envelope.mean - a.envelope.mean,
                       a.envelope.covariance + b.envelope.covariance)
        ok = d2 <= CHI2_THRESH_3DOF
    elif pred == "Inside":
        # Container is the edge object; its covariance defines the boundary.
        d2 = _mahal_sq(a.envelope.mean - b.envelope.mean, b.envelope.covariance)
        ok = d2 <= CHI2_THRESH_3DOF
    elif pred == "Near":
        ok = float(np.linalg.norm(a.envelope.mean - b.envelope.mean)) < D_NEAR
    elif pred == "On":
        lo_a, hi_a = record_bounds(a)
        lo_b, hi_b = record_bounds(b)
        cx, cy = a.envelope.mean[0], a.envelope.mean[1]
        in_xy = (
            lo_b[0] - DELTA_SUPP <= cx <= hi_b[0] + DELTA_SUPP
            and lo_b[1] - DELTA_SUPP <= cy <= hi_b[1] + DELTA_SUPP
        )
        ok = in_xy and abs(lo_a[2] - hi_b[2]) < EPS_CONTACT
    elif pred in ("Aligned", "Inserted"):
        ok = _check_mating(store, a, b)
    elif pred == "Clear":
        ok = store.is_clear(edge.subject)
    else:
        raise WorkcellError(f"no verification rule for predicate {pred}")
    return EdgeStatus.VERIFIED if ok else EdgeStatus.REFUTED


def _check_mating(store: WorldStore, a: ObjectRecord, b: ObjectRecord) -> bool:
    """Relative pose of a in b's frame matches a's mating frame within
    assembly tolerance (5 mm, 2 deg)."""
    if a.pose is None or b.pose is None or a.shape_prior is None:
        return False
    prior = store.priors.get(a.shape_prior)
    if prior is None:
        return False
    actual = b.pose.inverse().compose(a.pose)
    expected = prior.functional_frame
    dpos = float(np.linalg.norm(actual.translation - expected.translation))
    dang = _rotation_angle_deg(expected.rotation.T @ actual.rotation)
    return dpos < ALIGN_POS_TOL and dang < ALIGN_ANG_TOL_DEG


# -- lifecycle curation ------------------------------------------------------


@dataclass
class LifecycleEvent:
    kind: str  # decayed | uncertain | archived | restored | reinforced
    uid: str
    confidence: float


def curate_zone(
    store: WorldStore, zone_id: str, observed_uids: set[str]
) -> list[LifecycleEvent]:
    """Decay unobserved entities; reinforce and restore observed ones."""
    if zone_id not in store.zones:
        raise WorkcellError(f"unknown zone {zone_id}")
    events: list[LifecycleEvent] = []
    for v in store.entities_in_zone(zone_id):
        if v.uid in observed_uids:
            continue
        store.update_vertex(v.uid, confidence=v.confidence * LAMBDA_DECAY)
        events.append(LifecycleEvent("decayed", v.uid, v.confidence))
        if v.confidence < TAU_ARCHIVE:
            store.update_vertex(v.uid, lifecycle=Lifecycle.ARCHIVED)
            events.append(LifecycleEvent("archived", v.uid, v.confidence))
        elif v.confidence < TAU_UNCERTAIN:
            if v.lifecycle != Lifecycle.UNCERTAIN:
                store.update_vertex(v.uid, lifecycle=Lifecycle.UNCERTAIN)
                events.append(LifecycleEvent("uncertain", v.uid, v.confidence))
    for uid in sorted(observed_uids):
        v = store.vertices.get(uid)
        if v is None:
            continue
        if v.lifecycle == Lifecycle.ARCHIVED:
            events.append(LifecycleEvent("restored", uid, v.confidence))
        if v.confidence != 1.0 or v.lifecycle != Lifecycle.ACTIVE:
            store.update_vertex(uid, confidence=1.0, lifecycle=Lifecycle.ACTIVE)
        events.append(LifecycleEvent("reinforced", uid, 1.0))
    return events


def restore_candidates(
    store: WorldStore, obs: Observation, cfg: AssociationConfig
) -> str | None:
    """Archived entity matching a fresh observation (label + gate), if any."""
    best, best_d = None, np.inf
    for uid, v in sorted(store.vertices.items()):
        if v.lifecycle != Lifecycle.ARCHIVED or v.label != obs.label:
            continue
        rec = store.records.get(v.grounding)
        if rec is None:
            continue
        d = mahalanobis_between(obs.envelope, rec.envelope)
        if d < cfg.tau_geo and d < best_d:
            best, best_d = uid, d
    return best


# -- register / update -------------------------------------------------------


@dataclass
class StoreDelta:
    fused: list[str] = field(default_factory=list)
    promoted: list[str] = field(default_factory=list)
    restored: list[str] = field(default_factory=list)
    tentative: list[int] = field(default_factory=list)
    discarded: list[int] = field(default_factory=list)


def register_or_update(
    store: WorldStore,
    observations: list[Observation],
    match: MatchResult,
    memory_uids: list[str],
    gammas: dict[int, float],
    zone_id: str,
    step: int = 0,
    cfg: AssociationConfig | None = None,
) -> StoreDelta:
    """Apply an association outcome: fuse matches, run the confirmation
    window for unmatched observations, promote or restore as needed.

    memory_uids maps match-result memory indices back to store uids;
    gammas maps observation indices to fusion weights.
    """
    cfg = cfg or AssociationConfig()
    delta = StoreDelta()

    for obs_idx, mem_idx, _cost in match.matched:
        uid = memory_uids[mem_idx]
        rid = store.vertices[uid].grounding
        gamma = gammas.get(obs_idx, 1.0)
        obs = observations[obs_idx]
        fields = {"envelope": fuse(store.records[rid].envelope, obs.envelope, gamma)}
        if gamma > 0.1 and obs.geometry is not None:
            fields["geometry"] = obs.geometry
        store.update_record(rid, **fields)
        delta.fused.append(uid)

    sighted_keys = set()
    for obs_idx in match.unmatched_observations:
        obs = observations[obs_idx]
        restored = restore_candidates(store, obs, cfg)
        if restored is not None:
            store.update_vertex(restored, confidence=1.0, lifecycle=Lifecycle.ACTIVE)
            rid = store.vertices[restored].grounding
            store.update_record(rid, envelope=fuse(
                store.records[rid].envelope, obs.envelope, gammas.get(obs_idx, 1.0)))
            delta.restored.append(restored)
            continue
        key = _tentative_key(store, obs, cfg)
        sighted_keys.add(key)
        track = store.tentative.get(key)
        if track is None:
            track = TentativeTrack(observation=obs, count=0, created_at=step)
            store.tentative[key] = track
        else:
            track.observation = obs
        fate = confirm_or_promote(track, sighted=True, cfg=cfg)
        if fate == TrackFate.PROMOTED:
            del store.tentative[key]
            uid = store.add_entity(
                label=obs.label,
                envelope=obs.envelope,
                zone_id=zone_id,
                geometry=obs.geometry,
                attributes={"description": obs.description} if obs.description else {},
            )
            delta.promoted.append(uid)
        else:
            delta.tentative.append(key)

    # Tracks not sighted this cycle fall out of the window.
    for key in list(store.tentative):
        if key not in sighted_keys:
            del store.tentative[key]
            delta.discarded.append(key)

    store.check_integrity(delta.fused + delta.restored + delta.promoted)
    return delta


def _tentative_key(store: WorldStore, obs: Observation, cfg: AssociationConfig) -> int:
    """Stable key for the confirmation window: match against pending tracks."""
    for key, track in sorted(store.tentative.items()):
        if track.observation.label != obs.label:
            continue
        if mahalanobis_between(track.observation.envelope, obs.envelope) < cfg.tau_geo:
            return key
    return max(store.tentative, default=-1) + 1


def apply_drift_inflation(store: WorldStore, unobserved_uids: list[str], cycles: int = 1):
    for uid in unobserved_uids:
        v = store.vertices.get(uid)
        if v is None or v.uid == ROBOT_UID:
            continue
        rec = store.records.get(v.grounding)
        if rec is not None and rec.attached_to == "world":
            store.update_record(v.grounding, envelope=inflate_drift(rec.envelope, cycles))
