"""Persistent world store: zone layout, object registry, semantic graph,
relation verification, and lifecycle curation.

An entity is one uid in both layers: its vertex in the semantic graph and
its record in the registry share it, so a vertex's record is
``records[uid]``. Every live vertex has a record; an archived vertex need
not have one. ``check_integrity`` checks that on the one input from
outside the program, a document ``from_dict`` resumes.

The store document (``to_dict``) is the whole state. Everything else the
store keeps is derived from it, as ``from_dict`` does: the zone index, by
one rule (``_indexed_zone``); the records attached to the gripper; the
edges by subject and by object; and the canonical-JSON text of each
record, vertex, edge and head section, cached for ``state_hash``. A
record, vertex or edge text is one string format, with each finite float
written as its ``repr``, the text the JSON encoder writes for it. So
every write goes through a ``WorldStore`` method that keeps all of these
and marks what it touched for hashing: ``add_entity``, ``update_record``,
``update_vertex``, ``restore_entity``, ``add_edge``, ``remove_edges``,
``set_edges``, ``add_zone`` and ``next_uid``. Records, vertices and
edges are never mutated in place: a field is replaced through
``update_record``/``update_vertex``, and edges are frozen. The tracker's
state between cycles, its pending sightings and fused-once memo, is the
trial runtime's, not the store's.

``from_dict`` resumes a store from its document in one stacked pass: it
checks every record's envelope at once with ``envelope_stack``, which
applies ``GaussianEnvelope``'s rule to the whole stack of covariances and
stores the same bits, and reads enum members from their value tables. A
document the constructors refuse is refused with the constructor's
exception, for the first fault in document order; a document with a live
vertex that has no record is refused with ``IntegrityError``. The input
document is never written to, and keys it does not read are ignored: older
documents carry an occupancy ``background``, a ``priors`` table, and keys
no longer written: a prior link and a pose in each record, and a record
link and a state tag in each vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .association import AssociationConfig, MatchResult, fuse
from .errors import IntegrityError, WorkcellError
from .geometry import (
    GaussianEnvelope,
    OrientedBox,
    PointCloudData,
    cholesky_solve,
    envelope_stack,
    mahalanobis_between,
)
from .perception import BillboardGeom, GeomAbstraction, Observation, PointsGeom, VoxelsGeom
from .serialization import (
    Encoded,
    canonical_dumps,
    encode,
    encode_basestring_ascii,
    encoded,
    encoded_array,
    encoded_object,
    sha256_of,
)

# Relation verification tolerances.
CHI2_THRESH_3DOF = 7.815
EPS_CONTACT = 0.01
DELTA_SUPP = 0.005
D_NEAR = 0.3

# Lifecycle curation parameters.
LAMBDA_DECAY = 0.95
TAU_UNCERTAIN = 0.6
TAU_ARCHIVE = 0.1

STORE_SCHEMA_VERSION = 1


class Lifecycle(Enum):
    ACTIVE = "Active"
    UNCERTAIN = "Uncertain"
    ARCHIVED = "Archived"


# Read once: a member read through its Enum class takes the slow path.
_ARCHIVED = Lifecycle.ARCHIVED


class EdgeStatus(Enum):
    HYPOTHESIS = "Hypothesis"
    VERIFIED = "Verified"
    REFUTED = "Refuted"


def _member(enum: type[Enum], members: dict, value):
    """``enum(value)``, read from ``members``, the enum's value table, which
    the caller reads once: a resumed store makes one call per vertex and
    edge. A value the table lacks goes to the enum's call, which raises."""
    try:
        return members[value]
    except (KeyError, TypeError):
        return enum(value)


@dataclass
class ZoneNode:
    zone_id: str
    name: str
    reachable: list[str] = field(default_factory=list)
    extent: OrientedBox | None = None


@dataclass
class ObjectRecord:
    envelope: GaussianEnvelope
    geometry: GeomAbstraction | None = None
    attached_to: str = "world"  # "world" or "gripper"


@dataclass
class ObjectVertex:
    uid: str
    label: str
    attributes: dict[str, str] = field(default_factory=dict)
    lifecycle: Lifecycle = Lifecycle.ACTIVE
    confidence: float = 1.0
    zone_id: str = ""


@dataclass(frozen=True)
class RelationEdge:
    predicate: str
    subject: str
    obj: str
    status: EdgeStatus = EdgeStatus.HYPOTHESIS

    @cached_property
    def text(self) -> str:
        """``encode(_edge_doc(self))`` in one format, built on first use."""
        return (f'{{"object":{_text(self.obj)},"predicate":{_text(self.predicate)},'
                f'"status":{encode_basestring_ascii(self.status._value_)},'
                f'"subject":{_text(self.subject)}}}')


ROBOT_UID = "robot"


def _assign(obj, fields: dict):
    for name, value in fields.items():
        if name not in obj.__dataclass_fields__:
            raise WorkcellError(f"{type(obj).__name__} has no field {name!r}")
        setattr(obj, name, value)


def _indexed_zone(v: ObjectVertex | None) -> str:
    """The zone index rule: a vertex is indexed under its zone_id if and
    only if it is not the robot and is not archived ("" for no zone)."""
    if v is None or v.uid == ROBOT_UID or v.lifecycle is _ARCHIVED:
        return ""
    return v.zone_id


class WorldStore:
    """The persistent store: single-writer, consistent snapshots."""

    def __init__(self):
        self.zones: dict[str, ZoneNode] = {}
        self.records: dict[str, ObjectRecord] = {}
        self.vertices: dict[str, ObjectVertex] = {}
        self.edges: list[RelationEdge] = []
        self._uid_counters: dict[str, int] = {}
        env = GaussianEnvelope(np.zeros(3), 1e-6 * np.eye(3))
        self.records[ROBOT_UID] = ObjectRecord(envelope=env)
        self.vertices[ROBOT_UID] = ObjectVertex(uid=ROBOT_UID, label="robot")
        self._derive()

    def _derive(self):
        """Build everything derived from the document from scratch, and mark
        the whole document for hashing."""
        self._clear_hash_cache()
        index: dict[str, set[str]] = {}
        for uid, v in self.vertices.items():
            zone = _indexed_zone(v)
            if zone in index:
                index[zone].add(uid)
            elif zone:
                index[zone] = {uid}
        self._zone_index = index
        self._held = {rid for rid, r in self.records.items() if r.attached_to == "gripper"}
        self._index_edges()

    # -- uid and indexing --------------------------------------------------

    def next_uid(self, label: str) -> str:
        n = self._uid_counters.get(label, 0) + 1
        self._uid_counters[label] = n
        self._dirty_head.add("uid_counters")
        return f"{label}_{n}"

    def _reindex(self, uid: str, was: str):
        """The one writer of the zone index: move ``uid`` from ``was``, the
        zone ``_indexed_zone`` gave before a change, to the one it gives
        now; and mark the vertex for hashing."""
        zone = _indexed_zone(self.vertices.get(uid))
        if was and was != zone:
            self._zone_index[was].discard(uid)
        if zone:
            self._zone_index.setdefault(zone, set()).add(uid)
        self._dirty["vertices"].add(uid)
        if uid == ROBOT_UID:
            self._dirty_head.add("robot_zone")

    def _record_written(self, rid: str):
        """Keep the held set for a record just written, and mark it for hashing."""
        rec = self.records.get(rid)
        if rec is not None and rec.attached_to == "gripper":
            self._held.add(rid)
        else:
            self._held.discard(rid)
        self._dirty["records"].add(rid)

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
        self._dirty_head.add("zones")

    def add_entity(
        self,
        label: str,
        envelope: GaussianEnvelope,
        zone_id: str,
        geometry: GeomAbstraction | None = None,
        attributes: dict[str, str] | None = None,
        uid: str | None = None,
    ) -> str:
        uid = uid or self.next_uid(label)
        if uid in self.vertices:
            raise IntegrityError(f"uid {uid} already exists")
        self.records[uid] = ObjectRecord(envelope=envelope, geometry=geometry)
        self.vertices[uid] = ObjectVertex(
            uid=uid,
            label=label,
            attributes=dict(attributes or {}),
            zone_id=zone_id,
        )
        self._record_written(uid)
        self._reindex(uid, "")
        return uid

    def update_record(self, record_id: str, **fields):
        """Replace fields of a record and mark it for hashing."""
        _assign(self.records[record_id], fields)
        self._record_written(record_id)

    def update_vertex(self, uid: str, **fields):
        """Replace fields of a vertex, mark it for hashing, and move it in
        the zone index if its zone or lifecycle changed."""
        was = _indexed_zone(self.vertices[uid])
        _assign(self.vertices[uid], fields)
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
        self._record_written(uid)
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
        self._index_edge(edge)
        self._edges_dirty = True
        return edge

    def remove_edges(self, predicate: str | None = None,
                     subject: str | None = None, obj: str | None = None) -> list[RelationEdge]:
        removed = self.find_edges(predicate, subject, obj)
        if removed:
            gone = {id(e) for e in removed}
            self.edges = [e for e in self.edges if id(e) not in gone]
            for index, keys in ((self._by_subject, {e.subject for e in removed}),
                                (self._by_object, {e.obj for e in removed})):
                for key in keys:
                    index[key] = [e for e in index[key] if id(e) not in gone]
            self._edges_dirty = True
        return removed

    def set_edges(self, edges: list[RelationEdge]):
        """Replace the whole edge list, as captured earlier."""
        self.edges = list(edges)
        self._index_edges()

    def _index_edge(self, edge: RelationEdge):
        self._by_subject.setdefault(edge.subject, []).append(edge)
        self._by_object.setdefault(edge.obj, []).append(edge)

    def _index_edges(self):
        self._by_subject: dict[str, list[RelationEdge]] = {}
        self._by_object: dict[str, list[RelationEdge]] = {}
        for edge in self.edges:
            self._index_edge(edge)
        self._edges_dirty = True

    def find_edges(self, predicate: str | None = None,
                   subject: str | None = None, obj: str | None = None) -> list[RelationEdge]:
        """Matching edges in edge-list order, read from the subject or
        object index when either end is given."""
        candidates = self.edges
        if subject is not None:
            candidates = self._by_subject.get(subject, ())
        if obj is not None:
            by_obj = self._by_object.get(obj, ())
            if subject is None or len(by_obj) < len(candidates):
                candidates = by_obj
        return [
            e for e in candidates
            if (predicate is None or e.predicate == predicate)
            and (subject is None or e.subject == subject)
            and (obj is None or e.obj == obj)
        ]

    def neighbors(self, uids) -> set[str]:
        """Endpoints of every edge that has one end in ``uids``: the 1-hop
        neighbors, whatever the edge's status."""
        out = set()
        for uid in set(uids):
            out.update(e.obj for e in self._by_subject.get(uid, ()))
            out.update(e.subject for e in self._by_object.get(uid, ()))
        return out

    def is_clear(self, uid: str) -> bool:
        """No unrefuted On edge has ``uid`` as its support."""
        return not any(
            e.status != EdgeStatus.REFUTED
            for e in self.find_edges(predicate="On", obj=uid)
        )

    def held_uids(self) -> list[str]:
        """Vertices whose record is attached to the gripper, in the order
        of the vertex table."""
        held = {uid for uid in self._held if uid in self.vertices}
        if len(held) > 1:
            return [uid for uid in self.vertices if uid in held]
        return list(held)

    def check_integrity(self):
        """Every live vertex has a record under its uid, and every vertex's
        zone is a zone or none (""). Every record is attached to the world
        or the gripper. Every edge endpoint is a vertex or a zone, the rule
        ``add_edge`` applies."""
        archived, zones, records, vertices = Lifecycle.ARCHIVED, self.zones, self.records, self.vertices
        for uid, v in vertices.items():
            if v.lifecycle is not archived and uid not in records:
                raise IntegrityError(f"live vertex {uid} has no record")
            if v.zone_id != "" and v.zone_id not in zones:
                raise IntegrityError(f"vertex {uid} is in unknown zone {v.zone_id}")
        for uid, r in records.items():
            if r.attached_to not in ("world", "gripper"):
                raise IntegrityError(f"record {uid} is attached to {r.attached_to!r}")
        for e in self.edges:
            for endpoint in (e.subject, e.obj):
                if endpoint not in vertices and endpoint not in zones:
                    raise IntegrityError(f"edge endpoint {endpoint} does not exist")

    # -- queries -----------------------------------------------------------

    def entities_in_zone(self, zone_id: str) -> list[ObjectVertex]:
        """Non-archived vertices in a zone, read from the zone index, which
        holds no archived vertex."""
        if zone_id not in self.zones:
            raise WorkcellError(f"unknown zone {zone_id}")
        return [self.vertices[uid] for uid in sorted(self._zone_index.get(zone_id, ()))]

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            **{name: section(self) for name, section in _HEAD_SECTIONS.items()},
            "records": {uid: _record_doc(r) for uid, r in self.records.items()},
            "vertices": {uid: _vertex_doc(v) for uid, v in self.vertices.items()},
            "edges": [_edge_doc(e) for e in self.edges],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorldStore":
        if data.get("version") != STORE_SCHEMA_VERSION:
            raise WorkcellError(f"unsupported store schema {data.get('version')}")

        store = cls.__new__(cls)
        store._uid_counters = dict(data["uid_counters"])
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
        records = data["records"]
        try:
            envelopes = envelope_stack(
                [r["envelope"]["mean"] for r in records.values()],
                [r["envelope"]["covariance"] for r in records.values()])
        except (KeyError, TypeError, ValueError):
            # A refused document: each envelope is built as its record is,
            # so that the fault raised is the first in document order.
            envelopes = (GaussianEnvelope(r["envelope"]["mean"], r["envelope"]["covariance"])
                         for r in records.values())
        store.records = {rid: ObjectRecord(envelope, geom_from_dict(r["geometry"]), r["attached_to"])
                         for (rid, r), envelope in zip(records.items(), envelopes)}
        lifecycles, statuses = Lifecycle._value2member_map_, EdgeStatus._value2member_map_
        store.vertices = {
            uid: ObjectVertex(uid, v["label"], dict(v["attributes"]),
                              _member(Lifecycle, lifecycles, v["lifecycle"]),
                              v["confidence"], v["zone_id"])
            for uid, v in data["vertices"].items()}
        store.edges = [RelationEdge(e["predicate"], e["subject"], e["object"],
                                    _member(EdgeStatus, statuses, e["status"]))
                       for e in data["edges"]]
        store._derive()
        store.check_integrity()
        return store

    def serialize(self) -> str:
        return canonical_dumps(self.to_dict())

    # -- hashing -----------------------------------------------------------

    def _clear_hash_cache(self):
        """Forget every cached text and mark the whole document dirty."""
        # Per table: uid -> the '"uid":{...}' text of its entry, in sorted
        # uid order, and the uids written since the last hash.
        self._texts: dict[str, dict[str, str]] = {"records": {}, "vertices": {}}
        self._dirty: dict[str, set[str]] = {"records": set(self.records),
                                            "vertices": set(self.vertices)}
        self._edges_dirty = True
        self._dirty_head: set[str] = set(_HEAD_SECTIONS)
        self._sections: dict[str, Encoded] = {}  # top-level key -> its value's text
        self._digest = ""

    def state_hash(self) -> str:
        """``sha256(serialize())``, assembled from cached texts.

        Writes mark what they touch. Only the marked records and vertices
        are formatted again, each in one format with floats as ``repr``. A
        table with a marked entry lays out its entries' texts again, sorted
        again only when a uid came into it; a marked edge list lays out the
        texts its edges keep; a marked head section is encoded again. No
        section is joined on its own: ``sha256_of``
        hashes the document that ``canonical_dumps`` joins once from all
        the pieces. When nothing is marked, the last digest is returned.
        """
        sections = self._sections
        changed = False
        for name, table, to_text in (("records", self.records, _record_text),
                                     ("vertices", self.vertices, _vertex_text)):
            dirty = self._dirty[name]
            if not dirty:
                continue
            texts, added = self._texts[name], False
            for uid in dirty:
                value = table.get(uid)
                if value is None:
                    texts.pop(uid, None)
                else:
                    added = added or uid not in texts
                    texts[uid] = to_text(uid, value)
            dirty.clear()
            if added:
                self._texts[name] = texts = dict(sorted(texts.items()))
            sections[name] = encoded_object(texts.values())
            changed = True
        if self._edges_dirty:
            self._edges_dirty = False
            sections["edges"] = encoded_array([e.text for e in self.edges])
            changed = True
        if self._dirty_head:
            for name in self._dirty_head:
                sections[name] = encoded(_HEAD_SECTIONS[name](self))
            self._dirty_head.clear()
            changed = True
        if changed:
            self._digest = sha256_of(sections)
        return self._digest


def _zones_doc(store: WorldStore) -> dict:
    return {
        z.zone_id: {
            "name": z.name,
            "reachable": list(z.reachable),
            "extent": None if z.extent is None else {
                "center": z.extent.center.tolist(),
                "half_extents": z.extent.half_extents.tolist(),
                "rotation": z.extent.rotation.tolist(),
            },
        }
        for z in store.zones.values()
    }


# The document's sections other than records, vertices and edges, in
# document order; each is encoded on its own for ``state_hash``.
_HEAD_SECTIONS = {
    "version": lambda store: STORE_SCHEMA_VERSION,
    "robot_zone": lambda store: store.robot_zone,
    "uid_counters": lambda store: dict(store._uid_counters),
    "zones": _zones_doc,
}


def _text(value) -> str:
    """``encode(value)``, without the encoder's call for a str or a finite
    float, whose ``repr`` is the text the encoder writes for it."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is float and value - value == 0:  # inf - inf and nan - nan are nan
        return repr(value)
    return encode(value)


def _record_text(uid: str, r: ObjectRecord) -> str:
    """``"uid":`` and the encoded ``_record_doc(r)`` in one format: envelope
    entries are finite floats, and the geometry keeps its own text."""
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = r.envelope.covariance.tolist()
    x, y, z = r.envelope.mean.tolist()
    geometry = "null" if r.geometry is None else r.geometry.text
    return (f'{encode_basestring_ascii(uid)}:{{"attached_to":{_text(r.attached_to)},'
            f'"envelope":{{"covariance":[[{c00!r},{c01!r},{c02!r}],[{c10!r},{c11!r},{c12!r}],'
            f'[{c20!r},{c21!r},{c22!r}]],"mean":[{x!r},{y!r},{z!r}]}},"geometry":{geometry}}}')


def _vertex_text(uid: str, v: ObjectVertex) -> str:
    """``"uid":`` and the encoded ``_vertex_doc(v)`` in one format."""
    return (f'{encode_basestring_ascii(uid)}:{{"attributes":'
            f'{encode(v.attributes) if v.attributes else "{}"},'
            f'"confidence":{_text(v.confidence)},"label":{_text(v.label)},'
            f'"lifecycle":{encode_basestring_ascii(v.lifecycle._value_)},'
            f'"zone_id":{_text(v.zone_id)}}}')


def _record_doc(r: ObjectRecord) -> dict:
    return {
        "envelope": {"mean": r.envelope.mean.tolist(),
                     "covariance": r.envelope.covariance.tolist()},
        "geometry": geom_to_dict(r.geometry),
        "attached_to": r.attached_to,
    }


# The documents below read an enum member's value as ``_value_``, the
# attribute the ``value`` property returns, because they run once per entity
# and edge on every full encode and the property costs two Python calls.


def _vertex_doc(v: ObjectVertex) -> dict:
    return {
        "label": v.label,
        "attributes": dict(v.attributes),
        "lifecycle": v.lifecycle._value_,
        "confidence": v.confidence,
        "zone_id": v.zone_id,
    }


def _edge_doc(e: RelationEdge) -> dict:
    return {"predicate": e.predicate, "subject": e.subject,
            "object": e.obj, "status": e.status._value_}


def geom_to_dict(g: GeomAbstraction | None):
    if g is None:
        return None
    if isinstance(g, (PointsGeom, VoxelsGeom, BillboardGeom)):
        return g.doc()
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
    bounds = None if record.geometry is None else record.geometry.bounds
    return record.envelope.box if bounds is None else bounds


def _endpoint_record(store: WorldStore, uid: str) -> ObjectRecord:
    rec = store.records.get(uid)
    if rec is None:
        raise IntegrityError(f"relation endpoint {uid} has no record")
    return rec


def _mahal_sq(diff: np.ndarray, cov: np.ndarray) -> float:
    return float(diff @ cholesky_solve(cov, diff))


def verify_relation(edge: RelationEdge, store: WorldStore) -> EdgeStatus:
    """Geometric/statistical test for a hypothesized relation."""
    a = _endpoint_record(store, edge.subject)
    b = _endpoint_record(store, edge.obj)
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
        ok = False  # the store holds no mating frame to check a pose against
    elif pred == "Clear":
        ok = store.is_clear(edge.subject)
    else:
        raise WorkcellError(f"no verification rule for predicate {pred}")
    return EdgeStatus.VERIFIED if ok else EdgeStatus.REFUTED


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
        rec = store.records.get(uid)
        if rec is None:
            continue
        d = mahalanobis_between(obs.envelope, rec.envelope)
        if d < cfg.tau_geo and d < best_d:
            best, best_d = uid, d
    return best


# -- register / update -------------------------------------------------------


@dataclass
class StoreDelta:
    promoted: list[str] = field(default_factory=list)
    restored: list[str] = field(default_factory=list)


def register_or_update(
    store: WorldStore,
    observations: list[Observation],
    match: MatchResult,
    memory_uids: list[str],
    gammas: dict[int, float],
    zone_id: str,
    fused: dict[str, tuple[GaussianEnvelope, bytes]],
    pending: list[Observation],
    cfg: AssociationConfig | None = None,
) -> StoreDelta:
    """Apply an association outcome: fuse matches, and restore or confirm
    each unmatched observation. One that restores no archived entity takes
    the first sighting in ``pending`` (oldest first) with its label inside
    ``tau_geo`` and is promoted to a new entity, or else joins ``pending``,
    which then keeps only this cycle's sightings that nothing took.

    memory_uids maps match-result memory indices back to store uids;
    gammas maps observation indices to fusion weights.

    ``fused`` maps a record uid to the observation envelope last fused
    into the record and the bytes of the envelope that fusion produced.
    Every fusion here, a restore's included, writes its entry, and so does
    a promotion, with the founding observation. A matched observation is
    then fused into a record once: not again while its envelope is that
    same object and the record's envelope still has those bytes. It
    replaces a stored geometry that is not its own at gamma above 0.1,
    fused or not. A match to a held record, which the Pick and Move
    effects write, writes nothing.
    """
    cfg = cfg or AssociationConfig()
    delta = StoreDelta()

    def remember(uid: str, obs: Observation, envelope: GaussianEnvelope) -> GaussianEnvelope:
        """Note in the memo that ``envelope`` holds ``obs``'s measurement."""
        fused[uid] = obs.envelope, _envelope_bytes(envelope)
        return envelope

    for obs_idx, mem_idx, _cost in match.matched:
        uid = memory_uids[mem_idx]
        gamma = gammas.get(obs_idx, 1.0)
        obs = observations[obs_idx]
        rec = store.records[uid]
        if rec.attached_to == "gripper":
            continue
        last = fused.get(uid)
        fields = {}
        if (last is None or last[0] is not obs.envelope
                or last[1] != _envelope_bytes(rec.envelope)):
            fields["envelope"] = remember(uid, obs, fuse(rec.envelope, obs.envelope, gamma))
        if gamma > 0.1 and obs.geometry is not None and obs.geometry is not rec.geometry:
            fields["geometry"] = obs.geometry
        if fields:
            store.update_record(uid, **fields)

    stale = len(pending)  # sightings from earlier cycles lead the window
    for obs_idx in match.unmatched_observations:
        obs = observations[obs_idx]
        restored = restore_candidates(store, obs, cfg)
        if restored is not None:
            store.update_vertex(restored, confidence=1.0, lifecycle=Lifecycle.ACTIVE)
            store.update_record(restored, envelope=remember(restored, obs, fuse(
                store.records[restored].envelope, obs.envelope, gammas.get(obs_idx, 1.0))))
            delta.restored.append(restored)
            continue
        seen = next((i for i, p in enumerate(pending) if p.label == obs.label
                     and mahalanobis_between(p.envelope, obs.envelope) < cfg.tau_geo), None)
        if seen is None:
            pending.append(obs)
            continue
        del pending[seen]
        if seen < stale:
            stale -= 1
        uid = store.add_entity(obs.label, obs.envelope, zone_id, geometry=obs.geometry)
        remember(uid, obs, obs.envelope)
        delta.promoted.append(uid)
    del pending[:stale]  # sightings not seen again this cycle fall out
    return delta


def _envelope_bytes(envelope: GaussianEnvelope) -> bytes:
    return envelope.mean.tobytes() + envelope.covariance.tobytes()
