"""Persistent store: graph, persistence and hashing, relation
verification, lifecycle curation, and the register/update pipeline."""

import ast
import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

import workcell
from workcell.association import AssociationConfig, MatchResult
from workcell.cognition import ValidationStage, validate_ert
from workcell.errors import IntegrityError, WorkcellError
from workcell.geometry import GaussianEnvelope, PointCloudData
from workcell.harness import build_store, build_world
from workcell.perception import BillboardGeom, Observation, PointsGeom, VoxelsGeom
from workcell.serialization import (
    canonical_dumps,
    encode,
    encoded,
    encoded_array,
    encoded_object,
    json_line,
)
from workcell.transactions import (
    ConstraintState,
    FTEvent,
    FTSignal,
    TransactionEntry,
    TransactionLog,
    TransitionStatus,
    apply_inverse,
    apply_transition,
    capture_inverse,
    check_commit,
    rollback,
    state_bytes,
)
from workcell.world_model import (
    EdgeStatus,
    LAMBDA_DECAY,
    Lifecycle,
    ObjectRecord,
    ObjectVertex,
    RelationEdge,
    ROBOT_UID,
    TAU_ARCHIVE,
    TAU_UNCERTAIN,
    WorldStore,
    ZoneNode,
    _edge_doc,
    _record_doc,
    _record_text,
    _vertex_doc,
    _vertex_text,
    curate_zone,
    record_bounds,
    register_or_update,
    restore_candidates,
    verify_relation,
)

from fixtures import ert_doc, task1_doc
from oracles import (
    encoded_member,
    find_edges_scan,
    held_uids_scan,
    is_clear_scan,
    neighbors_scan,
    store_digest,
    to_jsonable,
    zone_members,
)


def _env(mean, sigma=0.01):
    return GaussianEnvelope(np.asarray(mean, dtype=float), sigma * np.eye(3))


def _store_with_zone(zone="z1"):
    store = WorldStore()
    store.add_zone(ZoneNode(zone, zone))
    store.robot_zone = zone
    return store


def _obs(label, mean, sigma=0.01, geometry=None):
    return Observation(label=label, geometry=geometry, envelope=_env(mean, sigma))


# -- graph mutation and queries ----------------------------------------------


def test_add_entity_and_grounding_invariant():
    store = _store_with_zone()
    uid = store.add_entity("bolt", _env([0, 0, 0]), "z1")
    assert uid == "bolt_1"
    assert store.vertices[uid].uid == uid
    assert store.records[uid].envelope.mean.tolist() == [0, 0, 0]
    # Second entity of the same label gets a fresh uid.
    assert store.add_entity("bolt", _env([1, 0, 0]), "z1") == "bolt_2"
    with pytest.raises(IntegrityError):
        store.add_entity("bolt", _env([0, 0, 0]), "z1", uid="bolt_1")


def test_edges_require_existing_endpoints():
    store = _store_with_zone()
    uid = store.add_entity("bolt", _env([0, 0, 0]), "z1")
    store.add_edge("Near", uid, "z1")  # zone endpoints are legal
    with pytest.raises(IntegrityError):
        store.add_edge("On", uid, "ghost")


def test_find_and_remove_edges():
    store = _store_with_zone()
    a = store.add_entity("a", _env([0, 0, 0]), "z1")
    b = store.add_entity("b", _env([0, 0, 0.03]), "z1")
    store.add_edge("On", b, a)
    store.add_edge("Near", a, b)
    assert len(store.find_edges(predicate="On")) == 1
    assert store.neighbors({a}) == {b} and store.neighbors([]) == set()
    removed = store.remove_edges(subject=b)
    assert [e.predicate for e in removed] == ["On"]
    assert [e.predicate for e in store.edges] == ["Near"]


def test_entities_in_zone_uses_index_and_skips_archived():
    store = _store_with_zone()
    store.add_zone(ZoneNode("z2", "z2"))
    a = store.add_entity("a", _env([0, 0, 0]), "z1")
    store.add_entity("b", _env([0, 0, 0]), "z2")
    assert [v.uid for v in store.entities_in_zone("z1")] == [a]
    store.update_vertex(a, lifecycle=Lifecycle.ARCHIVED)
    assert store.entities_in_zone("z1") == []
    with pytest.raises(WorkcellError):
        store.entities_in_zone("nope")


def test_integrity_check_detects_dangling_grounding():
    # Every live vertex has a record under its uid.
    store = _store_with_zone()
    uid = store.add_entity("a", _env([0, 0, 0]), "z1")
    doc = store.to_dict()
    del store.records[uid]
    with pytest.raises(IntegrityError):
        store.check_integrity()
    # A document that breaks the invariant is refused on load, whatever the
    # vertex's lifecycle, unless the vertex is archived.
    del doc["records"][uid]
    for lifecycle in ("Active", "Uncertain"):
        doc["vertices"][uid]["lifecycle"] = lifecycle
        with pytest.raises(IntegrityError, match=f"live vertex {uid} has no record"):
            WorldStore.from_dict(doc)
    doc["vertices"][uid]["lifecycle"] = "Archived"
    assert WorldStore.from_dict(doc).to_dict() == doc


@pytest.mark.parametrize("fault, message", [
    ("edge_to_ghost", "edge endpoint ghost does not exist"),
    ("attached_to_5", "record a_1 is attached to 5"),
    ("zone_nowhere", "vertex a_1 is in unknown zone nowhere"),
])
def test_from_dict_refuses_what_the_store_cannot_use(fault, message):
    """A document is refused where the store's writers would refuse it: an
    edge endpoint that is neither a vertex nor a zone (``add_edge``'s
    rule), a record attached to neither the world nor the gripper, and a
    vertex in a zone the store lacks."""
    store = _store_with_zone()
    store.add_entity("a", _env([0, 0, 0]), "z1")
    store.add_edge("On", "a_1", "z1")
    doc = store.to_dict()
    assert WorldStore.from_dict(doc).to_dict() == doc
    if fault == "edge_to_ghost":
        doc["edges"][0]["object"] = "ghost"
    elif fault == "attached_to_5":
        doc["records"]["a_1"]["attached_to"] = 5
    else:
        doc["vertices"]["a_1"]["zone_id"] = "nowhere"
    with pytest.raises(IntegrityError, match=message):
        WorldStore.from_dict(doc)


# -- persistence --------------------------------------------------------------


def _populated_store():
    store = _store_with_zone()
    store.add_zone(ZoneNode("z2", "far", reachable=["z1"]))
    a = store.add_entity(
        "gear", _env([0.1, 0.2, 0.3]), "z1",
        geometry=PointsGeom(PointCloudData(np.arange(12.0).reshape(4, 3))),
        attributes={"color": "red"},
    )
    b = store.add_entity("slot", _env([0.1, 0.2, 0.1]), "z1")
    store.update_vertex(b, lifecycle=Lifecycle.UNCERTAIN, confidence=0.5)
    store.add_edge("On", a, b, EdgeStatus.VERIFIED)
    return store


def test_serialization_roundtrip_lossless():
    store = _populated_store()
    geometries = {
        store.add_entity("bin", _env([1.0, 0.0, 0.1]), "z2", geometry=VoxelsGeom(
            np.array([[20, 0, 1], [21, 0, 2]]), 0.05)): VoxelsGeom,
        store.add_entity("crate", _env([2.0, 0.5, 0.2]), "z2", geometry=BillboardGeom(
            "frame_7#3", np.array([0.0, 0.6, 0.8]), np.array([2.0, 0.5, 0.2]))): BillboardGeom,
    }
    clone = WorldStore.from_dict(store.to_dict())
    assert clone.state_hash() == store.state_hash()
    assert clone.serialize() == store.serialize()
    for uid, kind in geometries.items():
        assert type(clone.records[uid].geometry) is kind
    # The round-tripped store keeps working (indexes rebuilt).
    assert {v.uid for v in clone.entities_in_zone("z1")} == {"gear_1", "slot_1"}
    # A briefing store puts the robot in a zone; the clone's index must
    # still leave it out, like the original's.
    doc = task1_doc()
    briefed = build_store(doc, build_world(doc))
    assert briefed.vertices[ROBOT_UID].zone_id == doc["robot"]["zone"]
    clone = WorldStore.from_dict(briefed.to_dict())
    assert clone.serialize() == briefed.serialize()
    assert clone.robot_zone == briefed.robot_zone
    for zone_id in briefed.zones:
        uids = [v.uid for v in clone.entities_in_zone(zone_id)]
        assert uids == [v.uid for v in briefed.entities_in_zone(zone_id)]
        assert uids == zone_members(briefed, zone_id)


def test_document_with_the_old_occupancy_section_resumes():
    # Stores persisted before the occupancy map was deleted carry a
    # "background" section; resuming ignores it.
    doc = _populated_store().to_dict()
    old = {**doc, "background": {"cell_size": 0.05, "bounds": None, "voxels": [
        {"index": [0, 1, 2], "log_odds": 0.85, "classes": {}}]}}
    assert WorldStore.from_dict(old).serialize() == WorldStore.from_dict(doc).serialize()
    # Stores persisted before the shape priors were deleted carry a
    # "priors" table and a "shape_prior" link in every record; resuming
    # ignores both.
    old = copy.deepcopy(doc)
    old["priors"] = {"gear_prior": {
        "points": np.eye(3).tolist(), "grasp_annotations": [],
        "functional_frame": {"rotation": np.eye(3).tolist(), "translation": [0, 0, 0.02]}}}
    for rid, r in old["records"].items():
        r["shape_prior"] = "gear_prior" if rid == "slot_1" else None
    assert WorldStore.from_dict(old).serialize() == WorldStore.from_dict(doc).serialize()
    # Stores persisted before records and vertices shared one uid carry a
    # pose in every record, and a grounding link and a state tag in every
    # vertex; resuming ignores all three.
    old = copy.deepcopy(doc)
    for rid, r in old["records"].items():
        r["pose"] = None if rid != "slot_1" else {
            "rotation": np.eye(3).tolist(), "translation": [0.1, 0.2, 0.1]}
    for uid, v in old["vertices"].items():
        v["grounding"], v["state_tag"] = uid, ""
    resumed = WorldStore.from_dict(old)
    assert resumed.serialize() == WorldStore.from_dict(doc).serialize() == canonical_dumps(doc)
    assert resumed.entities_in_zone("z1") == WorldStore.from_dict(doc).entities_in_zone("z1")


def test_a_loosely_written_document_resumes_to_its_digest():
    # A document written by hand: ints where floats go, tables out of uid
    # order, and keys no reader reads. The resumed store keeps the ints it
    # was given outside the envelopes, and hashes as its own document.
    doc = _populated_store().to_dict()
    doc["records"]["gear_1"]["envelope"] = {"mean": [5, 0, 0], "note": "by hand",
                                            "covariance": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    doc["vertices"]["slot_1"]["confidence"] = 1
    for table in ("records", "vertices"):
        doc[table] = {uid: {**entry, "note": "by hand"}
                      for uid, entry in sorted(doc[table].items(), reverse=True)}
    doc["edges"] = [{**e, "note": "by hand"} for e in doc["edges"]]
    doc["note"] = "by hand"
    text = json.dumps(doc, sort_keys=True)
    store = WorldStore.from_dict(doc)
    assert store.records["gear_1"].envelope.mean.tolist() == [5.0, 0.0, 0.0]
    assert type(store.vertices["slot_1"].confidence) is int
    assert store.state_hash() == store_digest(store)
    assert json.dumps(doc, sort_keys=True) == text


def _stock_doc(n=500):
    """A store document with n remembered entities and n/2 On edges."""
    store = _store_with_zone()
    rng = np.random.default_rng(11)
    for i in range(n):
        a = rng.normal(size=(3, 3))
        env = GaussianEnvelope(rng.normal(size=3), 1e-3 * a @ a.T + 1e-4 * np.eye(3))
        store.add_entity("gear", env, "z1", uid=f"stock_{i:03d}")
    for k in range(n // 2):
        store.add_edge("On", f"stock_{2 * k:03d}", f"stock_{2 * k + 1:03d}", EdgeStatus.VERIFIED)
    return store.to_dict()


def test_from_dict_checks_envelopes_without_the_constructor(monkeypatch):
    doc = _stock_doc()
    text = json.dumps(doc, sort_keys=True)
    calls = []
    post_init = GaussianEnvelope.__post_init__
    monkeypatch.setattr(GaussianEnvelope, "__post_init__",
                        lambda env: calls.append(1) or post_init(env))
    store = WorldStore.from_dict(doc)
    assert calls == []
    monkeypatch.undo()
    # The same bits as record by record, and the input left as it was.
    for rid, r in doc["records"].items():
        built = GaussianEnvelope(r["envelope"]["mean"], r["envelope"]["covariance"])
        env = store.records[rid].envelope
        assert env.mean.tobytes() == built.mean.tobytes()
        assert env.covariance.tobytes() == built.covariance.tobytes()
    assert store.serialize() == canonical_dumps(doc)
    assert json.dumps(doc, sort_keys=True) == text


def _refusal(fn, *args):
    try:
        fn(*args)
    except (ValueError, TypeError, KeyError, WorkcellError) as exc:
        return type(exc).__name__, str(exc)
    return None


def test_from_dict_refuses_as_record_by_record():
    doc = _stock_doc(20)
    faults = {  # covariance of stock_007 -> what the constructor says of it
        "asymmetric": [[1e-2, 1e-3, 0], [0, 1e-2, 0], [0, 0, 1e-2]],
        "below floor": np.diag([1e-12, 1.0, 1.0]).tolist(),
        "non-finite": [[float("nan"), 0, 0], [0, 1, 0], [0, 0, 1]],
        "ragged": [[1, 0, 0], [0, 1], [0, 0, 1]],
        "flat": np.eye(3).ravel().tolist(),
    }
    for name, cov in faults.items():
        bad = copy.deepcopy(doc)
        bad["records"]["stock_007"]["envelope"]["covariance"] = cov
        mean = bad["records"]["stock_007"]["envelope"]["mean"]
        expected = _refusal(GaussianEnvelope, mean, cov)
        assert _refusal(WorldStore.from_dict, bad) == expected, name
        if expected is not None:
            # A fault in an earlier record is the one raised.
            bad["records"]["stock_003"]["geometry"] = {"kind": "mesh"}
            assert _refusal(WorldStore.from_dict, bad) == (
                "WorkcellError", "unknown geometry kind mesh"), name
    # An unknown lifecycle or edge status is refused as the enum refuses it.
    for section, key, value, enum in (("vertices", "lifecycle", "Gone", Lifecycle),
                                      ("vertices", "lifecycle", ["Active"], Lifecycle),
                                      ("edges", "status", "Maybe", EdgeStatus)):
        bad = copy.deepcopy(doc)
        entry = bad[section]["stock_001"] if section == "vertices" else bad[section][0]
        entry[key] = value
        assert _refusal(WorldStore.from_dict, bad) == _refusal(enum, value)
        assert _refusal(enum, value)[0] == "ValueError"


_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**53, 2**53), st.text(max_size=8),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(-2**31, 2**31).map(np.int64),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4).map(np.array),
    st.lists(st.integers(-100, 100), max_size=4).map(
        lambda xs: np.array(xs, dtype=np.int64).reshape(-1, 1)),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_json_values)
def test_one_pass_encoders_match_recursive_encoder(value):
    reference = to_jsonable(value)
    assert canonical_dumps(value) == json.dumps(
        reference, sort_keys=True, separators=(",", ":")
    )
    assert json_line(value) == json.dumps(reference, sort_keys=True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.dictionaries(st.text(max_size=6), _json_values, max_size=5))
def test_encoded_parts_join_to_the_canonical_text(doc):
    whole = canonical_dumps(doc)
    assert canonical_dumps({key: encoded(value) for key, value in doc.items()}) == whole
    pieces = {"doc": encoded_object([encoded_member(key, doc[key]) for key in sorted(doc)]),
              "items": encoded_array([encode(value) for value in doc.values()])}
    assert canonical_dumps(pieces) == canonical_dumps({"doc": doc, "items": list(doc.values())})


_finite = st.floats(-1e6, 1e6, allow_nan=False)
_geometry = st.one_of(
    st.none(),
    st.lists(st.tuples(_finite, _finite, _finite), max_size=6).map(
        lambda ps: PointsGeom(PointCloudData(np.array(ps, dtype=float).reshape(-1, 3)))),
    st.builds(lambda cells, size: VoxelsGeom(np.array(cells, dtype=np.int64).reshape(-1, 3),
                                             size),
              st.lists(st.tuples(*[st.integers(-10**6, 10**6)] * 3), max_size=6),
              st.floats(1e-3, 1.0)),
    st.builds(lambda ref, centroid: BillboardGeom(ref, [0.0, 0.6, 0.8], centroid),
              st.text(max_size=8), st.tuples(_finite, _finite, _finite)),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.text(max_size=8), _geometry, st.sampled_from(["world", "gripper"]),
       st.tuples(_finite, _finite, _finite), st.floats(1e-4, 10.0))
def test_record_text_is_the_encoded_record_document(uid, geometry, attached_to, mean, sigma):
    record = ObjectRecord(_env(mean, sigma), geometry, attached_to)
    assert _record_text(uid, record) == encoded_member(uid, _record_doc(record))


# Vertex and edge fields the store keeps as the document gives them: any
# float (the finite ones are formatted, the rest encoded), an int, a bool
# or a numpy scalar; and a string, non-ASCII or quoted, or an int.
_confidences = st.one_of(
    st.floats(), st.sampled_from([-0.0, 1e16, 5e-324, 1.0]), st.integers(-2**63, 2**63),
    st.booleans(), st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**31, 2**31).map(np.int64),
)
_names = st.one_of(st.text(max_size=8), st.sampled_from(["Ä", "é\u2028", 'say "on"', "a\\b"]),
                   st.integers())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(max_size=8), _names, st.dictionaries(st.text(max_size=6), _json_values, max_size=3),
       st.sampled_from(Lifecycle), _confidences, st.text(max_size=8))
def test_vertex_text_is_the_encoded_vertex_document(uid, label, attributes, lifecycle,
                                                    confidence, zone_id):
    vertex = ObjectVertex(uid, label, attributes, lifecycle, confidence, zone_id)
    assert _vertex_text(uid, vertex) == encoded_member(uid, _vertex_doc(vertex))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_names, st.text(max_size=8), st.text(max_size=8), st.sampled_from(EdgeStatus))
def test_edge_text_is_the_encoded_edge_document(predicate, subject, obj, status):
    edge = RelationEdge(predicate, subject, obj, status)
    assert edge.text == encode(_edge_doc(edge))


def test_encoders_reject_what_json_cannot_hold():
    for value in ({"x": object()}, [np.bool_(True)], {"s": {1, 2}}):
        with pytest.raises(TypeError):
            canonical_dumps(value)
        with pytest.raises(TypeError):
            json_line(value)


def test_serialization_rejects_unknown_schema():
    data = WorldStore().to_dict()
    data["version"] = 999
    with pytest.raises(WorkcellError):
        WorldStore.from_dict(data)


def test_snapshot_is_independent():
    store = _populated_store()
    snap = copy.deepcopy(store)
    store.update_vertex("gear_1", confidence=0.1)
    assert snap.vertices["gear_1"].confidence == 1.0


# -- relation verification ----------------------------------------------------


def _pair_store(mean_a, mean_b, sigma_a=0.01, sigma_b=0.01):
    store = _store_with_zone()
    a = store.add_entity("a", _env(mean_a, sigma_a), "z1")
    b = store.add_entity("b", _env(mean_b, sigma_b), "z1")
    return store, a, b


def test_verify_contact():
    store, a, b = _pair_store([0, 0, 0], [0.05, 0, 0])
    assert verify_relation(RelationEdge("Contact", a, b), store) == EdgeStatus.VERIFIED
    store2, a2, b2 = _pair_store([0, 0, 0], [1.0, 0, 0])
    assert verify_relation(RelationEdge("Contact", a2, b2), store2) == EdgeStatus.REFUTED


def test_verify_inside_uses_container_covariance_only():
    # Tight part inside a loose container: the part's own (tiny) covariance
    # must not make the test fail.
    store = _store_with_zone()
    part = store.add_entity("part", _env([0.1, 0, 0], sigma=1e-6), "z1")
    box = store.add_entity("box", _env([0, 0, 0], sigma=0.04), "z1")
    assert verify_relation(RelationEdge("Inside", part, box), store) == EdgeStatus.VERIFIED
    # Same geometry with the roles flipped: the part cannot contain the box.
    assert verify_relation(RelationEdge("Inside", box, part), store) == EdgeStatus.REFUTED


def test_verify_near_threshold():
    store, a, b = _pair_store([0, 0, 0], [0.29, 0, 0])
    assert verify_relation(RelationEdge("Near", a, b), store) == EdgeStatus.VERIFIED
    store2, a2, b2 = _pair_store([0, 0, 0], [0.31, 0, 0])
    assert verify_relation(RelationEdge("Near", a2, b2), store2) == EdgeStatus.REFUTED


def _boxed(store, label, center, he):
    lo = np.asarray(center) - np.asarray(he)
    hi = np.asarray(center) + np.asarray(he)
    pts = np.array([lo, hi, [lo[0], hi[1], lo[2]], [hi[0], lo[1], hi[2]]])
    return store.add_entity(
        label, _env(center), "z1", geometry=PointsGeom(PointCloudData(pts))
    )


def test_verify_on_support_geometry():
    store = _store_with_zone()
    table = _boxed(store, "table", [0, 0, 0.05], [0.5, 0.5, 0.05])
    cup = _boxed(store, "cup", [0.1, 0.1, 0.14], [0.03, 0.03, 0.04])
    assert verify_relation(RelationEdge("On", cup, table), store) == EdgeStatus.VERIFIED
    # Hovering 5 cm above: vertical gap exceeds the contact tolerance.
    floater = _boxed(store, "floater", [0.1, 0.1, 0.19], [0.03, 0.03, 0.04])
    assert verify_relation(RelationEdge("On", floater, table), store) == EdgeStatus.REFUTED
    # Correct height but horizontally off the support.
    off = _boxed(store, "off", [2.0, 0.0, 0.14], [0.03, 0.03, 0.04])
    assert verify_relation(RelationEdge("On", off, table), store) == EdgeStatus.REFUTED


def test_mating_relations_are_refuted_without_a_mating_frame():
    # Even two records at the very same place: the store holds no mating
    # frame, so neither relation can be verified.
    store = _store_with_zone()
    part = store.add_entity("part", _env([0.1, 0.2, 0.3]), "z1")
    hole = store.add_entity("hole", _env([0.1, 0.2, 0.3]), "z1")
    for pred in ("Aligned", "Inserted"):
        assert verify_relation(RelationEdge(pred, part, hole), store) == EdgeStatus.REFUTED
    # The firewall still checks the belief, and rejects it as physics.
    doc = ert_doc("Insert", {"part": part, "receptacle": hole},
                  {"phase": "Idle", "target": None}, beliefs=[["Aligned", part, hole]])
    ert, report = validate_ert(doc, store)
    assert ert is None and report.failing_stage == ValidationStage.PHYSICAL
    # And no commit rule confirms an Insert.
    seen = {part: np.array([0.1, 0.2, 0.3])}
    assert not check_commit("Insert", {"part": part, "receptacle": hole}, seen,
                            np.zeros(3)).commit


def test_verify_clear_and_unknown_predicate():
    store, a, b = _pair_store([0, 0, 0], [0, 0, 0.02])
    assert verify_relation(RelationEdge("Clear", a, a), store) == EdgeStatus.VERIFIED
    store.add_edge("On", b, a)
    assert verify_relation(RelationEdge("Clear", a, a), store) == EdgeStatus.REFUTED
    # A refuted support blocks nothing; edges are immutable, so replace it.
    store.remove_edges("On", b, a)
    store.add_edge("On", b, a, EdgeStatus.REFUTED)
    assert store.is_clear(a)
    with pytest.raises(WorkcellError):
        verify_relation(RelationEdge("Levitates", a, b), store)


def test_record_bounds_fallback_to_envelope():
    rec = ObjectRecord(_env([1, 1, 1], sigma=0.04))
    lo, hi = record_bounds(rec)
    assert np.allclose(lo, 1 - 2 * 0.2)
    assert np.allclose(hi, 1 + 2 * 0.2)


# -- lifecycle ----------------------------------------------------------------


def test_decay_schedule_uncertain_by_13_archived_at_45():
    store = _store_with_zone()
    uid = store.add_entity("ghost", _env([0, 0, 0]), "z1")
    state_at = {}
    first_archived = None
    for scan in range(1, 60):
        curate_zone(store, "z1", observed_uids=set())
        v = store.vertices[uid]
        state_at[scan] = v.lifecycle
        if first_archived is None and v.lifecycle == Lifecycle.ARCHIVED:
            first_archived = scan
            break
    # 0.95^13 ~ 0.513 < 0.6: after 13 consecutive misses the entity is
    # Uncertain (the strict threshold crossing happens at scan 10).
    assert state_at[13] == Lifecycle.UNCERTAIN
    assert LAMBDA_DECAY ** 13 < TAU_UNCERTAIN
    # Archival lands exactly on miss 45: 0.95^44 ~ 0.105 >= 0.1 > 0.95^45.
    assert first_archived == 45
    assert state_at[44] == Lifecycle.UNCERTAIN
    assert LAMBDA_DECAY ** 44 >= TAU_ARCHIVE > LAMBDA_DECAY ** 45


def test_archived_entity_leaves_candidate_set_then_restores():
    store = _store_with_zone()
    uid = store.add_entity("ghost", _env([0, 0, 0]), "z1",
                           attributes={"serial": "XYZ-1"})
    for _ in range(45):
        curate_zone(store, "z1", observed_uids=set())
    assert store.entities_in_zone("z1") == []
    events = curate_zone(store, "z1", observed_uids={uid})
    kinds = [e.kind for e in events]
    assert "restored" in kinds and "reinforced" in kinds
    v = store.vertices[uid]
    assert v.lifecycle == Lifecycle.ACTIVE
    assert v.confidence == 1.0
    assert v.attributes == {"serial": "XYZ-1"}  # attributes survive archival
    assert [v.uid for v in store.entities_in_zone("z1")] == [uid]


def test_observation_resets_confidence():
    store = _store_with_zone()
    uid = store.add_entity("a", _env([0, 0, 0]), "z1")
    for _ in range(5):
        curate_zone(store, "z1", observed_uids=set())
    assert store.vertices[uid].confidence < 1.0
    curate_zone(store, "z1", observed_uids={uid})
    assert store.vertices[uid].confidence == 1.0


def test_reinforcing_an_active_entity_writes_nothing(monkeypatch):
    store = _store_with_zone()
    a = store.add_entity("a", _env([0, 0, 0]), "z1")
    b = store.add_entity("b", _env([1, 0, 0]), "z1")
    for _ in range(3):
        curate_zone(store, "z1", observed_uids={a})
    first = curate_zone(store, "z1", observed_uids={a, b})
    written = []
    update = WorldStore.update_vertex

    def recorded(self, uid, **fields):
        written.append(uid)
        update(self, uid, **fields)

    monkeypatch.setattr(WorldStore, "update_vertex", recorded)
    assert curate_zone(store, "z1", observed_uids={a, b}) == first
    assert written == []
    assert [(e.kind, e.uid) for e in first] == [("reinforced", a), ("reinforced", b)]


def test_robot_is_never_curated():
    store = _store_with_zone()
    store.robot_zone = "z1"
    assert store.vertices[ROBOT_UID].zone_id == "z1"
    assert store.entities_in_zone("z1") == []
    for _ in range(50):
        curate_zone(store, "z1", observed_uids=set())
    assert store.vertices[ROBOT_UID].lifecycle == Lifecycle.ACTIVE


def test_restore_candidates_label_and_gate():
    store = _store_with_zone()
    uid = store.add_entity("gear", _env([0, 0, 0]), "z1")
    store.update_vertex(uid, lifecycle=Lifecycle.ARCHIVED)
    cfg = AssociationConfig()
    assert restore_candidates(store, _obs("gear", [0.01, 0, 0]), cfg) == uid
    assert restore_candidates(store, _obs("bolt", [0.01, 0, 0]), cfg) is None
    assert restore_candidates(store, _obs("gear", [9, 0, 0]), cfg) is None


# -- register / update --------------------------------------------------------


def test_register_fuses_matched_observation():
    store = _store_with_zone()
    uid = store.add_entity("gear", _env([0, 0, 0], sigma=0.04), "z1")
    obs = _obs("gear", [0.02, 0, 0])
    match = MatchResult(matched=[(0, 0, 0.1)])
    register_or_update(store, [obs], match, [uid], {0: 1.0}, "z1", {}, [])
    mean = store.records[uid].envelope.mean
    assert 0 < mean[0] < 0.02  # pulled toward the observation


def test_low_gamma_keeps_stored_geometry():
    store = _store_with_zone()
    geom = PointsGeom(PointCloudData(np.zeros((2, 3))))
    uid = store.add_entity("gear", _env([0, 0, 0]), "z1", geometry=geom)
    obs = _obs("gear", [0.001, 0, 0],
               geometry=PointsGeom(PointCloudData(np.ones((2, 3)))))
    match = MatchResult(matched=[(0, 0, 0.1)])
    register_or_update(store, [obs], match, [uid], {0: 0.01}, "z1", {}, [])
    assert store.records[uid].geometry is geom
    register_or_update(store, [obs], match, [uid], {0: 1.0}, "z1", {}, [])
    assert store.records[uid].geometry is obs.geometry


def test_a_measurement_is_fused_into_a_record_once():
    """With the memo, a matched observation envelope is fused once whatever
    its gamma; its geometry still
    replaces a stored one at gamma above 0.1. An envelope with the same
    values in a new object is a new measurement."""
    store = _store_with_zone()
    geom = PointsGeom(PointCloudData(np.zeros((2, 3))))
    uid = store.add_entity("gear", _env([0, 0, 0]), "z1", geometry=geom)
    obs = _obs("gear", [0.001, 0, 0],
               geometry=PointsGeom(PointCloudData(np.ones((2, 3)))))
    match = MatchResult(matched=[(0, 0, 0.1)])
    fused = {}
    register_or_update(store, [obs], match, [uid], {0: 0.01}, "z1", fused, [])
    once = store.records[uid].envelope
    assert once.mean.tolist() != [0, 0, 0] and store.records[uid].geometry is geom
    register_or_update(store, [obs], match, [uid], {0: 1.0}, "z1", fused, [])
    assert store.records[uid].envelope is once
    assert store.records[uid].geometry is obs.geometry
    same_values = Observation(obs.label, obs.geometry,
                              GaussianEnvelope(obs.envelope.mean, obs.envelope.covariance))
    register_or_update(store, [same_values], match, [uid], {0: 1.0}, "z1", fused, [])
    assert (store.records[uid].envelope.covariance < once.covariance).all(where=np.eye(3) > 0)


def test_a_restored_or_promoted_record_holds_its_measurement_once():
    """A restore fuses the observation into the archived record, and a
    promotion stores it as the new record's envelope; with the memo, a
    later match of the same observation to that record fuses nothing."""
    store = _store_with_zone()
    gear = store.add_entity("gear", _env([0, 0, 0]), "z1")
    store.update_vertex(gear, lifecycle=Lifecycle.ARCHIVED)
    observations = [_obs("gear", [0.01, 0, 0]), _obs("bolt", [0.5, 0, 0])]
    fused, pending = {}, []
    delta = register_or_update(store, observations, MatchResult(unmatched_observations=[0, 1]),
                               [], {}, "z1", fused, pending)
    assert delta.restored == [gear]
    restored = store.records[gear].envelope
    delta = register_or_update(store, observations,
                               MatchResult(matched=[(0, 0, 0.1)], unmatched_observations=[1]),
                               [gear], {0: 1.0}, "z1", fused, pending)
    assert delta.promoted == ["bolt_1"]
    assert store.records[gear].envelope is restored
    register_or_update(store, observations, MatchResult(matched=[(0, 0, 0.1), (1, 1, 0.1)]),
                       [gear, "bolt_1"], {0: 1.0, 1: 1.0}, "z1", fused, pending)
    assert store.records[gear].envelope is restored
    assert store.records["bolt_1"].envelope is observations[1].envelope


def test_new_track_needs_two_sightings():
    store, pending = _store_with_zone(), []
    obs = _obs("gear", [0.5, 0, 0])
    match = MatchResult(unmatched_observations=[0])
    d1 = register_or_update(store, [obs], match, [], {}, "z1", {}, pending)
    assert d1.promoted == [] and _same(pending, [obs])
    assert "gear_1" not in store.vertices
    d2 = register_or_update(store, [obs], match, [], {}, "z1", {}, pending)
    assert d2.promoted == ["gear_1"] and pending == []
    assert store.vertices["gear_1"].zone_id == "z1"


def test_unsighted_track_is_discarded():
    store, pending = _store_with_zone(), []
    obs = _obs("gear", [0.5, 0, 0])
    register_or_update(
        store, [obs], MatchResult(unmatched_observations=[0]), [], {}, "z1", {}, pending
    )
    assert _same(pending, [obs])
    register_or_update(store, [], MatchResult(), [], {}, "z1", {}, pending)
    assert pending == []


def test_register_restores_archived_before_opening_track():
    store, pending = _store_with_zone(), []
    uid = store.add_entity("gear", _env([0, 0, 0], sigma=0.04), "z1")
    store.update_vertex(uid, lifecycle=Lifecycle.ARCHIVED)
    assert store.entities_in_zone("z1") == []
    obs = _obs("gear", [0.02, 0, 0])
    d = register_or_update(
        store, [obs], MatchResult(unmatched_observations=[0]), [], {0: 1.0}, "z1", {}, pending
    )
    assert d.restored == [uid] and pending == []
    assert store.vertices[uid].lifecycle == Lifecycle.ACTIVE
    assert [v.uid for v in store.entities_in_zone("z1")] == [uid]


def _same(pending, observations):
    """The window holds exactly these observation objects, in this order."""
    return len(pending) == len(observations) and all(
        a is b for a, b in zip(pending, observations))


def _sight(store, pending, *observations):
    """One cycle in which every observation is unmatched; the uids it promoted."""
    match = MatchResult(unmatched_observations=list(range(len(observations))))
    return register_or_update(store, list(observations), match, [], {}, "z1", {},
                              pending).promoted


def test_two_sightings_in_one_cycle_promote_on_the_second():
    store, pending = _store_with_zone(), []
    first, second = _obs("gear", [0.5, 0, 0]), _obs("gear", [0.52, 0, 0])
    assert _sight(store, pending, first, second) == ["gear_1"]
    assert store.records["gear_1"].envelope is second.envelope
    assert pending == []


def test_a_sighting_consumes_the_earliest_pending_match():
    """Two pending gear sightings 0.8 apart, outside each other's gate, and
    a third between them inside both gates: the third consumes the one
    first sighted, whether it came a cycle earlier or earlier in this one,
    and the other stays pending."""
    old, new, between = (_obs("gear", [0, 0, 0]), _obs("gear", [0.8, 0, 0]),
                         _obs("gear", [0.4, 0, 0]))
    store, pending = _store_with_zone(), []
    assert _sight(store, pending, old) == []
    assert _sight(store, pending, new, between) == ["gear_1"]
    assert store.records["gear_1"].envelope is between.envelope
    assert _same(pending, [new])
    store, pending = _store_with_zone(), []
    assert _sight(store, pending, old, new, between) == ["gear_1"]
    assert _same(pending, [new])
    assert _sight(store, pending, _obs("gear", [0.8, 0, 0])) == ["gear_2"]


def test_a_sighting_not_seen_in_the_next_cycle_is_dropped():
    store, pending = _store_with_zone(), []
    gear, bolt = _obs("gear", [0.5, 0, 0]), _obs("bolt", [0.5, 0, 0])
    assert _sight(store, pending, gear) == []
    assert _sight(store, pending, bolt) == []
    assert _same(pending, [bolt])
    assert _sight(store, pending, gear) == []
    assert _same(pending, [gear])


# -- hash cache ---------------------------------------------------------------

_coord = st.floats(-0.05, 0.05, allow_nan=False)
_mean = st.tuples(_coord, _coord, _coord)
_zone = st.sampled_from(["z1", "z2"])
_label = st.sampled_from(["gear", "bolt"])


# A gripper force the controller reads as nominal in every context, and
# one it reads as an over-squeeze, which reverts the skill.
_NOMINAL = FTEvent(FTSignal.GRIPPER_FORCE, 20.0, "N")
_SQUEEZE = FTEvent(FTSignal.GRIPPER_FORCE, 50.0, "N")
_adverse = st.sampled_from([False, False, True])


class StoreHashMachine(RuleBasedStateMachine):
    """Random writes through the store's methods, and skills through
    ``apply_transition`` and ``rollback`` with one transaction log kept
    across steps. After every step the cached ``state_hash`` equals the
    digest computed from scratch, the store's indexes answer as scans of
    its tables do, the document round-trips, the log's hash chain holds,
    every live vertex has a record, and reverting the latest uncommitted
    skill while the store is as it left it restores ``state_bytes``."""

    def __init__(self):
        super().__init__()
        self.store = _store_with_zone()
        self.store.add_zone(ZoneNode("z2", "z2"))
        self.cs = ConstraintState()
        self.log = TransactionLog()
        self.pending = []  # the confirmation window the register rule keeps
        self.before: dict[int, str] = {}  # state_bytes before each applied entry, by id

    def _uid(self, data):
        return data.draw(st.sampled_from(sorted(self.store.vertices)))

    def _log_other_writes(self):
        """Log what the other rules wrote since the last entry, as the
        executive logs a perception update, so the chain stays contiguous."""
        post = self.store.state_hash()
        if self.log.entries and self.log.entries[-1].post_hash != post:
            self.log.append(TransactionEntry(self.log.entries[-1].post_hash, post,
                                             "PerceptionUpdate", args={}, outcome="committed"))

    def _skill(self, action, args, adverse):
        self._log_other_writes()
        before = state_bytes(self.store, self.cs)
        result = apply_transition(self.store, self.cs, self.log, action, args,
                                  dispatch=lambda: [_SQUEEZE if adverse else _NOMINAL])
        if result.status == TransitionStatus.COMMITTED:
            self.before[id(self.log.entries[-1])] = before
        else:
            assert state_bytes(self.store, result.cs) == before
        self.cs = result.cs

    @rule(data=st.data(), adverse=_adverse)
    def pick(self, data, adverse):
        self._skill("Pick", {"object": self._uid(data)}, adverse)

    @precondition(lambda self: self.cs.target is not None)
    @rule(data=st.data(), mean=_mean, adverse=_adverse)
    def place(self, data, mean, adverse):
        destination = data.draw(st.sampled_from([*self.store.vertices, *self.store.zones]))
        self._skill("Place", {"destination": destination, "position": list(mean)}, adverse)

    @rule(data=st.data(), adverse=_adverse)
    def move(self, data, adverse):
        self._skill("Move", {"zone": data.draw(st.sampled_from(sorted(self.store.zones)))},
                    adverse)

    @rule(adverse=_adverse)
    def open_gripper(self, adverse):
        self._skill("OpenGripper", {}, adverse)

    @precondition(lambda self: self.log.pending())
    @rule()
    def revert(self):
        self._log_other_writes()
        self.cs = rollback(self.log, self.store)

    @rule(label=_label, mean=_mean, zone=_zone)
    def add_entity(self, label, mean, zone):
        self.store.add_entity(label, _env(mean), zone)

    @rule(data=st.data(), mean=_mean, attached=st.sampled_from(["world", "gripper"]),
          scanned=st.booleans())
    def update_record(self, data, mean, attached, scanned):
        rid = self._uid(data)
        fields = data.draw(st.sampled_from([
            {"envelope": _env(mean)},
            {"attached_to": attached},
            {"geometry": PointsGeom(PointCloudData(np.array([mean]))) if scanned else None},
        ]))
        self.store.update_record(rid, **fields)

    @rule(data=st.data(), zone=_zone, confidence=st.floats(0.0, 1.0),
          lifecycle=st.sampled_from(list(Lifecycle)), tag=st.sampled_from(["", "worn"]))
    def update_vertex(self, data, zone, confidence, lifecycle, tag):
        fields = data.draw(st.sampled_from([
            {"zone_id": zone}, {"confidence": confidence}, {"lifecycle": lifecycle},
            {"attributes": {"note": tag}},
        ]))
        self.store.update_vertex(self._uid(data), **fields)

    @rule(data=st.data(), predicate=st.sampled_from(["On", "Near"]),
          status=st.sampled_from(list(EdgeStatus)))
    def add_edge(self, data, predicate, status):
        self.store.add_edge(predicate, self._uid(data), self._uid(data), status)

    @rule(data=st.data(), predicate=st.sampled_from([None, "On", "Near"]))
    def remove_edges(self, data, predicate):
        self.store.remove_edges(predicate=predicate, subject=self._uid(data))

    @rule(data=st.data(), mean=_mean)
    def capture_write_revert(self, data, mean):
        uid, cs = self._uid(data), ConstraintState()
        before = state_bytes(self.store, cs)
        inverse = capture_inverse(self.store, cs, {"object": uid})
        self.store.update_record(uid, envelope=_env(mean), attached_to="gripper")
        self.store.update_vertex(uid, zone_id="z2", lifecycle=Lifecycle.UNCERTAIN)
        self.store.remove_edges(subject=uid)
        self.store.add_edge("Near", uid, "z1")
        assert self.store.state_hash() == store_digest(self.store)
        assert apply_inverse(self.store, inverse) == cs
        assert state_bytes(self.store, cs) == before

    @rule(data=st.data())
    def reverted_pick(self, data):
        before = state_bytes(self.store, ConstraintState())
        squeeze = FTEvent(FTSignal.GRIPPER_FORCE, 50.0, "N")
        apply_transition(self.store, ConstraintState(), TransactionLog(), "Pick",
                         {"object": self._uid(data)}, dispatch=lambda: [squeeze])
        assert state_bytes(self.store, ConstraintState()) == before

    @rule(data=st.data(), mean=_mean, label=_label, new=st.booleans())
    def register(self, data, mean, label, new):
        memory = [v.uid for v in self.store.entities_in_zone("z1")]
        observations, matched = [], []
        if memory:
            i = data.draw(st.integers(0, len(memory) - 1))
            observations.append(_obs(self.store.vertices[memory[i]].label, mean))
            matched.append((0, i, 0.1))
        unmatched = [len(observations)] if new else []
        if new:
            observations.append(_obs(label, [0.3, 0.3, 0.0]))
        gammas = {k: 1.0 for k in range(len(observations))}
        register_or_update(self.store, observations, MatchResult(matched, unmatched),
                           memory, gammas, "z1", {}, self.pending)

    @rule(data=st.data(), zone=_zone)
    def curate(self, data, zone):
        observed = set(data.draw(st.lists(st.sampled_from(sorted(self.store.vertices)),
                                          max_size=2)))
        curate_zone(self.store, zone, observed)

    @rule(zone=st.sampled_from(["z2", "z3"]), reachable=st.booleans())
    def add_zone(self, zone, reachable):
        self.store.add_zone(ZoneNode(zone, zone, ["z1"] if reachable else []))

    @invariant()
    def hash_matches_scratch_digest(self):
        assert self.store.state_hash() == store_digest(self.store)

    @invariant()
    def indexes_match_scans(self):
        store = self.store
        for uid in [*store.vertices, *store.zones, "ghost"]:
            for predicate in (None, "On", "Near"):
                for ends in ({"subject": uid}, {"obj": uid}):
                    assert _ids(store.find_edges(predicate, **ends)) == _ids(
                        find_edges_scan(store, predicate, **ends))
            assert store.neighbors([uid]) == neighbors_scan(store, [uid])
            assert store.is_clear(uid) == is_clear_scan(store, uid)
        for e in store.edges:
            assert _ids(store.find_edges(e.predicate, e.subject, e.obj)) == _ids(
                find_edges_scan(store, e.predicate, e.subject, e.obj))
        assert _ids(store.find_edges()) == _ids(store.edges)
        assert store.held_uids() == held_uids_scan(store)
        for zone in store.zones:
            members = zone_members(store, zone)
            assert [v.uid for v in store.entities_in_zone(zone)] == members

    @invariant()
    def log_chain_holds(self):
        assert self.log.validate_chain()

    @invariant()
    def live_vertices_have_records(self):
        self.store.check_integrity()

    @invariant()
    def latest_skill_reverts_exactly(self):
        pending = self.log.pending()
        if not pending or pending[-1].post_hash != self.store.state_hash():
            return
        entry = pending[-1]
        store, log = copy.deepcopy((self.store, self.log))
        cs = rollback(log, store)
        assert state_bytes(store, cs) == self.before[id(entry)]

    @invariant()
    def round_trip_keeps_document_and_digest(self):
        clone = WorldStore.from_dict(self.store.to_dict())
        assert clone.serialize() == self.store.serialize()
        assert clone.state_hash() == self.store.state_hash()
        assert clone.held_uids() == self.store.held_uids()


def _ids(edges):
    return [id(e) for e in edges]


def test_hash_cache_matches_scratch_digest_under_random_writes():
    run_state_machine_as_test(StoreHashMachine, settings=settings(
        max_examples=40, stateful_step_count=30, deadline=None, derandomize=True))


def test_a_resumed_large_store_hashes_as_its_document():
    # The state machine's stores are small. Here each write lands on a
    # member or section boundary of a resumed store's cached texts.
    store = WorldStore.from_dict(_stock_doc())
    assert len(store.records) >= 500 and len(store.edges) >= 250
    assert store.state_hash() == store_digest(store)
    first, last = min(store.records), max(store.records)
    middle = sorted(store.records)[len(store.records) // 2] + "_b"
    geometry = PointsGeom(PointCloudData(np.array([[0.1, 0.2, 0.3], [0.2, 0.2, 0.3]])))
    writes = [
        lambda: store.update_record(first, envelope=_env([0.1, -0.2, 0.3], 0.02)),
        lambda: store.update_record(last, geometry=geometry, attached_to="gripper"),
        lambda: store.update_vertex(last, confidence=0.5),
        lambda: store.add_entity("bolt", _env([0.4, 0.4, 0.0]), "z1", uid=middle),
        lambda: store.remove_edges(obj=last),
        lambda: store.restore_entity(last, None, None),
        lambda: store.add_edge("Near", middle, first),
    ]
    for write in writes:
        write()
        assert store.state_hash() == store_digest(store)
    assert max(store.records) != last and middle in store.records


# Fields of records and vertices whose writes must go through update_record
# or update_vertex, which drop the cached text state_hash re-assembles.
_STORE_FIELDS = {"envelope", "geometry", "attached_to", "confidence", "lifecycle",
                 "zone_id"}
_ALLOWED = {"world_model.py": _STORE_FIELDS}


def _attribute_writes(tree):
    """(line, name) of every assignment to an attribute, setattr included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "setattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            yield node.lineno, node.args[1].value
            continue
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                    yield sub.lineno, sub.attr


# The store's containers: whatever writes into them must keep the indexes
# and mark what it touched, so only the store's own methods may.
_STORE_CONTAINERS = {"edges", "records", "vertices", "zones"}
# The simulator keeps its own zone table.
_CONTAINERS_ALLOWED = {"world_model.py": _STORE_CONTAINERS, "simulator.py": {"zones"}}
_MUTATORS = {"append", "extend", "insert", "remove", "clear", "pop", "popitem",
             "setdefault", "update", "sort", "reverse", "add", "discard"}


def _container_writes(tree):
    """(line, name) of every write into an attribute named in
    ``_STORE_CONTAINERS``: assigning or deleting it, assigning or deleting
    anything reached from it by subscript or attribute, or calling a
    mutating method on it."""
    written = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            written += node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            written.append(node.target)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in _MUTATORS):
            written.append(node.func.value)
    while written:
        expr = written.pop()
        if isinstance(expr, (ast.Tuple, ast.List)):
            written += expr.elts
        elif isinstance(expr, ast.Starred):
            written.append(expr.value)
        elif isinstance(expr, (ast.Attribute, ast.Subscript)):
            if isinstance(expr, ast.Attribute) and expr.attr in _STORE_CONTAINERS:
                yield expr.lineno, expr.attr
            written.append(expr.value)


def test_store_fields_are_written_only_through_the_store():
    offenders = []
    for path in sorted(Path(workcell.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = _ALLOWED.get(path.name, set())
        for line, name in _attribute_writes(tree):
            if name in _STORE_FIELDS - allowed:
                offenders.append(f"{path.name}:{line} writes .{name}")
        allowed = _CONTAINERS_ALLOWED.get(path.name, set())
        for line, name in _container_writes(tree):
            if name not in allowed:
                offenders.append(f"{path.name}:{line} writes into .{name}")
    assert offenders == []


def test_store_field_lint_sees_every_form_of_write():
    code = ("rec.envelope = e\nv.confidence *= 0.9\na.pose, b.zone_id = p, z\n"
            "setattr(v, 'lifecycle', x)\nv.label = 'ok'\n")
    names = sorted(name for _, name in _attribute_writes(ast.parse(code)))
    assert names == ["confidence", "envelope", "label", "lifecycle", "pose", "zone_id"]
    code = ("s.edges = []\ns.records[u] = r\ndel s.vertices[u]\ns.records.update(p)\n"
            "s.zones.pop(z)\nx, s.edges[-1] = 1, e\n"
            "self.store.records.clear()\ns.pending[k] = t\ns.edges.index(e)\n"
            "x = s.records[u]\nlog.append(s.edges)\n")
    names = sorted(name for _, name in _container_writes(ast.parse(code)))
    assert names == ["edges", "edges", "records", "records", "records", "vertices", "zones"]


# Top-level definitions no engine module refers to, each with its reason.
_UNREFERENCED_ALLOWED = {
    # Robust registration: the c03 acceptance check gates it.
    "icp_register",
    # The rollback oracle: c06 compares it before and after a revert.
    "state_bytes",
}


def _unreferenced_defs(trees):
    """Names of top-level functions and classes that no tree refers to,
    as a name or as an attribute."""
    defined, referenced = set(), set()
    for tree in trees:
        defined |= {node.name for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined - referenced


def test_every_engine_definition_is_referenced_by_the_engine():
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(workcell.__file__).parent.glob("*.py"))]
    assert sorted(_unreferenced_defs(trees) - _UNREFERENCED_ALLOWED) == []


def test_unreferenced_def_lint_sees_every_form_of_reference():
    code = ("def used(): pass\ndef via_attr(): pass\nclass Used: pass\n"
            "def dead(): pass\nclass Dead: pass\n"
            "x = used() + mod.via_attr()\ny: Used\n")
    assert sorted(_unreferenced_defs([ast.parse(code)])) == ["Dead", "dead"]


# Class members no engine module reads, each with its reason.
_UNREAD_MEMBERS_ALLOWED = {
    # c06 and c07 build FTEvent positionally, unit included.
    "FTEvent.unit",
    # c09 checks that the retry budget ran out.
    "GetErtOutcome.exhausted",
    # Kept for recording the report of each retry and the failing
    # precondition (ROADMAP item 8).
    "GetErtOutcome.reports",
    "TransitionResult.failed_predicate",
    # Written to metrics.json by MetricsReport.to_dict through
    # dataclasses.asdict, a read this guard does not see.
    "MetricsReport.per_trial",
    # The benchmark resumes trials from a persisted store and fingerprints it.
    "WorldStore.from_dict",
    "WorldStore.serialize",
    # ICP stays library code because c03 relies on it.
    "RegistrationResult.residual",
    "RegistrationResult.iterations",
}


def _unread_members(trees):
    """``Class.member`` for each method, property and annotated field of a
    class in the trees whose name no tree reads as an attribute. Calling a
    mutating method on ``x.member``, as in ``x.member.append(v)``, writes
    it and does not count as a read. Dunder methods are exempt: Python
    calls them."""
    members, read = [], set()
    for tree in trees:
        mutated = {id(node.func.value) for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr in _MUTATORS}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and id(node) not in mutated):
                read.add(node.attr)
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = stmt.name
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    members.append((node.name, name))
    return sorted(f"{cls}.{name}" for cls, name in members if name not in read)


def test_every_engine_class_member_is_read_by_the_engine():
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(workcell.__file__).parent.glob("*.py"))]
    unread = _unread_members(trees)
    assert sorted(set(unread) - _UNREAD_MEMBERS_ALLOWED) == []
    assert sorted(_UNREAD_MEMBERS_ALLOWED - set(unread)) == []  # no stale exemption


def test_unread_member_lint_sees_every_form_of_member():
    code = ("class K:\n    field: int\n    other: str = ''\n    plain = 1\n"
            "    def __init__(self):\n        self.attr = 0\n"
            "    def used(self): pass\n    def dead(self): pass\n"
            "    @property\n    def prop(self): pass\n"
            "    @classmethod\n    def make(cls): pass\n"
            "    log: list\n    seen: set\n"
            "def f(k):\n    k.attr = k.other\n    k.log.append(1)\n    k.seen.add(2)\n"
            "    return k.used(), K.make, k.field\n")
    assert _unread_members([ast.parse(code)]) == ["K.dead", "K.log", "K.prop", "K.seen"]


def _unused_imports(tree):
    """Names a module imports and never uses: not as a name, and not in
    ``__all__``. ``from __future__`` imports are exempt."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted(name for name in imported if name not in used)


def test_every_engine_import_is_used():
    unused = []
    for path in sorted(Path(workcell.__file__).parent.glob("*.py")):
        unused += [f"{path.name}: {name}"
                   for name in _unused_imports(ast.parse(path.read_text()))]
    assert unused == []


def test_unused_import_lint_sees_every_form_of_import():
    code = ("from __future__ import annotations\nimport os\nimport os.path\n"
            "import numpy as np\nimport json\nfrom pathlib import Path\n"
            "from .x import a, b as c, d\n__all__ = ['d']\n"
            "def f(p: Path) -> None:\n    return np.sum(a)\n")
    assert _unused_imports(ast.parse(code)) == ["c", "json", "os"]


def _unread_parameters(tree):
    """``name(param)`` for each parameter of each function in the tree that
    its body never reads. ``self``, ``cls``, names that start with ``_``
    and functions whose body only raises are exempt."""
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
        if all(isinstance(stmt, ast.Raise) for stmt in body):
            continue
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{fn.name}({p})" for p in params
                   if p not in ("self", "cls") and not p.startswith("_")
                   and p not in read]
    return unread


def test_every_engine_parameter_is_read():
    unread = []
    for path in sorted(Path(workcell.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        unread += [f"{path.name}: {u}" for u in _unread_parameters(tree)]
    assert unread == []


def test_unread_parameter_lint_sees_every_form_of_parameter():
    code = ("def f(a, b, /, c, *d, e, h=1, **g):\n    return a + c[e]\n"
            "class K:\n    def m(self, x, _y):\n        def inner(z):\n"
            "            return x\n        return inner\n"
            "    @classmethod\n    def n(cls, w):\n        w = 1\n"
            "    def iface(self, q):\n        \"\"\"Doc.\"\"\"\n"
            "        raise NotImplementedError\n")
    assert _unread_parameters(ast.parse(code)) == [
        "f(b)", "f(h)", "f(d)", "f(g)", "n(w)", "inner(z)"]
