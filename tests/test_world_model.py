"""Persistent store: occupancy, graph, relation verification, lifecycle
curation, and the register/update pipeline."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

import workcell
from workcell.association import AssociationConfig, MatchResult
from workcell.errors import IntegrityError, WorkcellError
from workcell.geometry import GaussianEnvelope, PointCloudData, PoseSE3
from workcell.harness import build_store, build_world
from workcell.perception import Observation, PointsGeom
from workcell.serialization import (
    canonical_dumps,
    encoded,
    encoded_member,
    encoded_object,
    json_line,
)
from workcell.transactions import (
    ConstraintState,
    FTEvent,
    FTSignal,
    TransactionLog,
    apply_inverse,
    apply_transition,
    capture_inverse,
    state_bytes,
)
from workcell.world_model import (
    BackgroundMap,
    EdgeStatus,
    L_FREE,
    L_MAX,
    L_MIN,
    L_OCC,
    LAMBDA_DECAY,
    Lifecycle,
    ObjectRecord,
    OccupancyMeasurement,
    RelationEdge,
    ROBOT_UID,
    ShapePrior,
    TAU_ARCHIVE,
    TAU_UNCERTAIN,
    WorldStore,
    ZoneNode,
    apply_drift_inflation,
    curate_zone,
    record_bounds,
    register_or_update,
    restore_candidates,
    update_occupancy,
    verify_relation,
)

from fixtures import task1_doc
from oracles import store_digest, to_jsonable, zone_members


def _env(mean, sigma=0.01):
    return GaussianEnvelope(np.asarray(mean, dtype=float), sigma * np.eye(3))


def _store_with_zone(zone="z1"):
    store = WorldStore()
    store.add_zone(ZoneNode(zone, zone))
    store.robot_zone = zone
    return store


def _obs(label, mean, sigma=0.01, geometry=None):
    return Observation(
        instance_id=0, label=label, geometry=geometry, envelope=_env(mean, sigma)
    )


# -- occupancy ----------------------------------------------------------------


def test_occupancy_hit_and_miss_increments():
    bg = BackgroundMap()
    update_occupancy(bg, [OccupancyMeasurement((0, 0, 0), True)])
    assert bg.voxels[(0, 0, 0)][0] == pytest.approx(L_OCC)
    update_occupancy(bg, [OccupancyMeasurement((0, 0, 0), False)])
    assert bg.voxels[(0, 0, 0)][0] == pytest.approx(L_OCC + L_FREE)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=300))
def test_occupancy_log_odds_always_clamped(hits):
    bg = BackgroundMap()
    update_occupancy(
        bg, [OccupancyMeasurement((1, 2, 3), h) for h in hits]
    )
    lo = bg.voxels[(1, 2, 3)][0]
    assert L_MIN <= lo <= L_MAX
    # Sequential clamping oracle.
    ref = 0.0
    for h in hits:
        ref = min(max(ref + (L_OCC if h else L_FREE), L_MIN), L_MAX)
    assert lo == pytest.approx(ref)


def test_occupancy_class_posterior_recursive_bayes():
    bg = BackgroundMap()
    like = {"table": 0.8, "shelf": 0.2}
    update_occupancy(bg, [OccupancyMeasurement((0, 0, 0), True, like)])
    classes = bg.voxels[(0, 0, 0)][1]
    assert classes["table"] == pytest.approx(0.8)
    update_occupancy(bg, [OccupancyMeasurement((0, 0, 0), True, like)])
    classes = bg.voxels[(0, 0, 0)][1]
    # Posterior proportional to 0.8^2 : 0.2^2.
    assert classes["table"] == pytest.approx(0.64 / (0.64 + 0.04))


def test_occupancy_bounds_enforced():
    bg = BackgroundMap(bounds=((0, 0, 0), (1, 1, 1)))
    with pytest.raises(IntegrityError):
        update_occupancy(bg, [OccupancyMeasurement((5, 0, 0), True)])


# -- graph mutation and queries ----------------------------------------------


def test_add_entity_and_grounding_invariant():
    store = _store_with_zone()
    uid = store.add_entity("bolt", _env([0, 0, 0]), "z1")
    assert uid == "bolt_1"
    assert store.vertices[uid].grounding == uid
    assert store.records[uid].envelope.mean.tolist() == [0, 0, 0]
    # Second entity of the same label gets a fresh uid.
    assert store.add_entity("bolt", _env([1, 0, 0]), "z1") == "bolt_2"
    with pytest.raises(IntegrityError):
        store.add_entity("bolt", _env([0, 0, 0]), "z1", uid="bolt_1")


def test_posed_record_requires_shape_prior():
    with pytest.raises(IntegrityError):
        ObjectRecord("x", _env([0, 0, 0]), pose=PoseSE3.identity())


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
    store = _store_with_zone()
    uid = store.add_entity("a", _env([0, 0, 0]), "z1")
    del store.records[uid]
    with pytest.raises(IntegrityError):
        store.check_integrity()


# -- persistence --------------------------------------------------------------


def _populated_store():
    store = _store_with_zone()
    store.add_zone(ZoneNode("z2", "far", reachable=["z1"]))
    a = store.add_entity(
        "gear", _env([0.1, 0.2, 0.3]), "z1",
        geometry=PointsGeom(PointCloudData(np.arange(12.0).reshape(4, 3))),
        attributes={"color": "red"},
    )
    prior = ShapePrior("gear_prior", PointCloudData(np.eye(3)))
    store.priors["gear_prior"] = prior
    b = store.add_entity(
        "slot", _env([0.1, 0.2, 0.1]), "z1", shape_prior="gear_prior",
        pose=PoseSE3.identity(),
    )
    store.add_edge("On", a, b, EdgeStatus.VERIFIED)
    update_occupancy(store.background, [OccupancyMeasurement((0, 1, 2), True)])
    return store


def test_serialization_roundtrip_lossless():
    store = _populated_store()
    clone = WorldStore.from_dict(store.to_dict())
    assert clone.state_hash() == store.state_hash()
    assert clone.serialize() == store.serialize()
    # The round-tripped store keeps working (indexes rebuilt).
    assert {v.uid for v in clone.entities_in_zone("z1")} == {"gear_1", "slot_1"}
    # A briefing store puts the robot in a zone; the clone's index must
    # still leave it out, like the original's.
    doc = task1_doc()
    briefed = build_store(doc, build_world(doc, trial_seed=0))
    assert briefed.vertices[ROBOT_UID].zone_id == doc["robot"]["zone"]
    clone = WorldStore.from_dict(briefed.to_dict())
    assert clone.serialize() == briefed.serialize()
    assert clone.robot_zone == briefed.robot_zone
    for zone_id in briefed.zones:
        uids = [v.uid for v in clone.entities_in_zone(zone_id)]
        assert uids == [v.uid for v in briefed.entities_in_zone(zone_id)]
        assert uids == zone_members(briefed, zone_id)
        assert clone.zone_candidate_count(zone_id) == len(uids)


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
@given(st.dictionaries(st.text(max_size=6), _json_values, min_size=1, max_size=5))
def test_encoded_parts_join_to_the_canonical_text(doc):
    whole = canonical_dumps(doc)
    assert canonical_dumps({key: encoded(value) for key, value in doc.items()}) == whole
    assert encoded_object([encoded_member(key, doc[key]) for key in sorted(doc)]) == whole


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
    snap = store.snapshot()
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


def test_verify_aligned_mating_frame():
    store = _store_with_zone()
    store.priors["p"] = ShapePrior(
        "p", PointCloudData(np.eye(3)),
        functional_frame=PoseSE3(np.eye(3), [0, 0, 0.02]),
    )
    part = store.add_entity(
        "part", _env([0, 0, 0.02]), "z1", shape_prior="p",
        pose=PoseSE3(np.eye(3), [0, 0, 0.02]),
    )
    store.priors["q"] = ShapePrior("q", PointCloudData(np.eye(3)))
    hole = store.add_entity(
        "hole", _env([0, 0, 0]), "z1", shape_prior="q", pose=PoseSE3.identity()
    )
    assert verify_relation(RelationEdge("Aligned", part, hole), store) == EdgeStatus.VERIFIED
    # 1 cm positional error: outside the 5 mm band.
    store.update_record(part, pose=PoseSE3(np.eye(3), [0.01, 0, 0.02]))
    assert verify_relation(RelationEdge("Aligned", part, hole), store) == EdgeStatus.REFUTED
    # 3 deg twist at the right position: outside the 2 deg band.
    c, s = np.cos(np.radians(3)), np.sin(np.radians(3))
    store.update_record(part, pose=PoseSE3(
        np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]]), [0, 0, 0.02]
    ))
    assert verify_relation(RelationEdge("Aligned", part, hole), store) == EdgeStatus.REFUTED


def test_verify_clear_and_unknown_predicate():
    store, a, b = _pair_store([0, 0, 0], [0, 0, 0.02])
    assert verify_relation(RelationEdge("Clear", a, a), store) == EdgeStatus.VERIFIED
    store.add_edge("On", b, a)
    assert verify_relation(RelationEdge("Clear", a, a), store) == EdgeStatus.REFUTED
    # A refuted support blocks nothing; edges are immutable, so replace it.
    store.edges[-1] = RelationEdge("On", b, a, EdgeStatus.REFUTED)
    assert store.is_clear(a)
    with pytest.raises(WorkcellError):
        verify_relation(RelationEdge("Levitates", a, b), store)


def test_record_bounds_fallback_to_envelope():
    rec = ObjectRecord("x", _env([1, 1, 1], sigma=0.04))
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
    assert store.zone_candidate_count("z1") == 0
    events = curate_zone(store, "z1", observed_uids={uid})
    kinds = [e.kind for e in events]
    assert "restored" in kinds and "reinforced" in kinds
    v = store.vertices[uid]
    assert v.lifecycle == Lifecycle.ACTIVE
    assert v.confidence == 1.0
    assert v.attributes == {"serial": "XYZ-1"}  # attributes survive archival
    assert store.zone_candidate_count("z1") == 1


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
    delta = register_or_update(store, [obs], match, [uid], {0: 1.0}, "z1")
    assert delta.fused == [uid]
    mean = store.records[uid].envelope.mean
    assert 0 < mean[0] < 0.02  # pulled toward the observation


def test_low_gamma_keeps_stored_geometry():
    store = _store_with_zone()
    geom = PointsGeom(PointCloudData(np.zeros((2, 3))))
    uid = store.add_entity("gear", _env([0, 0, 0]), "z1", geometry=geom)
    obs = _obs("gear", [0.001, 0, 0],
               geometry=PointsGeom(PointCloudData(np.ones((2, 3)))))
    match = MatchResult(matched=[(0, 0, 0.1)])
    register_or_update(store, [obs], match, [uid], {0: 0.01}, "z1")
    assert store.records[uid].geometry is geom
    register_or_update(store, [obs], match, [uid], {0: 1.0}, "z1")
    assert store.records[uid].geometry is obs.geometry


def test_new_track_needs_two_sightings():
    store = _store_with_zone()
    obs = _obs("gear", [0.5, 0, 0])
    match = MatchResult(unmatched_observations=[0])
    d1 = register_or_update(store, [obs], match, [], {}, "z1", step=0)
    assert d1.promoted == [] and len(d1.tentative) == 1
    assert "gear_1" not in store.vertices
    d2 = register_or_update(store, [obs], match, [], {}, "z1", step=1)
    assert d2.promoted == ["gear_1"]
    assert store.vertices["gear_1"].zone_id == "z1"


def test_unsighted_track_is_discarded():
    store = _store_with_zone()
    obs = _obs("gear", [0.5, 0, 0])
    register_or_update(
        store, [obs], MatchResult(unmatched_observations=[0]), [], {}, "z1"
    )
    assert len(store.tentative) == 1
    d = register_or_update(store, [], MatchResult(), [], {}, "z1")
    assert store.tentative == {} and len(d.discarded) == 1


def test_register_restores_archived_before_opening_track():
    store = _store_with_zone()
    uid = store.add_entity("gear", _env([0, 0, 0], sigma=0.04), "z1")
    store.update_vertex(uid, lifecycle=Lifecycle.ARCHIVED)
    assert store.zone_candidate_count("z1") == 0
    obs = _obs("gear", [0.02, 0, 0])
    d = register_or_update(
        store, [obs], MatchResult(unmatched_observations=[0]), [], {0: 1.0}, "z1"
    )
    assert d.restored == [uid] and store.tentative == {}
    assert store.vertices[uid].lifecycle == Lifecycle.ACTIVE
    assert store.zone_candidate_count("z1") == 1


def test_drift_inflation_skips_robot_and_held():
    store = _store_with_zone()
    a = store.add_entity("a", _env([0, 0, 0]), "z1")
    h = store.add_entity("h", _env([0, 0, 0]), "z1")
    store.update_record(h, attached_to="gripper")
    before_a = store.records[a].envelope.covariance.copy()
    before_h = store.records[h].envelope.covariance.copy()
    apply_drift_inflation(store, [a, h, ROBOT_UID], cycles=2)
    assert np.allclose(store.records[a].envelope.covariance,
                       before_a + 0.002 * np.eye(3))
    assert np.allclose(store.records[h].envelope.covariance, before_h)


# -- hash cache ---------------------------------------------------------------

_coord = st.floats(-0.05, 0.05, allow_nan=False)
_mean = st.tuples(_coord, _coord, _coord)
_zone = st.sampled_from(["z1", "z2"])
_label = st.sampled_from(["gear", "bolt"])


class StoreHashMachine(RuleBasedStateMachine):
    """Random writes through the store's methods. After every step the
    cached ``state_hash`` equals the digest computed from scratch, and a
    reverted write restores ``state_bytes``."""

    def __init__(self):
        super().__init__()
        self.store = _store_with_zone()
        self.store.add_zone(ZoneNode("z2", "z2"))

    def _uid(self, data):
        return data.draw(st.sampled_from(sorted(self.store.vertices)))

    @rule(label=_label, mean=_mean, zone=_zone)
    def add_entity(self, label, mean, zone):
        self.store.add_entity(label, _env(mean), zone)

    @rule(data=st.data(), mean=_mean, attached=st.sampled_from(["world", "gripper"]),
          posed=st.booleans(), scanned=st.booleans())
    def update_record(self, data, mean, attached, posed, scanned):
        rid = self.store.vertices[self._uid(data)].grounding
        fields = data.draw(st.sampled_from([
            {"envelope": _env(mean)},
            {"attached_to": attached},
            {"pose": PoseSE3(np.eye(3), mean) if posed else None},
            {"geometry": PointsGeom(PointCloudData(np.array([mean]))) if scanned else None},
        ]))
        self.store.update_record(rid, **fields)

    @rule(data=st.data(), zone=_zone, confidence=st.floats(0.0, 1.0),
          lifecycle=st.sampled_from(list(Lifecycle)), tag=st.sampled_from(["", "worn"]))
    def update_vertex(self, data, zone, confidence, lifecycle, tag):
        fields = data.draw(st.sampled_from([
            {"zone_id": zone}, {"confidence": confidence}, {"lifecycle": lifecycle},
            {"state_tag": tag, "attributes": {"note": tag}},
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
        self.store.update_record(self.store.vertices[uid].grounding,
                                 envelope=_env(mean), attached_to="gripper")
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
                         {"object": self._uid(data)}, ft_events=[squeeze])
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
                           memory, gammas, "z1")

    @rule(data=st.data(), zone=_zone)
    def curate(self, data, zone):
        observed = set(data.draw(st.lists(st.sampled_from(sorted(self.store.vertices)),
                                          max_size=2)))
        curate_zone(self.store, zone, observed)

    @rule(cell=st.integers(0, 3), hit=st.booleans())
    def observe_background(self, cell, hit):
        # No store method sees this write; state_hash must notice the head changed.
        update_occupancy(self.store.background, [OccupancyMeasurement((cell, 0, 0), hit)])

    @invariant()
    def hash_matches_scratch_digest(self):
        assert self.store.state_hash() == store_digest(self.store)


def test_hash_cache_matches_scratch_digest_under_random_writes():
    run_state_machine_as_test(StoreHashMachine, settings=settings(
        max_examples=40, stateful_step_count=30, deadline=None, derandomize=True))


# Fields of records and vertices whose writes must go through update_record
# or update_vertex, which drop the cached text state_hash re-assembles.
_STORE_FIELDS = {"envelope", "geometry", "attached_to", "confidence", "lifecycle",
                 "zone_id", "state_tag", "pose"}
# The simulator moves its own objects by their pose; the store is not involved.
_ALLOWED = {"world_model.py": _STORE_FIELDS, "simulator.py": {"pose"}}


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


def test_store_fields_are_written_only_through_the_store():
    offenders = []
    for path in sorted(Path(workcell.__file__).parent.glob("*.py")):
        allowed = _ALLOWED.get(path.name, set())
        for line, name in _attribute_writes(ast.parse(path.read_text())):
            if name in _STORE_FIELDS - allowed:
                offenders.append(f"{path.name}:{line} writes .{name}")
    assert offenders == []


def test_store_field_lint_sees_every_form_of_write():
    code = ("rec.envelope = e\nv.confidence *= 0.9\na.pose, b.zone_id = p, z\n"
            "setattr(v, 'lifecycle', x)\nv.label = 'ok'\n")
    names = sorted(name for _, name in _attribute_writes(ast.parse(code)))
    assert names == ["confidence", "envelope", "label", "lifecycle", "pose", "zone_id"]
