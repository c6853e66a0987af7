"""Atomic skill transitions: preconditions, effects, force-torque mapping,
rollback byte-identity, hash chaining, and commit confirmation."""

import numpy as np
import pytest

from workcell.association import MatchResult
from workcell.errors import TransactionError
from workcell.geometry import GaussianEnvelope, PointCloudData, PoseSE3
from workcell.perception import Observation
from workcell.transactions import (
    ConstraintState,
    ControllerEvent,
    FTEvent,
    FTSignal,
    Phase,
    TransactionEntry,
    TransactionLog,
    TransitionStatus,
    apply_transition,
    capture_inverse,
    apply_inverse,
    check_commit,
    map_ft_event,
    mark_committed,
    rollback,
    state_bytes,
)
from workcell.world_model import (
    EdgeStatus,
    Lifecycle,
    ROBOT_UID,
    ShapePrior,
    WorldStore,
    ZoneNode,
    register_or_update,
)

from oracles import zone_members


def _env(mean, sigma=0.01):
    return GaussianEnvelope(np.asarray(mean, dtype=float), sigma * np.eye(3))


def make_store():
    store = WorldStore()
    store.add_zone(ZoneNode("z1", "staging", reachable=["z2"]))
    store.add_zone(ZoneNode("z2", "assembly"))
    store.robot_zone = "z1"
    store.add_entity("part", _env([0.4, 0, 0.02]), "z1", uid="part")
    store.add_entity("plate", _env([1.0, 0, 0.02]), "z2", uid="plate")
    store.priors["p"] = ShapePrior("p", PointCloudData(np.eye(3)))
    return store


# -- constraint state ---------------------------------------------------------


def test_constraint_state_invariants():
    ConstraintState()
    ConstraintState(Phase.HOLDING, "part")
    with pytest.raises(ValueError):
        ConstraintState(Phase.HOLDING)
    with pytest.raises(ValueError):
        ConstraintState(Phase.IDLE, "part")
    cs = ConstraintState(Phase.TRANSPORTING, "part")
    assert ConstraintState.from_dict(cs.to_dict()) == cs


# -- force-torque mapping -----------------------------------------------------


def test_ft_mapping_table():
    grip = lambda v: FTEvent(FTSignal.GRIPPER_FORCE, v, "N")
    # Low grip force right after closing, and during transport: grasp lost.
    assert map_ft_event(grip(3.0), "close") == ControllerEvent.GRASP_FAILURE
    assert map_ft_event(grip(3.0), "transport") == ControllerEvent.GRASP_FAILURE
    assert map_ft_event(grip(3.0), "place") is None
    # Excess grip force in any context: over-squeeze.
    assert map_ft_event(grip(41.0), "close") == ControllerEvent.OVER_SQUEEZE
    assert map_ft_event(grip(41.0), "insert") == ControllerEvent.OVER_SQUEEZE
    assert map_ft_event(grip(20.0), "close") is None
    # External force during transport: collision.
    ext = lambda v: FTEvent(FTSignal.EXTERNAL_FORCE, v, "N")
    assert map_ft_event(ext(16.0), "transport") == ControllerEvent.COLLISION_DETECTED
    assert map_ft_event(ext(-16.0), "transport") == ControllerEvent.COLLISION_DETECTED
    assert map_ft_event(ext(14.0), "transport") is None
    assert map_ft_event(ext(16.0), "close") is None
    # Sustained vertical force while placing: contact confirmed.
    vert = lambda v, s: FTEvent(FTSignal.VERTICAL_FORCE, v, "N", s)
    assert map_ft_event(vert(11.0, 0.6), "place") == ControllerEvent.CONTACT_CONFIRMED
    assert map_ft_event(vert(11.0, 0.4), "place") is None  # too brief
    assert map_ft_event(vert(9.0, 0.6), "place") is None
    # Torque during insertion: jamming.
    torq = lambda v: FTEvent(FTSignal.EXTERNAL_TORQUE, v, "Nm")
    assert map_ft_event(torq(2.5), "insert") == ControllerEvent.JAMMING_DETECTED
    assert map_ft_event(torq(-2.5), "insert") == ControllerEvent.JAMMING_DETECTED
    assert map_ft_event(torq(1.0), "insert") is None
    assert map_ft_event(torq(2.5), "transport") is None


# -- preconditions ------------------------------------------------------------


def test_pick_requires_empty_gripper_and_clear_target():
    store = make_store()
    log = TransactionLog()
    res = apply_transition(
        store, ConstraintState(Phase.HOLDING, "plate"), log, "Pick",
        {"object": "part"},
    )
    assert res.status == TransitionStatus.PRECONDITION_FAILED
    assert res.failed_predicate == "GripperEmpty"

    store.add_edge("On", "plate", "part")
    res = apply_transition(store, ConstraintState(), log, "Pick", {"object": "part"})
    assert res.status == TransitionStatus.PRECONDITION_FAILED
    assert res.failed_predicate == "Clear(part)"
    assert log.entries == []  # failed preconditions never touch the log


def test_place_requires_holding_family():
    store = make_store()
    log = TransactionLog()
    res = apply_transition(store, ConstraintState(), log, "Place",
                           {"destination": "plate"})
    assert res.status == TransitionStatus.PRECONDITION_FAILED
    for phase in (Phase.HOLDING, Phase.TRANSPORTING):
        res = apply_transition(
            make_store(), ConstraintState(phase, "part"), TransactionLog(),
            "Place", {"destination": "plate", "position": [1.0, 0, 0.055]},
        )
        assert res.status == TransitionStatus.COMMITTED


def test_insert_requires_verified_alignment():
    store = make_store()
    log = TransactionLog()
    cs = ConstraintState(Phase.HOLDING, "part")
    res = apply_transition(store, cs, log, "Insert",
                           {"part": "part", "receptacle": "plate"})
    assert res.status == TransitionStatus.PRECONDITION_FAILED
    assert res.failed_predicate == "Aligned(part,plate)"
    store.add_edge("Aligned", "part", "plate", EdgeStatus.VERIFIED)
    res = apply_transition(store, cs, log, "Insert",
                           {"part": "part", "receptacle": "plate"})
    assert res.status == TransitionStatus.COMMITTED


def test_unknown_action_rejected():
    with pytest.raises(TransactionError):
        apply_transition(make_store(), ConstraintState(), TransactionLog(),
                         "Teleport", {})


# -- effects ------------------------------------------------------------------


def test_pick_effects():
    store = make_store()
    store.add_edge("On", "part", "plate")
    log = TransactionLog()
    res = apply_transition(store, ConstraintState(), log, "Pick",
                           {"object": "part"})
    assert res.status == TransitionStatus.COMMITTED
    assert res.cs == ConstraintState(Phase.HOLDING, "part")
    assert store.records["part"].attached_to == "gripper"
    assert store.find_edges("On", subject="part") == []


def test_place_effects_update_position_edge_and_zone():
    store = make_store()
    store.update_record("part", attached_to="gripper")
    log = TransactionLog()
    res = apply_transition(
        store, ConstraintState(Phase.HOLDING, "part"), log, "Place",
        {"destination": "plate", "position": [1.0, 0.0, 0.055], "zone": "z2"},
    )
    assert res.cs == ConstraintState()
    assert store.records["part"].attached_to == "world"
    assert np.allclose(store.records["part"].envelope.mean, [1.0, 0.0, 0.055])
    on = store.find_edges("On", "part", "plate")
    assert len(on) == 1 and on[0].status == EdgeStatus.VERIFIED
    assert store.vertices["part"].zone_id == "z2"
    assert [v.uid for v in store.entities_in_zone("z2")] == ["part", "plate"]
    assert store.entities_in_zone("z1") == []


def test_move_updates_robot_and_constraint_state():
    store = make_store()
    log = TransactionLog()
    res = apply_transition(store, ConstraintState(), log, "Move",
                           {"zone": "z2", "position": [1.0, 0, 0.1],
                            "target": "plate"})
    assert store.robot_zone == store.vertices[ROBOT_UID].zone_id == "z2"
    assert np.allclose(store.records["robot"].envelope.mean, [1.0, 0, 0.1])
    assert res.cs == ConstraintState(Phase.APPROACHING, "plate")
    # While holding, a move becomes a transport.
    res = apply_transition(store, ConstraintState(Phase.HOLDING, "part"), log,
                           "Move", {"zone": "z1"})
    assert res.cs == ConstraintState(Phase.TRANSPORTING, "part")


def test_open_gripper_releases():
    store = make_store()
    store.update_record("part", attached_to="gripper")
    res = apply_transition(store, ConstraintState(Phase.HOLDING, "part"),
                           TransactionLog(), "OpenGripper", {})
    assert res.cs == ConstraintState()
    assert store.records["part"].attached_to == "world"


# -- atomicity ----------------------------------------------------------------


def test_adverse_event_rolls_back_byte_identical():
    store = make_store()
    cs = ConstraintState()
    log = TransactionLog()
    before = state_bytes(store, cs)
    res = apply_transition(
        store, cs, log, "Pick", {"object": "part"},
        ft_events=[FTEvent(FTSignal.GRIPPER_FORCE, 3.0, "N")],
    )
    assert res.status == TransitionStatus.ROLLED_BACK
    assert res.reason == "GraspFailure"
    assert state_bytes(store, res.cs) == before
    assert log.entries[-1].outcome == "rolled_back"
    assert log.entries[-1].pre_hash == log.entries[-1].post_hash
    assert log.validate_chain()


def test_structural_inverse_equals_whole_store_copy():
    # Restoring the targeted inverse must be indistinguishable from
    # restoring a deep copy of the entire store.
    store = make_store()
    store.add_edge("On", "part", "plate")
    cs = ConstraintState()
    reference = store.snapshot()
    inverse = capture_inverse(store, cs, {"object": "part"})
    apply_transition(store, cs, TransactionLog(), "Pick", {"object": "part"})
    restored_cs = apply_inverse(store, inverse)
    assert restored_cs == cs
    assert state_bytes(store, cs) == state_bytes(reference, cs)


def test_explicit_rollback_lifo_and_chain():
    store = make_store()
    log = TransactionLog()
    cs = ConstraintState()
    before = state_bytes(store, cs)
    res = apply_transition(store, cs, log, "Pick", {"object": "part"})
    assert res.status == TransitionStatus.COMMITTED
    restored = rollback(log, store)
    assert restored == cs
    assert state_bytes(store, restored) == before
    assert [e.outcome for e in log.entries] == ["rolled_back", "rollback"]
    assert log.validate_chain()
    with pytest.raises(TransactionError):
        rollback(log, store)  # nothing pending anymore


def test_rollback_across_perception_update_keeps_promoted_entity():
    # The executive's abort path: a skill is applied, post-action perception
    # promotes a new entity and is logged as its own entry, the commit check
    # fails, and the skill is rolled back. Only the skill is undone.
    store = make_store()
    log = TransactionLog()
    apply_transition(store, ConstraintState(), log, "Pick", {"object": "part"})
    pre = store.state_hash()
    obs = Observation(instance_id=0, label="gear", geometry=None,
                      envelope=_env([0.6, 0.2, 0.02]))
    for step in (0, 1):  # two sightings promote the track
        register_or_update(store, [obs], MatchResult(unmatched_observations=[0]),
                           [], {}, "z1", step=step)
    log.append(TransactionEntry(pre, store.state_hash(), "PerceptionUpdate",
                                {}, [], outcome="committed"))
    rollback(log, store)
    assert store.vertices["gear_1"].lifecycle == Lifecycle.ACTIVE
    assert store.records["part"].attached_to == "world"
    for zone_id in store.zones:
        uids = [v.uid for v in store.entities_in_zone(zone_id)]
        assert uids == zone_members(store, zone_id)
    assert zone_members(store, "z1") == ["gear_1", "part"]
    assert log.validate_chain()


def test_mark_committed_drops_inverse():
    store = make_store()
    log = TransactionLog()
    apply_transition(store, ConstraintState(), log, "Pick", {"object": "part"})
    assert log.pending()
    mark_committed(log)
    assert not log.pending()
    assert log.entries[0].inverse is None


def test_chain_detects_tampering():
    store = make_store()
    log = TransactionLog()
    cs = ConstraintState()
    r1 = apply_transition(store, cs, log, "Pick", {"object": "part"})
    mark_committed(log)
    apply_transition(store, r1.cs, log, "Move", {"zone": "z2"})
    assert log.validate_chain()
    log.entries[1].pre_hash = "0" * 64
    assert not log.validate_chain()


def test_export_ndjson(tmp_path):
    store = make_store()
    log = TransactionLog()
    apply_transition(store, ConstraintState(), log, "Move", {"zone": "z2"})
    path = tmp_path / "log.ndjson"
    log.export_ndjson(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert '"action":' in lines[0].replace(" ", "") or "action" in lines[0]


# -- commit confirmation ------------------------------------------------------


def test_check_commit_motion_actions_trivially_commit():
    store = make_store()
    assert check_commit(store, "Move", {}, None, ft_adverse=False).commit
    assert not check_commit(store, "Move", {}, None, ft_adverse=True).commit


def test_check_commit_requires_perception_for_manipulation():
    store = make_store()
    assert not check_commit(store, "Pick", {"object": "part"}, None,
                            ft_adverse=False).commit


def test_check_commit_pick_object_tracks_gripper():
    store = make_store()
    grip = np.array([0.4, 0.0, 0.1])
    near = {"part": grip + np.array([0.005, 0, 0])}
    far = {"part": np.array([0.6, 0.0, 0.02])}
    assert check_commit(store, "Pick", {"object": "part"}, near, False,
                        gripper_position=grip).commit
    assert not check_commit(store, "Pick", {"object": "part"}, far, False,
                            gripper_position=grip).commit
    # Vanished from the support surfaces: consistent with being in-hand.
    assert check_commit(store, "Pick", {"object": "part"}, {}, False,
                        gripper_position=grip).commit


def test_check_commit_place_within_tolerance():
    store = make_store()
    args = {"object": "part", "position": [1.0, 0.0, 0.055]}
    good = {"part": np.array([1.01, 0.0, 0.055])}
    bad = {"part": np.array([1.1, 0.0, 0.055])}
    assert check_commit(store, "Place", args, good, False).commit
    assert not check_commit(store, "Place", args, bad, False).commit
    assert not check_commit(store, "Place", args, {}, False).commit
