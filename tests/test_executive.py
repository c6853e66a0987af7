"""Task memory, constraint-state machine, discrepancy diagnosis, and the
recovery synthesis request."""

import numpy as np
import pytest

from workcell.cognition import ERT, RequestKind
from workcell.errors import ScenarioError, StateMachineError
from workcell.executive import (
    DiscrepancyReport,
    FailureCategory,
    HistoryEntry,
    TaskDAG,
    TaskNode,
    compute_discrepancy,
    diagnose,
    synthesize_replan,
)
from workcell.geometry import GaussianEnvelope
from workcell.transactions import (
    ConstraintState,
    ControllerEvent,
    Phase,
    cs_during_action,
    touched_uids,
    update_cs,
    update_cs_from_events,
)
from workcell.world_model import EdgeStatus, WorldStore, ZoneNode


def _env(mean):
    return GaussianEnvelope(np.asarray(mean, dtype=float), 0.01 * np.eye(3))


def _ert(action, args, expected_cs, add=(), remove=(), positions=None):
    return ERT(
        action=action, args=dict(args), world_belief=[],
        expected_cs=dict(expected_cs),
        add_relations=[tuple(r) for r in add],
        remove_relations=[tuple(r) for r in remove],
        confidence=0.9, expected_positions=dict(positions or {}),
    )


def make_store():
    store = WorldStore()
    store.add_zone(ZoneNode("z1", "z1"))
    store.robot_zone = "z1"
    for uid in ("A", "B", "floor"):
        store.add_entity(uid, _env([0, 0, 0]), "z1", uid=uid)
    return store


# -- task DAG -----------------------------------------------------------------


def test_dag_ready_order_and_deps():
    dag = TaskDAG([
        TaskNode(4, "d", deps=[1]),
        TaskNode(2, "b", deps=[3]),
        TaskNode(1, "a"),
        TaskNode(3, "c", deps=[1, 1]),  # a repeated dep counts once
    ])
    assert [n.node_id for n in dag.order] == [1, 3, 2, 4]


def test_dag_rejects_cycles_duplicates_missing_deps():
    with pytest.raises(ScenarioError):
        TaskDAG([TaskNode(1, "a", deps=[2]), TaskNode(2, "b", deps=[1])])
    with pytest.raises(ScenarioError):
        TaskDAG([TaskNode(1, "a"), TaskNode(1, "b")])
    with pytest.raises(ScenarioError):
        TaskDAG([TaskNode(1, "a", deps=[99])])


def test_dag_from_doc():
    dag = TaskDAG.from_doc({"nodes": [
        {"id": 1, "function": "Pick", "args": {"object": "A"},
         "manipulation": True, "key": "k1"},
        {"id": 2, "function": "Move", "deps": [1]},
    ]})
    first, second = dag.order
    assert first.manipulation and second.deps == [1]


@pytest.mark.parametrize("node", [
    {"id": True, "function": "Move"},
    {"id": 2, "function": "Move", "deps": [1.5]},
    {"id": 2, "function": "Move", "args": []},
    "Move",
])
def test_dag_from_doc_rejects_malformed_nodes(node):
    with pytest.raises(ScenarioError):
        TaskDAG.from_doc({"nodes": [{"id": 1, "function": "Pick"}, node]})


# -- constraint-state machine -------------------------------------------------


def test_update_cs_controller_events():
    holding = ConstraintState(Phase.TRANSPORTING, "A")
    assert update_cs(holding, ControllerEvent.GRASP_FAILURE) == ConstraintState()
    out = update_cs(holding, ControllerEvent.COLLISION_DETECTED)
    assert out == ConstraintState(Phase.INTERRUPTED, "A")
    assert update_cs(
        ConstraintState(Phase.PLACING, "A"), ControllerEvent.CONTACT_CONFIRMED
    ) == ConstraintState()
    # An interruption with nothing under way leaves the robot Idle.
    assert update_cs(ConstraintState(), ControllerEvent.COLLISION_DETECTED) == \
        ConstraintState()
    with pytest.raises(StateMachineError):
        update_cs(ConstraintState(), ControllerEvent.CONTACT_CONFIRMED)
    with pytest.raises(StateMachineError):
        update_cs(ConstraintState(), "not an event")


def test_update_cs_from_events_folds():
    start = ConstraintState(Phase.TRANSPORTING, "A")
    assert update_cs_from_events(start, [ControllerEvent.GRASP_FAILURE]) == \
        ConstraintState()
    assert update_cs_from_events(start, []) == start


def test_cs_during_action():
    idle = ConstraintState()
    holding = ConstraintState(Phase.HOLDING, "A")
    move_t = {"target": "B"}
    assert cs_during_action(idle, "Move", move_t) == ConstraintState(Phase.APPROACHING, "B")
    assert cs_during_action(holding, "Move", move_t) == \
        ConstraintState(Phase.TRANSPORTING, "A")
    assert cs_during_action(idle, "Move", {"zone": "z1"}) is idle
    place = {"destination": "B"}
    assert cs_during_action(holding, "Place", place) == ConstraintState(Phase.PLACING, "A")
    ins = {"part": "A", "receptacle": "B"}
    assert cs_during_action(holding, "Insert", ins) == ConstraintState(Phase.INSERTING, "A")
    assert cs_during_action(idle, "Pick", {"object": "A"}) is idle


# -- discrepancy --------------------------------------------------------------


def test_touched_objects_one_hop():
    store = make_store()
    store.add_edge("On", "B", "A")
    ert = _ert("Pick", {"object": "A"}, {})
    assert touched_uids(store, ert.args) == {"A", "B"}


def test_discrepancy_worked_example_misplaced_object():
    # Intended Place(A, B); the part actually landed on the floor.
    store = make_store()
    store.add_edge("On", "A", "floor", EdgeStatus.VERIFIED)
    pre_edges = set()  # A was held before the action: no On edges
    ert = _ert(
        "Place", {"object": "A", "destination": "B"},
        {"phase": "Idle", "target": None},
        add=[("On", "A", "B")],
    )
    report = compute_discrepancy(store, ert, pre_edges, ConstraintState())
    assert report.dg_minus == {("On", "A", "B")}
    assert report.dg_plus == {("On", "A", "floor")}
    assert report.delta_cs is None  # constraint state matched expectation


def test_discrepancy_ignores_untouched_scenery():
    store = make_store()
    store.add_zone(ZoneNode("z2", "z2"))
    store.add_entity("C", _env([9, 9, 9]), "z2", uid="C")
    store.add_entity("D", _env([9, 9, 9]), "z2", uid="D")
    store.add_edge("Near", "C", "D")
    ert = _ert("Pick", {"object": "A"}, {"phase": "Holding", "target": "A"})
    report = compute_discrepancy(
        store, ert, set(), ConstraintState(Phase.HOLDING, "A")
    )
    assert report.dg_plus == set() and report.dg_minus == set()


def test_discrepancy_flags_drift_over_threshold():
    store = make_store()
    ert = _ert("Pick", {"object": "A"}, {"phase": "Idle", "target": None},
               positions={"A": [0.0, 0.0, 0.0], "B": [1.0, 0.0, 0.0]})
    actual = {"A": np.array([0.0, 0.0, 0.04]),
              "B": np.array([1.2, 0.0, 0.0])}
    report = compute_discrepancy(store, ert, set(), ConstraintState(), actual)
    assert report.drift["A"] == pytest.approx(0.04)
    assert report.drift_flagged == ["B"]


# -- diagnosis rules ----------------------------------------------------------


def _cs_report(exp_phase, exp_target, act_phase, act_target):
    return DiscrepancyReport(
        delta_cs=({"phase": exp_phase, "target": exp_target},
                  {"phase": act_phase, "target": act_target}),
        dg_plus=set(), dg_minus=set(), drift={}, drift_flagged=[],
    )


def test_diagnosis_rule_table():
    assert diagnose(_cs_report("Holding", "A", "Idle", None)) == \
        FailureCategory.GRASP_SLIP
    assert diagnose(_cs_report("Transporting", "A", "Idle", None)) == \
        FailureCategory.GRASP_SLIP
    assert diagnose(_cs_report("Holding", "A", "Holding", "B")) == \
        FailureCategory.MISIDENTIFICATION
    assert diagnose(_cs_report("Approaching", "A", "Idle", None)) == \
        FailureCategory.MOTION_INTERRUPTED
    assert diagnose(_cs_report("Placing", "A", "Holding", "A")) == \
        FailureCategory.PLACEMENT_REJECTED
    assert diagnose(_cs_report("Idle", None, "Interrupted", "A")) == \
        FailureCategory.UNKNOWN
    with pytest.raises(StateMachineError):
        diagnose(DiscrepancyReport(None, set(), set(), {}, []))


# -- recovery request ---------------------------------------------------------


def test_synthesize_replan_payload_shape():
    report = _cs_report("Holding", "A", "Idle", None)
    history = [HistoryEntry(3, {"action_proposal": {"action": "Pick"}},
                            "rolled_back", 7)]
    req = synthesize_replan(report, FailureCategory.GRASP_SLIP, history,
                            {"vertices": []}, ConstraintState())
    assert req.kind == RequestKind.RECOVERY_PLAN
    assert req.key == "GraspSlip"
    assert req.payload["failure_report"]["likely_cause"] == "GraspSlip"
    assert req.payload["history"][0]["outcome"] == "rolled_back"
    assert req.payload["cs_before"] == {"phase": "Idle", "target": None}
