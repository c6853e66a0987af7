"""Scenario harness: validation, briefing store, structured questions,
metrics, the trial runner, and the CLI."""

import copy
import functools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import workcell.executive as executive
import workcell.harness as harness
import workcell.world_model as world_model
from workcell import cli, simulator
from workcell.cognition import ValidationStage, validate_ert
from workcell.errors import ReasonerFault, ScenarioError, WorkcellError
from workcell.geometry import GaussianEnvelope, PoseSE3
from workcell.harness import (
    ScenarioSpec,
    answer_question,
    build_store,
    build_world,
    classify_root_cause,
    compute_metrics,
    load_scenario,
    metrics_from_dir,
    run_scenario,
    run_trial,
    sta_from_samples,
    validate_scenario,
)
from workcell.transactions import (
    ConstraintState,
    FTEvent,
    FTSignal,
    HELD_COVARIANCE,
    Phase,
    TransactionLog,
    apply_inverse,
    apply_transition,
    capture_inverse,
)
from workcell.world_model import EdgeStatus, Lifecycle, WorldStore, ZoneNode

from fixtures import ert_doc, leaves, task1_doc, task3_doc
from oracles import (
    find_edges_scan,
    held_uids_scan,
    is_clear_scan,
    neighbors_scan,
    store_digest,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _env(mean, sigma=0.01):
    return GaussianEnvelope(np.asarray(mean, dtype=float), sigma * np.eye(3))


# -- scenario validation ------------------------------------------------------


def test_validate_scenario_ok():
    assert validate_scenario(task1_doc()) == []
    for kind in ("PartSlip", "Obstacle", "TargetMoved"):
        assert validate_scenario(task3_doc(kind)) == []


def test_validate_scenario_collects_all_errors():
    doc = copy.deepcopy(task1_doc())
    doc["version"] = 99
    doc["objects"].append(dict(doc["objects"][0]))  # duplicate id
    doc["objects"][0]["zone"] = "nowhere"
    doc["robot"]["zone"] = "nowhere"
    doc["questions"].append({"kind": "telepathy"})
    errors = validate_scenario(doc)
    assert len(errors) >= 5
    joined = "\n".join(errors)
    assert "version" in joined and "duplicate" in joined
    assert "telepathy" in joined


def test_validate_targetmoved_needs_known_target():
    doc = copy.deepcopy(task3_doc("TargetMoved"))
    doc["injections"][0]["params"]["target"] = "phantom"
    assert any("unknown target" in e for e in validate_scenario(doc))


def _scenario(name):
    return json.loads((SCENARIOS / f"{name}.json").read_text())


def _without_object_position(doc):
    del doc["objects"][0]["position"]


def _without_move_delta(doc):
    del doc["injections"][0]["params"]["move_delta"]


def _set(path, value):
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return mutate


_BROKEN_SCENARIOS = {
    "object_without_position": ("assembly", _without_object_position),
    "trials_not_a_number": ("assembly", _set(["trials"], "many")),
    "zones_not_a_list": ("assembly", _set(["zones"], "z")),
    "object_not_a_mapping": ("assembly", _set(["objects", 0], "widget")),
    "robot_not_a_mapping": ("assembly", _set(["robot"], "arm")),
    "question_not_a_mapping": ("assembly", _set(["questions", 0], "where?")),
    "camera_without_rotation": ("assembly", lambda d: d["cameras"]["zone_a"].pop("rotation")),
    "camera_height_negative": ("assembly", _set(["cameras", "zone_a", "height"], -1)),
    "camera_width_huge": ("transfer_obstacle", _set(["cameras", "zone_b", "width"], 10**400)),
    "camera_height_above_bound": ("assembly", _set(["cameras", "zone_a", "height"], 1025)),
    "task_missing": ("assembly", lambda d: d.pop("task")),
    "cameras_missing": ("assembly", lambda d: d.pop("cameras")),
    "zone_count_of_unknown_zone": ("assembly", lambda d: d["queries"].append(
        {"kind": "zone_count", "zone": "nowhere", "expect": 0})),
    "task_keywords_not_a_list": ("assembly", _set(["task", "nodes", 0, "keywords"], 5)),
    "task_zones_nested_list": ("assembly", _set(["task", "nodes", 0, "zones"], [["zone_a"]])),
    "targetmoved_params_a_list": ("transfer_targetmoved", _set(["injections", 0, "params"], [])),
    "targetmoved_without_move_delta": ("transfer_targetmoved", _without_move_delta),
    "task_manipulation_a_string": ("assembly",
                                   _set(["task", "nodes", 1, "manipulation"], "false")),
    "task_key_a_number": ("assembly", _set(["task", "nodes", 0, "key"], 5)),
    "script_kind_unknown": ("assembly", _set(["script", 0, "kind"], "ProposeErt")),
    "object_id_robot": ("assembly", _set(["objects", 4, "id"], "robot")),
    # These crash nothing: the injection never fires, or CDA is scored
    # against a cause that no diagnosis maps to.
    "trigger_step_a_string": ("transfer_obstacle", _set(["injections", 0, "trigger_step"], "1")),
    "trigger_step_zero": ("transfer_obstacle", _set(["injections", 0, "trigger_step"], 0)),
    "trigger_phase_not_a_skill": ("transfer_obstacle",
                                  _set(["injections", 0, "trigger_phase"], "move")),
    "root_cause_unknown": ("transfer_obstacle", _set(["root_cause"], "Gremlin")),
}


@pytest.mark.parametrize("case", sorted(_BROKEN_SCENARIOS))
def test_validation_reports_what_the_builders_would_crash_on(case, tmp_path, capsys):
    name, mutate = _BROKEN_SCENARIOS[case]
    doc = _scenario(name)
    mutate(doc)
    assert validate_scenario(doc) != []
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "run"):
        assert cli.main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err and all(line.startswith("error: ") for line in err.splitlines())


# What rests on what is read from the poses, so a stale ``support`` key, a
# TargetMoved of a supporter, and a TargetMoved straight up off a supporter
# leave nothing to refuse: each validates and runs.
_STACKS_THAT_RUN = {
    "object_floats_above_support": ("transfer_targetmoved",
                                    _set(["objects", 1, "support"], "base_plate")),
    "targetmoved_moves_a_supporter": ("transfer_targetmoved", lambda d: d["objects"].append(
        {"id": "cap", "label": "cap", "zone": "zone_a", "position": [0.45, -0.1, 0.04],
         "half_extents": [0.01, 0.01, 0.01], "support": "part_x"})),
    "targetmoved_lifts_a_supported_object": ("transfer_targetmoved", lambda d: (
        d["objects"].append({"id": "washer", "label": "washer", "zone": "zone_b",
                             "position": [1.2, 0.0, 0.035], "half_extents": [0.01, 0.01, 0.005],
                             "support": "base_plate"}),
        d["injections"][0]["params"].update(target="washer", move_delta=[0, 0, 0.05]))),
    # Lifted off the plate after the Place that stacks it there.
    "targetmoved_lifts_a_placed_part": ("assembly", lambda d: d.setdefault("injections", [])
                                        .append({"kind": "TargetMoved", "trigger_step": 6,
                                                 "params": {"target": "part_a",
                                                            "move_delta": [0, 0, 0.05]}})),
}


@pytest.mark.parametrize("case", sorted(_STACKS_THAT_RUN))
def test_a_stack_the_poses_give_validates_and_runs(case):
    name, mutate = _STACKS_THAT_RUN[case]
    doc = _scenario(name)
    mutate(doc)
    assert validate_scenario(doc) == []
    run_trial(ScenarioSpec(doc), 0)


# -- one value rule for scenarios and reasoner replies -------------------------


def _pick_store():
    store = WorldStore()
    store.add_zone(ZoneNode("z1", "z1"))
    store.robot_zone = "z1"
    store.add_entity("part", _env([0.4, 0.0, 0.02]), "z1", uid="part")
    return store


def _scenario_accepts(name, mutate):
    doc = _scenario(name)
    mutate(doc)
    return validate_scenario(doc) == []


def _ert_accepts(action, args, positions=None):
    ert, _report = validate_ert(ert_doc(action, args, {"phase": "Idle"}, positions=positions),
                                _pick_store())
    return ert is not None


@pytest.mark.parametrize("point, accepted", [
    ([True, 0.0, 0.0], False),
    ([2**70, 0.0, 0.0], True),
    ([0, 0, 10**400], False),
    ([0, float("nan"), 0], False),
    ([0, 0], False),
    (["0", 0, 0], False),
])
def test_a_point_gets_one_verdict_everywhere(point, accepted):
    assert _scenario_accepts("assembly", _set(["objects", 0, "position"], point)) is accepted
    assert _scenario_accepts("transfer_targetmoved",
                             _set(["injections", 0, "params", "move_delta"], point)) is accepted
    assert _ert_accepts("Pick", {"object": "part"}, positions={"part": point}) is accepted
    assert _ert_accepts("Move", {"position": point}) is accepted


def test_a_rotation_gets_one_verdict_everywhere():
    flat = _scenario("assembly")["cameras"]["zone_a"]["rotation"]
    square = np.reshape(flat, (3, 3)).tolist()
    scaled = (2 * np.eye(3)).tolist()
    for rotation, accepted in ((flat, True), (square, True), (scaled, False)):
        camera = _set(["cameras", "zone_a", "rotation"], rotation)
        assert _scenario_accepts("assembly", camera) is accepted
        assert _ert_accepts("Rotate", {"object": "part", "rotation": rotation}) is accepted


def test_load_scenario_rejects_invalid(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 0}))
    with pytest.raises(ScenarioError):
        load_scenario(str(bad))


def _reply(key, action, args):
    """Replace the first reply scripted under ``key`` with ``action(args)``."""
    def mutate(doc):
        rule = next(r for r in doc["script"] if r.get("key") == key)
        rule["responses"][0]["action_proposal"] = {"action": action, "args": args}
    return mutate


# The one single-leaf mutant of a shipped scenario that crashed the run
# once its reply passed validation: the held part_a placed onto itself.
_PLACE_ONTO_HELD = (["script", 2, "responses", 0, "action_proposal", "args", "destination"],
                    "part_a")

# Replies that pass the syntactic stage and once crashed the run or
# corrupted the store, each with the trace event that now settles it.
_SETTLED_REPLIES = {
    "move_without_target_interrupted": (
        "transfer_obstacle", _reply("m1", "Move", {}), {"event": "rolled_back"}),
    "move_to_a_part_as_zone": (
        "assembly", _reply("m2", "Move", {"zone": "part_a", "target": "base_plate"}),
        {"event": "ert_exhausted"}),
    "pick_a_zone": ("transfer_obstacle", _reply("k2", "Pick", {"object": "zone_a"}),
                    {"event": "ert_exhausted"}),
    "place_into_a_part_as_zone": (
        "assembly", _reply("p3", "Place", {"destination": "base_plate",
                                           "position": [1.2, 0.0, 0.045],
                                           "zone": "base_plate"}),
        {"event": "ert_exhausted"}),
    "pick_while_transporting": (
        "assembly", _reply("p3", "Pick", {"object": "part_b"}),
        {"event": "executed", "action": "Pick", "status": "PreconditionFailed"}),
    "place_onto_the_held_object": (
        "assembly", _set(*_PLACE_ONTO_HELD),
        {"event": "executed", "action": "Place", "status": "PreconditionFailed"}),
    "micro_sequence_picks_the_robot": (
        "assembly", _set(["script", 0, "responses", 0, "sequence", 2, "action_proposal",
                          "args", "object"], "robot"),
        {"event": "micro_invalid"}),
    **{f"{key}_picks_the_robot": (name, _reply(key, "Pick", {"object": "robot"}),
                                  {"event": "ert_exhausted"})
       for name, key in [("assembly", "m7"), ("transfer_obstacle", "m1"),
                         ("transfer_obstacle", "k2"), ("transfer_obstacle", "r1")]},
}


@pytest.mark.parametrize("case", sorted(_SETTLED_REPLIES))
def test_replies_that_crashed_the_run_are_settled(case):
    name, mutate, expected = _SETTLED_REPLIES[case]
    doc = _scenario(name)
    mutate(doc)
    assert validate_scenario(doc) == []
    _report, logs = run_scenario(ScenarioSpec(doc), trials=1)
    assert any(expected.items() <= e.items() for e in logs[0]["trace"])


def test_a_uid_only_the_store_knows_ends_one_trial(monkeypatch):
    """The store can mint a uid the world has no object for. Picking it
    passes the firewall, closes the gripper on air and fails the trial."""
    build_store = harness.build_store

    def with_a_phantom(doc, world):
        store = build_store(doc, world)
        store.add_entity("spacer", GaussianEnvelope([0.35, 1.3, 0.015], 1e-4 * np.eye(3)),
                         "zone_c", uid="spacer_1")
        return store

    monkeypatch.setattr(harness, "build_store", with_a_phantom)
    doc = _scenario("assembly")
    _reply("m7", "Pick", {"object": "spacer_1"})(doc)
    _report, logs = run_scenario(ScenarioSpec(doc), trials=1)
    expected = {"event": "executed", "action": "Pick", "status": "RolledBack",
                "events": ["GraspFailure"]}
    assert any(expected.items() <= e.items() for e in logs[0]["trace"])
    assert not logs[0]["success"]


def test_a_refused_skill_is_never_dispatched(monkeypatch):
    dispatched = []
    dispatch = harness.TrialRuntime.execute_skill

    def recorded(self, action, args):
        dispatched.append(action)
        return dispatch(self, action, args)

    monkeypatch.setattr(harness.TrialRuntime, "execute_skill", recorded)
    doc = _scenario("transfer_obstacle")
    _reply("m1", "Rotate", {"object": "part_x", "rotation": np.eye(3).tolist()})(doc)
    _report, logs = run_scenario(ScenarioSpec(doc), trials=1)
    first = next(e for e in logs[0]["trace"] if e["event"] == "executed")
    assert (first["action"], first["status"], first["events"]) == (
        "Rotate", "PreconditionFailed", [])
    assert "Rotate" not in dispatched


_LEAF_VALUES = [None, True, False, 0, -1, 2, 0.5, -0.05, 1e6, "", "part_a", "zone_b",
                "base_plate", "robot", "gear", [], {}]


def test_single_leaf_mutants_are_refused_or_run():
    """A shipped scenario with one leaf replaced is either refused by
    ``validate_scenario`` or runs a trial without raising."""
    docs = {p.stem: json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))}
    mutants = [(name, path, value) for name, doc in docs.items()
               for path in leaves(doc) for value in _LEAF_VALUES]
    sample = random.Random(17).sample(mutants, 300) + [("assembly", *_PLACE_ONTO_HELD)]
    ran = 0
    for name, path, value in sample:
        doc = copy.deepcopy(docs[name])
        _set(path, value)(doc)
        if not validate_scenario(doc):
            run_scenario(ScenarioSpec(doc), trials=1)
            ran += 1
    assert ran > 100


# -- briefing store -----------------------------------------------------------


def test_build_store_mirrors_briefing_map():
    doc = task1_doc()
    world = build_world(doc)
    store = build_store(doc, world)
    for o in doc["objects"]:
        v = store.vertices[o["id"]]
        assert v.label == o["label"] and v.zone_id == o["zone"]
        mean = store.records[o["id"]].envelope.mean
        assert np.allclose(mean, o["position"])
    # Briefed support relations arrive as verified edges.
    gt_on = {(s, o) for _p, s, o in world.on_relations()}
    believed = {(e.subject, e.obj) for e in store.find_edges(predicate="On")}
    assert believed == gt_on
    assert store.robot_zone == world.robot_zone
    store.check_integrity()


# -- questions ----------------------------------------------------------------


def _question_store():
    store = WorldStore()
    store.add_zone(ZoneNode("z1", "z1"))
    store.robot_zone = "z1"
    store.add_entity("bolt", _env([0.5, 0.1, 0.02]), "z1",
                     attributes={"color": "red"}, uid="bolt")
    store.add_entity("tray", _env([0.7, 0.1, 0.02]), "z1", uid="tray")
    store.add_edge("On", "bolt", "tray")
    return store


def test_answer_question_all_kinds():
    store = _question_store()
    ans, ok = answer_question(store, {"kind": "position", "uid": "bolt",
                                      "expect": [0.5, 0.1, 0.02]})
    assert ok and np.allclose(ans, [0.5, 0.1, 0.02])
    _, ok = answer_question(store, {"kind": "position", "uid": "bolt",
                                    "expect": [0.9, 0.1, 0.02]})
    assert not ok
    ans, ok = answer_question(store, {"kind": "relation", "predicate": "On",
                                      "subject": "bolt", "object": "tray",
                                      "expect": True})
    assert ans is True and ok
    ans, ok = answer_question(store, {"kind": "attribute", "uid": "bolt",
                                      "key": "color", "expect": "red"})
    assert ans == "red" and ok
    ans, ok = answer_question(store, {"kind": "zone_of", "uid": "tray",
                                      "expect": "z1"})
    assert ans == "z1" and ok
    ans, ok = answer_question(store, {"kind": "zone_count", "zone": "z1",
                                      "expect": 2})
    assert ans == 2 and ok
    with pytest.raises(ScenarioError):
        answer_question(store, {"kind": "telepathy"})


def test_answer_question_archived_is_unanswerable():
    store = _question_store()
    store.update_vertex("bolt", lifecycle=Lifecycle.ARCHIVED)
    ans, ok = answer_question(store, {"kind": "position", "uid": "bolt",
                                      "expect": [0.5, 0.1, 0.02]})
    assert ans is None and not ok


# -- root-cause classification ------------------------------------------------


def test_classify_root_cause_table():
    assert classify_root_cause("MotionInterrupted", "Move", False) == "Obstacle"
    assert classify_root_cause("GraspSlip", "Move", False) == "PartSlip"
    assert classify_root_cause("GraspSlip", "Pick", True) == "TargetMoved"
    assert classify_root_cause("GraspSlip", "Pick", False) == "PartSlip"
    assert classify_root_cause("Unknown", "Move", False) == "Unknown"


# -- metrics ------------------------------------------------------------------


def test_sta_from_samples_arithmetic():
    samples = [
        {"step": 1, "oov_correct": {"a": True, "b": False}},   # 50%
        {"step": 2, "oov_correct": {"a": True, "b": True}},    # 100%
    ]
    assert sta_from_samples(samples) == pytest.approx(75.0)
    assert sta_from_samples([]) is None
    assert sta_from_samples([{"step": 0, "oov_correct": {}}]) is None


def test_compute_metrics_reduction():
    logs = [
        {"trial": 0, "success": True, "n_init": 4, "n_replan": 1,
         "sta_samples": [{"step": 0, "oov_correct": {"a": True}}],
         "diagnostics": [{"round": 1, "category": "GraspSlip",
                          "failed_action": "Move", "drift_flagged": False}],
         "expected_root_cause": "PartSlip",
         "question_results": [{"correct": True}, {"correct": False}],
         "query_results": [{"correct": True}], "n_items": 2},
        {"trial": 1, "success": False, "n_init": 3, "n_replan": 0,
         "sta_samples": [], "diagnostics": [], "expected_root_cause": None,
         "question_results": [], "query_results": [], "n_items": 0},
    ]
    rep = compute_metrics(logs)
    assert rep.tsr == pytest.approx(50.0)
    assert rep.sta == pytest.approx(100.0)
    assert rep.pe == 8 and rep.n_init == 7 and rep.n_replan == 1
    assert rep.ie == pytest.approx(50.0)
    assert rep.cda == pytest.approx(100.0)
    assert rep.qsr == pytest.approx(100.0)
    assert len(rep.per_trial) == 2
    assert "TSR" in rep.table()
    with pytest.raises(ScenarioError):
        compute_metrics([])
    # An Interrupted phase re-read: round 2 replaces its round 1, so the
    # episode counts once, by its final diagnosis.
    logs[1]["expected_root_cause"] = "Obstacle"
    logs[1]["diagnostics"] = [
        {"round": 1, "category": "Unknown", "failed_action": "Move",
         "drift_flagged": False},
        {"round": 2, "category": "MotionInterrupted", "failed_action": "Move",
         "drift_flagged": False},
    ]
    assert compute_metrics(logs).cda == pytest.approx(100.0)
    logs[1]["diagnostics"].pop()
    assert compute_metrics(logs).cda == pytest.approx(50.0)


# -- trial runner -------------------------------------------------------------


def test_run_trial_nominal_task_succeeds():
    log = run_trial(ScenarioSpec(task1_doc()), 0)
    assert log["success"] and log["n_replan"] == 0
    assert log["log_chain_valid"]
    assert all(r["correct"] for r in log["question_results"])
    assert log["trace"], "trace should record executed primitives"


def test_run_trial_deterministic_across_runs():
    spec = ScenarioSpec(task1_doc())
    a, b = run_trial(spec, 0), run_trial(spec, 0)
    assert a["store_hash"] == b["store_hash"]
    assert a["sta_samples"] == b["sta_samples"]


def test_run_scenario_writes_artifacts(tmp_path):
    out = tmp_path / "traces"
    report, logs = run_scenario(ScenarioSpec(task1_doc()), out_dir=out, trials=2)
    assert report.tsr == pytest.approx(100.0)
    assert sorted(p.name for p in out.glob("trial_*.json")) == \
        ["trial_000.json", "trial_001.json"]
    assert sorted(p.name for p in out.glob("trace_*.ndjson")) == \
        ["trace_000.ndjson", "trace_001.ndjson"]
    recomputed = metrics_from_dir(out)
    assert recomputed.to_dict() == json.loads((out / "metrics.json").read_text())


def _faulted(log, kind):
    """The trial failed on a reasoner fault of request kind ``kind``, and
    recorded it as the last event of its trace."""
    assert not log["success"]
    event = log["trace"][-1]
    assert event["event"] == "reasoner_fault" and event["kind"] == kind
    return event


@pytest.mark.parametrize("kind,reply", [
    ("SemanticSimilarity", 1.7),
    ("SemanticSimilarity", "high"),
    ("ReliabilityJudgment", "Maybe"),
])
def test_run_scenario_rejects_out_of_range_reasoner_replies(kind, reply):
    doc = task1_doc()
    doc["script"].append({"kind": kind, "key": "", "responses": [reply]})
    report, logs = run_scenario(ScenarioSpec(doc), trials=2)
    assert len(logs) == 2  # the fault ends one trial, not the run
    for log in logs:
        assert repr(reply) in _faulted(log, kind)["detail"]
        assert log["log_chain_valid"]
    assert report.tsr == 0.0


@pytest.mark.parametrize("plan", [
    "garbage",
    {"nodes": "garbage"},
    {"nodes": ["garbage"]},
    {"nodes": [{"id": "201", "function": "Move", "key": "r1"}]},
    {"nodes": [{"id": 201, "function": 7, "key": "r1"}]},
    {"nodes": [{"id": 201, "function": "Move", "key": "r1", "deps": "ab"}]},
    {"nodes": [{"id": 201, "function": "Move", "key": 1}]},
    {"nodes": [{"id": 201, "function": "Move", "key": "r1", "manipulation": 1}]},
])
def test_malformed_recovery_plan_is_a_workcell_error(plan):
    doc = task3_doc("Obstacle")
    entry = next(e for e in doc["script"] if e["kind"] == "RecoveryPlan")
    entry["responses"] = [plan]
    _report, logs = run_scenario(ScenarioSpec(doc), trials=1)
    detail = _faulted(logs[0], "RecoveryPlan")["detail"]
    assert detail.startswith("RecoveryPlan reply is not a task graph")
    assert issubclass(ReasonerFault, WorkcellError)


def test_missing_recovery_plan_fails_the_trial():
    doc = task3_doc("Obstacle")
    doc["script"] = [e for e in doc["script"] if e["kind"] != "RecoveryPlan"]
    _report, logs = run_scenario(ScenarioSpec(doc), trials=2)
    for log in logs:
        assert "no scripted response" in _faulted(log, "RecoveryPlan")["detail"]
        assert [d["category"] for d in log["diagnostics"]][-1] == "MotionInterrupted"


@pytest.mark.parametrize("reply", ["garbage", {"steps": []}],
                         ids=["not_a_mapping", "no_sequence"])
def test_micro_sequence_without_a_list_fails_the_trial(reply):
    doc = task1_doc()
    for rule in doc["script"]:
        if rule.get("key") == "pick_a":
            rule["responses"] = [reply]
    _report, logs = run_scenario(ScenarioSpec(doc), trials=1)
    _faulted(logs[0], "ProposeMicroSequence")
    assert not any(e["event"] == "executed" and e["node"] == 1 for e in logs[0]["trace"])


def test_validate_scenario_reports_a_malformed_task_graph():
    doc = task1_doc()
    doc["task"] = {"nodes": "garbage"}
    assert any(e.startswith("task graph") for e in validate_scenario(doc))


_ASSEMBLY_OBJECTS = [o["id"] for o in _scenario("assembly")["objects"]]
_ASSEMBLY_ZONES = {z["id"]: z["center"][:2] for z in _scenario("assembly")["zones"]}


@st.composite
def _skill_step(draw):
    zone = draw(st.sampled_from(sorted(_ASSEMBLY_ZONES)))
    x, y = (c + draw(st.floats(-0.15, 0.15)) for c in _ASSEMBLY_ZONES[zone])
    action = draw(st.sampled_from(["Move", "Pick", "Place", "OpenGripper"]))
    if action == "Move":
        position = [x, y, draw(st.floats(0.03, 0.3))]
        args = draw(st.sampled_from([{"zone": zone}, {"position": position},
                                     {"zone": zone, "position": position}]))
    elif action == "Pick":
        args = {"object": draw(st.sampled_from(_ASSEMBLY_OBJECTS))}
    elif action == "Place":
        destination = draw(st.sampled_from([zone, *_ASSEMBLY_OBJECTS]))
        args = {"destination": destination, "position": [x, y, 0.015], "zone": zone}
    else:
        args = {}
    return action, args


@settings(max_examples=40, deadline=None, derandomize=True)
@given(steps=st.lists(_skill_step(), min_size=1, max_size=10))
def test_a_held_belief_is_the_gripper_after_every_sense(steps):
    """Random skills run through ``apply_transition`` on the assembly
    scenario, each followed by a sense. After every sense each held record
    is the gripper's belief, to the byte: the robot's position, the held
    covariance and no geometry. Pick and Move write it; sense writes no
    held record, and its observation is never fused into it."""
    runtime = _runtime(_scenario("assembly"))
    store, world = runtime.store, runtime.world
    cs, log = ConstraintState(), TransactionLog()
    written = []
    update = store.update_record

    def spy(record_id, **fields):
        written.append(record_id)
        update(record_id, **fields)

    store.update_record = spy
    for action, args in steps:
        cs = apply_transition(store, cs, log, action, args,
                              dispatch=lambda: runtime.execute_skill(action, args)).cs
        written.clear()
        runtime.sense()
        held = store.held_uids()
        assert not set(written) & set(held)
        for uid in held:
            rec = store.records[uid]
            assert rec.envelope.mean.tobytes() == world.robot_position.tobytes()
            assert rec.envelope.covariance.tobytes() == HELD_COVARIANCE.tobytes()
            assert rec.geometry is None


def test_rollback_after_a_refused_commit(monkeypatch):
    """A Pick the controller reports as done while the part stays on the
    table: no adverse force-torque event, so the transition commits to the
    log as applied; perception then refuses the commit and ``rollback()``
    reverts it. After the revert the store's edge index and held set equal
    a fresh scan, and the log's hash chain holds."""
    def pick_on_air(world, args):
        return [FTEvent(FTSignal.GRIPPER_FORCE, simulator._NOMINAL_GRIP, "N")]

    def store_with_a_support(doc, world):
        store = build(doc, world)
        store.add_edge("On", "part_a", "zone_a", EdgeStatus.VERIFIED)
        return store

    reverted = []

    def checked_rollback(log, store):
        cs = rollback(log, store)
        for uid in [*store.vertices, *store.zones]:
            for predicate in (None, "On"):
                for ends in ({"subject": uid}, {"obj": uid}):
                    assert store.find_edges(predicate, **ends) == find_edges_scan(
                        store, predicate, **ends)
            assert store.neighbors([uid]) == neighbors_scan(store, [uid])
            assert store.is_clear(uid) == is_clear_scan(store, uid)
        assert store.held_uids() == held_uids_scan(store) == []
        assert store.find_edges("On", "part_a", "zone_a")
        reverted.append(log.entries[-1].action)
        return cs

    build, rollback = harness.build_store, executive.rollback
    monkeypatch.setattr(simulator.SimWorld, "_do_pick", pick_on_air)
    monkeypatch.setattr(harness, "build_store", store_with_a_support)
    monkeypatch.setattr(executive, "rollback", checked_rollback)
    log = run_trial(ScenarioSpec(task1_doc()), 0)
    assert reverted == ["rollback(Pick)"]
    assert log["log_chain_valid"]
    aborted = [e for e in log["trace"] if e["event"] == "aborted"]
    assert aborted and "does not track the gripper" in aborted[0]["hint"]


def test_a_lost_grasp_leaves_nothing_held(monkeypatch):
    """In transfer_partslip trial 0 the part slips during the Move, and the
    GraspFailure revert restores the store as the Move found it: holding
    the part. The executive then puts the part back in the world, as one
    logged write, so when recovery starts nothing is held and an ERT that
    believes the gripper holds the part fails the physical stage."""
    seen, entries = [], []
    recover = executive.Executive._recover
    believes_held = ert_doc("Pick", {"object": "part_x"},
                            {"phase": "Holding", "target": "part_x"},
                            beliefs=[("Holding", "robot", "part_x")])

    def watched(self, *args):
        entries.append([(e.action, e.outcome) for e in self.log.entries[-2:]])
        seen.append((self.cs.phase, self.store.held_uids(),
                     validate_ert(believes_held, self.store)[1].failing_stage))
        return recover(self, *args)

    monkeypatch.setattr(executive.Executive, "_recover", watched)
    log = run_trial(load_scenario(SCENARIOS / "transfer_partslip.json"), 0)
    assert log["success"] and log["log_chain_valid"]
    assert seen == [(Phase.IDLE, [], ValidationStage.PHYSICAL)]
    assert entries == [[("Move", "rolled_back"), ("GraspLost", "committed")]]


def test_metrics_from_dir_empty_raises(tmp_path):
    with pytest.raises(ScenarioError):
        metrics_from_dir(tmp_path)


# -- store hash cache ---------------------------------------------------------


@pytest.fixture
def checked_hashes(monkeypatch):
    """Every state_hash call, checked against the digest computed from
    scratch; a write that did not drop its cached text fails here."""
    digests = []
    cached = WorldStore.state_hash

    def checked(store):
        digest = cached(store)
        assert digest == store_digest(store), "state_hash missed a change"
        digests.append(digest)
        return digest

    monkeypatch.setattr(WorldStore, "state_hash", checked)
    return digests


def test_hash_cache_matches_scratch_digest_on_shipped_scenarios(checked_hashes):
    paths = sorted(SCENARIOS.glob("*.json"))
    assert len(paths) == 4
    for path in paths:
        report, logs = run_scenario(load_scenario(path))
        assert report.tsr == pytest.approx(100.0)
        assert logs[-1]["store_hash"] == checked_hashes[-1]
    assert len(checked_hashes) > 4 * 10


def test_hash_cache_matches_scratch_digest_on_resumed_store(checked_hashes, monkeypatch):
    # An assembly trial resumed from persisted memory: the briefing store
    # plus 300 remembered entities and 150 On edges in a camera-less zone.
    doc = task1_doc()
    store = build_store(doc, build_world(doc))
    store.add_zone(ZoneNode("stock", "stock"))
    rng = np.random.default_rng(5)
    for i in range(300):
        store.add_entity("crate", _env([5.0 + rng.uniform(-0.2, 0.2), 0.01 * i, 0.02]),
                         "stock", uid=f"crate_{i:03d}")
    order = rng.permutation(300)
    for k in range(150):
        store.add_edge("On", f"crate_{order[2 * k]:03d}", f"crate_{order[2 * k + 1]:03d}",
                       EdgeStatus.VERIFIED)
    saved = store.to_dict()
    monkeypatch.setattr(harness, "build_store",
                        lambda doc, world: WorldStore.from_dict(saved))
    log = run_trial(ScenarioSpec(doc), 0)
    assert log["success"] and log["log_chain_valid"]
    assert log["store_hash"] == checked_hashes[-1]
    assert len(checked_hashes) > 10


# -- frame reuse --------------------------------------------------------------


@pytest.mark.parametrize("name", ["assembly.json", "transfer_targetmoved.json"])
def test_each_world_state_is_rendered_once(name, monkeypatch):
    """A trial renders at most once per skill dispatch plus once at the
    start, and every STA sample equals the one a fresh render of the same
    world state gives, so a frame kept across a ``TargetMoved``
    displacement fails here."""
    fresh = simulator.render_frame
    calls = {"render": 0, "dispatch": 0, "samples": 0}

    def counted_render(world, camera):
        calls["render"] += 1
        return fresh(world, camera)

    def counted_dispatch(self, action, args):
        calls["dispatch"] += 1
        return dispatch(self, action, args)

    def checked_sample(self):
        before = len(self.sta_samples)
        record(self)
        kept = len(self.sta_samples)
        self.frame = lambda: fresh(self.world, self.active_camera())
        try:
            record(self)
        finally:
            del self.frame
        assert self.sta_samples[kept:] == self.sta_samples[before:kept]
        del self.sta_samples[kept:]
        calls["samples"] += kept - before

    def checked_trial(spec, trial_index):
        calls.update(render=0, dispatch=0)
        log = trial(spec, trial_index)
        assert 0 < calls["render"] <= calls["dispatch"] + 1
        return log

    dispatch = harness.TrialRuntime.execute_skill
    record = harness.TrialRuntime.record_sta_sample
    trial = harness.run_trial
    monkeypatch.setattr(harness, "render_frame", counted_render)
    monkeypatch.setattr(harness.TrialRuntime, "execute_skill", counted_dispatch)
    monkeypatch.setattr(harness.TrialRuntime, "record_sta_sample", checked_sample)
    monkeypatch.setattr(harness, "run_trial", checked_trial)
    report, _logs = run_scenario(load_scenario(SCENARIOS / name))
    assert report.tsr == pytest.approx(100.0)
    assert calls["samples"] > 0


def _frame_bytes(frame):
    return frame.depth.tobytes(), frame.mask.tobytes(), frame.labels


def _runtime(doc):
    world = build_world(doc)
    store = build_store(doc, world)
    return harness.TrialRuntime(doc, world, store, harness.build_reasoner(doc))


@pytest.mark.parametrize("change", ["move", "turn", "relabel", "resize"])
def test_kept_frame_follows_every_scene_change(change, monkeypatch):
    """Each object in turn is changed in one of the ways render_frame reads;
    the runtime's frame then equals a fresh render, and reading it again
    with nothing changed renders nothing."""
    renders = []
    monkeypatch.setattr(harness, "render_frame",
                        lambda world, camera: renders.append(1) or simulator.render_frame(
                            world, camera))
    runtime = _runtime(task1_doc())
    world = runtime.world
    c, s = np.cos(0.4), np.sin(0.4)
    turn = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    changed = 0
    for _oid, obj in sorted(world.objects.items()):
        kept = runtime.frame()
        if change == "move":
            obj.pose = PoseSE3(obj.pose.rotation, obj.pose.translation + [0.01, 0, 0])
        elif change == "turn":
            obj.pose = PoseSE3(turn @ obj.pose.rotation, obj.pose.translation)
        elif change == "relabel":
            obj.label += "_x"
        else:
            obj.half_extents[1] *= 1.5  # in place: the key is the value
        fresh = simulator.render_frame(world, runtime.active_camera())
        assert _frame_bytes(runtime.frame()) == _frame_bytes(fresh)
        changed += _frame_bytes(fresh) != _frame_bytes(kept)
        count = len(renders)
        assert runtime.frame() is runtime.frame()
        assert len(renders) == count
    assert changed > 0


def _observation_bytes(observations):
    return [(o.label, o.geometry.text, o.envelope.mean.tobytes(),
             o.envelope.covariance.tobytes()) for o in observations]


def test_sense_matches_fresh_snapshots_and_asks_each_question_once(monkeypatch):
    """Over a cluttered assembly trial: every observation list sense hands
    to association equals ``assemble_snapshot`` of a fresh render bit for
    bit, although some lists and some instances are reused; each
    ``SemanticSimilarity`` key is asked once per trial and each
    ``ReliabilityJudgment`` key at most once per sense cycle; and the
    planning counts equal the trial's planning queries."""
    doc = task1_doc()
    zone = next(z for z in doc["zones"] if z["id"] == "zone_a")
    for i, label in enumerate(["nut", "washer", "nut", "washer", "clip", "clip"]):
        x = zone["center"][0] - 0.12 + 0.05 * i
        doc["objects"].append({"id": f"clutter_{i}", "label": label, "zone": "zone_a",
                               "half_extents": [0.015, 0.015, 0.015],
                               "position": [x, zone["center"][1] - 0.12, 0.015]})
    assert validate_scenario(doc) == []
    queries, snapshots, reused = [], [], []
    sense, build, assemble = (harness.TrialRuntime.sense, harness.build_cost_matrix,
                              harness.assemble_snapshot)
    query = harness.ScriptedReasoner.query
    current = {}

    def watched_sense(self):
        current["runtime"] = self
        queries.append("sense")
        return sense(self)

    def checked_build(observations, memory, *args):
        runtime = current["runtime"]
        camera = runtime.active_camera()
        fresh = simulator.render_frame(runtime.world, camera)
        assert (_observation_bytes(observations)
                == _observation_bytes(harness.assemble_snapshot(fresh, camera.intrinsics)))
        snapshots.append(observations)
        return build(observations, memory, *args)

    def counted_assemble(frame, k, memo=None):
        kept = dict(memo or {})
        observations = assemble(frame, k, memo)
        reused.extend(o for o in observations
                      if any(o.envelope is e for e, _g in kept.values()))
        return observations

    def counted_query(self, request):
        queries.append((request.kind.value, request.key))
        return query(self, request)

    monkeypatch.setattr(harness.TrialRuntime, "sense", watched_sense)
    monkeypatch.setattr(harness, "build_cost_matrix", checked_build)
    monkeypatch.setattr(harness, "assemble_snapshot", counted_assemble)
    monkeypatch.setattr(harness.ScriptedReasoner, "query", counted_query)
    log = run_trial(ScenarioSpec(doc), 0)
    assert log["success"]
    assert reused and any(a is b for a, b in zip(snapshots, snapshots[1:]))

    similarity = [q for q in queries if q[0] == "SemanticSimilarity"]
    assert len(similarity) == len(set(similarity)) > 0
    cycles = [[]]
    for q in queries:
        if q == "sense":
            cycles.append([])
        elif q[0] == "ReliabilityJudgment":
            cycles[-1].append(q)
    assert all(len(c) == len(set(c)) for c in cycles)
    assert sum(map(len, cycles)) > 0
    planning = [q for q in queries if q != "sense"
                and q[0] not in ("SemanticSimilarity", "ReliabilityJudgment")]
    assert log["n_init"] + log["n_replan"] == len(planning)


# -- fusion: each measurement once ----------------------------------------------


def _sensing(monkeypatch):
    """``sense(runtime)``: one sense cycle of ``runtime``, returning the uids
    of the records it fused into, in call order."""
    fuse, seen = world_model.fuse, {}

    def spy(prior, obs, gamma):
        records = seen["runtime"].store.records
        seen["fused"].append(next(u for u, r in records.items() if r.envelope is prior))
        return fuse(prior, obs, gamma)

    def sense(runtime):
        seen.update(runtime=runtime, fused=[])
        runtime.sense()
        return seen["fused"]

    monkeypatch.setattr(world_model, "fuse", spy)
    return sense


def _shift(world, oid, dx, dy=0.0):
    obj = world.objects[oid]
    obj.pose = PoseSE3(obj.pose.rotation, obj.pose.translation + [dx, dy, 0.0])


@settings(max_examples=15, deadline=None, derandomize=True)
@given(k=st.integers(2, 5), zone=st.sampled_from(["zone_a", "zone_b", "zone_c"]),
       offsets=st.lists(st.tuples(st.floats(-0.02, 0.02), st.floats(-0.02, 0.02)),
                        min_size=5, max_size=5))
def test_sensing_an_unchanged_scene_again_leaves_every_record(k, zone, offsets):
    """Each object is moved off its briefing position, the robot is put in
    a zone, and the scene is sensed k times: every record then equals the
    record one sense gives."""
    records = []
    for senses in (1, k):
        runtime = _runtime(task1_doc())
        for (dx, dy), oid in zip(offsets, sorted(runtime.world.objects)):
            _shift(runtime.world, oid, dx, dy)
        runtime.world.robot_zone = runtime.store.robot_zone = zone
        for _ in range(senses):
            runtime.sense()
        records.append(runtime.store.to_dict()["records"])
    assert records[0] == records[1]


def test_a_moved_object_is_fused_again_on_its_next_frame(monkeypatch):
    sense = _sensing(monkeypatch)
    runtime = _runtime(task1_doc())
    assert sorted(sense(runtime)) == ["part_a", "part_b"]
    assert sense(runtime) == []
    _shift(runtime.world, "part_a", 0.01)
    assert sense(runtime) == ["part_a"]
    assert sense(runtime) == []


def test_a_record_another_writer_changed_is_fused_again(monkeypatch):
    """A rollback's ``apply_inverse`` puts back a record's envelope from
    before a fusion; the same measurement is then fused again, and that
    gives the record the first fusion gave."""
    sense = _sensing(monkeypatch)
    runtime = _runtime(task1_doc())
    store = runtime.store
    inverse = capture_inverse(store, ConstraintState(), {"object": "part_a"})
    sense(runtime)
    first = store.to_dict()["records"]["part_a"]
    apply_inverse(store, inverse)
    assert store.to_dict()["records"]["part_a"] != first
    assert sense(runtime) == ["part_a"]
    assert store.to_dict()["records"]["part_a"] == first
    assert sense(runtime) == []


def test_a_resumed_store_makes_the_same_fusion_decisions(monkeypatch):
    """Two runtimes sense the same scenes, and one resumes its store from
    the store's document before every cycle: both fuse the same records in
    every cycle, and end with the same records."""
    sense = _sensing(monkeypatch)
    kept, resumed = _runtime(task1_doc()), _runtime(task1_doc())
    decisions = []
    for change in (None, None, "move", None, "hold", None, "move", None):
        for runtime in (kept, resumed):
            if change == "move":
                _shift(runtime.world, "part_b", -0.01)
            elif change == "hold":
                runtime.store.update_record("part_a", attached_to="gripper")
        resumed.store = WorldStore.from_dict(resumed.store.to_dict())
        decisions.append((sense(kept), sense(resumed)))
    assert all(a == b for a, b in decisions)
    assert [] in (a for a, _b in decisions) and any(a for a, _b in decisions)
    assert kept.store.serialize() == resumed.store.serialize()


# -- the store is its document --------------------------------------------------


@functools.cache
def _cluttered_layouts() -> tuple[ScenarioSpec, ...]:
    """The benchmark's ten seed-1 cluttered_assembly layouts."""
    sys.path.insert(0, str(SCENARIOS.parent / "bench"))
    from workloads import make_workload
    return tuple(t.spec for t in make_workload("cluttered_assembly", 1, SCENARIOS.parent).trials)


def _trials(case):
    if case == "cluttered_assembly":
        return [(spec, 0) for spec in _cluttered_layouts()]
    return [(load_scenario(SCENARIOS / f"{case}.json"), i) for i in range(3)]


@pytest.mark.parametrize("case", ["assembly", "transfer_partslip", "transfer_obstacle",
                                  "transfer_targetmoved", "cluttered_assembly"])
def test_a_store_resumed_from_its_document_runs_the_same_trial(case, monkeypatch):
    """Each trial runs twice: as it is, and with its store replaced in place
    by ``from_dict`` of its serialized document after every sense cycle and
    every transition. The swap reaches every holder of the store, so any
    state the store keeps beyond its document, or any cache that differs
    from what ``from_dict`` derives, shows as a different trace, answer or
    final document."""
    stores, swaps = [], []
    build, sense, transition = harness.build_store, harness.TrialRuntime.sense, apply_transition

    def resume(store):
        store.__dict__ = WorldStore.from_dict(json.loads(store.serialize())).__dict__
        swaps.append(1)

    def resumed_sense(self):
        sensed = sense(self)
        resume(self.store)
        return sensed

    def resumed_transition(store, *args, **kwargs):
        result = transition(store, *args, **kwargs)
        resume(store)
        return result

    def run(spec, i):
        log = run_trial(spec, i)
        return log, stores[-1].serialize()

    monkeypatch.setattr(harness, "build_store",
                        lambda doc, world: stores.append(build(doc, world)) or stores[-1])
    for spec, i in _trials(case):
        kept = run(spec, i)
        with monkeypatch.context() as m:
            m.setattr(harness.TrialRuntime, "sense", resumed_sense)
            m.setattr(executive, "apply_transition", resumed_transition)
            resumed = run(spec, i)
        assert resumed == kept, f"trial {i} of {case} diverged"
    assert len(swaps) > 10


# -- CLI ----------------------------------------------------------------------


def test_cli_validate_run_metrics(tmp_path, capsys):
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(task1_doc()))
    assert cli.main(["validate", str(scen)]) == 0
    assert "ok" in capsys.readouterr().out

    out = tmp_path / "out"
    assert cli.main(["run", str(scen), "--trials", "1",
                     "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "TSR" in stdout

    assert cli.main(["metrics", str(out)]) == 0
    assert "TSR" in capsys.readouterr().out


def test_shipped_scenarios_validate_and_run(capsys):
    scen_dir = SCENARIOS
    paths = sorted(scen_dir.glob("*.json"))
    assert len(paths) >= 4
    for path in paths:
        assert cli.main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["run", str(scen_dir / "assembly.json")]) == 0
    assert "TSR %       100.00" in capsys.readouterr().out


def test_cli_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 0}))
    assert cli.main(["validate", str(bad)]) == 1
    assert "error" in capsys.readouterr().err
    assert cli.main(["metrics", str(tmp_path / "missing")]) == 1


# -- import path --------------------------------------------------------------


@functools.cache
def _engine_import_modules() -> tuple[str, ...]:
    """Every module that importing the engine's entry points loads in a
    fresh interpreter; one run serves every import guard."""
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import json, sys, workcell.harness, workcell.cli; "
            "print(json.dumps(sorted(sys.modules)))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=120,
    )
    return tuple(json.loads(out.stdout))


def _engine_import_loads(*packages) -> list[str]:
    """The modules of ``packages`` that importing the engine loads."""
    return [m for m in _engine_import_modules() if m.startswith(packages)]


def test_engine_import_leaves_out_scipy_stats():
    # scipy.stats is slow and large to import, and the engine has no use
    # for it.
    assert _engine_import_loads("scipy.stats") == []


def test_engine_import_leaves_out_scipy_optimize_and_spatial():
    # The engine solves its assignments itself, and only registration,
    # which no run calls, uses a k-d tree: together the two packages add
    # about 20 MB and 0.2 s to every process.
    assert _engine_import_loads("scipy.optimize", "scipy.spatial") == []


def test_engine_import_loads_only_lapack_from_scipy_linalg():
    # geometry loads the compiled LAPACK module by itself: scipy.linalg's
    # package init clones numpy's namespace through scipy's array API
    # layer, which pulls in numpy.f2py and numpy.testing, about 0.3 s and
    # 20 MB in all.
    assert _engine_import_loads("scipy.linalg") == ["scipy.linalg._flapack"]
    assert _engine_import_loads("scipy._lib._array_api", "scipy._lib.array_api_compat",
                                "numpy.f2py", "numpy.testing") == []
