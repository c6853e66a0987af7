"""End-to-end acceptance gate.

Thirteen checks pin the engine's load-bearing behavior: exact assignment,
fusion algebra, robust registration recovery, statistical relation
calibration, belief lifecycle timing, transactional atomicity, the
force-torque event table, the trace-validation firewall, diagnosis rules,
two full desk-scale tasks, the out-of-view accuracy metric arithmetic, and
zone-scoped retrieval scaling.
"""

import copy
import time

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from workcell.association import (
    AssociationConfig,
    ReliabilityJudgment,
    assign,
    fuse,
    gamma_of,
)
from workcell.cognition import (
    ReasonerRequest,
    RequestKind,
    ScriptedReasoner,
    ValidationStage,
    get_valid_ert,
    validate_ert,
)
from workcell.executive import (
    DiscrepancyReport,
    FailureCategory,
    compute_discrepancy,
    diagnose,
)
from workcell.geometry import GaussianEnvelope, PointCloudData, PoseSE3
from workcell.harness import (
    ScenarioSpec,
    classify_root_cause,
    compute_metrics,
    run_trial,
    sta_from_samples,
)
from workcell.registration import icp_register
from workcell.transactions import (
    SKILLS,
    ConstraintState,
    ControllerEvent,
    FTEvent,
    FTSignal,
    Phase,
    TransactionLog,
    TransitionStatus,
    apply_transition,
    map_ft_event,
    state_bytes,
)
from workcell.world_model import (
    CHI2_THRESH_3DOF,
    LAMBDA_DECAY,
    TAU_ARCHIVE,
    TAU_UNCERTAIN,
    EdgeStatus,
    Lifecycle,
    RelationEdge,
    WorldStore,
    ZoneNode,
    curate_zone,
    verify_relation,
)

from fixtures import ert_doc, task1_doc, task3_doc
from oracles import padded_permutation_cost


def _env(mean, cov=None):
    if cov is None:
        cov = 0.01 * np.eye(3)
    return GaussianEnvelope(np.asarray(mean, dtype=float), cov)


def _spd(rng, scale=1.0):
    a = rng.normal(size=(3, 3))
    return scale * (a @ a.T + 0.2 * np.eye(3))


# -- criterion 1: exact assignment against an exhaustive oracle ---------------


def test_c01_assignment_matches_brute_force_on_1000_matrices():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(1000):
        r = int(rng.integers(1, 7))
        c = int(rng.integers(1, 7))
        cost = rng.uniform(0.0, 1.0, size=(r, c))
        gated = rng.uniform(size=(r, c)) < 0.3
        cost[gated] = np.inf
        result = assign(cost, tau_match=2.0)  # keep every feasible pair
        total = sum(m[2] for m in result.matched)
        expect = padded_permutation_cost(cost)
        assert total == pytest.approx(expect, abs=1e-9)
    assert time.perf_counter() - t0 < 5.0


# -- criterion 2: fusion algebra ----------------------------------------------


def test_c02_fusion_commutes_and_associates_over_1e4_triples():
    rng = np.random.default_rng(202)
    gammas = [1.0, 0.5, 0.1, 0.01]
    for _ in range(10_000):
        p = _env(rng.normal(size=3), _spd(rng))
        a = _env(rng.normal(size=3), _spd(rng))
        b = _env(rng.normal(size=3), _spd(rng))
        ga = gammas[int(rng.integers(4))]
        gb = gammas[int(rng.integers(4))]
        ab = fuse(fuse(p, a, ga), b, gb)
        ba = fuse(fuse(p, b, gb), a, ga)
        assert np.allclose(ab.mean, ba.mean, atol=1e-10)
        assert np.allclose(ab.covariance, ba.covariance, atol=1e-10)
    prior = _env([1.0, 2.0, 3.0])
    assert fuse(prior, _env([9, 9, 9]), 0.0) is prior
    assert [gamma_of(j) for j in (
        ReliabilityJudgment.HIGH, ReliabilityJudgment.MEDIUM,
        ReliabilityJudgment.LOW, ReliabilityJudgment.BAD,
    )] == [1.0, 0.5, 0.1, 0.01]


# -- criterion 3: registration recovery ---------------------------------------


def test_c03_icp_recovers_50_similarity_transforms():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    for trial in range(50):
        pts = rng.uniform(-0.5, 0.5, size=(200, 3)) * np.array([1.0, 0.6, 0.3])
        scale = float(rng.uniform(0.8, 1.3))
        rot = Rotation.random(random_state=int(rng.integers(1 << 30))).as_matrix()
        trans = rng.uniform(-1, 1, size=3)
        trans *= rng.uniform(0, 0.2) / max(np.linalg.norm(trans), 1e-9)
        target = scale * (pts @ rot.T + trans)

        jitter = Rotation.from_rotvec(np.deg2rad(3.0) * rng.normal(size=3)
                                      / np.sqrt(3)).as_matrix()
        init = PoseSE3(rot @ jitter, trans + 0.01 * rng.normal(size=3))
        init_scale = scale * float(rng.uniform(0.98, 1.02))

        for frac, tol in ((0.0, 1e-6), (0.2, 1e-3)):
            tgt = target
            if frac:
                n_out = int(len(target) * frac)
                tgt = np.vstack([target, rng.uniform(3, 5, size=(n_out, 3))])
            res = icp_register(PointCloudData(pts), PointCloudData(tgt),
                               init=init, init_scale=init_scale)
            assert res.scale == pytest.approx(scale, abs=tol), trial
            assert np.allclose(res.pose.rotation, rot, atol=tol), trial
            assert np.allclose(res.pose.translation, trans, atol=tol), trial
    assert time.perf_counter() - t0 < 30.0


# -- criterion 4: chi-square contact calibration ------------------------------


def test_c04_contact_acceptance_rate_is_95_percent():
    assert abs(CHI2_THRESH_3DOF - 7.815) <= 0.001
    rng = np.random.default_rng(404)
    cov_a = _spd(rng, scale=1e-4)
    cov_b = _spd(rng, scale=1e-4)
    la, lb = np.linalg.cholesky(cov_a), np.linalg.cholesky(cov_b)

    store = WorldStore()
    store.add_zone(ZoneNode("z1", "z1"))
    store.robot_zone = "z1"
    store.add_entity("a", _env([0, 0, 0], cov_a), "z1", uid="a")
    store.add_entity("b", _env([0, 0, 0], cov_b), "z1", uid="b")
    edge = RelationEdge("Contact", "a", "b")

    center = np.array([0.5, 0.0, 0.02])
    accepted = 0
    n = 10_000
    for _ in range(n):
        store.records["a"].envelope = GaussianEnvelope(
            center + la @ rng.standard_normal(3), cov_a)
        store.records["b"].envelope = GaussianEnvelope(
            center + lb @ rng.standard_normal(3), cov_b)
        if verify_relation(edge, store) == EdgeStatus.VERIFIED:
            accepted += 1
    rate = 100.0 * accepted / n
    assert 93.0 <= rate <= 97.0


# -- criterion 5: lifecycle timing --------------------------------------------


def test_c05_decay_schedule_and_restoration():
    assert (LAMBDA_DECAY, TAU_UNCERTAIN, TAU_ARCHIVE) == (0.95, 0.6, 0.1)
    store = WorldStore()
    store.add_zone(ZoneNode("z1", "z1"))
    store.robot_zone = "z1"
    store.add_entity("ghost", _env([0.5, 0, 0.02]), "z1",
                     attributes={"color": "red", "serial": "G-7"}, uid="ghost")

    state_at = {}
    first_archived = None
    for scan in range(1, 46):
        events = curate_zone(store, "z1", observed_uids=set())
        state_at[scan] = store.vertices["ghost"].lifecycle
        if first_archived is None and any(e.kind == "archived" for e in events):
            first_archived = scan
    assert state_at[13] == Lifecycle.UNCERTAIN
    assert state_at[44] == Lifecycle.UNCERTAIN
    assert first_archived == 45 and state_at[45] == Lifecycle.ARCHIVED
    # Closed form: confidence stays at or above the archive floor through
    # scan 44 and drops below it on scan 45.
    assert LAMBDA_DECAY**44 >= TAU_ARCHIVE > LAMBDA_DECAY**45

    events = curate_zone(store, "z1", observed_uids={"ghost"})
    assert any(e.kind == "restored" for e in events)
    v = store.vertices["ghost"]
    assert v.lifecycle == Lifecycle.ACTIVE and v.confidence == 1.0
    assert v.attributes == {"color": "red", "serial": "G-7"}


# -- criterion 6: atomic rollback for every skill x trigger -------------------


_ADVERSE_BY_CONTEXT = {
    "close": [
        (FTEvent(FTSignal.GRIPPER_FORCE, 2.0, "N"), ControllerEvent.GRASP_FAILURE),
        (FTEvent(FTSignal.GRIPPER_FORCE, 45.0, "N"), ControllerEvent.OVER_SQUEEZE),
    ],
    "transport": [
        (FTEvent(FTSignal.GRIPPER_FORCE, 2.0, "N"), ControllerEvent.GRASP_FAILURE),
        (FTEvent(FTSignal.GRIPPER_FORCE, 45.0, "N"), ControllerEvent.OVER_SQUEEZE),
        (FTEvent(FTSignal.EXTERNAL_FORCE, -20.0, "N"),
         ControllerEvent.COLLISION_DETECTED),
    ],
    "place": [
        (FTEvent(FTSignal.GRIPPER_FORCE, 45.0, "N"), ControllerEvent.OVER_SQUEEZE),
    ],
    "insert": [
        (FTEvent(FTSignal.GRIPPER_FORCE, 45.0, "N"), ControllerEvent.OVER_SQUEEZE),
        (FTEvent(FTSignal.EXTERNAL_TORQUE, 3.0, "Nm"),
         ControllerEvent.JAMMING_DETECTED),
    ],
    "rotate": [
        (FTEvent(FTSignal.GRIPPER_FORCE, 45.0, "N"), ControllerEvent.OVER_SQUEEZE),
    ],
    "open": [
        (FTEvent(FTSignal.GRIPPER_FORCE, 45.0, "N"), ControllerEvent.OVER_SQUEEZE),
    ],
}

_SKILL_SETUPS = {
    "Pick": (Phase.IDLE, {"object": "A"}),
    "CloseGripper": (Phase.IDLE, {}),
    "Move": (Phase.HOLDING, {"zone": "z2", "position": [1.2, 0.0, 0.1]}),
    "Place": (Phase.HOLDING, {"destination": "B",
                              "position": [1.2, 0.0, 0.05], "zone": "z2"}),
    "Insert": (Phase.HOLDING, {"part": "A", "receptacle": "B"}),
    "Rotate": (Phase.HOLDING, {"object": "A",
                               "rotation": [[0, -1, 0], [1, 0, 0], [0, 0, 1]]}),
    "OpenGripper": (Phase.HOLDING, {}),
}

_FT_CONTEXT_EXPECT = {
    "Pick": "close", "CloseGripper": "close", "Move": "transport",
    "Place": "place", "Insert": "insert", "Rotate": "rotate",
    "OpenGripper": "open",
}


def _atomicity_fixture(skill):
    store = WorldStore()
    for zid in ("z1", "z2"):
        store.add_zone(ZoneNode(zid, zid))
    store.robot_zone = "z1"
    store.add_entity("A", _env([0.5, 0.0, 0.02]), "z1", uid="A")
    store.add_entity("B", _env([1.2, 0.0, 0.02]), "z2", uid="B")
    store.records["A"].pose = PoseSE3.identity()
    phase, args = _SKILL_SETUPS[skill]
    if phase == Phase.HOLDING:
        cs = ConstraintState(Phase.HOLDING, "A")
        store.records["A"].attached_to = "gripper"
    else:
        cs = ConstraintState()
    if skill == "Insert":
        store.add_edge("Aligned", "A", "B", EdgeStatus.VERIFIED)
    return store, cs, args


def test_c06_every_skill_rolls_back_byte_identically_on_every_trigger():
    assert set(SKILLS) == set(_SKILL_SETUPS)
    cases = 0
    for skill in SKILLS:
        for event, expected in _ADVERSE_BY_CONTEXT[_FT_CONTEXT_EXPECT[skill]]:
            store, cs, args = _atomicity_fixture(skill)
            log = TransactionLog()
            before = state_bytes(store, cs)
            result = apply_transition(store, cs, log, skill, args,
                                      dispatch=lambda: [event])
            assert result.status == TransitionStatus.ROLLED_BACK
            assert result.reason == expected.value
            assert state_bytes(store, result.cs) == before
            assert log.validate_chain()
            assert log.entries[-1].outcome == "rolled_back"
            cases += 1
    expected_cases = sum(
        len(_ADVERSE_BY_CONTEXT[ctx]) for ctx in _FT_CONTEXT_EXPECT.values()
    )
    assert cases == expected_cases == 12


# -- criterion 7: force-torque event table ------------------------------------


def test_c07_ft_mapping_five_rows():
    gf = lambda v: FTEvent(FTSignal.GRIPPER_FORCE, v, "N")
    # Row 1: weak grip while the gripper should be closed.
    assert map_ft_event(gf(4.9), "close") == ControllerEvent.GRASP_FAILURE
    assert map_ft_event(gf(4.9), "transport") == ControllerEvent.GRASP_FAILURE
    assert map_ft_event(gf(5.1), "close") is None
    assert map_ft_event(gf(4.9), "place") is None
    # Row 2: crushing grip in any context.
    for ctx in ("close", "transport", "place", "insert", "rotate", "open"):
        assert map_ft_event(gf(40.1), ctx) == ControllerEvent.OVER_SQUEEZE
    assert map_ft_event(gf(39.9), "open") is None
    # Row 3: external force during transport.
    ef = lambda v: FTEvent(FTSignal.EXTERNAL_FORCE, v, "N")
    assert map_ft_event(ef(-15.1), "transport") == \
        ControllerEvent.COLLISION_DETECTED
    assert map_ft_event(ef(15.1), "transport") == \
        ControllerEvent.COLLISION_DETECTED
    assert map_ft_event(ef(14.9), "transport") is None
    assert map_ft_event(ef(20.0), "place") is None
    # Row 4: sustained vertical force during placement.
    vf = lambda v, s: FTEvent(FTSignal.VERTICAL_FORCE, v, "N", sustained_s=s)
    assert map_ft_event(vf(10.1, 0.5), "place") == \
        ControllerEvent.CONTACT_CONFIRMED
    assert map_ft_event(vf(10.1, 0.4), "place") is None
    assert map_ft_event(vf(9.9, 0.6), "place") is None
    assert map_ft_event(vf(10.1, 0.6), "transport") is None
    # Row 5: resistive torque during insertion.
    tq = lambda v: FTEvent(FTSignal.EXTERNAL_TORQUE, v, "Nm")
    assert map_ft_event(tq(2.1), "insert") == ControllerEvent.JAMMING_DETECTED
    assert map_ft_event(tq(-2.1), "insert") == ControllerEvent.JAMMING_DETECTED
    assert map_ft_event(tq(1.9), "insert") is None
    assert map_ft_event(tq(2.5), "rotate") is None


# -- criterion 8: trace-validation firewall -----------------------------------


def _firewall_store():
    store = WorldStore()
    store.add_zone(ZoneNode("z1", "staging"))
    store.add_zone(ZoneNode("z2", "assembly"))
    store.robot_zone = "z1"
    store.add_entity("part", _env([0.4, 0, 0.02]), "z1", uid="part")
    store.add_entity("plate", _env([1.0, 0, 0.02]), "z2", uid="plate")
    return store


def _good_doc():
    return ert_doc("Pick", {"object": "part"},
                   {"phase": "Holding", "target": "part"})


_CORRUPTIONS = [
    (lambda d: d.pop("action_proposal"), ValidationStage.SYNTACTIC),
    (lambda d: d.pop("confidence"), ValidationStage.SYNTACTIC),
    (lambda d: d.pop("world_belief"), ValidationStage.SYNTACTIC),
    (lambda d: d.pop("causal_assump"), ValidationStage.SYNTACTIC),
    (lambda d: d["action_proposal"].pop("args"), ValidationStage.SYNTACTIC),
    (lambda d: d.__setitem__("confidence", "very"), ValidationStage.SYNTACTIC),
    (lambda d: d.__setitem__("confidence", 2.0), ValidationStage.SYNTACTIC),
    (lambda d: d.__setitem__("world_belief", "On(a,b)"),
     ValidationStage.SYNTACTIC),
    (lambda d: d["action_proposal"].__setitem__("action", "Levitate"),
     ValidationStage.SYNTACTIC),
    (lambda d: d["action_proposal"]["args"].__setitem__("object", "phantom"),
     ValidationStage.SEMANTIC),
    (lambda d: d["world_belief"].append(["Near", "part", "phantom"]),
     ValidationStage.SEMANTIC),
    (lambda d: d["world_belief"].append(["Near", "part", "plate"]),
     ValidationStage.PHYSICAL),  # 0.6 m apart: geometrically false
    (lambda d: d["world_belief"].append(["Holding", "robot", "part"]),
     ValidationStage.PHYSICAL),  # nothing is attached to the gripper
]


def test_c08_firewall_rejects_500_corrupted_traces_with_stage():
    rng = np.random.default_rng(808)
    store = _firewall_store()
    false_accepts = 0
    for _ in range(500):
        mutate, expected_stage = _CORRUPTIONS[int(rng.integers(len(_CORRUPTIONS)))]
        doc = _good_doc()
        mutate(doc)
        ert, report = validate_ert(doc, store)
        if ert is not None:
            false_accepts += 1
            continue
        assert not report.ok
        assert report.failing_stage == expected_stage
    assert false_accepts == 0

    # Nothing escapes past validation into execution: a reasoner that only
    # ever emits corrupted traces exhausts the retry budget with no trace.
    bad = _good_doc()
    bad["action_proposal"]["action"] = "Levitate"
    reasoner = ScriptedReasoner({("ProposeERT", "k"): [bad]})
    outcome = get_valid_ert(
        reasoner, ReasonerRequest(RequestKind.PROPOSE_ERT, "k"), store, n_max=5
    )
    assert outcome.exhausted and outcome.ert is None and outcome.attempts == 5


# -- criterion 9: diagnosis rules and the misplaced-object worked example -----


def _cs_report(exp_phase, exp_target, act_phase, act_target):
    return DiscrepancyReport(
        delta_cs=({"phase": exp_phase, "target": exp_target},
                  {"phase": act_phase, "target": act_target}),
        dg_plus=set(), dg_minus=set(), drift={}, drift_flagged=[],
    )


def test_c09_diagnosis_table_and_worked_example():
    assert diagnose(_cs_report("Holding", "A", "Idle", None)) == \
        FailureCategory.GRASP_SLIP
    assert diagnose(_cs_report("Holding", "A", "Holding", "B")) == \
        FailureCategory.MISIDENTIFICATION
    assert diagnose(_cs_report("Approaching", "A", "Idle", None)) == \
        FailureCategory.MOTION_INTERRUPTED
    assert diagnose(_cs_report("Placing", "A", "Holding", "A")) == \
        FailureCategory.PLACEMENT_REJECTED

    from workcell.cognition import ERT

    store = WorldStore()
    store.add_zone(ZoneNode("z1", "z1"))
    store.robot_zone = "z1"
    for uid in ("A", "B", "floor"):
        store.add_entity(uid, _env([0, 0, 0]), "z1", uid=uid)
    store.add_edge("On", "A", "floor", EdgeStatus.VERIFIED)
    ert = ERT(
        action="Place", args={"object": "A", "destination": "B"},
        world_belief=[], expected_cs={"phase": "Idle", "target": None},
        add_relations=[("On", "A", "B")], remove_relations=[],
        confidence=0.9, expected_positions={},
    )
    report = compute_discrepancy(store, ert, set(), ConstraintState())
    assert report.dg_minus == {("On", "A", "B")}
    assert report.dg_plus == {("On", "A", "floor")}


# -- criterion 10: three-zone assembly at the deterministic ceiling -----------


def test_c10_assembly_task_perfect_scores():
    doc = task1_doc()
    t0 = time.perf_counter()
    log = run_trial(ScenarioSpec(doc), 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0

    n_primitives = sum(1 for e in log["trace"] if e["event"] == "committed")
    assert n_primitives >= 10
    oov_tracked = set().union(*(s["oov_correct"] for s in log["sta_samples"]))
    assert {"wrench", "widget"} <= oov_tracked

    report = compute_metrics([log])
    assert report.tsr == pytest.approx(100.0)
    assert report.sta == pytest.approx(100.0)
    assert report.ie == pytest.approx(100.0)
    assert log["log_chain_valid"]


# -- criterion 11: injected-failure trials, diagnosis, and recovery -----------


def test_c11_twenty_failure_trials_diagnose_and_recover():
    kinds = ["PartSlip"] * 7 + ["Obstacle"] * 7 + ["TargetMoved"] * 6
    assert len(kinds) == 20
    for i, kind in enumerate(kinds):
        doc = copy.deepcopy(task3_doc(kind))
        doc["seed"] = 23 + i
        log = run_trial(ScenarioSpec(doc), 0)
        assert log["success"], (kind, i)
        assert log["diagnostics"], (kind, i)
        rounds = max(d["round"] for d in log["diagnostics"])
        assert rounds <= 5, (kind, i)
        final = log["diagnostics"][-1]
        cause = classify_root_cause(final["category"], final["failed_action"],
                                    bool(final["drift_flagged"]))
        assert cause == kind, (kind, i, log["diagnostics"])
        assert log["n_replan"] >= 1
        assert log["log_chain_valid"]


# -- criterion 12: out-of-view accuracy arithmetic ----------------------------


def test_c12_sta_three_of_four_is_75():
    samples = []
    for step in range(12):
        wrong = f"obj_{step % 4}"  # a different one each step; always 1 of 4
        samples.append({
            "step": step,
            "oov_correct": {f"obj_{i}": (f"obj_{i}" != wrong) for i in range(4)},
        })
    sta = sta_from_samples(samples)
    assert sta == pytest.approx(75.0, abs=0.01)


# -- criterion 13: zone-scoped retrieval is insensitive to global count -------


def test_c13_zone_candidate_count_unchanged_by_1000_entities_elsewhere():
    store = WorldStore()
    store.add_zone(ZoneNode("z1", "z1"))
    store.add_zone(ZoneNode("elsewhere", "elsewhere"))
    store.robot_zone = "z1"
    for i in range(5):
        store.add_entity(f"local_{i}", _env([0.1 * i, 0, 0.02]), "z1",
                         uid=f"local_{i}")
    baseline = len(store.entities_in_zone("z1"))
    for i in range(1000):
        store.add_entity(f"far_{i}", _env([5.0, 0.01 * i, 0.02]), "elsewhere")
    assert len(store.entities_in_zone("z1")) == baseline
    assert len(store.entities_in_zone("elsewhere")) == 1000
