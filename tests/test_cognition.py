"""Reasoner seam: trace parsing/validation, context subgraphs, scripted
replay, and the verify-retry loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from workcell.association import AssociationConfig, hybrid_cost
from workcell.cognition import (
    BRIEFING,
    N_MAX_DEFAULT,
    ContextSubgraph,
    ReasonerRequest,
    RequestKind,
    ScriptedReasoner,
    ValidationStage,
    extract_subgraph,
    get_valid_ert,
    parse_ert,
    serialize_context,
    validate_ert,
)
from workcell.errors import ScriptGapError
from workcell.geometry import GaussianEnvelope
from workcell.serialization import canonical_dumps
from workcell.transactions import ConstraintState
from workcell.world_model import EdgeStatus, Lifecycle, WorldStore, ZoneNode

from fixtures import ert_doc
from oracles import extract_subgraph_weighted


def _env(mean, sigma=0.01):
    return GaussianEnvelope(np.asarray(mean, dtype=float), sigma * np.eye(3))


def make_store():
    store = WorldStore()
    store.add_zone(ZoneNode("z1", "staging"))
    store.add_zone(ZoneNode("z2", "assembly"))
    store.robot_zone = "z1"
    store.add_entity("part", _env([0.4, 0, 0.02]), "z1", uid="part")
    store.add_entity("plate", _env([1.0, 0, 0.02]), "z2", uid="plate")
    return store


def good_doc(**kw):
    return ert_doc("Pick", {"object": "part"},
                   {"phase": "Holding", "target": "part"}, **kw)


# -- parsing ------------------------------------------------------------------


def test_parse_roundtrip():
    ert, err = parse_ert(good_doc())
    assert err == "" and ert is not None
    assert ert.action == "Pick" and ert.args == {"object": "part"}
    assert ert.confidence == pytest.approx(0.95)


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("action_proposal"),
    lambda d: d.pop("confidence"),
    lambda d: d.pop("world_belief"),
    lambda d: d.pop("causal_assump"),
    lambda d: d["action_proposal"].pop("args"),
    lambda d: d.__setitem__("confidence", "high"),
    lambda d: d.__setitem__("confidence", 1.5),
    lambda d: d.__setitem__("confidence", True),
    lambda d: d.__setitem__("world_belief", "On(a,b)"),
    lambda d: d["causal_assump"].__setitem__("add_relations", [["On", "a"]]),
    lambda d: d["causal_assump"].__setitem__("add_relations", None),
    lambda d: d["causal_assump"].__setitem__("remove_relations", 5),
    lambda d: d.__setitem__("fallback", "retry"),
    lambda d: d["causal_assump"].__setitem__("expected_cs", None),
    lambda d: d["causal_assump"].__setitem__("expected_cs", "Holding"),
    lambda d: d["causal_assump"]["expected_cs"].__setitem__("phase", ["Holding"]),
    lambda d: d["causal_assump"]["expected_cs"].__setitem__("target", {}),
    lambda d: d["causal_assump"].__setitem__("expected_positions", None),
    lambda d: d["causal_assump"].__setitem__("expected_positions", [[0.4, 0.0, 0.1]]),
    lambda d: d["causal_assump"].__setitem__("expected_positions", {"part": 0.4}),
    lambda d: d["causal_assump"].__setitem__("expected_positions", {"part": [1.0]}),
    lambda d: d["causal_assump"].__setitem__("expected_positions", {"part": ["a", "b", "c"]}),
    lambda d: d["causal_assump"].__setitem__("expected_positions",
                                             {"part": [0.4, 0.0, float("nan")]}),
    lambda d: d["causal_assump"].__setitem__("expected_positions", {"part": [0.4, 0.0, 10**400]}),
    lambda d: d["causal_assump"].__setitem__("expected_positions", {"part": [True, 0.0, 0.1]}),
    lambda d: d.__setitem__("confidence", 10**400),
])
def test_parse_rejects_malformed(mutate):
    doc = good_doc()
    mutate(doc)
    ert, err = parse_ert(doc)
    assert ert is None and err
    # A document that does not parse fails the first stage, so it takes a
    # retry from the verify-retry budget instead of ending the run.
    _, report = validate_ert(doc, make_store())
    assert report.failing_stage == ValidationStage.SYNTACTIC


def test_parse_rejects_non_mapping():
    assert parse_ert("not a dict")[0] is None
    assert parse_ert(None)[0] is None


# -- staged validation --------------------------------------------------------


def test_validate_happy_path():
    ert, report = validate_ert(good_doc(), make_store())
    assert ert is not None and report.ok
    assert report.stages == {"Syntactic": "passed", "Semantic": "passed",
                             "Physical": "passed"}


def test_validate_syntactic_failure_short_circuits():
    doc = good_doc()
    doc["action_proposal"]["action"] = "Levitate"
    ert, report = validate_ert(doc, make_store())
    assert ert is None
    assert report.failing_stage == ValidationStage.SYNTACTIC
    assert report.stages["Semantic"] == "skipped"
    assert report.stages["Physical"] == "skipped"


def test_validate_semantic_unknown_and_archived():
    doc = ert_doc("Pick", {"object": "ghost"},
                  {"phase": "Holding", "target": "ghost"})
    _, report = validate_ert(doc, make_store())
    assert report.failing_stage == ValidationStage.SEMANTIC
    assert report.stages["Physical"] == "skipped"

    store = make_store()
    store.update_vertex("part", lifecycle=Lifecycle.ARCHIVED)
    _, report = validate_ert(good_doc(), store)
    assert report.failing_stage == ValidationStage.SEMANTIC
    assert "archived" in report.detail


def test_validate_physical_belief_contradiction():
    # Claiming the gripper holds the part while it sits on the table.
    doc = good_doc(beliefs=[["Holding", "robot", "part"]])
    _, report = validate_ert(doc, make_store())
    assert report.failing_stage == ValidationStage.PHYSICAL
    store = make_store()
    store.update_record("part", attached_to="gripper")
    ert, report = validate_ert(doc, store)
    assert ert is not None and report.ok


def test_validate_geometric_belief():
    doc = good_doc(beliefs=[["Near", "part", "plate"]])  # 0.6 m apart
    _, report = validate_ert(doc, make_store())
    assert report.failing_stage == ValidationStage.PHYSICAL
    close = make_store()
    close.update_record("plate", envelope=_env([0.5, 0, 0.02]))
    ert, report = validate_ert(doc, close)
    assert ert is not None and report.ok


def test_validate_zone_scoped_beliefs_skip_geometry():
    doc = good_doc(beliefs=[["Inside", "part", "z1"]])
    ert, report = validate_ert(doc, make_store())
    assert ert is not None and report.ok


@pytest.mark.parametrize("action, args, detail", [
    ("Move", {"zone": "part", "position": [0.4, 0.0, 0.1]}, "zone 'part' is not a zone"),
    ("Move", {"zone": "z1", "target": "z2"}, "target 'z2' is not an entity"),
    ("Pick", {"object": "z1"}, "object 'z1' is not an entity"),
    ("Place", {"destination": "plate", "position": [1.0, 0.0, 0.05], "zone": "plate"},
     "zone 'plate' is not a zone"),
    ("Insert", {"part": "part", "receptacle": "z2"}, "receptacle 'z2' is not an entity"),
    ("Pick", {"object": "robot"}, "object 'robot' is not an entity"),
])
def test_validate_rejects_uid_of_the_wrong_kind(action, args, detail):
    ert, report = validate_ert(ert_doc(action, args, {"phase": "Idle"}), make_store())
    assert ert is None and report.failing_stage == ValidationStage.SEMANTIC
    assert report.detail == detail


def test_validate_accepts_destination_of_either_kind():
    for dest in ("plate", "z2"):
        args = {"destination": dest, "position": [1.0, 0.0, 0.05]}
        ert, report = validate_ert(ert_doc("Place", args, {"phase": "Idle"}), make_store())
        assert ert is not None and report.ok


_QUARTER_TURN = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize("action, args", [
    ("Pick", {"object": "part", "position": [0.4, 0.0, 0.02]}),
    ("Place", {"destination": "plate", "position": [1.0, 0.0, 0.05], "zone": "z2"}),
    ("Insert", {"part": "part", "receptacle": "plate", "mating_offset": [0, 0, 0.01]}),
    ("Move", {"zone": "z2", "position": [1.0, 0.0, 0.1], "target": "plate"}),
    ("Rotate", {"object": "part", "rotation": _QUARTER_TURN}),
    ("OpenGripper", {}),
])
def test_validate_accepts_args_each_skill_can_run(action, args):
    ert, report = validate_ert(ert_doc(action, args, {"phase": "Idle"}), make_store())
    assert ert is not None and report.ok


@pytest.mark.parametrize("action, args", [
    ("Place", {"position": [1.0, 0.0, 0.05]}),
    ("Place", {"destination": "plate"}),
    ("Place", {"destination": ["plate"], "position": [1.0, 0.0, 0.05]}),
    ("Pick", {}),
    ("Pick", {"object": 7}),
    ("Pick", {"object": "part", "position": [1, "a"]}),
    ("Pick", {"object": "part", "position": [0.4, 0.0, float("inf")]}),
    ("Move", {"zone": ["z2"]}),
    ("Move", {"position": [1.0, 0.0, 10**400]}),
    ("Move", {"target": None}),
    ("Insert", {"part": "part"}),
    ("Insert", {"part": "part", "receptacle": "plate", "mating_offset": [0.0]}),
    ("Rotate", {"object": "part"}),
    ("Rotate", {"object": "part", "rotation": [[1.0, 0.0], [0.0, 1.0]]}),
    ("Rotate", {"object": "part", "rotation": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                               [0.0, 0.0, float("nan")]]}),
    ("Rotate", {"object": "part", "rotation": [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0],
                                               [0.0, 0.0, 2.0]]}),
])
def test_validate_rejects_args_the_skill_cannot_run(action, args):
    doc = ert_doc(action, args, {"phase": "Idle"})
    ert, report = validate_ert(doc, make_store())
    assert ert is None and report.failing_stage == ValidationStage.SYNTACTIC
    # The reply takes retries from the same budget as any other rejection.
    reasoner = ScriptedReasoner({("ProposeERT", ""): [doc]})
    outcome = get_valid_ert(reasoner, ReasonerRequest(RequestKind.PROPOSE_ERT, "k"),
                            make_store())
    assert outcome.exhausted and outcome.attempts == N_MAX_DEFAULT
    assert {r.failing_stage for r in outcome.reports} == {ValidationStage.SYNTACTIC}


# -- subgraph extraction ------------------------------------------------------


def test_semantic_similarity_helper_validates_range():
    # The loop reads a similarity reply through executive.ask, which
    # refuses one outside [0, 1]; hybrid_cost, which it feeds, refuses one
    # too.
    cfg = AssociationConfig()
    req = ReasonerRequest(RequestKind.SEMANTIC_SIMILARITY, key="gear|cog")
    r = ScriptedReasoner({("SemanticSimilarity", ""): [0.25]})
    sim = float(r.query(req))
    assert sim == 0.25
    assert hybrid_cost(1.0, sim, cfg) == pytest.approx(hybrid_cost(1.0, 0.25, cfg))
    bad = ScriptedReasoner({("SemanticSimilarity", ""): [1.7]})
    with pytest.raises(ValueError):
        hybrid_cost(1.0, float(bad.query(req)), cfg)


def test_extract_subgraph_direct_args_and_hops():
    store = make_store()
    store.add_entity("clamp", _env([0.45, 0, 0.02]), "z1", uid="clamp")
    store.add_edge("Near", "clamp", "part")
    sub = extract_subgraph(store, {"args": ["part"]})
    # A direct argument and its 1-hop neighbor in the robot's zone.
    assert set(sub.vertices) == {"robot", "part", "clamp"}
    assert {(e.predicate, e.subject, e.obj) for e in sub.edges} == {
        ("Near", "clamp", "part")
    }


def test_extract_subgraph_threshold_prunes_bystanders():
    store = make_store()
    store.add_entity("junk", _env([0.3, 0.2, 0.02]), "z1", uid="junk")
    sub = extract_subgraph(store, {"args": ["part"]})
    assert "junk" not in sub.vertices  # a zone-mate no edge links to an argument


def test_extract_subgraph_keyword_only_insufficient():
    # A keyword naming a bystander's label, in the robot's zone, pulls in
    # nothing: only arguments and their neighbours count.
    store = make_store()
    store.add_entity("bolt", _env([0.3, 0.2, 0.02]), "z1", uid="bolt")
    for args in ([], ["part"]):
        sub = extract_subgraph(store, {"args": args, "keywords": ["bolt"]})
        assert sub.vertices == sorted(["robot", *args])


_LABELS = ("bolt", "screw", "fastener", "gear")
_ZONES = ("z1", "z2")


@st.composite
def _context_cases(draw):
    """A store whose vertices have every lifecycle, some in a zone the store
    lacks; edges of every status between entities, zones and the robot; and
    a subtask with non-string and unknown args, keywords and a synonym
    table."""
    store = WorldStore()
    for z in _ZONES:
        store.add_zone(ZoneNode(z, z))
    store.robot_zone = draw(st.sampled_from([*_ZONES, "", "zx"]))
    uids = []
    for i in range(draw(st.integers(1, 8))):
        uid = store.add_entity(draw(st.sampled_from(_LABELS)), _env([0.1 * i, 0, 0.02]),
                               draw(st.sampled_from([*_ZONES, "zx"])))
        store.update_vertex(uid, lifecycle=draw(st.sampled_from(list(Lifecycle))))
        uids.append(uid)
    ends = st.sampled_from(["robot", *uids, *uids, *_ZONES])
    for _ in range(draw(st.integers(1, 16))):
        store.add_edge(draw(st.sampled_from(["On", "Near", "Inserted"])), draw(ends), draw(ends),
                       draw(st.sampled_from(list(EdgeStatus))))
    names = st.one_of(st.sampled_from(uids),
                      st.sampled_from(["robot", "ghost", "zx", *_ZONES]),
                      st.integers(0, 3) | st.none())
    subtask = {
        "args": draw(st.lists(names, min_size=1, max_size=3)),
        "zones": draw(st.lists(st.sampled_from([*_ZONES, "zx", ""]), max_size=2)),
        "keywords": draw(st.lists(st.sampled_from(_LABELS), max_size=2)),
    }
    synonyms = draw(st.dictionaries(st.sampled_from(_LABELS),
                                    st.lists(st.sampled_from(_LABELS), max_size=2), max_size=3))
    return store, subtask, synonyms


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_context_cases())
def test_extract_subgraph_keeps_what_the_weighted_rule_kept(case):
    """The subset is the one the relevance score (argument 1.0, neighbour
    0.5, keyword 0.2, kept above 0.3) chose, keywords and synonyms
    included, and so are the induced edges."""
    store, subtask, synonyms = case
    sub = extract_subgraph(store, subtask)
    assert (sub.vertices, sub.edges) == extract_subgraph_weighted(store, subtask, synonyms)


def test_extract_subgraph_goal_zone_pulls_entities():
    store = make_store()
    sub = extract_subgraph(store, {"args": ["plate"], "zones": ["z2"]})
    assert "plate" in sub.vertices


def test_serialize_context_deterministic():
    store = make_store()
    sub = extract_subgraph(store, {"args": ["part"]})
    payload_a = serialize_context(sub, store, {"id": 1}, ConstraintState())
    payload_b = serialize_context(sub, store, {"id": 1}, ConstraintState())
    assert canonical_dumps(payload_a) == canonical_dumps(payload_b)
    assert payload_a["briefing"] == BRIEFING
    uids = [v["uid"] for v in payload_a["vertices"]]
    assert uids == sorted(uids)


def test_context_subgraph_always_includes_robot():
    store = make_store()
    sub = extract_subgraph(store, {"args": []})
    assert sub.vertices == ["robot"]
    assert isinstance(sub, ContextSubgraph)


# -- scripted reasoner --------------------------------------------------------


def test_scripted_reasoner_queue_and_sticky_last():
    r = ScriptedReasoner({("ProposeERT", "k"): ["a", "b"]})
    req = ReasonerRequest(RequestKind.PROPOSE_ERT, "k")
    assert r.query(req) == "a"
    assert r.query(req) == "b"
    assert r.query(req) == "b"  # final response repeats
    assert r.call_count == 3


def test_scripted_reasoner_wildcard_key_and_gap():
    r = ScriptedReasoner({("SemanticSimilarity", ""): [0.7]})
    assert r.query(ReasonerRequest(RequestKind.SEMANTIC_SIMILARITY, "x|y")) == 0.7
    with pytest.raises(ScriptGapError):
        r.query(ReasonerRequest(RequestKind.PROPOSE_ERT, "missing"))


# -- verify-retry loop --------------------------------------------------------


def test_get_valid_ert_retries_with_feedback():
    store = make_store()
    bad = good_doc()
    bad["action_proposal"]["action"] = "Levitate"
    reasoner = ScriptedReasoner({("ProposeERT", "k"): [bad, good_doc()]})
    seen_payloads = []
    original_query = reasoner.query

    def spy(request):
        seen_payloads.append(dict(request.payload))
        return original_query(request)

    reasoner.query = spy
    outcome = get_valid_ert(
        reasoner, ReasonerRequest(RequestKind.PROPOSE_ERT, "k"), store
    )
    assert outcome.ert is not None and outcome.attempts == 2
    assert "validation_feedback" not in seen_payloads[0]
    fb = seen_payloads[1]["validation_feedback"]
    assert fb["failing_stage"] == "Syntactic"
    assert [r.ok for r in outcome.reports] == [False, True]


def test_get_valid_ert_exhausts_budget():
    store = make_store()
    bad = good_doc()
    del bad["confidence"]
    reasoner = ScriptedReasoner({("ProposeERT", ""): [bad]})
    outcome = get_valid_ert(
        reasoner, ReasonerRequest(RequestKind.PROPOSE_ERT, "k"), store, n_max=5
    )
    assert outcome.exhausted and outcome.attempts == 5
    assert len(outcome.reports) == 5
    with pytest.raises(ValueError):
        get_valid_ert(reasoner, ReasonerRequest(RequestKind.PROPOSE_ERT, "k"),
                      store, n_max=0)
