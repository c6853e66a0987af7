"""Reasoner abstraction, task-relevant context extraction, and the
structured decision-trace protocol with three-stage validation.

The reasoner seam is deliberately model-free: a scripted, replayable
implementation stands in for any live model, so the surrounding logic can
be exercised deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import ScriptGapError
from .schema import (
    DICT,
    POINT,
    ROTATION,
    STR,
    TRIPLES,
    UNIT,
    key_errors,
    mapping_of,
    or_null,
)
from .transactions import SKILLS, ConstraintState
from .world_model import (
    EdgeStatus,
    Lifecycle,
    RelationEdge,
    ROBOT_UID,
    WorldStore,
    verify_relation,
)

N_MAX_DEFAULT = 5

# Constant meta-instruction header carried (unparsed) in every payload.
BRIEFING = (
    "You are the decision module of a workcell robot. Respond only with "
    "structured records conforming to the declared schema."
)

_VERIFIABLE_PREDICATES = ("On", "Inside", "Near", "Contact", "Aligned", "Inserted", "Clear")


class RequestKind(Enum):
    DECOMPOSE_TASK = "DecomposeTask"
    SEMANTIC_SIMILARITY = "SemanticSimilarity"
    RELIABILITY_JUDGMENT = "ReliabilityJudgment"
    PROPOSE_ERT = "ProposeERT"
    PROPOSE_MICRO_SEQUENCE = "ProposeMicroSequence"
    RECOVERY_PLAN = "RecoveryPlan"


@dataclass
class ReasonerRequest:
    kind: RequestKind
    key: str = ""
    payload: dict = field(default_factory=dict)


@dataclass
class ERT:
    """One structured decision record: what to do, what the world is
    believed to look like, and what the action is expected to change."""

    action: str
    args: dict
    world_belief: list[tuple[str, str, str]]
    expected_cs: dict  # {"phase": ..., "target": ...}
    add_relations: list[tuple[str, str, str]]
    remove_relations: list[tuple[str, str, str]]
    confidence: float
    expected_positions: dict[str, list[float]] = field(default_factory=dict)


class ValidationStage(Enum):
    SYNTACTIC = "Syntactic"
    SEMANTIC = "Semantic"
    PHYSICAL = "Physical"


@dataclass
class ValidationReport:
    """The stage that failed, if any, and why; every stage before it
    passed and every stage after it was skipped."""

    failing_stage: ValidationStage | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.failing_stage is None

    @property
    def stages(self) -> dict[str, str]:
        """Each stage's status: "passed", "failed" or "skipped"."""
        order = list(ValidationStage)
        at = len(order) if self.failing_stage is None else order.index(self.failing_stage)
        return {s.value: "passed" if i < at else "failed" if i == at else "skipped"
                for i, s in enumerate(order)}

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "stages": self.stages,
            "failing_stage": None if self.failing_stage is None else self.failing_stage.value,
            "detail": self.detail,
        }


def _entity_error(store: WorldStore, uid: str) -> str:
    v = store.vertices.get(uid)
    if v is None or uid == ROBOT_UID:
        return "is not an entity"
    return "is archived" if v.lifecycle == Lifecycle.ARCHIVED else ""


# Each uid argument a skill reads, and why a name cannot fill its role, or
# "". An entity is a vertex that is neither the robot nor archived; a
# destination is a zone or an entity.
_UID_ARGS = {
    "object": _entity_error,
    "destination": lambda store, uid: "" if uid in store.zones else _entity_error(store, uid),
    "part": _entity_error,
    "receptacle": _entity_error,
    "zone": lambda store, uid: "" if uid in store.zones else "is not a zone",
    "target": _entity_error,
}
# What the skills read of an action's args (``transactions`` and
# ``simulator``): the shape of every key any of them reads, and the keys
# each one requires. Place needs a position because its commit check reads
# one.
_ARG_KEYS = {
    **dict.fromkeys(_UID_ARGS, STR),
    "position": POINT, "mating_offset": POINT, "rotation": ROTATION,
}
_REQUIRED_ARGS = {
    "Pick": ("object",),
    "Place": ("destination", "position"),
    "Insert": ("part", "receptacle"),
    "Rotate": ("object", "rotation"),
}


def _args_error(action: str, args: dict) -> str:
    """Why ``args`` cannot be run by ``action``'s skill, or ""."""
    required = _REQUIRED_ARGS.get(action, ())
    keys = {key if key in required else f"{key}?": shape for key, shape in _ARG_KEYS.items()}
    errors = key_errors(args, f"{action} args", keys)
    return errors[0] if errors else ""


# The wire format of an ERT, one table per mapping.
_ERT_KEYS = {
    "action_proposal": DICT, "world_belief": TRIPLES, "causal_assump": DICT,
    "confidence": UNIT, "fallback?": or_null(DICT),
}
_PROPOSAL_KEYS = {"action": STR, "args": DICT}
_ASSUMPTION_KEYS = {
    "expected_cs": DICT, "add_relations?": TRIPLES, "remove_relations?": TRIPLES,
    "expected_positions?": mapping_of(POINT),
}
# What diagnosis reads of the expected constraint state.
_EXPECTED_CS_KEYS = {"phase?": or_null(STR), "target?": or_null(STR)}


def _triples(items: list) -> list[tuple[str, str, str]]:
    return [tuple(str(x) for x in item) for item in items]


def parse_ert(doc) -> tuple[ERT | None, str]:
    """Wire-format document to ERT; the first malformation is the parse
    error."""
    errors = key_errors(doc, "ERT", _ERT_KEYS)
    if not errors:
        errors = (key_errors(doc["action_proposal"], "action_proposal", _PROPOSAL_KEYS)
                  + key_errors(doc["causal_assump"], "causal_assump", _ASSUMPTION_KEYS))
    if not errors:
        errors = key_errors(doc["causal_assump"]["expected_cs"], "expected_cs",
                            _EXPECTED_CS_KEYS)
    if errors:
        return None, errors[0]
    ap, ca = doc["action_proposal"], doc["causal_assump"]
    return ERT(
        action=ap["action"],
        args=dict(ap["args"]),
        world_belief=_triples(doc["world_belief"]),
        expected_cs=dict(ca["expected_cs"]),
        add_relations=_triples(ca.get("add_relations", [])),
        remove_relations=_triples(ca.get("remove_relations", [])),
        confidence=float(doc["confidence"]),
        expected_positions={str(uid): [float(x) for x in pos]
                            for uid, pos in ca.get("expected_positions", {}).items()},
    ), ""


def validate_ert(doc, store: WorldStore) -> tuple[ERT | None, ValidationReport]:
    """Three-stage check, short-circuiting at the first failure.

    Syntactic: schema shape and ranges, and args the action's skill can
    run. Semantic: each uid argument names what its role takes
    (``_UID_ARGS``), and each relation endpoint is a known vertex or zone,
    not archived. Physical: each stated belief holds geometrically now.
    """
    ert, err = parse_ert(doc)
    if ert is None:
        return None, ValidationReport(ValidationStage.SYNTACTIC, err)
    if ert.action not in SKILLS:
        return None, ValidationReport(ValidationStage.SYNTACTIC, f"unknown action {ert.action!r}")
    err = _args_error(ert.action, ert.args)
    if err:
        return None, ValidationReport(ValidationStage.SYNTACTIC, err)

    for key, uid in ert.args.items():
        reason = _UID_ARGS[key](store, uid) if key in _UID_ARGS else ""
        if reason:
            return None, ValidationReport(ValidationStage.SEMANTIC, f"{key} {uid!r} {reason}")
    for _, s, o in ert.world_belief + ert.add_relations + ert.remove_relations:
        for uid in (s, o):
            v = store.vertices.get(uid)
            if v is None and uid not in store.zones:
                return None, ValidationReport(ValidationStage.SEMANTIC, f"unknown entity {uid!r}")
            if v is not None and v.lifecycle == Lifecycle.ARCHIVED:
                return None, ValidationReport(ValidationStage.SEMANTIC,
                                              f"entity {uid!r} is archived")

    for pred, subj, obj in ert.world_belief:
        if pred == "Holding":
            rec = store.records.get(obj)
            ok = rec is not None and rec.attached_to == "gripper"
        elif pred in _VERIFIABLE_PREDICATES:
            if subj not in store.vertices or obj not in store.vertices:
                continue  # zone-level assertions are not geometric checks
            edge = RelationEdge(pred, subj, obj)
            ok = verify_relation(edge, store) == EdgeStatus.VERIFIED
        else:
            continue
        if not ok:
            return None, ValidationReport(
                ValidationStage.PHYSICAL, f"belief {pred}({subj},{obj}) contradicts geometry")
    return ert, ValidationReport()


# -- context subgraph --------------------------------------------------------


@dataclass
class ContextSubgraph:
    vertices: list[str]  # uids, ascending, robot always present
    edges: list[RelationEdge]


def extract_subgraph(store: WorldStore, subtask: dict) -> ContextSubgraph:
    """The task-relevant vertex subset plus induced edges.

    subtask carries "args" (entity uids) and optional "zones" (goal
    zones); nothing else of it is read here. The subset holds every
    argument that is a live (not archived) vertex, wherever it lives, and
    every 1-hop neighbour of an argument that is a live entity of a scoped
    zone: the robot's zone, a goal zone, or a zone named as an argument.
    The robot is always in.
    """
    args = {a for a in subtask.get("args", []) if isinstance(a, str)}
    hop = store.neighbors(args)
    members = {a for a in args
               if a in store.vertices and store.vertices[a].lifecycle != Lifecycle.ARCHIVED}
    for z in {store.robot_zone, *subtask.get("zones", []), *args}:
        if z in store.zones:
            members.update(v.uid for v in store.entities_in_zone(z) if v.uid in hop)
    members.add(ROBOT_UID)
    induced = [e for e in store.edges if e.subject in members and e.obj in members]
    return ContextSubgraph(vertices=sorted(members), edges=induced)


def serialize_context(
    sub: ContextSubgraph, store: WorldStore, task_state: dict, cs: ConstraintState
) -> dict:
    """Deterministic structured payload for a reasoner request."""
    vertices = []
    for uid in sorted(sub.vertices):
        v = store.vertices[uid]
        rec = store.records.get(uid)
        vertices.append({
            "uid": uid,
            "label": v.label,
            "attributes": dict(sorted(v.attributes.items())),
            "zone": v.zone_id,
            "lifecycle": v.lifecycle.value,
            "confidence": v.confidence,
            "position": None if rec is None else [float(x) for x in rec.envelope.mean],
        })
    edges = sorted(
        {(e.predicate, e.subject, e.obj, e.status.value) for e in sub.edges}
    )
    return {
        "briefing": BRIEFING,
        "cs": cs.to_dict(),
        "task_state": task_state,
        "vertices": vertices,
        "edges": [list(e) for e in edges],
    }


# -- reasoner implementations ------------------------------------------------


class Reasoner:
    """Interface: query(request) -> response document. Implementations
    must count calls for planning-efficiency bookkeeping."""

    call_count: int = 0

    def query(self, request: ReasonerRequest):  # pragma: no cover - interface
        raise NotImplementedError


class ScriptedReasoner(Reasoner):
    """Deterministic, replayable reasoner driven by a response table.

    The script maps a (kind value, key) pair of strings to an ordered
    list of responses; each query consumes the next response, and the
    final one repeats. A rule with key "" answers any key of that kind.
    """

    def __init__(self, script: dict[tuple[str, str], list]):
        self.call_count = 0
        self._queues = {rule: list(responses) for rule, responses in script.items()}

    def query(self, request: ReasonerRequest):
        self.call_count += 1
        for key in (request.key, ""):
            queue = self._queues.get((request.kind.value, key))
            if queue:
                response = queue.pop(0) if len(queue) > 1 else queue[0]
                return response
        raise ScriptGapError(
            request.kind.value,
            f"no scripted response for {request.kind.value!r} key {request.key!r}",
        )


@dataclass
class GetErtOutcome:
    ert: ERT | None
    attempts: int
    reports: list[ValidationReport]

    @property
    def exhausted(self) -> bool:
        return self.ert is None


def get_valid_ert(
    reasoner: Reasoner,
    request: ReasonerRequest,
    store: WorldStore,
    n_max: int = N_MAX_DEFAULT,
) -> GetErtOutcome:
    """Verify-retry wrapper: re-query with the failing report appended
    until a trace validates or the attempt budget runs out."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    reports: list[ValidationReport] = []
    payload = dict(request.payload)
    for attempt in range(1, n_max + 1):
        req = ReasonerRequest(request.kind, request.key, payload)
        doc = reasoner.query(req)
        ert, report = validate_ert(doc, store)
        reports.append(report)
        if ert is not None:
            return GetErtOutcome(ert, attempt, reports)
        payload = dict(payload)
        payload["validation_feedback"] = report.to_dict()
    return GetErtOutcome(None, n_max, reports)
