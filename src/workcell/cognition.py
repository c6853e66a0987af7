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
from .transactions import SKILLS
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
    fallback: dict | None = None
    expected_positions: dict[str, list[float]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "action_proposal": {"action": self.action, "args": self.args},
            "world_belief": [list(b) for b in self.world_belief],
            "causal_assump": {
                "expected_cs": self.expected_cs,
                "add_relations": [list(r) for r in self.add_relations],
                "remove_relations": [list(r) for r in self.remove_relations],
                "expected_positions": self.expected_positions,
            },
            "confidence": self.confidence,
            "fallback": self.fallback,
        }


class ValidationStage(Enum):
    SYNTACTIC = "Syntactic"
    SEMANTIC = "Semantic"
    PHYSICAL = "Physical"


@dataclass
class ValidationReport:
    ok: bool
    stages: dict[str, str]  # stage -> "passed" | "failed" | "skipped"
    failing_stage: ValidationStage | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "stages": dict(self.stages),
            "failing_stage": None if self.failing_stage is None else self.failing_stage.value,
            "detail": self.detail,
        }


def _fail(stage: ValidationStage, detail: str, stages: dict) -> ValidationReport:
    stages[stage.value] = "failed"
    order = [ValidationStage.SYNTACTIC, ValidationStage.SEMANTIC, ValidationStage.PHYSICAL]
    for later in order[order.index(stage) + 1:]:
        stages[later.value] = "skipped"
    return ValidationReport(False, stages, stage, detail)


def parse_ert(doc) -> tuple[ERT | None, str]:
    """Wire-format document to ERT; any malformation is a parse error."""
    if not isinstance(doc, dict):
        return None, "document is not a mapping"
    for fld in ("action_proposal", "world_belief", "causal_assump", "confidence"):
        if fld not in doc:
            return None, f"missing field {fld!r}"
    ap = doc["action_proposal"]
    if not isinstance(ap, dict) or "action" not in ap or "args" not in ap:
        return None, "action_proposal must carry action and args"
    if not isinstance(ap["args"], dict):
        return None, "action args must be a mapping"
    wb = doc["world_belief"]
    if not isinstance(wb, list):
        return None, "world_belief must be a list"
    beliefs = []
    for item in wb:
        if not (isinstance(item, (list, tuple)) and len(item) == 3):
            return None, f"malformed belief {item!r}"
        beliefs.append(tuple(str(x) for x in item))
    ca = doc["causal_assump"]
    if not isinstance(ca, dict) or "expected_cs" not in ca:
        return None, "causal_assump must carry expected_cs"
    conf = doc["confidence"]
    if not isinstance(conf, (int, float)) or isinstance(conf, bool):
        return None, "confidence must be numeric"
    if not 0.0 <= float(conf) <= 1.0:
        return None, f"confidence {conf} outside [0, 1]"

    def _rels(key):
        out = []
        for item in ca.get(key, []):
            if not (isinstance(item, (list, tuple)) and len(item) == 3):
                raise ValueError(f"malformed relation {item!r} in {key}")
            out.append(tuple(str(x) for x in item))
        return out

    try:
        add_rel = _rels("add_relations")
        rem_rel = _rels("remove_relations")
    except ValueError as exc:
        return None, str(exc)
    fallback = doc.get("fallback")
    if fallback is not None and not isinstance(fallback, dict):
        return None, "fallback must be a mapping or null"
    return ERT(
        action=str(ap["action"]),
        args=dict(ap["args"]),
        world_belief=beliefs,
        expected_cs=dict(ca["expected_cs"]),
        add_relations=add_rel,
        remove_relations=rem_rel,
        confidence=float(conf),
        fallback=fallback,
        expected_positions={
            str(k): [float(x) for x in v]
            for k, v in ca.get("expected_positions", {}).items()
        },
    ), ""


def validate_ert(doc, store: WorldStore) -> tuple[ERT | None, ValidationReport]:
    """Three-stage check, short-circuiting at the first failure.

    Syntactic: schema shape and ranges. Semantic: every referenced id
    exists. Physical: each stated belief holds geometrically right now.
    """
    stages = {s.value: "passed" for s in ValidationStage}

    ert, err = parse_ert(doc)
    if ert is None:
        return None, _fail(ValidationStage.SYNTACTIC, err, stages)
    if ert.action not in SKILLS:
        return None, _fail(
            ValidationStage.SYNTACTIC, f"unknown action {ert.action!r}", stages
        )

    known = set(store.vertices) | set(store.zones)
    referenced = [v for v in ert.args.values() if isinstance(v, str)]
    for _, s, o in ert.world_belief + ert.add_relations + ert.remove_relations:
        referenced.extend([s, o])
    for uid in referenced:
        if uid not in known:
            return None, _fail(
                ValidationStage.SEMANTIC, f"unknown entity {uid!r}", stages
            )
    for uid in referenced:
        v = store.vertices.get(uid)
        if v is not None and v.lifecycle == Lifecycle.ARCHIVED:
            return None, _fail(
                ValidationStage.SEMANTIC, f"entity {uid!r} is archived", stages
            )

    for pred, subj, obj in ert.world_belief:
        if pred == "Holding":
            rec = store.records.get(store.vertices[obj].grounding) if obj in store.vertices else None
            ok = rec is not None and rec.attached_to == "gripper"
        elif pred in _VERIFIABLE_PREDICATES:
            if subj not in store.vertices or obj not in store.vertices:
                continue  # zone-level assertions are not geometric checks
            edge = RelationEdge(pred, subj, obj)
            ok = verify_relation(edge, store) == EdgeStatus.VERIFIED
        else:
            continue
        if not ok:
            return None, _fail(
                ValidationStage.PHYSICAL,
                f"belief {pred}({subj},{obj}) contradicts geometry",
                stages,
            )
    return ert, ValidationReport(True, stages)


# -- context subgraph --------------------------------------------------------


@dataclass
class SubgraphConfig:
    w_direct: float = 1.0
    w_hop: float = 0.5
    w_keyword: float = 0.2
    tau_rel: float = 0.3
    synonyms: dict[str, list[str]] = field(default_factory=dict)


def keyword_similarity(category: str, keywords: list[str], synonyms: dict) -> float:
    """Exact / synonym-table match scored in {0, 1}."""
    expansions = {category, *synonyms.get(category, [])}
    for kw in keywords:
        if kw in expansions or category in set(synonyms.get(kw, [])):
            return 1.0
    return 0.0


@dataclass
class ContextSubgraph:
    vertices: list[str]  # uids, ascending, robot always present
    edges: list[RelationEdge]
    robot: str = ROBOT_UID


def extract_subgraph(
    store: WorldStore,
    subtask: dict,
    cs,
    cfg: SubgraphConfig | None = None,
) -> ContextSubgraph:
    """Relevance-scored vertex subset plus induced edges.

    subtask carries "args" (entity uids), optional "zones" (goal zones),
    and optional "keywords" (category words for soft matching).
    """
    cfg = cfg or SubgraphConfig()
    args = [a for a in subtask.get("args", []) if isinstance(a, str)]
    zones = {store.robot_zone} | set(subtask.get("zones", []))
    zones |= {a for a in args if a in store.zones}
    zones.discard("")

    candidates: dict[str, object] = {}
    for z in sorted(zones):
        if z in store.zones:
            for v in store.entities_in_zone(z):
                candidates[v.uid] = v
    for a in args:  # direct arguments count wherever they live
        if a in store.vertices and store.vertices[a].lifecycle != Lifecycle.ARCHIVED:
            candidates[a] = store.vertices[a]

    arg_set = set(args)
    hop = store.neighbors(arg_set)
    keywords = list(subtask.get("keywords", []))

    kept = []
    for uid, v in sorted(candidates.items()):
        if uid == ROBOT_UID:
            continue
        r = (
            cfg.w_direct * (uid in arg_set)
            + cfg.w_hop * (uid in hop)
            + cfg.w_keyword * keyword_similarity(v.label, keywords, cfg.synonyms)
        )
        if r > cfg.tau_rel:
            kept.append(uid)

    members = set(kept) | {ROBOT_UID}
    induced = [e for e in store.edges if e.subject in members and e.obj in members]
    return ContextSubgraph(vertices=sorted(members), edges=induced)


def serialize_context(
    sub: ContextSubgraph, store: WorldStore, task_state: dict, cs
) -> dict:
    """Deterministic structured payload for a reasoner request."""
    vertices = []
    for uid in sorted(sub.vertices):
        v = store.vertices[uid]
        rec = store.records.get(v.grounding)
        vertices.append({
            "uid": uid,
            "label": v.label,
            "state_tag": v.state_tag,
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
        "cs": cs.to_dict() if hasattr(cs, "to_dict") else cs,
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

    The script maps (kind, key) to an ordered list of responses; each
    query consumes the next response, and the final one repeats. A rule
    with key "" answers any key of that kind.
    """

    def __init__(self, script: dict):
        self.call_count = 0
        self._queues: dict[tuple[str, str], list] = {}
        for (kind, key), responses in script.items():
            kind_v = kind.value if isinstance(kind, RequestKind) else str(kind)
            if not isinstance(responses, list):
                responses = [responses]
            self._queues[(kind_v, key)] = list(responses)

    def query(self, request: ReasonerRequest):
        self.call_count += 1
        for key in (request.key, ""):
            queue = self._queues.get((request.kind.value, key))
            if queue:
                response = queue.pop(0) if len(queue) > 1 else queue[0]
                return response
        raise ScriptGapError(
            f"no scripted response for {request.kind.value!r} key {request.key!r}"
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
