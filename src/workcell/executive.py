"""Task memory, the main planning loop, rule-based discrepancy
diagnosis, and the one door every reasoner reply but an ERT comes through.

The executive is the single orchestrator of a task: it applies
transactions and mutates task memory and the constraint state. Reasoner
calls come from here and from the harness's perception cycle; every one
goes through ``ask`` or, for an ERT, ``get_valid_ert``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .association import ReliabilityJudgment, gamma_of
from .cognition import (
    ERT,
    Reasoner,
    ReasonerRequest,
    RequestKind,
    extract_subgraph,
    get_valid_ert,
    serialize_context,
    validate_ert,
)
from .errors import ReasonerFault, ScenarioError, StateMachineError
from .schema import BOOL, DICT, INT, LIST, STR, UNIT, key_errors, list_of
from .transactions import (
    CommitDecision,
    ConstraintState,
    Phase,
    TransactionEntry,
    TransactionLog,
    TransitionStatus,
    apply_transition,
    check_commit,
    cs_during_action,
    mark_committed,
    rollback,
    touched_uids,
    update_cs_from_events,
)
from .world_model import EdgeStatus, WorldStore

DRIFT_FLAG_METERS = 0.05


# -- task memory -------------------------------------------------------------


@dataclass
class TaskNode:
    node_id: int
    function: str
    args: dict = field(default_factory=dict)
    deps: list[int] = field(default_factory=list)
    manipulation: bool = False
    key: str = ""
    keywords: list[str] = field(default_factory=list)
    zones: list[str] = field(default_factory=list)


# The keys ``from_doc`` reads of a task node, each with the shape of its
# value; a key ending in "?" has a default.
_NODE_KEYS = {"id": INT, "function": STR, "args?": DICT, "deps?": list_of(INT),
              "manipulation?": BOOL, "key?": STR, "keywords?": LIST, "zones?": list_of(STR)}


class TaskDAG:
    def __init__(self, nodes: list[TaskNode]):
        by_id: dict[int, TaskNode] = {}
        for n in nodes:
            if n.node_id in by_id:
                raise ScenarioError(f"duplicate task node id {n.node_id}")
            by_id[n.node_id] = n
        for n in nodes:
            for d in n.deps:
                if d not in by_id:
                    raise ScenarioError(f"node {n.node_id} depends on missing {d}")
        # Kahn's algorithm, lowest ready id first; leftovers mean a cycle.
        indeg = {i: len(set(n.deps)) for i, n in by_id.items()}
        ready = [i for i, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        self.order: list[TaskNode] = []
        while ready:
            i = heapq.heappop(ready)
            self.order.append(by_id[i])
            for j, n in by_id.items():
                if i in n.deps:
                    indeg[j] -= 1
                    if indeg[j] == 0:
                        heapq.heappush(ready, j)
        if len(self.order) != len(by_id):
            raise ScenarioError("task graph contains a cycle")

    @classmethod
    def from_doc(cls, doc: dict) -> "TaskDAG":
        errors = key_errors(doc, "task graph", {"nodes?": LIST})
        if not errors:
            for i, nd in enumerate(doc.get("nodes", [])):
                errors += key_errors(nd, f"nodes[{i}]", _NODE_KEYS)
        if errors:
            raise ScenarioError("; ".join(errors))
        return cls([TaskNode(
            node_id=nd["id"],
            function=nd["function"],
            args=dict(nd.get("args", {})),
            deps=list(nd.get("deps", [])),
            manipulation=nd.get("manipulation", False),
            key=nd.get("key", ""),
            keywords=list(nd.get("keywords", [])),
            zones=list(nd.get("zones", [])),
        ) for nd in doc.get("nodes", [])])


# -- reasoner replies --------------------------------------------------------


def _unit(reply) -> float:
    accepts, wants = UNIT
    if not accepts(reply):
        raise ValueError(f"must be {wants}")
    return float(reply)


def _sequence(reply) -> list:
    errors = key_errors(reply, "reply", {"sequence": LIST})
    if errors:
        raise ValueError(errors[0])
    return reply["sequence"]


# Each request kind's reply parser, and what the reply must be, in words.
# A parser returns the value the loop reads, or raises ValueError or
# ScenarioError with its reason. ERTs are not here: ``get_valid_ert``
# retries a malformed one.
REPLIES = {
    RequestKind.SEMANTIC_SIMILARITY: (_unit, "a similarity"),
    RequestKind.RELIABILITY_JUDGMENT: (lambda reply: gamma_of(ReliabilityJudgment(reply)),
                                       "a reliability level"),
    RequestKind.PROPOSE_MICRO_SEQUENCE: (_sequence, "a micro sequence"),
    RequestKind.RECOVERY_PLAN: (TaskDAG.from_doc, "a task graph"),
}


def ask(reasoner: Reasoner, request: ReasonerRequest):
    """The reasoner's reply to ``request``, as its kind's parser in
    ``REPLIES`` reads it. A reply the parser refuses raises
    ``ReasonerFault``, which ends the trial."""
    parse, wants = REPLIES[request.kind]
    reply = reasoner.query(request)
    try:
        return parse(reply)
    except (ValueError, ScenarioError) as exc:
        raise ReasonerFault(request.kind.value,
                            f"{request.kind.value} reply is not {wants}: {exc} "
                            f"(key {request.key!r}, reply {reply!r})") from None


@dataclass
class HistoryEntry:
    subtask_id: int
    ert: ERT
    outcome: str
    timestamp: int


# -- discrepancy -------------------------------------------------------------


@dataclass
class DiscrepancyReport:
    delta_cs: tuple[dict, dict] | None
    dg_plus: set[tuple[str, str, str]]
    dg_minus: set[tuple[str, str, str]]
    drift: dict[str, float]
    drift_flagged: list[str]

    def to_dict(self) -> dict:
        return {
            "delta_cs": None if self.delta_cs is None else list(self.delta_cs),
            "dg_plus": sorted(list(t) for t in self.dg_plus),
            "dg_minus": sorted(list(t) for t in self.dg_minus),
            "drift": {k: self.drift[k] for k in sorted(self.drift)},
            "drift_flagged": sorted(self.drift_flagged),
        }


def compute_discrepancy(
    store: WorldStore,
    ert: ERT,
    pre_edges: set[tuple[str, str, str]],
    actual_cs: ConstraintState,
    actual_positions: dict[str, np.ndarray] | None = None,
) -> DiscrepancyReport:
    """Pure set/compare diff between the observed post-state and the
    trace's causal assumption. No reasoner involvement."""
    touched = touched_uids(store, ert.args)

    def scoped(edges):
        return {e for e in edges if e[1] in touched or e[2] in touched}

    expected = (scoped(pre_edges) - scoped(set(ert.remove_relations))) | scoped(
        set(ert.add_relations)
    )
    actual = scoped({
        (e.predicate, e.subject, e.obj)
        for e in store.edges
        if e.status != EdgeStatus.REFUTED
    })

    exp_cs = {
        "phase": ert.expected_cs.get("phase"),
        "target": ert.expected_cs.get("target"),
    }
    act_cs = actual_cs.to_dict()
    delta_cs = None if exp_cs == act_cs else (exp_cs, act_cs)

    drift: dict[str, float] = {}
    flagged: list[str] = []
    if actual_positions:
        for uid, expected_pos in ert.expected_positions.items():
            pos = actual_positions.get(uid)
            if pos is None:
                continue
            d = float(np.linalg.norm(np.asarray(pos, float) - np.asarray(expected_pos)))
            drift[uid] = d
            if d > DRIFT_FLAG_METERS:
                flagged.append(uid)

    return DiscrepancyReport(delta_cs, actual - expected, expected - actual, drift, flagged)


class FailureCategory(Enum):
    GRASP_SLIP = "GraspSlip"
    MISIDENTIFICATION = "Misidentification"
    MOTION_INTERRUPTED = "MotionInterrupted"
    PLACEMENT_REJECTED = "PlacementRejected"
    UNKNOWN = "Unknown"


_HOLD_FAMILY = {"Holding", "Transporting"}


def diagnose(report: DiscrepancyReport) -> FailureCategory:
    """Rule table over the constraint-state discrepancy."""
    if report.delta_cs is None:
        raise StateMachineError("diagnosis requires a constraint-state discrepancy")
    exp, act = report.delta_cs
    e_phase, a_phase = exp["phase"], act["phase"]
    if e_phase in _HOLD_FAMILY and a_phase == "Idle":
        return FailureCategory.GRASP_SLIP
    if e_phase in _HOLD_FAMILY and a_phase in _HOLD_FAMILY and exp["target"] != act["target"]:
        return FailureCategory.MISIDENTIFICATION
    if e_phase == "Approaching" and a_phase == "Idle":
        return FailureCategory.MOTION_INTERRUPTED
    if e_phase == "Placing" and a_phase in _HOLD_FAMILY:
        return FailureCategory.PLACEMENT_REJECTED
    return FailureCategory.UNKNOWN


def synthesize_replan(
    report: DiscrepancyReport,
    category: FailureCategory,
    history_tail: list[HistoryEntry],
    subgraph_payload: dict,
    cs_before: ConstraintState,
) -> ReasonerRequest:
    """Bundle everything a recovery planner needs into one request."""
    payload = {
        "failure_report": {
            "likely_cause": category.value,
            **report.to_dict(),
        },
        "history": [
            {"subtask": h.subtask_id, "action": {"action": h.ert.action, "args": h.ert.args},
             "outcome": h.outcome, "t": h.timestamp}
            for h in history_tail
        ],
        "cs_before": cs_before.to_dict(),
        "subgraph": subgraph_payload,
    }
    return ReasonerRequest(RequestKind.RECOVERY_PLAN, key=category.value, payload=payload)


# -- main loop ---------------------------------------------------------------


@dataclass
class SenseResult:
    """Post-action perception summary the loop uses for commit checks."""

    positions: dict[str, np.ndarray]
    gripper_position: np.ndarray


class Executive:
    def __init__(
        self,
        store: WorldStore,
        reasoner: Reasoner,
        execute_skill,  # (action, args) -> list[FTEvent]
        sense,  # () -> SenseResult
    ):
        self.store = store
        self.reasoner = reasoner
        self.execute_skill = execute_skill
        self.sense = sense
        self.cs = ConstraintState()
        self.log = TransactionLog()
        self.history: list[HistoryEntry] = []
        self.trace: list[dict] = []
        self.diagnostics: list[dict] = []
        self.n_init = 0
        self.n_replan = 0
        self._clock = 0
        self._in_recovery = False

    # -- bookkeeping --------------------------------------------------------

    def _record(self, event: str, **details):
        self.trace.append({"event": event, "t": self._clock, **details})

    def _counted(self, call, *args):
        """``call(self.reasoner, *args)``, with every reasoner call it makes
        counted whether or not it raises."""
        before = self.reasoner.call_count
        try:
            return call(self.reasoner, *args)
        finally:
            delta = self.reasoner.call_count - before
            if self._in_recovery:
                self.n_replan += delta
            else:
                self.n_init += delta

    def _logged(self, action: str, write):
        """Run ``write`` and, if it mutated the store, record the mutation as
        a committed ``action`` entry so the hash chain stays contiguous."""
        pre = self.store.state_hash()
        out = write()
        post = self.store.state_hash()
        if post != pre:
            self.log.append(TransactionEntry(pre, post, action, {}, outcome="committed"))
        return out

    def _release_held(self):
        """Put every held record back in the world: a revert restores the
        store as the skill found it, which can hold a part the gripper lost."""
        for uid in self.store.held_uids():
            self.store.update_record(uid, attached_to="world")

    def _context_payload(self, node: TaskNode) -> dict:
        subtask = {
            "id": node.node_id,
            "function": node.function,
            "args": sorted(
                v for v in node.args.values() if isinstance(v, str)
            ),
            "keywords": node.keywords,
            "zones": node.zones,
        }
        sub = extract_subgraph(self.store, subtask)
        return serialize_context(sub, self.store, subtask, self.cs)

    # -- loop ---------------------------------------------------------------

    def main_loop(self, dag: TaskDAG) -> bool:
        """Run the graph's nodes in order until one fails; whether every
        node completed."""
        for node in dag.order:
            self._record("subtask_start", node=node.node_id, function=node.function)
            ok = self._run_node(node)
            self._record("subtask_end", node=node.node_id, ok=ok)
            if not ok:
                return False
        return True

    def abandon(self, fault: ReasonerFault) -> bool:
        """End the run on a reasoner fault: record it and report the run
        as not completed."""
        self._record("reasoner_fault", kind=fault.kind, detail=str(fault))
        return False

    def _run_node(self, node: TaskNode) -> bool:
        if node.manipulation:
            return self._micro_routine(node)
        return self._macro_step(node)

    def _macro_step(self, node: TaskNode) -> bool:
        payload = self._context_payload(node)
        request = ReasonerRequest(
            RequestKind.PROPOSE_ERT,
            key=node.key or f"{node.function}:{node.node_id}",
            payload=payload,
        )
        outcome = self._counted(get_valid_ert, request, self.store)
        if outcome.ert is None:
            self._record("ert_exhausted", node=node.node_id, attempts=outcome.attempts)
            return False
        self._record("ert_validated", node=node.node_id, attempts=outcome.attempts)
        return self._execute_primitive(node, outcome.ert)

    def _micro_routine(self, node: TaskNode) -> bool:
        sequence = self._counted(ask, ReasonerRequest(
            RequestKind.PROPOSE_MICRO_SEQUENCE,
            key=node.key or f"{node.function}:{node.node_id}",
            payload=self._context_payload(node),
        ))
        for doc in sequence:
            ert, report = validate_ert(doc, self.store)
            if ert is None:
                self._record("micro_invalid", node=node.node_id,
                             detail=report.detail)
                return False
            if not self._execute_primitive(node, ert):
                return False
        return True

    def _execute_primitive(self, node: TaskNode, ert: ERT) -> bool:
        self._clock += 1
        cs_before = self.cs
        result = apply_transition(
            self.store, self.cs, self.log, ert.action, ert.args,
            dispatch=lambda: self.execute_skill(ert.action, ert.args),
        )
        self._record(
            "executed", node=node.node_id, action=ert.action,
            status=result.status.value,
            events=[e.value for e in result.events],
        )

        sensed: SenseResult | None = None
        if result.status == TransitionStatus.PRECONDITION_FAILED:
            outcome = "precondition_failed"
        elif result.status == TransitionStatus.ROLLED_BACK:
            outcome = "rolled_back"
            self.cs = update_cs_from_events(
                cs_during_action(cs_before, ert.action, ert.args), result.events
            )
            if self.cs.phase == Phase.IDLE and self.store.held_uids():
                self._logged("GraspLost", self._release_held)
            self._record("rolled_back", node=node.node_id, reason=result.reason)
        else:
            # Applied; confirm against post-action perception.
            self.cs = result.cs
            sensed = self._logged("PerceptionUpdate", self.sense)
            commit_args = dict(ert.args)
            if ert.action == "Place" and "object" not in commit_args:
                commit_args["object"] = cs_before.target
            decision: CommitDecision = check_commit(
                ert.action, commit_args, sensed.positions, sensed.gripper_position,
            )
            if decision.commit:
                outcome = "committed"
                mark_committed(self.log)
                self._record("committed", node=node.node_id, action=ert.action)
            else:
                outcome = "aborted"
                self.cs = rollback(self.log, self.store)
                if ert.action == "Pick":
                    # Perception contradicted the pick: the gripper holds nothing.
                    self.cs = ConstraintState(Phase.IDLE)
                self._record("aborted", node=node.node_id, hint=decision.hint)

        self.history.append(HistoryEntry(
            node.node_id, ert, outcome, self._clock
        ))
        if outcome == "committed":
            return True
        return self._recover(node, ert, cs_before, sensed)

    # -- recovery -----------------------------------------------------------

    def _recover(
        self,
        node: TaskNode,
        ert: ERT,
        cs_before: ConstraintState,
        sensed: SenseResult | None,
    ) -> bool:
        if self._in_recovery:
            return False  # one level of recovery; nested failures abort
        sensed = sensed or self._logged("PerceptionUpdate", self.sense)
        # A step that did not commit left the edges as it found them: a
        # refused precondition and sense write none, and a revert restores
        # the list. So the store's edges are the step's pre-state.
        pre_live = {
            (e.predicate, e.subject, e.obj)
            for e in self.store.edges if e.status != EdgeStatus.REFUTED
        }
        report, category = self._diagnose(node, ert, pre_live, sensed, 1)
        if category == FailureCategory.UNKNOWN and self.cs.phase == Phase.INTERRUPTED:
            # The interruption has passed; re-read the settled state.
            self.cs = ConstraintState(Phase.IDLE)
            report, category = self._diagnose(node, ert, pre_live, sensed, 2)
        if category == FailureCategory.UNKNOWN:
            return False

        request = synthesize_replan(
            report, category, self.history[-3:],
            self._context_payload(node), cs_before,
        )
        self._in_recovery = True
        try:
            recovery_dag = self._counted(ask, request)
            self._record("recovery_plan", node=node.node_id,
                         category=category.value)
            completed = self.main_loop(recovery_dag)
        finally:
            self._in_recovery = False
        self._record("recovery_done", node=node.node_id, ok=completed)
        return completed

    def _diagnose(
        self, node: TaskNode, ert: ERT, pre_live: set[tuple[str, str, str]],
        sensed: SenseResult, round_no: int,
    ) -> tuple[DiscrepancyReport, FailureCategory]:
        """One diagnosis round against the current constraint state."""
        report = compute_discrepancy(
            self.store, ert, pre_live, self.cs, sensed.positions
        )
        try:
            category = diagnose(report)
        except StateMachineError:
            category = FailureCategory.UNKNOWN
        self.diagnostics.append({
            "round": round_no,
            "category": category.value,
            "failed_action": ert.action,
            "drift_flagged": list(report.drift_flagged),
            "node": node.node_id,
        })
        self._record("diagnosed", node=node.node_id, round=round_no,
                     category=category.value)
        return report, category
