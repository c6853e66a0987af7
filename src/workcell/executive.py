"""Task memory, the main planning loop, and rule-based discrepancy
diagnosis.

The executive is the single orchestrator: it alone issues reasoner calls,
applies transactions, and mutates task memory and the constraint state.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

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
from .schema import BOOL, DICT, INT, LIST, STR, key_errors, list_of
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
from .world_model import EdgeStatus, RelationEdge, WorldStore

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
              "manipulation?": BOOL, "key?": STR, "keywords?": LIST, "zones?": LIST}


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


@dataclass
class HistoryEntry:
    subtask_id: int
    ert: dict
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
            {"subtask": h.subtask_id, "action": h.ert.get("action_proposal", {}),
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

    positions: dict[str, np.ndarray] = field(default_factory=dict)
    gripper_position: np.ndarray | None = None


class Executive:
    def __init__(
        self,
        store: WorldStore,
        reasoner: Reasoner,
        execute_skill,  # (action, args) -> list[FTEvent]
        sense,  # () -> SenseResult
        synonyms: dict[str, list[str]] | None = None,
    ):
        self.store = store
        self.reasoner = reasoner
        self.execute_skill = execute_skill
        self.sense = sense
        self.synonyms = synonyms
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

    def _count_calls(self, before: int):
        delta = self.reasoner.call_count - before
        if self._in_recovery:
            self.n_replan += delta
        else:
            self.n_init += delta

    def _sense_logged(self) -> SenseResult:
        """Run a perception cycle and, if it mutated the store, record the
        mutation as a committed entry so the hash chain stays contiguous."""
        pre = self.store.state_hash()
        sensed: SenseResult = self.sense()
        post = self.store.state_hash()
        if post != pre:
            self.log.append(TransactionEntry(
                pre, post, "PerceptionUpdate", {}, [], outcome="committed"
            ))
        return sensed

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
        sub = extract_subgraph(self.store, subtask, self.synonyms)
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
        before = self.reasoner.call_count
        outcome = get_valid_ert(self.reasoner, request, self.store)
        self._count_calls(before)
        if outcome.ert is None:
            self._record("ert_exhausted", node=node.node_id, attempts=outcome.attempts)
            return False
        self._record("ert_validated", node=node.node_id, attempts=outcome.attempts)
        return self._execute_primitive(node, outcome.ert)

    def _micro_routine(self, node: TaskNode) -> bool:
        before = self.reasoner.call_count
        response = self.reasoner.query(ReasonerRequest(
            RequestKind.PROPOSE_MICRO_SEQUENCE,
            key=node.key or f"{node.function}:{node.node_id}",
            payload=self._context_payload(node),
        ))
        self._count_calls(before)
        errors = key_errors(response, "ProposeMicroSequence reply", {"sequence": LIST})
        if errors:
            raise ReasonerFault(RequestKind.PROPOSE_MICRO_SEQUENCE.value, errors[0])
        for doc in response["sequence"]:
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
        pre_edges = list(self.store.edges)
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
            self._record("rolled_back", node=node.node_id, reason=result.reason)
        else:
            # Applied; confirm against post-action perception.
            self.cs = result.cs
            sensed = self._sense_logged()
            commit_args = dict(ert.args)
            if ert.action == "Place" and "object" not in commit_args:
                commit_args["object"] = cs_before.target
            decision: CommitDecision = check_commit(
                self.store, ert.action, commit_args, sensed.positions,
                gripper_position=sensed.gripper_position,
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
            node.node_id, ert.to_dict(), outcome, self._clock
        ))
        if outcome == "committed":
            return True
        return self._recover(node, ert, pre_edges, cs_before, sensed)

    # -- recovery -----------------------------------------------------------

    def _recover(
        self,
        node: TaskNode,
        ert: ERT,
        pre_edges: list[RelationEdge],
        cs_before: ConstraintState,
        sensed: SenseResult | None,
    ) -> bool:
        if self._in_recovery:
            return False  # one level of recovery; nested failures abort
        sensed = sensed or self._sense_logged()
        pre_live = {
            (e.predicate, e.subject, e.obj)
            for e in pre_edges if e.status != EdgeStatus.REFUTED
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
        before = self.reasoner.call_count
        self._in_recovery = True
        try:
            try:
                plan_doc = self.reasoner.query(request)
            finally:
                self._count_calls(before)
            self._record("recovery_plan", node=node.node_id,
                         category=category.value)
            try:
                recovery_dag = TaskDAG.from_doc(plan_doc)
            except ScenarioError as exc:
                raise ReasonerFault(RequestKind.RECOVERY_PLAN.value,
                                    f"RecoveryPlan reply is not a task graph: {exc}") from None
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
