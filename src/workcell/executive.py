"""Task memory, constraint-state machine, the main planning loop, and
rule-based discrepancy diagnosis.

The executive is the single orchestrator: it alone issues reasoner calls,
applies transactions, and mutates task memory and the constraint state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .cognition import (
    ERT,
    Reasoner,
    ReasonerRequest,
    RequestKind,
    SubgraphConfig,
    extract_subgraph,
    get_valid_ert,
    serialize_context,
    validate_ert,
)
from .errors import ScenarioError, StateMachineError
from .transactions import (
    CommitDecision,
    ConstraintState,
    ControllerEvent,
    FTEvent,
    Phase,
    TransactionEntry,
    TransactionLog,
    TransitionStatus,
    apply_transition,
    check_commit,
    mark_committed,
    rollback,
)
from .world_model import EdgeStatus, WorldStore

DRIFT_FLAG_METERS = 0.05


# -- task memory -------------------------------------------------------------


class NodeStatus(Enum):
    PENDING = "Pending"
    EXECUTING = "Executing"
    COMPLETED = "Completed"
    FAILED = "Failed"


@dataclass
class TaskNode:
    node_id: int
    function: str
    args: dict = field(default_factory=dict)
    deps: list[int] = field(default_factory=list)
    status: NodeStatus = NodeStatus.PENDING
    manipulation: bool = False
    key: str = ""
    keywords: list[str] = field(default_factory=list)
    zones: list[str] = field(default_factory=list)


class TaskDAG:
    def __init__(self, nodes: list[TaskNode]):
        self.nodes: dict[int, TaskNode] = {}
        for n in nodes:
            if n.node_id in self.nodes:
                raise ScenarioError(f"duplicate task node id {n.node_id}")
            self.nodes[n.node_id] = n
        self.check()

    def check(self):
        for n in self.nodes.values():
            for d in n.deps:
                if d not in self.nodes:
                    raise ScenarioError(f"node {n.node_id} depends on missing {d}")
        # Kahn's algorithm; leftovers mean a cycle.
        indeg = {i: len(n.deps) for i, n in self.nodes.items()}
        queue = [i for i, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            i = queue.pop()
            seen += 1
            for j, n in self.nodes.items():
                if i in n.deps:
                    indeg[j] -= 1
                    if indeg[j] == 0:
                        queue.append(j)
        if seen != len(self.nodes):
            raise ScenarioError("task graph contains a cycle")
        executing = [n for n in self.nodes.values() if n.status == NodeStatus.EXECUTING]
        if len(executing) > 1:
            raise ScenarioError("more than one node executing")

    def ready(self) -> list[TaskNode]:
        out = []
        for i in sorted(self.nodes):
            n = self.nodes[i]
            if n.status != NodeStatus.PENDING:
                continue
            if all(self.nodes[d].status == NodeStatus.COMPLETED for d in n.deps):
                out.append(n)
        return out

    def all_completed(self) -> bool:
        return all(n.status == NodeStatus.COMPLETED for n in self.nodes.values())

    @classmethod
    def from_doc(cls, doc: dict) -> "TaskDAG":
        nodes = []
        for nd in doc.get("nodes", []):
            nodes.append(TaskNode(
                node_id=int(nd["id"]),
                function=str(nd["function"]),
                args=dict(nd.get("args", {})),
                deps=[int(d) for d in nd.get("deps", [])],
                manipulation=bool(nd.get("manipulation", False)),
                key=str(nd.get("key", "")),
                keywords=list(nd.get("keywords", [])),
                zones=list(nd.get("zones", [])),
            ))
        return cls(nodes)


@dataclass
class HistoryEntry:
    subtask_id: int
    ert: dict
    outcome: str
    timestamp: int


class ActionHistory:
    def __init__(self):
        self._entries: list[HistoryEntry] = []

    def append(self, entry: HistoryEntry):
        self._entries.append(entry)

    @property
    def entries(self) -> tuple[HistoryEntry, ...]:
        return tuple(self._entries)

    def __len__(self):
        return len(self._entries)


# -- constraint-state machine ------------------------------------------------


def update_cs(cs: ConstraintState, event) -> ConstraintState:
    """Event-driven transition on a mapped controller event. A skill that
    succeeds moves the state through its transaction instead."""
    if isinstance(event, ControllerEvent):
        if event == ControllerEvent.GRASP_FAILURE:
            return ConstraintState(Phase.IDLE)
        if event in (ControllerEvent.COLLISION_DETECTED,
                     ControllerEvent.JAMMING_DETECTED,
                     ControllerEvent.OVER_SQUEEZE):
            if cs.target is None:
                raise StateMachineError("interruption with no last target")
            return ConstraintState(Phase.INTERRUPTED, cs.target)
        if event == ControllerEvent.CONTACT_CONFIRMED:
            if cs.phase in (Phase.PLACING, Phase.HOLDING, Phase.TRANSPORTING):
                return ConstraintState(Phase.IDLE)
            raise StateMachineError(
                f"contact confirmation outside a place ({cs.phase.value})"
            )
    raise StateMachineError(f"unhandled event {event!r}")


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


def touched_objects(store: WorldStore, ert: ERT) -> set[str]:
    """The action's arguments plus their 1-hop relation neighbors."""
    direct = {v for v in ert.args.values() if isinstance(v, str) and v in store.vertices}
    return direct | store.neighbors(direct)


def compute_discrepancy(
    store: WorldStore,
    ert: ERT,
    pre_edges: set[tuple[str, str, str]],
    actual_cs: ConstraintState,
    actual_positions: dict[str, np.ndarray] | None = None,
    drift_threshold: float = DRIFT_FLAG_METERS,
) -> DiscrepancyReport:
    """Pure set/compare diff between the observed post-state and the
    trace's causal assumption. No reasoner involvement."""
    touched = touched_objects(store, ert)

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
            if d > drift_threshold:
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
class ExecutionFeedback:
    """What the controller reports back after physically running a skill."""

    ft_events: list[FTEvent] = field(default_factory=list)
    elapsed_s: float = 1.0


@dataclass
class SenseResult:
    """Post-action perception summary the loop uses for commit checks."""

    positions: dict[str, np.ndarray] = field(default_factory=dict)
    gripper_position: np.ndarray | None = None
    observed_uids: set[str] = field(default_factory=set)


@dataclass
class RunResult:
    completed: bool
    trace: list[dict]
    history: ActionHistory
    diagnostics: list[dict]
    n_init: int
    n_replan: int


class Executive:
    def __init__(
        self,
        store: WorldStore,
        reasoner: Reasoner,
        execute_skill,  # (action, args) -> ExecutionFeedback
        sense,  # () -> SenseResult
        n_max: int = 5,
        subgraph_cfg: SubgraphConfig | None = None,
    ):
        self.store = store
        self.reasoner = reasoner
        self.execute_skill = execute_skill
        self.sense = sense
        self.n_max = n_max
        self.subgraph_cfg = subgraph_cfg or SubgraphConfig()
        self.cs = ConstraintState()
        self.log = TransactionLog()
        self.history = ActionHistory()
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
        sub = extract_subgraph(self.store, subtask, self.cs, self.subgraph_cfg)
        return serialize_context(sub, self.store, subtask, self.cs)

    # -- loop ---------------------------------------------------------------

    def main_loop(self, dag: TaskDAG) -> RunResult:
        while True:
            ready = dag.ready()
            if not ready:
                break
            node = ready[0]
            node.status = NodeStatus.EXECUTING
            dag.check()
            self._record("subtask_start", node=node.node_id, function=node.function)
            ok = self._run_node(node)
            node.status = NodeStatus.COMPLETED if ok else NodeStatus.FAILED
            self._record("subtask_end", node=node.node_id, ok=ok)
            if not ok:
                break
        completed = dag.all_completed()
        return RunResult(
            completed, self.trace, self.history, self.diagnostics,
            self.n_init, self.n_replan,
        )

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
        outcome = get_valid_ert(self.reasoner, request, self.store, self.n_max)
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
        sequence = response.get("sequence", []) if isinstance(response, dict) else []
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
        pre_edges = {
            (e.predicate, e.subject, e.obj)
            for e in self.store.edges if e.status != EdgeStatus.REFUTED
        }
        cs_before = self.cs
        feedback: ExecutionFeedback = self.execute_skill(ert.action, ert.args)
        result = apply_transition(
            self.store, self.cs, self.log, ert.action, ert.args,
            ft_events=feedback.ft_events,
        )
        self._record(
            "executed", node=node.node_id, action=ert.action,
            status=result.status.value,
            events=[e.value for e in result.events],
        )

        if result.status == TransitionStatus.PRECONDITION_FAILED:
            self.history.append(HistoryEntry(
                node.node_id, ert.to_dict(), "precondition_failed", self._clock
            ))
            return self._recover(node, ert, pre_edges, cs_before,
                                 failed_action=ert.action)

        if result.status == TransitionStatus.ROLLED_BACK:
            self.cs = update_cs_from_events(
                _cs_during_action(cs_before, ert), result.events
            )
            self.history.append(HistoryEntry(
                node.node_id, ert.to_dict(), "rolled_back", self._clock
            ))
            self._record("rolled_back", node=node.node_id, reason=result.reason)
            return self._recover(node, ert, pre_edges, cs_before,
                                 failed_action=ert.action)

        # Applied; confirm against post-action perception.
        self.cs = result.cs
        sensed: SenseResult = self._sense_logged()
        commit_args = dict(ert.args)
        if ert.action == "Place" and "object" not in commit_args:
            commit_args["object"] = cs_before.target
        decision: CommitDecision = check_commit(
            self.store, ert.action, commit_args, sensed.positions,
            ft_adverse=False, gripper_position=sensed.gripper_position,
        )
        if decision.commit:
            mark_committed(self.log)
            self.history.append(HistoryEntry(
                node.node_id, ert.to_dict(), "committed", self._clock
            ))
            self._record("committed", node=node.node_id, action=ert.action)
            return True

        self.cs = rollback(self.log, self.store)
        self.cs = self._settle_after_abort(ert, sensed)
        self.history.append(HistoryEntry(
            node.node_id, ert.to_dict(), "aborted", self._clock
        ))
        self._record("aborted", node=node.node_id, hint=decision.hint)
        return self._recover(node, ert, pre_edges, cs_before,
                             failed_action=ert.action, sensed=sensed)

    def _settle_after_abort(self, ert: ERT, sensed: SenseResult) -> ConstraintState:
        # Perception contradicted the expected change: the gripper did not
        # end up holding anything it was supposed to.
        if ert.action == "Pick":
            return ConstraintState(Phase.IDLE)
        return self.cs

    # -- recovery -----------------------------------------------------------

    def _recover(
        self,
        node: TaskNode,
        ert: ERT,
        pre_edges: set,
        cs_before: ConstraintState,
        failed_action: str,
        sensed: SenseResult | None = None,
    ) -> bool:
        if self._in_recovery:
            return False  # one level of recovery; nested failures abort
        sensed = sensed or self._sense_logged()
        actual_cs = self.cs
        category = FailureCategory.UNKNOWN
        report = None
        rounds = 0
        for rounds in range(1, self.n_max + 1):
            report = compute_discrepancy(
                self.store, ert, pre_edges, actual_cs, sensed.positions
            )
            try:
                category = diagnose(report)
            except StateMachineError:
                category = FailureCategory.UNKNOWN
            self.diagnostics.append({
                "round": rounds,
                "category": category.value,
                "failed_action": failed_action,
                "drift_flagged": list(report.drift_flagged),
                "node": node.node_id,
            })
            self._record("diagnosed", node=node.node_id, round=rounds,
                         category=category.value)
            if category != FailureCategory.UNKNOWN:
                break
            if actual_cs.phase == Phase.INTERRUPTED:
                # The interruption has passed; re-read the settled state.
                actual_cs = ConstraintState(Phase.IDLE)
                self.cs = actual_cs
                continue
            break
        if category == FailureCategory.UNKNOWN:
            return False

        request = synthesize_replan(
            report, category, list(self.history.entries)[-3:],
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
            recovery_dag = TaskDAG.from_doc(plan_doc)
            result = self.main_loop(recovery_dag)
        finally:
            self._in_recovery = False
        self._record("recovery_done", node=node.node_id, ok=result.completed)
        return result.completed


def _cs_during_action(cs: ConstraintState, ert: ERT) -> ConstraintState:
    """The phase the robot is in while the skill physically runs; this is
    what a controller event interrupts."""
    if ert.action == "Move":
        if cs.phase == Phase.HOLDING:
            return ConstraintState(Phase.TRANSPORTING, cs.target)
        target = ert.args.get("target")
        if target:
            return ConstraintState(Phase.APPROACHING, target)
        return cs
    if ert.action == "Place" and cs.target is not None:
        return ConstraintState(Phase.PLACING, cs.target)
    if ert.action == "Insert":
        part = ert.args.get("part") or cs.target
        if part is not None:
            return ConstraintState(Phase.INSERTING, part)
    return cs


def update_cs_from_events(
    cs: ConstraintState, events: list[ControllerEvent]
) -> ConstraintState:
    out = cs
    for ev in events:
        out = update_cs(out, ev)
    return out
