"""Atomic, rollback-capable skill transitions over the world store.

Each primitive skill checks its preconditions against the semantic graph
and the constraint state, records an inverse delta before applying any
effect, and either commits the whole delta or reverts byte-identically.
A hash-chained log makes every transition auditable. The constraint-state
machine lives here too: the phase each skill runs in and ends in, and the
transitions that controller events force.
"""

from __future__ import annotations

import copy
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import StateMachineError, TransactionError
from .geometry import GaussianEnvelope
from .serialization import canonical_dumps
from .world_model import (
    EdgeStatus,
    ROBOT_UID,
    WorldStore,
)

EPS_PLACE = 0.02

SKILLS = ("Pick", "Place", "Insert", "Move", "Rotate", "OpenGripper", "CloseGripper")


# -- constraint state --------------------------------------------------------


class Phase(Enum):
    IDLE = "Idle"
    APPROACHING = "Approaching"
    HOLDING = "Holding"
    TRANSPORTING = "Transporting"
    PLACING = "Placing"
    INSERTING = "Inserting"
    INTERRUPTED = "Interrupted"


@dataclass(frozen=True)
class ConstraintState:
    phase: Phase = Phase.IDLE
    target: str | None = None

    def __post_init__(self):
        if self.phase != Phase.IDLE and self.target is None:
            raise ValueError(f"phase {self.phase.value} requires a target")
        if self.phase == Phase.IDLE and self.target is not None:
            raise ValueError("Idle carries no target")

    def to_dict(self) -> dict:
        return {"phase": self.phase.value, "target": self.target}


# -- force-torque events -----------------------------------------------------


class FTSignal(Enum):
    GRIPPER_FORCE = "GripperForce"
    EXTERNAL_FORCE = "ExternalForce"
    EXTERNAL_TORQUE = "ExternalTorque"
    VERTICAL_FORCE = "VerticalForce"


@dataclass(frozen=True)
class FTEvent:
    signal: FTSignal
    value: float
    unit: str  # "N" or "Nm"
    sustained_s: float = 0.0


class ControllerEvent(Enum):
    GRASP_FAILURE = "GraspFailure"
    OVER_SQUEEZE = "OverSqueeze"
    COLLISION_DETECTED = "CollisionDetected"
    CONTACT_CONFIRMED = "ContactConfirmed"
    JAMMING_DETECTED = "JammingDetected"


_ADVERSE = {
    ControllerEvent.GRASP_FAILURE,
    ControllerEvent.OVER_SQUEEZE,
    ControllerEvent.COLLISION_DETECTED,
    ControllerEvent.JAMMING_DETECTED,
}


def map_ft_event(ev: FTEvent, context_action: str) -> ControllerEvent | None:
    """Threshold table mapping raw force-torque readings to controller events.

    context_action is one of {close, transport, place, insert, move, rotate,
    open}; rows are only armed in their matching context.
    """
    if ev.signal == FTSignal.GRIPPER_FORCE:
        if ev.value > 40.0:
            return ControllerEvent.OVER_SQUEEZE
        # The low-force row is armed whenever the gripper is meant to be
        # closed: right after the close, and all through transport.
        if context_action in ("close", "transport") and ev.value < 5.0:
            return ControllerEvent.GRASP_FAILURE
        return None
    if ev.signal == FTSignal.EXTERNAL_FORCE:
        if context_action == "transport" and abs(ev.value) > 15.0:
            return ControllerEvent.COLLISION_DETECTED
        return None
    if ev.signal == FTSignal.VERTICAL_FORCE:
        if context_action == "place" and ev.value > 10.0 and ev.sustained_s >= 0.5:
            return ControllerEvent.CONTACT_CONFIRMED
        return None
    if ev.signal == FTSignal.EXTERNAL_TORQUE:
        if context_action == "insert" and abs(ev.value) > 2.0:
            return ControllerEvent.JAMMING_DETECTED
        return None
    return None


_FT_CONTEXT = {
    "Pick": "close",
    "CloseGripper": "close",
    "Move": "transport",
    "Place": "place",
    "Insert": "insert",
    "Rotate": "rotate",
    "OpenGripper": "open",
}


# -- constraint-state machine ------------------------------------------------


def cs_during_action(cs: ConstraintState, action: str, args: dict) -> ConstraintState:
    """The phase the robot is in while the skill physically runs; this is
    what a controller event interrupts. A committed Move also ends in this
    phase. When the skill leaves the phase alone, ``cs`` itself comes back."""
    if action == "Move":
        if cs.phase == Phase.HOLDING:
            return ConstraintState(Phase.TRANSPORTING, cs.target)
        target = args.get("target")
        if target is not None:
            return ConstraintState(Phase.APPROACHING, target)
        return cs
    if action == "Place" and cs.target is not None:
        return ConstraintState(Phase.PLACING, cs.target)
    if action == "Insert":
        part = args.get("part") or cs.target
        if part is not None:
            return ConstraintState(Phase.INSERTING, part)
    return cs


def update_cs(cs: ConstraintState, event) -> ConstraintState:
    """Event-driven transition on a mapped controller event. A skill that
    succeeds moves the state through its transaction instead. An
    interruption with no target (a Move from Idle that names none) leaves
    the robot Idle."""
    if isinstance(event, ControllerEvent):
        if event == ControllerEvent.GRASP_FAILURE:
            return ConstraintState(Phase.IDLE)
        if event in (ControllerEvent.COLLISION_DETECTED,
                     ControllerEvent.JAMMING_DETECTED,
                     ControllerEvent.OVER_SQUEEZE):
            if cs.target is None:
                return cs
            return ConstraintState(Phase.INTERRUPTED, cs.target)
        if event == ControllerEvent.CONTACT_CONFIRMED:
            if cs.phase in (Phase.PLACING, Phase.HOLDING, Phase.TRANSPORTING):
                return ConstraintState(Phase.IDLE)
            raise StateMachineError(
                f"contact confirmation outside a place ({cs.phase.value})"
            )
    raise StateMachineError(f"unhandled event {event!r}")


def update_cs_from_events(
    cs: ConstraintState, events: list[ControllerEvent]
) -> ConstraintState:
    out = cs
    for ev in events:
        out = update_cs(out, ev)
    return out


# -- transaction log ---------------------------------------------------------


@dataclass
class TransactionEntry:
    pre_hash: str
    post_hash: str
    action: str
    args: dict
    delta: list[str]
    outcome: str  # applied | committed | rolled_back | rollback
    inverse: dict | None = field(default=None, repr=False)


@dataclass
class TransactionLog:
    entries: list[TransactionEntry] = field(default_factory=list)

    def append(self, entry: TransactionEntry):
        self.entries.append(entry)

    def validate_chain(self) -> bool:
        for prev, cur in zip(self.entries, self.entries[1:]):
            if cur.pre_hash != prev.post_hash:
                return False
        return True

    def pending(self) -> list[TransactionEntry]:
        return [e for e in self.entries if e.outcome == "applied"]


def state_bytes(store: WorldStore, cs: ConstraintState) -> str:
    return canonical_dumps({"store": store.to_dict(), "cs": cs.to_dict()})


# -- inverse deltas ----------------------------------------------------------


def touched_uids(store: WorldStore, args: dict) -> set[str]:
    """The action's arguments plus their 1-hop relation neighbors."""
    direct = {v for v in args.values() if isinstance(v, str) and v in store.vertices}
    return direct | store.neighbors(direct)


def capture_inverse(store: WorldStore, cs: ConstraintState, args: dict) -> dict:
    """Structural snapshot of exactly the entities a skill may touch.

    Cheaper than copying the store; restoring it must be indistinguishable
    from restoring a full copy. Records and vertices have their fields
    replaced through the store, never mutated in place, and edges are
    frozen; so a shallow copy of each touched entity and a copy of the edge
    list are exact. The store's indexes are derived and are not kept.
    """
    uids = {u for u in touched_uids(store, args) | {ROBOT_UID} if u in store.vertices}
    # The held object is mutated by detach-style effects even when the
    # skill's arguments never name it (Place, OpenGripper).
    if cs.target is not None and cs.target in store.vertices:
        uids.add(cs.target)
    return {
        "cs": cs,
        "records": {u: copy.copy(store.records.get(u)) for u in uids},
        "vertices": {u: copy.copy(store.vertices.get(u)) for u in uids},
        "edges": list(store.edges),
    }


def apply_inverse(store: WorldStore, inverse: dict) -> ConstraintState:
    for uid, vert in inverse["vertices"].items():
        store.restore_entity(uid, inverse["records"][uid], vert)
    store.set_edges(inverse["edges"])
    return inverse["cs"]


# -- transition results ------------------------------------------------------


class TransitionStatus(Enum):
    COMMITTED = "Committed"
    ROLLED_BACK = "RolledBack"
    PRECONDITION_FAILED = "PreconditionFailed"


@dataclass
class TransitionResult:
    status: TransitionStatus
    cs: ConstraintState
    reason: str = ""
    failed_predicate: str = ""
    events: list[ControllerEvent] = field(default_factory=list)


# -- preconditions and effects -----------------------------------------------


def check_preconditions(
    store: WorldStore, cs: ConstraintState, action: str, args: dict
) -> str | None:
    """Name of the first failing predicate, or None."""
    if action == "Pick":
        obj = args["object"]
        if obj not in store.vertices:
            raise TransactionError(f"Pick target {obj} not in graph")
        if cs.phase in (Phase.HOLDING, Phase.TRANSPORTING):
            return "GripperEmpty"
        if not store.is_clear(obj):
            return f"Clear({obj})"
    elif action == "Place":
        if cs.phase not in (Phase.HOLDING, Phase.TRANSPORTING):
            return "CS=Holding(obj)"
        dest = args["destination"]
        if dest not in store.vertices and dest not in store.zones:
            raise TransactionError(f"Place destination {dest} unknown")
        if dest == cs.target:
            return f"NotHeld({dest})"
    elif action == "Insert":
        part, receptacle = args["part"], args["receptacle"]
        if cs.phase not in (Phase.HOLDING, Phase.TRANSPORTING) or cs.target != part:
            return f"CS=Holding({part})"
        aligned = store.find_edges("Aligned", part, receptacle)
        if not any(e.status == EdgeStatus.VERIFIED for e in aligned):
            return f"Aligned({part},{receptacle})"
    elif action == "Rotate":
        obj = args["object"]
        if cs.phase != Phase.HOLDING or cs.target != obj:
            return f"CS=Holding({obj})"
    elif action == "Move":
        dest = args.get("zone")
        if dest is not None and dest not in store.zones:
            raise TransactionError(f"Move destination zone {dest} unknown")
    return None


def _apply_effects(
    store: WorldStore, cs: ConstraintState, action: str, args: dict
) -> tuple[ConstraintState, list[str]]:
    delta: list[str] = []
    if action == "Pick":
        obj = args["object"]
        store.update_record(obj, attached_to="gripper")
        delta.append(f"attach({obj},gripper)")
        for e in store.remove_edges(predicate="On", subject=obj):
            delta.append(f"-On({e.subject},{e.obj})")
        cs = ConstraintState(Phase.HOLDING, obj)
        delta.append(f"CS=Holding({obj})")
    elif action == "Place":
        obj = cs.target
        dest = args["destination"]
        fields = {"attached_to": "world"}
        if "position" in args:
            pos = np.asarray(args["position"], dtype=float)
            fields["envelope"] = GaussianEnvelope(pos, store.records[obj].envelope.covariance)
            delta.append(f"moveto({obj},{pos.tolist()})")
        store.update_record(obj, **fields)
        if dest in store.vertices:
            store.add_edge("On", obj, dest, EdgeStatus.VERIFIED)
            delta.append(f"+On({obj},{dest})")
        if "zone" in args:
            store.update_vertex(obj, zone_id=args["zone"])
            delta.append(f"zone({obj},{args['zone']})")
        delta.append(f"detach({obj})")
        cs = ConstraintState(Phase.IDLE)
        delta.append("CS=Idle")
    elif action == "Insert":
        part, receptacle = args["part"], args["receptacle"]
        store.update_record(part, attached_to="world")
        store.add_edge("Inserted", part, receptacle, EdgeStatus.VERIFIED)
        delta.append(f"+Inserted({part},{receptacle})")
        cs = ConstraintState(Phase.IDLE)
        delta.append("CS=Idle")
    elif action == "Move":
        if "zone" in args:
            store.robot_zone = args["zone"]
            delta.append(f"robot_zone={args['zone']}")
        if "position" in args:
            pos = np.asarray(args["position"], dtype=float)
            store.update_record(ROBOT_UID, envelope=GaussianEnvelope(
                pos, store.records[ROBOT_UID].envelope.covariance))
            delta.append(f"robot_pos={pos.tolist()}")
        moving = cs_during_action(cs, action, args)
        if moving is not cs:
            cs = moving
            delta.append(f"CS={cs.phase.value}({cs.target})")
    elif action == "OpenGripper":
        if cs.phase in (Phase.HOLDING, Phase.TRANSPORTING):
            obj = cs.target
            store.update_record(obj, attached_to="world")
            delta.append(f"detach({obj})")
            cs = ConstraintState(Phase.IDLE)
            delta.append("CS=Idle")
    elif action == "CloseGripper":
        delta.append("gripper=closed")
    return cs, delta


def apply_transition(
    store: WorldStore,
    cs: ConstraintState,
    log: TransactionLog,
    action: str,
    args: dict | None = None,
    dispatch: Callable[[], list[FTEvent]] | None = None,
) -> TransitionResult:
    """Run one skill as an all-or-nothing delta.

    ``dispatch`` runs the skill on the robot and returns the force-torque
    events observed during it; it is called only once the preconditions
    hold, so a refused skill is never dispatched. Adverse events trigger
    an immediate revert to the recorded pre-state.
    """
    if action not in SKILLS:
        raise TransactionError(f"unknown action {action!r}")
    args = dict(args or {})

    failed = check_preconditions(store, cs, action, args)
    if failed is not None:
        return TransitionResult(
            TransitionStatus.PRECONDITION_FAILED, cs, failed_predicate=failed
        )

    ft_events = dispatch() if dispatch is not None else []
    pre_hash = store.state_hash()
    inverse = capture_inverse(store, cs, args)
    new_cs, delta = _apply_effects(store, cs, action, args)

    mapped = [
        m for ev in ft_events
        if (m := map_ft_event(ev, _FT_CONTEXT[action])) is not None
    ]
    adverse = [m for m in mapped if m in _ADVERSE]

    if adverse:
        new_cs = apply_inverse(store, inverse)
        post_hash = store.state_hash()
        if post_hash != pre_hash:
            raise TransactionError("rollback failed to restore pre-state")
        log.append(TransactionEntry(
            pre_hash, post_hash, action, args, delta,
            outcome="rolled_back", inverse=None,
        ))
        return TransitionResult(
            TransitionStatus.ROLLED_BACK, new_cs,
            reason=adverse[0].value, events=mapped,
        )

    post_hash = store.state_hash()
    log.append(TransactionEntry(
        pre_hash, post_hash, action, args, delta,
        outcome="applied", inverse=inverse,
    ))
    return TransitionResult(TransitionStatus.COMMITTED, new_cs, events=mapped)


def mark_committed(log: TransactionLog) -> None:
    pending = log.pending()
    if pending:
        entry = pending[-1]
        entry.outcome = "committed"
        entry.inverse = None


def rollback(
    log: TransactionLog, store: WorldStore
) -> ConstraintState:
    """Revert the most recent uncommitted transition (LIFO)."""
    pending = log.pending()
    if not pending:
        raise TransactionError("no uncommitted transition to roll back")
    entry = pending[-1]
    pre_of_revert = store.state_hash()
    cs = apply_inverse(store, entry.inverse)
    restored_hash = store.state_hash()
    # Strict restoration checking applies only when nothing (e.g. a logged
    # perception update) has touched the store since the transition itself.
    strict = log.entries and log.entries[-1] is entry
    if strict and restored_hash != entry.pre_hash:
        raise TransactionError("rollback failed to restore pre-state")
    entry.outcome = "rolled_back"
    entry.inverse = None
    log.append(TransactionEntry(
        pre_hash=pre_of_revert,
        post_hash=restored_hash,
        action=f"rollback({entry.action})",
        args=entry.args,
        delta=[f"revert:{d}" for d in entry.delta],
        outcome="rollback",
    ))
    return cs


# -- commit confirmation -----------------------------------------------------


@dataclass
class CommitDecision:
    commit: bool
    hint: str = ""


def check_commit(
    store: WorldStore,
    action: str,
    args: dict,
    post_positions: dict[str, np.ndarray] | None,
    gripper_position: np.ndarray | None = None,
) -> CommitDecision:
    """Confirm an applied transition: the expected geometric change is
    visible in post-action perception."""
    if action in ("Move", "Rotate", "OpenGripper", "CloseGripper"):
        return CommitDecision(True)
    if post_positions is None:
        return CommitDecision(False, "no post-action perception available")

    if action == "Pick":
        obj = args["object"]
        pos = post_positions.get(obj)
        if pos is None:
            # Not visible on any support surface: consistent with in-gripper.
            return CommitDecision(True)
        if gripper_position is not None:
            if float(np.linalg.norm(pos - gripper_position)) <= EPS_PLACE:
                return CommitDecision(True)
            return CommitDecision(False, f"{obj} does not track the gripper")
        rec = store.records[obj]
        if float(np.linalg.norm(pos - rec.envelope.mean)) <= EPS_PLACE:
            return CommitDecision(True)
        return CommitDecision(False, f"{obj} stationary away from gripper")

    if action == "Place":
        obj = args["object"]
        expected = np.asarray(args["position"], dtype=float)
        pos = post_positions.get(obj)
        if pos is None:
            return CommitDecision(False, f"{obj} not observed at destination")
        if float(np.linalg.norm(pos - expected)) <= EPS_PLACE:
            return CommitDecision(True)
        return CommitDecision(False, f"{obj} not stationary at destination")

    return CommitDecision(False, f"no commit rule for {action}")
