"""Atomic, rollback-capable skill transitions over the world store.

Each primitive skill checks its preconditions against the semantic graph
and the constraint state, records an inverse delta before applying any
effect, and either commits the whole delta or reverts byte-identically.
A hash-chained log makes every transition auditable.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import TransactionError
from .geometry import GaussianEnvelope, PoseSE3
from .serialization import canonical_dumps, json_line
from .world_model import (
    EdgeStatus,
    ROBOT_UID,
    WorldStore,
    _check_mating,
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

    @classmethod
    def from_dict(cls, d: dict) -> "ConstraintState":
        return cls(Phase(d["phase"]), d["target"])


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

    def to_record(self) -> dict:
        return {
            "pre_hash": self.pre_hash,
            "post_hash": self.post_hash,
            "action": self.action,
            "args": dict(self.args),
            "delta": list(self.delta),
            "outcome": self.outcome,
        }


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

    def export_ndjson(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            for e in self.entries:
                fh.write(json_line(e.to_record()) + "\n")


def state_bytes(store: WorldStore, cs: ConstraintState) -> str:
    return canonical_dumps({"store": store.to_dict(), "cs": cs.to_dict()})


# -- inverse deltas ----------------------------------------------------------


def _touched_uids(store: WorldStore, args: dict) -> set[str]:
    direct = {v for v in args.values() if isinstance(v, str) and v in store.vertices}
    uids = {ROBOT_UID} | direct | store.neighbors(direct)
    return {u for u in uids if u in store.vertices}


def capture_inverse(store: WorldStore, cs: ConstraintState, args: dict) -> dict:
    """Structural snapshot of exactly the entities a skill may touch.

    Cheaper than copying the store; restoring it must be indistinguishable
    from restoring a full copy. Edges are immutable, so a copy of the list
    is exact; the zone index is derived from the vertices and is not kept.
    """
    uids = _touched_uids(store, args)
    # The held object is mutated by detach-style effects even when the
    # skill's arguments never name it (Place, OpenGripper).
    if cs.target is not None and cs.target in store.vertices:
        uids.add(cs.target)
    return {
        "cs": cs,
        "records": {u: copy.deepcopy(store.records.get(u)) for u in uids},
        "vertices": {u: copy.deepcopy(store.vertices.get(u)) for u in uids},
        "edges": list(store.edges),
    }


def apply_inverse(store: WorldStore, inverse: dict) -> ConstraintState:
    for uid, vert in inverse["vertices"].items():
        store.restore_entity(uid, inverse["records"][uid], vert)
    store.edges = list(inverse["edges"])
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
    delta: list[str] = field(default_factory=list)
    reason: str = ""
    failed_predicate: str = ""
    events: list[ControllerEvent] = field(default_factory=list)


# -- preconditions and effects -----------------------------------------------


def _check_preconditions(
    store: WorldStore, cs: ConstraintState, action: str, args: dict
) -> str | None:
    """Name of the first failing predicate, or None."""
    if action == "Pick":
        obj = args["object"]
        if obj not in store.vertices:
            raise TransactionError(f"Pick target {obj} not in graph")
        if cs.phase == Phase.HOLDING:
            return "GripperEmpty"
        if not store.is_clear(obj):
            return f"Clear({obj})"
    elif action == "Place":
        if cs.phase not in (Phase.HOLDING, Phase.TRANSPORTING):
            return "CS=Holding(obj)"
        dest = args["destination"]
        if dest not in store.vertices and dest not in store.zones:
            raise TransactionError(f"Place destination {dest} unknown")
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
        store.update_record(store.vertices[obj].grounding, attached_to="gripper")
        delta.append(f"attach({obj},gripper)")
        for e in store.remove_edges(predicate="On", subject=obj):
            delta.append(f"-On({e.subject},{e.obj})")
        cs = ConstraintState(Phase.HOLDING, obj)
        delta.append(f"CS=Holding({obj})")
    elif action == "Place":
        obj = cs.target
        dest = args["destination"]
        rid = store.vertices[obj].grounding
        rec = store.records[rid]
        fields = {"attached_to": "world"}
        if "position" in args:
            pos = np.asarray(args["position"], dtype=float)
            fields["envelope"] = GaussianEnvelope(pos, rec.envelope.covariance)
            if rec.pose is not None:
                fields["pose"] = PoseSE3(rec.pose.rotation, pos)
            delta.append(f"moveto({obj},{pos.tolist()})")
        store.update_record(rid, **fields)
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
        store.update_record(store.vertices[part].grounding, attached_to="world")
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
        target = args.get("target")
        if cs.phase == Phase.HOLDING:
            cs = ConstraintState(Phase.TRANSPORTING, cs.target)
            delta.append(f"CS=Transporting({cs.target})")
        elif target is not None:
            cs = ConstraintState(Phase.APPROACHING, target)
            delta.append(f"CS=Approaching({target})")
    elif action == "Rotate":
        obj = args["object"]
        rid = store.vertices[obj].grounding
        pose = store.records[rid].pose
        if pose is not None:
            store.update_record(rid, pose=PoseSE3(
                np.asarray(args["rotation"], dtype=float), pose.translation))
            delta.append(f"rotate({obj})")
    elif action == "OpenGripper":
        if cs.phase in (Phase.HOLDING, Phase.TRANSPORTING):
            obj = cs.target
            store.update_record(store.vertices[obj].grounding, attached_to="world")
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
    ft_events: list[FTEvent] | None = None,
) -> TransitionResult:
    """Run one skill as an all-or-nothing delta.

    Adverse force-torque events observed during the skill trigger an
    immediate revert to the recorded pre-state.
    """
    if action not in SKILLS:
        raise TransactionError(f"unknown action {action!r}")
    args = dict(args or {})

    failed = _check_preconditions(store, cs, action, args)
    if failed is not None:
        return TransitionResult(
            TransitionStatus.PRECONDITION_FAILED, cs, failed_predicate=failed
        )

    pre_hash = store.state_hash()
    inverse = capture_inverse(store, cs, args)
    new_cs, delta = _apply_effects(store, cs, action, args)

    mapped = [
        m for ev in (ft_events or [])
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
            delta=delta, reason=adverse[0].value, events=mapped,
        )

    post_hash = store.state_hash()
    log.append(TransactionEntry(
        pre_hash, post_hash, action, args, delta,
        outcome="applied", inverse=inverse,
    ))
    return TransitionResult(
        TransitionStatus.COMMITTED, new_cs, delta=delta, events=mapped
    )


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
    ft_adverse: bool,
    gripper_position: np.ndarray | None = None,
    eps_place: float = EPS_PLACE,
) -> CommitDecision:
    """Confirm a transition: controller success AND the expected geometric
    change visible in post-action perception."""
    if ft_adverse:
        return CommitDecision(False, "adverse controller event")
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
            if float(np.linalg.norm(pos - gripper_position)) <= eps_place:
                return CommitDecision(True)
            return CommitDecision(False, f"{obj} does not track the gripper")
        rec = store.records[store.vertices[obj].grounding]
        if float(np.linalg.norm(pos - rec.envelope.mean)) <= eps_place:
            return CommitDecision(True)
        return CommitDecision(False, f"{obj} stationary away from gripper")

    if action == "Place":
        obj = args.get("object") or args.get("part")
        expected = np.asarray(args["position"], dtype=float)
        pos = post_positions.get(obj)
        if pos is None:
            return CommitDecision(False, f"{obj} not observed at destination")
        if float(np.linalg.norm(pos - expected)) <= eps_place:
            return CommitDecision(True)
        return CommitDecision(False, f"{obj} not stationary at destination")

    if action == "Insert":
        part, receptacle = args["part"], args["receptacle"]
        rec_a = store.records[store.vertices[part].grounding]
        rec_b = store.records[store.vertices[receptacle].grounding]
        if _check_mating(store, rec_a, rec_b):
            return CommitDecision(True)
        return CommitDecision(False, "mating geometry not confirmed")

    return CommitDecision(False, f"no commit rule for {action}")
