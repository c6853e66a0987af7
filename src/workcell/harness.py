"""Scenario runner and metrics.

A scenario file fully determines a run: world layout, pre-decomposed task
graph, scripted reasoner responses, failure injections, and the question
sets used for the information metrics. It carries no seed, and every trial
of it runs the same way. Trials are isolated: each gets a fresh store and
a fresh world.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .association import (
    AssociationConfig,
    MatchResult,
    assign,
    build_cost_matrix,
)
from .cognition import (
    ReasonerRequest,
    RequestKind,
    ScriptedReasoner,
)
from .errors import ReasonerFault, ScenarioError
from .executive import (
    Executive,
    FailureCategory,
    SenseResult,
    TaskDAG,
    ask,
)
from .geometry import (
    CORNER_SIGNS,
    GaussianEnvelope,
    OrientedBox,
    PointCloudData,
    PoseSE3,
    xy_iou,
)
from .perception import (
    CameraIntrinsics,
    Frame,
    Observation,
    PointsGeom,
    assemble_snapshot,
)
from .schema import (
    ANY,
    BOOL,
    COUNT,
    DICT,
    EXTENTS,
    INT,
    LENGTH,
    LIST,
    POINT,
    ROTATION,
    SCALAR,
    STR,
    key_errors,
)
from .serialization import canonical_dumps, json_line
from .simulator import (
    FailureInjection,
    SimCamera,
    SimObject,
    SimWorld,
    render_frame,
    visible_pixel_counts,
)
from .transactions import SKILLS, FTEvent
from .world_model import (
    EdgeStatus,
    Lifecycle,
    ROBOT_UID,
    WorldStore,
    ZoneNode,
    curate_zone,
    record_bounds,
    register_or_update,
)

SCENARIO_VERSION = 1
STA_POSITION_TOL = 0.05
_RELOCALIZE_GAMMA = 100.0
_PRIOR_SIGMA_FLOOR = 0.02


# -- scenario ----------------------------------------------------------------


@dataclass
class ScenarioSpec:
    doc: dict

    @property
    def trials(self) -> int:
        return int(self.doc.get("trials", 1))


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Read and validate a scenario file."""
    with open(path) as fh:
        doc = json.load(fh)
    errors = validate_scenario(doc)
    if errors:
        raise ScenarioError("; ".join(errors))
    return ScenarioSpec(doc)


# The keys the builders and the runner read, each with the shape of its
# value. A key ending in "?" is read with a default and may be left out.
_CAUSE = (lambda v: v in ("PartSlip", "Obstacle", "TargetMoved"),
          "PartSlip, Obstacle or TargetMoved")
_SCENARIO_KEYS = {
    "zones": LIST, "objects": LIST, "robot": ANY, "task": ANY,
    "trials?": COUNT, "cameras?": DICT, "root_cause?": _CAUSE,
    **{f"{key}?": LIST for key in ("injections", "script", "questions", "queries")},
}
_ZONE_KEYS = {"id": STR, "center": POINT, "half_extents": EXTENTS,
              "reachable?": LIST}
_OBJECT_KEYS = {"id": STR, "label": STR, "zone": STR, "position": POINT,
                "half_extents": EXTENTS, "attributes?": DICT}
_ROBOT_KEYS = {"zone": STR, "position": POINT}
# A camera holds one ray per pixel, built when the trial starts.
MAX_IMAGE_SIDE = 1024
_IMAGE_SIDE = (lambda v: COUNT[0](v) and v <= MAX_IMAGE_SIDE,
               f"an integer in [1, {MAX_IMAGE_SIDE}]")
_CAMERA_KEYS = {"fx": LENGTH, "fy": LENGTH, "cx": SCALAR, "cy": SCALAR,
                "rotation": ROTATION, "translation": POINT,
                "width?": _IMAGE_SIDE, "height?": _IMAGE_SIDE}
_INJECTION_KEYS = {"kind": _CAUSE, "params?": DICT,
                   "trigger_phase?": (lambda v: v in SKILLS, f"one of {', '.join(SKILLS)}"),
                   "trigger_step?": COUNT}
_PARAM_KEYS = {"PartSlip": {"drop_offset?": POINT}, "Obstacle": {},
               "TargetMoved": {"target": STR, "move_delta": POINT}}
_REQUEST_KINDS = tuple(kind.value for kind in RequestKind)
_SCRIPT_KEYS = {"kind": (lambda v: v in _REQUEST_KINDS, f"one of {', '.join(_REQUEST_KINDS)}"),
                "responses": LIST, "key?": STR}
_QUESTION_KEYS = {
    "position": {"uid": STR, "expect": POINT, "tol?": SCALAR},
    "relation": {"predicate": STR, "subject": STR, "object": STR, "expect": ANY},
    "attribute": {"uid": STR, "key": STR, "expect": ANY},
    "zone_of": {"uid": STR, "expect": ANY},
    "zone_count": {"zone": STR, "expect": INT},
}


def validate_scenario(doc) -> list[str]:
    """All problems that would stop a run, collected before any trial runs:
    a key the builders or the runner read that is missing (where they give
    it no default) or holds a value they cannot use, and a reference that
    does not resolve. Never raises."""
    if not isinstance(doc, dict):
        return ["scenario is not a JSON object"]
    errors = key_errors(doc, "scenario", _SCENARIO_KEYS)
    if doc.get("version") != SCENARIO_VERSION:
        errors.append(f"unsupported scenario version {doc.get('version')!r}")

    def entries(key: str, keys: dict) -> list[tuple[str, dict]]:
        """(name, entry) for each entry of a list section that passes
        ``keys``; the errors of the others are collected."""
        valid = []
        for i, entry in enumerate(doc[key] if isinstance(doc.get(key), list) else []):
            errors.extend(found := key_errors(entry, f"{key}[{i}]", keys))
            if not found:
                valid.append((f"{key}[{i}]", entry))
        return valid

    zone_ids = {z["id"] for _, z in entries("zones", _ZONE_KEYS)}
    if not zone_ids:
        errors.append("scenario defines no zones")
    objects = [o for _, o in entries("objects", _OBJECT_KEYS)]
    object_ids = {o["id"] for o in objects}
    seen = {ROBOT_UID}  # the store's robot vertex holds this uid
    for o in objects:
        oid = o["id"]
        if oid in seen:
            errors.append(f"duplicate object id {oid!r}")
        seen.add(oid)
        if o["zone"] not in zone_ids:
            errors.append(f"object {oid!r} references unknown zone {o['zone']!r}")
    if "robot" in doc:
        errors += (found := key_errors(doc["robot"], "robot", _ROBOT_KEYS))
        if not found and doc["robot"]["zone"] not in zone_ids:
            errors.append(f"robot zone {doc['robot']['zone']!r} unknown")
    cameras = doc["cameras"] if isinstance(doc.get("cameras"), dict) else {}
    if not cameras:
        errors.append("scenario defines no cameras")  # sense reads the first as a fallback
    for zid, c in cameras.items():
        if zid not in zone_ids:
            errors.append(f"camera for unknown zone {zid!r}")
        errors += key_errors(c, f"camera {zid!r}", _CAMERA_KEYS)
    try:
        TaskDAG.from_doc(doc.get("task", {}))
    except ScenarioError as exc:
        errors.append(f"task graph: {exc}")
    for name, inj in entries("injections", _INJECTION_KEYS):
        params = inj.get("params", {})
        errors += (found := key_errors(params, f"{name} params", _PARAM_KEYS[inj["kind"]]))
        if not found and inj["kind"] == "TargetMoved" and params["target"] not in object_ids:
            errors.append("TargetMoved injection references unknown target")
    entries("script", _SCRIPT_KEYS)
    for name, q in entries("questions", {"kind": ANY}) + entries("queries", {"kind": ANY}):
        keys = _QUESTION_KEYS.get(q["kind"]) if isinstance(q["kind"], str) else None
        if keys is None:
            errors.append(f"unknown question kind {q['kind']!r}")
            continue
        errors += (found := key_errors(q, name, keys))
        if not found and q["kind"] == "zone_count" and q["zone"] not in zone_ids:
            errors.append(f"{name} counts unknown zone {q['zone']!r}")
    return errors


# -- world / store construction ---------------------------------------------


def build_world(doc: dict, **_ignored) -> SimWorld:
    # ``_ignored`` takes the ``trial_seed`` that ``bench/workloads.py``
    # still passes; nothing in the simulator draws from a generator.
    objects = []
    for o in doc["objects"]:
        objects.append(SimObject(
            object_id=o["id"],
            label=o["label"],
            half_extents=np.asarray(o["half_extents"], dtype=float),
            pose=PoseSE3(np.eye(3), np.asarray(o["position"], dtype=float)),
            zone=o["zone"],
        ))
    injections = [
        FailureInjection(
            kind=i["kind"],
            trigger_phase=i.get("trigger_phase"),
            trigger_step=i.get("trigger_step"),
            params=dict(i.get("params", {})),
        )
        for i in doc.get("injections", [])
    ]
    robot = doc["robot"]
    return SimWorld(
        zones=[z["id"] for z in doc["zones"]],
        objects=objects,
        robot_zone=robot["zone"],
        robot_position=np.asarray(robot["position"], dtype=float),
        injections=injections,
    )


def build_store(doc: dict, world: SimWorld, *_ignored) -> WorldStore:
    """Fresh per-trial store seeded with the briefing map: zone layout and
    the initially surveyed object beliefs."""
    # ``_ignored`` takes the shape-prior table that ``bench/run.py`` still
    # passes positionally; the benchmark change of ROADMAP item 1 drops it.
    store = WorldStore()
    for z in doc["zones"]:
        store.add_zone(ZoneNode(
            z["id"], z.get("name", z["id"]), list(z.get("reachable", [])),
            OrientedBox(np.asarray(z["center"], dtype=float),
                        np.asarray(z["half_extents"], dtype=float)),
        ))
    store.robot_zone = world.robot_zone
    store.update_record(ROBOT_UID, envelope=GaussianEnvelope(
        world.robot_position, 1e-6 * np.eye(3)
    ))
    for o in doc["objects"]:
        he = np.asarray(o["half_extents"], dtype=float)
        sigma = np.maximum(he, _PRIOR_SIGMA_FLOOR)
        pts = np.asarray(o["position"], dtype=float) + CORNER_SIGNS * he
        store.add_entity(
            label=o["label"],
            envelope=GaussianEnvelope(
                np.asarray(o["position"], dtype=float), np.diag(sigma**2)
            ),
            zone_id=o["zone"],
            geometry=PointsGeom(PointCloudData(pts)),
            attributes=dict(o.get("attributes", {})),
            uid=o["id"],
        )
    for pred, subj, obj in sorted(world.on_relations()):
        store.add_edge(pred, subj, obj, EdgeStatus.VERIFIED)
    return store


def build_cameras(doc: dict) -> dict[str, SimCamera]:
    cams = {}
    for zid, c in doc.get("cameras", {}).items():
        cams[zid] = SimCamera(
            intrinsics=CameraIntrinsics(c["fx"], c["fy"], c["cx"], c["cy"]),
            pose=PoseSE3(
                np.asarray(c["rotation"], dtype=float).reshape(3, 3),
                np.asarray(c["translation"], dtype=float),
            ),
            width=int(c.get("width", 64)),
            height=int(c.get("height", 48)),
        )
    return cams


def build_reasoner(doc: dict) -> ScriptedReasoner:
    script = {(rule["kind"], rule.get("key", "")): rule["responses"]
              for rule in doc.get("script", [])}
    script.setdefault((RequestKind.SEMANTIC_SIMILARITY.value, ""), [1.0])
    script.setdefault((RequestKind.RELIABILITY_JUDGMENT.value, ""), ["High"])
    return ScriptedReasoner(script)


# -- perception loop ---------------------------------------------------------


def _scene(world: SimWorld) -> tuple:
    """Everything ``render_frame`` reads of the world: each object's id,
    label, half-extents, rotation and translation, by value."""
    return tuple((oid, o.label, o.half_extents.tobytes(), o.pose.rotation.tobytes(),
                  o.pose.translation.tobytes()) for oid, o in sorted(world.objects.items()))


@dataclass
class _CameraView:
    """What one camera last saw, and what was derived from it."""

    scene: tuple = ()
    frame: Frame | None = None
    observations: list | None = None  # assembled from ``frame`` when first sensed
    counts: dict | None = None  # ``frame``'s pixel count per object id, when first sampled
    parts: dict = field(default_factory=dict)  # assemble_snapshot's memo


class TrialRuntime:
    """Wires simulator, store, and executive together for one trial.

    Within a trial nothing pure is derived twice from the same inputs.
    Each camera keeps its last frame under the scene it shows and renders
    again only when the scene changes. A frame's observations and pixel
    counts are kept with it, and each instance's envelope and geometry are
    kept for the camera's next snapshot. A ``SemanticSimilarity`` reply is
    kept per label pair for the trial, and a ``ReliabilityJudgment`` reply
    per label for one sense cycle.

    Nor is a measurement fused twice. For each record the runtime keeps the
    observation envelope last fused into it and the bytes of the envelope
    that fusion produced (``register_or_update``'s ``fused``). An unchanged
    instance hands back the same envelope object, so a later cycle that
    matches it to the same record skips the fusion while the record's
    envelope still has those bytes. Any other write to the envelope, such
    as a rollback, makes the next match fuse again. A held record, which
    the Pick and Move effects write, is matched but never fused.

    It also keeps the confirmation window (``register_or_update``'s
    ``pending``): new sightings, each waiting one cycle for a second one.
    """

    def __init__(self, doc: dict, world: SimWorld, store: WorldStore,
                 reasoner: ScriptedReasoner):
        self.world = world
        self.store = store
        self.reasoner = reasoner
        self.cameras = build_cameras(doc)
        self.assoc_cfg = AssociationConfig()
        self.sta_samples: list[dict] = []
        self._views: dict[int, _CameraView] = {}  # by id of the camera
        self._similarity: dict[str, float] = {}  # by "observed|remembered" labels
        self._fused: dict[str, tuple[GaussianEnvelope, bytes]] = {}  # by record uid
        self._pending: list[Observation] = []  # sightings awaiting a second one

    def active_camera(self) -> SimCamera:
        cam = self.cameras.get(self.world.robot_zone)
        if cam is None:
            cam = next(iter(self.cameras.values()))
        return cam

    def _view(self) -> _CameraView:
        """The active camera's view, rendered again if the scene is not
        the one the camera last saw."""
        camera = self.active_camera()
        view = self._views.get(id(camera))
        if view is None:
            view = self._views[id(camera)] = _CameraView()
        scene = _scene(self.world)
        if view.frame is None or view.scene != scene:
            view.scene, view.frame = scene, render_frame(self.world, camera)
            view.observations = view.counts = None
        return view

    def frame(self) -> Frame:
        """The active camera's frame of the current world state."""
        return self._view().frame

    # -- executive hooks ----------------------------------------------------

    def execute_skill(self, action: str, args: dict) -> list[FTEvent]:
        self.record_sta_sample()
        return self.world.execute_skill(action, args)

    def sense(self) -> SenseResult:
        camera = self.active_camera()
        gripper_pos = self.world.robot_position.copy()
        view = self._view()
        if view.observations is None:
            view.observations = assemble_snapshot(view.frame, camera.intrinsics, view.parts)
        observations = view.observations

        memory_uids = [
            v.uid for v in self.store.entities_in_zone(self.world.robot_zone)
        ]
        memory_uids += [u for u in self.store.held_uids() if u not in memory_uids]
        memory = [self.store.records[u] for u in memory_uids]

        def iou_fn(k, i):
            return xy_iou(*observations[k].envelope.box, *record_bounds(memory[i]))

        def sim_fn(k, i):
            key = f"{observations[k].label}|{self.store.vertices[memory_uids[i]].label}"
            if key not in self._similarity:
                self._similarity[key] = ask(
                    self.reasoner, ReasonerRequest(RequestKind.SEMANTIC_SIMILARITY, key))
            return self._similarity[key]

        cost = build_cost_matrix(observations, memory, self.assoc_cfg, iou_fn, sim_fn)
        match = assign(cost, self.assoc_cfg.tau_match)

        # Semantic re-identification: an observation the gate rejected can
        # still reclaim a uniquely labeled unmatched belief (the object
        # physically moved), fused with it at weight ``_RELOCALIZE_GAMMA``.
        matched = list(match.matched)
        unmatched_obs = list(match.unmatched_observations)
        unmatched_mem = list(match.unmatched_memory)
        gammas: dict[int, float] = {}
        for k in list(unmatched_obs):
            label = observations[k].label
            candidates = [
                i for i in unmatched_mem
                if self.store.vertices[memory_uids[i]].label == label
            ]
            if len(candidates) == 1:
                i = candidates[0]
                matched.append((k, i, 1.0))
                unmatched_obs.remove(k)
                unmatched_mem.remove(i)
                gammas[k] = _RELOCALIZE_GAMMA

        reliability: dict[str, float] = {}  # gamma by label, for this cycle
        for k, _i, _c in matched:
            if k in gammas:
                continue
            key = observations[k].label
            if key not in reliability:
                reliability[key] = ask(
                    self.reasoner, ReasonerRequest(RequestKind.RELIABILITY_JUDGMENT, key))
            gammas[k] = reliability[key]

        final = MatchResult(matched, unmatched_obs, unmatched_mem)
        delta = register_or_update(
            self.store, observations, final, memory_uids, gammas, self.world.robot_zone,
            self._fused, self._pending, cfg=self.assoc_cfg,
        )

        observed = {memory_uids[i] for _k, i, _c in matched}
        observed |= set(delta.promoted) | set(delta.restored)
        curate_zone(self.store, self.world.robot_zone, observed)

        positions = {
            memory_uids[i]: observations[k].envelope.mean.copy()
            for k, i, _c in matched
        }
        return SenseResult(positions=positions, gripper_position=gripper_pos)

    # -- bookkeeping --------------------------------------------------------

    def record_sta_sample(self):
        view = self._view()
        if view.counts is None:
            view.counts = visible_pixel_counts(self.world, view.frame)
        truth = self.world.true_positions()
        gt_on = {(s, o) for _p, s, o in self.world.on_relations()}
        sample = {}
        for oid, n_pixels in view.counts.items():
            if n_pixels > 0:
                continue  # in view; not part of the tracked-state population
            v = self.store.vertices.get(oid)
            if v is None or v.lifecycle == Lifecycle.ARCHIVED:
                sample[oid] = False
                continue
            rec = self.store.records.get(oid)
            pos_ok = (
                rec is not None
                and float(np.linalg.norm(rec.envelope.mean - truth[oid]))
                <= STA_POSITION_TOL
            )
            believed_on = {
                (e.subject, e.obj)
                for e in self.store.find_edges(predicate="On", subject=oid)
                if e.status != EdgeStatus.REFUTED
            }
            actual_on = {t for t in gt_on if t[0] == oid}
            sample[oid] = bool(pos_ok and believed_on == actual_on)
        if sample:
            self.sta_samples.append({"step": self.world.step_count,
                                     "oov_correct": sample})


# -- questions ---------------------------------------------------------------


def answer_question(store: WorldStore, q: dict) -> tuple[object, bool]:
    """Execute one structured query; correctness is exact structured match."""
    kind = q["kind"]
    if kind == "position":
        v = store.vertices.get(q["uid"])
        if v is None or v.lifecycle == Lifecycle.ARCHIVED:
            return None, False
        mean = store.records[q["uid"]].envelope.mean
        ok = float(np.linalg.norm(mean - np.asarray(q["expect"], dtype=float))) <= float(
            q.get("tol", STA_POSITION_TOL)
        )
        return [float(x) for x in mean], ok
    if kind == "relation":
        present = any(
            e.status != EdgeStatus.REFUTED
            for e in store.find_edges(q["predicate"], q["subject"], q["object"])
        )
        return present, present == bool(q["expect"])
    if kind == "attribute":
        v = store.vertices.get(q["uid"])
        value = None if v is None else v.attributes.get(q["key"])
        return value, value == q["expect"]
    if kind == "zone_of":
        v = store.vertices.get(q["uid"])
        zone = None if v is None else v.zone_id
        return zone, zone == q["expect"]
    if kind == "zone_count":
        count = len(store.entities_in_zone(q["zone"]))
        return count, count == int(q["expect"])
    raise ScenarioError(f"unknown question kind {kind!r}")


def _answer_all(store: WorldStore, questions: list[dict]) -> list[dict]:
    """Each question with the store's answer and whether it is correct."""
    results = []
    for q in questions:
        answer, correct = answer_question(store, q)
        results.append({"question": q, "answer": answer, "correct": correct})
    return results


def classify_root_cause(category: str, failed_action: str,
                        drift_flagged: bool) -> str:
    """Map a diagnosed failure category back to an injectable root cause."""
    if category == FailureCategory.MOTION_INTERRUPTED.value:
        return "Obstacle"
    if category == FailureCategory.GRASP_SLIP.value:
        return ("TargetMoved" if drift_flagged and failed_action not in ("Move", "Place")
                else "PartSlip")
    return "Unknown"


# -- metrics -----------------------------------------------------------------


@dataclass
class MetricsReport:
    tsr: float
    sta: float | None
    pe: int
    n_init: int
    n_replan: int
    ie: float | None
    cda: float | None
    qsr: float | None
    per_trial: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def table(self) -> str:
        def fmt(v):
            return "n/a" if v is None else (f"{v:.2f}" if isinstance(v, float) else str(v))

        rows = [
            ("TSR %", fmt(self.tsr)),
            ("STA %", fmt(self.sta)),
            ("PE", fmt(self.pe)),
            ("  N_init", fmt(self.n_init)),
            ("  N_replan", fmt(self.n_replan)),
            ("IE %", fmt(self.ie)),
            ("CDA %", fmt(self.cda)),
            ("QSR %", fmt(self.qsr)),
        ]
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{name:<{width}}  {val}" for name, val in rows)


def sta_from_samples(samples: list[dict]) -> float | None:
    """Average per-timestep fraction of correct out-of-view beliefs."""
    ratios = []
    for s in samples:
        flags = list(s["oov_correct"].values())
        if flags:
            ratios.append(sum(bool(f) for f in flags) / len(flags))
    if not ratios:
        return None
    return 100.0 * sum(ratios) / len(ratios)


def compute_metrics(trial_logs: list[dict]) -> MetricsReport:
    """Pure reduction over per-trial logs; recomputable from exported files."""
    n = len(trial_logs)
    if n == 0:
        raise ScenarioError("no trial logs")
    successes = sum(bool(t["success"]) for t in trial_logs)
    tsr = 100.0 * successes / n

    sta_values = [
        v for t in trial_logs
        if (v := sta_from_samples(t.get("sta_samples", []))) is not None
    ]
    sta = sum(sta_values) / len(sta_values) if sta_values else None

    n_init = sum(int(t["n_init"]) for t in trial_logs)
    n_replan = sum(int(t["n_replan"]) for t in trial_logs)

    info_correct = sum(
        sum(bool(r["correct"]) for r in t.get("question_results", []))
        for t in trial_logs
    )
    items = sum(int(t.get("n_items", 0)) for t in trial_logs
                if t.get("question_results"))
    ie = 100.0 * info_correct / items if items else None

    # One diagnosis per failure episode: a later round replaces the round
    # before it, so only each episode's final diagnosis counts.
    attempts = 0
    matches = 0
    for t in trial_logs:
        expected = t.get("expected_root_cause")
        finals: list[dict] = []
        for d in t.get("diagnostics", []):
            if d["round"] > 1:
                finals[-1] = d
            else:
                finals.append(d)
        for d in finals:
            attempts += 1
            cause = classify_root_cause(
                d["category"], d["failed_action"], bool(d["drift_flagged"])
            )
            if expected is not None and cause == expected:
                matches += 1
    cda = 100.0 * matches / attempts if attempts else None

    q_results = [r for t in trial_logs for r in t.get("query_results", [])]
    qsr = (
        100.0 * sum(bool(r["correct"]) for r in q_results) / len(q_results)
        if q_results else None
    )

    return MetricsReport(
        tsr=tsr, sta=sta, pe=n_init + n_replan, n_init=n_init,
        n_replan=n_replan, ie=ie, cda=cda, qsr=qsr,
        per_trial=[{
            "success": bool(t["success"]),
            "sta": sta_from_samples(t.get("sta_samples", [])),
            "n_init": int(t["n_init"]),
            "n_replan": int(t["n_replan"]),
        } for t in trial_logs],
    )


# -- trial / scenario runner -------------------------------------------------


def run_trial(spec: ScenarioSpec, trial_index: int) -> dict:
    doc = spec.doc
    world = build_world(doc)
    store = build_store(doc, world)
    reasoner = build_reasoner(doc)
    runtime = TrialRuntime(doc, world, store, reasoner)

    executive = Executive(store, reasoner, runtime.execute_skill, runtime.sense)
    dag = TaskDAG.from_doc(doc["task"])
    try:
        completed = executive.main_loop(dag)
    except ReasonerFault as fault:
        completed = executive.abandon(fault)
    runtime.record_sta_sample()

    question_results = _answer_all(store, doc.get("questions", []))
    query_results = _answer_all(store, doc.get("queries", []))

    n_items = sum(
        1 for v in store.vertices.values()
        if v.uid != ROBOT_UID and v.lifecycle != Lifecycle.ARCHIVED
    )
    return {
        "trial": trial_index,
        "success": completed,
        "n_init": executive.n_init,
        "n_replan": executive.n_replan,
        "sta_samples": runtime.sta_samples,
        "diagnostics": executive.diagnostics,
        "expected_root_cause": doc.get("root_cause"),
        "question_results": question_results,
        "query_results": query_results,
        "n_items": n_items,
        "sim_time": world.sim_time,
        "trace": executive.trace,
        "store_hash": store.state_hash(),
        "log_chain_valid": executive.log.validate_chain(),
    }


def run_scenario(
    spec: ScenarioSpec, out_dir: str | Path | None = None,
    trials: int | None = None,
) -> tuple[MetricsReport, list[dict]]:
    n = trials if trials is not None else spec.trials
    logs = [run_trial(spec, i) for i in range(n)]
    report = compute_metrics(logs)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for log in logs:
            i = log["trial"]
            with open(out / f"trial_{i:03d}.json", "w") as fh:
                fh.write(canonical_dumps(log))
            with open(out / f"trace_{i:03d}.ndjson", "w") as fh:
                for event in log["trace"]:
                    fh.write(json_line(event) + "\n")
        with open(out / "metrics.json", "w") as fh:
            fh.write(canonical_dumps(report.to_dict()))
    return report, logs


# The keys compute_metrics reads from the items of a trial log's lists and
# from the log itself, each in the shape run_trial writes.
_LOG_ITEM_KEYS = {
    "sta_samples": {"oov_correct": DICT},
    "diagnostics": {"round": INT, "category": STR, "failed_action": STR, "drift_flagged": LIST},
    "question_results": {"correct": BOOL}, "query_results": {"correct": BOOL},
}
_LOG_KEYS = {"success": BOOL, "n_init": INT, "n_replan": INT, "n_items?": INT,
             **{f"{key}?": LIST for key in _LOG_ITEM_KEYS}}


def metrics_from_dir(trace_dir: str | Path) -> MetricsReport:
    paths = sorted(Path(trace_dir).glob("trial_*.json"))
    if not paths:
        raise ScenarioError(f"no trial logs under {trace_dir}")
    logs = [json.loads(p.read_text()) for p in paths]
    for path, log in zip(paths, logs):
        errors = key_errors(log, "trial log", _LOG_KEYS) or [
            error for key, keys in _LOG_ITEM_KEYS.items()
            for i, item in enumerate(log.get(key, []))
            for error in key_errors(item, f"{key}[{i}]", keys)]
        if not errors and log.get("diagnostics") and log["diagnostics"][0]["round"] > 1:
            errors = ["diagnostics[0] is a later round of an episode with no first round"]
        if errors:
            raise ScenarioError(f"{path}: {'; '.join(errors)}")
    return compute_metrics(logs)
