"""Scenario runner and metrics.

A scenario file fully determines a run: world layout, pre-decomposed task
graph, scripted reasoner responses, failure injections, and the question
sets used for the information metrics. Trials are isolated: each gets a
fresh store and a fresh world; only the shape library is shared.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .association import (
    AssociationConfig,
    MatchResult,
    ReliabilityJudgment,
    assign,
    build_cost_matrix,
    gamma_of,
)
from .cognition import (
    ReasonerRequest,
    RequestKind,
    ScriptedReasoner,
)
from .errors import ReasonerFault, ScenarioError
from .executive import (
    ExecutionFeedback,
    Executive,
    FailureCategory,
    SenseResult,
    TaskDAG,
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
    PointsGeom,
    assemble_snapshot,
)
from .serialization import canonical_dumps, json_line
from .simulator import (
    FailureInjection,
    SimCamera,
    SimObject,
    SimWorld,
    SimZone,
    render_frame,
    visible_pixel_counts,
)
from .world_model import (
    EdgeStatus,
    Lifecycle,
    ROBOT_UID,
    ShapePrior,
    WorldStore,
    ZoneNode,
    curate_zone,
    record_bounds,
    register_or_update,
)

SCENARIO_VERSION = 1
STA_POSITION_TOL = 0.05
_RELOCALIZE_GAMMA = 100.0
# Belief covariance of an object riding the end effector.
_HELD_COVARIANCE = 1e-4 * np.eye(3)
_HELD_COVARIANCE.flags.writeable = False
_PRIOR_SIGMA_FLOOR = 0.02


# -- scenario ----------------------------------------------------------------


@dataclass
class ScenarioSpec:
    doc: dict
    path: str = ""

    @property
    def trials(self) -> int:
        return int(self.doc.get("trials", 1))

    @property
    def seed(self) -> int:
        return int(self.doc.get("seed", 0))


def load_scenario(path: str | Path) -> ScenarioSpec:
    with open(path) as fh:
        doc = json.load(fh)
    errors = validate_scenario(doc)
    if errors:
        raise ScenarioError("; ".join(errors))
    return ScenarioSpec(doc, str(path))


def validate_scenario(doc: dict) -> list[str]:
    """All structural problems, collected before any trial runs."""
    errors = []
    if doc.get("version") != SCENARIO_VERSION:
        errors.append(f"unsupported scenario version {doc.get('version')!r}")
    if int(doc.get("trials", 1)) < 1:
        errors.append("trial count must be >= 1")
    zone_ids = {z.get("id") for z in doc.get("zones", [])}
    if not zone_ids:
        errors.append("scenario defines no zones")
    object_ids = set()
    for obj in doc.get("objects", []):
        oid = obj.get("id")
        if oid in object_ids:
            errors.append(f"duplicate object id {oid!r}")
        object_ids.add(oid)
        if obj.get("zone") not in zone_ids:
            errors.append(f"object {oid!r} references unknown zone {obj.get('zone')!r}")
        sup = obj.get("support")
        if sup is not None and sup not in {o.get("id") for o in doc.get("objects", [])}:
            errors.append(f"object {oid!r} supported by unknown {sup!r}")
    robot = doc.get("robot", {})
    if robot.get("zone") not in zone_ids:
        errors.append(f"robot zone {robot.get('zone')!r} unknown")
    for zid in doc.get("cameras", {}):
        if zid not in zone_ids:
            errors.append(f"camera for unknown zone {zid!r}")
    task = doc.get("task", {})
    try:
        TaskDAG.from_doc(task)
    except ScenarioError as exc:
        errors.append(f"task graph: {exc}")
    for inj in doc.get("injections", []):
        if inj.get("kind") not in ("PartSlip", "Obstacle", "TargetMoved"):
            errors.append(f"unknown injection kind {inj.get('kind')!r}")
        if inj.get("kind") == "TargetMoved":
            if inj.get("params", {}).get("target") not in object_ids:
                errors.append("TargetMoved injection references unknown target")
    for q in doc.get("questions", []) + doc.get("queries", []):
        if q.get("kind") not in ("position", "relation", "attribute", "zone_of",
                                 "zone_count"):
            errors.append(f"unknown question kind {q.get('kind')!r}")
    return errors


# -- world / store construction ---------------------------------------------


def build_world(doc: dict, trial_seed: int) -> SimWorld:
    zones = []
    for z in doc["zones"]:
        extent = OrientedBox(
            np.asarray(z["center"], dtype=float),
            np.asarray(z["half_extents"], dtype=float),
        )
        zones.append(SimZone(z["id"], z.get("name", z["id"]), extent,
                             list(z.get("reachable", []))))
    objects = []
    for o in doc["objects"]:
        objects.append(SimObject(
            object_id=o["id"],
            label=o["label"],
            half_extents=np.asarray(o["half_extents"], dtype=float),
            pose=PoseSE3(np.eye(3), np.asarray(o["position"], dtype=float)),
            zone=o["zone"],
            support=o.get("support"),
            attributes=dict(o.get("attributes", {})),
            shape_prior=o.get("shape_prior"),
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
        zones=zones,
        objects=objects,
        robot_zone=robot["zone"],
        robot_position=np.asarray(robot["position"], dtype=float),
        injections=injections,
        seed=trial_seed,
    )


def build_store(doc: dict, world: SimWorld,
                priors: dict[str, ShapePrior] | None = None) -> WorldStore:
    """Fresh per-trial store seeded with the briefing map: zone layout and
    the initially surveyed object beliefs."""
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
    for pred, subj, obj in sorted(world.ground_truth_relations()):
        if pred == "On":
            store.add_edge("On", subj, obj, EdgeStatus.VERIFIED)
    if priors:
        store.add_priors(copy.deepcopy(priors))
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
    script: dict = {}
    for rule in doc.get("script", []):
        kind = rule["kind"]
        key = rule.get("key", "")
        responses = rule["responses"]
        script[(kind, key)] = list(responses)
    script.setdefault((RequestKind.SEMANTIC_SIMILARITY.value, ""), [1.0])
    script.setdefault((RequestKind.RELIABILITY_JUDGMENT.value, ""), ["High"])
    return ScriptedReasoner(script)


# -- perception loop ---------------------------------------------------------


class TrialRuntime:
    """Wires simulator, store, and executive together for one trial.

    The world changes only inside ``execute_skill``, so the runtime holds the
    last rendered frame and serves it to ``sense`` and ``record_sta_sample``
    until the next skill dispatch or a change of active camera: each world
    state is rendered once, however often it is read.
    """

    def __init__(self, doc: dict, world: SimWorld, store: WorldStore,
                 reasoner: ScriptedReasoner):
        self.doc = doc
        self.world = world
        self.store = store
        self.reasoner = reasoner
        self.cameras = build_cameras(doc)
        self.assoc_cfg = AssociationConfig()
        self.sta_samples: list[dict] = []
        self._held: tuple[SimCamera, Frame] | None = None

    def active_camera(self) -> SimCamera:
        cam = self.cameras.get(self.world.robot_zone)
        if cam is None:
            cam = next(iter(self.cameras.values()))
        return cam

    def frame(self) -> Frame:
        """The active camera's frame of the current world state."""
        camera = self.active_camera()
        if self._held is None or self._held[0] is not camera:
            self._held = (camera, render_frame(self.world, camera))
        return self._held[1]

    # -- executive hooks ----------------------------------------------------

    def execute_skill(self, action: str, args: dict) -> ExecutionFeedback:
        self.record_sta_sample()
        # The only world writes of a trial follow; nothing renders until
        # both have returned.
        self._held = None
        self.world.step()
        outcome = self.world.execute_skill(action, args)
        return ExecutionFeedback(ft_events=outcome.ft_events)

    def sense(self) -> SenseResult:
        camera = self.active_camera()
        gripper_pos = self.world.robot_position.copy()

        # Kinematic tracking: a held object rides the end effector. Its
        # record is written only when it differs, byte for byte, from the
        # belief below; the surface scan from the table is stale now.
        held_uids = self.store.held_uids()
        for uid in held_uids:
            rid = self.store.vertices[uid].grounding
            rec = self.store.records[rid]
            if (rec.geometry is not None
                    or rec.envelope.mean.tobytes() != gripper_pos.tobytes()
                    or rec.envelope.covariance.tobytes() != _HELD_COVARIANCE.tobytes()):
                self.store.update_record(
                    rid, envelope=GaussianEnvelope(gripper_pos, _HELD_COVARIANCE),
                    geometry=None)

        observations = assemble_snapshot(self.frame(), camera.intrinsics)

        memory_uids = [
            v.uid for v in self.store.entities_in_zone(self.world.robot_zone)
        ]
        memory_uids += [u for u in held_uids if u not in memory_uids]
        memory = [
            self.store.records[self.store.vertices[u].grounding]
            for u in memory_uids
        ]

        # Each side's box depends on that side only: computed on first use.
        obs_boxes: dict[int, tuple] = {}
        memory_boxes: dict[int, tuple] = {}

        def iou_fn(k, i):
            if k not in obs_boxes:
                env = observations[k].envelope
                obs_boxes[k] = (env.mean - 2 * np.sqrt(np.diag(env.covariance)),
                                env.mean + 2 * np.sqrt(np.diag(env.covariance)))
            if i not in memory_boxes:
                memory_boxes[i] = record_bounds(memory[i])
            return xy_iou(*obs_boxes[k], *memory_boxes[i])

        def sim_fn(k, i):
            key = f"{observations[k].label}|{self.store.vertices[memory_uids[i]].label}"
            resp = self.reasoner.query(
                ReasonerRequest(RequestKind.SEMANTIC_SIMILARITY, key))
            if isinstance(resp, bool) or not isinstance(resp, (int, float)) \
                    or not 0.0 <= resp <= 1.0:
                raise ReasonerFault(RequestKind.SEMANTIC_SIMILARITY.value,
                                    f"SemanticSimilarity reply {resp!r} for {key!r} "
                                    "is not a number in [0, 1]")
            return float(resp)

        cost = build_cost_matrix(observations, memory, self.assoc_cfg, iou_fn, sim_fn)
        match = assign(cost, self.assoc_cfg.tau_match)

        # Semantic re-identification: an observation the gate rejected can
        # still reclaim a uniquely labeled unmatched belief (the object
        # physically moved). The belief is reset, not fused.
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

        for k, _i, _c in matched:
            if k in gammas:
                continue
            key = observations[k].label
            level = self.reasoner.query(
                ReasonerRequest(RequestKind.RELIABILITY_JUDGMENT, key))
            try:
                gammas[k] = gamma_of(ReliabilityJudgment(level))
            except ValueError:
                raise ReasonerFault(RequestKind.RELIABILITY_JUDGMENT.value,
                                    f"ReliabilityJudgment reply {level!r} for {key!r} "
                                    "is not High, Medium, Low or Bad") from None

        final = MatchResult(matched, unmatched_obs, unmatched_mem)
        delta = register_or_update(
            self.store, observations, final, memory_uids, gammas,
            zone_id=self.world.robot_zone, cfg=self.assoc_cfg,
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
        counts = visible_pixel_counts(self.world, self.frame())
        truth = self.world.true_positions()
        gt_on = {(s, o) for _p, s, o in self.world.on_relations()}
        sample = {}
        for oid, n_pixels in counts.items():
            if n_pixels > 0:
                continue  # in view; not part of the tracked-state population
            v = self.store.vertices.get(oid)
            if v is None or v.lifecycle == Lifecycle.ARCHIVED:
                sample[oid] = False
                continue
            rec = self.store.records.get(v.grounding)
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
        mean = store.records[v.grounding].envelope.mean
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


def classify_root_cause(category: str, failed_action: str,
                        drift_flagged: bool) -> str:
    """Map a diagnosed failure category back to an injectable root cause."""
    if category == FailureCategory.MOTION_INTERRUPTED.value:
        return "Obstacle"
    if category == FailureCategory.GRASP_SLIP.value:
        if failed_action == "Pick" and drift_flagged:
            return "TargetMoved"
        if failed_action in ("Move", "Place"):
            return "PartSlip"
        return "PartSlip" if not drift_flagged else "TargetMoved"
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
        return {
            "tsr": self.tsr,
            "sta": self.sta,
            "pe": self.pe,
            "n_init": self.n_init,
            "n_replan": self.n_replan,
            "ie": self.ie,
            "cda": self.cda,
            "qsr": self.qsr,
            "per_trial": self.per_trial,
        }

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


def run_trial(spec: ScenarioSpec, trial_index: int,
              priors: dict[str, ShapePrior] | None = None) -> dict:
    doc = spec.doc
    world = build_world(doc, trial_seed=spec.seed + trial_index)
    store = build_store(doc, world, priors)
    reasoner = build_reasoner(doc)
    runtime = TrialRuntime(doc, world, store, reasoner)

    synonyms = {k: list(v) for k, v in doc.get("synonyms", {}).items()}
    executive = Executive(
        store, reasoner, runtime.execute_skill, runtime.sense, synonyms=synonyms,
    )
    dag = TaskDAG.from_doc(doc["task"])
    try:
        result = executive.main_loop(dag)
    except ReasonerFault as fault:
        result = executive.abandon(fault)
    runtime.record_sta_sample()

    question_results = []
    for q in doc.get("questions", []):
        answer, correct = answer_question(store, q)
        question_results.append({"question": q, "answer": answer, "correct": correct})
    query_results = []
    for q in doc.get("queries", []):
        answer, correct = answer_question(store, q)
        query_results.append({"question": q, "answer": answer, "correct": correct})

    n_items = sum(
        1 for v in store.vertices.values()
        if v.uid != ROBOT_UID and v.lifecycle != Lifecycle.ARCHIVED
    )
    return {
        "trial": trial_index,
        "success": result.completed,
        "n_init": result.n_init,
        "n_replan": result.n_replan,
        "sta_samples": runtime.sta_samples,
        "diagnostics": result.diagnostics,
        "expected_root_cause": doc.get("root_cause"),
        "question_results": question_results,
        "query_results": query_results,
        "n_items": n_items,
        "sim_time": world.sim_time,
        "trace": result.trace,
        "store_hash": store.state_hash(),
        "log_chain_valid": executive.log.validate_chain(),
    }


def run_scenario(
    spec: ScenarioSpec, out_dir: str | Path | None = None,
    trials: int | None = None,
) -> tuple[MetricsReport, list[dict]]:
    n = trials if trials is not None else spec.trials
    priors = {
        p["id"]: ShapePrior(
            p["id"],
            PointCloudData(np.asarray(p["points"], dtype=float)),
            PoseSE3(
                np.asarray(p["functional_frame"]["rotation"], dtype=float).reshape(3, 3),
                np.asarray(p["functional_frame"]["translation"], dtype=float),
            ) if "functional_frame" in p else PoseSE3.identity(),
        )
        for p in spec.doc.get("shape_priors", [])
    }
    logs = [run_trial(spec, i, priors) for i in range(n)]
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


def metrics_from_dir(trace_dir: str | Path) -> MetricsReport:
    paths = sorted(Path(trace_dir).glob("trial_*.json"))
    if not paths:
        raise ScenarioError(f"no trial logs under {trace_dir}")
    logs = [json.loads(p.read_text()) for p in paths]
    return compute_metrics(logs)
