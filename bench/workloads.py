"""Seeded workload inputs and the per-trial correctness gate.

Each workload is a fixed list of trial inputs generated from the benchmark
seed. The timed loop runs them round-robin, so every input repeats and a
repeat doubles as the determinism check. The engine only ever sees the
generated scenario documents and, for ``crowded_store``, a persisted store.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workcell.geometry import GaussianEnvelope
from workcell.harness import (
    ScenarioSpec,
    build_store,
    build_world,
    classify_root_cause,
    compute_metrics,
    sta_from_samples,
    validate_scenario,
)
from workcell.serialization import canonical_dumps
from workcell.world_model import EdgeStatus, WorldStore

WORKLOADS = ("cluttered_assembly", "failure_recovery", "crowded_store")

# cluttered_assembly: 12 boxes of 4x4x3 cm in the staging zone, 4 labels
# shared three ways, at least 7 cm from any other object's footprint.
CLUTTER_COUNT = 12
CLUTTER_HALF_EXTENTS = (0.02, 0.02, 0.015)
CLUTTER_LABELS = ("nut", "washer", "spacer", "clip")
CLUTTER_CLEARANCE = 0.07
CLUTTER_ZONE = "zone_a"
# Layouts per run: each run cycles through this many seeded layouts so one
# unlucky layout does not set a run's medians.
CLUTTER_LAYOUTS = 10

# failure_recovery: the c11 sweep.
SWEEP = (("transfer_partslip", "PartSlip", 7),
         ("transfer_obstacle", "Obstacle", 7),
         ("transfer_targetmoved", "TargetMoved", 6))

# crowded_store: remembered entities in a zone no camera sees, laid out in
# a 1 cm row like c13's "elsewhere" entities and joined in pairs by On edges.
PRELOAD_ZONE = "zone_far"
PRELOAD_ENTITIES = 500
PRELOAD_EDGES = 250
PRELOAD_LABELS = tuple(f"stock_{k}" for k in range(8))
# Distinct trial seeds per crowded_store run.
CROWDED_TRIAL_SEEDS = 2


@dataclass
class TrialInput:
    """One trial: the document run_trial sees and, optionally, the persisted
    store it resumes from instead of the briefing map."""

    key: str
    spec: ScenarioSpec
    kind: str
    preload: dict | None = None


@dataclass
class Workload:
    trials: list[TrialInput]
    warmup: list[TrialInput]


def load_doc(root: Path, name: str) -> dict:
    with open(root / "scenarios" / f"{name}.json") as fh:
        return json.load(fh)


def _check_doc(doc: dict) -> dict:
    errors = validate_scenario(doc)
    if errors:
        raise ValueError("generated scenario is invalid: " + "; ".join(errors))
    return doc


def _footprint_gap(a_pos, a_he, b_pos, b_he) -> float:
    """Edge-to-edge distance between two axis-aligned footprints in x/y."""
    return max(abs(a_pos[0] - b_pos[0]) - (a_he[0] + b_he[0]),
               abs(a_pos[1] - b_pos[1]) - (a_he[1] + b_he[1]))


def clutter_doc(base: dict, rng: np.random.Generator) -> dict:
    """The assembly document plus CLUTTER_COUNT seeded distractors."""
    doc = copy.deepcopy(base)
    zone = next(z for z in doc["zones"] if z["id"] == CLUTTER_ZONE)
    he = np.asarray(CLUTTER_HALF_EXTENTS)
    lo = np.asarray(zone["center"][:2]) - zone["half_extents"][:2] + he[:2]
    hi = np.asarray(zone["center"][:2]) + zone["half_extents"][:2] - he[:2]
    placed = [(o["position"], o["half_extents"]) for o in doc["objects"]]
    added = 0
    for _ in range(100_000):
        if added == CLUTTER_COUNT:
            break
        xy = rng.uniform(lo, hi)
        pos = [round(float(xy[0]), 4), round(float(xy[1]), 4), float(he[2])]
        if all(_footprint_gap(pos, he, p, h) >= CLUTTER_CLEARANCE for p, h in placed):
            doc["objects"].append({
                "id": f"clutter_{added:02d}",
                "label": CLUTTER_LABELS[added % len(CLUTTER_LABELS)],
                "half_extents": list(CLUTTER_HALF_EXTENTS),
                "position": pos,
                "zone": CLUTTER_ZONE,
            })
            placed.append((pos, list(CLUTTER_HALF_EXTENTS)))
            added += 1
    if added != CLUTTER_COUNT:
        raise ValueError("could not place the clutter with the required clearance")
    return _check_doc(doc)


def crowded_doc(base: dict) -> dict:
    """The assembly document plus a camera-less zone for remembered stock."""
    doc = copy.deepcopy(base)
    half_len = 0.01 * PRELOAD_ENTITIES / 2 + 0.1
    doc["zones"].append({
        "id": PRELOAD_ZONE, "name": "remembered stock",
        "center": [5.0, half_len - 0.1, 0.1],
        "half_extents": [0.3, half_len, 0.1],
        "reachable": [],
    })
    return _check_doc(doc)


def build_preload(doc: dict, rng: np.random.Generator) -> WorldStore:
    """The briefing-map store plus PRELOAD_ENTITIES remembered entities and
    PRELOAD_EDGES On edges among them, inserted one at a time."""
    store = build_store(doc, build_world(doc, trial_seed=0))
    xs = 5.0 + rng.uniform(-0.2, 0.2, PRELOAD_ENTITIES)
    labels = rng.integers(0, len(PRELOAD_LABELS), PRELOAD_ENTITIES)
    for i in range(PRELOAD_ENTITIES):
        store.add_entity(
            label=PRELOAD_LABELS[labels[i]],
            envelope=GaussianEnvelope(np.array([xs[i], 0.01 * i, 0.02]),
                                      0.01 * np.eye(3)),
            zone_id=PRELOAD_ZONE,
            uid=f"stock_{i:03d}",
        )
    order = rng.permutation(PRELOAD_ENTITIES)
    for k in range(PRELOAD_EDGES):
        store.add_edge("On", f"stock_{order[2 * k]:03d}",
                       f"stock_{order[2 * k + 1]:03d}", EdgeStatus.VERIFIED)
    return store


def make_workload(name: str, seed: int, root: Path) -> Workload:
    """Generate every input of a workload from the seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "cluttered_assembly":
        base = load_doc(root, "assembly")
        docs = [clutter_doc(base, rng) for _ in range(CLUTTER_LAYOUTS)]
        trials = [TrialInput(f"layout{i}", ScenarioSpec(d), "assembly")
                  for i, d in enumerate(docs)]
        return Workload(trials, trials[:1])
    if name == "failure_recovery":
        first = int(rng.integers(0, 2**31 - 64))
        trials, warmup = [], []
        for scenario, kind, count in SWEEP:
            base = load_doc(root, scenario)
            for _ in range(count):
                doc = copy.deepcopy(base)
                doc["seed"] = first + len(trials)
                trials.append(TrialInput(f"{kind}{len(trials)}",
                                         ScenarioSpec(_check_doc(doc)), "recovery"))
            warmup.append(trials[-1])
        return Workload(trials, warmup)
    if name == "crowded_store":
        doc = crowded_doc(load_doc(root, "assembly"))
        preload = build_preload(doc, rng).to_dict()
        first = int(rng.integers(0, 2**31 - 64))
        trials = []
        for i in range(CROWDED_TRIAL_SEEDS):
            trial_doc = copy.deepcopy(doc)
            trial_doc["seed"] = first + i
            trials.append(TrialInput(f"seed{i}", ScenarioSpec(trial_doc),
                                     "assembly", preload))
        return Workload(trials, trials[:1])
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")


# -- correctness ---------------------------------------------------------------


def trial_failures(log: dict, kind: str) -> list[str]:
    """Reasons a trial log fails the gate; empty when it passes."""
    reasons = []
    if not log.get("success"):
        reasons.append("incomplete")
    if not log.get("log_chain_valid"):
        reasons.append("hash chain invalid")
    if kind == "assembly":
        sta = sta_from_samples(log.get("sta_samples", []))
        if sta is None or sta < 100.0:
            reasons.append(f"STA {sta}")
    wrong = sum(not r["correct"] for r in log.get("question_results", []))
    if wrong:
        reasons.append(f"{wrong} question(s) wrong")
    if kind == "recovery":
        diags = log.get("diagnostics", [])
        cause = None
        if diags:
            final = diags[-1]
            cause = classify_root_cause(final["category"], final["failed_action"],
                                        bool(final["drift_flagged"]))
        if cause is None or cause != log.get("expected_root_cause"):
            reasons.append(f"diagnosed {cause}, injected {log.get('expected_root_cause')}")
    return reasons


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trial_digest(log: dict, store: WorldStore) -> tuple[str, str]:
    """Identity of a trial's behaviour: digests of its canonical trace and of
    its final store content.

    Deliberately excludes state_hash values, whose definition may change
    without changing behaviour.
    """
    return _sha(canonical_dumps(log["trace"])), _sha(store.serialize())


def fingerprint(first_logs: list[dict], digests: list[tuple[str, str]]) -> dict:
    """Per-workload behaviour fingerprint over one trial of each input."""
    report = compute_metrics(first_logs)
    return {
        "trace_sha256": _sha("".join(d[0] for d in digests)),
        "store_sha256": _sha("".join(d[1] for d in digests)),
        "metrics_sha256": _sha(canonical_dumps(
            {k: getattr(report, k) for k in ("tsr", "sta", "ie", "cda", "qsr")})),
        "tsr": report.tsr, "sta": report.sta, "ie": report.ie,
        "cda": report.cda, "qsr": report.qsr,
        "zone_count_answers": sorted({
            r["answer"] for log in first_logs for r in log.get("query_results", [])
            if r["question"]["kind"] == "zone_count"
        }),
    }
