"""Span recorder for the traced run, and the per-layer metrics derived from it.

The engine has no instrumentation of its own, so the traced run wraps the
public functions of each ``workcell`` module at the place its caller looks
them up (``workcell.executive.apply_transition``, ``workcell.harness.
render_frame``, a method on its class, ...). Spans are kept in memory and
written out once at the end. Hot constructors are counted, not spanned.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from time import perf_counter_ns

import numpy as np

import workcell.association as association
import workcell.cognition as cognition
import workcell.executive as executive
import workcell.geometry as geometry
import workcell.harness as harness
import workcell.serialization as serialization
import workcell.simulator as simulator
import workcell.transactions as transactions
import workcell.world_model as world_model
from workcell.cognition import RequestKind

NAME, START, END, PARENT, TRIAL = range(5)


class SpanRecorder:
    """Nested spans ``[name, start_ns, end_ns, parent_index, trial]`` plus
    named counters, for a single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.trial = -1
        self._stack: list[int] = []

    def open_span(self) -> str | None:
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    def span(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.trial]
            self.spans.append(span)
            self._stack.append(idx)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                self._stack.pop()
            if after is not None:
                after(self, result, args)
            return result
        return wrapper

    def count(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(self, result, args)
            return result
        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "trial"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of its interval that its child
    spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s[START]
        for start, end in sorted(children.get(i, [])):
            start, end = max(start, reach), min(end, s[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(s[END] - s[START] - covered)
    return out


# -- probes ------------------------------------------------------------------------


def _on_snapshot(rec, observations, _args):
    rec.counts["perception.observations"] += len(observations)


def _on_cost_matrix(rec, cost, _args):
    rec.counts["association.pairs"] += int(cost.size)
    rec.counts["association.gated"] += int(np.isinf(cost).sum())


def _on_register(rec, delta, _args):
    rec.counts["world_model.promoted"] += len(delta.promoted)


def _on_transition(rec, result, _args):
    if result.status == transactions.TransitionStatus.ROLLED_BACK:
        rec.counts["transactions.reverted"] += 1


def _on_rollback(rec, _cs, _args):
    rec.counts["transactions.reverted"] += 1


def _on_validate(rec, result, _args):
    if result[0] is not None:
        rec.counts["cognition.valid_erts"] += 1


def _on_subgraph(rec, sub, _args):
    rec.counts["cognition.subgraph_vertices"] += len(sub.vertices)


def _on_query(rec, _response, args):
    rec.counts[f"cognition.reasoner_calls.{args[1].kind.value}"] += 1


def _on_dumps(rec, text, _args):
    if rec.open_span() == "world_model.state_hash":
        rec.counts["world_model.hash_bytes"] += len(text)  # ASCII JSON


H, S, W, T = harness, simulator, world_model, transactions
SPANS = [
    (H, "run_trial", "harness.run_trial", None),
    (H.TrialRuntime, "execute_skill", "harness.execute_skill", None),
    (H.TrialRuntime, "sense", "harness.sense", None),
    (H.TrialRuntime, "record_sta_sample", "harness.record_sta_sample", None),
    (H, "render_frame", "simulator.render_frame", None),
    (S, "render_frame", "simulator.render_frame", None),
    (H, "visible_pixel_counts", "simulator.visible_pixel_counts", None),
    (S.SimWorld, "execute_skill", "simulator.execute_skill", None),
    (H, "assemble_snapshot", "perception.assemble_snapshot", _on_snapshot),
    (H, "build_cost_matrix", "association.build_cost_matrix", _on_cost_matrix),
    (H, "assign", "association.assign", None),
    (W, "fuse", "association.fuse", None),
    (H, "register_or_update", "world_model.register_or_update", _on_register),
    (H, "curate_zone", "world_model.curate_zone", None),
    (W.WorldStore, "state_hash", "world_model.state_hash", None),
    (W.WorldStore, "from_dict", "world_model.from_dict", None),
    (W.WorldStore, "add_entity", "world_model.add_entity", None),
    (executive, "apply_transition", "transactions.apply_transition", _on_transition),
    (T, "capture_inverse", "transactions.capture_inverse", None),
    (T, "apply_inverse", "transactions.apply_inverse", None),
    (executive, "rollback", "transactions.rollback", _on_rollback),
    (cognition, "validate_ert", "cognition.validate_ert", _on_validate),
    (executive, "validate_ert", "cognition.validate_ert", _on_validate),
    (executive, "extract_subgraph", "cognition.extract_subgraph", _on_subgraph),
    (executive.Executive, "main_loop", "executive.main_loop", None),
    (executive, "compute_discrepancy", "executive.compute_discrepancy", None),
]
COUNTS = [
    (geometry.GaussianEnvelope, "__post_init__", "geometry.envelopes", None),
    (geometry.PoseSE3, "__post_init__", "geometry.rotation_checks", None),
    (geometry.OrientedBox, "__post_init__", "geometry.rotation_checks", None),
    (association, "mahalanobis_between", "geometry.mahalanobis", None),
    (W, "mahalanobis_between", "geometry.mahalanobis", None),
    (W.WorldStore, "find_edges", "world_model.find_edges", None),
    (cognition.ScriptedReasoner, "query", "cognition.reasoner_calls", _on_query),
    (serialization, "canonical_dumps", "serialization.canonical_dumps", _on_dumps),
]


class Probes:
    """Installs the wrappers for one recorder; ``remove`` restores exactly
    what was there before."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for table, make in ((SPANS, self.rec.span), (COUNTS, self.rec.count)):
            for owner, attr, name, after in table:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(make(name, raw.__func__, after))
                else:
                    new = make(name, raw, after)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)

    def remove(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        self.install()
        return self.rec

    def __exit__(self, *exc):
        self.remove()


# -- per-layer metrics -------------------------------------------------------------


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    last = name.rsplit(".", 1)[-1]
    if "ms_per" in last or last.endswith("_ms"):
        return "ms"
    if last.startswith("us_"):
        return "us"
    if last.endswith(("_frac", "_share")):
        return "ratio"
    return "count"


def layer_metrics(rec: SpanRecorder, n_steps: int, n_trials: int,
                  traced_trial_ms: list[float], untraced_trial_ms: list[float],
                  preload: SpanRecorder | None = None) -> dict:
    """Per-step and per-trial figures over the traced trials (trial >= 0).
    ``add_entity`` is timed over the traced preload when there is one."""
    selfs = self_times(rec.spans)
    total_ns, self_ns, calls = Counter(), Counter(), Counter()
    for s, own in zip(rec.spans, selfs):
        dur = s[END] - s[START]
        if s[TRIAL] >= 0:
            total_ns[s[NAME]] += dur
            self_ns[s[NAME]] += own
            calls[s[NAME]] += 1
    c = rec.counts
    steps, trials = max(n_steps, 1), max(n_trials, 1)
    trial_ns = max(total_ns["harness.run_trial"], 1)

    def ms_step(name):
        return total_ns[name] / 1e6 / steps

    def self_ms_step(name):
        return self_ns[name] / 1e6 / steps

    def ms_trial(name):
        return total_ns[name] / 1e6 / trials

    def share(*names):
        return sum(total_ns[n] for n in names) / trial_ns

    def ratio(a, b):
        return a / b if b else 0.0

    # Build time: from run_trial's start to the executive's first main loop.
    loop_start: dict[int, int] = {}
    trial_start: dict[int, int] = {}
    for s in rec.spans:
        if s[TRIAL] < 0:
            continue
        if s[NAME] == "executive.main_loop":
            loop_start.setdefault(s[TRIAL], s[START])
        elif s[NAME] == "harness.run_trial":
            trial_start[s[TRIAL]] = s[START]
    builds = [loop_start[t] - trial_start[t] for t in trial_start if t in loop_start]

    fuse_us = [(s[END] - s[START]) / 1e3 for s in rec.spans
               if s[NAME] == "association.fuse" and s[TRIAL] >= 0]
    add_us = [(s[END] - s[START]) / 1e3 for s in (preload or rec).spans
              if s[NAME] == "world_model.add_entity"]

    m = {
        "simulator.render_frame.calls_per_step": calls["simulator.render_frame"] / steps,
        "simulator.render_frame.ms_per_step": ms_step("simulator.render_frame"),
        "simulator.render_frame.trial_share": share("simulator.render_frame"),
        "simulator.visible_pixel_counts.ms_per_step": ms_step("simulator.visible_pixel_counts"),
        "simulator.execute_skill.ms_per_step": ms_step("simulator.execute_skill"),
        "perception.assemble_snapshot.ms_per_step": ms_step("perception.assemble_snapshot"),
        "perception.observations_per_snapshot": ratio(
            c["perception.observations"], calls["perception.assemble_snapshot"]),
        "association.build_cost_matrix.ms_per_step": ms_step("association.build_cost_matrix"),
        "association.pairs_per_step": c["association.pairs"] / steps,
        "association.gated_frac": ratio(c["association.gated"], c["association.pairs"]),
        "association.assign.ms_per_step": ms_step("association.assign"),
        "association.fuse.calls_per_step": calls["association.fuse"] / steps,
        "association.fuse.us_p50": statistics.median(fuse_us) if fuse_us else 0.0,
        "association.trial_share": share("association.build_cost_matrix",
                                         "association.assign", "association.fuse"),
        "geometry.envelopes_per_step": c["geometry.envelopes"] / steps,
        "geometry.rotation_checks_per_step": c["geometry.rotation_checks"] / steps,
        "geometry.mahalanobis.calls_per_step": c["geometry.mahalanobis"] / steps,
        "world_model.state_hash.calls_per_step": calls["world_model.state_hash"] / steps,
        "world_model.state_hash.ms_per_step": ms_step("world_model.state_hash"),
        "world_model.state_hash.trial_share": share("world_model.state_hash"),
        "world_model.hash_bytes_per_step": c["world_model.hash_bytes"] / steps,
        "world_model.register_or_update.ms_per_step": ms_step("world_model.register_or_update"),
        "world_model.curate_zone.ms_per_step": ms_step("world_model.curate_zone"),
        "world_model.promoted_per_trial": c["world_model.promoted"] / trials,
        "world_model.find_edges.calls_per_step": c["world_model.find_edges"] / steps,
        "world_model.from_dict.ms_per_trial": ms_trial("world_model.from_dict"),
        "world_model.add_entity.us_mean": statistics.fmean(add_us) if add_us else 0.0,
        "transactions.apply_transition.self_ms_per_step":
            self_ms_step("transactions.apply_transition"),
        "transactions.capture_inverse.ms_per_step": ms_step("transactions.capture_inverse"),
        "transactions.apply_inverse.calls_per_trial":
            calls["transactions.apply_inverse"] / trials,
        "transactions.apply_inverse.ms_per_trial": ms_trial("transactions.apply_inverse"),
        "transactions.reverted_frac": ratio(
            c["transactions.reverted"], calls["transactions.apply_transition"]),
        "cognition.validate_ert.ms_per_step": ms_step("cognition.validate_ert"),
        "cognition.ert_attempts_per_valid": ratio(
            calls["cognition.validate_ert"], c["cognition.valid_erts"]),
        "cognition.extract_subgraph.ms_per_step": ms_step("cognition.extract_subgraph"),
        "cognition.subgraph_vertices_mean": ratio(
            c["cognition.subgraph_vertices"], calls["cognition.extract_subgraph"]),
    }
    for kind in RequestKind:
        m[f"cognition.reasoner_calls.{kind.value}_per_trial"] = (
            c[f"cognition.reasoner_calls.{kind.value}"] / trials)
    m.update({
        "executive.self_ms_per_step": self_ms_step("executive.main_loop"),
        "executive.compute_discrepancy.ms_per_trial": ms_trial("executive.compute_discrepancy"),
        "executive.diagnosis_rounds_per_trial":
            calls["executive.compute_discrepancy"] / trials,
        "harness.sense.self_ms_per_step": self_ms_step("harness.sense"),
        "harness.record_sta_sample.self_ms_per_step": self_ms_step("harness.record_sta_sample"),
        "harness.trial_build_ms": statistics.median(builds) / 1e6 if builds else 0.0,
        "trace.overhead_frac": (statistics.median(traced_trial_ms)
                                / statistics.median(untraced_trial_ms) - 1.0),
    })
    return m
