"""Self-tests of the benchmark: seeded generators, span arithmetic, the
correctness gate, and agreement between the code and BENCHMARK.json."""

import copy
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest  # noqa: E402

import run  # noqa: E402
import workcell.executive as executive  # noqa: E402
import workcell.world_model as world_model  # noqa: E402
from spans import Probes, SpanRecorder, layer_metrics, self_times, unit_of  # noqa: E402
from workcell.harness import validate_scenario  # noqa: E402
from workloads import (  # noqa: E402
    CLUTTER_CLEARANCE,
    CLUTTER_COUNT,
    WORKLOADS,
    _footprint_gap,
    make_workload,
    trial_failures,
)


def _inputs(workload):
    return [(t.key, t.kind, t.spec.doc, t.preload) for t in workload.trials]


@pytest.mark.parametrize("name", WORKLOADS)
def test_generators_repeat_for_the_same_seed(name):
    first = make_workload(name, 7, ROOT)
    again = make_workload(name, 7, ROOT)
    assert _inputs(first) == _inputs(again)
    for t in first.trials:
        assert validate_scenario(t.spec.doc) == []


def test_seed_changes_the_generated_inputs():
    a = make_workload("cluttered_assembly", 1, ROOT)
    b = make_workload("cluttered_assembly", 2, ROOT)
    assert _inputs(a) != _inputs(b)
    c = make_workload("crowded_store", 1, ROOT)
    d = make_workload("crowded_store", 2, ROOT)
    assert c.trials[0].preload != d.trials[0].preload


def test_clutter_keeps_its_clearance():
    for t in make_workload("cluttered_assembly", 3, ROOT).trials:
        objects = t.spec.doc["objects"]
        clutter = [o for o in objects if o["id"].startswith("clutter_")]
        assert len(clutter) == CLUTTER_COUNT
        for c in clutter:
            for o in objects:
                if o is not c:
                    gap = _footprint_gap(c["position"], c["half_extents"],
                                         o["position"], o["half_extents"])
                    assert gap >= CLUTTER_CLEARANCE


def test_self_time_subtracts_child_coverage():
    spans = [
        ["root", 0, 100, -1, 0],
        ["a", 10, 30, 0, 0],
        ["b", 40, 70, 0, 0],
        ["c", 45, 50, 2, 0],
        ["d", 60, 80, 2, 0],  # runs past its parent's end: clipped
    ]
    assert self_times(spans) == [100 - 20 - 30, 20, 30 - 5 - 10, 5, 20]


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0, 100, -1, 0], ["a", 10, 40, 0, 0], ["b", 20, 50, 0, 0]]
    assert self_times(spans)[0] == 100 - 40


def _passing_log(kind):
    return {
        "success": True,
        "log_chain_valid": True,
        "sta_samples": [{"step": 1, "oov_correct": {"wrench": True}}],
        "question_results": [{"question": {"kind": "zone_of"}, "correct": True}],
        "diagnostics": [{"round": 1, "category": "MotionInterrupted",
                         "failed_action": "Move", "drift_flagged": []}],
        "expected_root_cause": "Obstacle" if kind == "recovery" else None,
    }


@pytest.mark.parametrize("kind", ["assembly", "recovery"])
def test_gate_passes_a_good_log(kind):
    assert trial_failures(_passing_log(kind), kind) == []


def test_gate_fails_an_incomplete_trial():
    log = _passing_log("assembly")
    log["success"] = False
    assert trial_failures(log, "assembly") == ["incomplete"]


def test_gate_fails_a_wrong_diagnosis():
    log = _passing_log("recovery")
    log["diagnostics"][-1]["category"] = "GraspSlip"
    assert len(trial_failures(log, "recovery")) == 1
    log["diagnostics"] = []
    assert len(trial_failures(log, "recovery")) == 1


def test_gate_fails_low_sta_a_wrong_answer_and_a_broken_chain():
    log = _passing_log("assembly")
    log["sta_samples"][0]["oov_correct"]["widget"] = False
    log["question_results"][0]["correct"] = False
    log["log_chain_valid"] = False
    assert len(trial_failures(log, "assembly")) == 3


def test_probes_restore_what_they_replaced():
    before = (executive.apply_transition,
              world_model.WorldStore.__dict__["from_dict"],
              world_model.WorldStore.__dict__["state_hash"])
    rec = SpanRecorder()
    with Probes(rec):
        assert executive.apply_transition is not before[0]
        store = world_model.WorldStore()
        store.state_hash()
        world_model.WorldStore.from_dict(copy.deepcopy(store.to_dict()))
    after = (executive.apply_transition,
             world_model.WorldStore.__dict__["from_dict"],
             world_model.WorldStore.__dict__["state_hash"])
    assert after == before
    assert [s[0] for s in rec.spans] == ["world_model.state_hash", "world_model.from_dict"]
    assert rec.counts["world_model.hash_bytes"] == len(world_model.canonical_dumps(
        store.to_dict()))


def test_layer_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    reported = layer_metrics(SpanRecorder(), 1, 1, [1.0], [1.0])
    assert per_layer == {name: unit_of(name) for name in reported}


def test_end_to_end_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    reported = run.end_to_end(1.0, [20.0, 30.0], [4.0] * 50 + [6.0] * 50, 0.05, [25.0])
    assert {name: unit for name, (_, unit) in reported.items()} == expected
    assert reported["trial_ref_p50"][0] == pytest.approx(1.0)
    assert reported["steps_per_ref"][0] == pytest.approx(100 * 25.0 / 50.0)


def test_cli_offers_every_workload():
    assert run.WORKLOAD_NAMES == WORKLOADS
