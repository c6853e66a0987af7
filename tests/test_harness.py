"""Scenario harness: validation, briefing store, structured questions,
metrics, the trial runner, and the CLI."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workcell.harness as harness
from workcell import cli, simulator
from workcell.errors import ScenarioError, WorkcellError
from workcell.geometry import GaussianEnvelope
from workcell.harness import (
    ScenarioSpec,
    answer_question,
    build_store,
    build_world,
    classify_root_cause,
    compute_metrics,
    load_scenario,
    metrics_from_dir,
    run_scenario,
    run_trial,
    sta_from_samples,
    validate_scenario,
)
from workcell.world_model import EdgeStatus, Lifecycle, WorldStore, ZoneNode

from fixtures import task1_doc, task3_doc
from oracles import store_digest

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _env(mean, sigma=0.01):
    return GaussianEnvelope(np.asarray(mean, dtype=float), sigma * np.eye(3))


# -- scenario validation ------------------------------------------------------


def test_validate_scenario_ok():
    assert validate_scenario(task1_doc()) == []
    for kind in ("PartSlip", "Obstacle", "TargetMoved"):
        assert validate_scenario(task3_doc(kind)) == []


def test_validate_scenario_collects_all_errors():
    doc = copy.deepcopy(task1_doc())
    doc["version"] = 99
    doc["objects"].append(dict(doc["objects"][0]))  # duplicate id
    doc["objects"][0]["zone"] = "nowhere"
    doc["robot"]["zone"] = "nowhere"
    doc["questions"].append({"kind": "telepathy"})
    errors = validate_scenario(doc)
    assert len(errors) >= 5
    joined = "\n".join(errors)
    assert "version" in joined and "duplicate" in joined
    assert "telepathy" in joined


def test_validate_targetmoved_needs_known_target():
    doc = copy.deepcopy(task3_doc("TargetMoved"))
    doc["injections"][0]["params"]["target"] = "phantom"
    assert any("unknown target" in e for e in validate_scenario(doc))


def test_load_scenario_rejects_invalid(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 0}))
    with pytest.raises(ScenarioError):
        load_scenario(str(bad))


# -- briefing store -----------------------------------------------------------


def test_build_store_mirrors_briefing_map():
    doc = task1_doc()
    world = build_world(doc, trial_seed=0)
    store = build_store(doc, world)
    for o in doc["objects"]:
        v = store.vertices[o["id"]]
        assert v.label == o["label"] and v.zone_id == o["zone"]
        mean = store.records[v.grounding].envelope.mean
        assert np.allclose(mean, o["position"])
    # Briefed support relations arrive as verified edges.
    gt_on = {(s, o) for p, s, o in world.ground_truth_relations() if p == "On"}
    believed = {(e.subject, e.obj) for e in store.find_edges(predicate="On")}
    assert believed == gt_on
    assert store.robot_zone == world.robot_zone
    store.check_integrity()


# -- questions ----------------------------------------------------------------


def _question_store():
    store = WorldStore()
    store.add_zone(ZoneNode("z1", "z1"))
    store.robot_zone = "z1"
    store.add_entity("bolt", _env([0.5, 0.1, 0.02]), "z1",
                     attributes={"color": "red"}, uid="bolt")
    store.add_entity("tray", _env([0.7, 0.1, 0.02]), "z1", uid="tray")
    store.add_edge("On", "bolt", "tray")
    return store


def test_answer_question_all_kinds():
    store = _question_store()
    ans, ok = answer_question(store, {"kind": "position", "uid": "bolt",
                                      "expect": [0.5, 0.1, 0.02]})
    assert ok and np.allclose(ans, [0.5, 0.1, 0.02])
    _, ok = answer_question(store, {"kind": "position", "uid": "bolt",
                                    "expect": [0.9, 0.1, 0.02]})
    assert not ok
    ans, ok = answer_question(store, {"kind": "relation", "predicate": "On",
                                      "subject": "bolt", "object": "tray",
                                      "expect": True})
    assert ans is True and ok
    ans, ok = answer_question(store, {"kind": "attribute", "uid": "bolt",
                                      "key": "color", "expect": "red"})
    assert ans == "red" and ok
    ans, ok = answer_question(store, {"kind": "zone_of", "uid": "tray",
                                      "expect": "z1"})
    assert ans == "z1" and ok
    ans, ok = answer_question(store, {"kind": "zone_count", "zone": "z1",
                                      "expect": 2})
    assert ans == 2 and ok
    with pytest.raises(ScenarioError):
        answer_question(store, {"kind": "telepathy"})


def test_answer_question_archived_is_unanswerable():
    store = _question_store()
    store.update_vertex("bolt", lifecycle=Lifecycle.ARCHIVED)
    ans, ok = answer_question(store, {"kind": "position", "uid": "bolt",
                                      "expect": [0.5, 0.1, 0.02]})
    assert ans is None and not ok


# -- root-cause classification ------------------------------------------------


def test_classify_root_cause_table():
    assert classify_root_cause("MotionInterrupted", "Move", False) == "Obstacle"
    assert classify_root_cause("GraspSlip", "Move", False) == "PartSlip"
    assert classify_root_cause("GraspSlip", "Pick", True) == "TargetMoved"
    assert classify_root_cause("GraspSlip", "Pick", False) == "PartSlip"
    assert classify_root_cause("Unknown", "Move", False) == "Unknown"


# -- metrics ------------------------------------------------------------------


def test_sta_from_samples_arithmetic():
    samples = [
        {"step": 1, "oov_correct": {"a": True, "b": False}},   # 50%
        {"step": 2, "oov_correct": {"a": True, "b": True}},    # 100%
    ]
    assert sta_from_samples(samples) == pytest.approx(75.0)
    assert sta_from_samples([]) is None
    assert sta_from_samples([{"step": 0, "oov_correct": {}}]) is None


def test_compute_metrics_reduction():
    logs = [
        {"trial": 0, "success": True, "n_init": 4, "n_replan": 1,
         "sta_samples": [{"step": 0, "oov_correct": {"a": True}}],
         "diagnostics": [{"category": "GraspSlip", "failed_action": "Move",
                          "drift_flagged": False}],
         "expected_root_cause": "PartSlip",
         "question_results": [{"correct": True}, {"correct": False}],
         "query_results": [{"correct": True}], "n_items": 2},
        {"trial": 1, "success": False, "n_init": 3, "n_replan": 0,
         "sta_samples": [], "diagnostics": [], "expected_root_cause": None,
         "question_results": [], "query_results": [], "n_items": 0},
    ]
    rep = compute_metrics(logs)
    assert rep.tsr == pytest.approx(50.0)
    assert rep.sta == pytest.approx(100.0)
    assert rep.pe == 8 and rep.n_init == 7 and rep.n_replan == 1
    assert rep.ie == pytest.approx(50.0)
    assert rep.cda == pytest.approx(100.0)
    assert rep.qsr == pytest.approx(100.0)
    assert len(rep.per_trial) == 2
    assert "TSR" in rep.table()
    with pytest.raises(ScenarioError):
        compute_metrics([])


# -- trial runner -------------------------------------------------------------


def test_run_trial_nominal_task_succeeds():
    log = run_trial(ScenarioSpec(task1_doc()), 0)
    assert log["success"] and log["n_replan"] == 0
    assert log["log_chain_valid"]
    assert all(r["correct"] for r in log["question_results"])
    assert log["trace"], "trace should record executed primitives"


def test_run_trial_deterministic_across_runs():
    spec = ScenarioSpec(task1_doc())
    a, b = run_trial(spec, 0), run_trial(spec, 0)
    assert a["store_hash"] == b["store_hash"]
    assert a["sta_samples"] == b["sta_samples"]


def test_run_scenario_writes_artifacts(tmp_path):
    out = tmp_path / "traces"
    report, logs = run_scenario(ScenarioSpec(task1_doc()), out_dir=out, trials=2)
    assert report.tsr == pytest.approx(100.0)
    assert sorted(p.name for p in out.glob("trial_*.json")) == \
        ["trial_000.json", "trial_001.json"]
    assert sorted(p.name for p in out.glob("trace_*.ndjson")) == \
        ["trace_000.ndjson", "trace_001.ndjson"]
    recomputed = metrics_from_dir(out)
    assert recomputed.to_dict() == json.loads((out / "metrics.json").read_text())


@pytest.mark.parametrize("key,reply,kind", [
    ("similarity_default", 1.7, "SemanticSimilarity"),
    ("reliability_default", "Maybe", "ReliabilityJudgment"),
])
def test_run_scenario_rejects_out_of_range_reasoner_replies(key, reply, kind):
    doc = task1_doc()
    doc[key] = reply
    with pytest.raises(WorkcellError, match=kind):
        run_scenario(ScenarioSpec(doc), trials=1)


def test_metrics_from_dir_empty_raises(tmp_path):
    with pytest.raises(ScenarioError):
        metrics_from_dir(tmp_path)


# -- store hash cache ---------------------------------------------------------


@pytest.fixture
def checked_hashes(monkeypatch):
    """Every state_hash call, checked against the digest computed from
    scratch; a write that did not drop its cached text fails here."""
    digests = []
    cached = WorldStore.state_hash

    def checked(store):
        digest = cached(store)
        assert digest == store_digest(store), "state_hash missed a change"
        digests.append(digest)
        return digest

    monkeypatch.setattr(WorldStore, "state_hash", checked)
    return digests


def test_hash_cache_matches_scratch_digest_on_shipped_scenarios(checked_hashes):
    paths = sorted(SCENARIOS.glob("*.json"))
    assert len(paths) == 4
    for path in paths:
        report, logs = run_scenario(load_scenario(path))
        assert report.tsr == pytest.approx(100.0)
        assert logs[-1]["store_hash"] == checked_hashes[-1]
    assert len(checked_hashes) > 4 * 10


def test_hash_cache_matches_scratch_digest_on_resumed_store(checked_hashes, monkeypatch):
    # An assembly trial resumed from persisted memory: the briefing store
    # plus 300 remembered entities and 150 On edges in a camera-less zone.
    doc = task1_doc()
    store = build_store(doc, build_world(doc, trial_seed=0))
    store.add_zone(ZoneNode("stock", "stock"))
    rng = np.random.default_rng(5)
    for i in range(300):
        store.add_entity("crate", _env([5.0 + rng.uniform(-0.2, 0.2), 0.01 * i, 0.02]),
                         "stock", uid=f"crate_{i:03d}")
    order = rng.permutation(300)
    for k in range(150):
        store.add_edge("On", f"crate_{order[2 * k]:03d}", f"crate_{order[2 * k + 1]:03d}",
                       EdgeStatus.VERIFIED)
    saved = store.to_dict()
    monkeypatch.setattr(harness, "build_store",
                        lambda doc, world, priors=None: WorldStore.from_dict(saved))
    log = run_trial(ScenarioSpec(doc), 0)
    assert log["success"] and log["log_chain_valid"]
    assert log["store_hash"] == checked_hashes[-1]
    assert len(checked_hashes) > 10


# -- frame reuse --------------------------------------------------------------


@pytest.mark.parametrize("name", ["assembly.json", "transfer_targetmoved.json"])
def test_each_world_state_is_rendered_once(name, monkeypatch):
    """A trial renders at most once per skill dispatch plus once at the
    start, and every STA sample equals the one a fresh render of the same
    world state gives, so a frame kept across a ``TargetMoved``
    displacement fails here."""
    fresh = simulator.render_frame
    calls = {"render": 0, "dispatch": 0, "samples": 0}

    def counted_render(world, camera):
        calls["render"] += 1
        return fresh(world, camera)

    def counted_dispatch(self, action, args):
        calls["dispatch"] += 1
        return dispatch(self, action, args)

    def checked_sample(self):
        before = len(self.sta_samples)
        record(self)
        kept = len(self.sta_samples)
        self.frame = lambda: fresh(self.world, self.active_camera())
        try:
            record(self)
        finally:
            del self.frame
        assert self.sta_samples[kept:] == self.sta_samples[before:kept]
        del self.sta_samples[kept:]
        calls["samples"] += kept - before

    def checked_trial(spec, trial_index, priors=None):
        calls.update(render=0, dispatch=0)
        log = trial(spec, trial_index, priors)
        assert 0 < calls["render"] <= calls["dispatch"] + 1
        return log

    dispatch = harness.TrialRuntime.execute_skill
    record = harness.TrialRuntime.record_sta_sample
    trial = harness.run_trial
    monkeypatch.setattr(harness, "render_frame", counted_render)
    monkeypatch.setattr(harness.TrialRuntime, "execute_skill", counted_dispatch)
    monkeypatch.setattr(harness.TrialRuntime, "record_sta_sample", checked_sample)
    monkeypatch.setattr(harness, "run_trial", checked_trial)
    report, _logs = run_scenario(load_scenario(SCENARIOS / name))
    assert report.tsr == pytest.approx(100.0)
    assert calls["samples"] > 0


# -- CLI ----------------------------------------------------------------------


def test_cli_validate_run_metrics(tmp_path, capsys):
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(task1_doc()))
    assert cli.main(["validate", str(scen)]) == 0
    assert "ok" in capsys.readouterr().out

    out = tmp_path / "out"
    assert cli.main(["run", str(scen), "--trials", "1",
                     "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "TSR" in stdout

    assert cli.main(["metrics", str(out)]) == 0
    assert "TSR" in capsys.readouterr().out


def test_shipped_scenarios_validate_and_run(capsys):
    scen_dir = SCENARIOS
    paths = sorted(scen_dir.glob("*.json"))
    assert len(paths) >= 4
    for path in paths:
        assert cli.main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["run", str(scen_dir / "assembly.json")]) == 0
    assert "TSR %       100.00" in capsys.readouterr().out


def test_cli_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 0}))
    assert cli.main(["validate", str(bad)]) == 1
    assert "error" in capsys.readouterr().err
    assert cli.main(["metrics", str(tmp_path / "missing")]) == 1


# -- import path --------------------------------------------------------------


def test_engine_import_leaves_out_scipy_stats():
    # scipy.stats is slow and large to import, and the engine has no use
    # for it; a fresh interpreter shows what the import path pulls in.
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, workcell.harness; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"
