"""Shared scenario documents for harness and acceptance tests.

The two desk-scale fixtures are the shipped scenario files: a three-zone
assembly task, and a single-transfer task with one injectable failure
(part slip, obstacle, or moved target) plus the scripted recovery for it.
"""

from __future__ import annotations

import json
from pathlib import Path

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def ert_doc(action, args, expected_cs, add=(), remove=(), beliefs=(),
            positions=None, confidence=0.95, fallback=None):
    return {
        "action_proposal": {"action": action, "args": dict(args)},
        "world_belief": [list(b) for b in beliefs],
        "causal_assump": {
            "expected_cs": dict(expected_cs),
            "add_relations": [list(r) for r in add],
            "remove_relations": [list(r) for r in remove],
            "expected_positions": dict(positions or {}),
        },
        "confidence": confidence,
        "fallback": fallback,
    }


def leaves(value, path=()):
    """The path of every value in a JSON document that is not an object
    or a list."""
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from leaves(item, (*path, key))
    else:
        yield list(path)


def _load(name: str) -> dict:
    return json.loads((SCENARIOS / name).read_text())


def task1_doc() -> dict:
    """Three-zone assembly: two parts stacked onto a plate, with the
    storage-zone objects out of view for the whole run."""
    return _load("assembly.json")


def task3_doc(kind: str) -> dict:
    """Single transfer with one injected failure and its scripted recovery."""
    if kind not in ("PartSlip", "Obstacle", "TargetMoved"):
        raise ValueError(f"unknown failure kind {kind!r}")
    return _load(f"transfer_{kind.lower()}.json")
