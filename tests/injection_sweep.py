"""TargetMoved sweep over the shipped scenarios.

Each variant of a shipped scenario carries one TargetMoved injection in
place of its own: one object moved 0.05 m along +x or +z, at each trigger
step from 1 to 15. Every variant must be accepted by ``validate_scenario``
and run one trial without raising.

    PYTHONPATH=src python tests/injection_sweep.py

Prints the count of variants, refused, run and raised, and each variant
that was refused or raised; exits 1 if any was. Pytest does not collect
this file.
"""

from __future__ import annotations

import copy
import json
import sys
import traceback

from fixtures import SCENARIOS
from workcell.harness import ScenarioSpec, run_scenario, validate_scenario

DELTAS = {"+x": [0.05, 0.0, 0.0], "+z": [0.0, 0.0, 0.05]}
TRIGGER_STEPS = range(1, 16)


def variants():
    """(name, document) for each object, delta and trigger step of each
    shipped scenario."""
    for scenario in sorted(SCENARIOS.glob("*.json")):
        base = json.loads(scenario.read_text())
        for obj in base["objects"]:
            for direction, delta in DELTAS.items():
                for step in TRIGGER_STEPS:
                    doc = copy.deepcopy(base)
                    doc["injections"] = [{
                        "kind": "TargetMoved", "trigger_step": step,
                        "params": {"target": obj["id"], "move_delta": delta},
                    }]
                    yield f"{scenario.stem} {obj['id']} {direction} step {step}", doc


def main() -> int:
    counts = {"variants": 0, "refused": 0, "ran": 0, "raised": 0}
    for name, doc in variants():
        counts["variants"] += 1
        errors = validate_scenario(doc)
        if errors:
            counts["refused"] += 1
            print(f"REFUSED {name}: {'; '.join(errors)}")
            continue
        try:
            run_scenario(ScenarioSpec(doc), trials=1)
            counts["ran"] += 1
        except Exception:
            counts["raised"] += 1
            print(f"RAISED {name}")
            traceback.print_exc(limit=1)
    print(json.dumps(counts))
    return 1 if counts["refused"] or counts["raised"] else 0


if __name__ == "__main__":
    sys.exit(main())
