"""Vocabulary sweep over the shipped scenarios' scripted replies.

Every string leaf of every scripted reply is replaced, one at a time,
with each other name the scenario's briefing store knows: every vertex
uid (the robot's included), every zone id and every label. Each mutant
must either be refused by ``validate_scenario`` or run one trial without
raising.

    PYTHONPATH=src python tests/vocab_sweep.py

Prints the count of mutants, refused and run, and each mutant that raised;
exits 1 if any raised. Pytest does not collect this file.
"""

from __future__ import annotations

import copy
import json
import sys
import traceback

from fixtures import SCENARIOS, leaves
from workcell.harness import (
    ScenarioSpec,
    build_store,
    build_world,
    run_scenario,
    validate_scenario,
)


def vocabulary(doc: dict) -> list[str]:
    """Every name the briefing store of ``doc`` knows."""
    store = build_store(doc, build_world(doc))
    return sorted({*store.vertices, *store.zones,
                   *(v.label for v in store.vertices.values())})


def _parent(doc, path):
    """The container holding the value at ``path``, and its key there."""
    *parents, last = path
    for key in parents:
        doc = doc[key]
    return doc, last


def mutants():
    """(scenario, document, path, name) for each string leaf of each
    scripted reply and each name other than the leaf's own."""
    for scenario in sorted(SCENARIOS.glob("*.json")):
        doc = json.loads(scenario.read_text())
        names = vocabulary(doc)
        for i, rule in enumerate(doc["script"]):
            for j, reply in enumerate(rule["responses"]):
                for leaf in leaves(reply):
                    path = ["script", i, "responses", j, *leaf]
                    parent, key = _parent(doc, path)
                    if isinstance(parent[key], str):
                        for name in names:
                            if name != parent[key]:
                                yield scenario.stem, doc, path, name


def main() -> int:
    counts = {"mutants": 0, "refused": 0, "ran": 0, "raised": 0}
    for scenario, original, path, name in mutants():
        doc = copy.deepcopy(original)
        parent, key = _parent(doc, path)
        parent[key] = name
        counts["mutants"] += 1
        if validate_scenario(doc):
            counts["refused"] += 1
            continue
        try:
            run_scenario(ScenarioSpec(doc), trials=1)
            counts["ran"] += 1
        except Exception:
            counts["raised"] += 1
            print(f"RAISED {scenario} {path} = {name!r}")
            traceback.print_exc(limit=1)
    print(json.dumps(counts))
    return 1 if counts["raised"] else 0


if __name__ == "__main__":
    sys.exit(main())
