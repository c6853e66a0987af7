"""The bytes `workcell run` writes for the shipped scenarios.

For each scenario, ``workcell run <scenario> --trials 3 --out <dir>
--trace`` runs in process. The SHA-256 of every file it writes and of its
stdout must equal the digest recorded in ``golden.json``. Float results can
differ under other versions of Python, numpy or scipy, so the file records
the versions its digests were taken with, and under others the test is
skipped.

After a change that is meant to alter the output, record the digests again
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from workcell import cli

from fixtures import SCENARIOS

GOLDEN = Path(__file__).with_name("golden.json")


def _env() -> dict:
    return {"python": ".".join(platform.python_version_tuple()[:2]),
            "numpy": np.__version__, "scipy": scipy.__version__}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(scenario: Path, out: Path) -> dict[str, str]:
    """File name -> SHA-256 for each file of one run, and for its stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["run", str(scenario), "--trials", "3", "--out", str(out), "--trace"])
    assert code == 0, f"{scenario.name}: workcell run exited {code}"
    digests = {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())}
    digests["stdout"] = _sha(stdout.getvalue().encode())
    return digests


def _all_digests(tmp: Path) -> dict[str, dict[str, str]]:
    return {s.name: _digests(s, tmp / s.stem) for s in sorted(SCENARIOS.glob("*.json"))}


def test_run_output_matches_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    if golden["env"] != _env():
        pytest.skip(f"digests recorded under {golden['env']}, running under {_env()}")
    got = _all_digests(tmp_path)
    differ = [f"{scenario}: {name}"
              for scenario in sorted(golden["digests"].keys() | got.keys())
              for name in sorted(golden["digests"].get(scenario, {}).keys()
                                 | got.get(scenario, {}).keys())
              if golden["digests"].get(scenario, {}).get(name)
              != got.get(scenario, {}).get(name)]
    assert not differ, "output differs from golden.json: " + ", ".join(differ)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {"env": _env(), "digests": _all_digests(Path(tmp))}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
