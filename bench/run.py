"""workcell benchmark: closed-loop trials against the engine's public API.

    python3 bench/run.py --workload cluttered_assembly --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the engine is imported from
``src/`` and the shipped scenarios from ``scenarios/``. One client, one
process, one thread: each trial starts when the previous one ends. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of ``bench/spans.py`` with ``--trace 1``. The line before
it reports the seed, the environment and the behaviour fingerprint.
See ``bench/README.md`` for the workloads and what each metric should move.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the loop is single-threaded and the machine is shared.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("cluttered_assembly", "failure_recovery", "crowded_store")
SETUP_REPS = 3
MIN_PASSES = 2  # every input repeats, so determinism is checked in every run
MIN_STEPS = 100  # at least 10 step times beyond p90
REFERENCE_EVERY_S = 0.5


class StepClock:
    """The hooks every run keeps: one clock read per dispatch of the
    runtime's ``execute_skill``, and a handle on the store ``run_trial``
    builds, which is restored from ``preload`` when one is set."""

    def __init__(self, harness, store_cls):
        self.stamps: list[float] = []
        self.store = None
        self.preload: dict | None = None
        execute_skill = harness.TrialRuntime.execute_skill
        build_store = harness.build_store

        def timed_execute_skill(runtime, action, args):
            self.stamps.append(time.perf_counter())
            return execute_skill(runtime, action, args)

        def resumable_build_store(doc, world, priors=None):
            if self.preload is None:
                self.store = build_store(doc, world, priors)
            else:
                self.store = store_cls.from_dict(self.preload)
            return self.store

        harness.TrialRuntime.execute_skill = timed_execute_skill
        harness.build_store = resumable_build_store

    def start(self, preload: dict | None) -> None:
        self.stamps = []
        self.store = None
        self.preload = preload


def reference_ms() -> float:
    """Time one fixed piece of reference work, in ms.

    Its mix mirrors the engine's: canonical JSON and SHA-256 of a store-like
    document, small symmetric eigenproblems, and a pure-Python loop. The
    timed metrics are divided by its median, taken between trials of the
    same run, which cancels the speed of a machine shared with other load.
    """
    t = time.perf_counter()
    doc = {f"e{i}": {"mean": [0.1 * i, 0.2, 0.3], "label": f"l{i % 7}",
                     "cov": [[0.01, 0.0, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.01]],
                     "tags": {"a": i, "b": str(i)}} for i in range(200)}
    for _ in range(5):
        hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":"))
                       .encode()).hexdigest()
    m = 2.0 * np.eye(3)
    for _ in range(300):
        np.linalg.eigvalsh(m + m.T)
        np.allclose(m, m.T)
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return (time.perf_counter() - t) * 1e3


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup_s: float, trial_ms: list[float], step_ms: list[float],
               busy_s: float, ref_ms: list[float]) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, timings in units of the median reference time."""
    ref = statistics.median(ref_ms)
    return {
        "setup_s": (setup_s, "s"),
        "trial_ref_p50": (statistics.median(trial_ms) / ref, "ref"),
        "step_ref_p50": (statistics.median(step_ms) / ref, "ref"),
        "step_ref_p90": (quantile(step_ms, 90) / ref, "ref"),
        "steps_per_ref": (len(step_ms) * ref / (busy_s * 1e3), "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def environment() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [d for d in ("src/workcell", "scenarios") if not (ROOT / d).is_dir()]
    if missing:
        print(f"bench: {', '.join(missing)} not found under {ROOT}; run from a "
              "workcell source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workcell.harness as harness
    from spans import Probes, SpanRecorder, layer_metrics, unit_of
    from workcell.world_model import WorldStore
    from workloads import fingerprint, make_workload, trial_digest, trial_failures

    import_s = time.perf_counter() - _T0
    clock = StepClock(harness, WorldStore)

    # Set-up: generate and validate the inputs, build any preload, warm up.
    # Repeated so that set-up time is a median; imports happen once.
    setup_runs = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        workload = make_workload(args.workload, args.seed, ROOT)
        for inp in workload.warmup:
            clock.start(inp.preload)
            harness.run_trial(inp.spec, 0)
        setup_runs.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setup_runs)

    rec = SpanRecorder() if args.trace else None
    preload_rec = None
    if rec is not None and workload.trials[0].preload is not None:
        preload_rec = SpanRecorder()
        with Probes(preload_rec):  # time add_entity over a full preload
            make_workload(args.workload, args.seed, ROOT)
    # What set-up built stays alive for the whole run (the persisted
    # preload stands for memory on disk); keep the collector off it.
    gc.collect()
    gc.freeze()

    trials = workload.trials
    step_ms: list[float] = []
    trial_ms: list[float] = []
    traced_trial_ms: list[float] = []
    traced_steps = traced_trials = 0
    busy_s = 0.0
    ref_ms: list[float] = []
    last_ref = -math.inf
    digests: dict[str, tuple[str, str]] = {}
    first_logs: dict[str, dict] = {}
    failures: list[str] = []
    attempted = 0
    i = 0
    deadline = time.perf_counter() + args.seconds
    # Whole passes over the inputs, so every run measures the same mix; in
    # the traced run every other pass is traced.
    while (i % len(trials) or i < MIN_PASSES * len(trials)
           or len(step_ms) < MIN_STEPS or time.perf_counter() < deadline):
        if time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
            ref_ms.append(reference_ms())
            last_ref = time.perf_counter()
        inp = trials[i % len(trials)]
        traced = rec is not None and (i // len(trials)) % 2 == 1
        if traced:
            rec.trial = i
        clock.start(inp.preload)
        with Probes(rec) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            log = harness.run_trial(inp.spec, 0)
            t1 = time.perf_counter()
        steps = [(b - a) * 1e3 for a, b in zip(clock.stamps, clock.stamps[1:] + [t1])]
        if traced:
            traced_trial_ms.append((t1 - t0) * 1e3)
            traced_steps += len(steps)
            traced_trials += 1
        else:
            trial_ms.append((t1 - t0) * 1e3)
            step_ms.extend(steps)
            busy_s += t1 - t0

        reasons = trial_failures(log, inp.kind)
        digest = trial_digest(log, clock.store)
        if digests.setdefault(inp.key, digest) != digest:
            reasons.append("repeat gave a different trace or store")
        first_logs.setdefault(inp.key, log)
        attempted += 1
        if reasons:
            failures.append(f"{inp.key}: {'; '.join(reasons)}")
        i += 1

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "env": environment(),
        "trials": attempted,
        "steps": len(step_ms),
        "ms": {"trial_ms_p50": statistics.median(trial_ms),
               "step_ms_p50": statistics.median(step_ms),
               "step_ms_p90": quantile(step_ms, 90),
               "steps_per_s": len(step_ms) / busy_s,
               "reference_ms": statistics.median(ref_ms),
               "reference_runs": len(ref_ms)},
        "failed_trial_frac": len(failures) / attempted,
        "failures": failures[:10],
        "fingerprint": fingerprint([first_logs[t.key] for t in trials],
                                   [digests[t.key] for t in trials]),
    }
    if rec is None:
        metrics = end_to_end(setup_s, trial_ms, step_ms, busy_s, ref_ms)
    else:
        layers = layer_metrics(rec, traced_steps, traced_trials, traced_trial_ms, trial_ms,
                               preload_rec)
        metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
        out_dir = ROOT / "bench" / "out"
        out_dir.mkdir(exist_ok=True)
        rec.dump(out_dir / f"spans_{args.workload}_seed{args.seed}.json")

    for name, (value, unit) in metrics.items():
        print(f"{name:58s} {value:14.6g} {unit}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
