"""Workloads, measurement and correctness checks of the hermcap benchmark.

A workload is one seeded ``run_spectrum`` sweep configuration.  The timed pass
(:func:`measure`) builds the model several times, then runs sweeps of a fixed
run count back to back (a closed loop, one sweep at a time) until the time
window is spent, each sweep under a fresh master seed drawn from the
benchmark seed; metrics are medians over set-ups and over sweeps.  The
traced pass (:func:`measure_traced`) replays the first
sweep untraced and traced, so its counts repeat exactly for a given seed.

Correctness is checked on every pass: each sweep's records and histogram
must be consistent, one recorded run is replayed through the public API and
its cap checked, and at the default seed the first sweep's runlog and
histogram bytes must match the frozen SHA-256 in ``digests.json``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from hermcap import (
    CapState,
    FieldSpec,
    Histogram,
    SearchConfig,
    SeedSpec,
    SplitMix64,
    StrategyKind,
    build_field,
    derive_seed,
    emit_histogram,
    emit_runlog,
    enumerate_generators,
    enumerate_surface,
    is_cap,
    run_spectrum,
    run_strategy,
    sample_subcap,
)

import tracer

DEFAULT_SEED = 1
SETUP_REPS = 3  # set-ups per timed pass; setup_s is their median
MIN_SWEEPS = 3  # sweeps per timed pass even when the window is spent sooner
DIGESTS_PATH = Path(__file__).with_name("digests.json")

FIELD_SPECS = {2: (2, 1), 3: (3, 1), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}

END_TO_END_UNITS = {
    "setup_s": "s",
    "total_s": "s",
    "runs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "galois.build_field_s": "s",
    "hermitian.enumerate_surface_s": "s",
    "hermitian.enumerate_generators_s": "s",
    "hermitian.tangent_dense_mb": "MB",
    "hermitian.tangent_rows.calls": "count",
    "hermitian.tangent_rows.rows": "count",
    "hermitian.tangent_rows.bytes": "B",
    "hermitian.tangent_rows_s": "s",
    "capstate.relevance_many.calls": "count",
    "capstate.relevance_many.points": "count",
    "capstate.relevance_many_s": "s",
    "capstate.add_point.calls": "count",
    "capstate.add_point_s": "s",
    "capstate.remove_point.calls": "count",
    "capstate.remove_point_s": "s",
    "capstate.from_ids.calls": "count",
    "capstate.from_ids_s": "s",
    "capstate.removal_relevance_many_s": "s",
    "capstate.weight_after_add_many_s": "s",
    "capstate.self_s": "s",
    "search.self_s": "s",
    "search.iterations": "count",
    "search.run_ms_p50": "ms",
    "search.run_ms_p99": "ms",
    "search.forward.candidates_per_step": "count/step",
    "search.backtrack.success_share": "ratio",
    "harness.pool_efficiency": "ratio",
    "harness.overhead_s": "s",
    "harness.seed_draw_s": "s",
    "harness.emit_s": "s",
    "trace.sweep_s": "s",
    "trace.relevance_share": "ratio",
    "trace.overhead_share": "ratio",
}


@dataclass(frozen=True)
class Workload:
    name: str
    q: int
    strategy: StrategyKind
    seed_spec: SeedSpec
    jobs: int
    runs: int  # runs per sweep, sized so a timed pass holds many sweeps


# Why each workload exists is recorded in README.md next to this file.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("backtrack-sweep-q7", 7, StrategyKind.BACKTRACK, SeedSpec.empty(), jobs=2, runs=100),
        Workload("minrel-q7", 7, StrategyKind.MIN_RELEVANCE, SeedSpec.empty(), jobs=1, runs=1),
        Workload("forward-q5", 5, StrategyKind.FORWARD, SeedSpec.subovoid(40), jobs=1, runs=2),
    )
}


@dataclass
class Sweep:
    master: int
    records: list
    hist: Histogram
    output: bytes  # emit_runlog + emit_histogram (CSV)
    sweep_s: float
    emit_s: float

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.output).hexdigest()


@dataclass
class Tally:
    """Runs attempted and failed, with the reasons printed to stderr."""

    attempted: int = 0
    failed: int = 0

    def add(self, runs: int, problems: list[str]) -> None:
        self.attempted += runs
        if problems:
            self.failed += runs
            for p in problems:
                print(f"bench: FAILED: {p}", file=sys.stderr)


def masters(seed: int):
    """Endless master seeds for successive sweeps; the same seed, the same list."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(64)


def frozen_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())["digests"]


def set_up(q: int):
    """Field, surface, generators and classical ovoid.

    Returns the model, the per-phase seconds and the total set-up seconds.
    """
    t0 = perf_counter()
    fld = build_field(FieldSpec(*FIELD_SPECS[q]))
    t1 = perf_counter()
    model = enumerate_surface(fld)
    t2 = perf_counter()
    enumerate_generators(model)
    t3 = perf_counter()
    model.classical_ovoid_ids()
    t4 = perf_counter()
    phases = {
        "galois.build_field_s": t1 - t0,
        "hermitian.enumerate_surface_s": t2 - t1,
        "hermitian.enumerate_generators_s": t3 - t2,
    }
    return model, phases, t4 - t0


def run_sweep(model, w: Workload, master: int, jobs: int) -> Sweep:
    t0 = perf_counter()
    hist, records = run_spectrum(model, w.seed_spec, w.strategy, w.runs, master, jobs=jobs)
    t1 = perf_counter()
    output = emit_runlog(records) + emit_histogram(hist)
    t2 = perf_counter()
    return Sweep(master, records, hist, output, t1 - t0, t2 - t1)


def _seed_size(w: Workload) -> int:
    return w.seed_spec.size if w.seed_spec.kind == "subovoid" else 0


def check_sweep(model, w: Workload, sweep: Sweep) -> list[str]:
    """Record and histogram consistency of one sweep."""
    problems = []
    recs = sweep.records
    ovoid = model.q**3 + 1
    if [r.run_index for r in recs] != list(range(w.runs)):
        problems.append(f"{w.name}: run indices are not 0..{w.runs - 1}")
    for r in recs:
        if r.derived_seed != derive_seed(sweep.master, r.run_index):
            problems.append(f"{w.name}: run {r.run_index} has the wrong derived seed")
        if r.strategy != w.strategy.value or r.input_size != _seed_size(w):
            problems.append(f"{w.name}: run {r.run_index} has the wrong strategy or input size")
        if not (r.input_size <= r.final_size <= ovoid) or r.is_ovoid != (r.final_size == ovoid):
            problems.append(f"{w.name}: run {r.run_index} has an impossible size {r.final_size}")
    sizes = Counter(r.final_size for r in recs)
    if sweep.hist.total_runs != w.runs or {s: c for s, c, _ in sweep.hist.bins} != sizes:
        problems.append(f"{w.name}: histogram does not match the run records")
    return problems


def digest_problems(w: Workload, sweep: Sweep, expected: str | None) -> list[str]:
    if expected is None or sweep.digest == expected:
        return []
    return [f"{w.name}: first-sweep digest {sweep.digest} != frozen {expected}"]


def replay_run(model, w: Workload, master: int, record) -> list[str]:
    """Replay one recorded run through the public API and check its cap."""
    derived = derive_seed(master, record.run_index)
    rng = SplitMix64(derived)
    if w.seed_spec.kind == "subovoid":
        seed_ids = sample_subcap(model.classical_ovoid_ids(), w.seed_spec.size, rng)
    else:
        seed_ids = np.zeros(0, dtype=np.int32)
    config = SearchConfig(strategy=w.strategy, rng_seed=rng.next_u64())
    out = run_strategy(model, seed_ids, config)
    where = f"{w.name}: replay of run {record.run_index} (master {master})"
    problems = []
    if not is_cap(model, out.final_cap):
        problems.append(f"{where} is not a cap")
    if not CapState.from_ids(model, out.final_cap).is_complete():
        problems.append(f"{where} is not complete")
    if not set(seed_ids.tolist()) <= set(out.final_cap.tolist()):
        problems.append(f"{where} lost seed points")
    if out.size != record.final_size or out.is_ovoid != record.is_ovoid:
        problems.append(f"{where} has size {out.size}, the record says {record.final_size}")
    return problems


def _guarded(tally: Tally, runs: int, what: str, fn, *args):
    """Call fn; an exception counts ``runs`` failed runs and returns None."""
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 - any program error is a failed run
        tally.add(runs, [f"{what} raised:\n{traceback.format_exc()}"])
        return None


def _replay_one(model, w: Workload, sweeps: list[Sweep], seed: int, tally: Tally) -> None:
    pick = random.Random(seed ^ 0x5EED)
    sweep = pick.choice(sweeps)
    record = pick.choice(sweep.records)
    problems = _guarded(tally, 1, f"{w.name} replay", replay_run, model, w, sweep.master, record)
    if problems is not None:
        tally.add(1, problems)


def peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest finished worker."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def measure(w: Workload, seed: int, seconds: float, expected_digest: str | None) -> dict:
    """Timed pass, tracing off: returns the end-to-end result object."""
    tally = Tally()
    setups = []
    for _ in range(SETUP_REPS):
        model = None  # free the previous model before building the next
        gc.collect()
        model, _, setup_s = set_up(w.q)
        setups.append(setup_s)
    sweeps: list[Sweep] = []
    start = perf_counter()
    for k, master in enumerate(masters(seed)):
        if k >= MIN_SWEEPS and perf_counter() - start >= seconds:
            break
        sweep = _guarded(tally, w.runs, f"{w.name} sweep", run_sweep, model, w, master, w.jobs)
        if sweep is None:
            continue
        problems = check_sweep(model, w, sweep)
        if k == 0:
            problems += digest_problems(w, sweep, expected_digest)
        tally.add(w.runs, problems)
        sweeps.append(sweep)
    if not sweeps:
        raise RuntimeError(f"{w.name}: every sweep failed")
    _replay_one(model, w, sweeps, seed, tally)
    setup_s = statistics.median(setups)
    values = {
        "setup_s": setup_s,
        "total_s": setup_s + statistics.median(s.sweep_s + s.emit_s for s in sweeps),
        "runs_per_s": statistics.median(w.runs / s.sweep_s for s in sweeps),
        "peak_rss_mb": peak_rss_mb(),
    }
    return _result(tally, _metrics(values, END_TO_END_UNITS))


def measure_traced(w: Workload, seed: int, expected_digest: str | None) -> dict:
    """Traced pass: the first sweep untraced, then traced at jobs=1."""
    tally = Tally()
    model, phases, setup_s = set_up(w.q)
    master = next(masters(seed))
    pooled = run_sweep(model, w, master, w.jobs)
    serial = pooled if w.jobs == 1 else run_sweep(model, w, master, 1)
    rec = tracer.Recorder()
    with tracer.traced(rec):
        traced = run_sweep(model, w, master, 1)
    tally.add(w.runs, check_sweep(model, w, pooled) + digest_problems(w, pooled, expected_digest))
    replays = [(traced, "traced")] if serial is pooled else [(serial, "jobs=1"), (traced, "traced")]
    for sweep, label in replays:
        problems = check_sweep(model, w, sweep)
        if sweep.output != pooled.output:
            problems.append(f"{w.name}: {label} output differs from the jobs={w.jobs} output")
        tally.add(w.runs, problems)
    _replay_one(model, w, [pooled], seed, tally)

    run_s = [r.wall_time_ms / 1000.0 for r in pooled.records]
    run_ms = np.percentile([r.wall_time_ms for r in pooled.records], [50, 99])
    gx = model.gx_size
    iterations = rec.items["search.run_strategy"]
    enlarge_calls = rec.calls["search.backtrack_enlarge"]
    forward = w.strategy is StrategyKind.FORWARD
    untraced_total = setup_s + serial.sweep_s + serial.emit_s
    traced_total = setup_s + traced.sweep_s + traced.emit_s
    values = {
        **phases,
        "hermitian.tangent_dense_mb": model.num_points * gx * 4 / 2**20,
        "hermitian.tangent_rows.calls": rec.calls["hermitian.tangent_rows"],
        "hermitian.tangent_rows.rows": rec.items["hermitian.tangent_rows"],
        "hermitian.tangent_rows.bytes": rec.items["hermitian.tangent_rows"] * gx * 4,
        "hermitian.tangent_rows_s": rec.self_s["hermitian.tangent_rows"],
        "capstate.relevance_many.calls": rec.calls["capstate.relevance_many"],
        "capstate.relevance_many.points": rec.items["capstate.relevance_many"],
        "capstate.relevance_many_s": rec.self_s["capstate.relevance_many"],
        "capstate.add_point.calls": rec.calls["capstate.add_point"],
        "capstate.add_point_s": rec.self_s["capstate.add_point"],
        "capstate.remove_point.calls": rec.calls["capstate.remove_point"],
        "capstate.remove_point_s": rec.self_s["capstate.remove_point"],
        "capstate.from_ids.calls": rec.calls["capstate.from_ids"],
        "capstate.from_ids_s": rec.self_s["capstate.from_ids"],
        "capstate.removal_relevance_many_s": rec.self_s["capstate.removal_relevance_many"],
        "capstate.weight_after_add_many_s": rec.self_s["capstate.weight_after_add_many"],
        "capstate.self_s": rec.layer_self_s("capstate"),
        "search.self_s": rec.layer_self_s("search"),
        "search.iterations": iterations,
        "search.run_ms_p50": run_ms[0],
        "search.run_ms_p99": run_ms[1],
        # in forward search every trial candidate is added and removed once
        "search.forward.candidates_per_step": (
            rec.calls["capstate.remove_point"] / iterations if forward and iterations else 0.0
        ),
        "search.backtrack.success_share": (
            rec.items["search.backtrack_enlarge"] / enlarge_calls if enlarge_calls else 0.0
        ),
        "harness.pool_efficiency": sum(run_s) / (w.jobs * pooled.sweep_s),
        "harness.overhead_s": pooled.sweep_s - sum(run_s) / w.jobs,
        "harness.seed_draw_s": rec.self_s["harness.derive_seed"] + rec.self_s["harness.sample_subcap"],
        "harness.emit_s": pooled.emit_s,
        "trace.sweep_s": traced.sweep_s,
        "trace.relevance_share": (
            rec.self_s["capstate.relevance_many"] + rec.self_s["hermitian.tangent_rows"]
        )
        / traced.sweep_s,
        "trace.overhead_share": traced_total / untraced_total - 1.0,
    }
    return _result(tally, _metrics(values, PER_LAYER_UNITS))


def _result(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
