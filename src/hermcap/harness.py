"""Seeded batch experiments: spectrum sweeps, histograms, gap reports.

Every run r of a sweep gets its own derived 64-bit seed

    derive_seed(master, r) = mix64(master XOR ((r + 1) * GOLDEN_GAMMA))

(mix64 is the splitmix64 finalizer), which is injective in r for a fixed
master, so runs are independent of execution order and of the worker count.
A run first draws its input cap (for sub-ovoid specs, a fresh random subset
of the canonical classical ovoid), then a strategy seed, from a single
SplitMix64 stream seeded with the derived value.

The JSON-lines run log excludes wall-clock time so repeated sweeps with the
same master seed are byte-identical whatever the parallelism.
"""

from __future__ import annotations

import io
import json
import operator
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .capfile import load_cap_ids
from .hermitian import SurfaceModel
from .rng import GOLDEN_GAMMA, MASK64, SplitMix64, mix64
from .search import SearchConfig, SearchOutcome, StrategyKind, run_strategy, sample_subcap


def derive_seed(master: int, run_index: int) -> int:
    """Per-run seed; distinct for distinct run indices under one master."""
    return mix64((master ^ ((run_index + 1) * GOLDEN_GAMMA)) & MASK64)


@dataclass(frozen=True)
class SeedSpec:
    """How each run's input cap is produced."""

    kind: str  # "empty" | "subovoid" | "fromfile"
    size: int | None = None
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("empty", "subovoid", "fromfile"):
            raise ValueError(f"unknown seed kind {self.kind!r}")
        if self.kind == "subovoid" and (type(self.size) is not int or self.size < 0):
            raise ValueError(f"subovoid size must be an int >= 0, got {self.size!r}")
        if self.kind == "fromfile" and not self.path:
            raise ValueError("a fromfile seed needs a path")

    @classmethod
    def empty(cls) -> "SeedSpec":
        return cls(kind="empty")

    @classmethod
    def subovoid(cls, n: int) -> "SeedSpec":
        return cls(kind="subovoid", size=n)

    @classmethod
    def fromfile(cls, path: str) -> "SeedSpec":
        return cls(kind="fromfile", path=path)

    def describe(self) -> str:
        if self.kind == "empty":
            return "empty"
        if self.kind == "subovoid":
            return f"subovoid({self.size})"
        return f"file:{self.path}"


@dataclass(frozen=True)
class RunRecord:
    run_index: int
    derived_seed: int
    strategy: str
    input_size: int
    final_size: int
    is_ovoid: bool
    wall_time_ms: float

    def log_fields(self) -> dict:
        # wall time is deliberately not logged: logs must be reproducible
        fields = asdict(self)
        del fields["wall_time_ms"]
        return fields


@dataclass
class Histogram:
    bins: list[tuple[int, int, float]]  # (size, count, percent), size ascending
    total_runs: int
    q: int
    strategy: str
    seed_desc: str


@dataclass
class GapReport:
    """Complete-cap sizes falling strictly between q^3-q+1 and q^3+1."""

    q: int
    lower: int
    upper: int
    offenders: dict[int, int]

    @property
    def is_clean(self) -> bool:
        return not self.offenders

    def __str__(self) -> str:
        if self.is_clean:
            return f"no cap sizes in ({self.lower}, {self.upper})"
        inside = ", ".join(f"{s}x{c}" for s, c in sorted(self.offenders.items()))
        return f"cap sizes inside ({self.lower}, {self.upper}): {inside}"


def _seed_ids(model: SurfaceModel, spec: SeedSpec, rng: SplitMix64, fixed_ids):
    if spec.kind == "empty":
        return np.zeros(0, dtype=np.int32)
    if spec.kind == "subovoid":
        return sample_subcap(model.classical_ovoid_ids(), spec.size, rng)
    return fixed_ids


def _execute_run(args, run_index: int) -> RunRecord:
    """Run run_index of the sweep args = (model, spec, strategy, master_seed, fixed_ids)."""
    model, spec, strategy, master_seed, fixed_ids = args
    derived = derive_seed(master_seed, run_index)
    rng = SplitMix64(derived)
    seed_ids = _seed_ids(model, spec, rng, fixed_ids)
    config = SearchConfig(strategy=strategy, rng_seed=rng.next_u64())
    t0 = time.perf_counter()
    outcome: SearchOutcome = run_strategy(model, seed_ids, config)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return RunRecord(
        run_index=run_index,
        derived_seed=derived,
        strategy=strategy.value,
        input_size=len(seed_ids),
        final_size=outcome.size,
        is_ovoid=outcome.is_ovoid,
        wall_time_ms=wall_ms,
    )


# a pool worker's _execute_run args, set once by _pool_init; under fork the
# worker inherits them, so the model is not pickled.  pool.map returns the
# records in run order.  Each worker gets one block of ceil(n_runs / workers)
# runs: with multiprocessing's default of about four blocks per worker, the
# map of a 100-run q = 7 backtrack sweep (runs of about 2.5 ms) on 2 workers
# of a 2-core host took a median 130 ms against 126 ms over 12 interleaved
# sweeps each, as every extra block adds a task hand-off
_worker_args = None


def _pool_init(args) -> None:
    global _worker_args
    _worker_args = args


def _pool_run(run_index: int) -> RunRecord:
    return _execute_run(_worker_args, run_index)


def run_spectrum(
    model: SurfaceModel,
    seed_spec: SeedSpec,
    strategy: StrategyKind | str,
    n_runs: int,
    master_seed: int,
    jobs: int = 1,
) -> tuple[Histogram, list[RunRecord]]:
    """n_runs seeded runs on min(jobs, n_runs, CPU count) processes; the same records for any jobs."""
    strategy = StrategyKind(strategy)  # a member or its value, as in SearchConfig; checked before any run
    n_runs, jobs, master_seed = map(operator.index, (n_runs, jobs, master_seed))  # TypeError for a non-integer
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if not 0 <= master_seed <= MASK64:
        raise ValueError(f"master_seed must lie in [0, 2^64), got {master_seed}")
    if seed_spec.kind == "subovoid" and seed_spec.size > model.q**3 + 1:
        raise ValueError(f"a sub-ovoid seed has at most q^3 + 1 = {model.q**3 + 1} points, got {seed_spec.size}")
    fixed_ids = None
    if seed_spec.kind == "fromfile":
        fixed_ids = load_cap_ids(model, seed_spec.path)
    args = (model, seed_spec, strategy, master_seed, fixed_ids)
    workers = min(jobs, n_runs, os.cpu_count() or 1)
    if workers == 1:
        records = [_execute_run(args, i) for i in range(n_runs)]
    else:
        import multiprocessing  # only here: a serial sweep does not carry its 0.5 MB

        with multiprocessing.Pool(workers, initializer=_pool_init, initargs=(args,)) as pool:
            records = pool.map(_pool_run, range(n_runs), chunksize=-(-n_runs // workers))
    hist = make_histogram(records, model.q, strategy.value, seed_spec.describe())
    return hist, records


def make_histogram(records, q: int, strategy: str, seed_desc: str) -> Histogram:
    counts = Counter(r.final_size for r in records)
    total = len(records)
    bins = [(s, c, 100.0 * c / total) for s, c in sorted(counts.items())]
    return Histogram(bins=bins, total_runs=total, q=q, strategy=strategy, seed_desc=seed_desc)


def gap_check(records, q: int) -> GapReport:
    """Flag final sizes strictly inside (q^3 - q + 1, q^3 + 1)."""
    lower, upper = q**3 - q + 1, q**3 + 1
    offenders = Counter(
        r.final_size for r in records if lower < r.final_size < upper
    )
    return GapReport(q=q, lower=lower, upper=upper, offenders=dict(offenders))


def emit_histogram(hist: Histogram, fmt: str = "csv") -> bytes:
    """CSV (percent to one decimal) or JSON (full precision); rows by size."""
    if fmt == "csv":
        out = io.StringIO()
        out.write("size,count,percent\n")
        for size, count, percent in hist.bins:
            out.write(f"{size},{count},{percent:.1f}\n")
        return out.getvalue().encode()
    if fmt == "json":
        payload = {
            "q": hist.q,
            "strategy": hist.strategy,
            "seed_spec": hist.seed_desc,
            "total_runs": hist.total_runs,
            "bins": [
                {"size": s, "count": c, "percent": p} for s, c, p in hist.bins
            ],
        }
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    raise ValueError(f"unknown histogram format {fmt!r}")


def emit_runlog(records) -> bytes:
    """One JSON object per line, keyed by run index; excludes wall time."""
    out = io.StringIO()
    for r in sorted(records, key=lambda r: r.run_index):
        out.write(json.dumps(r.log_fields(), sort_keys=True) + "\n")
    return out.getvalue().encode()
