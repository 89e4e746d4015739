import json
import multiprocessing
import os

import numpy as np
import pytest

from hermcap import (
    SeedSpec,
    StrategyKind,
    derive_seed,
    emit_histogram,
    emit_runlog,
    gap_check,
    make_histogram,
    run_spectrum,
)
from hermcap import harness
from hermcap.rng import GOLDEN_GAMMA, MASK64


def _mix64_vec(x):
    x = x & np.uint64(MASK64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def test_derive_seed_deterministic():
    assert derive_seed(123, 5) == derive_seed(123, 5)


def test_derive_seed_matches_vectorized_definition():
    idx = np.arange(64, dtype=np.uint64)
    expected = _mix64_vec(np.uint64(987654321) ^ ((idx + np.uint64(1)) * np.uint64(GOLDEN_GAMMA)))
    got = [derive_seed(987654321, int(i)) for i in range(64)]
    assert got == [int(v) for v in expected]


def test_derive_seed_injective_to_a_million():
    idx = np.arange(1_000_000, dtype=np.uint64)
    seeds = _mix64_vec(np.uint64(42) ^ ((idx + np.uint64(1)) * np.uint64(GOLDEN_GAMMA)))
    assert len(np.unique(seeds)) == len(seeds)


def test_derive_seed_varies_with_master():
    rng = np.random.default_rng(0)
    masters = rng.integers(0, 2**63, size=1000, dtype=np.uint64)
    run0 = {derive_seed(int(m), 0) for m in masters}
    assert len(run0) == 1000


def test_run_spectrum_reproducible_across_jobs(model_q3):
    kwargs = dict(
        seed_spec=SeedSpec.empty(),
        strategy=StrategyKind.RANDOM,
        n_runs=64,
        master_seed=777,
    )
    h1, r1 = run_spectrum(model_q3, jobs=1, **kwargs)
    h2, r2 = run_spectrum(model_q3, jobs=2, **kwargs)
    h4, r4 = run_spectrum(model_q3, jobs=4, **kwargs)
    assert emit_runlog(r1) == emit_runlog(r2) == emit_runlog(r4)
    assert h1.bins == h2.bins == h4.bins
    # 7 runs split unevenly: blocks of 4 + 3 on two workers, 3 + 3 + 1 on three
    kwargs["n_runs"] = 7
    h1, r1 = run_spectrum(model_q3, jobs=1, **kwargs)
    for jobs in (2, 3):
        hj, rj = run_spectrum(model_q3, jobs=jobs, **kwargs)
        assert emit_runlog(rj) == emit_runlog(r1)
        assert hj.bins == h1.bins


def test_run_spectrum_starts_at_most_one_worker_per_cpu(model_q2, monkeypatch):
    requested, chunks = [], []

    class InProcessPool:
        """Records the worker count and chunk size asked for and runs the map here; starts no process."""

        def __init__(self, processes, initializer, initargs):
            requested.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=None):
            chunks.append(chunksize)
            return [fn(i) for i in iterable]

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    monkeypatch.setattr(harness, "_worker_args", None)  # restored after the in-process pool
    kwargs = dict(seed_spec=SeedSpec.empty(), strategy=StrategyKind.RANDOM, n_runs=20, master_seed=5)
    hist, records = run_spectrum(model_q2, jobs=10_000, **kwargs)
    assert requested == [2]
    assert chunks == [10]  # one block of ceil(20 / 2) runs per worker
    run_spectrum(model_q2, jobs=10_000, **{**kwargs, "n_runs": 7})
    assert requested == [2, 2] and chunks == [10, 4]
    serial_hist, serial = run_spectrum(model_q2, jobs=1, **kwargs)
    assert requested == [2, 2]
    assert [r.log_fields() for r in records] == [r.log_fields() for r in serial]
    assert hist.bins == serial_hist.bins


def test_run_spectrum_sizes_the_pool_by_the_affinity_set(model_q2, monkeypatch):
    # under taskset or a cpuset, cpu_count() also counts CPUs the process cannot run on
    def no_pool(*args, **kwargs):
        raise AssertionError("a sweep on one usable CPU started a pool")

    kwargs = dict(seed_spec=SeedSpec.empty(), strategy=StrategyKind.RANDOM, n_runs=6, master_seed=5)
    serial_hist, serial = run_spectrum(model_q2, jobs=1, **kwargs)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    hist, records = run_spectrum(model_q2, jobs=2, **kwargs)
    assert [r.log_fields() for r in records] == [r.log_fields() for r in serial]
    assert hist.bins == serial_hist.bins


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_spectrum_returns_records_in_run_order(model_q2, jobs):
    _, records = run_spectrum(
        model_q2, SeedSpec.empty(), StrategyKind.RANDOM, n_runs=25, master_seed=8, jobs=jobs
    )
    assert [r.run_index for r in records] == list(range(25))


def test_run_spectrum_subovoid_seeds_resampled(model_q3):
    _, records = run_spectrum(
        model_q3,
        SeedSpec.subovoid(10),
        StrategyKind.RANDOM,
        n_runs=20,
        master_seed=5,
    )
    assert all(r.input_size == 10 for r in records)
    assert len({r.derived_seed for r in records}) == 20


def test_run_records_fields(model_q2):
    _, records = run_spectrum(
        model_q2, SeedSpec.empty(), StrategyKind.RANDOM, n_runs=10, master_seed=1
    )
    q = model_q2.q
    for i, r in enumerate(records):
        assert r.run_index == i
        assert r.derived_seed == derive_seed(1, i)
        assert r.strategy == "random"
        assert r.input_size == 0
        assert q**2 + 1 <= r.final_size <= q**3 + 1
        assert r.is_ovoid == (r.final_size == q**3 + 1)
        assert r.wall_time_ms >= 0.0


def test_histogram_consistency(model_q2):
    hist, records = run_spectrum(
        model_q2, SeedSpec.empty(), StrategyKind.RANDOM, n_runs=50, master_seed=3
    )
    assert hist.total_runs == 50
    assert sum(c for _, c, _ in hist.bins) == 50
    assert abs(sum(p for _, _, p in hist.bins) - 100.0) < 0.1
    sizes = [s for s, _, _ in hist.bins]
    assert sizes == sorted(sizes)


def test_histogram_csv_round_trip():
    class R:
        def __init__(self, s):
            self.final_size = s

    records = [R(126)] * 97 + [R(121)] * 224 + [R(84)] * 679
    hist = make_histogram(records, 5, "random", "subovoid(69)")
    data = emit_histogram(hist, "csv")
    assert data == b"size,count,percent\n84,679,67.9\n121,224,22.4\n126,97,9.7\n"


def test_histogram_single_run_row():
    class R:
        final_size = 126

    data = emit_histogram(make_histogram([R()], 5, "random", "empty"), "csv")
    assert data == b"size,count,percent\n126,1,100.0\n"


def test_histogram_empty_and_json():
    hist = make_histogram([], 5, "random", "empty")
    assert emit_histogram(hist, "csv") == b"size,count,percent\n"
    payload = json.loads(emit_histogram(hist, "json"))
    assert payload["total_runs"] == 0 and payload["bins"] == []
    with pytest.raises(ValueError):
        emit_histogram(hist, "xml")


def test_runlog_is_json_lines_without_wall_time(model_q2):
    _, records = run_spectrum(
        model_q2, SeedSpec.empty(), StrategyKind.RANDOM, n_runs=5, master_seed=9
    )
    lines = emit_runlog(records).decode().strip().split("\n")
    assert len(lines) == 5
    for i, line in enumerate(lines):
        entry = json.loads(line)
        assert entry["run_index"] == i
        assert "wall_time_ms" not in entry
        assert set(entry) == {
            "run_index",
            "derived_seed",
            "strategy",
            "input_size",
            "final_size",
            "is_ovoid",
        }


def test_gap_check_boundaries():
    class R:
        def __init__(self, s):
            self.final_size = s

    q = 5
    records = [R(126), R(121), R(84)]
    assert gap_check(records, q).is_clean
    records.append(R(123))
    report = gap_check(records, q)
    assert not report.is_clean
    assert report.offenders == {123: 1}
    assert report.lower == 121 and report.upper == 126


def test_gap_report_names_its_offenders():
    assert str(gap_check([], 5)) == "no cap sizes in (121, 126)"
    report = harness.GapReport(q=5, lower=121, upper=126, offenders={124: 1, 123: 2})
    assert str(report) == "cap sizes inside (121, 126): 123x2, 124x1"


def test_run_spectrum_takes_a_strategy_or_its_value(model_q2, monkeypatch):
    h1, r1 = run_spectrum(model_q2, SeedSpec.empty(), "random", 2, 1)
    h2, r2 = run_spectrum(model_q2, SeedSpec.empty(), StrategyKind.RANDOM, 2, 1)
    assert h1 == h2 and emit_runlog(r1) == emit_runlog(r2)
    monkeypatch.setattr(harness, "_execute_run", None)  # a run would raise TypeError
    with pytest.raises(ValueError):
        run_spectrum(model_q2, SeedSpec.empty(), "bogus", 2, 1)


def test_run_spectrum_rejects_zero_runs(model_q2):
    with pytest.raises(ValueError):
        run_spectrum(model_q2, SeedSpec.empty(), StrategyKind.RANDOM, 0, 1)


def test_run_spectrum_rejects_zero_jobs(model_q2):
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_spectrum(model_q2, SeedSpec.empty(), StrategyKind.RANDOM, 1, 1, jobs=0)


@pytest.mark.parametrize("master", [-1, 2**64])
def test_run_spectrum_rejects_master_outside_64_bits(model_q2, master):
    with pytest.raises(ValueError, match="master_seed must lie in"):
        run_spectrum(model_q2, SeedSpec.empty(), StrategyKind.RANDOM, 1, master)


@pytest.mark.parametrize(
    "kwargs", [dict(master_seed=1.5), dict(master_seed=2.0, jobs=2), dict(n_runs=2.0), dict(jobs=1.0)]
)
def test_run_spectrum_rejects_non_integer_counts_before_any_run(model_q2, monkeypatch, kwargs):
    calls = []
    monkeypatch.setattr(harness, "_execute_run", lambda *args: calls.append(args))
    kwargs = dict(dict(n_runs=2, master_seed=1), **kwargs)
    with pytest.raises(TypeError):
        run_spectrum(model_q2, SeedSpec.empty(), StrategyKind.RANDOM, **kwargs)
    assert calls == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_spectrum_rejects_a_subovoid_seed_beyond_the_ovoid_before_any_run(model_q2, monkeypatch, jobs):
    _, records = run_spectrum(model_q2, SeedSpec.subovoid(9), StrategyKind.RANDOM, 1, 1)
    assert records[0].input_size == 9  # the whole ovoid of q = 2 is a seed
    calls = []
    monkeypatch.setattr(harness, "_execute_run", lambda *args: calls.append(args))
    monkeypatch.setattr(multiprocessing, "Pool", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match=r"at most q\^3 \+ 1 = 9 points, got 10"):
        run_spectrum(model_q2, SeedSpec.subovoid(10), StrategyKind.RANDOM, 2, 1, jobs=jobs)
    assert calls == []


def test_seedspec_validation():
    assert SeedSpec.empty().describe() == "empty"
    assert SeedSpec.subovoid(69).describe() == "subovoid(69)"
    assert SeedSpec.fromfile("x.json").describe() == "file:x.json"
    with pytest.raises(ValueError):
        SeedSpec.subovoid(-1)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="bogus"),
        dict(kind="subovoid"),
        dict(kind="subovoid", size=-1),
        dict(kind="subovoid", size=True),
        dict(kind="subovoid", size=2.0),
        dict(kind="fromfile"),
        dict(kind="fromfile", path=""),
    ],
    ids=repr,
)
def test_seedspec_rejects_incomplete_specs(kwargs):
    with pytest.raises(ValueError):
        SeedSpec(**kwargs)
