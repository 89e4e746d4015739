"""Self-test of the benchmark on small surfaces (q = 2, 3).

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer  # noqa: E402
import workloads  # noqa: E402
from hermcap import SeedSpec, StrategyKind  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL = [
    workloads.Workload("small-backtrack-q3", 3, StrategyKind.BACKTRACK, SeedSpec.empty(), jobs=2, runs=6),
    workloads.Workload("small-minrel-q2", 2, StrategyKind.MIN_RELEVANCE, SeedSpec.empty(), jobs=1, runs=3),
    workloads.Workload("small-forward-q3", 3, StrategyKind.FORWARD, SeedSpec.subovoid(5), jobs=1, runs=2),
]
SEED = workloads.DEFAULT_SEED


def _first_digest(w):
    model, _, _ = workloads.set_up(w.q)
    return workloads.run_sweep(model, w, next(workloads.masters(SEED)), 1).digest


def _check_metrics(result, declared):
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), name


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.frozen_digests()) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("w", SMALL, ids=lambda w: w.name)
def test_every_metric_is_emitted_with_its_unit(w):
    timed = workloads.measure(w, SEED, 0.0, None)
    _check_metrics(timed, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in timed["metrics"].values())
    _check_metrics(workloads.measure_traced(w, SEED, None), SPEC["per_layer"])


def test_frozen_digest_gates_both_passes():
    w = SMALL[0]
    digest = _first_digest(w)
    assert workloads.measure(w, SEED, 0.0, digest)["correct"]
    assert workloads.measure_traced(w, SEED, digest)["correct"]
    tampered = digest[::-1]
    for result in (
        workloads.measure(w, SEED, 0.0, tampered),
        workloads.measure_traced(w, SEED, tampered),
    ):
        assert not result["correct"]
        assert result["failed"] >= w.runs


def test_replay_rejects_a_wrong_record():
    w = SMALL[2]
    model, _, _ = workloads.set_up(w.q)
    sweep = workloads.run_sweep(model, w, 12345, 1)
    record = sweep.records[1]
    assert workloads.replay_run(model, w, sweep.master, record) == []
    wrong = replace(record, final_size=record.final_size + 1)
    assert workloads.replay_run(model, w, sweep.master, wrong)


@pytest.mark.parametrize("w", SMALL, ids=lambda w: w.name)
def test_shim_leaves_runlog_bytes_unchanged(w):
    model, _, _ = workloads.set_up(w.q)
    originals = [vars(owner)[attr] for owner, attr, _, _ in tracer.SPANS]
    plain = workloads.run_sweep(model, w, 777, 1)
    recorder = tracer.Recorder()
    with tracer.traced(recorder):
        traced = workloads.run_sweep(model, w, 777, 1)
    assert traced.output == plain.output
    assert recorder.calls["search.run_strategy"] == w.runs
    assert recorder.items["search.run_strategy"] > 0  # iterations
    assert 0 < sum(recorder.self_s.values()) <= traced.sweep_s
    assert [vars(owner)[attr] for owner, attr, _, _ in tracer.SPANS] == originals
