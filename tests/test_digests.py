"""Frozen outputs of fixed-seed runs, as SHA-256 digests.

A run's digest covers its final cap, its iteration count and its
``(point, relevance)`` trace, so a change that keeps the caps but reorders
RNG draws or trace entries still shows.  The spectrum digest covers the
runlog and CSV histogram bytes of one q = 3 sweep, which must be identical
for every ``jobs`` value.  A digest may only change in a change that says why
in ``CHANGES.md``.

The construction digests cover the surface's incidence structure itself:
the dense tangent table, the generator point arrays in id order and the
generator ids through every point.  q = 4 is the one surface here over a
field GF(p^k) with k > 1.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hermcap
from hermcap import (
    SearchConfig,
    SeedSpec,
    SplitMix64,
    StrategyKind,
    emit_histogram,
    enumerate_generators,
    emit_runlog,
    generators_through,
    run_spectrum,
    run_strategy,
    sample_subcap,
)

from .conftest import get_model

# (q, sub-ovoid seed size or None for empty, strategy, seed) -> digest
RUN_DIGESTS = {
    (3, None, "random", 1): "16626eb72d2017cba150fe08659094eb7372205578344835dbfd7cf74c3d14b2",
    (3, None, "random", 2): "97b254cd47c12c2d96a622b892a4654726b8ffadcce141174f319f44d19e4fcf",
    (3, None, "min-relevance", 1): "f9731a73dbd7dcdfbf04a095385896817cab2b30fa9a5b02ab9a5c8c7d7a6063",
    (3, None, "min-relevance", 2): "369809937c33474a329358fa923568c5a71698c66ca5356d2aefaf48dbbe3520",
    (3, None, "forward", 1): "d000208a455a616de1d3e373e03381a5e2fc519d9381f1ce45e770117e7e321f",
    (3, None, "forward", 2): "df16ba8aac28ceb96e158798052bcfa9d0521ffd25a07e7634cce4f817adf35a",
    (3, None, "backtrack", 1): "55740c534fabca23ccf1c7a06db995e92d7a2d1d3ee796264df8b2ffb1caccd4",
    (3, None, "backtrack", 2): "ccfc486856089f5005b27a68797d9626fd378a4aa471a7ba714d1e1fefd40cba",
    (5, 40, "random", 1): "650d8d446a4b8f35174b53e723c87ce7751a1f92161d9266f815ce4ea32534fe",
    (5, 40, "random", 2): "3acd455063cf035d6cd728c26ddb300b38341a617fcb30fd1447a1221e6230ce",
    (5, 40, "min-relevance", 1): "a51ccb11c542d3385a41e3ad8f3ad3ec76baa873dc118db28566e08229a0b795",
    (5, 40, "min-relevance", 2): "bd5c699266db32c15997cb80f82ceaaae7684d55cf6eec13401d26e5f4f85c94",
    (5, 40, "forward", 1): "d5abb39a513e542435a0000c3b0217ea3829311dd4b0743635f90fde9cb33681",
    (5, 40, "forward", 2): "c7ec79d141e70d4217ad4144648b097a9780c1cbcac806010d9f618b8a03e809",
    (5, 40, "backtrack", 1): "35ae2f6f01c33d10b2cfdbe49483f12c6197bf5d572b9ab34e8a87d171effcd6",
    (5, 40, "backtrack", 2): "bb35d8bb7a4ddcda71f9ac10d6826d6984b57b845cdb5bcec1df334bd9cdb6d2",
}

SPECTRUM_DIGEST = "4c12caddf90ae9122899a4ded20684afc80de47de867dc7c33b4b9fc7875ee61"

# q -> (tangent_dense, generator points in id order, generators through each point)
CONSTRUCTION_DIGESTS = {
    2: (
        "8da3f5e1980eed3030b0a654c8ac69c095e0bfd6b6e1f7a689484717188f09ac",
        "812344c1b5ce2836fc801a837a8432c5e04fc253268b8a69eb4c560f4e6597f3",
        "187eebb689f02b70956f338bdd7a5355a49545f9038054ca21f66252cda70658",
    ),
    3: (
        "a9e1faa2ee753a80e3836c1c266cfc94873adceb6ad45278b92fd780d18ed467",
        "57204bd338dea43e86ff4ed34b2736d23be9d8472f976c1a346e4123dbfa866b",
        "f0e1d140c4ace8fca2c4cbfad0b5aa1555ff669e0741ed67cf110ce42adaa0dd",
    ),
    4: (
        "e1f89f7d4c04740ddc36b377020fc3f9528f0f9f30be3de459becf3eec441fea",
        "0f49879393d879b1061b847b547ef82682f67f75b5f8213edbb39fba6d6f8319",
        "9cc7940330e689dbba14b95503c00227155235849b7119d848af1a795295c4bb",
    ),
    5: (
        "0520b7f360367c79c520d330a0e8876fcbba8dfc386d987b3f7dc9610268dd14",
        "b93a7d1f6f200b38fe40f296d0bfcee4dc366e587a5c757fda8cc80169815f9a",
        "7625a758ed856bdd30c3437ec7a4263522f9e8501e65d4fa5029dcd9fa385402",
    ),
    7: (
        "d2337ef26c0dd89abaa5ec56c6a25bbf66b1ebbe168bbcbcadddded7d1baeaeb",
        "127b218f00cdeb0d6cf46d92fe91d50969d0c029ae2d07a86ec509e67026d1e6",
        "9adbf0dfe0e3e7aef96a969f1a246c72edb4e2339e1d7fbeebb5a24178cc2dc6",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digest(q, seed_size, strategy, seed):
    model = get_model(q)
    seed_cap = []
    if seed_size is not None:
        seed_cap = sample_subcap(model.classical_ovoid_ids(), seed_size, SplitMix64(seed))
    config = SearchConfig(strategy=StrategyKind(strategy), rng_seed=seed, keep_trace=True)
    out = run_strategy(model, seed_cap, config)
    payload = {
        "cap": [int(x) for x in out.final_cap],
        "iterations": out.iterations,
        "trace": [[int(x), int(r)] for x, r in out.trace],
    }
    return sha256(json.dumps(payload, separators=(",", ":")).encode())


def construction_digests(q):
    model = get_model(q)
    points = enumerate_generators(model)
    through = np.array(
        [np.asarray(generators_through(model, x), dtype=np.int32) for x in range(model.num_points)],
        dtype=np.int32,
    )
    return (
        sha256(model.tangent_dense.tobytes()),
        sha256(points.tobytes()),
        sha256(through.tobytes()),
    )


def spectrum_digest(jobs):
    hist, records = run_spectrum(
        get_model(3), SeedSpec.subovoid(6), StrategyKind.BACKTRACK,
        n_runs=30, master_seed=2012, jobs=jobs,
    )
    return sha256(emit_runlog(records) + emit_histogram(hist))


@pytest.mark.parametrize("case", sorted(RUN_DIGESTS, key=repr), ids=repr)
def test_run_digest(case):
    assert run_digest(*case) == RUN_DIGESTS[case]


@pytest.mark.parametrize("jobs", [1, 2])
def test_spectrum_digest(jobs):
    assert spectrum_digest(jobs) == SPECTRUM_DIGEST


def test_spectrum_digest_under_spawn():
    # a fresh interpreter, so the start method is chosen before any pool exists;
    # spawned workers get the model by pickling instead of inheriting it
    src = str(Path(hermcap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import multiprocessing\n"
        "multiprocessing.set_start_method('spawn')\n"
        "from tests.test_digests import SPECTRUM_DIGEST, spectrum_digest\n"
        "assert spectrum_digest(2) == SPECTRUM_DIGEST\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parents[1],
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("q", sorted(CONSTRUCTION_DIGESTS))
def test_construction_digests(q):
    assert construction_digests(q) == CONSTRUCTION_DIGESTS[q]
