"""Frozen outputs of fixed-seed runs, as SHA-256 digests.

A run's digest covers its final cap, its iteration count and its
``(point, relevance)`` trace, so a change that keeps the caps but reorders
RNG draws or trace entries still shows.  The spectrum digest covers the
runlog and CSV histogram bytes of one q = 3 sweep, which must be identical
for every ``jobs`` value.  A digest may only change in a change that says why
in ``CHANGES.md``.
"""

import hashlib
import json

import pytest

from hermcap import (
    SearchConfig,
    SeedSpec,
    SplitMix64,
    StrategyKind,
    emit_histogram,
    emit_runlog,
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
