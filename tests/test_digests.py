"""Frozen outputs of fixed-seed runs, as SHA-256 digests.

A run's digest covers its final cap, its iteration count and its
``(point, relevance)`` trace, so a change that keeps the caps but reorders
RNG draws or trace entries still shows.  The spectrum digest covers the
runlog and CSV histogram bytes of one q = 3 sweep, which must be identical
for every ``jobs`` value.  The thinning digests cover the kept and removed
points of ``thin_ovoid`` on the classical ovoid.  The enlarge digests cover
the final cap and iteration count of direct ``backtrack_enlarge`` calls, on a
cap that grows, on the classical ovoid, where no removal level finds a
replacement, and on a cap whose every member is protected.  A digest may only
change in a change that says why in ``CHANGES.md``.

The construction digests cover the surface's incidence structure itself:
every sorted tangent row, the generator point arrays in id order and the
generator ids through every point, hashed as little-endian int32 whatever
the table's own dtype; the point digests cover the normalized
coordinates and the encoding keys that fix every PointId.  q = 4, 8 and 9
are the surfaces here over a field GF(p^k) with k > 1.  The generator
digests carry the two generator arrays on to q = 11 and 13, where hashing
every sorted tangent row would cost more than the build.

The field digests cover the GF(q^2) tables every point id and cap file rests
on: the modulus and the ``add2``, ``mul2``, ``conj``, ``inv`` and ``norm``
values, for every supported q.
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
    CapState,
    SearchConfig,
    SeedSpec,
    FieldSpec,
    SplitMix64,
    StrategyKind,
    TieMode,
    backtrack_enlarge,
    build_field,
    emit_histogram,
    enumerate_generators,
    enumerate_surface,
    emit_runlog,
    run_spectrum,
    run_strategy,
    sample_subcap,
    thin_ovoid,
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
    (5, None, "forward", 1): "ac7506cf8eb5c0d28590a524a8e0f21652ba5ce9f61dee57d89d527fba6a07f6",
    (5, None, "forward", 2): "16e23b26aa288c7f714319d2b50a3b098d3bc7ab4ce6c4421268d75a2b15587c",
    (5, 40, "random", 1): "650d8d446a4b8f35174b53e723c87ce7751a1f92161d9266f815ce4ea32534fe",
    (5, 40, "random", 2): "3acd455063cf035d6cd728c26ddb300b38341a617fcb30fd1447a1221e6230ce",
    (5, 40, "min-relevance", 1): "a51ccb11c542d3385a41e3ad8f3ad3ec76baa873dc118db28566e08229a0b795",
    (5, 40, "min-relevance", 2): "bd5c699266db32c15997cb80f82ceaaae7684d55cf6eec13401d26e5f4f85c94",
    (5, 40, "forward", 1): "d5abb39a513e542435a0000c3b0217ea3829311dd4b0743635f90fde9cb33681",
    (5, 40, "forward", 2): "c7ec79d141e70d4217ad4144648b097a9780c1cbcac806010d9f618b8a03e809",
    (5, 40, "backtrack", 1): "35ae2f6f01c33d10b2cfdbe49483f12c6197bf5d572b9ab34e8a87d171effcd6",
    (5, 40, "backtrack", 2): "bb35d8bb7a4ddcda71f9ac10d6826d6984b57b845cdb5bcec1df334bd9cdb6d2",
    (7, 40, "forward", 1): "5f511ceb8c13a9643a77884f0e5cf0fbb5c1a8d4254bed69542d61ad803ba651",
}

# FORWARD under TieMode.MIN_COUNT (RUN_DIGESTS use the default MAX_COUNT):
# (q, sub-ovoid seed size or None for empty, seed) -> digest
MIN_COUNT_DIGESTS = {
    (3, None, 1): "b7ba262e4780cfd703b41fdf37876c923de2cbe0c19b3f1ae0aaffa1acbf3b1e",
    (3, None, 2): "cc19f5c23c637fe647c5ba348795eff2bbb29b09e53e4b83c01428c62471dceb",
    (5, 40, 1): "6669fd43e812275bed866b750ec421f92c4bda18cefc184a1540ee6fdf72f511",
    (5, 40, 2): "3163f41befc22dee9265ac4fe57e5a647f6a1bce874ad248970fcc17deb9d2f9",
}

# backtrack_enlarge on the classical ovoid or on the complete cap of a RANDOM
# run from the empty cap under the given rng seed, with its first `protect`
# members (all of them for None) protected, under rng seeds 4000, 4001, ...:
# (q, "classical" or RANDOM seed, protect, number of seeds) -> digest.  The
# seed-4 cap at q = 3 finds its replacement at level 2 or 3 under some seeds
# and at no level under others
ENLARGE_DIGESTS = {
    (3, "classical", 0, 10): "bf436c9628bfe3d0696f7a56540820928a2891809f393f21134334bcb419c72b",
    (3, 4, 0, 10): "2c4fdc44117e7d079d60fd64bc7817cd9e28a297849a190a219f5a4faa85d05e",
    (3, 11, None, 10): "bbebf5d7dd6fae6b53579ed3e775ee928caba8b398843ac3effe272824bdaf0b",
    (4, "classical", 0, 10): "79a75c41d3a027f342f1cbfc1bb4ed15c7b9565200754738a66b8151b193938c",
    (5, 11, 3, 100): "f8e42267d484305a802f0b12dfeb73675c9f4fe35e077a5f1c5561a62336910c",
}

SPECTRUM_DIGEST = "4c12caddf90ae9122899a4ded20684afc80de47de867dc7c33b4b9fc7875ee61"

# thin_ovoid of the classical ovoid: (q, seed) -> digest of (kept, removed)
THIN_DIGESTS = {
    (3, 1): "da76857ba2612ae4b8fd2cae3a4640176d9ca6a7b2513bc6f7faa7dbadfe97cb",
    (3, 2): "c8ffca87d07f33d473f03acbf5b482fc43d83ee7b63dcd886b39a6a67d67815a",
    (4, 1): "b00957ea3789694642e0c14a9340029009426fd800b6b7c5fbf58a081840da30",
    (4, 2): "63dcc710c0f9bc65a5585eae121adeb6d92006010bfcb3ff4a7e1a7e4e051903",
    (5, 1): "9fc72b7f0abbaf002bec42fa05b66036b8a1e6ee7981e4c0ed1995afa79ccf9e",
    (5, 2): "ce26d89468812667b6ee2ac758c784df46381d59ab2718f8109a84fb6000a4e8",
}

# q -> (every sorted tangent row, generator points in id order, generators through each point)
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
    8: (
        "cb5966481077f208d1d48c8fb35fac3d91c62c02b2e61d66daddd1e6947b4890",
        "4d8b0fe4e78209b830cc4a10d351f74ffd4bfa17419e05acd3ee8c75af393a2e",
        "2abe1a2c6e9e759d6279fd3119640094f4c7d34eb03be4570789fcc76235c902",
    ),
    9: (
        "aaef3aece9abb3cc4d9eed7fe6d74ff819b5450487114566047a13c08054f63c",
        "5f7e677ff24b8468e77973c81de5797428f44ebcd91fd55b43b2aef20ab1fce1",
        "8afb296f000bb2f178594397fd69966c619cacc6e46efd1d901a4687e291d585",
    ),
}

# q -> (generator points in id order, generators through each point)
GENERATOR_DIGESTS = {
    11: (
        "64505c5781f8317f491daa88bb5e8184d54657d7e1a952b374bd031e23511111",
        "7d929d6824836340b53a3f22b173c40e4d887aa61bcfb64ddc4f7ba983908d0b",
    ),
    13: (
        "35f8c723efe62bcc264733588ec95bc66a05a9a67b51ad4534e68b9b115285ab",
        "3d7184781efd227d57b54f4c810772cb2b4b89ca868e631c3f35d3e24ae7cfe6",
    ),
}

# q -> (point coordinates, point keys)
POINT_DIGESTS = {
    2: (
        "ef9a9068a9b7d5747edfbcaaea66f8f6879c272f711bf0477a6712bd8eb6272f",
        "ee672cc5f7624481f294f0a2c8e774029b3ff9d207954b9bc91c83498fcb90d2",
    ),
    3: (
        "62efc44619a353c9b52484d440d04f9845209bd4d85d82d701ad9f2516b46f2d",
        "29bcfdc642bceb5ef636a9bc4e050110cf08741c6699832c21e6815534bd6698",
    ),
    4: (
        "c34d7a3de47332fefbd58da73e8264403b3f292772166ab3d452e9027d0c519e",
        "ad3f4210bc20584b41b46b214cd7a50f481e9dc8ab99df2e6d6f4af779899c5a",
    ),
    5: (
        "3c54d0b40a95a41f3e7cef1accab726698872adac4a4da1f8bf2927c8d4ce3bd",
        "35460fb40b8feee378fa40191ee211c43ab57ee39b748311d0b965eae80c4db4",
    ),
    7: (
        "aa9ca93ebd89c5abdaf65477e47bd1e954ae1993f34cb1424f4a4f130b28928d",
        "bc81339ac3dbfb8951e5b56372b24ce4a510b85189fa9015ada7aebb79ff7d45",
    ),
    8: (
        "e78bfe4add4931b31e28b5341d49d1be8403f3c377c1b030e247a789e2243faa",
        "f2d0f530fb6b80735a35cac7eb257c08173cc1b8840d425ddc9b788c980ffe26",
    ),
    9: (
        "2a160173b2f613910ea11bcff90d090857ebe90235402f24e748470c177b5c0c",
        "47c2adb6736621d3546515152553928e2c0552d722e2facde8b2d310ebc9afc5",
    ),
}

# q -> digest of the modulus and the GF(q^2) tables
FIELD_DIGESTS = {
    2: "d58232d431cfe91cbceaba36c19a410855c328d464fef89682bf638bd8fc1808",
    3: "c2e8df497d88d7cf4e99789e7fef3444c04487cfbad5b83a3d0758c877fe6f78",
    4: "ea9a65b08f80c06497f1eec9759865eba69dc8d479921d3cee8b9a0d8f919fd2",
    5: "cd43b79ff577c7c770bd000344251f1bd122399578b32bde286ac8fbaf17cd8f",
    7: "b23cedd53643013d77897e776ea7d0694382efc8b2435b5f37ec1536e8009c4f",
    8: "8fea8280baff4950f79eea17f426164fd2d5cf208a28b26a29b58d93117be228",
    9: "5d01e542788ea57e663dc22f73663a7ceb65394ff511b7e0bbd39a57e9a15591",
    11: "44bddd8994e6221131f7e8b8088f646b6c7f359c40a7ee7a5935996542a4f6a9",
    13: "f529f1caaff539089f05cafc17e68bce56d39602d2f8e86d718336e575bb8d61",
    16: "d833a43966cb922b99646caa771d1bacf045ca24e1fd3f654d09a76607745b2b",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digest(q, seed_size, strategy, seed, tie_mode=TieMode.MAX_COUNT):
    model = get_model(q)
    seed_cap = []
    if seed_size is not None:
        seed_cap = sample_subcap(model.classical_ovoid_ids(), seed_size, SplitMix64(seed))
    config = SearchConfig(strategy=StrategyKind(strategy), rng_seed=seed, forward_tie_mode=tie_mode)
    out = run_strategy(model, seed_cap, config)
    payload = {
        "cap": [int(x) for x in out.final_cap],
        "iterations": out.iterations,
        "trace": [[int(x), int(r)] for x, r in out.trace],
    }
    return sha256(json.dumps(payload, separators=(",", ":")).encode())


def enlarge_digest(q, source, protect, n_seeds):
    model = get_model(q)
    if source == "classical":
        cap = model.classical_ovoid_ids()
    else:
        config = SearchConfig(strategy=StrategyKind.RANDOM, rng_seed=source)
        cap = run_strategy(model, [], config).final_cap
    protected = cap[:protect]
    state = CapState.from_ids(model, cap)  # backtrack_enlarge leaves it as it was
    payload = []
    for seed in range(4000, 4000 + n_seeds):
        out = backtrack_enlarge(model, protected, state, SearchConfig(rng_seed=seed))
        payload.append([[int(x) for x in out.final_cap], out.iterations])
    return sha256(json.dumps(payload, separators=(",", ":")).encode())


def thin_digest(q, seed):
    model = get_model(q)
    kept, removed = thin_ovoid(model, model.classical_ovoid_ids(), SplitMix64(seed))
    payload = {"kept": [int(x) for x in kept], "removed": [int(x) for x in removed]}
    return sha256(json.dumps(payload, separators=(",", ":")).encode())


def construction_digests(q):
    model = get_model(q)
    rows = hashlib.sha256()  # the sorted tangent rows of every point, a block at a time
    for lo in range(0, model.num_points, 4096):
        rows.update(model.tangent_rows(np.arange(lo, min(lo + 4096, model.num_points))).tobytes())
    return (rows.hexdigest(), *generator_hashes(model))


def generator_hashes(model):
    through = np.ascontiguousarray(model.generators_of(np.arange(model.num_points)), dtype="<i4")
    return sha256(enumerate_generators(model).tobytes()), sha256(through.tobytes())


def generator_digests(q):
    # not from the model cache, where the model would stay resident
    return generator_hashes(enumerate_surface(build_field(FieldSpec.for_q(q))))


def point_digests(q):
    model = get_model(q)
    return sha256(model.coords.tobytes()), sha256(model.keys.tobytes())


def field_digest(q):
    t = build_field(FieldSpec.for_q(q))
    h = hashlib.sha256(json.dumps(list(t.modulus)).encode())
    for table in (t.add2, t.mul2, t.conj, t.inv, t.norm):
        h.update(np.ascontiguousarray(table, dtype="<i4").tobytes())
    return h.hexdigest()


def spectrum_digest(jobs):
    hist, records = run_spectrum(
        get_model(3), SeedSpec.subovoid(6), StrategyKind.BACKTRACK,
        n_runs=30, master_seed=2012, jobs=jobs,
    )
    return sha256(emit_runlog(records) + emit_histogram(hist))


@pytest.mark.parametrize("case", sorted(RUN_DIGESTS, key=repr), ids=repr)
def test_run_digest(case):
    assert run_digest(*case) == RUN_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(MIN_COUNT_DIGESTS, key=repr), ids=repr)
def test_min_count_forward_digest(case):
    q, seed_size, seed = case
    assert run_digest(q, seed_size, "forward", seed, TieMode.MIN_COUNT) == MIN_COUNT_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(ENLARGE_DIGESTS, key=repr), ids=repr)
def test_enlarge_digest(case):
    assert enlarge_digest(*case) == ENLARGE_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(THIN_DIGESTS), ids=repr)
def test_thin_ovoid_digest(case):
    assert thin_digest(*case) == THIN_DIGESTS[case]


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


@pytest.mark.parametrize("q", sorted(GENERATOR_DIGESTS))
def test_generator_digests(q):
    assert generator_digests(q) == GENERATOR_DIGESTS[q]


@pytest.mark.parametrize("q", sorted(POINT_DIGESTS))
def test_point_digests(q):
    assert point_digests(q) == POINT_DIGESTS[q]


@pytest.mark.parametrize("q", sorted(FIELD_DIGESTS))
def test_field_digests(q):
    assert field_digest(q) == FIELD_DIGESTS[q]
