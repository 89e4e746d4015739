import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermcap import (
    CANONICAL_POLE,
    CapState,
    SearchConfig,
    SplitMix64,
    enumerate_generators,
    hermitian_inner,
    is_cap,
    is_ovoid,
    normalize_point,
    run_strategy,
)

from hermcap import hermitian
from hermcap.errors import ConfigurationError
from hermcap.galois import MAX_Q, FieldSpec
from hermcap.hermitian import (
    _generator_sums,
    _id_dtype,
    _sorted_distinct,
    _summed_over_generators,
    checked_ids,
)

from .conftest import get_model
from .oracles import (
    all_lines_pg3,
    cap_by_form,
    ovoid_by_form,
    pg3_points,
    surface_points,
    tangent_sets_by_pairs,
)

COUNTS = {2: 45, 3: 280, 5: 3276, 7: 17200}
GX = {2: 13, 3: 37, 5: 151, 7: 393}
GENS = {2: 27, 3: 112, 5: 756, 7: 2752}


@pytest.mark.parametrize("q", [2, 3, 5])
def test_point_counts(q):
    model = get_model(q)
    assert model.num_points == COUNTS[q] == (q**3 + 1) * (q**2 + 1)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_surface_matches_exhaustive_scan(q):
    # independent oracle: scan every point of PG(3, q^2) with the scalar form;
    # q = 4 is over the extension field GF(2^4)
    model = get_model(q)
    pts = surface_points(model.field)
    assert len(pts) == (q**3 + 1) * (q**2 + 1)
    assert pts == [model.coords_of(i) for i in range(model.num_points)]


def test_wrong_norm_table_is_caught(model_q3):
    # a permuted norm table keeps every fiber size, so the point count still
    # matches; the form check on the enumerated points must catch it
    from hermcap import enumerate_surface
    from hermcap.errors import ConfigurationError

    f = model_q3.field
    shift = np.roll(np.arange(1, f.order2), 1)
    bad = dataclasses.replace(f, norm=f.norm[np.concatenate([[0], shift])])
    with pytest.raises(ConfigurationError, match="from the norm fibers is off the surface"):
        enumerate_surface(bad)


def test_point_ordering_is_by_encoding(model_q3):
    keys = model_q3.keys
    assert (np.diff(keys) > 0).all()


def test_normalization_canonical(model_q3):
    f = model_q3.field
    x = model_q3.coords_of(17)
    for s in range(2, f.order2):
        scaled = tuple(int(f.mul2[s, c]) for c in x)
        assert normalize_point(f, scaled) == x


def test_malformed_coordinates_are_rejected(model_q3):
    f, q2 = model_q3.field, model_q3.q2
    with pytest.raises(ValueError, match="four coordinates"):
        model_q3.point_id((0, 1, 2, -8))  # would wrap to (0, 1, 1, 1)
    for coords in [(0, 0, 1), (0, 0, 0, 1, 0)]:  # (0, 0, 0, 1, 0) would read as (0, 0, 0, 1)
        with pytest.raises(ValueError, match="four coordinates"):
            model_q3.point_id(coords)
    x = model_q3.coords_of(17)
    assert model_q3.point_id(np.array(x)) == 17
    for coords in [(0.5, 0, 0, 1.7), ("1", "0", "0", "0"), (*x[:3], float(x[3]))]:
        with pytest.raises(TypeError):  # int() would read the first two as (0, 0, 0, 1) and (1, 0, 0, 0)
            model_q3.point_id(coords)
        with pytest.raises(TypeError):
            normalize_point(f, coords)
    for pid in range(model_q3.num_points):
        x = model_q3.coords_of(pid)
        for i in range(4):
            for shift in (-q2, q2):
                bad = list(x)
                bad[i] += shift
                with pytest.raises(ValueError, match="four coordinates"):
                    model_q3.point_id(bad)
                with pytest.raises(ValueError, match="four coordinates"):
                    normalize_point(f, bad)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_tangent_sections(q):
    model = get_model(q)
    for x in range(0, model.num_points, max(1, model.num_points // 50)):
        row = np.unique(model.pencil(x))
        assert len(row) == GX[q] == q**3 + q**2 + 1
        assert (np.diff(row) > 0).all()
        assert x in row
    assert model.tangent_rows(np.arange(0)).shape == (0, model.gx_size)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_pencil_contract(q):
    # a pencil is the q + 1 generator rows through x: its section, with x q + 1 times
    model = get_model(q)
    pids = np.arange(model.num_points)
    rows = model.pencil_rows(pids)
    sections = model.tangent_rows(pids)
    assert rows.shape == (model.num_points, model.gx_size + q)
    for x in pids:
        pencil = model.pencil(x)
        assert np.array_equal(pencil, rows[x])
        assert np.array_equal(np.unique(pencil), sections[x])
        assert np.count_nonzero(pencil == x) == q + 1
    assert model.pencil_rows(pids[:0]).shape == (0, model.gx_size + q)


def _distinct_id_sets(model, seed):
    """Distinct id sets of 0, 1, T, T + 1 and N points, T = 2(q^3 + 1) twice an ovoid's size."""
    t, rng = 2 * (model.q**3 + 1), SplitMix64(seed)
    for size in (0, 1, t, t + 1, model.num_points):
        yield np.array(rng.sample(range(model.num_points), size), dtype=np.intp)


@pytest.mark.parametrize("q", [2, 3])
def test_coverage_counts_match_pairwise_oracle(q):
    # a cap's coverage counts: the empty cap, singletons, random caps grown
    # greedily from a shuffled point order, and the classical ovoid
    model = get_model(q)
    tsets = tangent_sets_by_pairs(model)
    rng = SplitMix64(70 + q)
    caps = [[], *([x] for x in rng.sample(range(model.num_points), 3))]
    for size in (2, q + 1, q**3 + 1):
        cap = []
        for x in rng.sample(range(model.num_points), model.num_points):
            if len(cap) < size and not any(x in tsets[c] for c in cap):
                cap.append(x)
        caps.append(cap)
    caps.append(model.classical_ovoid_ids().tolist())
    for cap in caps:
        expected = [sum(y in tsets[x] for x in cap) for y in range(model.num_points)]
        assert CapState.from_ids(model, cap).cmult.tolist() == expected


@pytest.mark.parametrize("q", [4, 5])
def test_incidence_counts_by_pencils_and_by_generators_agree(q):
    # counting the pids on the generators and summing those counts over each
    # point's generators is the bincount of their pencils, at every size and
    # with every id twice: in int64 and int16, and in int8, where both wrap alike
    model = get_model(q)
    every = np.arange(model.num_points)
    for distinct in _distinct_id_sets(model, 80 + q):
        once = np.bincount(model.pencil_rows(distinct).ravel(), minlength=model.num_points)
        for pids in (distinct, np.concatenate([distinct, distinct])):
            by_pencils = np.bincount(model.pencil_rows(pids).ravel(), minlength=model.num_points)
            on = _generator_sums(model, pids)
            by_generators = _summed_over_generators(model, on, every)
            assert by_generators.dtype == np.int64
            assert np.array_equal(by_generators, by_pencils)
            by_generators = _summed_over_generators(model, on.astype(np.int16), every)
            assert by_generators.dtype == np.int16
            assert np.array_equal(by_generators, by_pencils)
            values = np.column_stack([on, _generator_sums(model, distinct)]).astype(np.int8)
            by_generators = _summed_over_generators(model, values, every)
            assert by_generators.dtype == np.int8
            assert np.array_equal(by_generators, np.column_stack([by_pencils, once]).astype(np.int8))


def _is_supported(q):
    try:
        FieldSpec.for_q(q)
    except ConfigurationError:
        return False
    return True


def test_generator_table_is_the_narrowest_signed_type():
    # G = (q^3 + 1)(q + 1) generator ids, 30,772 at q = 13 and 69,649 at
    # q = 16: the table through each point is int16 up to q = 13, int32 at
    # q = 16, decided from G alone
    supported = [q for q in range(2, MAX_Q + 1) if _is_supported(q)]
    assert supported == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
    for q in supported:
        assert _id_dtype((q**3 + 1) * (q + 1)) == (np.int16 if q <= 13 else np.int32), q
    assert _id_dtype(2**15) == np.int16 and _id_dtype(2**15 + 1) == np.int32
    for q in (2, 3, 4, 5):
        model = get_model(q)
        lines = enumerate_generators(model)
        # the reference lists each point's generators ascending, in int32
        owner = np.repeat(np.arange(len(lines), dtype=np.int32), lines.shape[1])
        reference = owner[np.lexsort((owner, lines.ravel()))].reshape(model.num_points, q + 1)
        through = model.generators_of(np.arange(model.num_points))
        assert through.dtype == np.intp and model._gens_by_point.dtype == np.int16
        assert np.array_equal(through, reference)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_ids_leave_the_model_as_intp(q):
    # the narrow generator table is stored, never handed out: arithmetic on
    # the ids a caller reads cannot wrap on numpy 1's value-based casting
    model = get_model(q)
    cap = CapState.from_ids(model, model.classical_ovoid_ids()[: q + 1])
    assert model._gens_by_point.dtype == np.int16
    assert model.generators_of(np.arange(model.num_points)).dtype == np.intp
    assert model.generators_of(np.array([0], dtype=np.int16)).dtype == np.intp
    assert model.generators_of(0).dtype == np.intp
    assert model.pencil(0).dtype == np.intp
    assert cap.uncovered().dtype == np.intp


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_summed_over_generators_across_block_boundaries(q, monkeypatch):
    # blocks of 7 ids: empty, a part block, exactly one, one and a bit, and
    # several; each dtype against a plain int64 sum, cast (wrapping) at the end
    monkeypatch.setattr(hermitian, "RELEVANCE_BLOCK", 7)
    model = get_model(q)
    num_gens = len(enumerate_generators(model))
    gen = np.random.default_rng(q)
    values = [
        gen.integers(-1000, 1000, num_gens).astype(np.int16),
        gen.integers(-(2**40), 2**40, num_gens),
        gen.integers(-128, 128, (num_gens, 3)).astype(np.int8),
    ]
    for n in (0, 1, 6, 7, 8, 23):
        pids = gen.integers(0, model.num_points, n)
        for v in values:
            expected = v.astype(np.int64)[model.generators_of(pids)].sum(axis=1).astype(v.dtype)
            got = _summed_over_generators(model, v, pids)
            assert got.dtype == v.dtype and got.shape == (n,) + v.shape[1:]
            assert np.array_equal(got, expected), (n, v.dtype)


def test_pickled_model_is_small():
    # a spawned worker receives the model by pickle; no per-point section table rides along
    assert len(pickle.dumps(get_model(7))) < 3 * 2**20


def test_repeated_generator_row_is_rejected(model_q3):
    from hermcap import hermitian
    from hermcap.errors import ConfigurationError

    lines = enumerate_generators(model_q3)
    assert np.array_equal(hermitian._sorted_lines(lines[::-1]), lines)
    bad = lines.copy()
    bad[5] = bad[40]
    with pytest.raises(ConfigurationError, match="not distinct lines"):
        hermitian._sorted_lines(bad)


@pytest.mark.parametrize("corrupt", ["identity-conj", "ovoid-point-off-polar-plane"])
def test_generated_point_off_the_surface_is_caught(corrupt):
    # the closed form needs o_3 = 0 and the true conjugation; break either
    # and some spanned point misses the surface
    from hermcap import enumerate_surface
    from hermcap.errors import ConfigurationError

    model = enumerate_surface(get_model(3).field)  # a fresh model: the cached one stays intact
    if corrupt == "identity-conj":
        model.field = dataclasses.replace(model.field, conj=np.arange(model.q2, dtype=np.int32))
    else:
        ovoid = model._classical_ovoid.copy()
        ovoid[0] = np.flatnonzero(model.coords[:, 3])[0]
        model._classical_ovoid = ovoid
    with pytest.raises(ConfigurationError, match="a generated point is off the surface"):
        model._build_generators()


@pytest.mark.parametrize("direction", ["to-a-later-point", "to-an-earlier-point"])
def test_generator_table_with_a_moved_point_is_caught(direction, monkeypatch):
    # one entry of a generator row moved to another point: one point is then
    # on q generators and another on q + 2, so some sorted key leaves its row
    from hermcap import enumerate_surface, hermitian
    from hermcap.errors import ConfigurationError

    model = enumerate_surface(get_model(3).field)  # a fresh model: the cached one stays intact
    sorted_lines = hermitian._sorted_lines

    def moving(lines):
        lines = sorted_lines(lines).copy()
        row = lines[7]
        elsewhere = np.setdiff1d(np.arange(model.num_points), row)
        target = elsewhere[-1] if direction == "to-a-later-point" else elsewhere[0]
        assert (target > row[1]) == (direction == "to-a-later-point")
        row[1] = target
        return lines

    monkeypatch.setattr(hermitian, "_sorted_lines", moving)
    with pytest.raises(ConfigurationError, match="a point is not on exactly q \\+ 1 generators"):
        model._build_generators()


@pytest.mark.parametrize("bad", [-1, "N"])
@pytest.mark.parametrize(
    "query", ["pencil", "coords_of", "is_conjugate-first", "is_conjugate-second"]
)
def test_scalar_queries_reject_ids_off_the_surface(model_q2, query, bad):
    # -1 used to wrap round to point N - 1, and N raised a bare IndexError
    n = model_q2.num_points
    pid = n if bad == "N" else bad
    call = {
        "pencil": lambda: model_q2.pencil(pid),
        "coords_of": lambda: model_q2.coords_of(pid),
        "is_conjugate-first": lambda: model_q2.is_conjugate(pid, n - 1),
        "is_conjugate-second": lambda: model_q2.is_conjugate(n - 1, pid),
    }[query]
    with pytest.raises(ValueError, match=rf"point ids must lie in \[0, {n}\)"):
        call()


@pytest.mark.parametrize("q", [2, 3])
def test_tangent_sets_match_pairwise_oracle(q):
    model = get_model(q)
    oracle = tangent_sets_by_pairs(model)
    for x in range(model.num_points):
        assert set(model.pencil(x).tolist()) == oracle[x]


@pytest.mark.parametrize("q", [5, 7])
def test_tangent_rows_satisfy_scalar_form(q):
    # gx distinct ids that are all conjugate to x pin the row down exactly
    model = get_model(q)
    f = model.field
    rng = SplitMix64(40 + q)
    for _ in range(12):
        x = rng.randbelow(model.num_points)
        row = np.unique(model.pencil(x))
        assert len(row) == model.gx_size and (np.diff(row) > 0).all()
        cx = model.coords_of(x)
        assert all(hermitian_inner(f, cx, model.coords_of(int(y))) == 0 for y in row)


def test_conjugacy_symmetric(model_q5):
    rng = SplitMix64(11)
    n = model_q5.num_points
    for _ in range(1000):
        a, b = rng.randbelow(n), rng.randbelow(n)
        assert model_q5.is_conjugate(a, b) == model_q5.is_conjugate(b, a)


def test_hermitian_inner_conjugate_swap(model_q3):
    f = model_q3.field
    rng = SplitMix64(4)
    for _ in range(300):
        x = model_q3.coords_of(rng.randbelow(model_q3.num_points))
        y = model_q3.coords_of(rng.randbelow(model_q3.num_points))
        assert hermitian_inner(f, y, x) == f.conj[hermitian_inner(f, x, y)]


def test_scalar_form_matches_vectorized_form(model_q2, model_q3):
    # every ordered pair of the 45 points at q = 2, and 1,000 seeded pairs at q = 3
    assert model_q2.num_points == 45
    rng, n3 = SplitMix64(38), model_q3.num_points
    for model, pairs in (
        (model_q2, [(a, b) for a in range(45) for b in range(45)]),
        (model_q3, [(rng.randbelow(n3), rng.randbelow(n3)) for _ in range(1000)]),
    ):
        f, coords = model.field, model.coords
        for a, b in pairs:
            form = hermitian._form(f, coords[a], coords[b])
            assert hermitian_inner(f, model.coords_of(a), model.coords_of(b)) == form


def test_normalize_point_undoes_every_scalar(model_q2):
    f = model_q2.field
    for pid in range(model_q2.num_points):
        x = model_q2.coords_of(pid)
        for lam in range(1, f.order2):
            assert normalize_point(f, f.mul2[lam, list(x)]) == x


def test_disjoint_support_points_are_conjugate(model_q2):
    f = model_q2.field
    assert hermitian_inner(f, (1, 0, 0, 0), (0, 1, 0, 0)) == 0


def test_hermitian_inner_takes_two_points_of_four_integers(model_q2):
    f = model_q2.field
    # zip would stop at the shorter point, and int() truncate a float
    for x, y in [((1, 0), (1, 0, 0, 0)), ((1, 0, 0, 0), (1, 0, 0, 0, 0)), ((), ())]:
        with pytest.raises(ValueError, match="four coordinates"):
            hermitian_inner(f, x, y)
    # -1 would index the tables from the end (element 3 at q = 2), and q^2 past them
    for bad in [(-1, 0, 0, 0), (0, 0, 0, model_q2.q2)]:
        with pytest.raises(ValueError, match="four coordinates"):
            hermitian_inner(f, bad, (1, 0, 0, 0))
        with pytest.raises(ValueError, match="four coordinates"):
            hermitian_inner(f, (1, 0, 0, 0), bad)
    for bad in [(1.0, 0, 0, 0), ("1", 0, 0, 0), (1, 0, 0, 0.5)]:
        with pytest.raises(TypeError):
            hermitian_inner(f, bad, (1, 0, 0, 0))
        with pytest.raises(TypeError):
            hermitian_inner(f, (1, 0, 0, 0), bad)
    assert hermitian_inner(f, np.array([1, 0, 0, 0]), (1, 0, 0, 0)) == 1  # numpy integers are integers


def test_generators_against_line_oracle_q2(model_q2):
    # oracle: enumerate every line of PG(3,4) and keep those inside the surface
    surface = set(surface_points(model_q2.field))
    full_lines = {ln for ln in all_lines_pg3(model_q2.field) if ln <= surface}
    assert len(full_lines) == 27
    gens = enumerate_generators(model_q2)
    got = {frozenset(model_q2.coords_of(int(p)) for p in g) for g in gens}
    assert got == full_lines


@pytest.mark.parametrize("q", [2, 3, 5])
def test_generator_counts(q):
    model = get_model(q)
    gens = enumerate_generators(model)
    assert len(gens) == GENS[q] == (q**3 + 1) * (q + 1)
    assert gens.shape == (GENS[q], q**2 + 1) and gens.dtype == np.int32
    assert (np.bincount(gens.ravel(), minlength=model.num_points) == q + 1).all()
    # the two incidence arrays agree: every point lies on each generator listed for it
    pids = np.arange(model.num_points)
    assert (gens[model.generators_of(pids)] == pids[:, None, None]).any(axis=2).all()


def test_generator_pairs_are_conjugate(model_q3):
    for g in enumerate_generators(model_q3)[::7]:
        pts = g.tolist()
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                assert model_q3.is_conjugate(a, b)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_conjugate_iff_common_generator(q):
    model = get_model(q)
    gens = enumerate_generators(model)
    on_line = set()
    for g in gens:
        pts = g.tolist()
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                on_line.add((min(a, b), max(a, b)))
    rng = SplitMix64(100 + q)
    for _ in range(1000):
        a, b = rng.randbelow(model.num_points), rng.randbelow(model.num_points)
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        assert model.is_conjugate(a, b) == (key in on_line)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_classical_ovoid(q):
    model = get_model(q)
    ov = model.classical_ovoid_ids()
    assert len(ov) == q**3 + 1
    assert is_cap(model, ov)
    mask = np.zeros(model.num_points, dtype=bool)
    mask[ov] = True
    assert (mask[enumerate_generators(model)].sum(axis=1) == 1).all()
    # the polar plane of the pole, read through the scalar form
    f, n = model.field, model.num_points
    polar = [i for i in range(n) if hermitian_inner(f, model.coords_of(i), CANONICAL_POLE) == 0]
    assert ov.tolist() == polar


def test_checked_ids_takes_a_signed_integer_array_as_it_is(model_q2):
    ids = np.arange(5, dtype=np.int32)
    assert checked_ids(model_q2, ids) is ids
    assert checked_ids(model_q2, np.arange(5, dtype=np.uint8)).tolist() == list(range(5))
    with pytest.raises(TypeError):
        checked_ids(model_q2, np.array([1.0]))
    with pytest.raises(ValueError):
        checked_ids(model_q2, np.array([0, model_q2.num_points], dtype=np.int16))


def test_tangent_rows_check_their_ids(model_q2):
    # bad input is a ValueError, not a corrupted-model ConfigurationError or an IndexError
    n = model_q2.num_points
    for bad in ([-1], [n], [0, n]):
        with pytest.raises(ValueError, match=rf"point ids must lie in \[0, {n}\)"):
            model_q2.tangent_rows(np.array(bad))
    assert np.array_equal(model_q2.tangent_rows([3, 0]), model_q2.tangent_rows(np.array([3, 0])))


@settings(deadline=None)
@given(
    dtype=st.sampled_from([np.int32, np.int64, np.intp]),
    values=st.lists(st.integers(-(2**31), 2**31 - 1) | st.integers(0, 9), max_size=30),
    repeats=st.integers(1, 3),
)
@example(dtype=np.int32, values=[], repeats=1)
@example(dtype=np.int64, values=[7], repeats=1)
@example(dtype=np.intp, values=[7], repeats=3)
def test_sorted_distinct_matches_np_unique(dtype, values, repeats):
    ids = np.array(values * repeats, dtype=dtype)
    got, want = _sorted_distinct(ids), np.unique(ids)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_generator_array_is_read_only(model_q2):
    gens = enumerate_generators(model_q2)
    with pytest.raises(ValueError):
        gens[0, 0] = 1
    # every model array, the ovoid handed out by classical_ovoid_ids too, and
    # again once a pickled model (a spawned worker's copy) is loaded
    for model in (model_q2, pickle.loads(pickle.dumps(model_q2))):
        arrays = [model.coords, model.keys, model.classical_ovoid_ids(), model._gen_points, model._gens_by_point]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr.ravel()[0] = 5


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_generators_through_each_point_ascend_and_hold_it(q):
    # read against the generator rows themselves, not a digest
    model = get_model(q)
    points = np.arange(model.num_points)
    gens = model.generators_of(points)
    assert gens.shape == (model.num_points, q + 1)
    assert (np.diff(gens, axis=1) > 0).all()
    lines = enumerate_generators(model)
    assert (lines[gens] == points[:, None, None]).any(axis=2).all()


@pytest.mark.parametrize("q", [2, 3])
def test_canonical_pole_is_first_off_surface(q):
    f = get_model(q).field
    first_off = next(x for x in pg3_points(f) if hermitian_inner(f, x, x) != 0)
    assert CANONICAL_POLE == first_off


def test_is_cap_examples(model_q2):
    gens = enumerate_generators(model_q2)
    ov = model_q2.classical_ovoid_ids()
    # (points, is a cap, is an ovoid)
    cases = [
        ([], True, False),
        ([7], True, False),
        ([7, 7], False, False),
        (gens[0], False, False),
        (ov, True, True),
        (ov[:-1], True, False),
        (np.append(ov, ov[0]), False, False),
    ]
    for points, cap, ovoid in cases:
        assert is_cap(model_q2, points) == cap == cap_by_form(model_q2, list(points))
        assert is_ovoid(model_q2, points) == ovoid == ovoid_by_form(model_q2, list(points))
    for bad in ([model_q2.num_points], [0, -1]):
        with pytest.raises(ValueError):
            is_cap(model_q2, bad)
        with pytest.raises(ValueError):
            is_ovoid(model_q2, bad)


@pytest.mark.parametrize("q", [2, 3])
def test_cap_and_ovoid_tests_match_form_oracle(q):
    # complete caps (some of them ovoids), random subsets of them, and the
    # subsets with a random surface point added (often breaking the cap)
    model = get_model(q)
    rng = SplitMix64(60 + q)
    for i in range(30):
        final = run_strategy(model, [], SearchConfig(rng_seed=i)).final_cap.tolist()
        sub = rng.sample(final, rng.randbelow(len(final) + 1))
        for points in (final, sub, sub + [rng.randbelow(model.num_points)]):
            assert is_cap(model, points) == cap_by_form(model, points)
            assert is_ovoid(model, points) == ovoid_by_form(model, points)


def test_point_on_surface_from_norm_equation(model_q5):
    # (1, 0, 0, a) lies on the surface exactly when norm(a) = -1
    f = model_q5.field
    minus_one = int(np.flatnonzero(f.add2[1] == 0)[0])
    on = [a for a in range(f.order2) if f.norm[a] == minus_one]
    assert len(on) == f.q + 1
    for a in on:
        assert hermitian_inner(f, (1, 0, 0, a), (1, 0, 0, a)) == 0
        model_q5.point_id((1, 0, 0, a))  # resolvable to a PointId
