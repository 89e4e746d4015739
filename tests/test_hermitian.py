import numpy as np
import pytest

from hermcap import (
    CANONICAL_POLE,
    SearchConfig,
    SplitMix64,
    StrategyKind,
    classical_ovoid,
    enumerate_generators,
    generators_through,
    hermitian_inner,
    is_cap,
    normalize_point,
    run_strategy,
)
from hermcap.errors import TangentPlaneError
from hermcap.hermitian import plane_pole, polar_plane

from .conftest import get_model
from .oracles import all_lines_pg3, pg3_points, surface_points, tangent_sets_by_pairs

COUNTS = {2: 45, 3: 280, 5: 3276, 7: 17200}
GX = {2: 13, 3: 37, 5: 151, 7: 393}
GENS = {2: 27, 3: 112, 5: 756, 7: 2752}


@pytest.mark.parametrize("q", [2, 3, 5])
def test_point_counts(q):
    model = get_model(q)
    assert model.num_points == COUNTS[q] == (q**3 + 1) * (q**2 + 1)


def test_surface_matches_exhaustive_scan_q2(model_q2):
    # independent oracle: scan all 85 points of PG(3,4) with the scalar form
    pts = surface_points(model_q2.field)
    assert len(pts) == 45
    assert pts == [model_q2.coords_of(i) for i in range(45)]


def test_point_ordering_is_by_encoding(model_q3):
    keys = model_q3.keys
    assert (np.diff(keys) > 0).all()


def test_normalization_canonical(model_q3):
    f = model_q3.field
    x = model_q3.coords_of(17)
    for s in range(2, f.order2):
        scaled = tuple(f.mul(s, c) for c in x)
        assert normalize_point(f, scaled) == x


@pytest.mark.parametrize("q", [2, 3, 5])
def test_tangent_sections(q):
    model = get_model(q)
    for x in range(0, model.num_points, max(1, model.num_points // 50)):
        row = model.tangent_set(x)
        assert len(row) == GX[q] == q**3 + q**2 + 1
        assert (np.diff(row) > 0).all()
        assert x in row


@pytest.mark.parametrize("q", [2, 3])
def test_tangent_sets_match_pairwise_oracle(q):
    model = get_model(q)
    oracle = tangent_sets_by_pairs(model)
    for x in range(model.num_points):
        assert set(map(int, model.tangent_set(x))) == oracle[x]


@pytest.mark.parametrize("q", [5, 7])
def test_tangent_rows_satisfy_scalar_form(q):
    # gx distinct ids that are all conjugate to x pin the row down exactly
    model = get_model(q)
    f = model.field
    rng = SplitMix64(40 + q)
    for _ in range(12):
        x = rng.randbelow(model.num_points)
        row = model.tangent_set(x)
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
        assert hermitian_inner(f, y, x) == f.conj_of(hermitian_inner(f, x, y))


def test_disjoint_support_points_are_conjugate(model_q2):
    f = model_q2.field
    assert hermitian_inner(f, (1, 0, 0, 0), (0, 1, 0, 0)) == 0


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
    assert all(
        len(generators_through(model, x)) == q + 1 for x in range(model.num_points)
    )


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
    ov = classical_ovoid(model)
    assert len(ov) == q**3 + 1
    assert is_cap(model, ov)
    mask = np.zeros(model.num_points, dtype=bool)
    mask[ov] = True
    assert (mask[enumerate_generators(model)].sum(axis=1) == 1).all()


def test_generator_array_is_read_only(model_q2):
    gens = enumerate_generators(model_q2)
    with pytest.raises(ValueError):
        gens[0, 0] = 1


@pytest.mark.parametrize("q", [2, 3])
def test_canonical_pole_is_first_off_surface(q):
    f = get_model(q).field
    first_off = next(x for x in pg3_points(f) if hermitian_inner(f, x, x) != 0)
    assert CANONICAL_POLE == first_off


def test_ovoid_rejects_pole_on_surface(model_q2):
    on_surface = model_q2.coords_of(0)
    with pytest.raises(TangentPlaneError):
        classical_ovoid(model_q2, pole=on_surface)


def test_polarity_involution(model_q5):
    f = model_q5.field
    rng = SplitMix64(8)
    for _ in range(100):
        coords = tuple(rng.randbelow(f.order2) for _ in range(4))
        if not any(coords):
            continue
        pole = normalize_point(f, coords)
        assert plane_pole(f, polar_plane(f, pole)) == pole


def test_is_cap_examples(model_q2):
    gens = enumerate_generators(model_q2)
    assert is_cap(model_q2, [7])
    assert not is_cap(model_q2, gens[0])
    ov = classical_ovoid(model_q2)
    assert is_cap(model_q2, ov)
    # oracle form: explicit pairwise conjugacy scan
    f = model_q2.field
    for i, a in enumerate(map(int, ov)):
        for b in map(int, ov[i + 1 :]):
            assert (
                hermitian_inner(f, model_q2.coords_of(a), model_q2.coords_of(b)) != 0
            )


def test_point_on_surface_from_norm_equation(model_q5):
    # (1, 0, 0, a) lies on the surface exactly when norm(a) = -1
    f = model_q5.field
    minus_one = f.neg[1]
    on = [a for a in range(f.order2) if f.norm_of(a) == minus_one]
    assert len(on) == f.q + 1
    for a in on:
        assert hermitian_inner(f, (1, 0, 0, a), (1, 0, 0, a)) == 0
        model_q5.point_id((1, 0, 0, a))  # resolvable to a PointId


def test_lazy_tangent_mode_matches_dense(model_q2, monkeypatch):
    from hermcap import enumerate_surface, hermitian

    monkeypatch.setattr(hermitian, "DENSE_LIMIT_BYTES", 0)
    lazy = enumerate_surface(model_q2.field)
    assert lazy.tangent_dense is None
    for x in range(lazy.num_points):
        assert np.array_equal(lazy.tangent_set(x), model_q2.tangent_set(x))
    ids = np.arange(lazy.num_points)
    assert np.array_equal(lazy.tangent_rows(ids), model_q2.tangent_dense)
    assert lazy.tangent_rows(ids[:0]).shape == (0, lazy.gx_size)
    # the relevance vector is built and updated from on-demand rows too
    config = SearchConfig(strategy=StrategyKind.MIN_RELEVANCE, rng_seed=3)
    assert np.array_equal(
        run_strategy(lazy, [], config).final_cap, run_strategy(model_q2, [], config).final_cap
    )
