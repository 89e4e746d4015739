import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermcap import (
    CapState,
    FieldSpec,
    SearchConfig,
    SplitMix64,
    StrategyKind,
    SurfaceModel,
    build_field,
    enumerate_generators,
    enumerate_surface,
    is_cap,
    is_ovoid,
    run_strategy,
    sample_subcap,
)
from hermcap.errors import CapViolationError, MemberNotFoundError
from hermcap import capstate, hermitian
from hermcap.galois import MAX_Q
from hermcap.hermitian import _generator_sums, _sorted_distinct, _summed_over_generators

from .conftest import get_model
from .oracles import relevance_by_sets, tangent_sets_by_pairs


def random_cap(model, rng, max_size):
    """Grow a cap by random legal additions, stopping early at max_size."""
    cap = CapState(model)
    while len(cap) < max_size:
        m = cap.uncovered()
        if not m.size:
            break
        cap.add_point(int(m[rng.randbelow(m.size)]))
    return cap


def test_empty_state(model_q2):
    cap = CapState(model_q2)
    assert len(cap) == 0
    assert np.count_nonzero(cap.cmult) == 0
    assert not cap.is_complete()
    assert len(cap.uncovered()) == model_q2.num_points
    assert cap.coverage_mult(3) == 0 and cap.coverage_intersect(3) == 0


def test_single_add_covers_tangent_section(model_q5):
    cap = CapState(model_q5)
    cap.add_point(0)
    assert np.count_nonzero(cap.cmult) == 151
    assert cap.relevance(0) == 0
    assert cap.coverage_mult(0) == 1


def test_add_remove_is_involution(model_q3):
    rng = SplitMix64(1)
    cap = random_cap(model_q3, rng, 10)
    before_cmult = cap.cmult.copy()
    x = int(cap.uncovered()[0])
    cap.add_point(x)
    cap.remove_point(x)
    assert np.array_equal(cap.cmult, before_cmult)


def test_add_covered_point_rejected(model_q2):
    cap = CapState(model_q2)
    cap.add_point(0)
    conj = int(np.unique(model_q2.pencil(0))[1])
    with pytest.raises(CapViolationError):
        cap.add_point(conj)
    with pytest.raises(CapViolationError):
        cap.add_point(0)
    with pytest.raises(CapViolationError):
        CapState.from_ids(model_q2, [0, conj])


def test_from_ids_checks_the_cap_before_narrowing_the_counts():
    # each of the q^2 + 1 = 257 points of a generator at q = 16 lies in all
    # 257 sections, which a uint8 count reads as 1; not from the model cache,
    # where the model would stay resident
    model = enumerate_surface(build_field(FieldSpec.for_q(16)))
    with pytest.raises(CapViolationError):
        CapState.from_ids(model, enumerate_generators(model)[0])


def test_from_ids_rejects_a_non_cap_before_gathering_a_pencil(model_q5, monkeypatch):
    # the cap test reads the generators alone, and the error names the least
    # member conjugate to another member
    rng, n = SplitMix64(6), model_q5.num_points
    conj = int(_sorted_distinct(model_q5.pencil(700))[-1])
    mixed = model_q5.classical_ovoid_ids()[:5].tolist() + rng.sample(range(n), 3)
    gathered = []
    pencil_rows = SurfaceModel.pencil_rows

    def spy(self, pids):
        gathered.append(len(pids))
        return pencil_rows(self, pids)

    monkeypatch.setattr(SurfaceModel, "pencil_rows", spy)
    for ids in ([conj, 700], range(n), mixed):
        ids = list(ids)
        named = min(x for x in ids if any(model_q5.is_conjugate(x, y) for y in ids if y != x))
        with pytest.raises(CapViolationError, match=f"^point {named} is covered"):
            CapState.from_ids(model_q5, ids)
    assert gathered == []


def test_copy_is_independent_of_the_original(model_q3):
    cap = random_cap(model_q3, SplitMix64(5), 6)
    every = np.arange(model_q3.num_points)
    members, cmult, rel = set(cap.members), cap.cmult.copy(), cap.relevance_many(every).copy()
    dup = cap.copy()
    dup.relevance_many(every)
    dup.remove_point(min(dup.members))
    dup.add_point(int(dup.uncovered()[-1]))
    assert cap.members == members
    assert np.array_equal(cap.cmult, cmult)
    assert np.array_equal(cap.relevance_many(every), rel)
    fresh = CapState.from_ids(model_q3, dup.members)
    assert np.array_equal(dup.cmult, fresh.cmult)
    assert np.array_equal(dup.relevance_many(every), fresh.relevance_many(every))


def test_from_ids_rejects_ids_off_the_surface(model_q2):
    assert CapState.from_ids(model_q2, [3, 3]).members == {3}
    for bad in ([-1], [2, model_q2.num_points]):
        with pytest.raises(ValueError):
            CapState.from_ids(model_q2, bad)


@pytest.mark.parametrize("bad", [-1, "N"])
def test_add_point_rejects_ids_off_the_surface(model_q2, bad):
    # -1 used to wrap round to point N - 1 and join the cap as member -1
    n = model_q2.num_points
    cap = CapState.from_ids(model_q2, [3])
    cap.relevance(0)  # build the relevance vector, so its update is checked too
    cmult, rel = cap.cmult.copy(), cap.relevance_many(np.arange(n)).copy()
    with pytest.raises(ValueError, match=rf"point ids must lie in \[0, {n}\)"):
        cap.add_point(n if bad == "N" else bad)
    assert cap.members == {3}
    assert np.array_equal(cap.cmult, cmult)
    assert np.array_equal(cap.relevance_many(np.arange(n)), rel)


@pytest.mark.parametrize("bad", [-1, "N"])
@pytest.mark.parametrize(
    "query",
    [
        "relevance",
        "coverage_mult",
        "coverage_intersect",
        "remove_point",
        "removal_relevance",
        "weight",
    ],
)
def test_scalar_queries_reject_ids_off_the_surface(model_q2, query, bad):
    # -1 used to read point N - 1's value, and N raised a bare IndexError; the
    # member calls raised MemberNotFoundError for both
    n = model_q2.num_points
    cap = CapState.from_ids(model_q2, [3])
    with pytest.raises(ValueError, match=rf"point ids must lie in \[0, {n}\)"):
        getattr(cap, query)(n if bad == "N" else bad)
    assert cap.members == {3}


@pytest.mark.parametrize("container", [list, np.array])
@pytest.mark.parametrize("bad", [-1, "N"])
@pytest.mark.parametrize(
    "query", ["relevance_many", "removal_relevance_many", "weight_after_add_many"]
)
def test_vector_queries_reject_ids_off_the_surface(model_q2, query, bad, container):
    # -1 used to read point N - 1's value, and N raised a bare IndexError
    n = model_q2.num_points
    cap = CapState.from_ids(model_q2, [3])
    with pytest.raises(ValueError, match=rf"point ids must lie in \[0, {n}\)"):
        getattr(cap, query)(container([3, n if bad == "N" else bad]))


@pytest.mark.parametrize(
    "read",
    [
        lambda cap, ids: cap.uncovered_relevance(ids),
        lambda cap, ids: cap.model.generators_of(ids),
        lambda cap, ids: cap.model.pencil_rows(ids),
    ],
    ids=["uncovered_relevance", "generators_of", "pencil_rows"],
)
def test_unchecked_reads_by_point_id_fail_off_the_surface(model_q2, read):
    # these reads take a caller's ids unchecked, so the gather by point id
    # keeps numpy's range check: id N fails loudly, it is not read modulo N
    cap = CapState.from_ids(model_q2, [3])
    with pytest.raises(IndexError):
        read(cap, np.array([0, model_q2.num_points]))


@pytest.mark.parametrize("bad", [1.7, "3"])
@pytest.mark.parametrize(
    "call",
    [
        lambda model, x: CapState.from_ids(model, [x]),
        lambda model, x: CapState(model).add_point(x),
        lambda model, x: CapState.from_ids(model, [0]).relevance(x),
        lambda model, x: is_cap(model, [x]),
        lambda model, x: CapState.from_ids(model, [3]).remove_point(x),
        lambda model, x: CapState.from_ids(model, [3]).removal_relevance(x),
        lambda model, x: CapState.from_ids(model, [3]).weight(x),
        lambda model, x: CapState.from_ids(model, [3]).relevance_many([x]),
        lambda model, x: CapState.from_ids(model, [3]).removal_relevance_many([x]),
        lambda model, x: CapState(model).weight_after_add_many([x]),
        lambda model, x: sample_subcap([0, x], 2, SplitMix64(0)),
    ],
    ids=[
        "from_ids",
        "add_point",
        "relevance",
        "is_cap",
        "remove_point",
        "removal_relevance",
        "weight",
        "relevance_many",
        "removal_relevance_many",
        "weight_after_add_many",
        "sample_subcap",
    ],
)
def test_point_ids_must_be_integers(model_q2, call, bad):
    # float and string ids used to be truncated or parsed to a point
    with pytest.raises(TypeError):
        call(model_q2, bad)


@pytest.mark.parametrize(
    "ids",
    [[2**63], [2**70], [-(2**63) - 1], np.array([2**63], dtype=np.uint64)],
    ids=["2**63", "2**70", "-2**63-1", "uint64"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda model, ids: CapState.from_ids(model, ids),
        lambda model, ids: CapState(model).add_point(ids[0]),
        lambda model, ids: CapState(model).relevance(ids[0]),
        lambda model, ids: CapState(model).relevance_many(ids),
        lambda model, ids: is_cap(model, ids),
        lambda model, ids: run_strategy(model, ids, SearchConfig()),
    ],
    ids=["from_ids", "add_point", "relevance", "relevance_many", "is_cap", "run_strategy"],
)
def test_ids_beyond_int64_are_off_the_surface(model_q2, call, ids):
    # these used to escape as OverflowError from the int64 conversion
    with pytest.raises(ValueError, match=rf"point ids must lie in \[0, {model_q2.num_points}\)"):
        call(model_q2, ids)


@pytest.mark.parametrize(
    "ids",
    [np.array([[1, 2]]), np.array([[1, 2]], dtype=np.uint8), np.array(1)],
    ids=["2-D", "2-D uint8", "0-d"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda model, ids: CapState.from_ids(model, ids),
        lambda model, ids: CapState(model).relevance_many(ids),
        lambda model, ids: CapState.from_ids(model, [1]).removal_relevance_many(ids),
        lambda model, ids: CapState(model).weight_after_add_many(ids),
        lambda model, ids: is_cap(model, ids),
        lambda model, ids: is_ovoid(model, ids),
        lambda model, ids: run_strategy(model, ids, SearchConfig()),
    ],
    ids=["from_ids", "relevance_many", "removal_relevance_many", "weight_after_add_many",
         "is_cap", "is_ovoid", "run_strategy"],
)
def test_id_arrays_must_be_one_dimensional(model_q2, call, ids):
    # each would raise IndexError, TypeError or a reshape error, or read the array flattened
    with pytest.raises(ValueError, match="point ids must be a one-dimensional array"):
        call(model_q2, ids)


def test_remove_nonmember_rejected(model_q2):
    cap = CapState(model_q2)
    with pytest.raises(MemberNotFoundError):
        cap.remove_point(5)


@pytest.mark.parametrize("container", [list, np.array])
def test_vector_queries_check_their_preconditions(model_q2, container):
    # 12 is covered by the member 3; these calls used to return [5] and [19/2, 11/2]
    cap = CapState.from_ids(model_q2, [3])
    uncovered = int(cap.uncovered()[0])
    assert cap.cmult[12] > 0 and 12 not in cap.members
    with pytest.raises(MemberNotFoundError, match="point 12 is not a cap member"):
        cap.removal_relevance_many(container([3, 12]))
    with pytest.raises(MemberNotFoundError, match=f"point {uncovered} is not a cap member"):
        cap.removal_relevance_many(container([uncovered]))
    with pytest.raises(CapViolationError, match="point 12 is covered"):
        cap.weight_after_add_many(container([uncovered, 12, 3]))
    with pytest.raises(CapViolationError, match="point 3 is covered"):
        cap.weight_after_add_many(container([3]))
    assert cap.members == {3}
    assert cap.removal_relevance_many(container([3])).tolist() == [model_q2.gx_size]


def test_member_multiplicity_is_one(model_q3):
    cap = random_cap(model_q3, SplitMix64(2), 8)
    for x in cap.members:
        assert cap.coverage_mult(x) == 1


@pytest.mark.parametrize("q", [2, 3, 5])
def test_incremental_matches_recomputation(q):
    model = get_model(q)
    rng = SplitMix64(40 + q)
    cap = CapState(model)
    for _ in range(300):
        m = cap.uncovered()
        if m.size and (not cap.members or rng.randbelow(3) != 0):
            cap.add_point(int(m[rng.randbelow(m.size)]))
        elif cap.members:
            cap.remove_point(rng.choice(sorted(cap.members)))
        fresh = CapState.from_ids(model, cap.members)
        assert np.array_equal(fresh.cmult, cap.cmult)
        assert fresh.members == cap.members


# (operation, index): the index picks among the points the operation accepts
MUTATIONS = st.lists(
    st.tuples(st.sampled_from(["add", "remove", "read"]), st.integers(0, 2**16)),
    max_size=30,
)


@pytest.fixture(scope="module")
def tsets_q2(model_q2):
    return tangent_sets_by_pairs(model_q2)


@pytest.mark.parametrize("q", [2, 3])
@settings(deadline=None)
@given(steps=MUTATIONS)
def test_relevance_vector_tracks_mutations(q, steps, tsets_q2):
    # reads fall at random positions, so the lazily built vector starts at
    # different cap states; once it exists every later mutation must keep it
    model = get_model(q)
    n, gx = model.num_points, model.gx_size
    rows = model.tangent_rows(np.arange(n))
    cap = CapState(model)
    read = False
    for op, i in steps + [("read", 0)]:
        if op == "add":
            m = cap.uncovered()
            if m.size:
                cap.add_point(int(m[i % m.size]))
        elif op == "remove" and cap.members:
            cap.remove_point(sorted(cap.members)[i % len(cap.members)])
        assert cap.cmult.dtype == np.uint8 and cap.cmult.max() <= q + 1
        assert cap.uncovered().dtype == np.intp
        assert model.pencil(i % n).dtype == np.intp
        read = read or op == "read"
        if not read:
            continue
        rel = cap.relevance_many(np.arange(n))
        assert np.array_equal(rel, np.count_nonzero(cap.cmult[rows] == 0, axis=1))
        if op == "read":
            for x in range(n):
                assert rel[x] + cap.coverage_intersect(x) == gx
                if q == 2:
                    assert rel[x] == relevance_by_sets(tsets_q2, cap.members, x)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@settings(deadline=None)
@given(steps=st.lists(st.tuples(st.sampled_from(["add", "remove", "copy"]), st.integers(0, 2**16)), max_size=30))
def test_uncovered_read_matches_the_checked_read(q, steps):
    # the unchecked read's scalar shift and the count updates, which set the
    # member's own generators outright, after every mutation and on fresh copies
    model = get_model(q)
    cap = CapState(model)
    for op, i in steps + [("copy", 0)]:
        if op == "add":
            m = cap.uncovered()
            if m.size:
                cap.add_point(int(m[i % m.size]))
        elif op == "remove" and cap.members:
            cap.remove_point(sorted(cap.members)[i % len(cap.members)])
        elif op == "copy":
            cap = cap.copy()
        m = cap.uncovered()
        rel = cap.uncovered_relevance(m)
        assert rel.dtype == np.int16
        assert np.array_equal(rel, cap.relevance_many(m))
        assert np.array_equal(cap._unc, _generator_sums(model, m))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@settings(deadline=None)
@given(steps=st.lists(st.tuples(st.sampled_from(["add", "remove", "copy"]), st.integers(0, 2**16)), max_size=30))
def test_removal_read_on_the_generators_matches_the_pencil_count(q, steps):
    # removal relevance sums the once-covered points on the member's
    # generators; written out here as the count over its pencil, where the
    # member stands q + 1 times at multiplicity 1
    model = get_model(q)
    cap = CapState(model)
    for op, i in steps + [("copy", 0)]:
        if op == "add":
            m = cap.uncovered()
            if m.size:
                cap.add_point(int(m[i % m.size]))
        elif op == "remove" and cap.members:
            cap.remove_point(sorted(cap.members)[i % len(cap.members)])
        elif op == "copy":
            cap = cap.copy()
        members = cap.members_sorted()
        expected = [np.count_nonzero(cap.cmult[model.pencil(int(x))] == 1) - q for x in members]
        rel = cap.removal_relevance_many(members)
        assert rel.dtype == np.int64
        assert rel.tolist() == expected
        assert [cap.removal_relevance(int(x)) for x in members] == expected
        outside = cap.uncovered()
        if outside.size:
            with pytest.raises(MemberNotFoundError):
                cap.removal_relevance_many(np.append(members, outside[i % outside.size]))


def test_only_seeding_a_cap_gathers_pencils(model_q7, monkeypatch):
    # from_ids gathers its members' pencils once, after its cap test on the
    # generators; the relevance build counts on the generators and gathers
    # none, and from_ids on every point fails its cap test before gathering
    gathered = []
    pencil_rows = SurfaceModel.pencil_rows

    def spy(self, pids):
        gathered.append(len(pids))
        return pencil_rows(self, pids)

    monkeypatch.setattr(SurfaceModel, "pencil_rows", spy)
    seed = sample_subcap(model_q7.classical_ovoid_ids(), 60, SplitMix64(1))
    cap = CapState.from_ids(model_q7, seed)
    m = cap.uncovered()
    rel = cap.relevance_many(m)
    with pytest.raises(CapViolationError, match="point 0 is covered"):
        CapState.from_ids(model_q7, range(model_q7.num_points))
    assert gathered == [60]
    for j in range(0, m.size, 97):
        assert rel[j] == model_q7.gx_size - cap.coverage_intersect(int(m[j]))


@pytest.mark.parametrize("strategy", [StrategyKind.MIN_RELEVANCE, StrategyKind.FORWARD], ids=lambda s: s.value)
def test_run_seeds_its_cap_with_one_pencil_gather(model_q5, strategy, monkeypatch):
    # relevance is kept on the generators, so a run's one section count is
    # from_ids seeding the cap with one gather of the seed's pencils, and
    # under min-relevance those pencil rows are the only ones gathered
    gathered = {"pencil_rows": [], "from_ids": []}
    pencil_rows, from_ids = SurfaceModel.pencil_rows, CapState.from_ids.__func__

    def spy(self, pids):
        gathered["pencil_rows"].append(len(pids))
        return pencil_rows(self, pids)

    def seeded(cls, model, ids):
        before = len(gathered["pencil_rows"])
        cap = from_ids(cls, model, ids)
        gathered["from_ids"].append(gathered["pencil_rows"][before:])
        return cap

    monkeypatch.setattr(SurfaceModel, "pencil_rows", spy)
    monkeypatch.setattr(CapState, "from_ids", classmethod(seeded))
    seed = sample_subcap(model_q5.classical_ovoid_ids(), 10, SplitMix64(10))
    out = run_strategy(model_q5, seed, SearchConfig(strategy=strategy, rng_seed=5))
    assert out.iterations > 1
    assert gathered["from_ids"] == [[10]]
    if strategy is StrategyKind.MIN_RELEVANCE:
        assert gathered["pencil_rows"] == [10]
    cap = CapState.from_ids(model_q5, seed)
    # the forward scorer subtracts from it
    assert cap.relevance_many(cap.uncovered()).dtype == np.int64
    assert cap.uncovered_relevance(cap.uncovered()).dtype == np.int16


def test_generator_counts_fit_in_int16():
    # a read sums q + 1 counts of at most q^2 + 1 uncovered points each, so
    # raising MAX_Q past the int16 range has to fail here first
    assert all((q + 1) * (q**2 + 1) <= np.iinfo(np.int16).max for q in range(2, MAX_Q + 1))
    cap = CapState(get_model(3))
    assert cap._unc is None
    cap.relevance(0)
    assert cap._unc.dtype == np.int16


def test_relevance_read_is_bounded_by_its_blocks(model_q5, monkeypatch):
    # past the output, a read over every point holds at most a few blocks'
    # worth of intp indices at once, never a whole (q + 1, N) transpose
    monkeypatch.setattr(hermitian, "RELEVANCE_BLOCK", 256)
    cap = CapState(model_q5)
    m = cap.uncovered()
    assert m.size == 3276
    cap.uncovered_relevance(m)  # builds the counts
    tracemalloc.start()
    try:
        rel = cap.uncovered_relevance(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rel.nbytes + 3 * (model_q5.q + 1) * 256 * 8


def test_min_relevance_sums_int16_counts(model_q5, monkeypatch):
    # every relevance read of the search sums int16 counts: on int64 counts
    # the slab of the one-take kernel is four times as large, and runs slower
    summed = []

    def spy(model, values, pids):
        summed.append(values.dtype)
        return _summed_over_generators(model, values, pids)

    monkeypatch.setattr(capstate, "_summed_over_generators", spy)
    seed = sample_subcap(model_q5.classical_ovoid_ids(), 10, SplitMix64(10))
    out = run_strategy(model_q5, seed, SearchConfig(strategy=StrategyKind.MIN_RELEVANCE, rng_seed=5))
    assert len(summed) == out.iterations
    assert set(summed) == {np.dtype(np.int16)}


@pytest.mark.parametrize("strategy", [StrategyKind.MIN_RELEVANCE, StrategyKind.FORWARD], ids=lambda s: s.value)
def test_completion_steps_read_relevance_of_uncovered_ids_only(model_q5, strategy, monkeypatch):
    # the rules read relevance over their own uncovered array: no run checks
    # ids or reads coverage through relevance_many, and min-relevance reads
    # once per step
    reads = {"relevance_many": [], "uncovered_relevance": []}
    for name, seen in reads.items():
        method = getattr(CapState, name)

        def spy(self, ids, method=method, seen=seen):
            seen.append(len(ids))
            return method(self, ids)

        monkeypatch.setattr(CapState, name, spy)
    seed = sample_subcap(model_q5.classical_ovoid_ids(), 10, SplitMix64(10))
    out = run_strategy(model_q5, seed, SearchConfig(strategy=strategy, rng_seed=5))
    assert out.iterations > 1
    assert reads["relevance_many"] == []
    assert reads["uncovered_relevance"]
    if strategy is StrategyKind.MIN_RELEVANCE:
        assert len(reads["uncovered_relevance"]) == out.iterations


def test_relevance_against_set_oracle_q2(model_q2):
    tsets = tangent_sets_by_pairs(model_q2)
    rng = SplitMix64(6)
    cap = random_cap(model_q2, rng, 4)
    members = sorted(cap.members)
    for x in range(model_q2.num_points):
        assert cap.relevance(x) == relevance_by_sets(tsets, members, x)


def test_singleton_relevance_values(model_q2, model_q5):
    # a point uncovered by a singleton cap has relevance q^3 + q^2 - q
    for model, expected in ((model_q2, 10), (model_q5, 145)):
        cap = CapState(model)
        cap.add_point(0)
        m = cap.uncovered()
        rel = cap.relevance_many(m)
        assert (rel == expected).all()
        assert expected == model.q * (model.q**2 + model.q - 1)


def test_relevance_coverage_identity(model_q3):
    gx = model_q3.gx_size
    cap = random_cap(model_q3, SplitMix64(3), 12)
    for x in range(model_q3.num_points):
        assert cap.relevance(x) + cap.coverage_intersect(x) == gx


@pytest.mark.parametrize("q", [3, 5])
def test_relevance_is_the_uncovered_count_an_addition_drops(q):
    # the identity a completion's trace rests on: adding an uncovered x
    # covers exactly relevance(x) of the uncovered points
    model = get_model(q)
    for seed, size in ((1, 0), (2, 1), (3, q), (4, q * q)):
        cap = random_cap(model, SplitMix64(seed), size)
        before = cap.uncovered()
        for x in before.tolist():
            rel = cap.relevance_many([x])[0]
            cap.add_point(x)
            assert rel == before.size - cap.uncovered().size
            cap.remove_point(x)


@pytest.mark.parametrize("q", [2, 3])
def test_relevance_bounds_exhaustive(q):
    model = get_model(q)
    hi = q * (q**2 + q - 1)
    for y in range(model.num_points):
        cap = CapState(model)
        cap.add_point(y)
        m = cap.uncovered()
        rel = cap.relevance_many(m)
        assert (rel >= 1).all() and (rel <= hi).all()
    cap = random_cap(model, SplitMix64(77), q**2 + 2)
    m = cap.uncovered()
    if m.size:
        rel = cap.relevance_many(m)
        assert (rel >= 1).all() and (rel <= hi).all()


def test_ovoid_coverage_and_completeness(model_q5):
    ov = model_q5.classical_ovoid_ids()
    cap = CapState.from_ids(model_q5, ov)
    assert cap.is_complete()
    assert np.count_nonzero(cap.cmult) == 3276
    on = np.zeros(model_q5.num_points, dtype=bool)
    on[ov] = True
    off = np.flatnonzero(~on)
    assert (cap.cmult[off] == model_q5.q + 1).all()
    assert (cap.cmult[ov] == 1).all()


def test_lone_uncovered_point_has_relevance_one(model_q2):
    ov = model_q2.classical_ovoid_ids()
    cap = CapState.from_ids(model_q2, ov)
    x = int(ov[3])
    cap.remove_point(x)
    assert np.array_equal(cap.uncovered(), [x])
    assert cap.uncovered_relevance(cap.uncovered()).tolist() == [1]


def test_weight_singleton(model_q3):
    cap = CapState(model_q3)
    cap.add_point(9)
    assert cap.weight(9) == Fraction(model_q3.gx_size)
    with pytest.raises(MemberNotFoundError):
        cap.weight(int(cap.uncovered()[0]))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_ovoid_member_weights_exact(q):
    model = get_model(q)
    ov = model.classical_ovoid_ids()
    cap = CapState.from_ids(model, ov)
    for x in map(int, ov[:: max(1, len(ov) // 20)]):
        assert cap.weight(x) == Fraction(q**2 + 1)


@pytest.mark.parametrize("q", [2, 3])
def test_complete_cap_weights_sum_to_surface_size(q):
    from hermcap import SearchConfig, run_strategy

    model = get_model(q)
    for i in range(10):
        out = run_strategy(model, [], SearchConfig(rng_seed=900 + i))
        cap = CapState.from_ids(model, out.final_cap)
        total = sum((cap.weight(int(x)) for x in out.final_cap), Fraction(0))
        assert total == Fraction((q**3 + 1) * (q**2 + 1))


@pytest.mark.parametrize("q", [2, 3])
def test_weight_removal_decomposition_exact(q):
    # w(x, C) = r(x, C minus x) + sum over covered-by-rest tangent points of
    # 1 / (multiplicity without x + 1), in exact rationals
    model = get_model(q)
    rng = SplitMix64(70 + q)
    for trial in range(25):
        cap = random_cap(model, rng, 3 + rng.randbelow(q * q))
        for x in sorted(cap.members):
            w = cap.weight(x)
            cap.remove_point(x)
            row = np.unique(model.pencil(x))
            vals = cap.cmult[row]
            r = int(np.count_nonzero(vals == 0))
            tail = sum(
                (Fraction(1, int(v) + 1) for v in vals if v > 0), Fraction(0)
            )
            cap.add_point(x)
            assert w == r + tail


def test_weight_relevance_inequality(model_q3):
    # r(x, C minus x) >= 2 w(x, C) - (q^3 + q^2 + 1)
    gx = model_q3.gx_size
    rng = SplitMix64(15)
    for trial in range(20):
        cap = random_cap(model_q3, rng, 4 + rng.randbelow(10))
        for x in sorted(cap.members):
            assert cap.removal_relevance(x) >= 2 * cap.weight(x) - gx


def test_removal_relevance_matches_explicit(model_q3):
    rng = SplitMix64(16)
    cap = random_cap(model_q3, rng, 9)
    for x in sorted(cap.members):
        cap.remove_point(x)
        expected = cap.relevance(x)
        cap.add_point(x)
        assert cap.removal_relevance(x) == expected


def test_max_relevance_monotone_under_nesting(model_q3):
    rng = SplitMix64(17)
    for trial in range(20):
        cap = random_cap(model_q3, rng, 6 + rng.randbelow(6))
        if cap.is_complete():
            continue
        r_plus_full = cap.uncovered_relevance(cap.uncovered()).max()
        x = rng.choice(sorted(cap.members))
        cap.remove_point(x)
        assert cap.uncovered_relevance(cap.uncovered()).max() >= r_plus_full


def test_weight_after_add_many_matches_fraction(model_q5):
    cap = random_cap(model_q5, SplitMix64(18), 30)
    m = cap.uncovered()[:10]
    w = cap.weight_after_add_many(m)
    for i, x in enumerate(map(int, m)):
        cap.add_point(x)
        section = set(model_q5.pencil(x).tolist())
        by_loop = sum((Fraction(1, int(cap.cmult[y])) for y in section), Fraction(0))
        assert isinstance(w[i], Fraction) and cap.weight(x) == w[i] == by_loop
        cap.remove_point(x)
