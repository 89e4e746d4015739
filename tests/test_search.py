from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hermcap import (
    CapState,
    SearchConfig,
    SeedSpec,
    SplitMix64,
    StrategyKind,
    TieMode,
    backtrack_enlarge,
    is_cap,
    run_strategy,
    sample_subcap,
    thin_ovoid,
)
from hermcap import harness, hermitian, search
from hermcap.errors import CapViolationError
from hermcap.galois import MAX_Q

from .conftest import get_model
from .oracles import forward_score, lookahead_by_trial, relevance_by_sets, tangent_sets_by_pairs

# BACKTRACK enlarges after completing, so only the pure completions add
# exactly one point per iteration
PURE_COMPLETIONS = (StrategyKind.RANDOM, StrategyKind.MIN_RELEVANCE, StrategyKind.FORWARD)
by_strategy = pytest.mark.parametrize(
    "strategy", list(StrategyKind), ids=lambda s: "complete_" + s.value.replace("-", "_")
)


def complete(model, seed, strategy, **config):
    return run_strategy(model, seed, SearchConfig(strategy=strategy, **config))


def assert_complete_cap(model, outcome, seed):
    cap = CapState.from_ids(model, outcome.final_cap)
    assert cap.is_complete()
    assert is_cap(model, outcome.final_cap)
    assert set(int(x) for x in seed) <= set(map(int, outcome.final_cap))
    q = model.q
    assert q**2 + 1 <= outcome.size <= q**3 + 1
    assert outcome.is_ovoid == (outcome.size == q**3 + 1)


@by_strategy
@pytest.mark.parametrize("q", [2, 3])
def test_completions_from_empty(strategy, q):
    model = get_model(q)
    for seed in range(5):
        out = complete(model, [], strategy, rng_seed=seed)
        assert_complete_cap(model, out, [])
        if strategy in PURE_COMPLETIONS:
            assert out.iterations == out.size


@by_strategy
def test_determinism(strategy, model_q3):
    a = complete(model_q3, [], strategy, rng_seed=77)
    b = complete(model_q3, [], strategy, rng_seed=77)
    assert np.array_equal(a.final_cap, b.final_cap)
    assert a.iterations == b.iterations


def test_random_completion_bound_on_iterations(model_q5):
    out = complete(model_q5, [], StrategyKind.RANDOM, rng_seed=5)
    assert out.iterations <= model_q5.q**3 + 1


def test_non_cap_seed_rejected(model_q2):
    pair = np.unique(model_q2.pencil(0))[:2]
    with pytest.raises(CapViolationError):
        complete(model_q2, pair, StrategyKind.RANDOM, rng_seed=0)


def test_rng_seed_outside_64_bits_rejected(model_q3):
    # rng_seed=-1 used to give the same cap as 2**64 - 1
    with pytest.raises(ValueError, match="seed must lie in"):
        run_strategy(model_q3, [], SearchConfig(rng_seed=-1))


def test_ovoid_seed_returned_unchanged(model_q5):
    ov = model_q5.classical_ovoid_ids()
    for strategy in StrategyKind:
        out = complete(model_q5, ov, strategy, rng_seed=1)
        assert np.array_equal(out.final_cap, ov)
        if strategy in PURE_COMPLETIONS:
            assert out.iterations == 0


@pytest.mark.parametrize("k", [1, 2, 5])
def test_ovoid_minus_few_points_recovers_uniquely(model_q5, k):
    ov = model_q5.classical_ovoid_ids()
    rng = SplitMix64(300 + k)
    sub = sample_subcap(ov, len(ov) - k, rng)
    for strategy in StrategyKind:
        out = complete(model_q5, sub, strategy, rng_seed=k)
        assert np.array_equal(out.final_cap, ov)
        if strategy in PURE_COMPLETIONS:
            assert out.iterations == k


def test_min_relevance_single_hole_one_step(model_q3):
    ov = model_q3.classical_ovoid_ids()
    sub = ov[1:]
    out = complete(model_q3, sub, StrategyKind.MIN_RELEVANCE, rng_seed=4)
    assert out.iterations == 1
    assert np.array_equal(out.final_cap, ov)


def test_unique_completion_when_max_relevance_is_one(model_q3):
    # whenever every uncovered point has relevance 1, all strategies land on
    # seed plus every uncovered point
    ov = model_q3.classical_ovoid_ids()
    sub = sample_subcap(ov, len(ov) - 3, SplitMix64(1))
    cap = CapState.from_ids(model_q3, sub)
    rel = cap.uncovered_relevance(cap.uncovered())
    assert rel.size > 0 and (rel == 1).all()
    expected = np.array(sorted(set(map(int, sub)) | set(map(int, cap.uncovered()))))
    for strategy in StrategyKind:
        out = complete(model_q3, sub, strategy, rng_seed=9)
        assert np.array_equal(out.final_cap, expected)


@pytest.mark.parametrize("mode", [TieMode.MAX_COUNT, TieMode.MIN_COUNT])
def test_forward_tie_modes_complete(model_q2, mode):
    out = complete(model_q2, [], StrategyKind.FORWARD, rng_seed=3, forward_tie_mode=mode)
    assert 5 <= out.size <= 9


def test_config_takes_members_or_their_values(model_q3):
    seed = sample_subcap(model_q3.classical_ovoid_ids(), 6, SplitMix64(1))

    def trace(strategy, mode):
        config = SearchConfig(strategy=strategy, rng_seed=5, forward_tie_mode=mode)
        assert config.strategy is StrategyKind.FORWARD and config.forward_tie_mode is TieMode(mode)
        return run_strategy(model_q3, seed, config).trace

    for mode in TieMode:
        assert trace("forward", mode.value) == trace(StrategyKind.FORWARD, mode)
    assert trace("forward", "max-count") != trace("forward", "min-count")


@pytest.mark.parametrize(
    "field,value",
    [
        ("strategy", "bogus"),
        ("strategy", None),
        ("strategy", TieMode.MAX_COUNT),
        ("forward_tie_mode", "max"),
        ("forward_tie_mode", StrategyKind.FORWARD),
    ],
)
def test_config_rejects_unknown_values(field, value):
    with pytest.raises(ValueError):
        SearchConfig(**{field: value})


@pytest.mark.parametrize(
    "seed,error", [(-1, ValueError), (2**64, ValueError), (1.5, TypeError)]
)
def test_config_checks_its_rng_seed(seed, error):
    with pytest.raises(error) as built:
        SearchConfig(rng_seed=seed)
    with pytest.raises(error) as drawn:
        SplitMix64(seed)
    assert str(built.value) == str(drawn.value)


def test_forward_scores_match_trial_oracle():
    # every case of the delta scorer must occur: several column blocks,
    # several row blocks, a block of one column and one row, a band row whose
    # own column lies in a block after the first, a candidate that completes
    # the cap and a band row that falls back to an exact count.  A
    # one-byte budget gives one-cell blocks; it is only tried at q = 2, where
    # a step has few enough cells.  Every block passes through search._block_minima
    seen = set()
    budgets = {"one cell": 1, "small": 1 << 14, "default": search.LOOKAHEAD_BLOCK_BYTES}

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        q=st.sampled_from([2, 3, 4]),
        picks=st.lists(st.integers(0, 2**16), max_size=40),
        budget=st.sampled_from(sorted(budgets)),
    )
    def check(q, picks, budget):
        assume(q == 2 or budget != "one cell")
        model = get_model(q)
        cap = CapState(model)
        for i in picks:
            m = cap.uncovered()
            t = int(m[i % m.size])
            if cap.relevance(t) == m.size:
                break  # t would complete the cap; keep something to score
            cap.add_point(t)
        m = cap.uncovered()
        rel = cap.relevance_many(m)
        with (
            mock.patch.object(search, "LOOKAHEAD_BLOCK_BYTES", budgets[budget]),
            mock.patch.object(search, "_block_minima", wraps=search._block_minima) as blocks,
        ):
            got = search._forward_scores(cap, m, rel)
        after = lookahead_by_trial(model, cap.members)
        assert [t for t, _, _ in after] == m.tolist()
        assert got.tolist() == [forward_score(r) for _, _, r in after]
        in_band = np.zeros(model.num_points, dtype=bool)
        in_band[m[rel <= rel.min() + q + 1]] = True
        first = blocks.call_args_list[0].args[1]
        for call in blocks.call_args_list:
            cols, rows = call.args[1].shape[1], len(call.args[2])
            own = call.args[4]  # each column's own row in this row block
            if call.args[1] is not first and ((0 <= own) & (own < rows)).any():
                seen.add("own column in a later block")
            if (rows, cols) == (1, 1):
                seen.add("one cell")
            if cols < in_band.sum():
                seen.add("column blocks")
            if rows < m.size:
                seen.add("row blocks")
        for _, left, r in after:
            if not left.size:
                seen.add("completes")
            elif not in_band[left].any() or r[in_band[left]].min() > rel.min():
                seen.add("band fallback")

    check()
    assert seen == {
        "one cell",
        "column blocks",
        "row blocks",
        "own column in a later block",
        "completes",
        "band fallback",
    }


def test_forward_fallback_when_a_point_off_the_band_ties():
    # candidate 441's band minimum is min rel + 1, and a point outside the band
    # ends at min rel + 1 too: only the exact fallback counts both
    model = get_model(4)
    cap = CapState(model)
    for x in [973, 446, 788, 461, 952, 558, 407, 790, 635, 727, 320, 207, 139, 941, 876, 432, 749]:
        cap.add_point(x)
    m = cap.uncovered()
    rel = cap.relevance_many(m)
    assert (m.size, rel.min()) == (257, 16)
    after = lookahead_by_trial(model, cap.members)
    _, left, r = after[int(np.flatnonzero(m == 441)[0])]
    in_band = np.isin(left, m[rel <= rel.min() + model.q + 1])
    assert r[in_band].min() == r[~in_band].min() == rel.min() + 1
    got = search._forward_scores(cap, m, rel)
    assert got.tolist() == [forward_score(r) for _, _, r in after]


def test_block_counts_fit_in_int16():
    # a block of the forward scorer has at most min(N, LOOKAHEAD_BLOCK_BYTES // G)
    # columns, and a row counts at most one cell per column
    def counts(q):
        return (q * q + 1) * (q**3 + 1), (q + 1) * (q**3 + 1)

    for q in [2, 3, 5]:
        model = get_model(q)
        assert counts(q) == (model.num_points, len(hermitian.enumerate_generators(model)))
    supported = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
    assert supported[-1] == MAX_Q
    cols = {}
    for q in supported:
        n, g = counts(q)
        cols[q] = min(n, search.LOOKAHEAD_BLOCK_BYTES // g)
    assert max(cols.values()) == cols[5] == 3276 <= np.iinfo(np.int16).max


def test_covered_mark_stays_above_every_score():
    # a covered cell scores off - q - COVERED with 0 <= off <= q + 1, a real one
    # at most q + 1
    assert -search.COVERED - MAX_Q > MAX_Q + 1
    assert 1 - search.COVERED <= np.iinfo(np.int8).max


@pytest.mark.parametrize("q", [2, 3])
def test_every_rule_ties_on_caps_of_at_most_one_point(q):
    # the symmetry behind _complete's draw over every uncovered point, with no
    # rule called, while the cap has at most one member
    model = get_model(q)
    rules = [(rule, SearchConfig(strategy=kind)) for kind, rule in search._SELECT.items()]
    rules += [
        (search._select_lookahead, SearchConfig(forward_tie_mode=TieMode.MIN_COUNT)),
        (search._select_min_weight, SearchConfig()),  # backtracking's completion rule
    ]
    for members in [[]] + [[p] for p in range(model.num_points)]:
        scores = {forward_score(r) for _, _, r in lookahead_by_trial(model, members)}
        assert len(scores) == 1, members
        cap = CapState.from_ids(model, members)
        m = cap.uncovered()
        assert np.unique(cap.relevance_many(m)).size == 1, members
        assert len(set(cap.weight_after_add_many(m))) == 1, members
        for rule, config in rules:
            assert np.array_equal(rule(cap, m, config), m), (members, rule.__name__)


@pytest.mark.parametrize(
    "rng_seed,tie_mode", [(1, TieMode.MAX_COUNT), (2, TieMode.MIN_COUNT)], ids=["1-max", "2-min"]
)
def test_forward_scores_match_trial_oracle_along_q5_runs(model_q5, rng_seed, tie_mode):
    # the benchmark's forward-q5 size: every scored step of a forward run from
    # subovoid(40), replayed from its trace
    seed = sample_subcap(model_q5.classical_ovoid_ids(), 40, SplitMix64(rng_seed))
    config = SearchConfig(strategy=StrategyKind.FORWARD, rng_seed=rng_seed, forward_tie_mode=tie_mode)
    out = run_strategy(model_q5, seed, config)
    cap = CapState.from_ids(model_q5, seed)
    scored = 0
    for x, _ in out.trace:
        m = cap.uncovered()
        rel = cap.uncovered_relevance(m)
        if rel.min() > 1:  # below that, _select_lookahead takes the relevance-1 points unscored
            after = lookahead_by_trial(model_q5, cap.members)
            assert search._forward_scores(cap, m, rel).tolist() == [forward_score(r) for _, _, r in after]
            scored += 1
        cap.add_point(x)
    assert np.array_equal(cap.members_sorted(), out.final_cap)
    assert scored > 5


@pytest.mark.parametrize("q,k", [(3, 3), (5, 40)])
def test_lookahead_leaves_the_state_untouched(q, k):
    model = get_model(q)
    cap = CapState.from_ids(model, sample_subcap(model.classical_ovoid_ids(), k, SplitMix64(k)))
    m = cap.uncovered()
    assert cap.relevance_many(m).min() > 1  # no relevance-1 shortcut
    members, cmult, unc = set(cap.members), cap.cmult.tobytes(), cap._unc.tobytes()
    config = SearchConfig(strategy=StrategyKind.FORWARD)
    search._select_lookahead(cap, m, config)
    assert cap.members == members
    assert cap.cmult.tobytes() == cmult
    assert cap._unc.tobytes() == unc


@pytest.mark.parametrize("q,k", [(3, 0), (5, 40)])
@pytest.mark.parametrize(
    "strategy,tie_mode",
    [(s, TieMode.MAX_COUNT) for s in PURE_COMPLETIONS] + [(StrategyKind.FORWARD, TieMode.MIN_COUNT)],
    ids=lambda v: v.value.replace("-", "_"),
)
def test_each_completion_step_draws_once(q, k, strategy, tie_mode, monkeypatch):
    model = get_model(q)
    seed = sample_subcap(model.classical_ovoid_ids(), k, SplitMix64(k))
    bounds = []
    randbelow = SplitMix64.randbelow

    def counted(rng, n):
        bounds.append(n)
        return randbelow(rng, n)

    monkeypatch.setattr(SplitMix64, "randbelow", counted)
    config = SearchConfig(strategy=strategy, rng_seed=q, forward_tie_mode=tie_mode)
    out = run_strategy(model, seed, config)
    assert len(bounds) == out.iterations == out.size - k > 0


@pytest.mark.parametrize(
    "rule,tie_mode",
    [
        ("_select_random", TieMode.MAX_COUNT),
        ("_select_min_relevance", TieMode.MAX_COUNT),
        ("_select_lookahead", TieMode.MAX_COUNT),
        ("_select_lookahead", TieMode.MIN_COUNT),
        ("_select_min_weight", TieMode.MAX_COUNT),
    ],
)
def test_rules_return_the_same_tie_set_twice(model_q5, rule, tie_mode):
    cap = CapState.from_ids(model_q5, sample_subcap(model_q5.classical_ovoid_ids(), 40, SplitMix64(40)))
    m = cap.uncovered()
    select, config = getattr(search, rule), SearchConfig(forward_tie_mode=tie_mode)
    ties = select(cap, m, config)
    assert ties.size and np.isin(ties, m).all()
    assert np.array_equal(select(cap, m, config), ties)


def test_relevance_one_implies_cap_size_bound(model_q3):
    # on any trace, choosing a relevance-1 point certifies |C| >= q^2 already
    q = model_q3.q
    for strategy in (StrategyKind.RANDOM, StrategyKind.MIN_RELEVANCE):
        for seed in range(8):
            out = complete(model_q3, [], strategy, rng_seed=seed)
            for step, (_, rel) in enumerate(out.trace):
                if rel == 1:
                    assert step >= q * q


@pytest.mark.parametrize("strategy", list(StrategyKind), ids=lambda s: s.value)
@pytest.mark.parametrize("spec", [SeedSpec.empty(), SeedSpec.subovoid(6)], ids=SeedSpec.describe)
def test_trace_relevances_sum_to_what_the_seed_leaves_uncovered(model_q3, strategy, spec):
    for seed in range(3):
        ids = harness._seed_ids(model_q3, spec, SplitMix64(seed), None)
        out = run_strategy(model_q3, ids, SearchConfig(strategy=strategy, rng_seed=seed))
        assert sum(rel for _, rel in out.trace) == CapState.from_ids(model_q3, ids).uncovered().size


@pytest.mark.parametrize("strategy", [StrategyKind.RANDOM, StrategyKind.BACKTRACK], ids=lambda s: s.value)
def test_random_completion_traces_read_no_relevance(model_q3, strategy, monkeypatch):
    # a step's relevance is the count the uncovered filter drops: the relevance
    # counts are never built, and reading them would raise
    def no_read(self, ids):
        raise AssertionError("a random completion read relevance")

    def keeps_its_input(model, seed, cap, config):
        return search._outcome(model, cap.members_sorted(), 0)

    monkeypatch.setattr(CapState, "_generator_relevance", no_read)
    # backtracking reads relevance after the completion; here it keeps the completed cap
    monkeypatch.setattr(search, "backtrack_enlarge", keeps_its_input)
    tsets = tangent_sets_by_pairs(model_q3)
    for seed in range(4):
        out = complete(model_q3, [], strategy, rng_seed=seed)
        members = []
        for x, rel in out.trace:
            assert rel == relevance_by_sets(tsets, members, x)
            members.append(x)
        assert sorted(members) == out.final_cap.tolist()


def test_backtrack_requires_complete_input(model_q2, model_q3):
    with pytest.raises(ValueError):
        backtrack_enlarge(model_q2, [], CapState.from_ids(model_q2, [0]), SearchConfig(rng_seed=0))
    ovoid = CapState.from_ids(model_q3, model_q3.classical_ovoid_ids())
    with pytest.raises(ValueError):  # a complete state, of another model
        backtrack_enlarge(model_q2, [], ovoid, SearchConfig(rng_seed=0))


def test_backtrack_requires_seed_inside_cap(model_q2):
    out = complete(model_q2, [], StrategyKind.RANDOM, rng_seed=0)
    outside = [x for x in range(model_q2.num_points) if x not in set(map(int, out.final_cap))]
    cap = CapState.from_ids(model_q2, out.final_cap)
    with pytest.raises(ValueError):
        backtrack_enlarge(model_q2, [outside[0]], cap, SearchConfig(rng_seed=0))


def test_backtrack_rejects_ids(model_q3):
    ov = model_q3.classical_ovoid_ids()
    for ids in (ov, [int(x) for x in ov]):  # a complete cap, but not as a CapState
        with pytest.raises(TypeError, match="CapState"):
            backtrack_enlarge(model_q3, [], ids, SearchConfig(rng_seed=0))


def test_backtrack_on_ovoid_returns_it(model_q3):
    ov = model_q3.classical_ovoid_ids()
    out = backtrack_enlarge(model_q3, [], CapState.from_ids(model_q3, ov), SearchConfig(rng_seed=6))
    assert np.array_equal(out.final_cap, ov)


def test_backtrack_contract_and_growth(model_q5):
    base = complete(model_q5, [], StrategyKind.RANDOM, rng_seed=11)
    assert base.size <= 91
    protected = [int(x) for x in base.final_cap[:3]]
    cap = CapState.from_ids(model_q5, base.final_cap)
    grew = 0
    for i in range(100):
        out = backtrack_enlarge(model_q5, protected, cap, SearchConfig(rng_seed=4000 + i))
        assert_complete_cap(model_q5, out, protected)
        assert out.size >= base.size
        grew += out.size > base.size
    assert grew >= 1


def test_backtrack_returns_a_fully_protected_cap_unchanged(model_q3):
    base = complete(model_q3, [], StrategyKind.RANDOM, rng_seed=11)
    cap = CapState.from_ids(model_q3, base.final_cap)
    out = backtrack_enlarge(model_q3, base.final_cap, cap, SearchConfig(rng_seed=1))
    assert np.array_equal(out.final_cap, base.final_cap)
    assert out.iterations == 0


def test_backtrack_keeps_its_input_when_the_refill_is_smaller(model_q3, monkeypatch):
    # this random cap of 24 points takes three removals before an uncovered
    # point of lower relevance turns up; a refill that adds nothing after it
    # leaves 22 points, fewer than the input, so the input comes back
    final = complete(model_q3, [], StrategyKind.RANDOM, rng_seed=4).final_cap
    assert len(final) == 24
    sizes = []

    def adds_nothing(cap, select, rng, config):
        sizes.append(len(cap))
        return []

    monkeypatch.setattr(search, "_complete", adds_nothing)
    out = backtrack_enlarge(model_q3, [], CapState.from_ids(model_q3, final), SearchConfig(rng_seed=4))
    assert sizes == [22]
    assert np.array_equal(out.final_cap, final)
    assert out.iterations == 0


def test_search_rejects_point_ids_that_are_not_integers(model_q3):
    base = complete(model_q3, [], StrategyKind.RANDOM, rng_seed=11)
    with pytest.raises(TypeError):
        complete(model_q3, [0.5], StrategyKind.RANDOM)
    cap = CapState.from_ids(model_q3, base.final_cap)
    with pytest.raises(TypeError):
        backtrack_enlarge(model_q3, [float(base.final_cap[0])], cap, SearchConfig())


@pytest.mark.parametrize("q,k", [(3, 0), (3, 6), (5, 0), (5, 40)])
def test_backtrack_enlarges_a_copy_of_the_completed_state(q, k):
    model = get_model(q)
    seed = sample_subcap(model.classical_ovoid_ids(), k, SplitMix64(k))
    enlarge, calls = search.backtrack_enlarge, []

    def spy(model, protected, cap, config):
        assert isinstance(cap, CapState)
        size, members, cmult = len(cap), set(cap.members), cap.cmult.copy()
        out = enlarge(model, protected, cap, config)
        assert len(cap) == size and cap.members == members
        assert np.array_equal(cap.cmult, cmult)
        calls.append((cap.members_sorted(), config, out))
        return out

    for rng_seed in range(3):
        with mock.patch.object(search, "backtrack_enlarge", spy), mock.patch.object(
            CapState, "from_ids", wraps=CapState.from_ids
        ) as from_ids:
            complete(model, seed, StrategyKind.BACKTRACK, rng_seed=rng_seed)
        assert from_ids.call_count == 1
    assert len(calls) == 3
    for ids, config, out in calls:  # the state and one built afresh from its ids enlarge alike
        by_ids = enlarge(model, seed, CapState.from_ids(model, ids), config)
        assert np.array_equal(by_ids.final_cap, out.final_cap)
        assert by_ids.iterations == out.iterations


def test_run_strategy_backtrack_dispatch(model_q3):
    out = complete(model_q3, [], StrategyKind.BACKTRACK, rng_seed=21)
    assert_complete_cap(model_q3, out, [])
    again = complete(model_q3, [], StrategyKind.BACKTRACK, rng_seed=21)
    assert np.array_equal(out.final_cap, again.final_cap)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_thin_ovoid_sizes_and_rigidity(q):
    model = get_model(q)
    ov = model.classical_ovoid_ids()
    kept, removed = thin_ovoid(model, ov, SplitMix64(17))
    assert len(removed) == q * (q + 1) // 2
    assert len(kept) == q**3 + 1 - len(removed)
    assert set(map(int, kept)) | set(map(int, removed)) == set(map(int, ov))
    assert not set(map(int, kept)) & set(map(int, removed))
    # off-ovoid points all stay covered, so completions cannot escape the ovoid
    cap = CapState.from_ids(model, kept)
    assert np.array_equal(cap.uncovered(), removed)
    for strategy in StrategyKind:
        out = complete(model, kept, strategy, rng_seed=23)
        assert np.array_equal(out.final_cap, ov)


def test_thin_ovoid_rolls_back_a_witness_short_of_coverers(model_q3, monkeypatch):
    # removing any member of an ovoid is safe, so the rollback never fires on
    # its own: the wrapped removal_relevance refuses every coverer of the first
    # witness after the first one, which thinning removes and must put back
    model, q = model_q3, model_q3.q
    ov = model.classical_ovoid_ids()
    on_ovoid = set(ov.tolist())
    witnesses, calls = [], []  # calls: (witnesses tried so far, z, members then)
    pencil, removal_relevance = model.pencil, CapState.removal_relevance

    def tracking_pencil(pid):
        if pid not in on_ovoid:  # members are added and removed, witnesses are off the ovoid
            witnesses.append(pid)
        return pencil(pid)

    def refusing(cap, z):
        calls.append((len(witnesses), z, set(cap.members)))
        if len(witnesses) == 1 and len(calls) > 1:
            return 0
        return removal_relevance(cap, z)

    monkeypatch.setattr(model, "pencil", tracking_pencil)
    monkeypatch.setattr(CapState, "removal_relevance", refusing)
    kept, removed = thin_ovoid(model, ov, SplitMix64(17))
    first = [z for w, z, _ in calls if w == 1]
    second = [(z, members) for w, z, members in calls if w == 2]
    assert len(first) == q + 1  # every coverer of the first witness was tried
    assert first[0] not in calls[1][2]  # the first coverer was removed...
    assert second[0][1] == on_ovoid  # ...and restored before the next witness
    assert len(second) == q and {z for z, _ in second} <= set(removed.tolist())
    assert len(removed) == q * (q + 1) // 2
    assert set(kept.tolist()) | set(removed.tolist()) == on_ovoid
    assert np.array_equal(CapState.from_ids(model, kept).uncovered(), removed)


def test_thin_ovoid_rejects_non_ovoid(model_q3):
    out = complete(model_q3, [], StrategyKind.RANDOM, rng_seed=2)
    if not out.is_ovoid:
        with pytest.raises(ValueError):
            thin_ovoid(model_q3, out.final_cap, SplitMix64(0))
    with pytest.raises(ValueError):
        thin_ovoid(model_q3, model_q3.classical_ovoid_ids()[:-1], SplitMix64(0))


def test_sample_subcap_edges(model_q2):
    ov = model_q2.classical_ovoid_ids()
    rng = SplitMix64(5)
    assert np.array_equal(sample_subcap(ov, len(ov), rng), ov)
    assert len(sample_subcap(ov, 0, rng)) == 0
    for n in (-1, len(ov) + 1):
        with pytest.raises(ValueError):
            sample_subcap(ov, n, rng)
    a = sample_subcap(ov, 4, SplitMix64(9))
    b = sample_subcap(ov, 4, SplitMix64(9))
    assert np.array_equal(a, b)
    assert set(map(int, a)) <= set(map(int, ov))


def test_sample_subcap_is_a_cap(model_q5):
    ov = model_q5.classical_ovoid_ids()
    sub = sample_subcap(ov, 69, SplitMix64(31))
    assert len(sub) == 69
    assert is_cap(model_q5, sub)


def test_distinct_ovoids_differ_enough(model_q2):
    # any two distinct ovoids differ in at least q+1 points
    q = model_q2.q
    ovoids = {tuple(map(int, model_q2.classical_ovoid_ids()))}
    for seed in range(200):
        out = complete(model_q2, [], StrategyKind.RANDOM, rng_seed=seed)
        if out.is_ovoid:
            ovoids.add(tuple(map(int, out.final_cap)))
    ovoids = [set(o) for o in ovoids]
    assert len(ovoids) >= 2
    for i, a in enumerate(ovoids):
        for b in ovoids[i + 1 :]:
            assert len(a - b) >= q + 1


@pytest.mark.parametrize("strategy", [StrategyKind.MIN_RELEVANCE, StrategyKind.FORWARD], ids=lambda s: s.value)
def test_runs_are_the_same_in_blocks_of_seven(model_q5, strategy, monkeypatch):
    # every relevance read of a run, the forward scorer's included, split into
    # blocks of 7 ids: the same caps and the same (point, relevance) traces
    seed = sample_subcap(model_q5.classical_ovoid_ids(), 40, SplitMix64(3))
    config = SearchConfig(strategy=strategy, rng_seed=4)
    whole = run_strategy(model_q5, seed, config)
    monkeypatch.setattr(hermitian, "RELEVANCE_BLOCK", 7)
    blocked = run_strategy(model_q5, seed, config)
    assert np.array_equal(blocked.final_cap, whole.final_cap)
    assert blocked.trace == whole.trace and len(whole.trace) > 5


@pytest.mark.parametrize("tie_mode", list(TieMode), ids=lambda t: t.value)
@pytest.mark.parametrize("rng_seed", [1, 2, 3])
def test_runs_are_the_same_in_small_scorer_blocks(model_q5, rng_seed, tie_mode):
    # forward runs from subovoid(40) with the scorer's blocks cut to 21 columns
    # and 54 rows: the later column blocks merge their minima and counts into
    # the first block's, and the caps and traces stay those of one block
    seed = sample_subcap(model_q5.classical_ovoid_ids(), 40, SplitMix64(rng_seed))
    config = SearchConfig(strategy=StrategyKind.FORWARD, rng_seed=rng_seed, forward_tie_mode=tie_mode)
    whole = run_strategy(model_q5, seed, config)
    with (
        mock.patch.object(search, "LOOKAHEAD_BLOCK_BYTES", 1 << 14),
        mock.patch.object(search, "_forward_scores", wraps=search._forward_scores) as scorer,
        mock.patch.object(search, "_block_minima", wraps=search._block_minima) as blocks,
    ):
        blocked = run_strategy(model_q5, seed, config)
    assert (54, 21) in {(len(c.args[2]), c.args[1].shape[1]) for c in blocks.call_args_list}
    assert len({id(c.args[1]) for c in blocks.call_args_list}) > scorer.call_count  # later column blocks
    assert np.array_equal(blocked.final_cap, whole.final_cap)
    assert blocked.trace == whole.trace and len(whole.trace) > 5
