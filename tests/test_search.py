import numpy as np
import pytest

from hermcap import (
    CapState,
    SearchConfig,
    SplitMix64,
    StrategyKind,
    TieMode,
    backtrack_enlarge,
    classical_ovoid,
    is_cap,
    run_strategy,
    sample_subcap,
    thin_ovoid,
)
from hermcap.errors import CapViolationError

from .conftest import get_model

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
    pair = model_q2.tangent_set(0)[:2]
    with pytest.raises(CapViolationError):
        complete(model_q2, pair, StrategyKind.RANDOM, rng_seed=0)


def test_ovoid_seed_returned_unchanged(model_q5):
    ov = classical_ovoid(model_q5)
    for strategy in StrategyKind:
        out = complete(model_q5, ov, strategy, rng_seed=1)
        assert np.array_equal(out.final_cap, ov)
        if strategy in PURE_COMPLETIONS:
            assert out.iterations == 0


@pytest.mark.parametrize("k", [1, 2, 5])
def test_ovoid_minus_few_points_recovers_uniquely(model_q5, k):
    ov = classical_ovoid(model_q5)
    rng = SplitMix64(300 + k)
    sub = sample_subcap(ov, len(ov) - k, rng)
    for strategy in StrategyKind:
        out = complete(model_q5, sub, strategy, rng_seed=k)
        assert np.array_equal(out.final_cap, ov)
        if strategy in PURE_COMPLETIONS:
            assert out.iterations == k


def test_min_relevance_single_hole_one_step(model_q3):
    ov = classical_ovoid(model_q3)
    sub = ov[1:]
    out = complete(model_q3, sub, StrategyKind.MIN_RELEVANCE, rng_seed=4)
    assert out.iterations == 1
    assert np.array_equal(out.final_cap, ov)


def test_unique_completion_when_max_relevance_is_one(model_q3):
    # whenever every uncovered point has relevance 1, all strategies land on
    # seed plus every uncovered point
    ov = classical_ovoid(model_q3)
    sub = sample_subcap(ov, len(ov) - 3, SplitMix64(1))
    cap = CapState.from_ids(model_q3, sub)
    assert cap.r_extrema() == (1, 1)
    expected = np.array(sorted(set(map(int, sub)) | set(map(int, cap.uncovered()))))
    for strategy in StrategyKind:
        out = complete(model_q3, sub, strategy, rng_seed=9)
        assert np.array_equal(out.final_cap, expected)


@pytest.mark.parametrize("mode", [TieMode.MAX_COUNT, TieMode.MIN_COUNT])
def test_forward_tie_modes_complete(model_q2, mode):
    out = complete(model_q2, [], StrategyKind.FORWARD, rng_seed=3, forward_tie_mode=mode)
    assert 5 <= out.size <= 9


def test_relevance_one_implies_cap_size_bound(model_q3):
    # on any trace, choosing a relevance-1 point certifies |C| >= q^2 already
    q = model_q3.q
    for strategy in (StrategyKind.RANDOM, StrategyKind.MIN_RELEVANCE):
        for seed in range(8):
            out = complete(model_q3, [], strategy, rng_seed=seed, keep_trace=True)
            for step, (_, rel) in enumerate(out.trace):
                if rel == 1:
                    assert step >= q * q


def test_backtrack_requires_complete_input(model_q2):
    with pytest.raises(ValueError):
        backtrack_enlarge(model_q2, [], [0], SearchConfig(rng_seed=0))


def test_backtrack_requires_seed_inside_cap(model_q2):
    out = complete(model_q2, [], StrategyKind.RANDOM, rng_seed=0)
    outside = [x for x in range(model_q2.num_points) if x not in set(map(int, out.final_cap))]
    with pytest.raises(ValueError):
        backtrack_enlarge(model_q2, [outside[0]], out.final_cap, SearchConfig(rng_seed=0))


def test_backtrack_on_ovoid_returns_it(model_q3):
    ov = classical_ovoid(model_q3)
    out = backtrack_enlarge(model_q3, [], ov, SearchConfig(rng_seed=6))
    assert np.array_equal(out.final_cap, ov)


def test_backtrack_contract_and_growth(model_q5):
    base = complete(model_q5, [], StrategyKind.RANDOM, rng_seed=11)
    assert base.size <= 91
    protected = [int(x) for x in base.final_cap[:3]]
    grew = 0
    for i in range(100):
        out = backtrack_enlarge(
            model_q5, protected, base.final_cap, SearchConfig(rng_seed=4000 + i)
        )
        assert_complete_cap(model_q5, out, protected)
        assert out.size >= base.size
        grew += out.size > base.size
    assert grew >= 1


def test_run_strategy_backtrack_dispatch(model_q3):
    out = complete(model_q3, [], StrategyKind.BACKTRACK, rng_seed=21)
    assert_complete_cap(model_q3, out, [])
    again = complete(model_q3, [], StrategyKind.BACKTRACK, rng_seed=21)
    assert np.array_equal(out.final_cap, again.final_cap)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_thin_ovoid_sizes_and_rigidity(q):
    model = get_model(q)
    ov = classical_ovoid(model)
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


def test_thin_ovoid_rejects_non_ovoid(model_q3):
    out = complete(model_q3, [], StrategyKind.RANDOM, rng_seed=2)
    if not out.is_ovoid:
        with pytest.raises(ValueError):
            thin_ovoid(model_q3, out.final_cap, SplitMix64(0))
    with pytest.raises(ValueError):
        thin_ovoid(model_q3, classical_ovoid(model_q3)[:-1], SplitMix64(0))


def test_sample_subcap_edges(model_q2):
    ov = classical_ovoid(model_q2)
    rng = SplitMix64(5)
    assert np.array_equal(sample_subcap(ov, len(ov), rng), ov)
    assert len(sample_subcap(ov, 0, rng)) == 0
    with pytest.raises(ValueError):
        sample_subcap(ov, len(ov) + 1, rng)
    a = sample_subcap(ov, 4, SplitMix64(9))
    b = sample_subcap(ov, 4, SplitMix64(9))
    assert np.array_equal(a, b)
    assert set(map(int, a)) <= set(map(int, ov))


def test_sample_subcap_is_a_cap(model_q5):
    ov = classical_ovoid(model_q5)
    sub = sample_subcap(ov, 69, SplitMix64(31))
    assert len(sub) == 69
    assert is_cap(model_q5, sub)


def test_distinct_ovoids_differ_enough(model_q2):
    # any two distinct ovoids differ in at least q+1 points
    q = model_q2.q
    ovoids = {tuple(map(int, classical_ovoid(model_q2)))}
    for seed in range(200):
        out = complete(model_q2, [], StrategyKind.RANDOM, rng_seed=seed)
        if out.is_ovoid:
            ovoids.add(tuple(map(int, out.final_cap)))
    ovoids = [set(o) for o in ovoids]
    assert len(ovoids) >= 2
    for i, a in enumerate(ovoids):
        for b in ovoids[i + 1 :]:
            assert len(a - b) >= q + 1
