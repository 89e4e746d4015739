"""Cap construction strategies.

``run_strategy`` is the one driver.  It seeds a ``CapState`` with the input
cap and runs ``_complete``, which adds one uncovered point per step until the
cap is complete.  The point comes from the strategy's selection rule in
``_SELECT``; every rule is called as ``rule(cap, uncovered, rng, config)``:

* RANDOM: a uniformly random uncovered point;
* MIN_RELEVANCE: an uncovered point of minimal relevance (it locally covers
  the fewest new points);
* FORWARD: each uncovered candidate t is scored by the number of
  minimal-relevance points the cap would have after adding t, and a
  candidate scoring best under the configured tie mode is added;
* BACKTRACK: random completion, after which ``backtrack_enlarge`` removes
  members of maximal relevance-after-removal, replaces them with
  lower-relevance points and completes the cap again through ``_complete``
  with the minimal weight-after-addition rule.

All tie-breaking is uniform over the tied candidates under the run's own
deterministic RNG stream, so a (model, seed cap, config) triple fully
determines the outcome.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .capstate import CapState
from .errors import HermcapError
from .hermitian import SurfaceModel, is_cap
from .rng import SplitMix64

WEIGHT_TOL = 1e-9  # float weight comparisons


class StrategyKind(enum.Enum):
    RANDOM = "random"
    MIN_RELEVANCE = "min-relevance"
    FORWARD = "forward"
    BACKTRACK = "backtrack"


class TieMode(enum.Enum):
    MAX_COUNT = "max-count"
    MIN_COUNT = "min-count"


@dataclass
class SearchConfig:
    strategy: StrategyKind = StrategyKind.RANDOM
    rng_seed: int = 0
    forward_tie_mode: TieMode = TieMode.MAX_COUNT
    keep_trace: bool = False


@dataclass
class SearchOutcome:
    final_cap: np.ndarray  # sorted PointIds of a complete cap
    is_ovoid: bool
    iterations: int
    trace: list[tuple[int, int]] | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.final_cap)


def _pick(rng: SplitMix64, arr: np.ndarray) -> int:
    return int(arr[rng.randbelow(len(arr))])


def _outcome(model: SurfaceModel, final: np.ndarray, iterations: int, trace) -> SearchOutcome:
    return SearchOutcome(
        final_cap=final,
        is_ovoid=len(final) == model.q**3 + 1,
        iterations=iterations,
        trace=trace,
    )


def _complete(cap: CapState, select, rng: SplitMix64, config: SearchConfig, trace) -> int:
    """Add select(cap, uncovered, rng, config) until the cap is complete; returns the count.

    ``uncovered`` is the sorted array of uncovered points, filtered in place
    of a fresh scan after every addition.
    """
    m = cap.uncovered()
    iterations = 0
    while m.size:
        x = select(cap, m, rng, config)
        if trace is not None:
            trace.append((x, cap.relevance(x)))
        cap.add_point(x)
        iterations += 1
        m = m[cap.cmult[m] == 0]
    return iterations


def _select_random(cap: CapState, m: np.ndarray, rng: SplitMix64, config: SearchConfig) -> int:
    return _pick(rng, m)


def _select_min_relevance(
    cap: CapState, m: np.ndarray, rng: SplitMix64, config: SearchConfig
) -> int:
    rel = cap.relevance_many(m)
    return _pick(rng, m[rel == rel.min()])


def _select_lookahead(cap: CapState, m: np.ndarray, rng: SplitMix64, config: SearchConfig) -> int:
    rel = cap.relevance_many(m)
    if int(rel.min()) == 1:
        # a relevance-1 point covers only itself; adding one is always safe
        return _pick(rng, m[rel == 1])
    rho = np.empty(m.size, dtype=np.int64)
    for i, t in enumerate(m):
        cap.add_point(int(t))
        m2 = m[cap.cmult[m] == 0]
        if m2.size == 0:
            rho[i] = 0  # the candidate completes the cap outright
        else:
            r2 = cap.relevance_many(m2)
            rho[i] = int(np.count_nonzero(r2 == r2.min()))
        cap.remove_point(int(t))
    if config.forward_tie_mode is TieMode.MAX_COUNT:
        return _pick(rng, m[rho == rho.max()])
    return _pick(rng, m[rho == rho.min()])


def _select_min_weight(cap: CapState, m: np.ndarray, rng: SplitMix64, config: SearchConfig) -> int:
    w = cap.weight_after_add_many(m)
    return _pick(rng, m[w <= w.min() + WEIGHT_TOL])


# the completion rule of each strategy; BACKTRACK then enlarges its result
_SELECT = {
    StrategyKind.RANDOM: _select_random,
    StrategyKind.MIN_RELEVANCE: _select_min_relevance,
    StrategyKind.FORWARD: _select_lookahead,
    StrategyKind.BACKTRACK: _select_random,
}


def _backtrack_step(
    cap: CapState, protected: frozenset, depth: int, rng: SplitMix64, config: SearchConfig
) -> int | None:
    """One removal level; returns the points added, or None after restoring the state."""
    removable = np.array(sorted(cap.members - protected), dtype=np.int64)
    if removable.size == 0 or depth <= 0:
        return None
    rvals = cap.removal_relevance_many(removable)
    worst = int(rvals.max())
    p = _pick(rng, removable[rvals == worst])
    cap.remove_point(p)
    m = cap.uncovered()
    better = m[cap.relevance_many(m) < worst]
    if better.size:
        cap.add_point(_pick(rng, better))
        added = 1
    else:
        added = _backtrack_step(cap, protected, depth - 1, rng, config)
        if added is None:
            cap.add_point(p)
            return None
    return added + _complete(cap, _select_min_weight, rng, config, None)


def backtrack_enlarge(
    model: SurfaceModel, protected_seed, complete_cap, config: SearchConfig
) -> SearchOutcome:
    """Try to grow a complete cap by replacing high-relevance members.

    Removals nest at most q levels deep, and points of the protected seed
    are never removed.  Returns the enlarged complete cap when a replacement
    both succeeds and does not lose ground; otherwise returns the input cap
    unchanged.
    """
    rng = SplitMix64(config.rng_seed)
    protected = frozenset(int(x) for x in protected_seed)
    cap = CapState.from_ids(model, complete_cap)
    if not protected <= cap.members:
        raise ValueError("protected seed is not contained in the cap")
    if not cap.is_complete():
        raise ValueError("backtracking expects a complete cap as input")
    input_ids = cap.members_sorted()
    added = _backtrack_step(cap, protected, model.q, rng, config)
    if added is None or len(cap) < len(input_ids):
        return _outcome(model, input_ids, 0, None)
    return _outcome(model, cap.members_sorted(), added, None)


def run_strategy(model: SurfaceModel, seed_cap, config: SearchConfig) -> SearchOutcome:
    """Complete the seed cap by config.strategy's rule; BACKTRACK then enlarges the result."""
    select = _SELECT.get(config.strategy)
    if select is None:
        raise HermcapError(f"unknown strategy {config.strategy!r}")
    rng = SplitMix64(config.rng_seed)
    cap = CapState.from_ids(model, seed_cap)
    trace = [] if config.keep_trace else None
    iterations = _complete(cap, select, rng, config, trace)
    if config.strategy is not StrategyKind.BACKTRACK:
        return _outcome(model, cap.members_sorted(), iterations, trace)
    inner = replace(config, rng_seed=rng.next_u64())
    out = backtrack_enlarge(model, seed_cap, cap.members_sorted(), inner)
    return _outcome(model, out.final_cap, iterations + out.iterations, trace)


def thin_ovoid(model: SurfaceModel, ovoid, rng: SplitMix64):
    """Remove q(q+1)/2 ovoid points while keeping every off-ovoid point covered.

    Stage i (i = 0..q-1) picks a fresh off-ovoid witness still covered by at
    least q+1-i of the remaining members and removes q-i of its coverers,
    never removing a point whose loss would leave some off-ovoid point
    uncovered.  The removed points end up pairwise non-conjugate and exactly
    they are uncovered at the end, so every completion of the kept set
    restores the original ovoid.

    Returns (kept_ids, removed_ids), both sorted.
    """
    q = model.q
    ov = np.array(sorted({int(x) for x in ovoid}), dtype=np.int32)
    if len(ov) != q**3 + 1 or not is_cap(model, ov):
        raise ValueError("thinning requires an ovoid")
    cs = CapState.from_ids(model, ov)
    if not cs.is_complete():
        raise ValueError("thinning requires an ovoid")
    on_ovoid = np.zeros(model.num_points, dtype=bool)
    on_ovoid[ov] = True
    off = np.flatnonzero(~on_ovoid).astype(np.int32)
    removed: list[int] = []
    used_witnesses: set[int] = set()
    for i in range(q):
        need = q - i
        counts = cs.cmult[off]
        pool = [int(w) for w in off[counts >= q + 1 - i] if int(w) not in used_witnesses]
        if not pool:
            raise HermcapError("no admissible witness point; ovoid thinning failed")
        rng.shuffle(pool)
        done = False
        for witness in pool:
            row = model.tangent_set(witness)
            coverers = [int(z) for z in row if int(z) in cs.members]
            rng.shuffle(coverers)
            omega: list[int] = []
            for z in coverers:
                if len(omega) == need:
                    break
                # removing z must not orphan an off-ovoid point: the only
                # multiplicity-1 point in tangent(z) may be z itself
                if cs.removal_relevance(z) == 1:
                    cs.remove_point(z)
                    omega.append(z)
            if len(omega) == need:
                removed.extend(omega)
                used_witnesses.add(witness)
                done = True
                break
            for z in omega:  # witness failed, roll back its removals
                cs.add_point(z)
        if not done:
            raise HermcapError("ovoid thinning could not honor the covering invariant")
    kept = cs.members_sorted()
    removed_arr = np.array(sorted(removed), dtype=np.int32)
    if not np.array_equal(cs.uncovered(), removed_arr):
        raise HermcapError("thinning postcondition violated")
    return kept, removed_arr


def sample_subcap(points, n: int, rng: SplitMix64) -> np.ndarray:
    """Uniformly random n-subset of a point set; sorted ids."""
    ids = sorted(int(x) for x in points)
    if n > len(ids):
        raise ValueError(f"cannot sample {n} points from {len(ids)}")
    return np.array(sorted(rng.sample(ids, n)), dtype=np.int32)
