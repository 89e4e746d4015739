"""Cap construction strategies.

Four ways to produce a complete cap:

* random completion: repeatedly add a uniformly random uncovered point;
* minimal-relevance completion: always add an uncovered point whose
  relevance is minimal (locally covers the fewest new points);
* forward-looking completion: evaluate each uncovered candidate t by the
  number of minimal-relevance points the cap would have after adding t, and
  add the candidate scoring best under the configured tie mode;
* backtracking enlargement: starting from a complete cap, remove members of
  maximal relevance-after-removal and replace them with lower-relevance
  points, then extend back to completeness by minimal weight-after-addition.

All tie-breaking is uniform over the tied candidates under the run's own
deterministic RNG stream, so a (model, seed cap, config) triple fully
determines the outcome.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .capstate import CapState
from .errors import CapCompleteError, HermcapError
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
    backtrack_max_depth: int | None = None  # default: q, resolved at run time
    candidate_cap: int | None = None  # forward search candidate subsampling
    keep_trace: bool = False

    def __post_init__(self) -> None:
        if self.backtrack_max_depth is not None and self.backtrack_max_depth < 1:
            raise ValueError("backtrack_max_depth must be >= 1")


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


def _outcome(model: SurfaceModel, cap: CapState, iterations: int, trace) -> SearchOutcome:
    final = cap.members_sorted()
    return SearchOutcome(
        final_cap=final,
        is_ovoid=len(final) == model.q**3 + 1,
        iterations=iterations,
        trace=trace,
    )


def _complete(cap: CapState, select, rng: SplitMix64, trace) -> int:
    """Add select(cap, uncovered, rng) until the cap is complete; returns the count.

    ``uncovered`` is the sorted array of uncovered points, filtered in place
    of a fresh scan after every addition.
    """
    m = cap.uncovered()
    iterations = 0
    while m.size:
        x = select(cap, m, rng)
        if trace is not None:
            trace.append((x, cap.relevance(x)))
        cap.add_point(x)
        iterations += 1
        m = m[cap.cmult[m] == 0]
    return iterations


def _select_random(cap: CapState, m: np.ndarray, rng: SplitMix64) -> int:
    return _pick(rng, m)


def _select_min_relevance(cap: CapState, m: np.ndarray, rng: SplitMix64) -> int:
    rel = cap.relevance_many(m)
    return _pick(rng, m[rel == rel.min()])


def _select_forward(
    cap: CapState, m: np.ndarray, rng: SplitMix64, config: SearchConfig
) -> int:
    rel = cap.relevance_many(m)
    rmin = int(rel.min())
    if rmin == 1:
        # a relevance-1 point covers only itself; adding one is always safe
        return _pick(rng, m[rel == 1])
    cands = m
    if config.candidate_cap is not None and cands.size > config.candidate_cap:
        cands = np.array(
            sorted(rng.sample([int(c) for c in cands], config.candidate_cap)),
            dtype=m.dtype,
        )
    rho = np.empty(cands.size, dtype=np.int64)
    for i, t in enumerate(cands):
        cap.add_point(int(t))
        m2 = m[cap.cmult[m] == 0]
        if m2.size == 0:
            rho[i] = 0  # the candidate completes the cap outright
        else:
            r2 = cap.relevance_many(m2)
            rho[i] = int(np.count_nonzero(r2 == r2.min()))
        cap.remove_point(int(t))
    if config.forward_tie_mode is TieMode.MAX_COUNT:
        ties = cands[rho == rho.max()]
    else:
        ties = cands[rho == rho.min()]
    return _pick(rng, ties)


def select_forward(model: SurfaceModel, cap: CapState, config: SearchConfig) -> int:
    """One forward-search point selection for an incomplete cap."""
    m = cap.uncovered()
    if m.size == 0:
        raise CapCompleteError("cap is complete; nothing to select")
    return _select_forward(cap, m, SplitMix64(config.rng_seed), config)


def _run_completion(
    model: SurfaceModel, seed_cap, config: SearchConfig, select
) -> SearchOutcome:
    rng = SplitMix64(config.rng_seed)
    cap = CapState.from_ids(model, seed_cap)
    trace = [] if config.keep_trace else None
    iterations = _complete(cap, select, rng, trace)
    return _outcome(model, cap, iterations, trace)


def complete_random(model: SurfaceModel, seed_cap, config: SearchConfig) -> SearchOutcome:
    """Uniformly random completion of a seed cap."""
    return _run_completion(model, seed_cap, config, _select_random)


def complete_min_relevance(
    model: SurfaceModel, seed_cap, config: SearchConfig
) -> SearchOutcome:
    """Completion adding an uncovered point of minimal relevance each step."""
    return _run_completion(model, seed_cap, config, _select_min_relevance)


def complete_forward(model: SurfaceModel, seed_cap, config: SearchConfig) -> SearchOutcome:
    """Completion driven by the forward-looking selection rule."""
    return _run_completion(
        model, seed_cap, config, lambda cap, m, rng: _select_forward(cap, m, rng, config)
    )


def _extend_min_weight(cap: CapState, rng: SplitMix64) -> int:
    added = 0
    while not cap.is_complete():
        m = cap.uncovered()
        w = cap.weight_after_add_many(m)
        ties = m[w <= w.min() + WEIGHT_TOL]
        cap.add_point(_pick(rng, ties))
        added += 1
    return added


def _backtrack_step(cap: CapState, protected: frozenset, depth: int, rng, counter) -> bool:
    """One removal level; restores the state exactly when it fails."""
    removable = np.array(sorted(cap.members - protected), dtype=np.int64)
    if removable.size == 0 or depth <= 0:
        return False
    rvals = cap.removal_relevance_many(removable)
    worst = int(rvals.max())
    p = _pick(rng, removable[rvals == worst])
    cap.remove_point(p)
    m = cap.uncovered()
    better = m[cap.relevance_many(m) < worst]
    if better.size:
        cap.add_point(_pick(rng, better))
        counter[0] += 1
        ok = True
    else:
        ok = _backtrack_step(cap, protected, depth - 1, rng, counter)
    if not ok:
        cap.add_point(p)
        return False
    counter[0] += _extend_min_weight(cap, rng)
    return True


def backtrack_enlarge(
    model: SurfaceModel, protected_seed, complete_cap, config: SearchConfig
) -> SearchOutcome:
    """Try to grow a complete cap by replacing high-relevance members.

    Points of the protected seed are never removed.  Returns the enlarged
    complete cap when a replacement both succeeds and does not lose ground;
    otherwise returns the input cap unchanged.
    """
    rng = SplitMix64(config.rng_seed)
    protected = frozenset(int(x) for x in protected_seed)
    cap = CapState.from_ids(model, complete_cap)
    if not protected <= cap.members:
        raise ValueError("protected seed is not contained in the cap")
    if not cap.is_complete():
        raise ValueError("backtracking expects a complete cap as input")
    input_ids = cap.members_sorted()
    depth = config.backtrack_max_depth if config.backtrack_max_depth else model.q
    counter = [0]
    ok = _backtrack_step(cap, protected, depth, rng, counter)
    if not ok or len(cap) < len(input_ids):
        return SearchOutcome(
            final_cap=input_ids,
            is_ovoid=len(input_ids) == model.q**3 + 1,
            iterations=0,
            trace=None,
        )
    return _outcome(model, cap, counter[0], None)


def run_strategy(model: SurfaceModel, seed_cap, config: SearchConfig) -> SearchOutcome:
    """Dispatch on config.strategy; BACKTRACK first random-completes the seed."""
    if config.strategy is StrategyKind.RANDOM:
        return complete_random(model, seed_cap, config)
    if config.strategy is StrategyKind.MIN_RELEVANCE:
        return complete_min_relevance(model, seed_cap, config)
    if config.strategy is StrategyKind.FORWARD:
        return complete_forward(model, seed_cap, config)
    if config.strategy is StrategyKind.BACKTRACK:
        rng = SplitMix64(config.rng_seed)
        cap = CapState.from_ids(model, seed_cap)
        trace = [] if config.keep_trace else None
        base_iters = _complete(cap, _select_random, rng, trace)
        base = cap.members_sorted()
        inner = SearchConfig(
            strategy=StrategyKind.BACKTRACK,
            rng_seed=rng.next_u64(),
            backtrack_max_depth=config.backtrack_max_depth,
        )
        out = backtrack_enlarge(model, seed_cap, base, inner)
        return SearchOutcome(
            final_cap=out.final_cap,
            is_ovoid=out.is_ovoid,
            iterations=base_iters + out.iterations,
            trace=trace,
        )
    raise HermcapError(f"unknown strategy {config.strategy!r}")


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
                if np.count_nonzero(cs.cmult[model.tangent_set(z)] == 1) == 1:
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
