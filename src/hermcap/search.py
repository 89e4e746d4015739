"""Cap construction strategies.

``run_strategy`` is the one driver.  It seeds a ``CapState`` with the input
cap and runs ``_complete``, which adds one uncovered point per step until the
cap is complete.  Each strategy's selection rule in ``_SELECT`` is a pure
function ``rule(cap, uncovered, config)`` that returns the nonempty subarray
of the uncovered points it ties on; ``_complete`` then makes the step's one
draw, uniform over that tie set:

* RANDOM: every uncovered point;
* MIN_RELEVANCE: the uncovered points of minimal relevance (each locally
  covers the fewest new points);
* FORWARD: each uncovered candidate t is scored by the number of
  minimal-relevance points the cap would have after adding t (0 if t
  completes it); the rule ties on the candidates scoring best under the
  configured tie mode.  The scores are deltas, read without mutating the
  cap: adding t covers Z_t = T(t) & U of the uncovered set U, and every
  uncovered y outside Z_t loses c_t(y) = |T(t) & T(y) & U| relevance.  The
  surface is a generalized quadrangle: y is off each generator through t and
  collinear with one point of each, and two generators share only t, which
  is not collinear with y.  c_t(y) counts the uncovered ones of those q + 1
  points;
* BACKTRACK: random completion, after which ``backtrack_enlarge`` takes a
  copy of the completed ``CapState`` (the only cap it accepts) and removes
  members of maximal relevance-after-removal until one lower-relevance point
  can be added, adds it and completes the cap again through ``_complete``
  with the minimal weight-after-addition rule.

The rules draw nothing: every draw comes from the run's own deterministic
RNG stream, one per completion step in ``_complete`` and at most two per
backtracking level, so a (model, seed cap, config) triple fully determines
the outcome.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .capstate import CapState
from .errors import HermcapError
from .hermitian import SurfaceModel, checked_ids, enumerate_generators, is_ovoid
from .hermitian import _generator_sums, _point_index, _summed_over_generators
from .rng import SplitMix64

LOOKAHEAD_BLOCK_BYTES = 1 << 22  # bound on the forward scorer's blocks and their indices
# the forward scorer's phi mark on the generators through a column: 64 - q > q + 1 while q <= 31
COVERED = -64
INT8_MAX = np.iinfo(np.int8).max  # above every forward score: a row's start, a dropped cell


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

    def __post_init__(self) -> None:
        # a member or its value; anything else raises ValueError here, not mid-run
        self.strategy = StrategyKind(self.strategy)
        self.forward_tie_mode = TieMode(self.forward_tie_mode)
        SplitMix64(self.rng_seed)  # its seed check: ValueError or TypeError here, not in run_strategy


@dataclass
class SearchOutcome:
    final_cap: np.ndarray  # sorted PointIds of a complete cap
    is_ovoid: bool
    iterations: int
    # (point, relevance) per step of the first completion only: under BACKTRACK, iterations
    # also counts the enlargement's steps, and some traced points may have left final_cap
    trace: list[tuple[int, int]] | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.final_cap)


def _outcome(model: SurfaceModel, final: np.ndarray, iterations: int, trace=None) -> SearchOutcome:
    return SearchOutcome(final, len(final) == model.q**3 + 1, iterations, trace)


def _complete(cap: CapState, select, rng: SplitMix64, config: SearchConfig) -> list[tuple[int, int]]:
    """Add one point drawn from select(cap, uncovered, config) until the cap is complete.

    Each step makes one draw, uniform over the tie set the rule returns.
    While the cap has at most one member, every rule ties on every uncovered
    point, so the step draws over them without calling the rule.  With no
    member, every point has relevance and weight-after-add gx.  With one
    member x0, every uncovered y is off T(x0), and H(3, q^2) is a generalized
    quadrangle of order (q^2, q), so T(y) & T(x0) has q + 1 points: relevance
    and weight-after-add are the same for every y.  So is the forward score,
    as PGU(4, q^2) is transitive on the points, and a point's stabilizer on
    the points not conjugate to it.

    ``uncovered`` is the sorted array U of uncovered points, filtered in
    place of a fresh scan after every addition.  Adding x covers exactly
    T(x) & U, so the filter drops relevance(x) = |T(x) & U| points, and the
    returned trace records each step as (x, that count), with no relevance
    read.  On a sound model each step covers at least the point it adds, so
    a step that drops none means a corrupted model: it raises
    ``HermcapError`` naming the point instead of looping forever.
    """
    m = cap.uncovered()
    trace = []
    while m.size:
        x = int(rng.choice(m if len(cap.members) <= 1 else select(cap, m, config)))
        cap.add_point(x)
        left = m[cap.cmult.take(m, mode="wrap") == 0]
        if left.size == m.size:
            raise HermcapError(f"adding point {x} covered no uncovered point, itself included")
        trace.append((x, m.size - left.size))
        m = left
    return trace


def _select_random(cap: CapState, m: np.ndarray, config: SearchConfig) -> np.ndarray:
    return m


def _select_min_relevance(cap: CapState, m: np.ndarray, config: SearchConfig) -> np.ndarray:
    rel = cap.uncovered_relevance(m)
    return m[rel == rel.min()]


def _block_minima(model: SurfaceModel, phi: np.ndarray, pids: np.ndarray, off: np.ndarray, own: np.ndarray):
    """Each row's minimum of off - c over phi's columns, and how many cells reach it.

    Row i's c sums, in int8, the phi rows of the generators through pids[i].
    Column j drops its cell in row own[j] if 0 <= own[j] < len(pids); own is
    sorted.  The counts are int16: a block has min(N, LOOKAHEAD_BLOCK_BYTES //
    G) <= 3,276 columns at every supported q, N points and G generators.
    """
    v = off - _summed_over_generators(model, phi, pids)
    a, b = own.searchsorted(0), own.searchsorted(len(pids))
    v[own[a:b], np.arange(a, b)] = INT8_MAX
    low = v.min(axis=1)
    return low, (v == low[:, None]).view(np.int8).sum(axis=1, dtype=np.int16)


def _forward_scores(cap: CapState, m: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """rho(t) for every t in m, the sorted uncovered set, where rel = cap.uncovered_relevance(m).

    Only the band B of points with rel(y) <= min rel + q + 1 is scored: as
    c_t(y) <= q + 1, no point outside B can be minimal once some point of B
    reaches min rel.  A row whose band minimum stays above min rel is counted
    exactly over all of U instead.  Per block of band columns, phi has one row
    per generator, indexed by generator id, and phi[g, y] = 1 when the point
    of generator g collinear with y is uncovered: each uncovered point of y's
    pencil is marked on its q + 1 generators.  c_t(y) sums the phi rows of
    t's generators.  Scores are int8 offsets off(y) - c_t(y) from min rel,
    each within [-(q + 1), q + 1].  The first column block writes each row's
    minimum and count; each later block merges its own into them.

    The band points t covers need no mask of their own.  After the 0/1 marks,
    the q + 1 generators through y are marked COVERED = -64 in column y.  A
    candidate t != y conjugate to y lies on one of them, and is itself the
    point of its other q generators collinear with y, so its cell scores
    off(y) + 64 - q.  That is at least 64 - MAX_Q > MAX_Q + 1, above every
    real score and below the int8 limit: a block whose cells are all covered
    leaves its row above 0, which the fallback then counts.  Only the
    diagonal t = y, where q + 1 marks of -64 wrap, is dropped: band column c
    drops its cell in row pos[c], its own position in m.
    The fallback counts on the generators too: a y in U outside Z_t meets
    each point of T(y) & Z_t on exactly one of its q + 1 generators, so y
    loses the sum of how many points of Z_t each of them holds:
    ``_generator_sums`` counts Z_t on the generators and
    ``_summed_over_generators`` sums the counts for every y.  Z_t holds t
    q + 1 times, which overcounts only t's own generators, and y is on none
    of them, as T(t) is their union.  It drops Z_t from U by position in m,
    which needs m sorted (Z_t lies in m; t's repeated position drops once),
    and a candidate that leaves no point uncovered counts 0.
    phi, its scatter indices and the row temporaries stay within
    LOOKAHEAD_BLOCK_BYTES, and the cap is not mutated.
    """
    model = cap.model
    q1 = model.q + 1
    rmin = int(rel.min())
    in_band = rel <= rmin + q1
    band = m[in_band]
    off = (rel[in_band] - rmin).astype(np.int8)
    pos = np.flatnonzero(in_band)  # each band column's own row
    uncovered = cap.cmult == 0
    num_gens = len(enumerate_generators(model))
    # bytes: phi 1 per generator and column; per band column its pencil, 5 per
    # id, and at most rmin + 2q + 2 uncovered ids of 12 q + 36 each with their
    # marks; a score row q + 1 per column for its slab of phi rows and 4 more,
    # 8 per generator of its gather and 40 besides
    cols = min(band.size, max(1, LOOKAHEAD_BLOCK_BYTES // num_gens))
    per_col = 5 * (model.gx_size + model.q) + (12 * q1 + 24) * (rmin + 2 * q1)
    chunk = max(1, LOOKAHEAD_BLOCK_BYTES // per_col)
    step = max(1, LOOKAHEAD_BLOCK_BYTES // ((q1 + 4) * cols + 8 * q1 + 40))
    best = np.empty(m.size, dtype=np.int8)
    count = np.empty(m.size, dtype=np.int64)
    for lo in range(0, band.size, cols):
        hi = min(lo + cols, band.size)
        phi = np.zeros((num_gens, hi - lo), dtype=np.int8)
        cells, width = phi.ravel(), hi - lo
        for a in range(lo, hi, chunk):
            ys = band[a : min(a + chunk, hi)]
            flat = model.pencil_rows(ys).ravel()
            at = np.flatnonzero(uncovered.take(flat, mode="wrap"))
            marks = model.generators_of(flat.take(at, mode="wrap"))
            marks *= width
            marks += (at // (model.gx_size + model.q) + (a - lo))[:, None]
            cells[marks] = 1
            through = model.generators_of(ys)
            through *= width
            through += np.arange(a - lo, a - lo + ys.size)[:, None]
            cells[through] = COVERED
        for r0 in range(0, m.size, step):
            seg = slice(r0, min(r0 + step, m.size))
            low, hits = _block_minima(model, phi, m[seg], off[lo:hi], pos[lo:hi] - r0)
            if lo == 0:  # the first column block reaches every row
                best[seg], count[seg] = low, hits
                continue
            b, k = best[seg], count[seg]
            tied, beaten = low == b, low < b
            k[tied] += hits[tied]
            k[beaten] = hits[beaten]
            np.minimum(b, low, out=b)
    for j in np.flatnonzero(best > 0):
        t = int(m[j])
        row = model.pencil(t)
        z = row[uncovered.take(row)]  # Z_t, with t q + 1 times
        hits = _summed_over_generators(model, _generator_sums(model, z), m)
        after = np.delete(rel - hits, np.searchsorted(m, z))
        count[j] = np.count_nonzero(after == after.min()) if after.size else 0
    return count


def _select_lookahead(cap: CapState, m: np.ndarray, config: SearchConfig) -> np.ndarray:
    rel = cap.uncovered_relevance(m)
    if int(rel.min()) == 1:
        # a relevance-1 point covers only itself; adding one is always safe
        return m[rel == 1]
    rho = _forward_scores(cap, m, rel)
    best = rho.max() if config.forward_tie_mode is TieMode.MAX_COUNT else rho.min()
    return m[rho == best]


def _select_min_weight(cap: CapState, m: np.ndarray, config: SearchConfig) -> np.ndarray:
    w = cap.weight_after_add_many(m)
    return m[w == w.min()]


# the completion rule of each strategy; BACKTRACK then enlarges its result
_SELECT = {
    StrategyKind.RANDOM: _select_random,
    StrategyKind.MIN_RELEVANCE: _select_min_relevance,
    StrategyKind.FORWARD: _select_lookahead,
    StrategyKind.BACKTRACK: _select_random,
}


def backtrack_enlarge(
    model: SurfaceModel, protected_seed, complete_cap, config: SearchConfig
) -> SearchOutcome:
    """Try to grow a complete cap by replacing high-relevance members.

    complete_cap is a complete ``CapState`` of this model (``TypeError`` for
    anything else); the search runs on a copy, and the state is left as it
    was passed.  Each of at most q levels removes a member of maximal
    relevance-after-removal, never one of the protected seed.  At the first
    level that leaves an uncovered point of lower relevance than the member
    removed, one such point is added and the cap completed again by minimal
    weight-after-addition; the result is returned unless it is smaller than
    the input.  Otherwise the input cap is returned unchanged.
    """
    rng = SplitMix64(config.rng_seed)
    protected = frozenset(checked_ids(model, protected_seed).tolist())
    if not isinstance(complete_cap, CapState):
        raise TypeError(f"backtracking takes a CapState, not {type(complete_cap).__name__}")
    if complete_cap.model is not model:
        raise ValueError("the cap state belongs to another model")
    cap = complete_cap.copy()
    if not protected <= cap.members:
        raise ValueError("protected seed is not contained in the cap")
    if not cap.is_complete():
        raise ValueError("backtracking expects a complete cap as input")
    input_ids = cap.members_sorted()
    for _ in range(model.q):
        removable = np.array(sorted(cap.members - protected), dtype=np.int64)
        if removable.size == 0:
            break
        rvals = cap.removal_relevance_many(removable)
        worst = int(rvals.max())
        cap.remove_point(int(rng.choice(removable[rvals == worst])))
        m = cap.uncovered()
        better = m[cap.uncovered_relevance(m) < worst]
        if better.size:
            cap.add_point(int(rng.choice(better)))
            added = 1 + len(_complete(cap, _select_min_weight, rng, config))
            if len(cap) >= len(input_ids):
                return _outcome(model, cap.members_sorted(), added)
            break
    return _outcome(model, input_ids, 0)


def run_strategy(model: SurfaceModel, seed_cap, config: SearchConfig) -> SearchOutcome:
    """Complete the seed cap by config.strategy's rule; BACKTRACK then enlarges the result.

    The trace lists that first completion's steps alone: under BACKTRACK,
    ``iterations`` also counts the enlargement's steps, and the enlargement
    removes members, so some traced points may not be in ``final_cap``.
    """
    select = _SELECT[config.strategy]
    rng = SplitMix64(config.rng_seed)
    cap = CapState.from_ids(model, seed_cap)
    trace = _complete(cap, select, rng, config)
    if config.strategy is not StrategyKind.BACKTRACK:
        return _outcome(model, cap.members_sorted(), len(trace), trace)
    inner = replace(config, rng_seed=rng.next_u64())
    out = backtrack_enlarge(model, seed_cap, cap, inner)
    return _outcome(model, out.final_cap, len(trace) + out.iterations, trace)


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
    if not is_ovoid(model, ovoid):
        raise ValueError("thinning requires an ovoid")
    cs = CapState.from_ids(model, ovoid)
    # an ovoid covers each of its members once and every other point q + 1 times
    off = np.flatnonzero(cs.cmult > 1)
    removed: list[int] = []
    used = np.zeros(model.num_points, dtype=bool)  # witnesses of earlier stages
    for i in range(q):
        need = q - i
        pool = off[(cs.cmult[off] >= q + 1 - i) & ~used[off]].tolist()
        if not pool:
            raise HermcapError("no admissible witness point; ovoid thinning failed")
        rng.shuffle(pool)
        for witness in pool:
            coverers = sorted(cs.members.intersection(model.pencil(witness).tolist()))
            rng.shuffle(coverers)
            omega: list[int] = []
            for z in coverers:
                if len(omega) == need:
                    break
                # removing z must not orphan an off-ovoid point: the only
                # multiplicity-1 point in tangent(z) may be z itself
                if cs.removal_relevance_many([z])[0] == 1:
                    cs.remove_point(z)
                    omega.append(z)
            if len(omega) == need:
                removed.extend(omega)
                used[witness] = True
                break
            for z in omega:  # witness failed, roll back its removals
                cs.add_point(z)
        else:
            raise HermcapError("ovoid thinning could not honor the covering invariant")
    kept = cs.members_sorted()
    removed_arr = np.array(sorted(removed), dtype=np.int32)
    if not np.array_equal(cs.uncovered(), removed_arr):
        raise HermcapError("thinning postcondition violated")
    return kept, removed_arr


def sample_subcap(points, n: int, rng: SplitMix64) -> np.ndarray:
    """Sorted uniformly random n-subset of integer, not bool, ids; ValueError unless 0 <= n <= |points|."""
    ids = sorted(map(_point_index, points))
    return np.array(sorted(rng.sample(ids, n)), dtype=np.int32)
