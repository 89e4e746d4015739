"""Independent brute-force recomputations used as test oracles.

Everything here is plain set algebra over scalar evaluations of the
sesquilinear form; none of it touches the incremental counters, the
generators-first construction or the tangent rows assembled from it that
the package uses internally.  In particular ``tangent_sets_by_pairs`` tests
conjugacy pair by pair, the way the package no longer does, so it checks
the assembled rows independently.

The one exception is ``lookahead_by_trial``, which looks one forward step
ahead by adding each candidate to a ``CapState`` and removing it again.  It
checks the delta scoring of forward search against the counters' own
add/remove increments, which are in turn checked against
``relevance_by_sets``.
"""

from itertools import combinations

import numpy as np

from hermcap import CapState, hermitian_inner, normalize_point


def pg3_points(field):
    """All normalized points of PG(3, q^2), computed by scanning vectors."""
    n = field.order2
    pts = set()
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if a or b or c or d:
                        pts.add(normalize_point(field, (a, b, c, d)))
    return sorted(pts)


def surface_points(field):
    return [x for x in pg3_points(field) if hermitian_inner(field, x, x) == 0]


def tangent_sets_by_pairs(model):
    """tangent(x) as Python sets from scalar form evaluations over all pairs."""
    coords = [model.coords_of(i) for i in range(model.num_points)]
    out = [set() for _ in coords]
    f = model.field
    for a in range(len(coords)):
        for b in range(a, len(coords)):
            if hermitian_inner(f, coords[a], coords[b]) == 0:
                out[a].add(b)
                out[b].add(a)
    return out


def cap_by_form(model, ids):
    """Whether ids are distinct and pairwise non-conjugate, by the scalar form."""
    if len(set(ids)) != len(ids):
        return False
    coords = [model.coords_of(i) for i in ids]
    return all(hermitian_inner(model.field, a, b) != 0 for a, b in combinations(coords, 2))


def ovoid_by_form(model, ids):
    """Whether ids form a cap of q^3 + 1 points.

    Each point lies on q + 1 of the (q^3 + 1)(q + 1) generators and a cap
    meets each generator at most once, so exactly the caps of that size meet
    every generator once.
    """
    return len(ids) == model.q**3 + 1 and cap_by_form(model, ids)


def all_lines_pg3(field):
    """Every line of PG(3, q^2) as a frozenset of normalized points."""
    pts = pg3_points(field)
    lines = set()
    for x, y in combinations(pts, 2):
        members = {x}
        for lam in range(field.order2):
            coords = tuple(int(field.add2[y[i], field.mul2[lam, x[i]]]) for i in range(4))
            members.add(normalize_point(field, coords))
        lines.add(frozenset(members))
    return lines


def relevance_by_sets(tsets, cap_members, x):
    """|tangent(x) minus union of members' tangents|."""
    covered = set()
    for m in cap_members:
        covered |= tsets[m]
    return len(tsets[x] - covered)


def enumerate_complete_caps(tsets, num_points, seed):
    """All complete caps containing the seed, by exhaustive branching.

    At each incomplete cap the least uncovered point u must eventually be
    covered, and only currently-uncovered points of tangent(u) can do it, so
    branching over those candidates reaches every complete extension.
    """
    seed = frozenset(seed)
    complete = set()
    seen = set()

    def covered_by(cap):
        cov = set()
        for m in cap:
            cov |= tsets[m]
        return cov

    def rec(cap):
        if cap in seen:
            return
        seen.add(cap)
        cov = covered_by(cap)
        uncovered = [x for x in range(num_points) if x not in cov]
        if not uncovered:
            complete.add(cap)
            return
        u = uncovered[0]
        for z in sorted(tsets[u]):
            if z not in cov:
                rec(cap | {z})

    rec(seed)
    return complete


def lookahead_by_trial(model, members):
    """Each uncovered t with the uncovered points and their relevances once t joins.

    Returns (t, uncovered ids, relevances) triples in ascending t.  Every t is
    added to a fresh state of the members, read and removed again.
    """
    cap = CapState.from_ids(model, members)
    out = []
    for t in cap.uncovered().tolist():
        cap.add_point(t)
        left = cap.uncovered()
        out.append((t, left, cap.relevance_many(left)))
        cap.remove_point(t)
    return out


def forward_score(rel_after):
    """Forward search's score of a candidate from the relevances left once it joins.

    The number of minimal-relevance points, or 0 if the candidate completes the cap.
    """
    return int(np.count_nonzero(rel_after == rel_after.min())) if rel_after.size else 0
