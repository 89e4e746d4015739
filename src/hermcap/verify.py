"""Invariant suites behind the `verify` subcommand.

Each check group is a generator that yields one (name, ok, detail) result per
check as it computes it, and ``run_checks`` collects every group's results
into one list; the CLI prints one line per result and exits nonzero when one
fails.  A group that raises (a corrupted model can break the cap state it
builds) keeps the results it already yielded, then adds one failing
``<group>-checks-raised`` result carrying the exception text, and the
remaining groups still run.  The deep suite adds generator enumeration and
small-q brute-force oracles (set-algebra recomputations independent of the
incremental counters).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .capfile import cap_ids, load_cap_ids, serialize_cap
from .capstate import CapState
from .errors import CapFileError
from .galois import FieldSpec, FieldTables, build_field
from .hermitian import (
    SurfaceModel,
    enumerate_generators,
    enumerate_surface,
    hermitian_inner,
    is_ovoid,
)
from .rng import SplitMix64
from .search import SearchConfig, run_strategy


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _field_checks(field: FieldTables) -> Iterator[CheckResult]:
    n = field.order2
    idx = np.arange(n)
    a, b, c = idx[:, None, None], idx[None, :, None], idx[None, None, :]
    ok = bool(
        (field.add2[field.add2[a, b], c] == field.add2[a, field.add2[b, c]]).all()
        and (field.mul2[field.mul2[a, b], c] == field.mul2[a, field.mul2[b, c]]).all()
        and (field.mul2[a, field.add2[b, c]] == field.add2[field.mul2[a, b], field.mul2[a, c]]).all()
    )
    yield CheckResult("field-ring-axioms", ok)
    nz = idx[1:]
    yield CheckResult("field-inverses", bool((field.mul2[nz, field.inv[nz]] == 1).all()))
    yield CheckResult("field-conjugation-involutory", bool((field.conj[field.conj] == idx).all()))
    fixed = int(np.count_nonzero(field.conj == idx))
    yield CheckResult(
        "field-subfield-size", fixed == field.q, f"conj fixes {fixed}, want {field.q}"
    )
    homo = bool(
        (field.conj[field.mul2[a[:, :, 0], b[:, :, 0]]]
         == field.mul2[field.conj[a[:, :, 0]], field.conj[b[:, :, 0]]]).all()
        and (field.conj[field.add2[a[:, :, 0], b[:, :, 0]]]
             == field.add2[field.conj[a[:, :, 0]], field.conj[b[:, :, 0]]]).all()
    )
    yield CheckResult("field-conjugation-homomorphism", homo)
    vals, counts = np.unique(field.norm[1:], return_counts=True)
    ok = len(vals) == field.q - 1 and bool((counts == field.q + 1).all())
    ok = ok and all(field.in_subfield(int(v)) for v in vals)
    yield CheckResult("field-norm-fibers", ok)


def _surface_checks(model: SurfaceModel) -> Iterator[CheckResult]:
    q = model.q
    yield CheckResult(
        "surface-point-count",
        model.num_points == (q**3 + 1) * (q**2 + 1),
        f"{model.num_points}",
    )
    sample = np.arange(0, model.num_points, max(1, model.num_points // 64))
    # a pencil of gx + q ids holds gx distinct ones, its own point q + 1 times
    rows = np.sort(model.pencil_rows(sample), axis=1)
    distinct = 1 + np.count_nonzero(np.diff(rows, axis=1), axis=1)
    own = np.count_nonzero(rows == sample[:, None], axis=1)
    size_ok = bool(((distinct == model.gx_size) & (own == q + 1)).all())
    yield CheckResult("surface-tangent-size", size_ok)
    # conjugacy read off the generators against the scalar form, at this q
    rng = SplitMix64(2024)
    form = all(
        model.is_conjugate(a, b)
        == (hermitian_inner(model.field, model.coords_of(a), model.coords_of(b)) == 0)
        for a, b in (
            (rng.randbelow(model.num_points), rng.randbelow(model.num_points))
            for _ in range(256)
        )
    )
    yield CheckResult("surface-conjugacy-form", form)
    yield CheckResult("surface-self-tangency", bool((own > 0).all()))
    ov = model.classical_ovoid_ids()
    yield CheckResult("ovoid-size", len(ov) == q**3 + 1, f"{len(ov)}")
    cs = CapState.from_ids(model, ov)
    yield CheckResult("ovoid-complete", cs.is_complete())
    w_ok = cs.weight(int(ov[0])) == Fraction(q**2 + 1)
    yield CheckResult("ovoid-member-weight", w_ok)


def _capstate_checks(model: SurfaceModel) -> Iterator[CheckResult]:
    rng = SplitMix64(99)
    cap = CapState(model)
    sample = np.arange(0, model.num_points, max(1, model.num_points // 128))
    cap.relevance_many(sample)  # builds the relevance counts, so the mutations update them
    for _ in range(64):
        m = cap.uncovered()
        if m.size and (not cap.members or rng.randbelow(3)):
            cap.add_point(int(m[rng.randbelow(m.size)]))
        elif cap.members:
            cap.remove_point(rng.choice(sorted(cap.members)))
    fresh = CapState.from_ids(model, cap.members)
    m = cap.uncovered()
    exact = (
        np.array_equal(fresh.cmult, cap.cmult)
        and np.array_equal(fresh.relevance_many(sample), cap.relevance_many(sample))
        and np.array_equal(fresh.relevance_many(m), cap.uncovered_relevance(m))
    )
    yield CheckResult("capstate-incremental-exact", bool(exact))
    gx = model.gx_size
    ident = all(cap.relevance(x) + cap.coverage_intersect(x) == gx for x in sample.tolist())
    yield CheckResult("capstate-relevance-coverage-identity", ident)
    if cap.members:
        members_mult = all(cap.coverage_mult(x) == 1 for x in cap.members)
        yield CheckResult("capstate-member-multiplicity-one", members_mult)


def _search_checks(model: SurfaceModel) -> Iterator[CheckResult]:
    q = model.q
    sizes_ok = True
    for i in range(5):
        o = run_strategy(model, [], SearchConfig(rng_seed=500 + i))
        cs = CapState.from_ids(model, o.final_cap)
        sizes_ok = sizes_ok and cs.is_complete() and q**2 + 1 <= o.size <= q**3 + 1
    yield CheckResult("search-random-complete-in-bounds", sizes_ok)
    a = run_strategy(model, [], SearchConfig(rng_seed=321))
    b = run_strategy(model, [], SearchConfig(rng_seed=321))
    yield CheckResult("search-deterministic", bool(np.array_equal(a.final_cap, b.final_cap)))


def _generator_checks(model: SurfaceModel) -> Iterator[CheckResult]:
    q = model.q
    gens = enumerate_generators(model)
    yield CheckResult("generators-count", len(gens) == (q**3 + 1) * (q + 1), f"{len(gens)}")
    yield CheckResult("generators-line-size", gens.shape[1] == q**2 + 1)
    per_point = np.bincount(gens.ravel(), minlength=model.num_points) == q + 1
    yield CheckResult("generators-per-point", bool(per_point.all()))
    once = is_ovoid(model, model.classical_ovoid_ids())
    yield CheckResult("ovoid-meets-generators-once", once)


def _brute_force_small_q_checks() -> Iterator[CheckResult]:
    """Set-algebra oracles at q = 2, 3, independent of the counters."""
    for p in (2, 3):
        field = build_field(FieldSpec(p, 1))
        model = enumerate_surface(field)
        q = model.q
        tsets = [set(model.pencil(x).tolist()) for x in range(model.num_points)]
        # relevance against singletons, by plain set arithmetic
        ok = True
        for y in range(0, model.num_points, max(1, model.num_points // 24)):
            cap = CapState.from_ids(model, [y])
            for x in range(model.num_points):
                if cap.coverage_mult(x) == 0:
                    if cap.relevance(x) != len(tsets[x] - tsets[y]):
                        ok = False
        yield CheckResult(f"oracle-relevance-singletons-q{q}", ok)
        # conjugacy vs shared generator membership
        pair_on_line = {p for g in enumerate_generators(model) for p in combinations(g.tolist(), 2)}
        # the same pairs against the scalar form, independent of the construction
        rng = SplitMix64(5)
        agree = form_agrees = True
        for _ in range(1000):
            a, b = rng.randbelow(model.num_points), rng.randbelow(model.num_points)
            if a == b:
                continue
            lo, hi = min(a, b), max(a, b)
            conj = model.is_conjugate(a, b)
            if conj != ((lo, hi) in pair_on_line):
                agree = False
            if conj != (hermitian_inner(field, model.coords_of(a), model.coords_of(b)) == 0):
                form_agrees = False
        yield CheckResult(f"oracle-conjugacy-generators-q{q}", agree)
        yield CheckResult(f"oracle-conjugacy-form-q{q}", form_agrees)


def _capfile_checks(model: SurfaceModel, path) -> Iterator[CheckResult]:
    try:
        ids = load_cap_ids(model, path)
    except CapFileError as exc:
        yield CheckResult("capfile-valid", False, str(exc))
        return
    yield CheckResult("capfile-valid", True, f"{len(ids)} points")
    reread = cap_ids(model, serialize_cap(model, ids))
    yield CheckResult("capfile-roundtrip", bool(np.array_equal(ids, reread)))


def run_checks(model: SurfaceModel, deep: bool = False, cap_path=None) -> list[CheckResult]:
    groups = [
        ("field", _field_checks(model.field)),
        ("surface", _surface_checks(model)),
        ("capstate", _capstate_checks(model)),
        ("search", _search_checks(model)),
    ]
    if deep:
        groups += [
            ("generators", _generator_checks(model)),
            ("oracle", _brute_force_small_q_checks()),
        ]
    if cap_path is not None:
        groups.append(("capfile", _capfile_checks(model, cap_path)))
    results = []
    for group, checks in groups:
        try:
            for r in checks:
                results.append(r)
        except Exception as exc:  # a raising check is a failed invariant, not a crash
            detail = f"{type(exc).__name__}: {exc}"
            results.append(CheckResult(f"{group}-checks-raised", False, detail))
    return results
