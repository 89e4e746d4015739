"""Invariant suites behind the `verify` subcommand.

Each check returns (name, ok, detail); the CLI prints one line per check and
exits nonzero on the first failure.  A check group that raises (a corrupted
model can break the cap state it builds) reports one failing
``<group>-checks-raised`` result carrying the exception text, and the
remaining groups still run.  The deep suite adds generator
enumeration and small-q brute-force oracles (set-algebra recomputations
independent of the incremental counters).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .capstate import CapState
from .errors import CapFileError
from .galois import FieldSpec, FieldTables, build_field
from .hermitian import (
    CANONICAL_POLE,
    SurfaceModel,
    enumerate_generators,
    enumerate_surface,
    generators_through,
    hermitian_inner,
    plane_pole,
    polar_plane,
)
from .rng import SplitMix64
from .search import SearchConfig, run_strategy


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _field_checks(field: FieldTables) -> list[CheckResult]:
    out = []
    n = field.order2
    idx = np.arange(n)
    a, b, c = idx[:, None, None], idx[None, :, None], idx[None, None, :]
    ok = bool(
        (field.add2[field.add2[a, b], c] == field.add2[a, field.add2[b, c]]).all()
        and (field.mul2[field.mul2[a, b], c] == field.mul2[a, field.mul2[b, c]]).all()
        and (field.mul2[a, field.add2[b, c]] == field.add2[field.mul2[a, b], field.mul2[a, c]]).all()
    )
    out.append(CheckResult("field-ring-axioms", ok))
    nz = idx[1:]
    out.append(CheckResult("field-inverses", bool((field.mul2[nz, field.inv[nz]] == 1).all())))
    out.append(
        CheckResult("field-conjugation-involutory", bool((field.conj[field.conj] == idx).all()))
    )
    fixed = int(np.count_nonzero(field.conj == idx))
    out.append(
        CheckResult(
            "field-subfield-size", fixed == field.q, f"conj fixes {fixed}, want {field.q}"
        )
    )
    homo = bool(
        (field.conj[field.mul2[a[:, :, 0], b[:, :, 0]]]
         == field.mul2[field.conj[a[:, :, 0]], field.conj[b[:, :, 0]]]).all()
        and (field.conj[field.add2[a[:, :, 0], b[:, :, 0]]]
             == field.add2[field.conj[a[:, :, 0]], field.conj[b[:, :, 0]]]).all()
    )
    out.append(CheckResult("field-conjugation-homomorphism", homo))
    vals, counts = np.unique(field.norm[1:], return_counts=True)
    ok = len(vals) == field.q - 1 and bool((counts == field.q + 1).all())
    ok = ok and all(field.in_subfield(int(v)) for v in vals)
    out.append(CheckResult("field-norm-fibers", ok))
    return out


def _surface_checks(model: SurfaceModel) -> list[CheckResult]:
    out = []
    q = model.q
    out.append(
        CheckResult(
            "surface-point-count",
            model.num_points == (q**3 + 1) * (q**2 + 1),
            f"{model.num_points}",
        )
    )
    sizes_ok = all(
        len(model.tangent_set(x)) == model.gx_size
        for x in range(0, model.num_points, max(1, model.num_points // 64))
    )
    out.append(CheckResult("surface-tangent-size", sizes_ok))
    rng = SplitMix64(2024)
    sym = all(
        model.is_conjugate(a, b) == model.is_conjugate(b, a)
        for a, b in (
            (rng.randbelow(model.num_points), rng.randbelow(model.num_points))
            for _ in range(256)
        )
    )
    out.append(CheckResult("surface-conjugacy-symmetric", sym))
    self_tangent = all(
        bool(np.any(model.tangent_set(x) == x))
        for x in range(0, model.num_points, max(1, model.num_points // 64))
    )
    out.append(CheckResult("surface-self-tangency", self_tangent))
    ov = model.classical_ovoid_ids()
    out.append(CheckResult("ovoid-size", len(ov) == q**3 + 1, f"{len(ov)}"))
    cs = CapState.from_ids(model, ov)
    out.append(CheckResult("ovoid-complete", cs.is_complete()))
    w_ok = cs.weight(int(ov[0])) == Fraction(q**2 + 1)
    out.append(CheckResult("ovoid-member-weight", w_ok))
    back = plane_pole(model.field, polar_plane(model.field, CANONICAL_POLE))
    out.append(CheckResult("polarity-involution", back == CANONICAL_POLE))
    return out


def _capstate_checks(model: SurfaceModel) -> list[CheckResult]:
    out = []
    rng = SplitMix64(99)
    cap = CapState(model)
    for _ in range(64):
        m = cap.uncovered()
        if m.size and (not cap.members or rng.randbelow(3)):
            cap.add_point(int(m[rng.randbelow(m.size)]))
        elif cap.members:
            cap.remove_point(rng.choice(sorted(cap.members)))
    fresh = CapState.from_ids(model, cap.members)
    out.append(
        CheckResult("capstate-incremental-exact", bool(np.array_equal(fresh.cmult, cap.cmult)))
    )
    gx = model.gx_size
    ident = all(
        cap.relevance(x) + cap.coverage_intersect(x) == gx
        for x in range(0, model.num_points, max(1, model.num_points // 128))
    )
    out.append(CheckResult("capstate-relevance-coverage-identity", ident))
    if cap.members:
        members_mult = all(cap.coverage_mult(x) == 1 for x in cap.members)
        out.append(CheckResult("capstate-member-multiplicity-one", members_mult))
    return out


def _search_checks(model: SurfaceModel) -> list[CheckResult]:
    out = []
    q = model.q
    sizes_ok = True
    for i in range(5):
        o = run_strategy(model, [], SearchConfig(rng_seed=500 + i))
        cs = CapState.from_ids(model, o.final_cap)
        sizes_ok = sizes_ok and cs.is_complete() and q**2 + 1 <= o.size <= q**3 + 1
    out.append(CheckResult("search-random-complete-in-bounds", sizes_ok))
    a = run_strategy(model, [], SearchConfig(rng_seed=321))
    b = run_strategy(model, [], SearchConfig(rng_seed=321))
    out.append(CheckResult("search-deterministic", bool(np.array_equal(a.final_cap, b.final_cap))))
    return out


def _generator_checks(model: SurfaceModel) -> list[CheckResult]:
    out = []
    q = model.q
    gens = enumerate_generators(model)
    out.append(
        CheckResult("generators-count", len(gens) == (q**3 + 1) * (q + 1), f"{len(gens)}")
    )
    out.append(CheckResult("generators-line-size", gens.shape[1] == q**2 + 1))
    per_point = all(
        len(generators_through(model, x)) == q + 1 for x in range(model.num_points)
    )
    out.append(CheckResult("generators-per-point", per_point))
    ov = model.classical_ovoid_ids()
    mask = np.zeros(model.num_points, dtype=bool)
    mask[ov] = True
    once = bool((mask[gens].sum(axis=1) == 1).all())
    out.append(CheckResult("ovoid-meets-generators-once", once))
    return out


def _brute_force_small_q_checks() -> list[CheckResult]:
    """Set-algebra oracles at q = 2, 3, independent of the counters."""
    out = []
    for p in (2, 3):
        field = build_field(FieldSpec(p, 1))
        model = enumerate_surface(field)
        q = model.q
        tsets = [set(map(int, model.tangent_set(x))) for x in range(model.num_points)]
        # relevance against singletons, by plain set arithmetic
        ok = True
        for y in range(0, model.num_points, max(1, model.num_points // 24)):
            cap = CapState.from_ids(model, [y])
            for x in range(model.num_points):
                if cap.coverage_mult(x) == 0:
                    if cap.relevance(x) != len(tsets[x] - tsets[y]):
                        ok = False
        out.append(CheckResult(f"oracle-relevance-singletons-q{q}", ok))
        # conjugacy vs shared generator membership
        pair_on_line = set()
        for g in enumerate_generators(model):
            pts = g.tolist()
            for i, a in enumerate(pts):
                for b in pts[i + 1 :]:
                    pair_on_line.add((a, b))
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
        out.append(CheckResult(f"oracle-conjugacy-generators-q{q}", agree))
        out.append(CheckResult(f"oracle-conjugacy-form-q{q}", form_agrees))
    return out


def _capfile_checks(model: SurfaceModel, path) -> list[CheckResult]:
    from .capfile import parse_cap, read_cap, resolve_cap, serialize_cap

    try:
        payload = read_cap(path)
        ids = resolve_cap(model, payload)
    except CapFileError as exc:
        return [CheckResult("capfile-valid", False, str(exc))]
    out = [CheckResult("capfile-valid", True, f"{len(ids)} points")]
    data = serialize_cap(model, ids)
    reparsed = resolve_cap(model, parse_cap(data))
    out.append(CheckResult("capfile-roundtrip", bool(np.array_equal(ids, reparsed))))
    return out


def _run_group(group: str, check, *args) -> list[CheckResult]:
    try:
        return check(*args)
    except Exception as exc:  # a raising check is a failed invariant, not a crash
        return [CheckResult(f"{group}-checks-raised", False, f"{type(exc).__name__}: {exc}")]


def run_checks(model: SurfaceModel, deep: bool = False, cap_path=None) -> list[CheckResult]:
    groups = [
        ("field", _field_checks, model.field),
        ("surface", _surface_checks, model),
        ("capstate", _capstate_checks, model),
        ("search", _search_checks, model),
    ]
    if deep:
        groups += [("generators", _generator_checks, model), ("oracle", _brute_force_small_q_checks)]
    if cap_path is not None:
        groups.append(("capfile", _capfile_checks, model, cap_path))
    results = []
    for group, check, *args in groups:
        results += _run_group(group, check, *args)
    return results
