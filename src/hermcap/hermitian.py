"""The non-degenerate Hermitian surface of PG(3, q^2) and its incidences.

Points are homogeneous coordinate 4-tuples over GF(q^2), normalized so the
first nonzero coordinate is 1, and ordered by the base-q^2 integer value of
the coordinate encodings; a point's rank in that order is its PointId, which
is therefore identical across runs.  The sesquilinear form is diagonal,

    H(x, y) = sum_i x_i * conj(y_i),

so surface membership reads sum_i norm(x_i) = 0.  Two surface points are
conjugate when H vanishes on the pair; conjugate surface points span a line
fully contained in the surface (a generator), and the tangent section of a
point x is the union of the q+1 generators through x, of size q^3 + q^2 + 1.

Tangent sections are precomputed densely (one sorted id row per point) when
they fit the memory budget; the pairwise conjugacy test is evaluated as a
GF(p)-bilinear form via blocked matrix products, which keeps the build fast
enough for q = 7 and beyond.  Generators are derived lazily from the identity
"the generator through conjugate points x, y is tangent(x) & tangent(y)".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, TangentPlaneError
from .galois import FieldTables

DEFAULT_MEMORY_BUDGET = 1 << 30  # bytes of dense tangent storage allowed

ProjPoint = tuple[int, int, int, int]


def normalize_point(field: FieldTables, coords) -> ProjPoint:
    """Scale so the first nonzero coordinate is 1 (canonical representative)."""
    coords = tuple(int(c) for c in coords)
    for c in coords:
        if c:
            if c == 1:
                return coords
            s = field.inv_of(c)
            return tuple(field.mul(s, x) for x in coords)
    raise ValueError("the zero vector is not a projective point")


def hermitian_inner(field: FieldTables, x, y) -> int:
    """H(x, y) = sum_i x_i * conj(y_i); H(y, x) is its conjugate."""
    acc = 0
    for xi, yi in zip(x, y):
        acc = field.add(acc, field.mul(int(xi), field.conj_of(int(yi))))
    return acc


def polar_plane(field: FieldTables, pole) -> ProjPoint:
    """Coefficient vector w of the polar plane {x : sum_i x_i * w_i = 0}."""
    return normalize_point(field, [field.conj_of(int(c)) for c in pole])


def plane_pole(field: FieldTables, plane) -> ProjPoint:
    """Inverse of :func:`polar_plane`."""
    return normalize_point(field, [field.conj_of(int(c)) for c in plane])


@dataclass(frozen=True)
class GeneratorLine:
    """A line fully contained in the surface: q^2 + 1 pairwise conjugate points."""

    id: int
    points: np.ndarray  # sorted PointIds

    def __len__(self) -> int:
        return len(self.points)


def _pg3_point_families(q2: int):
    """Normalized coordinate arrays of PG(3, q^2), ascending encoding order."""
    r = np.arange(q2, dtype=np.int32)
    yield np.array([[0, 0, 0, 1]], dtype=np.int32)
    yield np.column_stack(
        [np.zeros(q2, np.int32), np.zeros(q2, np.int32), np.ones(q2, np.int32), r]
    )
    b, c = np.meshgrid(r, r, indexing="ij")
    yield np.column_stack(
        [np.zeros(q2 * q2, np.int32), np.ones(q2 * q2, np.int32), b.ravel(), c.ravel()]
    )
    a, b, c = np.meshgrid(r, r, r, indexing="ij")
    yield np.column_stack(
        [np.ones(q2**3, np.int32), a.ravel(), b.ravel(), c.ravel()]
    )


class SurfaceModel:
    """Enumerated Hermitian surface with conjugacy and generator access.

    Immutable after construction apart from the lazily built generator cache,
    so it is safe to share read-only across workers.
    """

    def __init__(self, field: FieldTables, memory_budget: int = DEFAULT_MEMORY_BUDGET):
        self.field = field
        self.q = field.q
        self.q2 = field.order2
        self.gx_size = self.q**3 + self.q**2 + 1
        self._build_points()
        self._build_bilinear()
        dense_bytes = 4 * self.num_points * self.gx_size
        self.tangent_dense: np.ndarray | None = None
        if dense_bytes <= memory_budget:
            self._build_tangent_dense()
        self._generators: list[GeneratorLine] | None = None
        self._gens_by_point: list[list[int]] | None = None
        self._canonical_ovoid: np.ndarray | None = None

    # -- construction -------------------------------------------------------

    def _build_points(self) -> None:
        field = self.field
        rows = []
        for fam in _pg3_point_families(self.q2):
            s = field.add2[
                field.add2[field.norm[fam[:, 0]], field.norm[fam[:, 1]]],
                field.add2[field.norm[fam[:, 2]], field.norm[fam[:, 3]]],
            ]
            rows.append(fam[s == 0])
        coords = np.concatenate(rows, axis=0)
        keys = self._encode_coords(coords)
        order = np.argsort(keys, kind="stable")
        self.coords = np.ascontiguousarray(coords[order])
        self.keys = keys[order]
        self.num_points = len(self.coords)
        expected = (self.q**3 + 1) * (self.q**2 + 1)
        if self.num_points != expected:
            raise ConfigurationError(
                f"surface has {self.num_points} points, expected {expected}"
            )

    def _encode_coords(self, coords: np.ndarray) -> np.ndarray:
        k = coords[:, 0].astype(np.int64)
        for i in (1, 2, 3):
            k = k * self.q2 + coords[:, i]
        return k

    def _build_bilinear(self) -> None:
        """H as 2k GF(p)-bilinear components of digit vectors.

        Components come in pairs packed into a single matrix product with
        radix R > max component value, so a conjugacy block costs k float32
        matmuls plus one table gather per pair (no slow float remainders):
        H(x, y) == 0 iff every packed value has both digits divisible by p.
        """
        field = self.field
        p, d = field.p, 2 * field.spec.k
        pw = p ** np.arange(d, dtype=np.int64)
        # mul tensor: T[t, s, u] = digit t of (basis_s * basis_u)
        basis = (pw % field.order2).astype(np.int64)  # encodings of x^j
        prod = field.mul2[np.ix_(basis, basis)]
        T = field.digits[prod].astype(np.int64).transpose(2, 0, 1)  # (d, d, d)
        conj_digits = field.digits[field.conj[self.coords]].astype(np.int64)  # (N,4,d)
        # B_t[n, (i,s)] = sum_u T[t,s,u] * conj_digits[n,i,u]  (mod p)
        bcomp = [
            (np.einsum("su,niu->nis", T[t], conj_digits) % p).reshape(self.num_points, 4 * d)
            for t in range(d)
        ]
        self._A = (
            field.digits[self.coords].astype(np.float32).reshape(self.num_points, 4 * d)
        )
        radix = 4 * d * (p - 1) ** 2 + 1
        if radix * radix > 1 << 24:
            raise ConfigurationError("packed bilinear form exceeds float32 range")
        v = np.arange(radix * radix)
        zero_pair = ((v % radix) % p == 0) & ((v // radix) % p == 0)
        self._B = [
            (bcomp[t] + radix * bcomp[t + 1]).astype(np.float32) for t in range(0, d, 2)
        ]
        self._zero_pair = zero_pair

    def _conjugacy_block(self, row_ids: np.ndarray) -> np.ndarray:
        """Boolean (len(row_ids), N) matrix of H(x, y) == 0."""
        a = self._A[row_ids]
        mask = None
        for bpair in self._B:
            zp = self._zero_pair[(a @ bpair.T).astype(np.int32)]
            mask = zp if mask is None else mask & zp
        return mask

    def _build_tangent_dense(self) -> None:
        n, gx = self.num_points, self.gx_size
        out = np.empty((n, gx), dtype=np.int32)
        block = max(1, min(n, (1 << 27) // max(1, 4 * n)))
        for lo in range(0, n, block):
            ids = np.arange(lo, min(lo + block, n))
            mask = self._conjugacy_block(ids)
            counts = mask.sum(axis=1)
            if not (counts == gx).all():
                raise ConfigurationError("tangent section size mismatch")
            out[lo : lo + len(ids)] = np.nonzero(mask)[1].reshape(len(ids), gx)
        self.tangent_dense = out

    # -- point access --------------------------------------------------------

    def point_id(self, coords) -> int:
        """PointId of a (not necessarily normalized) surface point."""
        norm = normalize_point(self.field, coords)
        key = self._encode_coords(np.array([norm], dtype=np.int32))[0]
        i = int(np.searchsorted(self.keys, key))
        if i >= self.num_points or self.keys[i] != key:
            raise KeyError(f"{norm} is not on the surface")
        return i

    def coords_of(self, pid: int) -> ProjPoint:
        return tuple(int(c) for c in self.coords[pid])

    def on_surface(self, coords) -> bool:
        x = normalize_point(self.field, coords)
        return hermitian_inner(self.field, x, x) == 0

    # -- incidence -----------------------------------------------------------

    def tangent_set(self, pid: int) -> np.ndarray:
        """Sorted ids of the tangent section of pid (includes pid itself)."""
        if self.tangent_dense is not None:
            return self.tangent_dense[pid]
        return self._tangent_lazy(pid)

    def _tangent_lazy(self, pid: int) -> np.ndarray:
        mask = self._conjugacy_block(np.array([pid]))[0]
        row = np.flatnonzero(mask).astype(np.int32)
        if len(row) != self.gx_size:
            raise ConfigurationError("tangent section size mismatch")
        return row

    def tangent_rows(self, pids: np.ndarray) -> np.ndarray:
        """(len(pids), gx_size) id matrix; rows sorted ascending."""
        if self.tangent_dense is not None:
            return self.tangent_dense[pids]
        return np.stack([self._tangent_lazy(int(x)) for x in pids])

    def is_conjugate(self, a: int, b: int) -> bool:
        row = self.tangent_set(a)
        i = int(np.searchsorted(row, b))
        return i < len(row) and row[i] == b

    def classical_ovoid_ids(self) -> np.ndarray:
        """Cached classical ovoid at the canonical pole."""
        if self._canonical_ovoid is None:
            self._canonical_ovoid = classical_ovoid(self)
        return self._canonical_ovoid


def enumerate_surface(
    field: FieldTables, memory_budget: int = DEFAULT_MEMORY_BUDGET
) -> SurfaceModel:
    """Enumerate the surface and its conjugacy structure for a built field."""
    return SurfaceModel(field, memory_budget=memory_budget)


def enumerate_generators(model: SurfaceModel) -> list[GeneratorLine]:
    """All generator lines, each listed once; cached on the model.

    Processing points in id order, every generator is emitted exactly once
    at its minimal member: the generator through conjugate x < y is
    tangent(x) & tangent(y), and once a line is known its block is excluded
    from the later members' pending sets.
    """
    if model._generators is not None:
        return model._generators
    gens: list[GeneratorLine] = []
    by_point: list[list[int]] = [[] for _ in range(model.num_points)]
    for x in range(model.num_points):
        row = model.tangent_set(x)
        pending = row[row != x]
        if by_point[x]:
            known = np.concatenate([gens[g].points for g in by_point[x]])
            pending = np.setdiff1d(pending, known, assume_unique=False)
        while pending.size:
            y = int(pending[0])
            line = np.intersect1d(row, model.tangent_set(y), assume_unique=True)
            if line[0] != x or len(line) != model.q**2 + 1:
                raise ConfigurationError("generator enumeration inconsistency")
            gid = len(gens)
            gens.append(GeneratorLine(id=gid, points=line.astype(np.int32)))
            for m in line:
                by_point[int(m)].append(gid)
            pending = np.setdiff1d(pending, line, assume_unique=True)
    model._generators = gens
    model._gens_by_point = by_point
    return gens


def generators_through(model: SurfaceModel, pid: int) -> list[int]:
    enumerate_generators(model)
    return model._gens_by_point[pid]


def canonical_pole(model: SurfaceModel) -> ProjPoint:
    """First normalized point of PG(3, q^2), in encoding order, off the surface."""
    field = model.field
    for fam in _pg3_point_families(model.q2):
        s = field.add2[
            field.add2[field.norm[fam[:, 0]], field.norm[fam[:, 1]]],
            field.add2[field.norm[fam[:, 2]], field.norm[fam[:, 3]]],
        ]
        off = np.flatnonzero(s != 0)
        if off.size:
            keys = model._encode_coords(fam[off])
            return tuple(int(c) for c in fam[off[np.argmin(keys)]])
    raise ConfigurationError("no point off the surface (degenerate form)")


def classical_ovoid(model: SurfaceModel, pole: ProjPoint | None = None) -> np.ndarray:
    """Plane-section ovoid: surface points on the polar plane of an off-surface pole.

    Size q^3 + 1; meets every generator exactly once.
    """
    field = model.field
    if pole is None:
        pole = canonical_pole(model)
    pole = normalize_point(field, pole)
    if hermitian_inner(field, pole, pole) == 0:
        raise TangentPlaneError(f"pole {pole} lies on the surface; its plane is tangent")
    acc = np.zeros(model.num_points, dtype=np.int32)
    for i in range(4):
        term = field.mul2[model.coords[:, i], field.conj_of(pole[i])]
        acc = field.add2[acc, term]
    ids = np.flatnonzero(acc == 0).astype(np.int32)
    return ids


def is_cap(model: SurfaceModel, points) -> bool:
    """True iff no two distinct members are conjugate."""
    ids = np.asarray(sorted(int(x) for x in points), dtype=np.int32)
    if len(np.unique(ids)) != len(ids):
        return False
    mask = np.zeros(model.num_points, dtype=bool)
    mask[ids] = True
    for x in ids:
        if np.count_nonzero(mask[model.tangent_set(int(x))]) != 1:
            return False
    return True
