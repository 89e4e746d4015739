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

The model is built generators first.  The classical ovoid meets every
generator exactly once, so walking its q^3 + 1 points and spanning the q + 1
generators through each yields every generator exactly once, in O(N q)
field operations and with no pairwise conjugacy test.  A tangent row is then
assembled as the sorted union of the q + 1 generators through the point.
Rows are stored densely (one sorted id row per point) when the table takes
at most DENSE_LIMIT_BYTES; above that (q >= 13) the same assembly runs on
demand for each requested row.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, TangentPlaneError
from .galois import FieldTables

DENSE_LIMIT_BYTES = 1 << 30  # largest dense tangent table built up front
# largest q built: q = 16 takes about 14 s and 1.25 GB on a 2-core host, and at
# q = 32 the q^6 coordinate rows of PG(3, q^2) alone would need over 17 GB
MAX_Q = 16

ProjPoint = tuple[int, int, int, int]

# H(e3, e3) = 1 over every field, and e3 is the first point in encoding order,
# so it is the first point of PG(3, q^2) off the surface
CANONICAL_POLE: ProjPoint = (0, 0, 0, 1)


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


def _form(field: FieldTables, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """H(x, y) over the last axis of coordinate arrays, broadcast elsewhere."""
    acc = np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]), dtype=np.int32)
    cy = field.conj[y]
    for i in range(4):
        acc = field.add2[acc, field.mul2[x[..., i], cy[..., i]]]
    return acc


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
    """Enumerated Hermitian surface with its generators and tangent sections.

    Points, classical ovoid, generators and (when they fit) the dense tangent
    table are all built in the constructor, and nothing changes afterwards,
    so a model is safe to share read-only across workers.
    """

    def __init__(self, field: FieldTables):
        if field.q > MAX_Q:
            raise ConfigurationError(f"q={field.q} exceeds the largest supported q ({MAX_Q})")
        self.field = field
        self.q = field.q
        self.q2 = field.order2
        self.gx_size = self.q**3 + self.q**2 + 1
        self._build_points()
        self._classical_ovoid = classical_ovoid(self)
        self._build_generators()
        self.tangent_dense: np.ndarray | None = None
        if 4 * self.num_points * self.gx_size <= DENSE_LIMIT_BYTES:
            self._build_tangent_dense()

    # -- construction -------------------------------------------------------

    def _build_points(self) -> None:
        rows = [fam[_form(self.field, fam, fam) == 0] for fam in _pg3_point_families(self.q2)]
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
        k = coords[..., 0].astype(np.int64)
        for i in (1, 2, 3):
            k = k * self.q2 + coords[..., i]
        return k

    def _build_generators(self) -> None:
        """Every generator once, from the ovoid point it meets.

        An ovoid point o with leading coordinate j (o_j = 1) lies off the
        plane {y_j = 0}, which meets each of the q + 1 generators through o
        in one point y, conjugate to o; the generator is {y} and o + lam*y.
        """
        field, q, q2 = self.field, self.q, self.q2
        ovoid = self.coords[self._classical_ovoid]
        lead = np.argmax(ovoid != 0, axis=1)
        lam = np.arange(q2, dtype=np.int32)[:, None]
        parts = []
        for j in range(4):
            o = ovoid[lead == j]
            plane = self.coords[self.coords[:, j] == 0]
            hit = _form(field, o[:, None, :], plane[None, :, :]) == 0
            if not (hit.sum(axis=1) == q + 1).all():
                raise ConfigurationError("an ovoid point does not meet q + 1 generators")
            y = plane[np.nonzero(hit)[1]].reshape(len(o), q + 1, 1, 4)
            span = field.add2[o[:, None, None, :], field.mul2[lam, y]]
            parts.append(np.concatenate([y, span], axis=2).reshape(-1, 4))
        pts = np.concatenate(parts)
        first = pts[np.arange(len(pts)), np.argmax(pts != 0, axis=1)]
        keys = self._encode_coords(field.mul2[field.inv[first][:, None], pts])
        ids = np.minimum(np.searchsorted(self.keys, keys), self.num_points - 1)
        if not (self.keys[ids] == keys).all():
            raise ConfigurationError("a generated point is off the surface")
        lines = np.sort(ids.astype(np.int32).reshape(-1, q2 + 1), axis=1)
        lines = lines[np.lexsort((lines[:, 1], lines[:, 0]))]
        flat = lines.ravel()
        if not (np.bincount(flat, minlength=self.num_points) == q + 1).all():
            raise ConfigurationError("a point is not on exactly q + 1 generators")
        by_point = np.argsort(flat, kind="stable") // (q2 + 1)
        lines.flags.writeable = False
        self._gen_points = lines
        self._gens_by_point = by_point.astype(np.int32).reshape(self.num_points, q + 1)

    def _assemble_rows(self, pids: np.ndarray) -> np.ndarray:
        """Tangent rows as sorted unions of the q + 1 generators through each point."""
        pids = np.asarray(pids, dtype=np.intp)
        width = (self.q + 1) * (self.q2 + 1)
        members = self._gen_points[self._gens_by_point[pids]].reshape(len(pids), width)
        block = np.sort(members, axis=1)
        keep = np.ones(block.shape, dtype=bool)
        keep[:, 1:] = block[:, 1:] != block[:, :-1]
        if not (keep.sum(axis=1) == self.gx_size).all():
            raise ConfigurationError("an assembled tangent row does not hold gx distinct ids")
        return block[keep].reshape(len(pids), self.gx_size)

    def _build_tangent_dense(self) -> None:
        n = self.num_points
        out = np.empty((n, self.gx_size), dtype=np.int32)
        step = max(1, (1 << 22) // ((self.q + 1) * (self.q2 + 1)))  # 16 MiB of ids a block
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            out[lo:hi] = self._assemble_rows(np.arange(lo, hi))
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

    # -- incidence -----------------------------------------------------------

    def tangent_set(self, pid: int) -> np.ndarray:
        """Sorted ids of the tangent section of pid (includes pid itself)."""
        if self.tangent_dense is not None:
            return self.tangent_dense[pid]
        return self._assemble_rows(np.array([pid]))[0]

    def tangent_rows(self, pids: np.ndarray) -> np.ndarray:
        """(len(pids), gx_size) id matrix; rows sorted ascending."""
        if self.tangent_dense is not None:
            return self.tangent_dense[pids]
        return self._assemble_rows(pids)

    def is_conjugate(self, a: int, b: int) -> bool:
        row = self.tangent_set(a)
        i = int(np.searchsorted(row, b))
        return i < len(row) and row[i] == b

    def classical_ovoid_ids(self) -> np.ndarray:
        """Classical ovoid at the canonical pole."""
        return self._classical_ovoid


def enumerate_surface(field: FieldTables) -> SurfaceModel:
    """Enumerate the surface, its generators and tangent sections for a built field."""
    return SurfaceModel(field)


def enumerate_generators(model: SurfaceModel) -> np.ndarray:
    """Read-only (generators, q^2 + 1) id array; row g holds generator g's sorted points.

    Each generator is listed once, and rows are ordered by their two least points.
    """
    return model._gen_points


def generators_through(model: SurfaceModel, pid: int) -> list[int]:
    """Ids of the q + 1 generators through pid, ascending."""
    return model._gens_by_point[pid].tolist()


def classical_ovoid(model: SurfaceModel, pole: ProjPoint = CANONICAL_POLE) -> np.ndarray:
    """Plane-section ovoid: surface points on the polar plane of an off-surface pole.

    Size q^3 + 1; meets every generator exactly once.
    """
    field = model.field
    pole = normalize_point(field, pole)
    if hermitian_inner(field, pole, pole) == 0:
        raise TangentPlaneError(f"pole {pole} lies on the surface; its plane is tangent")
    return np.flatnonzero(_form(field, model.coords, np.array(pole)) == 0).astype(np.int32)


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
