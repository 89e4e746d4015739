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

Every phase of the build does work in proportion to its output; PG(3, q^2)
itself is never enumerated.

- Points come from the norm fibers.  A point with leading 1 is on the surface
  when the norms of its other coordinates sum to -1, so each head (the first
  three coordinates) is completed by the last coordinates in one norm fiber,
  taken ascending.  Heads run in encoding order, so the points come out
  sorted by key.
- Generators come from the classical ovoid, which meets every generator
  exactly once: the q + 1 generators through each of its q^3 + 1 points,
  written down in closed form, are every generator once, with no conjugacy
  test.  Their points off the ovoid all have x_3 = 1, and resolve to ids
  through a transient table of the surface points off {x_3 = 0}, scaled to
  x_3 = 1 and indexed by their first three coordinates (q^6 entries).
- No table of tangent sections is stored.  The pencil of x, the q + 1
  generator rows through it, is gathered with two takes and never sorted; it
  holds every other point of the section once and x itself q + 1 times, and
  the hot paths take the q extra copies of x off by arithmetic.

Caps and ovoids are tested on the generators: a point set is a cap (partial
ovoid) when every generator holds at most one of its points, and an ovoid
when every generator holds exactly one.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ConfigurationError
from .galois import FieldTables

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


def _form(field: FieldTables, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """H(x, y) over the last axis of coordinate arrays, broadcast elsewhere."""
    acc = np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]), dtype=np.int32)
    cy = field.conj[y]
    for i in range(4):
        acc = field.add2[acc, field.mul2[x[..., i], cy[..., i]]]
    return acc


class SurfaceModel:
    """Enumerated Hermitian surface with its generators and tangent sections.

    Points, classical ovoid and generators are built in the constructor, and
    nothing changes afterwards, so a model is safe to share read-only across
    workers.  Incidence is two arrays: ``_gen_points``, the sorted points of
    each generator (``enumerate_generators``), and ``_gens_by_point``, the
    q + 1 generator ids through each point (``generators_of``).  Tangent
    sections are read from them as pencils (``pencil``, ``pencil_rows``).
    """

    def __init__(self, field: FieldTables):
        self.field = field
        self.q = field.q
        self.q2 = field.order2
        self.gx_size = self.q**3 + self.q**2 + 1
        self._build_points()
        self._classical_ovoid = classical_ovoid(self)
        self._build_generators()

    # -- construction -------------------------------------------------------

    def _build_points(self) -> None:
        """Surface points in encoding order, from the norm fibers of GF(q^2).

        Each head (the first three coordinates, from (0, 0, 1) up) is
        completed by the fiber of minus its norm sum, ascending.
        """
        field, q2 = self.field, self.q2
        minus = np.argmax(field.add2 == 0, axis=1)
        by_norm = np.argsort(field.norm, kind="stable").astype(np.int32)
        fiber_size = np.bincount(field.norm, minlength=q2)
        fiber_start = np.cumsum(fiber_size) - fiber_size
        r = np.arange(q2, dtype=np.int32)
        a, b = np.divmod(np.arange(q2 * q2, dtype=np.int32), q2)
        heads = np.concatenate([
            np.array([[0, 0, 1]], dtype=np.int32),
            np.column_stack([np.zeros(q2, np.int32), np.ones(q2, np.int32), r]),
            np.column_stack([np.ones(q2 * q2, np.int32), a, b]),
        ])
        norms = field.norm[heads]
        target = minus[field.add2[field.add2[norms[:, 0], norms[:, 1]], norms[:, 2]]]
        count = fiber_size[target]
        head = np.repeat(np.arange(len(heads)), count)
        rank = np.arange(len(head)) - np.repeat(np.cumsum(count) - count, count)
        coords = np.column_stack([heads[head], by_norm[fiber_start[target][head] + rank]])
        self.coords = coords
        self.keys = self._encode_coords(coords)
        self.num_points = len(coords)
        expected = (self.q**3 + 1) * (self.q**2 + 1)
        if self.num_points != expected:
            raise ConfigurationError(
                f"surface has {self.num_points} points, expected {expected}"
            )
        if not (_form(field, coords, coords) == 0).all():
            raise ConfigurationError("a point built from the norm fibers is off the surface")

    def _encode_coords(self, coords: np.ndarray) -> np.ndarray:
        k = coords[..., 0].astype(np.int64)
        for i in (1, 2, 3):
            k = k * self.q2 + coords[..., i]
        return k

    def _build_generators(self) -> None:
        """Every generator once, from the ovoid point it meets, in closed form.

        An ovoid point o has o_3 = 0 (CANONICAL_POLE is e_3) and o_j = 1 at its
        leading j.  For a, b the indices after j, cyclically in {0, 1, 2},
        w = conj(o_b) e_a - conj(o_a) e_b is orthogonal to o with H(w, w) = -1,
        so the generators through o are <o, e_3 + nu*w> for the q + 1 nu of
        norm 1: o and the q^2 points e_3 + nu*w + lam*o, found by x_0, x_1, x_2.
        ``_sorted_lines`` rejects two rows through the same two points, so the
        generators are distinct lines, which share at most one point: every
        pencil holds gx distinct points.
        """
        field, q, q2 = self.field, self.q, self.q2
        off = np.flatnonzero(self.coords[:, 3])  # keyed by x_0, x_1, x_2 once scaled to x_3 = 1
        head = field.mul2[field.inv[self.coords[off, 3:]], self.coords[off, :3]]
        table = np.full(q2**3, -1, dtype=np.int32)
        table[(head[:, 0] * q2 + head[:, 1]) * q2 + head[:, 2]] = off
        o = self.coords[self._classical_ovoid, :3]
        r, j = np.arange(len(o)), np.argmax(o != 0, axis=1)
        a, b = (j + 1) % 3, (j + 2) % 3
        w = np.zeros_like(o)
        w[r, a] = field.conj[o[r, b]]
        w[r, b] = np.argmax(field.add2 == 0, axis=1)[field.conj[o[r, a]]]  # minus conj(o_a)
        nu, lam = np.flatnonzero(field.norm == 1)[:, None], np.arange(q2)
        key = np.zeros((len(o), q + 1, q2), dtype=np.int32)
        for i in range(3):
            key *= q2
            key += field.add2[field.mul2[nu, w[:, i, None, None]], field.mul2[lam, o[:, i, None, None]]]
        ids = table[key].reshape(-1, q2)
        del key, table  # before the sorts, which set the peak
        if (ids < 0).any():
            raise ConfigurationError("a generated point is off the surface")
        lines = _sorted_lines(np.column_stack([np.repeat(self._classical_ovoid, q + 1), ids]))
        del ids  # before the argsort, as the sorted rows hold its points
        flat = lines.ravel()
        if not (np.bincount(flat, minlength=self.num_points) == q + 1).all():
            raise ConfigurationError("a point is not on exactly q + 1 generators")
        by_point = np.argsort(flat, kind="stable") // (q2 + 1)
        lines.flags.writeable = False
        self._gen_points = lines
        self._gens_by_point = by_point.astype(np.int32).reshape(self.num_points, q + 1)

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
        return tuple(int(c) for c in self.coords[checked_id(self, pid)])

    # -- incidence -----------------------------------------------------------

    def pencil(self, pid: int) -> np.ndarray:
        """The q + 1 generator rows through pid, flat and unsorted."""
        return self._gen_points.take(self._gens_by_point[checked_id(self, pid)], axis=0).ravel()

    def generators_of(self, pids: np.ndarray) -> np.ndarray:
        """(len(pids), q + 1) matrix; row i holds the generators through pids[i]."""
        return self._gens_by_point.take(pids, axis=0)

    def pencil_rows(self, pids: np.ndarray) -> np.ndarray:
        """(len(pids), gx_size + q) matrix; row i is ``pencil(pids[i])``."""
        members = self._gen_points.take(self.generators_of(pids), axis=0)
        return members.reshape(len(members), self.gx_size + self.q)

    def section_counts(self, pids: np.ndarray) -> np.ndarray:
        """How many of the tangent sections of the distinct pids contain each point."""
        counts = np.bincount(self.pencil_rows(pids).ravel(), minlength=self.num_points)
        counts[pids] -= self.q  # a pencil holds its own point q + 1 times
        return counts

    def tangent_rows(self, pids: np.ndarray) -> np.ndarray:
        """(len(pids), gx_size) id matrix; row i is the sorted section of pids[i].

        The point's copies in q of its generators become the sentinel N, so one
        sort of the pencil leaves the gx distinct ids in front (checked).  No
        caller in the package; the benchmark tracer wraps it by name.
        """
        pids = np.asarray(pids, dtype=np.intp)
        block = self.pencil_rows(pids)
        rest = block[:, self.q2 + 1 :]
        rest[rest == pids[:, None]] = self.num_points
        block.sort(axis=1)
        rows, tail = block[:, : self.gx_size], block[:, self.gx_size :]
        if not ((np.diff(rows, axis=1) > 0).all() and (tail == self.num_points).all()):
            raise ConfigurationError("an assembled tangent row does not hold gx distinct ids")
        return rows

    def is_conjugate(self, a: int, b: int) -> bool:
        """True iff a == b or a and b lie on a common generator."""
        a, b, gens = checked_id(self, a), checked_id(self, b), self._gens_by_point
        return a == b or not set(gens[a].tolist()).isdisjoint(gens[b].tolist())

    def classical_ovoid_ids(self) -> np.ndarray:
        """Classical ovoid at the canonical pole."""
        return self._classical_ovoid


def _sorted_lines(lines: np.ndarray) -> np.ndarray:
    """Rows sorted within and by their two least points; no two may share two points."""
    lines = np.sort(lines, axis=1)
    lines = lines[np.lexsort((lines[:, 1], lines[:, 0]))]
    distinct = (lines[1:, :2] != lines[:-1, :2]).any(axis=1)
    if not ((np.diff(lines, axis=1) > 0).all() and distinct.all()):
        raise ConfigurationError("the generator rows are not distinct lines of distinct points")
    return lines


def enumerate_surface(field: FieldTables) -> SurfaceModel:
    """Enumerate the surface, its generators and tangent sections for a built field."""
    return SurfaceModel(field)


def enumerate_generators(model: SurfaceModel) -> np.ndarray:
    """Read-only (generators, q^2 + 1) id array; row g holds generator g's sorted points.

    Each generator is listed once, and rows are ordered by their two least points.
    """
    return model._gen_points


def classical_ovoid(model: SurfaceModel) -> np.ndarray:
    """Plane-section ovoid: surface points on the polar plane of CANONICAL_POLE.

    H(x, e_3) = x_3, so the plane is {x_3 = 0}.  Size q^3 + 1; meets every
    generator exactly once.
    """
    return np.flatnonzero(model.coords[:, 3] == 0).astype(np.int32)


def checked_ids(model: SurfaceModel, points) -> np.ndarray:
    """The points as an integer id array; a signed integer ndarray is returned as it is.

    TypeError for an id that is not an integer, ValueError for one outside
    [0, num_points).
    """
    ids = points  # an integer array takes the range check alone, no per-element pass
    if not (isinstance(ids, np.ndarray) and ids.dtype.kind == "i"):
        ids = np.fromiter(map(operator.index, points), dtype=np.int64)
    if ids.size and not (0 <= ids.min() and ids.max() < model.num_points):
        raise ValueError(f"point ids must lie in [0, {model.num_points})")
    return ids


def checked_id(model: SurfaceModel, pid) -> int:
    """pid as an int; ``checked_ids``' TypeError or ValueError for a bad id."""
    pid = operator.index(pid)
    if not 0 <= pid < model.num_points:
        checked_ids(model, [pid])  # raises its ValueError
    return pid


def _generator_sums(model: SurfaceModel, points) -> np.ndarray:
    """How many of the points lie on each generator, a repeated point counted each time."""
    counts = np.bincount(checked_ids(model, points), minlength=model.num_points)
    return counts[model._gen_points].sum(axis=1)


def is_cap(model: SurfaceModel, points) -> bool:
    """True iff every generator holds at most one of the points (a repeated id counts twice)."""
    return bool((_generator_sums(model, points) <= 1).all())


def is_ovoid(model: SurfaceModel, points) -> bool:
    """True iff every generator holds exactly one of the points."""
    return bool((_generator_sums(model, points) == 1).all())
