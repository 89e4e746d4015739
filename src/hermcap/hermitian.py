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
  x_3 = 1 and indexed by their first three coordinates (q^6 entries).  The
  GF(q^2) tables are read there as flat gathers, a + b and a * b at
  a * q^2 + b.
- The generators through each point come from one plain sort of unique
  keys: generator g contributes point * G + g for each of its points, with
  G the generator count, and the sorted keys mod G list every point's q + 1
  generators ascending.
- No table of tangent sections is stored.  The pencil of x, the q + 1
  generator rows through it, is gathered with two takes and never sorted; it
  holds every other point of the section once and x itself q + 1 times, and
  the hot paths take the q extra copies of x off by arithmetic.
- The generator ids through each point are stored in the type
  ``_id_dtype`` picks.
- Incidence counts run through one kernel each way.  ``_generator_sums``
  counts points on each generator, and ``_summed_over_generators`` sums
  per-generator values over each point's q + 1 generators; a cap's
  relevance and the forward scores are read this way.
- Gathers indexed by the model's own tables or a state's own arrays use
  ``mode="wrap"``, numpy's take without its range check, where that measures
  level or faster, and gathers indexed by a caller's ids run in the default
  mode, which raises IndexError off the surface, or after ``checked_ids``.

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

# points per block of ``_summed_over_generators``: of 2,048 to 16,384, the
# fastest at q = 11, 13 and 16, and level with one block at q = 7
RELEVANCE_BLOCK = 4096

# H(e3, e3) = 1 over every field, and e3 is the first point in encoding order,
# so it is the first point of PG(3, q^2) off the surface
CANONICAL_POLE: ProjPoint = (0, 0, 0, 1)


def _coordinates(field: FieldTables, coords) -> ProjPoint:
    """coords as four ints in [0, q^2); TypeError for a non-integer, ValueError otherwise."""
    coords = tuple(map(operator.index, coords))
    if len(coords) != 4 or not all(0 <= c < field.order2 for c in coords):
        raise ValueError(f"{coords} is not four coordinates in [0, {field.order2})")
    return coords


def normalize_point(field: FieldTables, coords) -> ProjPoint:
    """Scale so the first nonzero coordinate is 1; ``_coordinates``' errors, or ValueError for zero."""
    coords = _coordinates(field, coords)
    for c in coords:
        if c:
            if c == 1:
                return coords
            s = field.inv_of(c)
            return tuple(int(field.mul2[s, x]) for x in coords)
    raise ValueError("the zero vector is not a projective point")


def hermitian_inner(field: FieldTables, x, y) -> int:
    """H(x, y) = sum_i x_i * conj(y_i); H(y, x) is its conjugate.  ``_coordinates``' errors."""
    acc = 0
    for xi, yi in zip(_coordinates(field, x), _coordinates(field, y)):
        acc = int(field.add2[acc, field.mul2[xi, field.conj[yi]]])
    return acc


def _form(field: FieldTables, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """H(x, y) over the last axis of coordinate arrays, broadcast elsewhere."""
    add, mul, q2 = field.add2.ravel(), field.mul2.ravel(), field.order2
    acc = np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]), dtype=np.int32)
    cy = field.conj.take(y)
    for i in range(4):
        acc = add.take(acc * q2 + mul.take(x[..., i] * q2 + cy[..., i]))
    return acc


class SurfaceModel:
    """Enumerated Hermitian surface with its generators.

    Points, classical ovoid and generators are built in the constructor, and
    every array is read-only afterwards (also once unpickled), so a model is
    safe to share across workers.  Incidence is two arrays: ``_gen_points``,
    the sorted points of each generator (``enumerate_generators``), and
    ``_gens_by_point``, the q + 1 generator ids through each point
    (``generators_of``).  Tangent sections are read from them as pencils
    (``pencil``, ``pencil_rows``).  ``_gens_by_point`` is stored in the
    type ``_id_dtype`` picks.
    """

    def __init__(self, field: FieldTables):
        self.field = field
        self.q = field.q
        self.q2 = field.order2
        self.gx_size = self.q**3 + self.q**2 + 1
        self._build_points()
        self._classical_ovoid = np.flatnonzero(self.coords[:, 3] == 0).astype(np.int32)
        self._build_generators()
        self._freeze()

    def _freeze(self) -> None:
        for arr in (self.coords, self.keys, self._classical_ovoid, self._gen_points, self._gens_by_point):
            arr.flags.writeable = False

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._freeze()  # unpickled arrays come back writeable

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

        ``_gens_by_point`` is one in-place sort of the int64 keys point * G + g
        over every entry of generator g, G the generator count.  The keys are
        unique, so the sort need not be stable.  Read as N rows of q + 1, row
        p minus p * G holds p's generator ids, ascending, when every point is
        on exactly q + 1 generators; otherwise some row holds a key of
        another point, and the difference leaves [0, G) (checked).
        """
        field, q, q2 = self.field, self.q, self.q2
        add, mul = field.add2.ravel().astype(np.intp), field.mul2.ravel()  # a * b is mul[a * q2 + b]
        off = np.flatnonzero(self.coords[:, 3])  # keyed by x_0, x_1, x_2 once scaled to x_3 = 1
        head = mul.take(field.inv.take(self.coords[off, 3:]) * q2 + self.coords[off, :3])
        table = np.full(q2**3, -1, dtype=np.int32)
        table[(head[:, 0] * q2 + head[:, 1]) * q2 + head[:, 2]] = off
        del off, head  # before the key loop, which sets the peak
        o = self.coords[self._classical_ovoid, :3]
        r, j = np.arange(len(o)), np.argmax(o != 0, axis=1)
        a, b = (j + 1) % 3, (j + 2) % 3
        w = np.zeros_like(o)
        w[r, a] = field.conj[o[r, b]]
        w[r, b] = np.argmax(field.add2 == 0, axis=1)[field.conj[o[r, a]]]  # minus conj(o_a)
        nu, lam = np.flatnonzero(field.norm == 1)[:, None], np.arange(q2)
        # one intp buffer takes each coordinate's add-table indices and then,
        # in place, the sums, so take converts and allocates no index array:
        # it reads each index before writing its slot.  Every index here is a
        # field element or a table key, in range by construction, so the
        # takes skip numpy's range check (mode="wrap"), which also lets the
        # add take write into idx unbuffered.  The int32 keys hold q^6 - 1
        # while q <= 35
        key = np.zeros((len(o), q + 1, q2), dtype=np.int32)
        idx = np.empty(key.shape, dtype=np.intp)
        for i in range(3):
            key *= q2
            np.add(
                mul.take(nu * q2 + w[:, i, None, None], mode="wrap") * q2,
                mul.take(lam * q2 + o[:, i, None, None], mode="wrap"),
                out=idx,
            )
            key += add.take(idx, out=idx, mode="wrap")
        idx[:] = key
        del key
        ids = table.take(idx, mode="wrap").reshape(-1, q2)
        del idx, table  # before the sorts
        if (ids < 0).any():
            raise ConfigurationError("a generated point is off the surface")
        lines = _sorted_lines(np.column_stack([np.repeat(self._classical_ovoid, q + 1), ids]))
        del ids  # before the key sort, as the sorted rows hold its points
        num_gens = len(lines)
        key = np.multiply(lines.ravel(), num_gens, dtype=np.int64)
        key.reshape(num_gens, q2 + 1)[:] += np.arange(num_gens)[:, None]
        key.sort()
        rows = key.reshape(-1, q + 1)
        rows -= np.arange(0, len(rows) * num_gens, num_gens, dtype=np.int64)[:, None]
        if not (len(rows) == self.num_points and key.min() >= 0 and key.max() < num_gens):
            raise ConfigurationError("a point is not on exactly q + 1 generators")
        self._gen_points = lines
        self._gens_by_point = key.astype(_id_dtype(num_gens)).reshape(self.num_points, q + 1)

    # -- point access --------------------------------------------------------

    def point_id(self, coords) -> int:
        """PointId of a (not necessarily normalized) surface point.

        ValueError unless coords are four elements of [0, q^2), KeyError off
        the surface.
        """
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
        """The q + 1 generator rows through pid, flat and unsorted, as intp ids.

        intp is numpy's native index type, so the callers' gathers and
        scatters on the row convert nothing.
        """
        rows = self._gen_points.take(self._gens_by_point[checked_id(self, pid)], axis=0)
        return rows.ravel().astype(np.intp)

    def generators_of(self, pids: np.ndarray) -> np.ndarray:
        """(len(pids), q + 1) matrix; row i holds the generators through pids[i].

        The generator ids are intp, numpy's native index type, whatever type
        the table stores them in (``_id_dtype``).  The ids are not checked;
        callers pass checked ids or ids read off the model.
        """
        return self._gens_by_point.take(pids, axis=0).astype(np.intp)

    def pencil_rows(self, pids: np.ndarray) -> np.ndarray:
        """(len(pids), gx_size + q) matrix; row i is ``pencil(pids[i])``.

        The ids are not checked; callers pass checked ids or ids read off the model.
        """
        members = self._gen_points.take(self._gens_by_point.take(pids, axis=0), axis=0)
        return members.reshape(len(members), self.gx_size + self.q)

    def tangent_rows(self, pids: np.ndarray) -> np.ndarray:
        """(len(pids), gx_size) id matrix; row i is the sorted section of pids[i].

        The point's copies in q of its generators become the sentinel N, so one
        sort of the pencil leaves the gx distinct ids in front (checked).  No
        caller in the package; the benchmark tracer wraps it by name.  The ids
        are read through ``checked_ids``: ValueError for one off the surface.
        """
        pids = checked_ids(self, pids)
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
        """Plane-section ovoid: surface points on the polar plane of CANONICAL_POLE.

        H(x, e_3) = x_3, so the plane is {x_3 = 0}.  Size q^3 + 1; meets every
        generator exactly once.
        """
        return self._classical_ovoid


def _id_dtype(count: int) -> np.dtype:
    """The narrowest signed type of int16 and int32 that holds every id in [0, count).

    For the G = (q^3 + 1)(q + 1) generator ids that is int16 while G <= 2^15,
    every supported q up to 13, and int32 from q = 16.  The relevance reads
    gather the generators of every uncovered point, and half the bytes is
    half the traffic.  The table never leaves this module in its own type:
    ``generators_of`` hands out intp ids.
    """
    return np.dtype(np.int16 if count <= np.iinfo(np.int16).max + 1 else np.int32)


def _sorted_lines(lines: np.ndarray) -> np.ndarray:
    """Rows sorted within and by their two least points; no two may share two points.

    Rows sort by the one key first * span + second, with every second point
    below span, so two rows with the same two least points end up next to
    each other.
    """
    lines = np.sort(lines, axis=1)
    span = np.int64(lines[:, 1].max()) + 1
    lines = lines[np.argsort(lines[:, 0] * span + lines[:, 1])]
    distinct = (lines[1:, :2] != lines[:-1, :2]).any(axis=1)
    if not ((np.diff(lines, axis=1) > 0).all() and distinct.all()):
        raise ConfigurationError("the generator rows are not distinct lines of distinct points")
    return lines


def enumerate_surface(field: FieldTables) -> SurfaceModel:
    """Enumerate the surface and its generators (no tangent sections) for a built field."""
    return SurfaceModel(field)


def enumerate_generators(model: SurfaceModel) -> np.ndarray:
    """Read-only (generators, q^2 + 1) id array; row g holds generator g's sorted points.

    Each generator is listed once, and rows are ordered by their two least points.
    """
    return model._gen_points


def checked_ids(model: SurfaceModel, points) -> np.ndarray:
    """The points as a 1-D integer id array; a 1-D signed integer ndarray is returned as it is.

    TypeError for an id that is a bool or not an integer, ValueError for an
    array that is not one-dimensional or an id outside [0, num_points).
    """
    ids = points  # an integer array takes the range check alone, no per-element pass
    if isinstance(ids, np.ndarray) and ids.ndim != 1:
        raise ValueError(f"point ids must be a one-dimensional array, got shape {ids.shape}")
    if not (isinstance(ids, np.ndarray) and ids.dtype.kind == "i"):
        try:
            ids = np.fromiter(map(_point_index, points), dtype=np.int64)
        except OverflowError:  # an id beyond int64 is off the surface too
            ids = None
    if ids is None or ids.size and not (0 <= ids.min() and ids.max() < model.num_points):
        raise ValueError(f"point ids must lie in [0, {model.num_points})")
    return ids


def _point_index(pid) -> int:
    """operator.index(pid), and TypeError for a bool, whatever numpy's bool offers."""
    if isinstance(pid, (bool, np.bool_)):
        raise TypeError(f"a point id must be an integer, not {type(pid).__name__}")
    return operator.index(pid)


def checked_id(model: SurfaceModel, pid) -> int:
    """pid as an int; ``checked_ids``' TypeError or ValueError for a bad id."""
    if type(pid) is not int:  # an exact int is its own index, and a bool is not one
        pid = _point_index(pid)
    if not 0 <= pid < model.num_points:
        checked_ids(model, [pid])  # raises its ValueError
    return pid


def _sorted_distinct(ids: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer id array, as ``np.unique(ids)`` returns them.

    One sort, then a value is kept when it differs from the one before it.
    ``np.unique`` in numpy 2.4 imports ``numpy.ma`` on its first call, 10-16
    ms and 1.3 MB of resident memory that every search process would carry.
    """
    ids = np.sort(ids, axis=None)
    keep = np.empty(ids.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def _generator_sums(model: SurfaceModel, pids: np.ndarray) -> np.ndarray:
    """How many of the pids lie on each generator, a repeated pid counted each time.

    One bincount of length G (the generator count) over each pid's q + 1
    generators.  The ids are not checked; callers pass checked ids or ids
    read off the model.
    """
    gens = model._gens_by_point.take(pids, axis=0)
    return np.bincount(gens.ravel(), minlength=len(model._gen_points))


def _summed_over_generators(model: SurfaceModel, values: np.ndarray, pids: np.ndarray) -> np.ndarray:
    """values, indexed by generator along axis 0, summed over each pid's q + 1 generators.

    Row i of the result (an element when values is 1-D) is the sum of the
    values of the generators through pids[i], in values' dtype, so int8 sums
    wrap.  The pids are read in blocks of RELEVANCE_BLOCK, each summed into
    its rows of one preallocated result.  A block's one take of its
    transposed (q + 1, block) generator matrix builds a slab of q + 1
    contiguous rows, summed along its first axis: two numpy calls where
    q + 1 takes added in place make 2q + 1.  On int16 and int8 values that
    is faster at every length measured; on int64 values a long id array
    loses a little, the slab being 8 bytes a cell, which is why the
    relevance counts are int16.  The blocks keep the transposed intp
    indices and the slab in cache when the ids run to 10^5 or 10^6, and
    bound the read's transient memory.

    The ids are not checked; callers pass checked ids or ids read off the
    model.  An id of N or more, or below -N, raises IndexError from the
    take of its generator row, and one in [-N, 0) reads point N + id.  The
    generator ids read off the table lie in [0, G) by construction (set-up
    checks it), so values is taken by them without numpy's range check
    (``mode="wrap"``); ValueError unless values has exactly G rows, as a
    shorter array would be read modulo its length.
    """
    num_gens = len(model._gen_points)
    if values.shape[0] != num_gens:
        raise ValueError(f"values hold {values.shape[0]} rows, not one for each of {num_gens} generators")
    out = np.empty((len(pids),) + values.shape[1:], dtype=values.dtype)
    for lo in range(0, len(pids), RELEVANCE_BLOCK):
        block = slice(lo, lo + RELEVANCE_BLOCK)
        gens = model._gens_by_point.take(pids[block], axis=0).T.astype(np.intp, order="C")
        values.take(gens, axis=0, mode="wrap").sum(axis=0, dtype=values.dtype, out=out[block])
    return out


def is_cap(model: SurfaceModel, points) -> bool:
    """True iff every generator holds at most one of the points (a repeated id counts twice)."""
    return bool((_generator_sums(model, checked_ids(model, points)) <= 1).all())


def is_ovoid(model: SurfaceModel, points) -> bool:
    """True iff every generator holds exactly one of the points."""
    return bool((_generator_sums(model, checked_ids(model, points)) == 1).all())
