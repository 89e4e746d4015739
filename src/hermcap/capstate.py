"""Incrementally maintained cap with per-point coverage multiplicities.

``cmult[y]`` counts the members whose tangent section contains y.  A point is
covered when its multiplicity is positive; the cap is complete when every
surface point is covered.  Adding or removing a member reads its pencil
(``SurfaceModel.pencil``): every other point of its tangent section once and
the member itself q + 1 times; the functionals read pencils too and take the
q extra copies off by arithmetic.  ``from_ids`` is the batch formula, one
bincount of the members' pencils, and ``add_point``/``remove_point`` are its
increments.  It first tests the cap on the generators, as ``is_cap`` does:
two members on one generator are conjugate, and the first member on such a
generator is named in the CapViolationError.

On a cap every generator holds at most one member, and a point lies on q + 1
generators, so no multiplicity exceeds q + 1 <= 17: ``cmult`` is one byte per
point (uint8), and ``add_point``'s increments and ``remove_point``'s
decrements stay within [0, q + 1].  The functionals are

    relevance(x)          #{y in tangent(x) : cmult[y] == 0}
    coverage_mult(y)      cmult[y]
    coverage_intersect(x) #{y in tangent(x) : cmult[y] > 0}
    weight(x)             sum over tangent(x) of 1 / cmult[y]   (member only)

relevance + coverage_intersect is identically the tangent-section size.  The
two coverage notions differ: the multiplicity drives the weight, while the
intersection count complements relevance.

Relevance is read from per-generator counts kept next to the counters, one
per generator g (G = (q^3 + 1)(q + 1) of them), with the invariant

    _unc[g] == #{y on g : cmult[y] == 0}    for every generator g.

H(3, q^2) is a generalized quadrangle: the tangent section of x is the union
of the q + 1 generators through x, and any two of them meet only in x.  So
summing _unc over x's generators counts every uncovered point of tangent(x)
once, except x itself, counted q + 1 times when it is uncovered:

    relevance(x) == sum of _unc[g] over g through x  -  q * (cmult[x] == 0),

exact for members, covered and uncovered points alike.  Both reads sum
through ``hermitian._summed_over_generators``: one transposed
``generators_of`` gather and q + 1 row takes of _unc, added up in place.
``relevance_many`` checks its ids and takes q off those it finds uncovered,
and ``relevance`` reads through it; ``uncovered_relevance`` is the search's
read, and its ids are uncovered by precondition (the array
``uncovered()`` returns, or a filtered copy of it), so it checks nothing and
takes q off every one as a scalar.  A covered id passed to it reads q too
low.

A mutation only has to update the generators of the points whose coverage
it flips: adding a member subtracts the per-generator counts of the points
it newly covers, removing one adds those of the points it newly uncovers.
Those points are the zeros of the member's pencil (before the increment, or
after the decrement), which hold the member itself q + 1 times, once per
generator through it; ``hermitian._pencil_sums`` bincounts their generators
and puts the q surplus copies back.  A step thus reads one pencil (gx + q
ids) and bincounts at most (q + 1)(gx + q) generator ids into G counts, and
a read gathers each point's q + 1 generators and adds q + 1 takes of _unc;
nothing a step does is of length N.

The counts are lazy.  They are built on the first relevance read, as
``_generator_sums(uncovered())``, and until then ``add_point`` and
``remove_point`` only update the counters, so states that never read
relevance pay nothing for it.

Weights are exact Fractions from one kernel, ``_weights``: a member's own, and
the weight a candidate would have right after joining, which backtracking
minimizes, ties broken by equality.  A term is 1/m with m <= q + 2, so every
weight is an integer over lcm(1, ..., q + 2).  Ids are read through
``checked_id``/``checked_ids``, and member ids through ``_members`` after that;
a candidate for joining must be uncovered (CapViolationError otherwise).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import CapCompleteError, CapViolationError, MemberNotFoundError
from .hermitian import SurfaceModel, checked_id, checked_ids
from .hermitian import _generator_sums, _pencil_sums, _sorted_distinct, _summed_over_generators


def _covered(x) -> CapViolationError:
    return CapViolationError(f"point {x} is covered; adding it breaks the cap")


class CapState:
    __slots__ = ("model", "members", "cmult", "_unc")

    def __init__(self, model: SurfaceModel):
        self.model = model
        self.members: set[int] = set()
        self.cmult = np.zeros(model.num_points, dtype=np.uint8)
        self._unc: np.ndarray | None = None  # uncovered points on each generator, once read

    @classmethod
    def from_ids(cls, model: SurfaceModel, ids) -> "CapState":
        """Seed a state from a point set, repeats counted once.

        Raises CapViolationError if it is not a cap, ValueError for an id off the surface.
        """
        members = _sorted_distinct(checked_ids(model, ids))
        shared = _generator_sums(model, members) > 1
        if shared.any():  # name the first member conjugate to another one
            raise _covered(members[shared.take(model.generators_of(members)).any(axis=1)][0])
        counts = np.bincount(model.pencil_rows(members).ravel(), minlength=model.num_points)
        counts[members] -= model.q  # a member is in its own pencil q + 1 times
        cap = cls(model)
        cap.cmult[:] = counts
        cap.members = set(members.tolist())
        return cap

    def copy(self) -> "CapState":
        """A state with this one's members and counters; it rebuilds relevance on its first read."""
        cap = CapState(self.model)
        cap.cmult[:] = self.cmult
        cap.members = set(self.members)
        return cap

    def __len__(self) -> int:
        return len(self.members)

    def members_sorted(self) -> np.ndarray:
        return np.array(sorted(self.members), dtype=np.int32)

    # -- mutation ------------------------------------------------------------

    def add_point(self, x: int) -> None:
        """Add an uncovered point: CapViolationError if it is covered, ValueError if off the surface."""
        x = checked_id(self.model, x)
        if self.cmult[x] != 0:
            raise _covered(x)
        row = self.model.pencil(x)
        vals = self.cmult.take(row)
        if self._unc is not None:
            self._unc -= _pencil_sums(self.model, x, row[vals == 0])
        self.cmult[row] = vals + 1
        self.members.add(x)

    def _members(self, ids) -> np.ndarray:
        """checked_ids(ids), or MemberNotFoundError for the first non-member."""
        ids = checked_ids(self.model, ids)
        listed = ids.tolist()
        if not self.members.issuperset(listed):
            x = next(x for x in listed if x not in self.members)
            raise MemberNotFoundError(f"point {x} is not a cap member")
        return ids

    def remove_point(self, x: int) -> None:
        x = int(self._members([x])[0])
        row = self.model.pencil(x)
        vals = self.cmult.take(row) - 1
        self.cmult[row] = vals
        if self._unc is not None:
            self._unc += _pencil_sums(self.model, x, row[vals == 0])
        self.members.remove(x)

    # -- relevance -----------------------------------------------------------

    def _generator_relevance(self, ids: np.ndarray) -> np.ndarray:
        """_unc summed over each of the ids' q + 1 generators, as int64; built on first read.

        Uncovered ids still count themselves q + 1 times.
        """
        if self._unc is None:
            self._unc = _generator_sums(self.model, self.uncovered())
        return _summed_over_generators(self.model, self._unc, ids)

    # -- queries -------------------------------------------------------------

    def relevance(self, x: int) -> int:
        """Number of points newly covered if x joined the cap (0 for members)."""
        return int(self.relevance_many([x])[0])

    def relevance_many(self, ids: np.ndarray) -> np.ndarray:
        """relevance of each of ids, as int64; ValueError for an id off the surface."""
        ids = checked_ids(self.model, ids)
        rel = self._generator_relevance(ids)
        rel[self.cmult.take(ids) == 0] -= self.model.q
        return rel

    def uncovered_relevance(self, m: np.ndarray) -> np.ndarray:
        """relevance_many(m) for uncovered ids m, as int64.

        Every id of m must be uncovered, as in ``uncovered()`` or a filtered
        copy of it.  This is not checked, as for ``generators_of``: a covered
        id reads q too low, and an id off the surface is not caught.
        """
        rel = self._generator_relevance(m)
        rel -= self.model.q
        return rel

    def removal_relevance(self, x: int) -> int:
        """relevance(x) with respect to the cap minus x; x must be a member."""
        return int(self.removal_relevance_many([x])[0])

    def removal_relevance_many(self, ids: np.ndarray) -> np.ndarray:
        """removal_relevance of each of ids; MemberNotFoundError unless all are members."""
        rows = self.model.pencil_rows(self._members(ids))  # each member q + 1 times, at 1
        return np.count_nonzero(self.cmult.take(rows) == 1, axis=1) - self.model.q

    def coverage_mult(self, y: int) -> int:
        return int(self.cmult[checked_id(self.model, y)])

    def coverage_intersect(self, x: int) -> int:
        x = checked_id(self.model, x)
        covered = int(np.count_nonzero(self.cmult[self.model.pencil(x)] > 0))
        return covered - self.model.q if self.cmult[x] else covered

    def weight(self, x: int) -> Fraction:
        """Exact sum over tangent(x) of reciprocal coverage multiplicities; x a member."""
        return self._weights(self._members([x]), 0)[0]

    def weight_after_add_many(self, ids: np.ndarray) -> np.ndarray:
        """Exact weight each of ids would have right after joining the cap.

        CapViolationError unless all of ids are uncovered.
        """
        ids = checked_ids(self.model, ids)
        covered = ids[self.cmult.take(ids) != 0]
        if covered.size:
            raise _covered(covered[0])
        return self._weights(ids, 1)

    def _weights(self, ids, added: int) -> np.ndarray:
        """Sums over tangent(x) of 1 / (cmult[y] + added) for x in ids, as Fractions.

        Each x is in its pencil q + 1 times at 1 (a member, or a candidate once added).
        """
        big = math.lcm(*range(1, self.model.q + 3))
        mult = self.cmult.take(self.model.pencil_rows(ids)).astype(np.int64) + added
        nums = (big // mult).sum(axis=1) - self.model.q * big  # x's q extra copies
        return np.array([Fraction(int(n), big) for n in nums], dtype=object)

    def uncovered(self) -> np.ndarray:
        """The sorted uncovered ids as intp, numpy's native index type."""
        return np.flatnonzero(self.cmult == 0)

    def is_complete(self) -> bool:
        return bool(self.cmult.all())

    def r_extrema(self) -> tuple[int, int]:
        """(min, max) relevance over uncovered points; error when complete."""
        m = self.uncovered()
        if len(m) == 0:
            raise CapCompleteError("cap is complete; no uncovered points")
        rel = self.uncovered_relevance(m)
        return int(rel.min()), int(rel.max())
