"""Incrementally maintained cap with per-point coverage multiplicities.

``cmult[y]`` counts the members whose tangent section contains y.  A point is
covered when its multiplicity is positive; the cap is complete when every
surface point is covered.  Adding or removing a member reads its pencil
(``SurfaceModel.pencil``): every other point of its tangent section once and
the member itself q + 1 times; the functionals read pencils too and take the
q extra copies off by arithmetic.  ``from_ids`` is the batch formula, cmult =
the members' ``section_counts``, and ``add_point``/``remove_point`` are its
increments.  A member's multiplicity is 1 unless another member is conjugate
to it, which is how ``from_ids`` rejects a non-cap.  The functionals are

    relevance(x)          #{y in tangent(x) : cmult[y] == 0}
    coverage_mult(y)      cmult[y]
    coverage_intersect(x) #{y in tangent(x) : cmult[y] > 0}
    weight(x)             sum over tangent(x) of 1 / cmult[y]   (member only)

relevance + coverage_intersect is identically the tangent-section size.  The
two coverage notions differ: the multiplicity drives the weight, while the
intersection count complements relevance.

Relevance is read from a vector kept next to the counters, with the invariant

    _rel[x] == #{y in tangent(x) : cmult[y] == 0}    for every point x.

Conjugacy is symmetric (x in tangent(y) exactly when y in tangent(x)), so
_rel[x] also counts the uncovered points whose tangent section holds x, which
is the ``section_counts`` of the uncovered points.  A mutation therefore only
has to visit the pencils of the points whose coverage it flips: adding a
member subtracts the section counts of the points it newly covers, removing
one adds the section counts of the points it newly uncovers.

The vector is lazy.  It is built on the first relevance read, from whichever
of the covered and uncovered sets is smaller (free on an empty cap), and
until then ``add_point`` and ``remove_point`` only update the counters, so
states that never read relevance pay nothing for it.

Weights are exact Fractions from one kernel, ``_weights``: a member's own, and
the weight a candidate would have right after joining, which backtracking
minimizes, ties broken by equality.  A term is 1/m with m <= q + 2, so every
weight is an integer over lcm(1, ..., q + 2).  Ids are read through
``checked_id``/``checked_ids``, and member ids through ``_member`` after that.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import CapCompleteError, CapViolationError, MemberNotFoundError
from .hermitian import SurfaceModel, checked_id, checked_ids


class CapState:
    __slots__ = ("model", "members", "cmult", "_rel")

    def __init__(self, model: SurfaceModel):
        self.model = model
        self.members: set[int] = set()
        self.cmult = np.zeros(model.num_points, dtype=np.int32)
        self._rel: np.ndarray | None = None  # relevance of every point, once read

    @classmethod
    def from_ids(cls, model: SurfaceModel, ids) -> "CapState":
        """Seed a state from a point set, repeats counted once.

        Raises CapViolationError if it is not a cap, ValueError for an id off the surface.
        """
        members = np.unique(checked_ids(model, ids))
        cap = cls(model)
        cap.cmult[:] = model.section_counts(members)
        covered = members[cap.cmult[members] != 1]
        if covered.size:
            raise CapViolationError(f"point {covered[0]} is covered; adding it breaks the cap")
        cap.members = set(members.tolist())
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
            raise CapViolationError(f"point {x} is covered; adding it breaks the cap")
        row = self.model.pencil(x)
        vals = self.cmult.take(row)
        if self._rel is not None:
            new = row[vals == 0]  # holds x q + 1 times; section_counts wants it once
            self._rel -= self.model.section_counts(np.append(new[new != x], x))
        self.cmult[row] = vals + 1
        self.members.add(x)

    def _member(self, x) -> int:
        """x as an int; checked_id's errors, or MemberNotFoundError for a non-member."""
        x = checked_id(self.model, x)
        if x not in self.members:
            raise MemberNotFoundError(f"point {x} is not a cap member")
        return x

    def remove_point(self, x: int) -> None:
        x = self._member(x)
        row = self.model.pencil(x)
        vals = self.cmult.take(row) - 1
        self.cmult[row] = vals
        if self._rel is not None:
            new = row[vals == 0]
            self._rel += self.model.section_counts(np.append(new[new != x], x))
        self.members.remove(x)

    # -- relevance vector ----------------------------------------------------

    def _relevance(self) -> np.ndarray:
        if self._rel is None:
            uncovered = np.flatnonzero(self.cmult == 0)
            if 2 * len(uncovered) <= self.model.num_points:
                self._rel = self.model.section_counts(uncovered)
            else:
                covered = np.flatnonzero(self.cmult)
                self._rel = self.model.gx_size - self.model.section_counts(covered)
        return self._rel

    # -- queries -------------------------------------------------------------

    def relevance(self, x: int) -> int:
        """Number of points newly covered if x joined the cap (0 for members)."""
        return int(self._relevance()[checked_id(self.model, x)])

    def relevance_many(self, ids: np.ndarray) -> np.ndarray:
        return self._relevance()[checked_ids(self.model, ids)]

    def removal_relevance(self, x: int) -> int:
        """relevance(x) with respect to the cap minus x; x must be a member."""
        return int(self.removal_relevance_many([self._member(x)])[0])

    def removal_relevance_many(self, ids: np.ndarray) -> np.ndarray:
        """removal_relevance of each of ids, which must all be members."""
        rows = self.model.pencil_rows(checked_ids(self.model, ids))  # each member q + 1 times, at 1
        return np.count_nonzero(self.cmult.take(rows) == 1, axis=1) - self.model.q

    def coverage_mult(self, y: int) -> int:
        return int(self.cmult[checked_id(self.model, y)])

    def coverage_intersect(self, x: int) -> int:
        x = checked_id(self.model, x)
        covered = int(np.count_nonzero(self.cmult[self.model.pencil(x)] > 0))
        return covered - self.model.q if self.cmult[x] else covered

    def weight(self, x: int) -> Fraction:
        """Exact sum over tangent(x) of reciprocal coverage multiplicities; x a member."""
        return self._weights([self._member(x)], 0)[0]

    def weight_after_add_many(self, ids: np.ndarray) -> np.ndarray:
        """Exact weight each of the uncovered ids would have right after joining the cap."""
        return self._weights(checked_ids(self.model, ids), 1)

    def _weights(self, ids, added: int) -> np.ndarray:
        """Sums over tangent(x) of 1 / (cmult[y] + added) for x in ids, as Fractions.

        Each x is in its pencil q + 1 times at 1 (a member, or a candidate once added).
        """
        big = math.lcm(*range(1, self.model.q + 3))
        mult = self.cmult.take(self.model.pencil_rows(ids)).astype(np.int64) + added
        nums = (big // mult).sum(axis=1) - self.model.q * big  # x's q extra copies
        return np.array([Fraction(int(n), big) for n in nums], dtype=object)

    def uncovered(self) -> np.ndarray:
        return np.flatnonzero(self.cmult == 0).astype(np.int32)

    def is_complete(self) -> bool:
        return bool(self.cmult.all())

    def r_extrema(self) -> tuple[int, int]:
        """(min, max) relevance over uncovered points; error when complete."""
        m = self.uncovered()
        if len(m) == 0:
            raise CapCompleteError("cap is complete; no uncovered points")
        rel = self.relevance_many(m)
        return int(rel.min()), int(rel.max())
