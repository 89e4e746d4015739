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

A member's weight is an exact Fraction (identity checks); the search
heuristics score the weight a candidate would have after joining as a float
(comparisons there use a 1e-9 tolerance).
"""

from __future__ import annotations

from collections import Counter
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

    def remove_point(self, x: int) -> None:
        x = int(x)
        if x not in self.members:
            raise MemberNotFoundError(f"point {x} is not a cap member")
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
        return self._relevance()[np.asarray(ids, dtype=np.intp)]

    def removal_relevance(self, x: int) -> int:
        """relevance(x) with respect to the cap minus x; x must be a member."""
        x = int(x)
        if x not in self.members:
            raise MemberNotFoundError(f"point {x} is not a cap member")
        return int(self.removal_relevance_many([x])[0])

    def removal_relevance_many(self, ids: np.ndarray) -> np.ndarray:
        """removal_relevance of each of ids, which must all be members."""
        rows = self.model.pencil_rows(np.asarray(ids))  # holds each member q + 1 times, at 1
        return np.count_nonzero(self.cmult.take(rows) == 1, axis=1) - self.model.q

    def coverage_mult(self, y: int) -> int:
        return int(self.cmult[checked_id(self.model, y)])

    def coverage_intersect(self, x: int) -> int:
        x = checked_id(self.model, x)
        covered = int(np.count_nonzero(self.cmult[self.model.pencil(x)] > 0))
        return covered - self.model.q if self.cmult[x] else covered

    def weight(self, x: int) -> Fraction:
        """Exact sum over tangent(x) of reciprocal coverage multiplicities."""
        x = int(x)
        if x not in self.members:
            raise MemberNotFoundError(f"weight is defined for members only, not {x}")
        counts = Counter(self.cmult[self.model.pencil(x)].tolist())
        counts[int(self.cmult[x])] -= self.model.q  # x is in its pencil q + 1 times
        return sum((Fraction(n, m) for m, n in counts.items()), Fraction(0))

    def weight_after_add_many(self, ids: np.ndarray) -> np.ndarray:
        """Weight each of the uncovered ids would have right after joining the cap."""
        rows = self.model.pencil_rows(np.asarray(ids))  # each id's q extra copies add q
        return np.sum(1.0 / (self.cmult.take(rows) + 1.0), axis=1) - self.model.q

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
