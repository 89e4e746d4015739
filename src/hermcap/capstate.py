"""Incrementally maintained cap with per-point coverage multiplicities.

``cmult[y]`` counts the members whose tangent section contains y.  A point is
covered when its multiplicity is positive; the cap is complete when every
surface point is covered.  Adding or removing a member touches exactly the
q^3 + q^2 + 1 entries of its tangent section, so both operations and all the
derived functionals (relevance, coverage, weight) run off the same counters:

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
is ``bincount`` of the uncovered points' tangent rows.  A mutation therefore
only has to visit the rows of the points whose coverage it flips: adding a
member subtracts the bincount of the rows of the points it newly covers,
removing one adds the bincount of the rows of the points it newly uncovers.

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
from .hermitian import SurfaceModel


class CapState:
    __slots__ = ("model", "members", "cmult", "_rel")

    def __init__(self, model: SurfaceModel):
        self.model = model
        self.members: set[int] = set()
        self.cmult = np.zeros(model.num_points, dtype=np.int32)
        self._rel: np.ndarray | None = None  # relevance of every point, once read

    @classmethod
    def from_ids(cls, model: SurfaceModel, ids) -> "CapState":
        """Seed a state from a point set; raises CapViolationError if not a cap."""
        cap = cls(model)
        for x in sorted({int(i) for i in ids}):
            cap.add_point(x)
        return cap

    def __len__(self) -> int:
        return len(self.members)

    def members_sorted(self) -> np.ndarray:
        return np.array(sorted(self.members), dtype=np.int32)

    # -- mutation ------------------------------------------------------------

    def add_point(self, x: int) -> None:
        """Add an uncovered point; adding a covered one is a cap violation."""
        x = int(x)
        if self.cmult[x] != 0:
            raise CapViolationError(f"point {x} is covered; adding it breaks the cap")
        row = self.model.tangent_set(x)
        vals = self.cmult[row]
        if self._rel is not None:
            self._rel -= self._row_counts(row[vals == 0])
        self.cmult[row] = vals + 1
        self.members.add(x)

    def remove_point(self, x: int) -> None:
        x = int(x)
        if x not in self.members:
            raise MemberNotFoundError(f"point {x} is not a cap member")
        row = self.model.tangent_set(x)
        vals = self.cmult[row] - 1
        self.cmult[row] = vals
        if self._rel is not None:
            self._rel += self._row_counts(row[vals == 0])
        self.members.remove(x)

    # -- relevance vector ----------------------------------------------------

    def _row_counts(self, ids: np.ndarray) -> np.ndarray:
        """How many of the tangent sections of ids contain each point."""
        return np.bincount(self.model.tangent_rows(ids).ravel(), minlength=self.model.num_points)

    def _relevance(self) -> np.ndarray:
        if self._rel is None:
            uncovered = np.flatnonzero(self.cmult == 0)
            if 2 * len(uncovered) <= self.model.num_points:
                self._rel = self._row_counts(uncovered)
            else:
                covered = np.flatnonzero(self.cmult)
                self._rel = self.model.gx_size - self._row_counts(covered)
        return self._rel

    # -- queries -------------------------------------------------------------

    def relevance(self, x: int) -> int:
        """Number of points newly covered if x joined the cap (0 for members)."""
        return int(self._relevance()[int(x)])

    def relevance_many(self, ids: np.ndarray) -> np.ndarray:
        return self._relevance()[np.asarray(ids, dtype=np.intp)]

    def removal_relevance(self, x: int) -> int:
        """relevance(x) with respect to the cap minus x; x must be a member."""
        x = int(x)
        if x not in self.members:
            raise MemberNotFoundError(f"point {x} is not a cap member")
        return int(np.count_nonzero(self.cmult[self.model.tangent_set(x)] == 1))

    def removal_relevance_many(self, ids: np.ndarray) -> np.ndarray:
        rows = self.model.tangent_rows(np.asarray(ids))
        return np.count_nonzero(self.cmult[rows] == 1, axis=1)

    def coverage_mult(self, y: int) -> int:
        return int(self.cmult[int(y)])

    def coverage_intersect(self, x: int) -> int:
        return int(np.count_nonzero(self.cmult[self.model.tangent_set(int(x))] > 0))

    def weight(self, x: int) -> Fraction:
        """Exact sum over tangent(x) of reciprocal coverage multiplicities."""
        x = int(x)
        if x not in self.members:
            raise MemberNotFoundError(f"weight is defined for members only, not {x}")
        counts = Counter(self.cmult[self.model.tangent_set(x)].tolist())
        return sum((Fraction(n, m) for m, n in counts.items()), Fraction(0))

    def weight_after_add_many(self, ids: np.ndarray) -> np.ndarray:
        """Weight each of ids would have right after joining the cap."""
        rows = self.model.tangent_rows(np.asarray(ids))
        return np.sum(1.0 / (self.cmult[rows] + 1.0), axis=1)

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
