"""Span recorder that wraps hermcap's public functions from outside the package.

Every call to a wrapped function is a span with a name, a start, an end and a
parent (the span open when it began).  Spans are folded into per-name totals
as they close, so a traced sweep of a few hundred thousand calls needs no
span log: a span's self time is its duration minus the durations of the spans
it caused, and the totals keep exact call counts plus one item count per name
(rows gathered, points scored, iterations, successes).

The patched names are the class methods of ``CapState`` and
``SurfaceModel.tangent_rows``, the names ``harness`` imports from ``search``
(``run_strategy``, ``sample_subcap``), ``harness.derive_seed`` and
``search.backtrack_enlarge``.  :func:`traced` restores every original on
exit, so the package itself is never edited.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from hermcap import capstate, harness, hermitian, search


def _rows(args, result):
    return len(result)


def _points(args, result):
    return len(args[1])


def _iterations(args, result):
    return result.iterations


def _enlarged(args, result):
    # backtrack_enlarge(model, protected_seed, complete_cap, config)
    return int(len(result.final_cap) > len(args[2]))


# (owner, attribute, span name, item counter or None)
SPANS = [
    (harness, "derive_seed", "harness.derive_seed", None),
    (harness, "sample_subcap", "harness.sample_subcap", None),
    (harness, "run_strategy", "search.run_strategy", _iterations),
    (search, "backtrack_enlarge", "search.backtrack_enlarge", _enlarged),
    (capstate.CapState, "from_ids", "capstate.from_ids", None),
    (capstate.CapState, "add_point", "capstate.add_point", None),
    (capstate.CapState, "remove_point", "capstate.remove_point", None),
    (capstate.CapState, "relevance_many", "capstate.relevance_many", _points),
    (capstate.CapState, "removal_relevance_many", "capstate.removal_relevance_many", _points),
    (capstate.CapState, "weight_after_add_many", "capstate.weight_after_add_many", _points),
    (capstate.CapState, "uncovered", "capstate.uncovered", None),
    (capstate.CapState, "is_complete", "capstate.is_complete", None),
    (capstate.CapState, "members_sorted", "capstate.members_sorted", None),
    (hermitian.SurfaceModel, "tangent_rows", "hermitian.tangent_rows", _rows),
]


class Recorder:
    """Call counts, item counts and self seconds per span name."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._open: list[list[float]] = []  # child seconds of each open span

    def wrap(self, name: str, fn, count=None):
        open_spans, calls, items, self_s = self._open, self.calls, self.items, self.self_s

        def wrapper(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += duration
                calls[name] += 1
                self_s[name] += duration - children[0]
            if count is not None:
                items[name] += count(args, result)
            return result

        return wrapper

    def layer_self_s(self, layer: str) -> float:
        """Self seconds of every span whose name starts with ``layer.``."""
        return sum(s for name, s in self.self_s.items() if name.startswith(layer + "."))


@contextmanager
def traced(recorder: Recorder):
    """Wrap every name in :data:`SPANS` for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, count in SPANS:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                patched = classmethod(recorder.wrap(name, original.__func__, count))
            else:
                patched = recorder.wrap(name, original, count)
            saved.append((owner, attr, original))
            setattr(owner, attr, patched)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
