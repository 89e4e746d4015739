"""The benchmark workloads' frozen first sweeps, checked outside the benchmark.

Each workload in ``bench/workloads.py`` runs its first sweep at the default
seed with jobs = 1, and the SHA-256 of its runlog and CSV histogram bytes
must equal the one in ``bench/digests.json``: a change to a real workload's
output shows here, not first in a timed benchmark pass.  Nothing under
``bench/`` is written.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))  # workloads imports tracer beside it

import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_first_sweep_matches_the_frozen_digest(name):
    w = workloads.WORKLOADS[name]
    model, _, _ = workloads.set_up(w.q)
    sweep = workloads.run_sweep(model, w, next(workloads.masters(workloads.DEFAULT_SEED)), 1)
    assert sweep.digest == workloads.frozen_digests()[name]
