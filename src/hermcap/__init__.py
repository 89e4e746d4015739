"""Caps and ovoids of the Hermitian surface of PG(3, q^2).

Construction of the surface, incremental cap state with relevance, coverage
and weight functionals, four completion/enlargement strategies, and a seeded
experiment harness for spectrum statistics.
"""

from .capstate import CapState
from .galois import FieldSpec, FieldTables, build_field
from .harness import (
    GapReport,
    Histogram,
    RunRecord,
    SeedSpec,
    derive_seed,
    emit_histogram,
    emit_runlog,
    gap_check,
    make_histogram,
    run_spectrum,
)
from .hermitian import (
    CANONICAL_POLE,
    SurfaceModel,
    enumerate_generators,
    enumerate_surface,
    hermitian_inner,
    is_cap,
    is_ovoid,
    normalize_point,
)
from .rng import SplitMix64, mix64
from .search import (
    SearchConfig,
    SearchOutcome,
    StrategyKind,
    TieMode,
    backtrack_enlarge,
    run_strategy,
    sample_subcap,
    thin_ovoid,
)

__version__ = "0.1.0"

__all__ = [
    "CANONICAL_POLE",
    "CapState",
    "FieldSpec",
    "FieldTables",
    "GapReport",
    "Histogram",
    "RunRecord",
    "SearchConfig",
    "SearchOutcome",
    "SeedSpec",
    "SplitMix64",
    "StrategyKind",
    "SurfaceModel",
    "TieMode",
    "backtrack_enlarge",
    "build_field",
    "derive_seed",
    "emit_histogram",
    "emit_runlog",
    "enumerate_generators",
    "enumerate_surface",
    "gap_check",
    "hermitian_inner",
    "is_cap",
    "is_ovoid",
    "make_histogram",
    "mix64",
    "normalize_point",
    "run_spectrum",
    "run_strategy",
    "sample_subcap",
    "thin_ovoid",
]
