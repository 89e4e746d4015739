import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hermcap

# __init__.py re-exports the names it imports (test_package_exports_what_it_imports),
# so it is not checked
INIT = Path(hermcap.__file__)
MODULES = sorted(p for p in INIT.parent.glob("*.py") if p != INIT)
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def imported_names(tree: ast.AST) -> list[str]:
    """Names a module binds by import; ``from __future__`` imports aside."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    return imported


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; ``from __future__`` imports aside."""
    tree = ast.parse(source)
    names = (n for n in ast.walk(tree) if isinstance(n, ast.Name))
    read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
    return [name for name in imported_names(tree) if name not in read]


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys as system\nfrom json import dumps, loads\nprint(os, loads)\n"
    assert unused_imports(source) == ["system", "dumps"]


def test_package_exports_what_it_imports():
    assert hermcap.__all__ == sorted(set(imported_names(ast.parse(INIT.read_text()))))


@pytest.mark.parametrize(
    "path",
    [pytest.param(p, id=p.name) for p in MODULES]
    + [pytest.param(p, id=f"tests/{p.name}") for p in TEST_MODULES],
)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def nested_package_imports(source: str) -> list[str]:
    """Package modules imported inside a function body rather than at module level."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "hermcap"
            ):
                found.append("." * node.level + (node.module or ""))
            elif isinstance(node, ast.Import):
                found += [a.name for a in node.names if a.name.split(".")[0] == "hermcap"]
    return found


def test_the_check_sees_a_nested_package_import():
    source = (
        "from .rng import mix64\n"
        "def f():\n    from .capfile import load_cap_ids\n    import json\n"
        "def g():\n    from hermcap.search import run_strategy\n    import hermcap.cli\n"
    )
    assert nested_package_imports(source) == [".capfile", "hermcap.search", "hermcap.cli"]


@pytest.mark.parametrize(
    "path", sorted(Path(hermcap.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_module_imports_the_package_at_module_level(path):
    assert nested_package_imports(path.read_text()) == []


_SEARCH_WITHOUT_MASKED_ARRAYS = """
import sys
import numpy
if "numpy.ma" in sys.modules:
    raise SystemExit(77)  # numpy 1.x imports it with numpy itself
from hermcap import (
    CapState, FieldSpec, SearchConfig, SeedSpec, SplitMix64, StrategyKind, build_field,
    enumerate_surface, run_spectrum, run_strategy, sample_subcap, thin_ovoid,
)
from hermcap import search

model = enumerate_surface(build_field(FieldSpec(3, 1)))
ov = model.classical_ovoid_ids()
CapState.from_ids(model, [ov[0], ov[3], ov[0], ov[3]])
seed = sample_subcap(ov, 5, SplitMix64(1))
for strategy in StrategyKind:
    for ids in ([], seed):
        run_strategy(model, ids, SearchConfig(strategy=strategy, rng_seed=1))
# the q = 4 state of test_forward_fallback_when_a_point_off_the_band_ties,
# whose candidate 441 the forward scorer counts by its exact fallback
model4 = enumerate_surface(build_field(FieldSpec(2, 2)))
cap = CapState(model4)
for x in [973, 446, 788, 461, 952, 558, 407, 790, 635, 727, 320, 207, 139, 941, 876, 432, 749]:
    cap.add_point(x)
m = cap.uncovered()
search._forward_scores(cap, m, cap.relevance_many(m))
thin_ovoid(model, ov, SplitMix64(2))
run_spectrum(model, SeedSpec.subovoid(5), StrategyKind.FORWARD, 3, 1, jobs=1)
assert "numpy.ma" not in sys.modules, "a search run imported numpy.ma"
"""


def run_in_a_fresh_child(source: str) -> subprocess.CompletedProcess:
    """Run source in a new interpreter that imports this checkout's package."""
    src = str(Path(hermcap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def test_search_runs_do_not_import_masked_arrays():
    # np.unique imports numpy.ma on its first call in numpy 2.4, about 1.3 MB
    # of resident memory in every run process; a fresh child starts without it
    proc = run_in_a_fresh_child(_SEARCH_WITHOUT_MASKED_ARRAYS)
    if proc.returncode == 77:
        pytest.skip("this numpy imports numpy.ma on import")
    assert proc.returncode == 0, proc.stderr


_SERIAL_SWEEP_WITHOUT_MULTIPROCESSING = """
import sys
import numpy
if "multiprocessing" in sys.modules:
    raise SystemExit(77)
from hermcap import FieldSpec, SeedSpec, StrategyKind, build_field, enumerate_surface, run_spectrum

model = enumerate_surface(build_field(FieldSpec(3, 1)))
for strategy in StrategyKind:
    run_spectrum(model, SeedSpec.subovoid(5), strategy, 3, 1, jobs=1)
assert "multiprocessing" not in sys.modules, "a jobs=1 sweep imported multiprocessing"
"""


def test_serial_sweeps_do_not_import_multiprocessing():
    # only a pooled sweep needs it, and it adds about 0.5 MB of resident memory
    proc = run_in_a_fresh_child(_SERIAL_SWEEP_WITHOUT_MULTIPROCESSING)
    if proc.returncode == 77:
        pytest.skip("this numpy imports multiprocessing on import")
    assert proc.returncode == 0, proc.stderr
