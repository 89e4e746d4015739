"""Run one hermcap benchmark workload and print its result as JSON.

    python3 bench/run.py --workload minrel-q7 --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the package is imported from the
``src/`` directory beside this one, and the run fails with exit code 2 when
that directory is missing.  The last line of standard output is the result
object (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``); the line before it records the environment.
"""

import os

# Pin BLAS threads before numpy is imported: every forked pool worker would
# otherwise inherit one BLAS thread per core, more threads than cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hermcap"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _source_sha256() -> str:
    """One digest over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "omp_threads": int(os.environ["OMP_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"bench: no hermcap sources at {PACKAGE}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    import hermcap

    if Path(hermcap.__file__).resolve().parent != PACKAGE:
        print(f"bench: hermcap was imported from {hermcap.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    import workloads

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        names = ", ".join(workloads.WORKLOADS)
        print(f"bench: unknown workload {args.workload!r}; choose one of {names}", file=sys.stderr)
        return 2
    digest = workloads.frozen_digests()[w.name] if args.seed == workloads.DEFAULT_SEED else None
    if args.trace:
        result = workloads.measure_traced(w, args.seed, digest)
    else:
        result = workloads.measure(w, args.seed, args.seconds, digest)
    context = {"workload": w.name, "seed": args.seed, "trace": args.trace}
    print(json.dumps({"environment": environment(), **context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
