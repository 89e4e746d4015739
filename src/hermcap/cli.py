"""Command-line interface.

Exit codes: 0 success, 1 domain or invariant failure or an unreadable or
unwritable file, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

import numpy as np

from .capfile import load_cap_ids, write_cap
from .errors import ConfigurationError, HermcapError
from .galois import FieldSpec, build_field
from .harness import SeedSpec, emit_histogram, emit_runlog, gap_check, run_spectrum
from .hermitian import enumerate_generators, enumerate_surface
from .rng import SplitMix64
from .search import SearchConfig, StrategyKind, TieMode, run_strategy, thin_ovoid
from .verify import run_checks


def _build_model(q: int):
    return enumerate_surface(build_field(FieldSpec.for_q(q)))


def _add_output(parser, flag: str, help: str) -> None:
    """Add an output-file option; its directory is checked before any work."""
    dest = parser.add_argument(flag, help=help).dest
    parser.set_defaults(outputs=(*(parser.get_default("outputs") or ()), dest))


def _check_output_dirs(args) -> None:
    """Fail before any work when an output file's directory is missing."""
    for name in getattr(args, "outputs", ()):
        path = getattr(args, name)
        if path and not Path(path).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _check_seed(flag: str, value: int) -> None:
    """Seeds are 64-bit; checked here so that a bad one fails before the model is built."""
    if not 0 <= value < 1 << 64:
        raise ConfigurationError(f"{flag} must lie in [0, 2^64), got {value}")


def _add_q(parser) -> None:
    parser.add_argument("--q", type=int, required=True, help="prime power q of GF(q^2)")


def cmd_surface_info(args) -> int:
    model = _build_model(args.q)
    q = model.q
    gens = enumerate_generators(model)
    per_point = model.generators_of([0]).shape[1]
    ovoid = len(model.classical_ovoid_ids())
    print(
        f"points={model.num_points} gx={model.gx_size} generators={len(gens)} "
        f"per_point={per_point} ovoid={ovoid}"
    )
    return 0


def cmd_verify(args) -> int:
    model = _build_model(args.q)
    results = run_checks(model, deep=args.deep, cap_path=args.cap)
    for r in results:
        mark = "ok" if r.ok else "FAIL"
        detail = f" ({r.detail})" if r.detail else ""
        print(f"{mark:4s} {r.name}{detail}")
    failed = [r.name for r in results if not r.ok]
    if failed:
        print(f"first failing invariant: {failed[0]}", file=sys.stderr)
    return 1 if failed else 0


def cmd_complete(args) -> int:
    _check_seed("--seed", args.seed)
    model = _build_model(args.q)
    seed_ids = np.zeros(0, dtype=np.int32)
    if args.input:
        seed_ids = load_cap_ids(model, args.input)
    config = SearchConfig(strategy=args.strategy, rng_seed=args.seed, forward_tie_mode=args.tie_mode)
    outcome = run_strategy(model, seed_ids, config)
    if args.output:
        write_cap(args.output, model, outcome.final_cap)
    print(f"size={outcome.size} is_ovoid={str(outcome.is_ovoid).lower()}")
    return 0


def cmd_spectrum(args) -> int:
    if args.runs < 1:
        raise ConfigurationError(f"--runs must be at least 1, got {args.runs}")
    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be at least 1, got {args.jobs}")
    _check_seed("--master", args.master)
    ovoid_size = args.q**3 + 1
    if args.seed_size is not None and not 0 <= args.seed_size <= ovoid_size:
        raise ConfigurationError(
            f"--seed-size must lie in [0, {ovoid_size}] for q={args.q}, got {args.seed_size}"
        )
    model = _build_model(args.q)
    if args.empty:
        spec = SeedSpec.empty()
    elif args.seed_file:
        spec = SeedSpec.fromfile(args.seed_file)
    else:
        spec = SeedSpec.subovoid(args.seed_size)
    hist, records = run_spectrum(
        model,
        spec,
        args.strategy,
        n_runs=args.runs,
        master_seed=args.master,
        jobs=args.jobs,
    )
    data = emit_histogram(hist, args.format)
    if args.out:
        Path(args.out).write_bytes(data)
    else:
        sys.stdout.write(data.decode())
    if args.runlog:
        Path(args.runlog).write_bytes(emit_runlog(records))
    report = gap_check(records, model.q)
    if not report.is_clean:
        print(report, file=sys.stderr)
    return 0


def cmd_ovoid(args) -> int:
    model = _build_model(args.q)
    ids = model.classical_ovoid_ids()
    if args.output:
        write_cap(args.output, model, ids)
    print(f"size={len(ids)}")
    return 0


def cmd_thin(args) -> int:
    _check_seed("--seed", args.seed)
    model = _build_model(args.q)
    kept, removed = thin_ovoid(model, model.classical_ovoid_ids(), SplitMix64(args.seed))
    if args.output:
        write_cap(args.output, model, kept)
    if args.removed:
        write_cap(args.removed, model, removed)
    print(f"kept={len(kept)} removed={len(removed)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermcap",
        description="Caps and ovoids of the Hermitian surface of PG(3,q^2)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("surface-info", help="print surface combinatorics")
    _add_q(p)
    p.set_defaults(fn=cmd_surface_info)

    p = sub.add_parser("verify", help="run invariant checks")
    _add_q(p)
    p.add_argument("--deep", action="store_true", help="add generator and brute-force oracles")
    p.add_argument("--cap", help="also validate a cap file")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("complete", help="complete a cap")
    _add_q(p)
    p.add_argument("--strategy", choices=sorted(s.value for s in StrategyKind), default="random")
    p.add_argument("--input", help="seed cap file (default: empty seed)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    _add_output(p, "--output", "write the completed cap here")
    p.add_argument(
        "--tie-mode", choices=[t.value for t in TieMode], default=TieMode.MAX_COUNT.value
    )
    p.set_defaults(fn=cmd_complete)

    p = sub.add_parser("spectrum", help="seeded batch runs and histogram")
    _add_q(p)
    p.add_argument("--strategy", choices=sorted(s.value for s in StrategyKind), default="random")
    p.add_argument("--runs", type=int, required=True)
    seed_group = p.add_mutually_exclusive_group(required=True)
    seed_group.add_argument("--empty", action="store_true", help="empty seed cap")
    seed_group.add_argument("--seed-size", type=int, help="fresh random sub-ovoid of this size per run")
    seed_group.add_argument("--seed-file", help="fixed seed cap file")
    p.add_argument("--master", type=int, required=True, help="master seed")
    p.add_argument("--jobs", type=int, default=1, help="worker processes, at most the usable CPUs (default: 1)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_output(p, "--out", "histogram file (default: stdout)")
    _add_output(p, "--runlog", "JSON-lines run log file")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("ovoid", help="emit the classical plane-section ovoid")
    _add_q(p)
    _add_output(p, "--output", "cap file to write")
    p.set_defaults(fn=cmd_ovoid)

    p = sub.add_parser("thin", help="thin the classical ovoid to a rigid subcap")
    _add_q(p)
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    _add_output(p, "--output", "cap file for the kept points")
    _add_output(p, "--removed", "cap file for the removed points")
    p.set_defaults(fn=cmd_thin)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_dirs(args)
        return args.fn(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (HermcapError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
