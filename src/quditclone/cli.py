"""Command-line front end: verify, run, counts, autocorr, circuit-dump.

Exit codes: 0 success, 1 verification failure, 2 configuration,
size-cap or out-of-memory error. Reports are deterministic for a fixed
flag set and seed; wall-clock timings are only emitted when --timings
is passed, since they would break byte-identical output.
"""

import argparse
import functools
import json
import math
import sys

from . import __version__, circuits, protocol
from .cazac import autocorr_csv, autocorr2d
from .linalg import DEFAULT_TOL, SizeCapError


def _parse_range(text: str) -> range:
    """'2..5' -> range(2, 6), '7' -> range(7, 8); lazy, so no huge range is listed."""
    lo, sep, hi = text.partition("..")
    lo, hi = int(lo), int(hi if sep else lo)
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _parse_set(text: str) -> list[int]:
    """'2,5,10' -> [2, 5, 10]; blank items are skipped, but the set may not be empty."""
    values = [int(x) for x in text.split(",") if x.strip()]
    if not values:
        raise ValueError(f"empty set {text!r}")
    return values


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"--tol must be a finite number >= 0, got {tol}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def cmd_verify(args) -> int:
    _check_tol(args.tol)
    d_values = _parse_range(args.d_range)
    for d in d_values:  # refuse the whole range before any check runs
        protocol.suite_params(d, args.n)
    results = []
    for d in d_values:
        report = protocol.verify_identities(
            d, n=args.n, seed=args.seed, tol=args.tol
        )
        results.append(report.to_dict())
    passed = all(r["passed"] for r in results)
    _emit_json(
        {
            "version": __version__,
            "tolerance": args.tol,
            "n": args.n,
            "seed": args.seed,
            "results": results,
            "passed": passed,
        },
        args.out,
    )
    return 0 if passed else 1


def cmd_run(args) -> int:
    _check_tol(args.tol)
    params = protocol.ProtocolParams(args.d, args.n, target_party=args.target)
    report = protocol.run_protocol(
        params,
        seed=args.seed,
        tol=args.tol,
        decrypt_with_circuit=args.circuit,
    )
    payload = report.to_dict(include_timings=args.timings)
    payload["version"] = __version__
    _emit_json(payload, args.out)
    return 0 if report.passed else 1


def cmd_counts(args) -> int:
    d_values = _parse_range(args.d_range)
    n_values = _parse_set(args.n_set)
    if args.format == "csv":
        _emit(circuits.counts_csv(d_values, n_values), args.out)
    else:
        rows = [
            {
                "d": c.d, "n": c.n,
                "NE1Q": c.ne1q, "NE2Q": c.ne2q,
                "ND1Q": c.nd1q, "ND2Q": c.nd2q,
            }
            for c in circuits.counts_table(d_values, n_values)
        ]
        _emit_json({"version": __version__, "rows": rows}, args.out)
    return 0


def cmd_autocorr(args) -> int:
    if args.format == "csv":
        _emit(autocorr_csv(args.d), args.out)
    else:
        grid = autocorr2d(args.d)
        rows = [
            {"m": m, "n": n, "magnitude": float(grid[m, n])}
            for m in range(args.d)
            for n in range(args.d)
        ]
        _emit_json({"version": __version__, "d": args.d, "rows": rows}, args.out)
    return 0


_BUILDERS = {
    "vpz": lambda p: circuits.build_vpz_circuit(p.d, p.n),
    "vpx": lambda p: circuits.build_vpx_circuit(p.d, p.n),
    "udec": circuits.build_udec_circuit,
}


def cmd_circuit_dump(args) -> int:
    # a dump is refused at any (d, n) that a run cannot hold
    circ = _BUILDERS[args.builder](protocol.ProtocolParams(args.d, args.n))
    _emit_json(
        {
            "version": __version__,
            "builder": args.builder,
            "d": args.d,
            "n": args.n,
            "register": {"d": circ.register.d, "wires": list(circ.register.wires)},
            "ops": [op.to_dict() for op in circ.ops],
        },
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditclone",
        description="Simulate and verify encrypted cloning of qudit states.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the operator identity suite")
    p.add_argument("--d-range", default="2..5", help="dimensions, e.g. 2..7")
    p.add_argument("--n", type=int, default=2, help="party count for unitarity checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run", help="simulate one protocol run")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target", type=int, default=1, help="share receiving the state")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--circuit", action="store_true",
                   help="decrypt with the paper-literal circuit (d^2 - 1 "
                        "correction blocks) instead of the factored one")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte-identical output)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("counts", help="export the gate-count table")
    p.add_argument("--d-range", default="2..10")
    p.add_argument("--n-set", default="2,5,10")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("autocorr", help="export the 2D autocorrelation grid")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_autocorr)

    p = sub.add_parser("circuit-dump", help="serialize a builder's circuit as JSON")
    p.add_argument("builder", choices=sorted(_BUILDERS))
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_circuit_dump)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser as it was (no flag appends to a shared
    # default), so one serves every call of ``main`` in a process
    return build_parser()


def main(argv=None) -> int:
    """Run one command; return its exit code.

    The parser is built on the first call and reused; each call parses
    into a fresh namespace, so no flag carries over between calls.
    """
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SizeCapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
