"""Command-line front end: verify, run, counts, autocorr, circuit-dump.

Exit codes: 0 success, 1 verification failure, 2 configuration,
size-cap or out-of-memory error. Reports are deterministic for a fixed
flag set and seed; wall-clock timings are only emitted when --timings
is passed, since they would break byte-identical output.

Only this module turns results into bytes. Each command computes and
checks everything, then hands one payload to ``_write``, so a refused
request writes nothing. The ``counts`` and ``autocorr`` tables stream
their rows, a batch at a time, in either format.
"""

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys

from . import __version__, circuits, protocol
from .cazac import autocorr2d
from .linalg import DEFAULT_TOL, SizeCapError

_ROWS_PER_WRITE = 256  # rows formatted per write: no string holds the whole table


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


def _csv_pieces(fields, batches):
    line = ",".join(["%s"] * len(fields)) + "\n"  # str() of each value
    yield ",".join(fields) + "\n"
    for batch in batches:
        yield "".join(line % row for row in batch)


def _json_pieces(payload: dict, fields, batches):
    """json.dumps(payload, indent=2, sort_keys=True) + newline, each row a dict, in pieces.

    Every row is written through one template, built once with the fields
    in sorted order at the rows' depth. Row values are Python ints and
    finite floats, whose repr (``int.__repr__``, ``float.__repr__``) is the
    text ``json`` writes for them.
    """
    head, tail = json.dumps({**payload, "rows": []}, indent=2, sort_keys=True).split('"rows": []')
    members = ",\n".join(
        "      %s: {%d!r}" % (json.dumps(fields[i]), i)
        for i in sorted(range(len(fields)), key=fields.__getitem__)
    )
    row = "    {{\n" + members + "\n    }}"
    yield head + '"rows": ['
    sep = "\n"
    for batch in batches:
        yield sep + ",\n".join(itertools.starmap(row.format, batch))
        sep = ",\n"
    yield ("]" if sep == "\n" else "\n  ]") + tail + "\n"


def _write(payload: dict, args) -> None:
    """Write a command's payload, with the version added, to --out or stdout.

    A payload is one indented JSON text. A table's payload holds its
    field names and an iterator of row tuples under "rows"; it is
    written as CSV (a header, a line per row) under ``--format csv``, else
    as the JSON of the payload with each row a dict. stdout is looked up
    here, so a caller's redirection holds.
    """
    payload = {**payload, "version": __version__}
    if "rows" not in payload:
        pieces = [json.dumps(payload, indent=2, sort_keys=True) + "\n"]
    else:
        fields, values = payload["rows"]
        batches = iter(lambda: list(itertools.islice(values, _ROWS_PER_WRITE)), [])
        if args.format == "csv":
            pieces = _csv_pieces(fields, batches)
        else:
            pieces = _json_pieces(payload, fields, batches)
    with contextlib.nullcontext(sys.stdout) if args.out is None else open(args.out, "w") as fh:
        for piece in pieces:
            fh.write(piece)


def cmd_verify(args) -> int:
    _check_tol(args.tol)
    d_values = _parse_range(args.d_range)
    for d in d_values:  # refuse the whole range before any check runs
        protocol.suite_params(d, args.n)
    results = [
        protocol.verify_identities(d, n=args.n, seed=args.seed, tol=args.tol).to_dict()
        for d in d_values
    ]
    passed = all(r["passed"] for r in results)
    _write(
        {"tolerance": args.tol, "n": args.n, "seed": args.seed,
         "results": results, "passed": passed},
        args,
    )
    return 0 if passed else 1


def cmd_run(args) -> int:
    _check_tol(args.tol)
    params = protocol.ProtocolParams(args.d, args.n, target_party=args.target)
    report = protocol.run_protocol(
        params, seed=args.seed, tol=args.tol, decrypt_with_circuit=args.circuit
    )
    payload = report.to_dict()
    if args.timings:
        payload["timings_ms"] = report.timings_ms
    _write(payload, args)
    return 0 if report.passed else 1


def cmd_counts(args) -> int:
    table = circuits.counts_table(_parse_range(args.d_range), _parse_set(args.n_set))
    _write({"rows": (("d", "n", "NE1Q", "NE2Q", "ND1Q", "ND2Q"), iter(table))}, args)
    return 0


def cmd_autocorr(args) -> int:
    grid = autocorr2d(args.d)
    values = (
        (m, n, magnitude)
        for m, line in enumerate(grid)
        for n, magnitude in enumerate(line.tolist())
    )
    _write({"d": args.d, "rows": (("m", "n", "magnitude"), values)}, args)
    return 0


_BUILDERS = {
    "vpz": lambda p: circuits.build_vpz_circuit(p.d, p.n),
    "vpx": lambda p: circuits.build_vpx_circuit(p.d, p.n),
    "udec": circuits.build_udec_circuit,
}


def cmd_circuit_dump(args) -> int:
    # a dump is refused at any (d, n) that a run cannot hold
    circ = _BUILDERS[args.builder](protocol.ProtocolParams(args.d, args.n))
    _write(
        {
            "builder": args.builder,
            "d": args.d,
            "n": args.n,
            "register": {"d": circ.register.d, "wires": list(circ.register.wires)},
            "ops": [op.to_dict() for op in circ.ops],
        },
        args,
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
