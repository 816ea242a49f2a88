"""Digest the stdout of a fixed list of quditclone commands run from one checkout.

Usage:

    python3 tools/stdout_digest.py <checkout>

Imports ``quditclone.cli`` from ``<checkout>/src`` and from nowhere else,
runs each command in-process, and prints one line per command (exit
code, the first 16 hex digits of the sha256 of its stdout, the argv),
then one sha256 over every command's exit code and stdout. Two
checkouts that print the same last line wrote the same bytes and exit
codes for every command.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

# The benchmark's run grids (perfbench/workloads.py), then three more.
RUN_GRID = (
    (2, 8), (3, 5), (4, 4), (5, 3), (6, 3),
    (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 5), (3, 4), (4, 3),
    (2, 1), (7, 1), (21, 2),
)


def commands() -> list[list[str]]:
    cmds = [
        ["verify", "--d-range", *rest] for rest in (
            ["2..8"], ["2..8", "--seed", "123"], ["2..5", "--n", "3"], ["2..16", "--n", "1"],
            ["6", "--n", "3"], ["3", "--n", "5"], ["2..4", "--n", "1", "--tol", "1e-30"],
        )
    ]
    cmds += [
        ["counts"], ["counts", "--format", "json"],
        ["counts", "--d-range", "2..3", "--n-set", "2", "--format", "json"],
        ["autocorr", "--d", "96"], ["autocorr", "--d", "9", "--format", "json"],
    ]
    for d, n in RUN_GRID:
        for t in sorted({1, n}):
            for path in ([], ["--circuit"]):
                cmds.append(["run", "--d", str(d), "--n", str(n), "--target", str(t), *path])
    for builder in ("vpz", "vpx", "udec"):
        for d, n in ((2, 1), (3, 2), (5, 3), (4, 4)):
            cmds.append(["circuit-dump", builder, "--d", str(d), "--n", str(n)])
    return cmds


def import_cli(checkout: Path):
    """Import quditclone.cli from ``checkout``/src, refusing any other copy."""
    src = (checkout / "src").resolve()
    if not (src / "quditclone" / "__init__.py").is_file():
        raise SystemExit(f"error: no quditclone sources under {src}")
    sys.path.insert(0, str(src))
    import quditclone.cli

    if Path(quditclone.__file__).resolve().parent != src / "quditclone":
        raise SystemExit(f"error: imported quditclone from {quditclone.__file__}, not {src}")
    return quditclone.cli


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        raise SystemExit("usage: stdout_digest.py <checkout>")
    cli = import_cli(Path(argv[0]))
    total = hashlib.sha256()
    for cmd in commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                rc = cli.main(cmd)
            except SystemExit as exc:
                rc = exc.code
        data = out.getvalue().encode()
        total.update(f"{rc}\n{len(data)}\n".encode() + data)
        print(rc, hashlib.sha256(data).hexdigest()[:16], " ".join(cmd))
    print("combined", total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
