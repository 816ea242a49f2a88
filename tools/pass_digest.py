"""Digest the compiled passes of the protocol circuits from one checkout.

Usage:

    python3 tools/pass_digest.py <checkout>

Imports quditclone from ``<checkout>/src`` only, as ``stdout_digest.py``
does, and compiles the vpz, vpx and factored encryption circuits, both
decryption circuits at every target and every ``build_tkl`` block at
d = 2..8, n = 1..4, then all but the blocks at (161, 1) and (21, 2). It
prints one line per circuit (builder, d, n, target or (k, l), pass
count, and per pass 8 hex digits of the sha256 of its type, position
and tables), then one sha256 over every line.
"""

import hashlib
import sys
from pathlib import Path
from types import SimpleNamespace

from stdout_digest import import_cli


def pass_hash(p) -> str:
    h = hashlib.sha256(f"{type(p).__name__} {p.position}".encode())
    for table in p[1:]:
        h.update(b"-" if table is None else table.tobytes())
    return h.hexdigest()[:8]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        raise SystemExit("usage: pass_digest.py <checkout>")
    import_cli(Path(argv[0]))
    from quditclone import circuits as c

    grid = [(d, n) for d in range(2, 9) for n in range(1, 5)] + [(161, 1), (21, 2)]
    total = hashlib.sha256()
    for d, n in grid:
        rows = [(b.__name__, "-", b(d, n)) for b in
                (c.build_vpz_circuit, c.build_vpx_circuit, c.build_enc_factored)]
        for t in range(1, n + 1):  # ProtocolParams refuses (6..8, 4) on the state cap
            p = SimpleNamespace(d=d, n=n, target_party=t)
            rows += [(b.__name__, t, b(p)) for b in (c.build_udec_factored, c.build_udec_circuit)]
        if d <= 8:
            rows += [("build_tkl", (k, l), c.build_tkl(d, n, k, l))
                     for k in range(d) for l in range(d)]
        for name, which, circ in rows:
            line = f"{name} {d} {n} {which} {len(circ._passes)} " + " ".join(
                pass_hash(p) for p in circ._passes)
            total.update(line.encode() + b"\n")
            print(line)
    print("combined", total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
