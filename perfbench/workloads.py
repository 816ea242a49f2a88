"""Workloads of the quditclone benchmark and the correctness gate of each op.

A workload is a fixed cycle of CLI commands that the benchmark repeats.
The workload seed fixes every ``--seed`` and ``--target`` value; the
program only ever sees the generated argv. Each op carries a check that
re-derives, from the op's stdout alone, whether the result is correct.
"""

import json
import random
from dataclasses import dataclass
from typing import Callable

# The CLI's default tolerance. The benchmark passes no --tol, so every
# report must meet this bound.
TOL = 1e-10


@dataclass(frozen=True)
class Op:
    """One CLI command and the check of its stdout (None when correct)."""

    argv: tuple[str, ...]
    check: Callable[[str], str | None]


@dataclass(frozen=True)
class Workload:
    """A cycle of ops, an untimed warm-up op and the reported tail percentile.

    ``tail_pct`` is fixed per workload, so that a faster program (more
    samples in a run) does not report a different percentile. It is one
    of 50/75/90/95/99 with at least ten samples beyond it on the baseline;
    the output states how many samples lie beyond it.
    """

    name: str
    warmup: Op
    cycle: tuple[Op, ...]
    tail_pct: int


def run_op(d: int, n: int, seed: int, target: int, circuit: bool) -> Op:
    argv = ["run", "--d", str(d), "--n", str(n), "--seed", str(seed), "--target", str(target)]
    if circuit:
        argv.append("--circuit")
    want = {"d": d, "n": n, "seed": seed, "target_party": target, "used_circuit": circuit}

    def check(out: str) -> str | None:
        rep = json.loads(out)
        got = {k: rep.get(k) for k in want}
        if got != want:
            return f"report is for {got}, expected {want}"
        if rep["passed"] is not True:
            return "report says passed = false"
        if not rep["decryption_fidelity"] >= 1.0 - TOL:
            return f"decryption fidelity {rep['decryption_fidelity']!r} < 1 - {TOL}"
        marginals = rep["marginals"]
        if len(marginals) != n or not all(m <= TOL for m in marginals):
            return f"marginal deviations {marginals!r} exceed {TOL} or miss a share"
        return None

    return Op(tuple(argv), check)


def verify_op(lo: int, hi: int, seed: int) -> Op:
    d_range = f"{lo}..{hi}" if hi > lo else str(lo)

    def check(out: str) -> str | None:
        rep = json.loads(out)
        dims = [r["d"] for r in rep["results"]]
        if dims != list(range(lo, hi + 1)):
            return f"verified dimensions {dims}, expected {lo}..{hi}"
        for r in rep["results"]:
            bad = [
                c["name"] for c in r["checks"]
                if c["passed"] is not True or not c["max_deviation"] <= TOL
            ]
            if not r["checks"] or bad:
                return f"d={r['d']}: failed checks {bad or 'none run'}"
        if rep["passed"] is not True:
            return "report says passed = false"
        return None

    return Op(("verify", "--d-range", d_range, "--seed", str(seed)), check)


def autocorr_op(d: int) -> Op:
    def check(out: str) -> str | None:
        lines = out.splitlines()
        if lines[0] != "m,n,magnitude" or len(lines) != d * d + 1:
            return f"expected a header and {d * d} rows, got {len(lines)} lines"
        seen = set()
        for line in lines[1:]:
            m, n, mag = line.split(",")
            m, n, mag = int(m), int(n), float(mag)
            seen.add((m, n))
            want = 1.0 if (m, n) == (0, 0) else 0.0
            if not abs(mag - want) <= TOL:
                return f"autocorrelation ({m},{n}) = {mag!r}, expected {want}"
        if len(seen) != d * d:
            return "repeated shifts in the autocorrelation grid"
        return None

    return Op(("autocorr", "--d", str(d)), check)


def counts_op() -> Op:
    from quditclone.circuits import gate_counts

    want = [
        (c.d, c.n, c.ne1q, c.ne2q, c.nd1q, c.nd2q)
        for c in (gate_counts(d, n) for d in range(2, 11) for n in (2, 5, 10))
    ]

    def check(out: str) -> str | None:
        lines = out.splitlines()
        if lines[0] != "d,n,NE1Q,NE2Q,ND1Q,ND2Q":
            return f"unexpected header {lines[0]!r}"
        rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
        if rows != want:
            return f"{len(rows)} rows differ from gate_counts ({len(want)} rows)"
        return None

    return Op(("counts",), check)


def udec_dump_op(d: int, n: int) -> Op:
    from quditclone.circuits import build_udec_circuit
    from quditclone.protocol import ProtocolParams

    want = len(build_udec_circuit(ProtocolParams(d, n)).ops)

    def check(out: str) -> str | None:
        rep = json.loads(out)
        if (rep["builder"], rep["d"], rep["n"]) != ("udec", d, n):
            return f"dump is for {rep['builder']} d={rep['d']} n={rep['n']}"
        if len(rep["ops"]) != want:
            return f"{len(rep['ops'])} ops dumped, build_udec_circuit has {want}"
        return None

    return Op(("circuit-dump", "udec", "--d", str(d), "--n", str(n)), check)


def _seeds(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _run_cycle(rng: random.Random, grid) -> tuple[Op, ...]:
    # --circuit on every other op, fixed by position so that each (d, n)
    # always takes the same decryption path whatever the seed.
    return tuple(
        run_op(d, n, rng.randrange(2**31), rng.randint(1, n), circuit=i % 2 == 1)
        for i, (d, n) in enumerate(grid)
    )


# Dense operators of dimension 512..1296, states of 131k..280k amplitudes.
RUN_LARGE_GRID = ((2, 8), (3, 5), (4, 4), (5, 3), (6, 3))
# Operators of dimension <= 256; each op takes milliseconds.
RUN_SMALL_GRID = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 5), (3, 4), (4, 3))


def run_large(seed: int) -> Workload:
    cycle = _run_cycle(_seeds("run-large", seed), RUN_LARGE_GRID)
    return Workload("run-large", cycle[0], cycle, tail_pct=50)


def run_small(seed: int) -> Workload:
    cycle = _run_cycle(_seeds("run-small", seed), RUN_SMALL_GRID)
    # p99 also has ten samples beyond it here, but over ten seeds it moved
    # by 29% (quartile distance over median) with the host's interference
    # spikes; p95 moved by 6-8%.
    return Workload("run-small", cycle[0], cycle, tail_pct=95)


def verify_tables(seed: int) -> Workload:
    rng = _seeds("verify-tables", seed)
    cycle = (
        verify_op(2, 8, rng.randrange(2**31)),
        autocorr_op(96),
        counts_op(),
        udec_dump_op(5, 3),
    )
    # The suite at one mid-size dimension: it reaches every identity check
    # and the first multi-threaded BLAS call without the 2..8 sweep's cost.
    warmup = verify_op(6, 6, rng.randrange(2**31))
    return Workload("verify-tables", warmup, cycle, tail_pct=50)


WORKLOADS = {
    "run-large": run_large,
    "run-small": run_small,
    "verify-tables": verify_tables,
}
