"""quditclone benchmark: CLI workloads through ``quditclone.cli.main``, in-process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload run-large --seed 1 --seconds 20 --trace 0

One caller runs the workload's cycle of commands in a closed loop: each
command starts when the previous one has returned. Whole cycles run until
``--seconds`` have passed (at least two, so that every argv repeats and
its stdout can be compared). Every op's stdout is checked for correctness
and for byte-identical repeats. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced cycles and reports
the per-layer metrics. The last stdout line is one JSON object; a full
record goes to ``perfbench/out/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
MIN_CYCLES = 2
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}


def import_program():
    """Import quditclone from this checkout's src/, never from elsewhere."""
    if not (SRC / "quditclone" / "__init__.py").is_file():
        raise SystemExit(f"error: no quditclone sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import quditclone.cli

    if Path(quditclone.__file__).resolve().parent != SRC / "quditclone":
        raise SystemExit(f"error: imported quditclone from {quditclone.__file__}, not {SRC}")
    return quditclone.cli


def call_cli(cli, argv) -> tuple[int | None, str, str, float, float]:
    """One CLI command: exit code, stdout, stderr, wall seconds, CPU seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            traceback.print_exc(file=err)
        t1, c1 = time.perf_counter(), time.process_time()
    return rc, out.getvalue(), err.getvalue(), t1 - t0, c1 - c0


class Gate:
    """Correctness and determinism verdicts; never raises, counts every op."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []
        self.digests: dict[tuple, str] = {}

    def judge(self, op, rc, out: str, err: str, where: str) -> None:
        self.attempted += 1
        if rc != 0:
            reason = f"exit code {rc}: {err.strip()[-400:]}"
        else:
            try:
                reason = op.check(out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"unreadable output: {exc!r}"
            digest = hashlib.sha256(out.encode()).hexdigest()
            first = self.digests.setdefault(op.argv, digest)
            if reason is None and digest != first:
                reason = "stdout differs from an earlier run of the same argv"
        if reason is not None:
            self.failures.append({"argv": list(op.argv), "where": where, "reason": reason})


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def blas_threads():
    """OpenBLAS's thread count, read from the loaded library; None if not found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
        "thread_env": {
            k: v for k, v in os.environ.items()
            if re.fullmatch(r"(OPENBLAS|OMP|MKL|BLIS|VECLIB_MAXIMUM|NUMEXPR)_\w*THREADS", k)
        },
    }


def setup_probe(warmup_argv) -> tuple[int | None, str, str, float]:
    """Wall time for a fresh interpreter to import quditclone and run the warm-up op."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", *warmup_argv],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, "", f"no exit within {PROBE_TIMEOUT_S} s", time.perf_counter() - t0
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


def run_workload(cli, wl, seconds: float, trace: bool, probes: int = SETUP_PROBES) -> dict:
    """Run one workload and return its full record (see module docstring)."""
    load_start = loadavg()
    gate = Gate()
    setup = []
    if not trace:
        for i in range(probes):
            rc, out, err, elapsed = setup_probe(wl.warmup.argv)
            gate.judge(wl.warmup, rc, out, err, f"setup probe {i}")
            setup.append(elapsed)

    rc, out, err, _, _ = call_cli(cli, wl.warmup.argv)
    gate.judge(wl.warmup, rc, out, err, "warm-up")

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    latencies = {op.argv: [] for op in wl.cycle}
    cycles = []
    t_origin = time.perf_counter()
    op_id = 0
    while len(cycles) < MIN_CYCLES or time.perf_counter() - t_origin < seconds:
        traced = tracer is not None and len(cycles) % 2 == 1
        span_lo = len(tracer.names) if tracer else 0
        if traced:
            tracer.install()
        wall = cpu = 0.0
        try:
            for op in wl.cycle:
                if tracer is not None:
                    tracer.op_id = op_id
                rc, out, err, dt, dc = call_cli(cli, op.argv)
                gate.judge(op, rc, out, err, f"cycle {len(cycles)}")
                wall += dt
                cpu += dc
                op_id += 1
                if not traced:
                    latencies[op.argv].append(dt)
        finally:
            if traced:
                tracer.uninstall()
        cycle = {"traced": traced, "wall_s": wall, "cpu_s": cpu}
        if traced:
            cycle["metrics"] = tracer.cycle_metrics(span_lo, len(tracer.names))
        cycles.append(cycle)

    plain = [c for c in cycles if not c["traced"]]
    samples = sorted(dt for dts in latencies.values() for dt in dts)
    tail = percentile(samples, wl.tail_pct)
    record = {
        "workload": wl.name,
        "trace": int(trace),
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "fail_ratio": len(gate.failures) / gate.attempted,
        "tail": {
            "percentile": wl.tail_pct,
            "samples": len(samples),
            "beyond": sum(1 for s in samples if s > tail),
        },
        "setup_probes_s": setup,
        "cycles": [{k: v for k, v in c.items() if k != "metrics"} for c in cycles],
        "ops": [
            {
                "argv": list(op.argv),
                "sha256": gate.digests.get(op.argv),
                "latency_ms": [dt * 1e3 for dt in latencies.get(op.argv, [])],
            }
            for op in {op.argv: op for op in (wl.warmup, *wl.cycle)}.values()
        ],
        "failures": gate.failures,
        "loadavg": {"start": load_start, "end": loadavg()},
    }
    if trace:
        traced_cycles = [c for c in cycles if c["traced"]]
        metrics = {
            k: statistics.median(c["metrics"][k] for c in traced_cycles)
            for k in traced_cycles[0]["metrics"]
        }
        metrics["trace.overhead_ratio"] = statistics.median(
            c["wall_s"] for c in traced_cycles
        ) / statistics.median(c["wall_s"] for c in plain)
        record["metrics"] = metrics
        record["tracer"] = tracer
        record["t_origin"] = t_origin
    else:
        # The median over commands of each command's median: a pooled
        # median would fall between two commands' latency clusters when
        # the cycle has an even number of commands.
        op_p50 = statistics.median(statistics.median(dts) for dts in latencies.values())
        record["metrics"] = {
            "setup_s": statistics.median(setup) if setup else float("nan"),
            "wall_s": statistics.median(c["wall_s"] for c in plain),
            "op_p50_ms": op_p50 * 1e3,
            "op_tail_ms": tail * 1e3,
            "cpu_s": statistics.median(c["cpu_s"] for c in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return record


def report(record, units: dict) -> str:
    """Human-readable lines, then the one-line JSON result, as printed."""
    tail = record["tail"]
    lines = [
        f"workload {record['workload']}: {len(record['cycles'])} cycles, "
        f"{record['attempted']} ops, {record['failed']} failed"
    ]
    for name, unit in units.items():
        lines.append(f"{name:36s} {record['metrics'][name]:14.6g} {unit}")
    if not record["trace"]:
        lines.append(
            f"  (op_tail_ms is p{tail['percentile']}: {tail['beyond']} of "
            f"{tail['samples']} samples beyond it)"
        )
    lines.append(f"{'fail_ratio':36s} {record['fail_ratio']:14.6g} ratio")
    for failure in record["failures"]:
        lines.append(f"FAILED {' '.join(failure['argv'])} ({failure['where']}): {failure['reason']}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }
    lines.append(json.dumps(result))
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--probe"]:
        cli = import_program()
        return cli.main(argv[1:])

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    from tracing import UNITS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    machine = machine_record()
    wl = WORKLOADS[args.workload](args.seed)
    record = run_workload(cli, wl, args.seconds, bool(args.trace))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = record.pop("tracer", None)
    if tracer is not None:
        spans = OUT / f"{stem}.spans.jsonl.gz"
        tracer.dump(spans, record.pop("t_origin"))
        record["spans_file"] = str(spans.relative_to(ROOT))
    record.update(seed=args.seed, seconds=args.seconds, machine=machine)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(report(record, UNITS if args.trace else END_TO_END_UNITS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
