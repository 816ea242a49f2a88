"""Fast self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    Workload,
    autocorr_op,
    counts_op,
    run_op,
    udec_dump_op,
    verify_op,
)

CLI = run.import_program()
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny() -> Workload:
    cycle = (
        run_op(2, 2, 5, 1, circuit=False),
        run_op(2, 2, 6, 2, circuit=True),
        verify_op(2, 3, 0),
        autocorr_op(4),
        counts_op(),
        udec_dump_op(2, 2),
    )
    return Workload("tiny", cycle[0], cycle, tail_pct=50)


def printed(record, units):
    text = run.report(record, units)
    return text, json.loads(text.splitlines()[-1])


def assert_every_metric_printed(text, result, declared):
    want = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert re.search(rf"^{re.escape(name)} +\S+ {re.escape(unit)}$", text, re.M), name


def test_end_to_end_metrics_are_printed_with_units():
    record = run.run_workload(CLI, tiny(), seconds=0.0, trace=False, probes=1)
    text, result = printed(record, run.END_TO_END_UNITS)
    # one setup probe, one warm-up, two cycles of six ops
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 14, 0)
    assert_every_metric_printed(text, result, BENCH["end_to_end"])
    assert re.search(r"^fail_ratio +0 ratio$", text, re.M)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metrics_are_printed_with_units():
    record = run.run_workload(CLI, tiny(), seconds=0.0, trace=True)
    text, result = printed(record, tracing.UNITS)
    # tracing leaves every stdout byte-identical, or the gate would fail ops
    assert (result["correct"], result["failed"]) == (True, 0)
    assert_every_metric_printed(text, result, BENCH["per_layer"])
    m = record["metrics"]
    assert m["cli.main.calls"] == 6
    assert m["protocol.v_of_p.calls"] == 2 * 2 + 2 * 4  # two runs; verify at d = 2, 3
    assert m["circuits.circuit_to_unitary.gates"] > 0
    assert m["protocol.verify_identities.ms"] > 0 and m["protocol.run_protocol.ms"] > 0
    # the largest operator is verify's at d = 3, n = 2: dimension 3^3
    assert m["linalg.dense_op_mb"] == 27**2 * 16 / 2**20
    tracer = record["tracer"]
    assert len(tracer.names) == len(tracer.end) == len(tracer.parent) == len(tracer.op)
    assert all(p < i for i, p in enumerate(tracer.parent))


def test_tracing_restores_the_program():
    originals = tracing.traced_functions()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracing.traced_functions() == originals
    assert "protocol.u_enc" in originals and "cli.main" in originals
    assert "cli.cmd_run" not in originals


def _run_stub(monkeypatch, stub, passed=None) -> dict:
    from quditclone import protocol

    real = protocol.run_protocol
    calls = []

    def fake(*args, **kwargs):
        report = real(*args, **kwargs)
        calls.append(None)
        stub(report, len(calls))
        return report

    monkeypatch.setattr(protocol, "run_protocol", fake)
    if passed is not None:
        monkeypatch.setattr(protocol.ProtocolReport, "passed", property(lambda self: passed))
    op = run_op(2, 2, 5, 1, circuit=False)
    return run.run_workload(CLI, Workload("stub", op, (op,), 50), seconds=0.0, trace=False, probes=0)


def test_gate_fails_a_wrong_report_that_exits_zero(monkeypatch):
    def low_fidelity(report, _):
        report.decryption_fidelity = 0.5

    record = _run_stub(monkeypatch, low_fidelity, passed=True)
    assert record["attempted"] == record["failed"] == 3
    assert all("fidelity" in f["reason"] for f in record["failures"])
    _, result = printed(record, run.END_TO_END_UNITS)
    assert result["correct"] is False and record["fail_ratio"] == 1.0


def test_gate_fails_a_nonzero_exit(monkeypatch):
    def low_fidelity(report, _):
        report.decryption_fidelity = 0.5

    record = _run_stub(monkeypatch, low_fidelity)
    assert record["failed"] == 3
    assert all(f["reason"].startswith("exit code 1") for f in record["failures"])


def test_gate_fails_output_that_changes_between_repeats(monkeypatch):
    def drift(report, k):
        report.decryption_fidelity = 1.0 - 1e-14 * k

    record = _run_stub(monkeypatch, drift)
    assert record["failed"] == 2  # the first run sets the digest
    assert all("differs" in f["reason"] for f in record["failures"])


@pytest.mark.parametrize(
    "op, out",
    [
        (autocorr_op(2), "m,n,magnitude\n0,0,1.0\n0,1,0.0\n1,0,0.0\n1,1,0.5\n"),
        (counts_op(), "d,n,NE1Q,NE2Q,ND1Q,ND2Q\n2,2,8,8,14,17\n"),
        (udec_dump_op(2, 2), '{"builder": "udec", "d": 2, "n": 2, "ops": []}'),
        (verify_op(2, 3, 0), '{"passed": true, "results": [{"d": 2, "checks": []}]}'),
    ],
)
def test_gate_checks_reject_wrong_tables(op, out):
    assert op.check(out) is not None


def test_benchmark_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
