"""Acceptance suite: one test per release criterion, stated tolerances.

Each test prints a single PASS/FAIL line so a plain ``pytest -s`` run
doubles as the checklist.
"""

import json
import time

import numpy as np
from quditclone import (
    ProtocolParams,
    autocorr2d,
    build_enc_factored,
    build_tkl,
    build_udec_circuit,
    build_vpx_circuit,
    build_vpz_circuit,
    c_gate,
    circuit_to_unitary,
    counts_table,
    exp_generalization,
    build_tbar,
    is_unitary,
    kron_all,
    max_abs_diff,
    pauli_product,
    phase_z,
    q_entries,
    run_protocol,
    shift_x,
    u_dec_dense,
    u_enc,
    v_of_p,
    verify_identities,
)
from quditclone.cli import main as cli_main

TOL = 1e-10


def _report(name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {name}: {status}")
    assert not failures, f"{name}: {failures}"


def test_identity_suite_all_dims():
    failures = []
    start = time.perf_counter()
    for d in range(2, 8):
        report = verify_identities(d, samples=50, seed=0, tol=TOL)
        for check in report.checks:
            if not check.passed:
                failures.append((d, check.name, check.max_deviation))
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(("runtime_seconds", elapsed))
    _report("identity-suite-d2-to-d7", failures)


def test_unitarity_sweep():
    failures = []
    for d in range(2, 6):
        for name, op in [
            ("tbar", build_tbar(d)),
            ("c", c_gate(d)),
            ("q", np.diag(q_entries(d))),
        ]:
            check = is_unitary(op, TOL)
            if not check:
                failures.append((name, d, check.max_deviation))
        for n in (1, 2, 3):
            params = ProtocolParams(d, n)
            for name, op in [
                ("vpx", v_of_p(pauli_product("x", d, n), d)),
                ("vpz", v_of_p(pauli_product("z", d, n), d)),
                ("uenc", u_enc(params)),
                ("udec", u_dec_dense(params)),
            ]:
                check = is_unitary(op, TOL)
                if not check:
                    failures.append((name, d, n, check.max_deviation))
            for k in range(d):
                for l in range(d):
                    check = is_unitary(circuit_to_unitary(build_tkl(d, n, k, l)), TOL)
                    if not check:
                        failures.append(("tkl", d, n, k, l, check.max_deviation))
    for d in range(3, 8):
        check = is_unitary(exp_generalization(shift_x(d), np.pi / 4), TOL)
        if check:
            failures.append(("exp-generalization-unexpectedly-unitary", d))
    _report("unitarity-sweep", failures)


def test_qubit_special_case_operator():
    failures = []
    x, z = shift_x(2), phase_z(2)
    y = np.array([[0, -1j], [1j, 0]])
    eye = np.eye(2)
    for n in (1, 2, 3):
        expected = 0.5 * (
            kron_all([eye] * (n + 1))
            + (-1j) * kron_all([z] * (n + 1))
            + (-1j) * kron_all([x] * (n + 1))
            + (-1) * (-1j) ** (n + 1) * kron_all([y] * (n + 1))
        )
        dev = max_abs_diff(u_enc(ProtocolParams(2, n)), expected)
        if dev > 1e-12:
            failures.append((n, dev))
    _report("qubit-special-case", failures)


SWEEP = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (3, 3)]


def test_encryption_marginals_sweep():
    failures = []
    for d, n in SWEEP:
        for trial in range(20):
            report = run_protocol(ProtocolParams(d, n), seed=1000 * d + 10 * n + trial)
            worst = max(report.marginal_deviations)
            if worst > TOL:
                failures.append((d, n, trial, worst))
    _report("encryption-marginals-sweep", failures)


def test_decryption_closed_form_sweep():
    failures = []
    for d, n in SWEEP:
        for trial in range(20):
            report = run_protocol(ProtocolParams(d, n), seed=1000 * d + 10 * n + trial)
            if report.decryption_fidelity < 1 - TOL:
                failures.append((d, n, trial, report.decryption_fidelity))
    _report("decryption-closed-form-sweep", failures)


def test_circuit_dense_equivalence():
    failures = []
    for d, n in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]:
        params = ProtocolParams(d, n)
        cases = [
            ("vpz", build_vpz_circuit(d, n), v_of_p(pauli_product("z", d, n), d)),
            ("vpx", build_vpx_circuit(d, n), v_of_p(pauli_product("x", d, n), d)),
            ("udec", build_udec_circuit(params), u_dec_dense(params)),
            ("enc", build_enc_factored(d, n), u_enc(params)),
        ]
        for name, circ, dense in cases:
            dev = max_abs_diff(circuit_to_unitary(circ), dense)
            if dev > TOL:
                failures.append((name, d, n, dev))
    _report("circuit-dense-equivalence", failures)


def test_autocorrelation_delta():
    failures = []
    for d in range(2, 11):
        grid = autocorr2d(d)
        if abs(grid[0, 0] - 1.0) > 1e-12:
            failures.append((d, "peak", grid[0, 0]))
        off = grid.copy()
        off[0, 0] = 0.0
        if off.max() > TOL:
            failures.append((d, "offpeak", off.max()))
    _report("autocorrelation-delta", failures)


def test_gate_count_table():
    failures = []
    rows = counts_table(range(2, 11), (2, 5, 10))
    if len(rows) != 27:
        failures.append(("row-count", len(rows)))
    for r in rows:
        d, n = r.d, r.n
        if r.ne2q != 4 * n:
            failures.append(("NE2Q", d, n, r.ne2q))
        if r.ne1q != 2 * n + 2 * (d - 1):
            failures.append(("NE1Q", d, n, r.ne1q))
        if r.nd1q != 2 + (2 * n - 1) * d * d * (d - 1):
            failures.append(("ND1Q", d, n, r.nd1q))
        if r.nd2q != 9 + 8 * (2 * n - 1) * (d ** 3 - d ** 2 - d + 1):
            failures.append(("ND2Q", d, n, r.nd2q))
    for n in (2, 5, 10):
        by_n = [r for r in rows if r.n == n]
        if len({r.ne2q for r in by_n}) != 1:
            failures.append(("NE2Q-not-constant-in-d", n))
        ratios = [r.nd2q / (n * r.d ** 3) for r in by_n]
        if not all(4.0 <= x <= 20.0 for x in ratios):
            failures.append(("ND2Q-not-theta-nd3", n, ratios))
        diffs = [b.nd2q - a.nd2q for a, b in zip(by_n, by_n[1:])]
        if not all(x > 0 for x in diffs):
            failures.append(("ND2Q-not-increasing-in-d", n))
    _report("gate-count-table", failures)


def test_cli_determinism(tmp_path):
    failures = []
    f1, f2 = tmp_path / "run1.json", tmp_path / "run2.json"
    args = ["run", "--d", "3", "--n", "2", "--seed", "7"]
    code1 = cli_main(args + ["--out", str(f1)])
    code2 = cli_main(args + ["--out", str(f2)])
    if code1 != 0 or code2 != 0:
        failures.append(("exit-codes", code1, code2))
    if f1.read_bytes() != f2.read_bytes():
        failures.append("outputs-differ")
    payload = json.loads(f1.read_text())
    if "version" not in payload or "tolerances" not in payload:
        failures.append("missing-provenance-fields")
    _report("cli-determinism", failures)
