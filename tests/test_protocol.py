import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import (
    DensityMatrix,
    basis_state,
    bell_pair_invariance_loop,
    bell_relay_loop,
    dec_projector_sum_loop,
    embed_apply,
    partial_trace,
    partial_trace_product_loop,
    product_state,
    protocol_register,
    random_matrix,
    random_unit_vector,
    random_unitary,
    ricochet_loop,
    swap_gate,
)
from quditclone import (
    ProtocolParams,
    Register,
    SizeCapError,
    StateVector,
    apply_circuit,
    build_udec_factored,
    c_gate,
    circuit_to_unitary,
    dec_projector_sum,
    exp_generalization,
    fourier,
    is_unitary,
    kron_all,
    max_abs_diff,
    pauli_product,
    phase_z,
    random_state,
    run_protocol,
    shift_x,
    u_dec_dense,
    u_enc,
    v_of_p,
    verify_identities,
    x_power,
    z_power,
)
from quditclone.cazac import chu
from quditclone.gates import bell_amplitudes, bell_basis, weyl_table
from quditclone.linalg import column_sparse_form
from quditclone.protocol import (
    _check_bell_basis_orthonormal,
    _check_bell_pair_invariance,
    _check_encryption_unitary,
    _check_partial_trace_product,
    _check_projector_algebra,
    _check_ricochet,
    suite_params,
)

TOL = 1e-10


def test_pauli_product_phase_is_digit_sum():
    d, n = 3, 1
    pz = pauli_product("z", d, n)
    w = np.exp(2j * np.pi / d)
    expected = np.diag([w ** (a + b) for a in range(d) for b in range(d)])
    assert max_abs_diff(pz, expected) < 1e-12


def test_pauli_product_order():
    for d in (2, 3):
        for n in (1, 2):
            px = pauli_product("x", d, n)
            assert max_abs_diff(np.linalg.matrix_power(px, d), np.eye(d ** (n + 1))) < 1e-12


def test_pauli_product_d2_is_xx():
    assert max_abs_diff(pauli_product("x", 2, 1), np.kron(shift_x(2), shift_x(2))) == 0


def test_pauli_product_rejects_bad_axis():
    with pytest.raises(ValueError):
        pauli_product("y", 2, 1)


def test_v_of_p_unitary():
    for d in (2, 3, 4, 5):
        for n in (1, 2):
            assert is_unitary(v_of_p(pauli_product("x", d, n), d), TOL)
            assert is_unitary(v_of_p(pauli_product("z", d, n), d), TOL)


def test_v_of_p_single_qubit_form():
    out = v_of_p(shift_x(2), 2)
    expected = (np.eye(2) - 1j * shift_x(2)) / np.sqrt(2)
    assert max_abs_diff(out, expected) < 1e-15


def test_v_of_p_identity_gives_unimodular_scalar():
    for d in (2, 3, 5):
        out = v_of_p(np.eye(d), d)
        scalar = np.sum(chu(d).values) / np.sqrt(d)
        assert abs(abs(scalar) - 1) < TOL
        assert max_abs_diff(out, scalar * np.eye(d)) < 1e-14


def _power_sum(p, d):
    c = chu(d).values
    return sum(c[k] * np.linalg.matrix_power(p, k) for k in range(d)) / np.sqrt(d)


def test_v_of_p_matches_power_sum():
    # a P with one nonzero per column takes the row-map powers; any other
    # P, such as a conjugated Pauli product, is refused
    rng = np.random.default_rng(23)
    for d in (2, 3, 4, 5):
        for n in (1, 2):
            for axis in "xz":
                p = pauli_product(axis, d, n)
                assert len(column_sparse_form(p)[0]) == 1
                assert max_abs_diff(v_of_p(p, d), _power_sum(p, d)) < 1e-12, (d, n, axis)
        u = random_unitary(rng, d * d)
        p = u @ np.kron(shift_x(d), phase_z(d)) @ u.conj().T
        with pytest.raises(ValueError, match="one nonzero per column"):
            v_of_p(p, d)


def test_v_of_p_rejects_wrong_order():
    # X_3 and Z_3 have order 3, not 4: the row-map powers end off the
    # identity map (X) or on it with phases other than 1 (Z); a conjugated
    # X_3 has no row map and is refused before any power
    u = random_unitary(np.random.default_rng(29), 3)
    for p in (shift_x(3), phase_z(3)):
        with pytest.raises(ValueError, match="P\\^4 = I"):
            v_of_p(p, 4)
    with pytest.raises(ValueError, match="one nonzero per column"):
        v_of_p(u @ shift_x(3) @ u.conj().T, 4)


def test_v_of_p_traced_peak_is_two_operators():
    # the result and P itself, plus O(D) power bookkeeping: P^d = I is read
    # from the last power, with no dense identity, difference or power
    import tracemalloc

    d, n = 8, 2
    v_of_p(pauli_product("x", d, n), d)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        v_of_p(pauli_product("x", d, n), d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * (d ** (n + 1)) ** 2 * 16


def test_v_of_p_rejects_nonunitary():
    with pytest.raises(ValueError):
        v_of_p(np.diag([1.0, 2.0]), 2)


def test_v_of_p_refuses_a_non_square_operator():
    with pytest.raises(ValueError, match="v_of_p: operator is not square"):
        v_of_p(np.ones((2, 3)), 2)


def test_exp_generalization_at_zero():
    assert max_abs_diff(exp_generalization(shift_x(3), 0.0), np.eye(3)) < 1e-14


def test_exp_generalization_hermitian_case():
    p = np.kron(shift_x(2), shift_x(2))
    theta = np.pi / 4
    out = exp_generalization(p, theta)
    expected = np.cos(theta) * np.eye(4) - 1j * np.sin(theta) * p
    assert max_abs_diff(out, expected) < 1e-12
    assert is_unitary(out, TOL)


def test_exp_generalization_fails_unitarity_for_qudits():
    for d in range(3, 8):
        check = is_unitary(exp_generalization(shift_x(d), np.pi / 4), TOL)
        assert not check
        assert check.max_deviation > 1e-2


def test_exp_generalization_matches_scipy_expm():
    # scipy is a test-only dependency: its expm is the oracle for the numpy one
    from scipy.linalg import expm

    rng = np.random.default_rng(41)
    for d in range(2, 9):
        nilpotent = np.triu(random_matrix(rng, d), 1)
        mats = (shift_x(d), phase_z(d), pauli_product("x", d, 1), pauli_product("z", d, 1),
                random_matrix(rng, d), nilpotent)
        for p in mats:
            for theta in (0.0, np.pi / 4, 1.3, 7.0):
                want = expm(-1j * theta * p)
                got = exp_generalization(p, theta)
                assert max_abs_diff(got, want) <= 1e-13 * np.abs(want).max(), (d, theta)


def test_u_enc_unitary():
    for d in (2, 3):
        for n in (1, 2):
            assert is_unitary(u_enc(ProtocolParams(d, n)), TOL)


def test_u_enc_d2_matches_pauli_expansion():
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
        assert max_abs_diff(u_enc(ProtocolParams(2, n)), expected) < 1e-12


def test_u_enc_matches_double_sum():
    c3 = chu(3).values
    for n in (1, 2):
        total = np.zeros((3 ** (n + 1),) * 2, dtype=complex)
        for k in range(3):
            for l in range(3):
                term = kron_all([x_power(3, k) @ z_power(3, l)] * (n + 1))
                total += c3[k] * c3[l] * term
        assert max_abs_diff(u_enc(ProtocolParams(3, n)), total / 3) < 1e-12


def test_u_enc_is_the_dense_product_of_its_factors():
    # u_enc scales V(P_X)'s columns by V(P_Z)'s diagonal; the GEMM of the
    # two factors rounds its complex products differently, so not bitwise
    for d, n in ((2, 1), (3, 2), (4, 2), (5, 1), (2, 4)):
        vx, vz = (v_of_p(pauli_product(axis, d, n), d) for axis in "xz")
        assert max_abs_diff(u_enc(ProtocolParams(d, n)), vx @ vz) <= 1e-15, (d, n)


def test_encryption_check_holds_two_operators():
    # V(P_Z) is dropped for its diagonal before V(P_X) is built, and the
    # product is V(P_X) scaled in place: the peak is one V(P) and its P
    import tracemalloc

    for d, n in ((4, 4), (6, 3)):
        params = suite_params(d, n)
        _check_encryption_unitary(params)  # lazy set-up outside the trace
        tracemalloc.start()
        try:
            worst = _check_encryption_unitary(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        operator_bytes = 16 * d ** (2 * (n + 1))
        assert worst < TOL
        assert peak <= 2.2 * operator_bytes, (d, n, peak / operator_bytes)


def test_u_enc_matches_independent_factorization():
    d, n = 3, 1
    c = chu(d).values
    px = pauli_product("x", d, n)
    pz = pauli_product("z", d, n)
    ax = sum(c[k] * np.linalg.matrix_power(px, k) for k in range(d)) / np.sqrt(d)
    az = sum(c[k] * np.linalg.matrix_power(pz, k) for k in range(d)) / np.sqrt(d)
    assert max_abs_diff(u_enc(ProtocolParams(d, n)), ax @ az) < 1e-12


def test_c_gate_unitary():
    for d in range(2, 8):
        assert is_unitary(c_gate(d), TOL)


def test_c_gate_matches_paper_product():
    # C = (sum_c X^{2c} x |c><c|) . (I x F^2), multiplied out as written;
    # the product carries the roundoff of F @ F, c_gate the exact permutation
    for d in range(2, 10):
        f2 = fourier(d) @ fourier(d)
        ctrl = np.zeros((d * d, d * d), dtype=complex)
        for c in range(d):
            proj = np.zeros((d, d), dtype=complex)
            proj[c, c] = 1.0
            ctrl += np.kron(x_power(d, 2 * c), proj)
        assert max_abs_diff(c_gate(d), ctrl @ np.kron(np.eye(d), f2)) <= 1e-14, d


def test_c_gate_is_an_exact_permutation():
    # |a, c> -> |a - 2c, -c> with every nonzero exactly 1, so the suite's
    # products with it stay gathers
    for d in range(2, 17):
        (rows,), (entries,) = column_sparse_form(c_gate(d))
        a, c = np.divmod(np.arange(d * d), d)
        assert np.array_equal(rows, ((a - 2 * c) % d) * d + (-c) % d), d
        assert np.array_equal(entries, np.ones(d * d)), d


def test_c_gate_d2_is_identity():
    assert max_abs_diff(c_gate(2), np.eye(4)) < 1e-12


def test_c_gate_relays_data_through_bell_pair():
    rng = np.random.default_rng(40)
    for d in (2, 3, 4, 5):
        bell = bell_amplitudes(d)
        eye = np.eye(d)
        psi = random_unit_vector(rng, d)
        lhs = np.zeros(d ** 3, dtype=complex)
        for m in range(d):
            for n in range(d):
                op = x_power(d, m) @ z_power(d, n)
                lhs += np.kron(op @ psi, np.kron(op, eye) @ bell)
        lhs = np.kron(eye, c_gate(d)) @ (lhs / d)
        assert max_abs_diff(lhs, np.kron(bell, psi)) < TOL


def test_u_dec_unitary():
    for d, n in [(2, 1), (3, 2), (4, 1)]:
        assert is_unitary(u_dec_dense(ProtocolParams(d, n)), TOL)


def test_u_dec_matches_literal_sum():
    for d, n in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        c = chu(d).values
        bell = bell_amplitudes(d)
        pair_head = swap_gate(d) @ c_gate(d)
        total = np.zeros((d ** (n + 1),) * 2, dtype=complex)
        for k in range(d):
            for l in range(d):
                o = np.kron(x_power(d, k) @ z_power(d, l), np.eye(d))
                proj = np.outer(o @ bell, (o @ bell).conj())
                tail = kron_all([x_power(d, k) @ z_power(d, -l)] * (n - 1))
                total += np.conj(c[k] * c[l]) * np.kron(pair_head @ proj, tail)
        assert max_abs_diff(u_dec_dense(ProtocolParams(d, n)), total) < 1e-12


def test_dec_projector_sum_matches_kron_loop():
    for d in (2, 3, 4, 5):
        for n in (1, 2, 3):
            got = dec_projector_sum(ProtocolParams(d, n))
            assert max_abs_diff(got, dec_projector_sum_loop(d, n)) < 1e-14, (d, n)


def test_dec_projector_sum_unitary():
    for d, n in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        assert is_unitary(dec_projector_sum(ProtocolParams(d, n)), TOL)


def test_u_dec_factors_through_projector_sum():
    # the head is an exact permutation, so its row-block gather keeps every
    # bit of the dense product with the kron-built head
    for d, n in ((3, 2), (4, 3), (5, 1)):
        params = ProtocolParams(d, n)
        head = np.kron(swap_gate(d) @ c_gate(d), np.eye(d ** (n - 1)))
        assert max_abs_diff(u_dec_dense(params), head @ dec_projector_sum(params)) == 0, (d, n)


def _random_register_state(rng, d, n):
    reg = protocol_register(d, n)
    return StateVector(reg, random_unit_vector(rng, reg.dim))


def test_udec_factored_matches_dense_operator():
    rng = np.random.default_rng(31)
    for d, n_max in [(2, 4), (3, 3), (4, 2), (5, 2), (6, 2), (16, 1)]:
        for n in range(1, n_max + 1):
            for t in range(1, n + 1):
                params = ProtocolParams(d, n, target_party=t)
                state = _random_register_state(rng, d, n)
                wires = [f"S{t}", f"N{t}"] + [f"N{j}" for j in range(1, n + 1) if j != t]
                expected = embed_apply(state, u_dec_dense(params), wires)
                got = apply_circuit(state, build_udec_factored(params))
                assert got.register == state.register
                assert max_abs_diff(got.amplitudes, expected.amplitudes) < 1e-12, (d, n, t)


def test_apply_u_dec_leaves_input_unmodified():
    # the default decryption, the factored udec circuit, run on the state
    state = _random_register_state(np.random.default_rng(32), 3, 3)
    before = state.amplitudes.copy()
    out = apply_circuit(state, build_udec_factored(ProtocolParams(3, 3, target_party=2)))
    assert np.array_equal(state.amplitudes, before)
    assert not np.shares_memory(out.amplitudes, state.amplitudes)


def test_projector_algebra_check_equals_literal_products():
    # the check's Gram-matrix form is the deviation of every product Pi_a Pi_b
    for d in range(2, 6):
        v = bell_basis(d)
        projs = np.einsum("ai,aj->aij", v, v.conj())
        literal = 0.0
        for a in range(d * d):
            expect = np.zeros_like(projs)
            expect[a] = projs[a]
            literal = max(literal, max_abs_diff(projs[a] @ projs, expect))
        assert abs(_check_projector_algebra(v, v.conj() @ v.T) - literal) < 1e-15, d


def test_bell_trace_delta_check_equals_literal_traces():
    # verify reports bell_trace_delta from the orthonormality check: the Gram
    # matrix's worst entry deviation is that of every trace
    # Tr((O_a x I)|Phi><Phi|(O_b^dag x I)) from delta_ab
    for d in range(2, 6):
        bell = bell_amplitudes(d)
        ops = [np.kron(op, np.eye(d)) for op in weyl_table(d)]
        literal = 0.0
        for a, oa in enumerate(ops):
            ma = np.outer(oa @ bell, bell.conj())
            for b, ob in enumerate(ops):
                tr = np.einsum("ij,ji->", ma, ob.conj().T)
                literal = max(literal, abs(tr - (1.0 if a == b else 0.0)))
        v = bell_basis(d)
        assert abs(_check_bell_basis_orthonormal(v.conj() @ v.T) - literal) < 1e-15, d


def test_run_protocol_multi_share():
    report = run_protocol(ProtocolParams(3, 2), seed=7)
    assert max(report.marginal_deviations) < TOL
    assert report.decryption_fidelity > 1 - TOL
    assert all(r["fidelity"] > 1 - TOL for r in report.bell_residuals)
    assert report.passed


def test_run_protocol_three_shares():
    report = run_protocol(ProtocolParams(3, 3), seed=3)
    assert max(report.marginal_deviations) < TOL
    assert report.decryption_fidelity > 1 - TOL


def test_run_protocol_basis_input_single_share():
    psi = basis_state(Register(2, ("A",)), (0,))
    report = run_protocol(ProtocolParams(2, 1), psi=psi)
    assert report.decryption_fidelity > 1 - TOL


def test_single_share_brute_force_oracle():
    # independent 8-dim evaluation with explicit kron placement only
    psi = np.array([1.0, 0.0], dtype=complex)
    bell = bell_amplitudes(2)
    init = np.kron(psi, bell)  # wires (A, S1, N1)
    enc = np.kron(u_enc(ProtocolParams(2, 1)), np.eye(2))  # on (A, S1)
    dec = np.kron(np.eye(2), u_dec_dense(ProtocolParams(2, 1)))  # on (S1, N1)
    final = dec @ enc @ init
    closed = np.zeros(8, dtype=complex)
    # (1/sqrt 2) sum_p |p>_A |0>_S1 |p>_N1
    closed[0b000] = closed[0b101] = 1 / np.sqrt(2)
    assert abs(abs(np.vdot(closed, final)) - 1) < TOL
    report = run_protocol(ProtocolParams(2, 1), psi=basis_state(Register(2, ("A",)), (0,)))
    assert abs(report.decryption_fidelity - abs(np.vdot(closed, final))) < 1e-12


def test_encrypted_state_partial_trace_is_mixed():
    # build rho_enc explicitly for (d, n) = (3, 2) and trace all but S1
    d, n = 3, 2
    rng = np.random.default_rng(17)
    reg = protocol_register(d, n)
    psi = random_unit_vector(rng, d)
    state = product_state(
        reg,
        [(("A",), psi)]
        + [((f"S{i}", f"N{i}"), bell_amplitudes(d)) for i in range(1, n + 1)],
    )
    state = embed_apply(state, u_enc(ProtocolParams(d, n)), ("A", "S1", "S2"))
    rho_enc = DensityMatrix(reg, np.outer(state.amplitudes, state.amplitudes.conj()))
    for wire in ("S1", "S2"):
        marg = partial_trace(rho_enc, (wire,))
        assert max_abs_diff(marg.matrix, np.eye(d) / d) < TOL


def test_single_share_marginal_leaks_for_generic_input():
    # with one share the encrypted marginal is not maximally mixed;
    # decryption still succeeds
    report = run_protocol(ProtocolParams(2, 1), seed=1)
    assert report.decryption_fidelity > 1 - TOL
    assert max(report.marginal_deviations) > 1e-3
    assert not report.passed


def test_run_protocol_circuit_path_matches_dense():
    dense = run_protocol(ProtocolParams(3, 2), seed=9)
    circ = run_protocol(ProtocolParams(3, 2), seed=9, decrypt_with_circuit=True)
    assert circ.decryption_fidelity > 1 - TOL
    assert abs(dense.decryption_fidelity - circ.decryption_fidelity) < 1e-12
    assert max_abs_diff(dense.marginal_deviations, circ.marginal_deviations) < 1e-12


def test_run_protocol_builds_no_dense_operator_on_circuit_paths(monkeypatch):
    from quditclone import circuits, protocol

    def refuse(*args, **kwargs):
        raise AssertionError("run_protocol built a dense operator")

    monkeypatch.setattr(protocol, "u_enc", refuse)
    monkeypatch.setattr(protocol, "v_of_p", refuse)
    monkeypatch.setattr(protocol, "u_dec_dense", refuse)
    monkeypatch.setattr(protocol, "dec_projector_sum", refuse)
    monkeypatch.setattr(circuits, "circuit_to_unitary", refuse)
    for decrypt_with_circuit in (False, True):
        report = run_protocol(
            ProtocolParams(3, 2, target_party=2), seed=21,
            decrypt_with_circuit=decrypt_with_circuit,
        )
        assert report.passed


def test_run_protocol_scores_without_density_oracles():
    # the state oracles live in the tests only: the package cannot reach them
    import quditclone
    from quditclone import linalg, protocol

    oracles = ("product_state", "reduced_density", "embed_apply", "overlap",
               "partial_trace", "DensityMatrix")
    for module in (quditclone, linalg, protocol):
        assert [n for n in oracles if hasattr(module, n)] == [], module.__name__
    for decrypt_with_circuit in (False, True):
        report = run_protocol(
            ProtocolParams(3, 2, target_party=2), seed=5,
            decrypt_with_circuit=decrypt_with_circuit,
        )
        assert report.passed
        assert all(r["fidelity"] > 1 - TOL for r in report.bell_residuals)


def test_run_protocol_reuses_its_circuits(monkeypatch):
    # a second run at the same (d, n, path) builds and compiles nothing
    from quditclone import circuits, protocol

    names = ("build_enc_factored", "build_udec_factored", "build_udec_circuit",
             "_compile_run")
    real = {name: getattr(circuits, name) for name in names}
    calls = dict.fromkeys(names, 0)

    def counted(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return real[name](*args, **kwargs)
        return call

    def refuse(*args, **kwargs):
        raise AssertionError("a cached run built or compiled a circuit")

    protocol._enc_circuit.cache_clear()
    protocol._dec_circuit.cache_clear()
    for name in names:
        monkeypatch.setattr(circuits, name, counted(name))
    params = ProtocolParams(3, 2, target_party=1)
    first = run_protocol(params, seed=17)
    assert calls["build_enc_factored"] == calls["build_udec_factored"] == 1
    assert calls["_compile_run"] > 0
    for name in names:
        monkeypatch.setattr(circuits, name, refuse)
    again = run_protocol(params, seed=17)
    assert again.to_dict() == first.to_dict()
    # another target reuses them, and the literal path builds only its
    # own decryption: both paths share one encryption per (d, n)
    other = run_protocol(ProtocolParams(3, 2, target_party=2), seed=17)
    calls.update(dict.fromkeys(names, 0))
    for name in names:
        monkeypatch.setattr(circuits, name, counted(name))
    literal = run_protocol(params, seed=17, decrypt_with_circuit=True)
    assert calls["build_udec_circuit"] == 1
    assert calls["build_enc_factored"] == calls["build_udec_factored"] == 0
    assert other.passed and literal.passed
    assert literal.decryption_fidelity == pytest.approx(first.decryption_fidelity, abs=1e-12)
    assert other.bell_residuals[0]["pair"] == ["A", "N2"]


def test_run_report_is_plain_json():
    # an np.float64 score would make `passed` an np.bool_, which json
    # refuses; a path flag that is no bool is still reported as one
    for n, flag in ((1, 0), (2, 1)):
        report = run_protocol(ProtocolParams(3, n), seed=4, decrypt_with_circuit=flag)
        assert report.to_dict()["used_circuit"] is bool(flag)
        assert type(report.passed) is bool
        assert type(report.decryption_fidelity) is float
        assert all(type(m) is float for m in report.marginal_deviations)
        assert all(type(r["fidelity"]) is float for r in report.bell_residuals)
        json.dumps({**report.to_dict(), "timings_ms": report.timings_ms})


def test_run_protocol_circuit_path_other_target():
    report = run_protocol(
        ProtocolParams(3, 2, target_party=2), seed=13, decrypt_with_circuit=True
    )
    assert report.decryption_fidelity > 1 - TOL
    assert report.bell_residuals[0]["pair"] == ["A", "N2"]


def test_run_protocol_other_target_party():
    base = run_protocol(ProtocolParams(3, 2, target_party=1), seed=11)
    other = run_protocol(ProtocolParams(3, 2, target_party=2), seed=11)
    assert other.decryption_fidelity > 1 - TOL
    assert abs(base.decryption_fidelity - other.decryption_fidelity) < TOL
    assert max_abs_diff(
        sorted(base.marginal_deviations), sorted(other.marginal_deviations)
    ) < TOL
    assert other.bell_residuals[0]["pair"] == ["A", "N2"]
    assert all(r["fidelity"] > 1 - TOL for r in other.bell_residuals)


def test_protocol_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(1, 2)
    with pytest.raises(ValueError):
        ProtocolParams(3, 0)
    with pytest.raises(ValueError):
        ProtocolParams(3, 2, target_party=3)
    with pytest.raises(SizeCapError):
        ProtocolParams(4, 6)  # operator would need 4^7 = 16384


def test_protocol_params_refuse_non_integers():
    with pytest.raises(ValueError, match="qudit dimension must be an integer"):
        ProtocolParams(2.5, 1)
    with pytest.raises(ValueError, match="party count must be an integer"):
        ProtocolParams(3, 2.0)
    with pytest.raises(ValueError, match="target party must be an integer"):
        ProtocolParams(3, 2, target_party=1.0)
    assert ProtocolParams(np.int64(3), np.int64(2), np.int64(2)) == ProtocolParams(3, 2, 2)


def test_run_protocol_state_cap():
    with pytest.raises(SizeCapError):
        run_protocol(ProtocolParams(2, 11), seed=0)  # 2^23 amplitudes


def test_protocol_params_admits_what_a_run_can_hold():
    # a run holds the d^(2n+1)-amplitude state (161^3 <= 2^22 < 162^3) and
    # gather tables of at most d^(n+1) entries, never a d^(n+1)-dim
    # operator; a huge n is refused without forming the power
    for d, n in ((17, 2), (21, 2), (64, 1), (65, 1), (161, 1), (2, 10)):
        ProtocolParams(d, n)
    for d, n in ((22, 2), (162, 1), (2, 11), (3, 10 ** 8)):
        with pytest.raises(SizeCapError, match="cap"):
            ProtocolParams(d, n)


def test_dense_oracles_refuse_beyond_the_operator_cap():
    params = ProtocolParams(17, 2)  # a run fits; a 17^3 = 4913-dim operator does not
    for oracle in (dec_projector_sum, u_dec_dense, u_enc):
        with pytest.raises(SizeCapError):
            oracle(params)


def test_run_protocol_rejects_multiwire_input():
    psi = basis_state(Register(2, ("A", "B")), (0, 0))
    with pytest.raises(ValueError):
        run_protocol(ProtocolParams(2, 1), psi=psi)


def test_random_state_is_seeded():
    a = random_state(5, 123)
    b = random_state(5, 123)
    assert max_abs_diff(a.amplitudes, b.amplitudes) == 0


def test_verify_identities_passes_for_small_dims():
    for d in (2, 3):
        report = verify_identities(d)
        assert report.passed, [c.name for c in report.checks if not c.passed]
        assert len(report.checks) == 11


def test_verify_identities_report_shape():
    report = verify_identities(2)
    data = report.to_dict()
    assert data["d"] == 2 and data["passed"] is True
    names = {c["name"] for c in data["checks"]}
    assert {"ricochet", "gauss_sum", "bell_trace_delta"} <= names
    assert all(isinstance(c["max_deviation"], float) for c in data["checks"])


def test_verify_identities_refuses_cubic_suite_objects(monkeypatch):
    from quditclone import protocol

    def check_ran(*args):
        raise AssertionError("an identity check ran")

    # at n = 1 the oracles are 17^2-dim, but the relay check works on 17^3-amplitude states
    monkeypatch.setattr(protocol, "_check_ricochet", check_ran)
    with pytest.raises(SizeCapError, match="identity suite"):
        verify_identities(17, n=1)


def test_verify_builds_each_oracle_once(monkeypatch):
    from quditclone import protocol

    calls = {"v_of_p": 0, "dec_projector_sum": 0}

    def counted(name):
        real = getattr(protocol, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(protocol, name, counted(name))
    assert verify_identities(3).passed
    assert calls == {"v_of_p": 2, "dec_projector_sum": 1}


def test_bell_relay_draws_the_per_sample_loop_samples(monkeypatch):
    # the batched relay check leaves the generator where the per-sample
    # loop does, so every later check of the suite sees the same draws
    from quditclone import protocol

    seen = []
    real = protocol._check_bell_relay

    def recorded(d, rng, samples):
        worst = real(d, rng, samples)
        seen.append((worst, rng.bit_generator.state))
        return worst

    monkeypatch.setattr(protocol, "_check_bell_relay", recorded)
    for d in (2, 3, 5):
        for seed in (0, 5):
            seen.clear()
            report = verify_identities(d, seed=seed)
            rng = np.random.default_rng(seed)
            protocol._check_ricochet(d, rng, 50)
            want = bell_relay_loop(d, rng, 50)
            (worst, state), = seen
            assert state == rng.bit_generator.state, (d, seed)
            assert abs(worst - want) <= 1e-14, (d, seed)
            assert report.checks[1].name == "bell_relay"
            assert report.checks[1].max_deviation == worst
    # with the identity for the relay gate the deviation is O(1) and set by
    # the draws, so the two agree only if each sample draws the same psi
    monkeypatch.setattr(protocol, "c_gate", lambda d: np.eye(d * d))
    for d in (3, 5):
        for seed in (0, 5):
            got = real(d, np.random.default_rng(seed), 50)
            want = bell_relay_loop(d, np.random.default_rng(seed), 50)
            assert got > 0.1 and abs(got - want) < 1e-12, (d, seed)
    # no samples, no draws
    rng = np.random.default_rng(0)
    assert real(3, rng, 0) == 0.0
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_batched_checks_match_their_per_sample_loops(monkeypatch):
    # each batched check gives its loop's deviation and leaves the generator
    # where the loop does, so every later check of the suite sees the same draws
    from quditclone import gates

    def agree(tol):
        for d in (2, 3, 5, 8):
            got, want = _check_bell_pair_invariance(d), bell_pair_invariance_loop(d)
            assert abs(got - want) <= tol, d
            for check, loop in ((_check_ricochet, ricochet_loop),
                                (_check_partial_trace_product, partial_trace_product_loop)):
                for seed, samples in ((0, 50), (5, 7), (0, 0)):
                    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                    got, want = check(d, rng, samples), loop(d, ref, samples)
                    assert abs(got - want) <= tol, (check.__name__, d, seed)
                    assert rng.bit_generator.state == ref.bit_generator.state, (check.__name__, d)

    agree(1e-14)
    # on a state that is not maximally entangled the deviations are O(1) and
    # set by the draws, so the two agree only if each sample draws the same
    # operators and the contraction pairs the same factors
    rng = np.random.default_rng(43)
    states = {d: random_unit_vector(rng, d * d) for d in (2, 3, 5, 8)}
    monkeypatch.setattr(gates, "bell_amplitudes", lambda d: states[d])
    assert ricochet_loop(3, np.random.default_rng(0), 5) > 0.1
    agree(1e-12)


def test_bell_relay_forms_no_cubic_operator():
    # I x C reaches the samples as a d^2 x d^2 matmul by C^T; the dense
    # d^3 x d^3 operator was 256 MiB at d = 16
    import tracemalloc

    from quditclone import protocol

    protocol._check_bell_relay(16, np.random.default_rng(0), 5)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        worst = protocol._check_bell_relay(16, np.random.default_rng(0), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert worst < TOL
    assert peak <= 8 * 2 ** 20, peak / 2 ** 20


def test_suite_operators_take_the_structured_path():
    # every operator the suite checks has at most d nonzeros in each column,
    # V(P_Z) is diagonal, so V(P_X) V(P_Z) is a column scale of V(P_X), and
    # the decryption is a row-block scatter of the projector sum, so no check
    # falls back to a D x D product; a roundoff nonzero would fail here.
    # (8, 3), the one pair at the operator cap, is left out: its 4096-dim
    # operators take 268 MB each, and the same builders run at (8, 2) and (7, 3)
    def count(m):
        parts = column_sparse_form(m)
        return None if parts is None else len(parts[0])

    for d in range(2, 9):
        for n in range(1, 4):
            if (d, n) == (8, 3):
                continue
            params = suite_params(d, n)
            vx, vz = (v_of_p(pauli_product(axis, d, n), d) for axis in "xz")
            assert count(vz) == 1 and np.array_equal(vz, np.diag(np.diagonal(vz))), (d, n)
            assert count(vx) == count(vx * np.diagonal(vz)) == d, (d, n)
            del vx, vz
            assert count(dec_projector_sum(params)) == count(u_dec_dense(params)) == d, (d, n)


def test_u_enc_is_invariant_under_wire_permutations():
    # a run encrypts on its own share order, which is the same operator
    import itertools

    for d, n in ((2, 3), (3, 2), (4, 2)):
        k = n + 1
        u = u_enc(ProtocolParams(d, n)).reshape([d] * (2 * k))
        for perm in itertools.permutations(range(k)):
            permuted = u.transpose([*perm, *(k + p for p in perm)])
            assert max_abs_diff(permuted, u) < 1e-12, (d, n, perm)


def test_run_prepares_the_product_state_on_its_register():
    from quditclone.protocol import _prepare, _run_register

    rng = np.random.default_rng(53)
    for n in range(1, 5):
        for d in (2, 3):
            psi = random_unit_vector(rng, d)
            for t in range(1, n + 1):
                reg = _run_register(d, n, t)
                assert sorted(reg.wires) == sorted(protocol_register(d, n).wires)
                want = product_state(
                    reg,
                    [(("A",), psi)]
                    + [((f"S{i}", f"N{i}"), bell_amplitudes(d)) for i in range(1, n + 1)],
                )
                # the buffer is zeroed first: none of its old entries survive
                buf = np.full(d ** (2 * n + 1), np.nan, dtype=complex)
                got = _prepare(d, n, psi, buf)
                assert got.shape == (d,) * (2 * n + 1)
                assert np.shares_memory(got, buf)
                assert max_abs_diff(got.reshape(-1), want.amplitudes) < 1e-15, (d, n, t)


def test_run_circuits_act_in_place_on_the_run_register():
    # encryption's wires lead the run register and decryption's trail it
    # (S_t is the last of the one and the first of the other),
    # each in circuit order, so neither circuit needs a transposed copy
    from quditclone.protocol import _dec_circuit, _enc_circuit, _run_register

    for n in (1, 2, 3):
        for literal in (False, True):
            reg = _run_register(3, n, n)
            enc, udec = _enc_circuit(3, n), _dec_circuit(3, n, literal)
            assert reg.positions(enc.register.wires) == tuple(range(n + 1))
            assert reg.positions(udec.register.wires) == tuple(range(n, 2 * n + 1))
            assert max_abs_diff(circuit_to_unitary(enc), u_enc(ProtocolParams(3, n))) < 1e-12
        # so do target t's own circuits on target t's register
        for t in range(1, n + 1):
            reg = _run_register(3, n, t)
            udec = build_udec_factored(ProtocolParams(3, n, t))
            assert reg.positions(udec.register.wires) == tuple(range(n, 2 * n + 1))


def test_every_target_runs_one_circuit_pair(monkeypatch):
    # after the first run at a (d, n, path), no target builds or compiles a
    # circuit, and each target's report is the target-n report with every
    # wire read under target t's name for its position, equal to the bit
    from quditclone import circuits
    from quditclone.protocol import _run_register

    def refuse(*args, **kwargs):
        raise AssertionError("a later target built or compiled a circuit")

    names = ("build_enc_factored", "build_udec_factored", "build_udec_circuit", "_compile")
    real = {name: getattr(circuits, name) for name in names}
    for d, n in ((2, 3), (3, 3), (4, 2)):
        for literal in (False, True):
            for name in names:
                monkeypatch.setattr(circuits, name, real[name])
            first = run_protocol(ProtocolParams(d, n, n), seed=19, decrypt_with_circuit=literal)
            for name in names:
                monkeypatch.setattr(circuits, name, refuse)
            for t in range(1, n + 1):
                got = run_protocol(ProtocolParams(d, n, t), seed=19,
                                   decrypt_with_circuit=literal).to_dict()
                as_t = dict(zip(_run_register(d, n, n).wires, _run_register(d, n, t).wires))
                want = first.to_dict()
                want["target_party"] = t
                marginals = {as_t[f"S{i}"]: m for i, m in enumerate(want["marginals"], 1)}
                want["marginals"] = [marginals[f"S{i}"] for i in range(1, n + 1)]
                want["bell_residuals"] = [{**r, "pair": [as_t[w] for w in r["pair"]]}
                                          for r in want["bell_residuals"]]
                assert got == want, (d, n, literal, t)


def _in_new_thread(fn, *args):
    """fn(*args) in a thread of its own, whose run buffers start empty."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn, *args).result()


def test_run_protocol_peak_memory_is_about_two_states():
    # a cold run allocates its two buffers, the state and one spare, and
    # nothing else state-sized; a warm run reuses them
    import tracemalloc

    def traced(params, literal):
        tracemalloc.start()
        try:
            report = run_protocol(params, seed=3, decrypt_with_circuit=literal)
            return report, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for d, n in ((4, 4), (6, 3), (64, 1)):
        params = ProtocolParams(d, n, target_party=n)
        state_bytes = 16 * d ** (2 * n + 1)
        for literal in (False, True):
            run_protocol(params, seed=3, decrypt_with_circuit=literal)  # compiles, warms
            cold, warm = _in_new_thread(traced, params, literal), traced(params, literal)
            for (report, peak), bound in ((cold, 2.5), (warm, 0.25)):
                # one share cannot hide the state (the known n = 1 leak)
                assert report.decryption_ok and (report.secrecy_ok or n == 1)
                assert peak <= bound * state_bytes, (d, n, literal, bound, peak / state_bytes)


def test_runs_leave_nothing_in_their_buffers():
    # one thread's runs, smaller after larger and back, give the bytes
    # that each gives cold in a thread of its own, and so do two threads
    # running at once
    cases = [
        (d, n, t, literal)
        for d, n in ((2, 2), (6, 3), (2, 2), (2, 8), (4, 4))
        for t in sorted({1, n})
        for literal in (False, True)
    ]

    def report(case):
        d, n, t, literal = case
        params = ProtocolParams(d, n, target_party=t)
        return json.dumps(run_protocol(params, seed=41, decrypt_with_circuit=literal).to_dict())

    cold = [_in_new_thread(report, case) for case in cases]
    assert _in_new_thread(lambda: [report(case) for case in cases]) == cold
    with ThreadPoolExecutor(2) as pool:
        assert list(pool.map(report, cases)) == cold
