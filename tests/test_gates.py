import numpy as np
import pytest

from conftest import basis_state, controlled_power, p_controlled, random_matrix, swap_gate
from quditclone import (
    Register,
    StateVector,
    fourier,
    max_abs_diff,
    phase_z,
    shift_x,
    x_power,
    z_power,
)
from quditclone.gates import bell_amplitudes, bell_basis, omega, weyl_row, weyl_table, z_phases

TOL = 1e-10
DIMS = range(2, 8)


def ket(d, *digits):
    return basis_state(Register(d, tuple(f"w{i}" for i in range(len(digits)))), digits)


def test_gates_refuse_a_non_integer_dimension():
    with pytest.raises(ValueError, match="qudit dimension must be an integer"):
        fourier(2.5)
    assert max_abs_diff(fourier(np.int64(3)), fourier(3)) == 0
    # a fractional power of X or Z is no Weyl operator
    with pytest.raises(ValueError, match="phase exponent must be an integer, got 0.5"):
        z_power(3, 0.5)
    with pytest.raises(ValueError, match="phase exponent must be an integer"):
        z_phases(3, 2.0)
    with pytest.raises(ValueError, match="shift exponent must be an integer, got 1.5"):
        x_power(3, 1.5)
    assert np.array_equal(x_power(3, np.int64(4)), x_power(3, 1))


def test_shift_x_is_pauli_x_for_d2():
    assert max_abs_diff(shift_x(2), np.array([[0, 1], [1, 0]])) == 0


def test_shift_x_wraps():
    out = shift_x(3) @ ket(3, 2).amplitudes
    assert max_abs_diff(out, ket(3, 0).amplitudes) == 0


def test_generator_order():
    for d in DIMS:
        assert max_abs_diff(np.linalg.matrix_power(shift_x(d), d), np.eye(d)) < 1e-12
        assert max_abs_diff(np.linalg.matrix_power(phase_z(d), d), np.eye(d)) < 1e-12


def test_adjoint_is_inverse_power():
    for d in DIMS:
        assert max_abs_diff(shift_x(d).conj().T, x_power(d, d - 1)) < 1e-12
        assert max_abs_diff(phase_z(d).conj().T, z_power(d, d - 1)) < 1e-12


def test_x_power_is_the_shifted_identity():
    # exact 0/1 entries, the exponent reduced mod d
    for d in (2, 3, 7):
        for k in (-d - 1, -1, 0, 1, d, 2 * d + 3):
            want = np.roll(np.eye(d, dtype=complex), k, axis=0)
            assert np.array_equal(x_power(d, k), want) and x_power(d, k).dtype == complex


def test_phase_z_d2_and_eigenphase():
    assert max_abs_diff(phase_z(2), np.diag([1, -1])) < 1e-15
    out = phase_z(3) @ ket(3, 1).amplitudes
    assert max_abs_diff(out, np.exp(2j * np.pi / 3) * ket(3, 1).amplitudes) < 1e-15


def test_fourier_d2_is_hadamard():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert max_abs_diff(fourier(2), h) < 1e-15


def test_fourier_conjugation_maps_z_to_x():
    for d in DIMS:
        f = fourier(d)
        assert max_abs_diff(f.conj().T @ phase_z(d) @ f, shift_x(d)) < TOL


def test_fourier_squared_reverses_index():
    f2 = fourier(3) @ fourier(3)
    assert max_abs_diff(f2 @ ket(3, 1).amplitudes, ket(3, 2).amplitudes) < 1e-15


def test_dimension_guard():
    for ctor in (shift_x, phase_z, fourier):
        with pytest.raises(ValueError):
            ctor(1)


def test_controlled_power_is_cnot_for_d2():
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert max_abs_diff(controlled_power(shift_x(2), 2), cnot) == 0


def test_controlled_power_modular_add():
    out = controlled_power(shift_x(3), 3) @ ket(3, 2, 2).amplitudes
    assert max_abs_diff(out, ket(3, 2, 1).amplitudes) == 0


def test_controlled_phase_power():
    out = controlled_power(phase_z(3), 3) @ ket(3, 1, 2).amplitudes
    w = omega(3)
    assert max_abs_diff(out, w ** 2 * ket(3, 1, 2).amplitudes) < 1e-15


def test_controlled_power_rejects_nonunitary():
    with pytest.raises(ValueError):
        controlled_power(np.diag([1.0, 2.0]), 2)


def test_p_controlled_level_zero_is_identity():
    for d in (2, 3, 4):
        assert max_abs_diff(p_controlled(shift_x(d), d, 0), np.eye(d * d)) == 0


def test_p_controlled_fires_only_on_level():
    gate = p_controlled(shift_x(3), 3, 2)
    hit = gate @ ket(3, 2, 0).amplitudes
    assert max_abs_diff(hit, ket(3, 2, 2).amplitudes) == 0  # applies X^2
    miss = gate @ ket(3, 1, 0).amplitudes
    assert max_abs_diff(miss, ket(3, 1, 0).amplitudes) == 0


def test_p_controlled_range_check():
    with pytest.raises(ValueError):
        p_controlled(shift_x(3), 3, 3)


def test_swap_gate():
    out = swap_gate(2) @ ket(2, 0, 1).amplitudes
    assert max_abs_diff(out, ket(2, 1, 0).amplitudes) == 0
    for d in DIMS:
        assert max_abs_diff(swap_gate(d) @ swap_gate(d), np.eye(d * d)) == 0
    bell = bell_amplitudes(3)
    assert max_abs_diff(swap_gate(3) @ bell, bell) == 0


def test_bell_state_values():
    def bell(d):  # a normalized StateVector, so its check on the norm runs too
        return StateVector(Register(d, ("q0", "q1")), bell_amplitudes(d)).amplitudes

    assert max_abs_diff(bell(2), np.array([1, 0, 0, 1]) / np.sqrt(2)) < 1e-15
    expected = np.zeros(9)
    expected[[0, 4, 8]] = 1 / np.sqrt(3)
    assert max_abs_diff(bell(3), expected) < 1e-15


def test_bell_state_preparation_circuit():
    for d in DIMS:
        prep = controlled_power(shift_x(d), d) @ np.kron(fourier(d), np.eye(d))
        zero = np.zeros(d * d)
        zero[0] = 1.0
        assert max_abs_diff(prep @ zero, bell_amplitudes(d)) < TOL


def test_weyl_displacement_values():
    assert max_abs_diff(x_power(3, 0) @ z_power(3, 0), np.eye(3)) == 0
    xz = x_power(2, 1) @ z_power(2, 1)
    assert max_abs_diff(xz, np.array([[0, -1], [1, 0]])) < 1e-15


def test_weyl_commutation():
    for d in DIMS:
        lhs = phase_z(d) @ shift_x(d)
        rhs = omega(d) * shift_x(d) @ phase_z(d)
        assert max_abs_diff(lhs, rhs) < 1e-12


def test_bell_basis_identity_member():
    for d in (2, 3, 4):
        assert max_abs_diff(bell_basis(d)[0], bell_amplitudes(d)) == 0


def test_bell_basis_matches_kron_definition():
    # row k*d + l is vec(X^k Z^l)/sqrt d, equal to the Kronecker form exactly
    for d in DIMS:
        basis = bell_basis(d)
        for k in range(d):
            for l in range(d):
                w = x_power(d, k) @ z_power(d, l)
                ref = np.kron(w, np.eye(d)) @ bell_amplitudes(d)
                assert np.array_equal(basis[k * d + l], ref)


def test_weyl_table_matches_displacements():
    # row k*d + l is X^k Z^l exactly; Z^-l is read at column (-l) mod d
    for d in range(2, 10):
        table = weyl_table(d)
        assert table.shape == (d * d, d, d)
        for k in range(d):
            for l in range(d):
                w = x_power(d, k) @ z_power(d, l)
                assert np.array_equal(table[k * d + l], w)
                assert weyl_row(d, k, -l) == k * d + (-l) % d
                assert np.array_equal(
                    table[weyl_row(d, k, -l)], x_power(d, k) @ z_power(d, -l)
                )


def test_bell_basis_orthonormal_d3():
    d = 3
    vecs = [bell_basis(d)[k * d + l] for k in range(d) for l in range(d)]
    gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    assert max_abs_diff(gram, np.eye(d * d)) < TOL


def test_bell_basis_completeness_d3():
    d = 3
    total = sum(
        np.outer(v, v.conj())
        for v in (bell_basis(d)[k * d + l] for k in range(d) for l in range(d))
    )
    assert max_abs_diff(total, np.eye(d * d)) < TOL


def test_ricochet_property():
    rng = np.random.default_rng(21)
    for d in DIMS:
        bell = bell_amplitudes(d)
        eye = np.eye(d)
        for _ in range(50):
            u = random_matrix(rng, d)
            assert max_abs_diff(np.kron(u, eye) @ bell, np.kron(eye, u.T) @ bell) < TOL


def test_projector_algebra_exhaustive():
    for d in (2, 3, 4):
        projs = [
            np.outer(v, v.conj())
            for v in (bell_basis(d)[k * d + l] for k in range(d) for l in range(d))
        ]
        for a, pa in enumerate(projs):
            for b, pb in enumerate(projs):
                expected = pa if a == b else np.zeros_like(pa)
                assert max_abs_diff(pa @ pb, expected) < TOL


def test_bell_pair_invariance_exhaustive():
    for d in DIMS:
        bell = bell_amplitudes(d)
        for k1 in range(d):
            for k2 in range(d):
                op = np.kron(
                    x_power(d, k1) @ z_power(d, -k2),
                    x_power(d, k1) @ z_power(d, k2),
                )
                assert max_abs_diff(op @ bell, bell) < TOL


def test_partial_trace_of_bell_sandwich():
    rng = np.random.default_rng(22)
    for d in DIMS:
        bell = bell_amplitudes(d)
        eye = np.eye(d)
        for _ in range(50):
            o1, o2 = random_matrix(rng, d), random_matrix(rng, d)
            v1 = np.kron(o1, eye) @ bell
            v2 = np.kron(o2, eye) @ bell
            lhs = np.einsum("ab,cb->ac", v1.reshape(d, d), v2.conj().reshape(d, d))
            assert max_abs_diff(lhs, o1 @ o2.conj().T / d) < TOL


def test_bell_trace_delta_exhaustive():
    for d in (2, 3, 4):
        bell = bell_amplitudes(d)
        eye = np.eye(d)
        for k in range(d):
            for l in range(d):
                left = np.kron(x_power(d, k) @ z_power(d, l), eye)
                for m in range(d):
                    for n in range(d):
                        right = np.kron(z_power(d, -n) @ x_power(d, -m), eye)
                        tr = np.trace(left @ np.outer(bell, bell.conj()) @ right)
                        want = 1.0 if (k, l) == (m, n) else 0.0
                        assert abs(tr - want) < TOL
