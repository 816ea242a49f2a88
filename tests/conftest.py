"""Shared test helpers: seeded random draws and dense reference states and gates."""

import numpy as np

from quditclone import cazac, gates, protocol
from quditclone.linalg import DEFAULT_TOL, Register, StateVector, _check_dim, is_unitary, kron_all


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_unit_vector(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_unitary(rng, d):
    q, r = np.linalg.qr(random_matrix(rng, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def basis_state(register: Register, digits) -> StateVector:
    """Computational basis ket |digits> in register order."""
    digits = tuple(digits)
    if len(digits) != register.num_wires:
        raise ValueError("one digit per wire required")
    idx = 0
    for x in digits:
        if not 0 <= x < register.d:
            raise ValueError(f"digit {x} out of range for d={register.d}")
        idx = idx * register.d + x
    amps = np.zeros(register.dim, dtype=complex)
    amps[idx] = 1.0
    return StateVector(register, amps)


def controlled_power(u: np.ndarray, d: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Dense C(U)|j>|k> = |j> U^j |k> on d^2 (control first)."""
    _check_dim(d)
    u = np.asarray(u, dtype=complex)
    if u.shape != (d, d):
        raise ValueError(f"controlled_power: gate shape {u.shape}, expected ({d}, {d})")
    check = is_unitary(u, tol)
    if not check:
        raise ValueError(
            f"controlled_power: gate is not unitary (deviation {check.max_deviation:.3e})"
        )
    out = np.zeros((d * d, d * d), dtype=complex)
    up = np.eye(d, dtype=complex)
    for j in range(d):
        out[j * d:(j + 1) * d, j * d:(j + 1) * d] = up
        up = u @ up
    return out


def p_controlled(u: np.ndarray, d: int, p: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Dense C_p(U)|j>|k> = |j> U^{j delta_{p,j}} |k>: applies U^p only when j = p."""
    _check_dim(d)
    if not 0 <= p < d:
        raise ValueError(f"p_controlled: level {p} out of range for d={d}")
    u = np.asarray(u, dtype=complex)
    if u.shape != (d, d):
        raise ValueError(f"p_controlled: gate shape {u.shape}, expected ({d}, {d})")
    check = is_unitary(u, tol)
    if not check:
        raise ValueError(
            f"p_controlled: gate is not unitary (deviation {check.max_deviation:.3e})"
        )
    out = np.eye(d * d, dtype=complex)
    out[p * d:(p + 1) * d, p * d:(p + 1) * d] = np.linalg.matrix_power(u, p)
    return out


def dec_projector_sum_loop(d: int, n: int) -> np.ndarray:
    """Reference A = sum_{k,l} conj(c_k c_l) Pi_kl x (X^k Z^-l)^{x(n-1)}, one Kronecker term at a time."""
    c = cazac.chu(d).values
    bell = gates.bell_basis(d)
    weyl = gates.weyl_table(d)
    dim = d ** (n + 1)
    out = np.zeros((dim, dim), dtype=complex)
    for k in range(d):
        for l in range(d):
            b = bell[k * d + l]
            proj = np.outer(b, b.conj())
            corr = weyl[gates.weyl_row(d, k, -l)]
            tail = kron_all([corr] * (n - 1)) if n >= 2 else np.eye(1, dtype=complex)
            out += np.conj(c[k] * c[l]) * np.kron(proj, tail)
    return out


def bell_relay_loop(d: int, rng, samples: int) -> float:
    """Reference relay check: per sample, sum_w (W_w psi) x (W_w x I)|Phi> term by term."""
    bell = gates.bell_amplitudes(d)
    eye = np.eye(d)
    cg = np.kron(eye, protocol.c_gate(d))
    weyl = gates.weyl_table(d)
    pairs = [np.kron(op, eye) @ bell for op in weyl]
    worst = 0.0
    for _ in range(samples):
        psi = random_unit_vector(rng, d)
        lhs = np.zeros(d ** 3, dtype=complex)
        for op, pair in zip(weyl, pairs):
            lhs += np.kron(op @ psi, pair)
        lhs = cg @ (lhs / d)
        worst = max(worst, float(np.max(np.abs(lhs - np.kron(bell, psi)))))
    return worst
