"""Generalized Pauli (Weyl) operators and their companion gates.

Conventions, with w = exp(2*pi*i/d):
    X|k> = |k+1 mod d>            (shift)
    Z|k> = w^k |k>                (phase)
    F|k> = (1/sqrt d) sum_j w^{jk} |j>
so that X = F^dag Z F. Negative powers are taken as the matching
positive powers (X^-m = X^{d-m}), exact by the order-d group structure.

``weyl_table`` is the one build of all d^2 X^k Z^l; ``bell_basis`` scales it.
"""

import numpy as np

from .linalg import _check_dim


def omega(d: int) -> complex:
    _check_dim(d)
    return np.exp(2j * np.pi / d)


def shift_x(d: int) -> np.ndarray:
    """Cyclic shift X: permutation matrix sending |k> to |k+1 mod d>."""
    return x_power(d, 1)


def phase_z(d: int) -> np.ndarray:
    """Diagonal phase Z = diag(1, w, ..., w^{d-1})."""
    return z_power(d, 1)


def fourier(d: int) -> np.ndarray:
    """Discrete Fourier gate, the qudit Hadamard generalization."""
    _check_dim(d)
    j = np.arange(d)
    return omega(d) ** np.outer(j, j) / np.sqrt(d)


def x_power(d: int, k: int) -> np.ndarray:
    """X^k with the exponent reduced mod d."""
    _check_dim(d)
    m = np.zeros((d, d), dtype=complex)
    for j in range(d):
        m[(j + k) % d, j] = 1.0
    return m


def z_phases(d: int, l: int) -> np.ndarray:
    """Diagonal of Z^l: w^(k*l) for k = 0..d-1, the exponent reduced mod d."""
    _check_dim(d)
    return omega(d) ** (np.arange(d) * (l % d))


def z_power(d: int, l: int) -> np.ndarray:
    """Z^l with the exponent reduced mod d."""
    return np.diag(z_phases(d, l))


def swap_gate(d: int) -> np.ndarray:
    """SWAP|j>|k> = |k>|j>."""
    _check_dim(d)
    s = np.zeros((d * d, d * d), dtype=complex)
    j, k = np.divmod(np.arange(d * d), d)
    s[k * d + j, j * d + k] = 1.0
    return s


def bell_amplitudes(d: int) -> np.ndarray:
    """Flat amplitudes of the maximally entangled two-qudit state."""
    _check_dim(d)
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * d + np.arange(d)] = 1.0
    return v / np.sqrt(d)


def weyl_row(d: int, k, l):
    """Row of X^k Z^l in ``weyl_table(d)``; exponents reduce mod d (l = -m is Z^-m)."""
    return (k % d) * d + l % d


def weyl_table(d: int) -> np.ndarray:
    """All d^2 displacements X^k Z^l as a (d^2, d, d) array, X^k Z^l at row k*d + l."""
    _check_dim(d)
    j = np.arange(d)
    k, l, p = j[:, None, None], j[None, :, None], j[None, None, :]
    out = np.zeros((d, d, d, d), dtype=complex)
    out[k, l, (p + k) % d, p] = omega(d) ** (l * p)  # X^k Z^l |p> = w^{pl} |p+k>
    return out.reshape(d * d, d, d)


def bell_basis(d: int) -> np.ndarray:
    """Bell-basis vectors (X^k Z^l x I)|Phi_d> = vec(X^k Z^l)/sqrt d, row k*d + l."""
    out = weyl_table(d).reshape(d * d, d * d)
    return np.multiply(out, 1 / np.sqrt(d), out=out)

