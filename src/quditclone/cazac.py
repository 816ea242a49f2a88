"""Zadoff-Chu sequences and the correlation analytics behind them.

The encryption coefficients are the Chu sequence
    c(k) = exp(-i pi k (k + d%2) / d),
the root u=1, offset q=0 member of the Zadoff-Chu family. Every valid
member has unit modulus, a delta-function periodic autocorrelation and a
perfectly flat DFT spectrum; those three facts carry all the unitarity
proofs downstream.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, _check_dim, _check_state_size


@dataclass(frozen=True)
class ChuSequence:
    """A length-d Zadoff-Chu coefficient sequence."""

    d: int
    u: int
    q: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex).reshape(-1)
        object.__setattr__(self, "values", vals)
        if vals.size != self.d:
            raise ValueError("value count does not match d")
        if np.max(np.abs(np.abs(vals) - 1.0)) > DEFAULT_TOL:
            raise ValueError("sequence entries must have unit modulus")
        worst = max(
            abs(periodic_autocorr(vals, s)) for s in range(1, self.d)
        )
        if worst > DEFAULT_TOL:
            raise ValueError(
                f"sequence is not zero-autocorrelation (worst {worst:.3e})"
            )


def zadoff_chu(d: int, u: int, q: int) -> ChuSequence:
    """Zadoff-Chu sequence zc(k) = exp(-i pi u k (k + c_f + 2q) / d).

    c_f = d mod 2; requires gcd(u, d) = 1.
    """
    _check_dim(d)
    if math.gcd(u, d) != 1:
        raise ValueError(f"zadoff_chu: gcd(u={u}, d={d}) must be 1")
    return ChuSequence(d, u, q, _zc(np.arange(d), d, u, q))


def _zc(k, d: int, u: int = 1, q: int = 0) -> np.ndarray:
    """exp(-i pi u k (k + d%2 + 2q) / d) at the integers ``k``, any of them."""
    return np.exp(-1j * np.pi * u * k * (k + d % 2 + 2 * q) / d)


def chu(d: int) -> ChuSequence:
    """The Chu sequence c(k) = exp(-i pi k (k + d%2) / d) (u=1, q=0)."""
    return zadoff_chu(d, 1, 0)


def periodic_autocorr(seq, shift: int) -> complex:
    """(1/L) sum_k seq[k] * conj(seq[(k+shift) mod L])."""
    seq = np.asarray(seq, dtype=complex).reshape(-1)
    n = seq.size
    if not 0 <= shift < n:
        raise ValueError(f"shift {shift} out of range for length {n}")
    return complex(np.sum(seq * np.conj(np.roll(seq, -shift))) / n)


def autocorr2d(d: int) -> np.ndarray:
    """Magnitudes of the 2D periodic autocorrelation of the c_kl grid.

    Entry (m, n) is |(1/d^2) sum_{k,l} c_kl conj(c_{k+m, l+n})| with
    cyclic index shifts; the grid is a delta at (0, 0). Since
    c_kl = c(k) c(l), the sum factors into |a(m) a(n)| with a the 1D
    periodic autocorrelation of the Chu sequence. The grid holds d^2
    entries and the ``autocorr`` command lists one row per entry, so it
    takes the state-size rule: d <= 2048.
    """
    _check_dim(d)
    _check_state_size(d, 2, "autocorr grid")
    c = chu(d).values
    a = np.array([periodic_autocorr(c, s) for s in range(d)])
    return np.abs(np.outer(a, a))


def gauss_sum(d: int, m: int) -> complex:
    """sum_j c(j+m) * conj(c(j)) with j+m the literal integer sum.

    Equals d when m = 0 and vanishes for every m in {1..d-1}; this is
    the cancellation that makes the coefficient-weighted operator sums
    unitary.
    """
    _check_dim(d)
    if not 0 <= m < d:
        raise ValueError(f"m {m} out of range for d={d}")
    j = np.arange(d)
    return complex(np.sum(_zc(j + m, d) * np.conj(_zc(j, d))))

