"""Dense complex linear algebra over multi-qudit registers.

Everything is plain numpy: operators are square ``complex128`` arrays,
states are flat amplitude vectors indexed big-endian over the register
wires (first wire = most significant base-d digit). All functions are
pure; the small dataclasses below are immutable after construction.
"""

from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-10

# One size rule per kind of object, checked where the object is made: dense
# operators (and d x d gates or grids) above OPERATOR_DIM_CAP and state
# vectors above STATE_AMPLITUDE_CAP amplitudes are refused. Keeps runs desk-scale.
OPERATOR_DIM_CAP = 4096
STATE_AMPLITUDE_CAP = 2 ** 22


class SizeCapError(ValueError):
    """A requested object would exceed the configured dense-size caps."""


def _check_operator_dim(dim: int, what: str) -> None:
    if dim > OPERATOR_DIM_CAP:
        raise SizeCapError(
            f"{what} dimension {dim} exceeds the operator cap {OPERATOR_DIM_CAP}"
        )


def _check_state_size(d: int, wires: int, what: str) -> None:
    # d >= 2, so this many wires exceed the cap: refuse before forming d**wires
    if wires >= STATE_AMPLITUDE_CAP.bit_length() or d ** wires > STATE_AMPLITUDE_CAP:
        raise SizeCapError(
            f"{what} needs {d}^{wires} amplitudes, over the cap {STATE_AMPLITUDE_CAP}"
        )


def _check_dim(d: int) -> None:
    if d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {d}")
    _check_operator_dim(d, "qudit")


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite entries")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square operators."""
    a, b = _as_complex(a), _as_complex(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("kron: first operand is not square")
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("kron: second operand is not square")
    _check_operator_dim(a.shape[0] * b.shape[0], "kron result")
    return np.kron(a, b)


def kron_all(mats) -> np.ndarray:
    """Left-to-right Kronecker product of a sequence of square operators."""
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = kron(out, m)
    return out


@dataclass(frozen=True)
class Register:
    """An ordered set of same-dimension qudit wires."""

    d: int
    wires: tuple[str, ...]

    def __post_init__(self):
        _check_dim(self.d)
        object.__setattr__(self, "wires", tuple(self.wires))
        if len(self.wires) == 0:
            raise ValueError("register needs at least one wire")
        if len(set(self.wires)) != len(self.wires):
            raise ValueError(f"duplicate wire labels in {self.wires}")

    @property
    def num_wires(self) -> int:
        return len(self.wires)

    @property
    def dim(self) -> int:
        return self.d ** len(self.wires)

    def positions(self, wires) -> tuple[int, ...]:
        """Axis positions of the given wires, in the order given."""
        pos = []
        for w in wires:
            if w not in self.wires:
                raise ValueError(f"wire {w!r} not in register {self.wires}")
            pos.append(self.wires.index(w))
        if len(set(pos)) != len(pos):
            raise ValueError(f"repeated wires in {tuple(wires)}")
        return tuple(pos)


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitude vector over a register (big-endian indexing)."""

    register: Register
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_state_size(self.register.d, self.register.num_wires, "state vector")
        amps = _as_complex(self.amplitudes).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        if amps.size != self.register.dim:
            raise ValueError(
                f"amplitude count {amps.size} does not match register "
                f"dimension {self.register.dim}"
            )
        # one pass: a non-finite squared norm holds a non-finite entry or
        # overflowed, and only then is every entry scanned, to tell which
        sq = np.vdot(amps, amps).real
        if not np.isfinite(sq):
            _check_finite(amps, "state vector")
        norm = np.sqrt(sq)
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"state vector norm {norm} is not 1")

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per wire."""
        d, w = self.register.d, self.register.num_wires
        return self.amplitudes.reshape([d] * w)


@dataclass(frozen=True)
class UnitaryCheck:
    """Outcome of a unitarity test with its worst entrywise deviation."""

    ok: bool
    max_deviation: float
    tol: float = field(default=DEFAULT_TOL)

    def __bool__(self) -> bool:
        return self.ok


def column_sparse_form(m: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Row indices and entries of a column-sparse M, or None if M is not one.

    M is column-sparse when each column holds the same number r of
    nonzeros, with r^2 <= D for D rows, so that the r^2 D pairs that
    ``is_unitary`` multiplies cost no more than this O(D^2) scan. Column
    j's nonzeros are M[rows[i, j], j] = entries[i, j], i < r, rows
    ascending, as two (r, D) arrays. A denser M is refused from its count
    before any index is listed.
    """
    nonzero = m != 0
    r, rest = divmod(np.count_nonzero(nonzero), m.shape[1])
    if rest or r * r > len(m):
        return None
    rows, cols = np.divmod(np.flatnonzero(nonzero), m.shape[1])
    if (np.bincount(cols, minlength=m.shape[1]) != r).any():
        return None
    rows = rows[np.argsort(cols, kind="stable")].reshape(m.shape[1], r).T
    return rows, m[rows, np.arange(m.shape[1])]


def monomial_form(m: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Row map and entries of a monomial square M, or None if M is not one.

    M is monomial when it has one nonzero per row and column (a shift, a
    phase, their tensor products): the column-sparse form at r = 1 with
    distinct rows. Column j's nonzero is then M[rows[j], j] = entries[j],
    so M|j> = entries[j] |rows[j]>. One O(D^2) scan.
    """
    parts = column_sparse_form(m)
    if parts is None or len(parts[0]) != 1:
        return None
    rows, entries = parts[0][0], parts[1][0]
    if (np.bincount(rows, minlength=len(m)) != 1).any():
        return None
    return rows, entries


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A @ B, as a gather and scale in O(D^2) when either factor is monomial.

    With B|j> = e_j |r_j>, column j of A B is e_j times column r_j of A;
    with A|j> = e_j |r_j>, row r_j of A B is e_j times row j of B. The
    gathered copy is scaled in place, so it is the one D x D array made.
    Any other pair takes the product.
    """
    parts = monomial_form(b)
    if parts is not None:
        rows, entries = parts
        out = a[:, rows].astype(np.result_type(a, b), copy=False)
        return np.multiply(out, entries, out=out)
    parts = monomial_form(a)
    if parts is not None:
        rows, entries = parts
        inverse = np.empty_like(rows)
        inverse[rows] = np.arange(len(rows))
        out = b[inverse].astype(np.result_type(a, b), copy=False)
        return np.multiply(entries[inverse, None], out, out=out)
    return a @ b


def _sparse_gram_deviation(rows: np.ndarray, entries: np.ndarray) -> float:
    """max |(M M^dag - I)_ik| from M's column-sparse form, with no D x D array.

    Column j adds m_a conj(m_b) at (rows[a, j], rows[b, j]) for each of
    its r^2 pairs (a, b), and the sums meet on that support. An entry off
    the support is 0: a deviation of 1 on the diagonal, 0 elsewhere.
    """
    dim = rows.shape[1]
    keys = (rows[:, None] * dim + rows[None]).ravel()
    vals = (entries[:, None] * entries[None].conj()).ravel()
    keys, at = np.unique(keys, return_inverse=True)
    gram = np.bincount(at, vals.real) + 1j * np.bincount(at, vals.imag)
    diagonal = keys // dim == keys % dim
    gram[diagonal] -= 1
    off_support = 1.0 if np.count_nonzero(diagonal) < dim else 0.0
    return max(float(np.abs(gram).max(initial=0.0)), off_support)


def is_unitary(m: np.ndarray, tol: float = DEFAULT_TOL) -> UnitaryCheck:
    """Check max |(M M^dag - I)_ij| <= tol.

    A column-sparse M (``column_sparse_form``) takes the deviation from the
    r^2 D products of nonzeros that share a column, O(D^2) with its scan;
    at r = 1 (a monomial M) they are the diagonal entries |m_j|^2. Any
    other M takes the product.
    """
    m = _as_complex(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("is_unitary: matrix is not square")
    parts = column_sparse_form(m)
    if parts is not None:
        dev = _sparse_gram_deviation(*parts)
    else:
        g = m @ m.conj().T
        g[np.diag_indices_from(g)] -= 1
        dev = float(np.max(np.abs(g)))
    return UnitaryCheck(dev <= tol, dev, tol)


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
