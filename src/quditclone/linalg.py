"""Dense complex linear algebra over multi-qudit registers.

Everything is plain numpy: operators are square ``complex128`` arrays,
states are flat amplitude vectors indexed big-endian over the register
wires (first wire = most significant base-d digit). All functions are
pure; the small dataclasses below are immutable after construction.
"""

import math
from dataclasses import dataclass, field, InitVar

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

    def subregister(self, wires) -> "Register":
        wires = tuple(wires)
        self.positions(wires)
        return Register(self.d, wires)


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
class DensityMatrix:
    """Density operator over a register (possibly a sub-register)."""

    register: Register
    matrix: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        mat = _as_complex(self.matrix)
        object.__setattr__(self, "matrix", mat)
        if mat.shape != (self.register.dim, self.register.dim):
            raise ValueError(
                f"matrix shape {mat.shape} does not match register "
                f"dimension {self.register.dim}"
            )
        _check_finite(mat, "density matrix")
        if validate:
            tol = 1e-8
            if np.max(np.abs(mat - mat.conj().T)) > tol:
                raise ValueError("density matrix is not hermitian")
            if abs(np.trace(mat) - 1.0) > tol:
                raise ValueError(f"density matrix trace {np.trace(mat)} is not 1")
            if np.min(np.linalg.eigvalsh(mat)) < -tol:
                raise ValueError("density matrix has a negative eigenvalue")


def product_state(register: Register, parts) -> StateVector:
    """Assemble a product state from per-group amplitude factors.

    ``parts`` is an iterable of ``(wires, amplitudes)`` pairs whose wire
    groups partition the register; each factor is a flat amplitude array
    over its own wires (big-endian).
    """
    d = register.d
    t = np.ones(1, dtype=complex)
    order: list[str] = []
    for wires, amps in parts:
        wires = tuple(wires)
        amps = _as_complex(amps).reshape(-1)
        if amps.size != d ** len(wires):
            raise ValueError(f"factor on {wires} has wrong size {amps.size}")
        t = np.kron(t, amps)
        order.extend(wires)
    if sorted(order) != sorted(register.wires):
        raise ValueError("factors do not partition the register wires")
    perm = [order.index(w) for w in register.wires]
    amps = t.reshape([d] * len(order)).transpose(perm).reshape(-1)
    return StateVector(register, amps)


# A single-axis product is batched, one matrix product per leading index,
# when at least _BATCHED_MIN_TRAIL amplitudes trail the axis, or when more
# than one trails it on a tensor of more than _ONE_PRODUCT_MAX_SIZE
# amplitudes. Otherwise one product on the transposed tensor is faster.
# Medians of 400 interleaved calls on a 2-vCPU host with 2 OpenBLAS
# threads, batched against one product, (lead, d, trail): (81, 3, 9) 35
# against 16 us, (64, 2, 16) 23 against 13; (243, 3, 27) 111 against 237,
# (625, 5, 25) 0.40 against 1.3 ms, (1296, 6, 36) 1.1 against 3.9 ms.
# (256, 4, 16) is near even (107 against 82 us), but the one product there
# took 7.9 ms in 5% of calls, when OpenBLAS split it over its threads. With
# the axis last, the one product is faster: (4096, 64, 1) 2.1 against 7.9 ms.
_BATCHED_MIN_TRAIL = 64
_ONE_PRODUCT_MAX_SIZE = 4096


def _apply_on_axes(tensor: np.ndarray, op: np.ndarray, positions, out=None) -> np.ndarray:
    """Contract ``op`` against the given axes of an amplitude tensor.

    ``tensor`` may carry extra trailing axes (e.g. a column axis when the
    target is a matrix); only the listed axes are transformed. The result
    is written to ``out`` when given: a C-contiguous array of the tensor's
    shape that does not overlap it.
    """
    if len(positions) == 1 and tensor.flags.c_contiguous:
        p = positions[0]
        lead, trail = math.prod(tensor.shape[:p]), math.prod(tensor.shape[p + 1:])
        if trail >= _BATCHED_MIN_TRAIL or (trail > 1 and tensor.size > _ONE_PRODUCT_MAX_SIZE):
            # one matrix product per leading index, on contiguous blocks
            x = tensor.reshape(lead, tensor.shape[p], trail)
            o = None if out is None else out.reshape(x.shape)
            return np.matmul(op, x, out=o).reshape(tensor.shape)
    # bring the listed axes to the front, act with one matrix product,
    # then undo the permutation
    perm = list(positions) + [i for i in range(tensor.ndim) if i not in positions]
    t = tensor.transpose(perm)
    res = (op @ t.reshape(op.shape[1], -1)).reshape(t.shape)
    res = res.transpose(sorted(range(len(perm)), key=perm.__getitem__))
    if out is None:
        return res
    out[...] = res
    return out


def embed_apply(state: StateVector, op: np.ndarray, wires) -> StateVector:
    """Apply ``op`` to a wire subset, identity on all other wires.

    The operator dimension must be d**len(wires); wire order is the
    caller's, so the same matrix can target any permutation of wires.
    """
    reg = state.register
    positions = reg.positions(wires)
    op = _as_complex(op)
    want = reg.d ** len(positions)
    if op.shape != (want, want):
        raise ValueError(
            f"operator shape {op.shape} does not match {len(positions)} "
            f"wire(s) of dimension {reg.d}"
        )
    t = _apply_on_axes(state.tensor(), op, positions)
    return StateVector(reg, t.reshape(-1))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every wire not listed in ``keep`` (output in keep order)."""
    keep = tuple(keep)
    if len(keep) == 0:
        raise ValueError("partial_trace: keep set must be nonempty")
    reg = rho.register
    kpos = reg.positions(keep)
    w = reg.num_wires
    t = rho.matrix.reshape([reg.d] * (2 * w))
    # row axis i pairs with column axis w+i; traced wires share a symbol
    syms = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    row = list(syms[:w])
    col = list(syms[w:2 * w])
    for i in range(w):
        if i not in kpos:
            col[i] = row[i]
    out = "".join(row[i] for i in kpos) + "".join(col[i] for i in kpos)
    mat = np.einsum("".join(row) + "".join(col) + "->" + out, t)
    dk = reg.d ** len(keep)
    sub = reg.subregister(keep)
    return DensityMatrix(sub, mat.reshape(dk, dk), validate=False)


def reduced_density(state: StateVector, keep) -> DensityMatrix:
    """Reduced density matrix of a pure state on the kept wires.

    Equivalent to ``partial_trace(|s><s|, keep)`` but never materializes
    the full-register density matrix.
    """
    keep = tuple(keep)
    if len(keep) == 0:
        raise ValueError("reduced_density: keep set must be nonempty")
    reg = state.register
    kpos = reg.positions(keep)
    rest = [i for i in range(reg.num_wires) if i not in kpos]
    t = np.transpose(state.tensor(), list(kpos) + rest)
    a = t.reshape(reg.d ** len(keep), -1)
    return DensityMatrix(reg.subregister(keep), a @ a.conj().T, validate=False)


@dataclass(frozen=True)
class UnitaryCheck:
    """Outcome of a unitarity test with its worst entrywise deviation."""

    ok: bool
    max_deviation: float
    tol: float = field(default=DEFAULT_TOL)

    def __bool__(self) -> bool:
        return self.ok


def is_unitary(m: np.ndarray, tol: float = DEFAULT_TOL) -> UnitaryCheck:
    """Check max |(M M^dag - I)_ij| <= tol.

    A monomial M, one nonzero per row and column (a shift, a phase, their
    tensor products), takes an O(D^2) scan: M M^dag is then diagonal with
    entries |m_i|^2 for the nonzero m_i of row i, so the deviation is
    max ||m_i|^2 - 1|, exactly. Any other M takes the product.
    """
    m = _as_complex(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("is_unitary: matrix is not square")
    nonzero = m != 0
    if (nonzero.sum(0) == 1).all() and (nonzero.sum(1) == 1).all():
        dev = float(np.max(np.abs(np.abs(m[nonzero]) ** 2 - 1)))
    else:
        g = m @ m.conj().T
        g[np.diag_indices_from(g)] -= 1
        dev = float(np.max(np.abs(g)))
    return UnitaryCheck(dev <= tol, dev, tol)


def overlap(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b>."""
    if a.register != b.register:
        raise ValueError("overlap: states live on different registers")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
