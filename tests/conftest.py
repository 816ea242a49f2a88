"""Shared test helpers: seeded random draws, dense reference states and gates,
the state oracles (product states, operator embedding, density matrices,
partial traces, overlaps) that the package's in-place code is checked against,
and the per-sample loops and dense products that its batched and sparse
identity checks are checked against."""

import ast
import io
import tokenize
from dataclasses import InitVar, dataclass
from pathlib import Path

import numpy as np

from quditclone import cazac, gates, protocol
from quditclone.linalg import (
    DEFAULT_TOL,
    Register,
    StateVector,
    _check_dim,
    _check_finite,
    is_unitary,
    kron_all,
)


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
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        if amps.size != d ** len(wires):
            raise ValueError(f"factor on {wires} has wrong size {amps.size}")
        t = np.kron(t, amps)
        order.extend(wires)
    if sorted(order) != sorted(register.wires):
        raise ValueError("factors do not partition the register wires")
    perm = [order.index(w) for w in register.wires]
    amps = t.reshape([d] * len(order)).transpose(perm).reshape(-1)
    return StateVector(register, amps)


def embed_apply(state: StateVector, op: np.ndarray, wires) -> StateVector:
    """Apply ``op`` to a wire subset, identity on all other wires.

    The operator dimension must be d**len(wires); wire order is the
    caller's, so the same matrix can target any permutation of wires.
    One ``tensordot`` of the operator's column axes against the listed
    axes, then the operator's row axes moved back into their places:
    nothing of the circuit evaluator runs.
    """
    reg = state.register
    positions = reg.positions(wires)
    op = np.asarray(op, dtype=complex)
    k = len(positions)
    want = reg.d ** k
    if op.shape != (want, want):
        raise ValueError(
            f"operator shape {op.shape} does not match {k} wire(s) of dimension {reg.d}"
        )
    t = np.tensordot(op.reshape([reg.d] * (2 * k)), state.tensor(),
                     axes=(list(range(k, 2 * k)), list(positions)))
    t = np.moveaxis(t, list(range(k)), list(positions))
    return StateVector(reg, t.reshape(-1))


@dataclass(frozen=True)
class DensityMatrix:
    """Density operator over a register (possibly a sub-register)."""

    register: Register
    matrix: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        mat = np.asarray(self.matrix, dtype=complex)
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
    return DensityMatrix(Register(reg.d, keep), mat.reshape(dk, dk), validate=False)


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
    return DensityMatrix(Register(reg.d, keep), a @ a.conj().T, validate=False)


def overlap(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b>."""
    if a.register != b.register:
        raise ValueError("overlap: states live on different registers")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


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


def gram_deviation(m: np.ndarray) -> float:
    """Reference unitarity deviation: max |(M M^dag - I)_ij| from the dense product."""
    g = m @ m.conj().T
    return float(np.max(np.abs(g - np.eye(len(m)))))


def ricochet_loop(d: int, rng, samples: int) -> float:
    """Reference ricochet check: per sample, (U x I)|Phi> against (I x U^T)|Phi> as Kronecker products."""
    bell = gates.bell_amplitudes(d)
    eye = np.eye(d)
    worst = 0.0
    for _ in range(samples):
        u = random_matrix(rng, d)
        lhs = np.kron(u, eye) @ bell
        rhs = np.kron(eye, u.T) @ bell
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def partial_trace_product_loop(d: int, rng, samples: int) -> float:
    """Reference partial-trace check: per sample, Tr_B |v1><v2| as a traced outer product."""
    bell = gates.bell_amplitudes(d)
    eye = np.eye(d)
    worst = 0.0
    for _ in range(samples):
        o1 = random_matrix(rng, d)
        o2 = random_matrix(rng, d)
        v1 = np.kron(o1, eye) @ bell
        v2 = np.kron(o2, eye) @ bell
        # Tr_B |v1><v2|: equate the second wire's row and column index, and sum
        lhs = np.einsum("abcb->ac", np.outer(v1, v2.conj()).reshape(d, d, d, d))
        worst = max(worst, float(np.max(np.abs(lhs - o1 @ o2.conj().T / d))))
    return worst


def bell_pair_invariance_loop(d: int) -> float:
    """Reference pair-invariance check: per (k, l), the Kronecker product applied to |Phi>."""
    bell = gates.bell_amplitudes(d)
    weyl = gates.weyl_table(d)
    worst = 0.0
    for k in range(d):
        for l in range(d):
            op = np.kron(weyl[gates.weyl_row(d, k, -l)], weyl[gates.weyl_row(d, k, l)])
            worst = max(worst, float(np.max(np.abs(op @ bell - bell))))
    return worst


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


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def source_size(package: Path) -> tuple[int, int]:
    """Total lines and code lines (neither blank, comment nor docstring) of a package's modules."""
    total = code = 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, _DOCSTRING_OWNERS) and ast.get_docstring(node) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        lines = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        total += text.count("\n")
        code += len(lines - docstrings)
    return total, code


def pytest_terminal_summary(terminalreporter):
    """Report the size of the package under test; it asserts nothing."""
    total, code = source_size(Path(protocol.__file__).parent)
    terminalreporter.write_line(f"quditclone sources: {total:,} lines, {code:,} code lines")
