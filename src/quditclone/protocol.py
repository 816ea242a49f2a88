"""Encryption/decryption unitaries and the end-to-end cloning protocol.

The canonical register layout is [A, S_1..S_n, N_1..N_n]
(``protocol_register``): the dense oracles, the tests and every public
function that takes wire positions use it. Encryption acts on
(A, S_1..S_n); decryption acts on the target share and all locally kept
wires (S_t, N_t, N_j for j != t).

``run_protocol`` executes only gate circuits of ``circuits``, on the
state vector. It encrypts with ``build_enc_factored``, three passes over
the state; the paper-literal vpz and vpx circuits are its reference in
the tests. By default it decrypts with the factored circuit
(``build_udec_factored``, O(n) gates); with ``decrypt_with_circuit`` it
runs the paper-literal circuit (``build_udec_circuit``, d^2 - 1
correction blocks) instead, so the two builders cross-check each other
through one evaluator. The dense operators built here from the paper's
formulas (``u_enc``, ``v_of_p``, ``u_dec_dense``, ``dec_projector_sum``)
are oracles only: the tests and ``verify_identities`` use them, no run
does. One function reads their structure, ``linalg.column_sparse_form``.
They are cheap to build for D = d^(n+1): ``v_of_p`` takes a P with one
nonzero per column, as every Pauli product is, in O(D^2), and
``dec_projector_sum`` is one product over its d^2 Bell terms.
``verify_identities`` forms no D x D matrix product: each operator it
checks has d nonzeros per column, which ``is_unitary`` reads its
deviation from. V(P_Z) is diagonal, so V(P_X) V(P_Z) is V(P_X) with its
columns scaled by that diagonal, and the SWAP . C head of the decryption,
an exact permutation stated by its index map, is a scatter of the
projector sum's d^2 row blocks, O(D^2) each. Its sampled checks are
batched over their samples; the relay is a plain d^2 x d^2 matmul.

A run orders its wires [A, S_j (j != t).., S_t, N_t, N_j (j != t)..]
(``_run_register``), so that encryption's wires lead and decryption's
trail, each in its circuit's order, and both circuits act on the state
without a transposed copy. The tensor and every pass are then the same
for every target t, so each target runs target n's circuits and reads
the tensor under its own wire names. It writes the initial state directly,
and the score reads the state where it lies. ``share_marginals`` takes
each share's marginal as a batched dot product over a view of the state,
and ``decryption_scores`` applies the Bell bra to a pair as a sum of its
diagonal, so a run makes no transposed copy of the state per share and
builds no second product state. The oracles that the tests compare the
initial state and these scores against (the product state, reduced
density matrices, inner products) live in ``tests/conftest.py``.
"""

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from . import cazac, circuits, gates
from .linalg import (
    DEFAULT_TOL,
    OPERATOR_DIM_CAP,
    Register,
    SizeCapError,
    StateVector,
    _check_dim,
    _check_int,
    _check_operator_dim,
    _check_state_size,
    column_sparse_form,
    is_unitary,
    kron_all,
    max_abs_diff,
)


@dataclass(frozen=True)
class ProtocolParams:
    """Dimension d, party count n and the share receiving the state.

    Admits a (d, n) whose d^(2n+1)-amplitude state fits the state cap (at
    n = 1, d <= 161). Besides the state and one spare buffer of its size,
    a run forms no object larger than one pass's gather table, d^k entries
    for the k wires the pass touches: at most d^(n+1), 25,921 at (161, 1).
    Dense oracles cap their own size.
    """

    d: int
    n: int
    target_party: int = 1

    def __post_init__(self):
        _check_dim(self.d)
        _check_int(self.n, "party count")
        _check_int(self.target_party, "target party")
        if self.n < 1:
            raise ValueError(f"party count must be >= 1, got {self.n}")
        if not 1 <= self.target_party <= self.n:
            raise ValueError(
                f"target party {self.target_party} out of range 1..{self.n}"
            )
        _check_state_size(self.d, 2 * self.n + 1, f"protocol run for d={self.d}, n={self.n}")


def oracle_dim(params: ProtocolParams) -> int:
    """Dimension d^(n+1) of the dense oracles, refused above the operator cap."""
    dim = params.d ** (params.n + 1)
    _check_operator_dim(dim, f"d={params.d}, n={params.n} dense oracle")
    return dim


def suite_params(d: int, n: int) -> ProtocolParams:
    """Parameters of the identity suite at (d, n), refused above the size caps.

    Besides the d^(n+1)-dimension dense oracles, the suite builds d^2 x d^2
    Bell-basis tables and multiplies them, O(d^6) time, and works on
    d^3-amplitude relay states, at every n. These grow with d alone, so
    they are held to d^3 <= OPERATOR_DIM_CAP (d <= 16); at n = 1 this rule
    is the binding one.
    """
    params = ProtocolParams(d, n)
    oracle_dim(params)
    if d ** 3 > OPERATOR_DIM_CAP:
        raise SizeCapError(
            f"d={d} identity suite: d^3 = {d ** 3} exceeds the cap {OPERATOR_DIM_CAP} "
            "on its d^2 x d^2 Bell-table products and d^3-amplitude relay states"
        )
    return params


def protocol_register(d: int, n: int) -> Register:
    wires = ["A"] + [f"S{i}" for i in range(1, n + 1)] + [f"N{i}" for i in range(1, n + 1)]
    return Register(d, tuple(wires))


def pauli_product(axis: str, d: int, n: int) -> np.ndarray:
    """X or Z tensored across the data wire and all n shares."""
    if axis not in ("x", "z"):
        raise ValueError(f"axis must be 'x' or 'z', got {axis!r}")
    base = gates.shift_x(d) if axis == "x" else gates.phase_z(d)
    return kron_all([base] * (n + 1))


def v_of_p(p: np.ndarray, d: int) -> np.ndarray:
    """Chu-weighted power sum (1/sqrt d) sum_k c(k) P^k.

    Takes a P with one nonzero per column (``column_sparse_form`` at
    r = 1; every ``pauli_product`` is one), unitary with P^d = I; under
    that structure the flat spectrum of the coefficients makes the sum
    unitary. With P|j> = e_j |r_j>, each power P^k is kept as a row map
    and its entries, so each costs O(D) and the whole sum O(D^2), with no
    D x D array but the result. The loop's last power is P^d, and the
    check reads it: a row map that returns every column to itself is a
    permutation, so P is unitary when every |e_j| is 1. Any other P is
    refused before the result is allocated.
    """
    p = np.asarray(p, dtype=complex)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("v_of_p: operator is not square")
    parts = column_sparse_form(p)
    if parts is None or len(parts[0]) != 1:
        raise ValueError("v_of_p: operator does not have one nonzero per column")
    (rows,), (entries,) = parts
    dev = float(np.max(np.abs(np.abs(entries) ** 2 - 1)))
    if not dev <= DEFAULT_TOL:
        raise ValueError(f"v_of_p: operator is not unitary (deviation {dev:.3e})")
    dim = p.shape[0]
    c = cazac.chu(d).values
    out = np.zeros((dim, dim), dtype=complex)
    # P^k|j> = val[j] |at[j]>, so P^(k+1)|j> = val[j] entries[at[j]] |rows[at[j]]>
    cols = np.arange(dim)
    at, val = cols, np.ones(dim, dtype=complex)
    for k in range(d):
        out[at, cols] += c[k] * val
        val = val * entries[at]
        at = rows[at]
    if not ((at == cols).all() and np.abs(val - 1).max() <= DEFAULT_TOL):
        raise ValueError(f"v_of_p: operator does not satisfy P^{d} = I")
    out /= np.sqrt(d)
    return out


def exp_generalization(p: np.ndarray, theta: float) -> np.ndarray:
    """Matrix exponential exp(-i theta P).

    Unitary only when P is hermitian (the d=2 case); for the shift and
    phase operators with d >= 3 it is not, which is why the protocol
    uses the Chu-weighted sum instead. Kept as a runnable demonstration.

    Scaling and squaring: exp(A) = exp(A / 2^s)^(2^s) with ||A / 2^s||_1 < 1,
    where 18 Taylor terms leave a remainder below 1/18! < 2e-16.
    """
    a = -1j * theta * np.asarray(p, dtype=complex)
    s = max(0, int(np.frexp(np.linalg.norm(a, 1))[1]))
    a /= 2.0 ** s
    out = term = np.eye(len(a), dtype=complex)
    for k in range(1, 18):
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def u_enc(params: ProtocolParams) -> np.ndarray:
    """Encryption unitary V(P_X) V(P_Z) on wires (A, S_1..S_n).

    V(P_Z) is diagonal, so the product is V(P_X) with its columns scaled
    in place by V(P_Z)'s diagonal.
    """
    d, n = params.d, params.n
    phases = np.diagonal(v_of_p(pauli_product("z", d, n), d)).copy()
    out = v_of_p(pauli_product("x", d, n), d)
    out *= phases
    return out


def c_gate(d: int) -> np.ndarray:
    """Two-wire relay gate C on the (share, local) pair.

    C = (sum_c X^{2c} x |c><c|) . (I x F^2): F^2 reverses the second
    wire's index, |c> -> |-c>, and its value then doubly shift-controls
    the first. So C is the permutation |a, c> -> |a - 2c, -c>, built from
    that index map with every nonzero exactly 1. Together with a SWAP it
    turns the Bell-projected pair back into a fresh Bell pair while
    relaying the data state.
    """
    _check_dim(d)
    a, c = np.divmod(np.arange(d * d), d)
    out = np.zeros((d * d, d * d), dtype=complex)
    out[((a - 2 * c) % d) * d + (-c) % d, a * d + c] = 1.0
    return out


def dec_projector_sum(params: ProtocolParams) -> np.ndarray:
    """Bell-projected conditional-Weyl sum on (S_t, N_t, remaining N_j).

    A = sum_{k,l} conj(c_kl) Pi_kl x (X^k Z^-l)^{x(n-1)} where Pi_kl is
    the Bell-basis projector on the pair; unitary because the projectors
    are orthogonal and complete. With Pi_w = |b_w><b_w| for w = (k, l),
    entry ((a, i), (b, j)) is sum_w b_w[a] (conj(c_kl b_w[b]) T_w[i, j])
    for the tail T_w, so A is one product over the d^2 terms w: the Bell
    vectors (d^2 x d^2) against the scaled bras times the tails laid out
    as (w, i, b, j), which is already A's row-major order. Its one
    temporary has A's size.
    """
    d, n = params.d, params.n
    dim = oracle_dim(params)
    c = cazac.chu(d).values
    bell = gates.bell_basis(d)  # row w = k d + l
    k, l = np.divmod(np.arange(d * d), d)
    corr = gates.weyl_table(d)[gates.weyl_row(d, k, -l)]
    tails = np.ones((d * d, 1, 1), dtype=complex)
    for _ in range(n - 1):
        m = tails.shape[1] * d
        tails = np.einsum("wij,wab->wiajb", tails, corr).reshape(d * d, m, m)
    bras = np.conj(c[k] * c[l])[:, None] * bell.conj()
    terms = np.einsum("wb,wij->wibj", bras, tails).reshape(d * d, -1)
    return (bell.T @ terms).reshape(dim, dim)


def u_dec_dense(params: ProtocolParams) -> np.ndarray:
    """Decryption unitary on wires (S_t, N_t, N_j for j != t).

    Built as (SWAP . C on the pair, identity elsewhere) times the
    Bell-projected conditional-Weyl sum; the inverse coefficients are
    conjugates, exact since every c_kl has unit modulus.
    """
    return _head_times(params.d, dec_projector_sum(params))


def _head_times(d: int, m: np.ndarray) -> np.ndarray:
    """(SWAP . C on the pair x I) M, as a scatter of M's d^2 row blocks.

    C sends |a, c> to |a - 2c, -c> (``c_gate``), so SWAP . C sends |a, c>
    to |-c, a - 2c>: row block r_j of the product is row block j of M,
    and neither a d^2 x d^2 head nor a D x D one is made.
    """
    a, c = np.divmod(np.arange(d * d), d)
    rows = (-c % d) * d + (a - 2 * c) % d
    blocks = m.reshape(d * d, -1)
    out = np.empty_like(blocks)
    out[rows] = blocks
    return out.reshape(m.shape)


@dataclass
class ProtocolReport:
    """Outcome of one protocol run, JSON-serializable."""

    d: int
    n: int
    seed: int | None
    target_party: int
    tolerance: float
    used_circuit: bool
    marginal_deviations: list[float]
    decryption_fidelity: float
    bell_residuals: list[dict]
    timings_ms: dict[str, float] = field(default_factory=dict)

    @property
    def secrecy_ok(self) -> bool:
        return max(self.marginal_deviations) <= self.tolerance

    @property
    def decryption_ok(self) -> bool:
        return self.decryption_fidelity >= 1.0 - self.tolerance

    @property
    def passed(self) -> bool:
        return self.secrecy_ok and self.decryption_ok

    def to_dict(self) -> dict:
        """Every field but the wall-clock ``timings_ms``, so a seed fixes the result."""
        return {
            "d": self.d,
            "n": self.n,
            "seed": self.seed,
            "target_party": self.target_party,
            "used_circuit": self.used_circuit,
            "tolerances": {
                "marginal": self.tolerance,
                "fidelity": self.tolerance,
            },
            "marginals": self.marginal_deviations,
            "decryption_fidelity": self.decryption_fidelity,
            "bell_residuals": self.bell_residuals,
            "passed": self.passed,
        }


def random_state(d: int, seed: int | None) -> StateVector:
    """Seeded complex-normal vector on wire A, normalized to unit length."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return StateVector(Register(d, ("A",)), v / np.linalg.norm(v))


def share_marginals(state: StateVector, n: int) -> list[np.ndarray]:
    """Reduced density matrices of S_1..S_n, read from the state in place.

    Share S_i is axis p of the amplitude tensor, so the tensor reshaped
    to x of shape (d^p, d, rest) is a view, and entry (i, j) of the
    marginal is sum_a <x[a, j], x[a, i]>: one batched conjugating dot
    product, with no transposed or conjugated copy of the state. The
    tests check it against the reduced-density oracle of
    ``tests/conftest.py``.
    """
    reg = state.register
    out = []
    for p in reg.positions([f"S{i}" for i in range(1, n + 1)]):
        x = state.amplitudes.reshape(reg.d ** p, reg.d, -1)
        out.append(np.vecdot(x[:, None], x[:, :, None]).sum(0))
    return out


def _bell_contract(x: np.ndarray, wires: list[str], pair) -> tuple[np.ndarray, list[str]]:
    """(<Phi| x I) on the pair's axes of a tensor with one axis per wire.

    <Phi| on (a, b) is (1/sqrt d) sum_c <c, c|, so this is the sum of the
    pair's diagonal, a view, over d; both axes drop out of the result.
    """
    i, j = (wires.index(w) for w in pair)
    y = np.diagonal(x, axis1=i, axis2=j).sum(-1)
    y *= 1 / np.sqrt(x.shape[i])
    return y, [w for w in wires if w not in pair]


def decryption_scores(
    state: StateVector, psi: StateVector, params: ProtocolParams
) -> tuple[float, list[dict]]:
    """Fidelity with the decrypted closed form and each restored pair's Bell residual.

    The closed form is (1/sqrt d) sum_p |p>_A |psi>_{S_t} |p>_{N_t} with a
    Bell pair on every other (S_j, N_j). Both scores contract the state in
    place; no second product state and no pair density matrix is formed.
    A pair's residual <Phi|rho_pair|Phi> is ||(<Phi| x I) state||^2. The
    fidelity |<closed|state>| goes on from the (A, N_t) contraction: <Phi|
    on every other (S_j, N_j), then the inner product with psi on S_t.
    """
    t = params.target_party
    x = state.tensor()
    wires = list(state.register.wires)
    head = ("A", f"N{t}")
    others = [(f"S{j}", f"N{j}") for j in range(1, params.n + 1) if j != t]
    y, rest = _bell_contract(x, wires, head)
    residuals = [{"pair": list(head), "fidelity": float(np.vdot(y, y).real)}]
    for pair in others:
        z, _ = _bell_contract(x, wires, pair)
        residuals.append({"pair": list(pair), "fidelity": float(np.vdot(z, z).real)})
    for pair in others:
        y, rest = _bell_contract(y, rest, pair)
    return float(abs(np.vdot(psi.amplitudes, y))), residuals


def _run_register(d: int, n: int, t: int) -> Register:
    """A run's wire order: [A, S_j (j != t).., S_t, N_t, N_j (j != t)..].

    Encryption's wires (A and the shares) are the leading n + 1 axes, and
    decryption's (S_t, N_t, N_j for j != t) the trailing n + 1, in the
    order of ``build_udec_factored``'s register.
    """
    others = [j for j in range(1, n + 1) if j != t]
    wires = ["A", *(f"S{j}" for j in others), f"S{t}", f"N{t}", *(f"N{j}" for j in others)]
    return Register(d, tuple(wires))


def _prepare(d: int, n: int, psi: np.ndarray) -> np.ndarray:
    """psi on A and a Bell pair on every (S_j, N_j), as a tensor on ``_run_register``.

    The amplitude is psi_a / sqrt(d^n) where every N_j's digit equals
    S_j's, and 0 elsewhere. In the run's order the N block's digits are
    the S block's rotated by one place, (s_t, s_j..) against (s_j.., s_t),
    so the d^(n+1) nonzero entries are written into a zero tensor
    directly. The tests check it against the product-state oracle of
    ``tests/conftest.py``.
    """
    x = np.zeros((d, d ** n, d ** n), dtype=complex)
    s = np.arange(d ** n)
    x[:, s, (s % d) * d ** (n - 1) + s // d] = psi[:, None] / np.sqrt(d ** n)
    return x.reshape([d] * (2 * n + 1))


# Keys whose circuits a process keeps, compiled passes and all: (d, n)
# for the encryption, (d, n, path) for the decryption. One encryption's
# and one decryption's tables together (six gathers of at most d^(n+1)
# entries, four d x d matrices) take at most 208 * d^(n+1) bytes, 5.4 MB
# at (161, 1).
_RUN_CIRCUIT_CACHE = 16


@functools.lru_cache(maxsize=_RUN_CIRCUIT_CACHE)
def _enc_circuit(d: int, n: int) -> circuits.Circuit:
    """A run's encryption, ``build_enc_factored``, built once per (d, n).

    It acts on the leading n + 1 wires of ``_run_register(d, n, t)`` at
    every t. Circuits are immutable and their compiled tables read-only,
    so every run at (d, n) shares it, whatever its target or decryption.
    """
    return circuits.build_enc_factored(d, n)


@functools.lru_cache(maxsize=_RUN_CIRCUIT_CACHE)
def _dec_circuit(d: int, n: int, literal: bool) -> circuits.Circuit:
    """A run's decryption onto S_n, built once per (d, n, path).

    It acts on the trailing n + 1 wires of ``_run_register(d, n, n)``;
    every target shares it, as with ``_enc_circuit``.
    """
    udec = circuits.build_udec_circuit if literal else circuits.build_udec_factored
    return udec(ProtocolParams(d, n, n))


def run_protocol(
    params: ProtocolParams,
    psi: StateVector | None = None,
    seed: int | None = None,
    tol: float = DEFAULT_TOL,
    decrypt_with_circuit: bool = False,
) -> ProtocolReport:
    """Simulate encrypt -> marginal check -> decrypt on the full register.

    Prepares psi on A with a fresh Bell pair per share, encrypts, records
    every share's deviation from the maximally mixed state, decrypts onto
    the target share, and scores the final state against the closed form
    (1/sqrt d) sum_p |p>_A |psi>_{S_t} |p>_{N_t} x Bell pairs elsewhere,
    up to a global phase. No dense operator is built: encryption and
    decryption run gate circuits on the state, decryption the factored
    circuit, or the paper-literal one when ``decrypt_with_circuit`` is
    set. The state lives on ``_run_register``, where both circuits act in
    place: the run owns one tensor from prepare to score, and each circuit
    passes it back and forth with one spare buffer, dropped before the
    score. Both scores contract the state in place (``share_marginals``,
    ``decryption_scores``): no reduced-density copy of the state, no pair
    density matrix and no second product state is formed. The circuits
    are target n's, built and compiled on the first run at a (d, n, path)
    and reused at every target (``_enc_circuit``, ``_dec_circuit``); the
    encryption is also shared by both paths. The run scores their
    result under target t's wire names.
    """
    d, n, t = params.d, params.n, params.target_party
    if psi is None:
        psi = random_state(d, seed)
    if psi.register.num_wires != 1 or psi.register.d != d:
        raise ValueError("psi must be a single-wire state of dimension d")

    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    enc, udec = _enc_circuit(d, n), _dec_circuit(d, n, bool(decrypt_with_circuit))
    on = _run_register(d, n, n)  # the circuits' wire names
    reg = _run_register(d, n, t)
    x = _prepare(d, n, psi.amplitudes)
    t1 = time.perf_counter()
    timings["prepare"] = (t1 - t0) * 1e3

    x = circuits._apply_ops(x, enc, on)
    encrypted = StateVector(reg, x)
    t2 = time.perf_counter()
    timings["encrypt"] = (t2 - t1) * 1e3

    mixed = np.eye(d) / d
    marginals = [max_abs_diff(rho, mixed) for rho in share_marginals(encrypted, n)]
    t3 = time.perf_counter()
    timings["marginals"] = (t3 - t2) * 1e3

    # x stays the run's own buffer: decryption may overwrite ``encrypted``
    x = circuits._apply_ops(x, udec, on)
    decrypted = StateVector(reg, x)
    t4 = time.perf_counter()
    timings["decrypt"] = (t4 - t3) * 1e3

    fidelity, residuals = decryption_scores(decrypted, psi, params)
    t5 = time.perf_counter()
    timings["verify"] = (t5 - t4) * 1e3

    return ProtocolReport(
        d=d,
        n=n,
        seed=seed,
        target_party=t,
        tolerance=tol,
        used_circuit=decrypt_with_circuit,
        marginal_deviations=marginals,
        decryption_fidelity=fidelity,
        bell_residuals=residuals,
        timings_ms=timings,
    )


@dataclass(frozen=True)
class IdentityCheck:
    """One verified identity with its worst numerical deviation."""

    name: str
    max_deviation: float
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "max_deviation", float(self.max_deviation))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return bool(self.max_deviation <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass
class IdentitySuiteReport:
    d: int
    n: int
    samples: int
    seed: int
    checks: list[IdentityCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "samples": self.samples,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _check_ricochet(d, rng, samples):
    """(U x I)|Phi> = (I x U^T)|Phi> for arbitrary U.

    With |Phi> as the d x d matrix B, (L x R)|Phi> is L B R^T, so the
    sides are U B and B U, batched over all samples. Each sample draws
    d^2 real then d^2 imaginary parts, as one call per part would.
    """
    bell = gates.bell_amplitudes(d).reshape(d, d)
    z = rng.standard_normal((samples, 2, d, d))
    u = z[:, 0] + 1j * z[:, 1]
    return float(np.max(np.abs(u @ bell - bell @ u), initial=0.0))


def _check_bell_relay(d, rng, samples):
    """The relay gate turns the Weyl-averaged pair state into Bell x data.

    Each sample draws d real then d imaginary parts, as one
    ``standard_normal`` call per part would. For all samples at once,
    sum_w (W_w psi) x (W_w x I)|Phi> is one contraction of the Weyl
    table, the draws and the Bell basis, whose row w is (W_w x I)|Phi>.
    I x C acts on each sample's (d, d^2) layout as x C^T, a plain
    (samples d, d^2) x (d^2, d^2) matmul by an exact 0/1 permutation.
    """
    bell = gates.bell_amplitudes(d)
    z = rng.standard_normal((samples, 2, d))
    v = z[:, 0] + 1j * z[:, 1]
    psi = v / np.linalg.norm(v, axis=1, keepdims=True)
    lhs = np.einsum(
        "wij,sj,wp->sip", gates.weyl_table(d), psi, gates.bell_basis(d), optimize=True
    ).reshape(samples * d, d * d)
    lhs = ((lhs / d) @ c_gate(d).T).reshape(samples, d ** 3)
    rhs = (bell[None, :, None] * psi[:, None, :]).reshape(samples, d ** 3)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


def _check_bell_basis_orthonormal(gram):
    return max_abs_diff(gram, np.eye(len(gram)))


def _check_projector_algebra(v, gram):
    """Pi_a Pi_b = delta_ab Pi_a over all d^4 index pairs.

    With Pi_a = |b_a><b_a|, Pi_a Pi_b - delta_ab Pi_a = (G_ab - delta_ab)
    |b_a><b_b| for the Gram matrix G_ab = <b_a|b_b>, so the largest entry of
    that difference is |G_ab - delta_ab| max|b_a| max|b_b|: O(d^6), where
    forming every product takes O(d^10).
    """
    peak = np.abs(v).max(axis=1)
    return float((np.abs(gram - np.eye(len(gram))) * np.outer(peak, peak)).max())


def _check_projector_completeness(v):
    total = np.einsum("ai,aj->ij", v, v.conj())
    return max_abs_diff(total, np.eye(len(v)))


def _check_gauss_sum(d):
    worst = abs(cazac.gauss_sum(d, 0) - d)
    for m in range(1, d):
        worst = max(worst, abs(cazac.gauss_sum(d, m)))
    return worst


def _check_bell_pair_invariance(d):
    """(X^k Z^-l x X^k Z^l)|Phi> = |Phi> for every exponent pair.

    With |Phi> as the d x d matrix B, (L x R)|Phi> is L B R^T, batched
    over all d^2 pairs; the right factors are the Weyl table in order.
    """
    bell = gates.bell_amplitudes(d).reshape(d, d)
    weyl = gates.weyl_table(d)
    k, l = np.divmod(np.arange(d * d), d)
    out = weyl[gates.weyl_row(d, k, -l)] @ bell @ weyl.transpose(0, 2, 1)
    return float(np.abs(out - bell).max())


def _check_partial_trace_product(d, rng, samples):
    """Tr_B((O1 x I)|Phi><Phi|(O2^dag x I)) = O1 O2^dag / d.

    With |Phi> as the d x d matrix B, (O x I)|Phi> is O B and Tr_B of
    |v1><v2| is V1 V2^dag, so the left side is (O1 B)(O2 B)^dag, batched
    over all samples. Each sample draws O1's real and imaginary parts,
    then O2's, as one call per part would.
    """
    bell = gates.bell_amplitudes(d).reshape(d, d)
    z = rng.standard_normal((samples, 2, 2, d, d))
    o = z[:, :, 0] + 1j * z[:, :, 1]
    v = o @ bell
    lhs = v[:, 0] @ v[:, 1].conj().transpose(0, 2, 1)
    rhs = o[:, 0] @ o[:, 1].conj().transpose(0, 2, 1) / d
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


def _check_encryption_unitary(params):
    """Unitarity of V(P_Z), V(P_X) and u_enc's V(P_X) V(P_Z), two D x D arrays at most alive."""
    d, n = params.d, params.n
    vz = v_of_p(pauli_product("z", d, n), d)
    dev, phases = is_unitary(vz).max_deviation, np.diagonal(vz).copy()
    del vz  # V(P_Z) is diagonal: it is kept as its diagonal
    vx = v_of_p(pauli_product("x", d, n), d)
    dev = max(dev, is_unitary(vx).max_deviation)
    vx *= phases  # V(P_X) V(P_Z), in place
    return max(dev, is_unitary(vx).max_deviation)


def _check_decryption_unitary(params):
    a = dec_projector_sum(params)
    return max(is_unitary(m).max_deviation for m in (a, _head_times(params.d, a)))


def verify_identities(
    d: int,
    n: int = 2,
    samples: int = 50,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> IdentitySuiteReport:
    """Run every proved identity numerically at dimension d.

    Statements quantified over arbitrary operators or states get
    ``samples`` seeded random draws; statements quantified over exponent
    indices are checked exhaustively. A (d, n) whose run or dense
    operators would exceed the size caps is refused before any check.
    """
    params = suite_params(d, n)
    rng = np.random.default_rng(seed)
    v = gates.bell_basis(d)  # one Bell vector per row
    gram = v.conj() @ v.T
    orthonormal = _check_bell_basis_orthonormal(gram)
    checks = [
        IdentityCheck("ricochet", _check_ricochet(d, rng, samples), tol),
        IdentityCheck("bell_relay", _check_bell_relay(d, rng, samples), tol),
        IdentityCheck("bell_basis_orthonormal", orthonormal, tol),
        IdentityCheck("projector_algebra", _check_projector_algebra(v, gram), tol),
        IdentityCheck("projector_completeness", _check_projector_completeness(v), tol),
        IdentityCheck("gauss_sum", _check_gauss_sum(d), tol),
        IdentityCheck("bell_pair_invariance", _check_bell_pair_invariance(d), tol),
        IdentityCheck(
            "partial_trace_product", _check_partial_trace_product(d, rng, samples), tol
        ),
        # Tr((X^k Z^l x I)|Phi><Phi|(Z^-n X^-m x I)) = <v_b|v_a> for the Bell-basis
        # vectors v_a, v_b of (k, l) and (m, n): the traces are the Gram entries
        IdentityCheck("bell_trace_delta", orthonormal, tol),
        IdentityCheck("encryption_unitary", _check_encryption_unitary(params), tol),
        IdentityCheck("decryption_unitary", _check_decryption_unitary(params), tol),
    ]
    return IdentitySuiteReport(d=d, n=n, samples=samples, seed=seed, checks=checks)
