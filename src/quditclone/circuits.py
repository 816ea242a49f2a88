"""Gate-level circuit IR, circuit builders and the gate-count model.

A circuit is an ordered list of gate descriptors over a register. A
descriptor names a base gate (shift power, phase power, Fourier,
diagonal phase list, controlled power, swap, or a bare scalar phase)
plus optional control wires, each with the level on which the base
gate fires (a controlled power instead fires base^j on every control
level j); that is how the level-controlled gates of the decryption
circuit are expressed; the Fourier gates take no controls.
``apply_circuit`` runs a circuit on a copy of a state vector;
``run_protocol`` executes the same passes with ``_apply_ops`` on the
run's two buffers; ``circuit_to_unitary`` expands a circuit into a dense
matrix for comparison with the paper's operator formulas. All three
evaluate the same way, in two pass shapes over the whole tensor: every
gate kind except the two Fourier gates is monomial (a permutation of
basis states times phases). Each maximal stretch of uncontrolled gates
on one wire that holds a Fourier gate is one d x d product on that wire;
the gates between such stretches are all monomial, so each maximal run
of them is one gather and one phase multiply over its span, the wires
from the first it touches to the last. On its control slice, each
monomial gate is a phase (zpow, diag, z-based cpow, scalar) or an index
map (xpow, swap, x-based cpow) of the slice's digits; one table,
``_KINDS``, states each kind's targets and parameters. A circuit is
compiled into these passes on its first evaluation and keeps them,
read-only, so evaluating it again only executes them. A gather table
has d^k entries for the k wires of its span, at most d^(n+1) for the
protocol circuits, far below the d^(2n+1)-amplitude state they run on.

Encryption has two forms of the same operator V(P_X) V(P_Z): the
paper-literal ``build_vpz_circuit`` and ``build_vpx_circuit``, whose
Fourier conjugation covers all n + 1 wires, and ``build_enc_factored``,
whose difference ladder confines it to S_n, so that it runs as a
gather, one d x d product and a gather. A run encrypts with the
factored circuit; ``circuit-dump`` prints the literal ones.

Decryption has two builders of the same operator: ``build_udec_circuit``
is the paper-literal circuit, with d^2 - 1 doubly controlled correction
blocks, and ``build_udec_factored`` has 2n + 5 gates, none of them
doubly controlled. A run decrypts with the factored circuit, or with the
literal one under ``--circuit``; ``circuit-dump udec`` prints the literal
one.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import cazac, gates
from .linalg import (
    Register,
    StateVector,
    _check_dim,
    _check_int,
    _check_operator_dim,
)

if TYPE_CHECKING:  # annotations only: protocol imports this module
    from .protocol import ProtocolParams

# Each kind: its target count and the parameters ``GateOp.to_dict`` writes.
_KINDS = {
    "xpow": (1, ("power",)),         # shift power X^power
    "zpow": (1, ("power",)),         # phase power Z^power
    "fourier": (1, ()),              # Fourier F; takes no controls
    "fourier_dag": (1, ()),          # F^dag; takes no controls
    "diag": (1, ("phases",)),        # diagonal phase gate, entries exp(i*phases[k])
    "cpow": (1, ("base", "power")),  # controlled power: |j>|k> -> |j> base^j |k>
    "swap": (2, ()),
    "scalar": (0, ("phase",)),       # global phase exp(i*phase), possibly level-controlled
}
KINDS = tuple(_KINDS)

# Every kind but these two is monomial, a permutation of basis states times
# phases, so a run of them composes into one gather.
_DENSE_KINDS = frozenset(("fourier", "fourier_dag"))


@dataclass(frozen=True)
class GateOp:
    kind: str
    targets: tuple[str, ...] = ()
    controls: tuple[str, ...] = ()
    control_levels: tuple[int, ...] = ()
    power: int = 0
    base: str = "x"
    phases: tuple[float, ...] = ()
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "controls", tuple(self.controls))
        object.__setattr__(self, "control_levels", tuple(self.control_levels))
        object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))
        _check_int(self.power, "gate power")
        for lv in self.control_levels:
            _check_int(lv, "control level")
        count = _KINDS[self.kind][0]
        if len(self.targets) != count:
            raise ValueError(f"{self.kind} takes {count} target(s), got {self.targets}")
        if self.kind in _DENSE_KINDS and self.controls:
            raise ValueError(f"{self.kind} takes no controls")
        if self.kind == "cpow":
            if len(self.controls) != 1 or self.control_levels:
                raise ValueError("cpow takes exactly one control and no levels")
            if self.base not in ("x", "z"):
                raise ValueError(f"cpow base must be 'x' or 'z', got {self.base!r}")
        elif len(self.control_levels) != len(self.controls):
            raise ValueError("one control level per control wire required")
        wires = self.targets + self.controls
        if len(set(wires)) != len(wires):
            raise ValueError(f"gate wires must be distinct, got {wires}")
        if not all(np.isfinite(self.phases)) or not np.isfinite(self.phase):
            raise ValueError("gate phases must be finite")

    @property
    def wires(self) -> tuple[str, ...]:
        return self.controls + self.targets

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": {
                name: list(self.phases) if name == "phases" else getattr(self, name)
                for name in _KINDS[self.kind][1]
            },
            "targets": list(self.targets),
            "controls": list(self.controls),
            "control_levels": list(self.control_levels),
        }


@dataclass(frozen=True)
class Circuit:
    register: Register
    ops: tuple[GateOp, ...]

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        d = self.register.d
        for op in self.ops:
            self.register.positions(op.wires)
            # checked here, not in GateOp, which does not know d
            if not all(0 <= lv < d for lv in op.control_levels):
                raise ValueError(
                    f"control levels {op.control_levels} out of range 0..{d - 1}"
                )
            if op.kind == "diag" and len(op.phases) != d:
                raise ValueError(f"diag gate needs {d} phases, got {len(op.phases)}")

    @cached_property
    def _passes(self) -> tuple:
        """The compiled passes (``_compile``), made on the first evaluation and kept."""
        return _compile(self)


def _bare_wire(op: GateOp) -> str | None:
    """The wire of an uncontrolled one-wire gate; None for any other gate."""
    return op.targets[0] if len(op.targets) == 1 and not op.controls else None


def _runs(ops) -> list[list[GateOp]]:
    """Split ``ops`` into passes: one-wire stretches with a Fourier gate, and monomial runs.

    Consecutive gates are grouped by ``_bare_wire``: a group is a maximal
    stretch of uncontrolled gates on one wire, or a maximal stretch of
    the other gates. A group that holds a Fourier gate is one pass, its
    d x d product; every other group joins the monomial run before it,
    or starts one after a product.
    """
    runs: list[list[GateOp]] = []
    dense = True  # whether the last run is a product; a first group starts a run
    for _, group in itertools.groupby(ops, _bare_wire):
        group = list(group)
        after_dense, dense = dense, any(op.kind in _DENSE_KINDS for op in group)
        if after_dense or dense:
            runs.append(group)
        else:
            runs[-1] += group
    return runs


def _compile_run(ops, wires, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather form of a monomial run on ``wires``: out[y] = g[y] * v[src[y]].

    ``src`` and ``g`` are flat over the wires' joint index (big-endian).
    Each gate acts on its control slice only, a length-1 slice on each
    level-controlled wire, through that slice's digits y: a phase kind
    multiplies the slice of ``g`` by a phase of y, and a permutation kind
    gathers the slices of ``src`` and ``g`` through an index map of y. So
    no gate costs more than d^len(wires) entries.
    """
    k = len(wires)
    axis = {w: i for i, w in enumerate(wires)}
    src = np.arange(d ** k).reshape((d,) * k)
    g = np.ones((d,) * k, dtype=complex)
    digits: dict = {}  # per slice shape, made once: the literal decryption repeats a few
    for op in ops:
        ix = [slice(None)] * k
        for w, lv in zip(op.controls, op.control_levels):
            ix[axis[w]] = slice(lv, lv + 1)
        if op.kind == "scalar":  # assigned through g: on no wires, g[()] is no view
            g[tuple(ix)] *= np.exp(1j * op.phase)
            continue
        s, ph = src[tuple(ix)], g[tuple(ix)]  # views: updates land in src and g
        y = digits.get(s.shape) or digits.setdefault(s.shape, np.indices(s.shape, sparse=True))
        t = axis[op.targets[0]]
        if op.kind == "zpow":
            ph *= gates.z_phases(d, op.power)[y[t]]
        elif op.kind == "diag":
            ph *= np.exp(1j * np.array(op.phases))[y[t]]
        elif op.kind == "cpow" and op.base == "z":
            ph *= gates.omega(d) ** ((y[axis[op.controls[0]]] * y[t] * op.power) % d)
        else:  # xpow, swap or an x-based cpow: a permutation of y
            idx = list(y)
            if op.kind == "swap":
                u = axis[op.targets[1]]
                idx[t], idx[u] = y[u], y[t]
            elif op.kind == "xpow":
                idx[t] = (y[t] - op.power) % d
            else:
                idx[t] = (y[t] - op.power * y[axis[op.controls[0]]]) % d
            s[...], ph[...] = s[tuple(idx)], ph[tuple(idx)]
    return src.reshape(-1), g.reshape(-1)


class _Gather(NamedTuple):
    """A compiled monomial run: out[y] = g[y] * x[src[y]] over the joint index of its span.

    The span is the k axes from ``position`` on; side by side, their joint
    index is one axis of a reshape, with len(src) = d^k entries.
    ``g`` is None when every phase is 1.
    """

    position: int
    src: np.ndarray
    g: np.ndarray | None

    def apply(self, x: np.ndarray, out: np.ndarray) -> None:
        """Write the run applied to ``x`` into ``out``, a C-contiguous array of its shape."""
        shape = (math.prod(x.shape[:self.position]), len(self.src), -1)
        # in range by construction, so "clip" never clips; unlike "raise"
        # it writes straight into ``out``
        y = np.take(x.reshape(shape), self.src, axis=1, mode="clip", out=out.reshape(shape))
        if self.g is not None:
            y *= self.g[:, None]


class _Product(NamedTuple):
    """A compiled one-wire stretch: one product with its d x d matrix ``m``."""

    position: int
    m: np.ndarray

    def apply(self, x: np.ndarray, out: np.ndarray) -> None:
        """Write the product with ``x`` into ``out``, a C-contiguous array of its shape.

        ``x`` is C-contiguous and shares no memory with ``out``.
        """
        p = self.position
        lead, d, trail = math.prod(x.shape[:p]), x.shape[p], math.prod(x.shape[p + 1:])
        if trail > 1:
            # one matrix product per leading index, on contiguous blocks
            shape = (lead, d, trail)
            np.matmul(self.m, x.reshape(shape), out=out.reshape(shape))
        else:
            # the axis last: one product of the (lead, d) rows with m^T; a
            # batch of lead matrix-vector products is slower, (4096, 64, 1)
            # 7.9 against 1.9 ms on a 2-vCPU Xeon with 2 OpenBLAS threads
            np.matmul(x.reshape(lead, d), self.m.T, out=out.reshape(lead, d))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _compile(circuit: Circuit) -> tuple:
    """The passes of ``_runs(circuit.ops)``, for a tensor of shape (lead, d, .., d, trail).

    The d axes are the circuit's wires, in circuit order; the lead and
    trail axes hold every other wire of the register, and a column axis
    if any. A monomial run becomes its gather table over its span, the
    circuit's wires from the first its gates touch to the last (none for
    a run of bare scalars). A one-wire stretch with a Fourier gate is
    composed into its d x d matrix, each monomial gate of it as a row
    gather of the product so far. Positions count the lead axis and the
    circuit's wires only, so the passes fit any register that holds
    them. Every table is read-only.
    """
    d, wires = circuit.register.d, circuit.register.wires
    passes: list = []
    for run in _runs(circuit.ops):
        if not any(op.kind in _DENSE_KINDS for op in run):
            touched = {w for op in run for w in op.wires}
            span = [i for i, w in enumerate(wires) if w in touched]
            lo, hi = min(span, default=0), max(span, default=-1)
            src, g = _compile_run(run, wires[lo:hi + 1], d)
            g = None if (g == 1).all() else _read_only(g)
            passes.append(_Gather(lo + 1, _read_only(src), g))
            continue
        (wire,) = run[0].targets
        f = gates.fourier(d)
        m = np.eye(d, dtype=complex)
        for op in run:
            if op.kind == "fourier":
                m = f @ m
            elif op.kind == "fourier_dag":
                m = f.conj().T @ m
            else:
                src, g = _compile_run([op], [wire], d)
                m = g[:, None] * m[src]
        passes.append(_Product(wires.index(wire) + 1, _read_only(m)))
    return tuple(passes)


def _apply_ops(
    t: np.ndarray, circuit: Circuit, reg: Register, spare: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Left-multiply the circuit's compiled passes, in order, into ``t``.

    ``t`` is C-contiguous with one axis per wire of ``reg``, optionally
    followed by a column axis, and is the caller's to overwrite. The
    passes were compiled once per circuit (``Circuit._passes``); here
    they are only executed. When the circuit's wires are one in-order
    block of ``reg``, the passes act on ``t`` in place of that block,
    with every other wire folded into the lead and trail axes; otherwise
    they act on a copy of ``t`` transposed so that the circuit's wires
    lead. Each pass writes the whole tensor into ``spare``, a C-contiguous
    buffer of ``t``'s size whose entries are never read, and the two then
    swap roles. Returns the result and, flat, the buffer left free; only
    the transposed copy is allocated here.
    """
    d, k = reg.d, circuit.register.num_wires
    pos = reg.positions(circuit.register.wires)
    perm = None
    if pos != tuple(range(pos[0], pos[0] + k)):
        perm = [*pos, *(i for i in range(t.ndim) if i not in pos)]
        t = np.ascontiguousarray(t.transpose(perm))
    x = t.reshape(d ** (0 if perm else pos[0]), *[d] * k, -1)
    spare = spare.reshape(x.shape)
    for p in circuit._passes:
        p.apply(x, spare)
        x, spare = spare, x
    x = x.reshape(t.shape)
    return (x if perm is None else x.transpose(np.argsort(perm))), spare.reshape(-1)


def circuit_to_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the circuit (ordered product of embedded gates)."""
    reg = circuit.register
    dim = reg.dim
    _check_operator_dim(dim, "circuit register")
    t = np.eye(dim, dtype=complex).reshape([reg.d] * reg.num_wires + [dim])
    return _apply_ops(t, circuit, reg, np.empty_like(t))[0].reshape(dim, dim)


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Run the circuit's gates on the state's wires of the same names.

    State wires the circuit does not name are left alone, and no dense
    operator is built. The input state is not modified. The circuit is
    compiled on its first evaluation, here or in ``circuit_to_unitary``,
    and keeps its passes, so applying it again only executes them.
    """
    reg = state.register
    if reg.d != circuit.register.d:
        raise ValueError(
            f"circuit dimension {circuit.register.d} does not match the state's {reg.d}"
        )
    reg.positions(circuit.register.wires)  # raises on a wire the state lacks
    t = state.tensor().copy()
    return StateVector(reg, _apply_ops(t, circuit, reg, np.empty_like(t))[0])


def q_entries(d: int) -> np.ndarray:
    """Diagonal entries q_k = (1/sqrt d) sum_j c(j) w^{jk}; all unit modulus."""
    return gates.fourier(d) @ cazac.chu(d).values


def q_gate(d: int, wire: str = "q0") -> GateOp:
    """The diagonal phase gate absorbing the coefficient spectrum.

    Stored as absolute phases arg(q_k); the k=0 rotation is counted as
    absorbed in the gate tally (d-1 single-qudit rotations).
    """
    phases = tuple(float(a) for a in np.angle(q_entries(d)))
    return GateOp(kind="diag", targets=(wire,), phases=phases)


def build_vpz_circuit(d: int, n: int) -> Circuit:
    """Shift-controlled ladder + diagonal phase + inverse ladder.

    The ladder accumulates the digit sum of (A, S_1..S_n) onto S_n, the
    diagonal gate applies the coefficient phase for that sum, and the
    inverse ladder restores the digits: exactly the Chu-weighted phase
    power sum V(P_Z).
    """
    if n < 1:
        raise ValueError("at least one share required")
    reg = Register(d, tuple(["A"] + [f"S{i}" for i in range(1, n + 1)]))
    w = reg.wires
    ops = [
        GateOp(kind="cpow", base="x", power=1, controls=(w[i],), targets=(w[i + 1],))
        for i in range(n)
    ]
    ops.append(q_gate(d, wire=w[n]))
    ops += [
        GateOp(kind="cpow", base="x", power=d - 1, controls=(w[i],), targets=(w[i + 1],))
        for i in reversed(range(n))
    ]
    return Circuit(reg, tuple(ops))


def build_vpx_circuit(d: int, n: int) -> Circuit:
    """V(P_X) circuit: Fourier conjugation of the V(P_Z) circuit.

    Fourier gates wrap every wire, the data wire included; the bare
    ladder count 2n would not reproduce the operator.
    """
    vpz = build_vpz_circuit(d, n)
    w = vpz.register.wires
    ops = [GateOp(kind="fourier", targets=(x,)) for x in w]
    ops += list(vpz.ops)
    ops += [GateOp(kind="fourier_dag", targets=(x,)) for x in w]
    return Circuit(vpz.register, tuple(ops))


def build_enc_factored(d: int, n: int) -> Circuit:
    """Encryption V(P_X) V(P_Z) on (A, S_1..S_n) in 4n + 4 gates, three passes.

    The ``build_vpz_circuit`` gates come first. Then a difference ladder,
    X^(d-1) controlled by w[i+1] onto w[i] for i = 0..n-1, maps the digits
    a_i to a_i - a_(i+1); in those coordinates a shift of all n + 1 digits
    by k moves S_n only. P_X, X on every wire, is there X on S_n, so V(P_X)
    is the ladder, then F, q and F^dag on S_n (the one-wire ``build_vpx_circuit``),
    then the inverse ladder. The evaluator runs it as one gather, one
    d x d product on S_n and one gather. The q gate on S_n is the one
    ``build_vpz_circuit`` placed there, used twice.
    """
    vpz = build_vpz_circuit(d, n)
    w = vpz.register.wires
    q = vpz.ops[n]
    ops = list(vpz.ops)
    ops += [
        GateOp(kind="cpow", base="x", power=d - 1, controls=(w[i + 1],), targets=(w[i],))
        for i in range(n)
    ]
    ops += [
        GateOp(kind="fourier", targets=(w[n],)),
        q,
        GateOp(kind="fourier_dag", targets=(w[n],)),
    ]
    ops += [
        GateOp(kind="cpow", base="x", power=1, controls=(w[i + 1],), targets=(w[i],))
        for i in reversed(range(n))
    ]
    return Circuit(vpz.register, tuple(ops))


def build_tbar(d: int) -> np.ndarray:
    """Bell-basis analyzer: maps (X^k Z^l x I)|Phi_d> to |k>|l>.

    Materialized densely from the defining mapping: row k*d + l is the
    conjugated Bell-basis vector of (k, l). The gate-level realization
    used inside the decryption circuit is checked against this matrix in
    the tests.
    """
    return gates.bell_basis(d).conj()


def _tbar_ops(s1: str, n1: str, d: int) -> list[GateOp]:
    # un-shift S1 by N1's value, then rotate N1 out of the phase basis
    return [
        GateOp(kind="cpow", base="x", power=d - 1, controls=(n1,), targets=(s1,)),
        GateOp(kind="fourier_dag", targets=(n1,)),
    ]


def _tbar_dag_ops(s1: str, n1: str, d: int) -> list[GateOp]:
    return [
        GateOp(kind="fourier", targets=(n1,)),
        GateOp(kind="cpow", base="x", power=1, controls=(n1,), targets=(s1,)),
    ]


def _c_gate_ops(s1: str, n1: str, d: int) -> list[GateOp]:
    # relay gate C = (sum_c X^{2c} x |c><c|) . (I x F^2)
    return [
        GateOp(kind="fourier", targets=(n1,)),
        GateOp(kind="fourier", targets=(n1,)),
        GateOp(kind="cpow", base="x", power=2 % d, controls=(n1,), targets=(s1,)),
    ]


def _tkl_ops(
    c: np.ndarray, k: int, l: int, s1: str, n1: str, locals_: list[str]
) -> list[GateOp]:
    """Gates of one conditional correction block, fired when (S1,N1)=(k,l).

    ``c`` holds the Chu coefficients. The coefficient phase is a
    controlled global phase (the drawn wire is immaterial); each
    remaining local wire gets Z^-l then X^k. (k, l) are also the control
    levels, so ``Circuit`` refuses exponents outside 0..d-1.
    """
    d = len(c)
    phase = float(-np.angle(c[k % d] * c[l % d]))  # conj(c_kl)/conj(c_00), c_00 = 1
    controls = (s1, n1)
    levels = (k, l)
    ops = [
        GateOp(kind="scalar", phase=phase, controls=controls, control_levels=levels)
    ]
    for wire in locals_:
        ops.append(
            GateOp(kind="zpow", power=(d - l) % d, targets=(wire,),
                   controls=controls, control_levels=levels)
        )
        ops.append(
            GateOp(kind="xpow", power=k % d, targets=(wire,),
                   controls=controls, control_levels=levels)
        )
    return ops


def build_tkl(d: int, n: int, k: int, l: int) -> Circuit:
    """Conditional correction block T_kl on (S1, N1, S2, N2..Nn)."""
    if n < 1:
        raise ValueError("at least one share required")
    if n == 1:
        wires = ("S1", "N1")
        locals_: list[str] = []
    else:
        wires = tuple(["S1", "N1", "S2"] + [f"N{j}" for j in range(2, n + 1)])
        locals_ = [f"N{j}" for j in range(2, n + 1)]
    ops = _tkl_ops(cazac.chu(d).values, k, l, "S1", "N1", locals_)
    return Circuit(Register(d, wires), tuple(ops))


def build_udec_circuit(params: "ProtocolParams") -> Circuit:
    """Decryption circuit on (S_t, N_t, N_j for j != t), t the target share.

    Bell analyzer in, the d^2 - 1 nontrivial conditional corrections in
    index order, analyzer out, then the relay gate and the final swap;
    evaluates to the dense decryption unitary.
    """
    d, n, t = params.d, params.n, params.target_party
    s, nt = f"S{t}", f"N{t}"
    locals_ = [f"N{j}" for j in range(1, n + 1) if j != t]
    reg = Register(d, (s, nt, *locals_))
    c = cazac.chu(d).values
    ops: list[GateOp] = [GateOp(kind="scalar", phase=0.0)]  # c_00 prefactor
    ops += _tbar_ops(s, nt, d)
    for idx in range(1, d * d):
        k, l = divmod(idx, d)
        ops += _tkl_ops(c, k, l, s, nt, locals_)
    ops += _tbar_dag_ops(s, nt, d)
    ops += _c_gate_ops(s, nt, d)
    ops.append(GateOp(kind="swap", targets=(s, nt)))
    return Circuit(reg, tuple(ops))


def build_udec_factored(params: "ProtocolParams") -> Circuit:
    """Decryption circuit with O(n) gates, on the wires of ``build_udec_circuit``.

    The d^2 - 1 blocks of the literal circuit factor: after the analyzer
    (S_t, N_t) holds (k, l), so conj(c_k c_l) is one diagonal gate on each
    wire, and X^k Z^-l on every other N_j is a Z^-1 power controlled by N_t
    then an X power controlled by S_t. The literal tail, analyzer out
    (F, CX), C (F, F, CX^2) and SWAP, shortens to F^dag, CX, SWAP: F^2
    negates N_t's index, so the CX before it and the CX^2 after it merge
    into one CX after it, and F . F^2 = F^3 = F^dag since F^4 = I.
    """
    d, n, t = params.d, params.n, params.target_party
    s, nt = f"S{t}", f"N{t}"
    locals_ = [f"N{j}" for j in range(1, n + 1) if j != t]
    phases = tuple(-np.angle(cazac.chu(d).values))
    ops = _tbar_ops(s, nt, d)
    ops += [GateOp(kind="diag", targets=(w,), phases=phases) for w in (s, nt)]
    for wire in locals_:
        ops.append(GateOp(kind="cpow", base="z", power=d - 1, controls=(nt,),
                          targets=(wire,)))
        ops.append(GateOp(kind="cpow", base="x", power=1, controls=(s,), targets=(wire,)))
    ops += [
        GateOp(kind="fourier_dag", targets=(nt,)),
        GateOp(kind="cpow", base="x", power=1, controls=(nt,), targets=(s,)),
        GateOp(kind="swap", targets=(s, nt)),
    ]
    return Circuit(Register(d, (s, nt, *locals_)), tuple(ops))


class GateCounts(NamedTuple):
    """Closed-form one- and two-qudit gate counts for one (d, n), a row of ``counts``."""

    d: int
    n: int
    ne1q: int
    ne2q: int
    nd1q: int
    nd2q: int


def gate_counts(d: int, n: int) -> GateCounts:
    """Encryption/decryption cost model.

    Two-qudit decryption counts charge each double-controlled gate at
    its 8(d-1) two-qudit upper bound; that expansion is a cost model
    only and is never executed.
    """
    _check_dim(d)
    _check_int(n, "party count")
    if n < 1:
        raise ValueError(f"party count must be >= 1, got {n}")
    ne2q = 4 * n
    ne1q = 2 * n + 2 * (d - 1)
    nd1q = 2 + (2 * n - 1) * d * d * (d - 1)
    nd2q = 9 + 8 * (2 * n - 1) * (d ** 3 - d ** 2 - d + 1)
    return GateCounts(d, n, ne1q, ne2q, nd1q, nd2q)


def counts_table(d_values, n_values) -> list[GateCounts]:
    return [gate_counts(d, n) for d in d_values for n in n_values]


def tally_gates(circuit: Circuit) -> dict:
    """Count circuit gates by arity under the cost-model accounting.

    Diagonal phase gates count as d-1 single-qudit rotations (the first
    is absorbed as a global phase); bare scalars are free; gates with
    two or more control wires land in the ``multi`` bucket.
    """
    d = circuit.register.d
    out = {"one_qudit": 0, "two_qudit": 0, "multi": 0}
    for op in circuit.ops:
        arity = len(op.wires)
        if op.kind == "diag":
            out["one_qudit"] += d - 1
        elif op.kind == "scalar" and not op.controls:
            continue
        elif arity == 1:
            out["one_qudit"] += 1
        elif arity == 2:
            out["two_qudit"] += 1
        else:
            out["multi"] += 1
    return out
