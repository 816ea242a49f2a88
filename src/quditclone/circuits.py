"""Gate-level circuit IR, circuit builders and the gate-count model.

A circuit is an ordered list of gate descriptors over a register. A
descriptor names a base gate (shift power, phase power, Fourier,
diagonal phase list, controlled power, swap, or a bare scalar phase)
plus optional control wires, each with the level on which the base
gate fires (a controlled power instead fires base^j on every control
level j); that is how the level-controlled gates of the decryption
circuit are expressed. ``apply_circuit`` runs a circuit on a state
vector, which is how the protocol executes; ``circuit_to_unitary``
expands one into a dense matrix for comparison with the paper's
operator formulas.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import cazac, gates
from .linalg import Register, StateVector, _apply_on_axes, _check_dim, _check_operator_dim
from .protocol import ProtocolParams

KINDS = (
    "xpow",         # shift power X^power
    "zpow",         # phase power Z^power
    "fourier",
    "fourier_dag",
    "diag",         # diagonal phase gate, entries exp(i*phases[k])
    "cpow",         # controlled power: |j>|k> -> |j> base^j |k>
    "swap",
    "scalar",       # global phase exp(i*phase), possibly level-controlled
)

_TARGET_COUNT = {
    "xpow": 1, "zpow": 1, "fourier": 1, "fourier_dag": 1,
    "diag": 1, "cpow": 1, "swap": 2, "scalar": 0,
}


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
        if len(self.targets) != _TARGET_COUNT[self.kind]:
            raise ValueError(
                f"{self.kind} takes {_TARGET_COUNT[self.kind]} target(s), "
                f"got {self.targets}"
            )
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
        params: dict = {}
        if self.kind in ("xpow", "zpow"):
            params["power"] = self.power
        elif self.kind == "cpow":
            params["base"] = self.base
            params["power"] = self.power
        elif self.kind == "diag":
            params["phases"] = list(self.phases)
        elif self.kind == "scalar":
            params["phase"] = self.phase
        return {
            "kind": self.kind,
            "params": params,
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

    def to_ops_json(self) -> str:
        return json.dumps([op.to_dict() for op in self.ops], indent=2, sort_keys=True)


def _base_matrix(op: GateOp, d: int) -> np.ndarray:
    if op.kind == "xpow":
        return gates.x_power(d, op.power)
    if op.kind == "zpow":
        return gates.z_power(d, op.power)
    if op.kind == "fourier":
        return gates.fourier(d)
    if op.kind == "fourier_dag":
        return gates.fourier(d).conj().T
    if op.kind == "diag":
        return np.diag(np.exp(1j * np.array(op.phases)))
    if op.kind == "swap":
        return gates.swap_gate(d)
    if op.kind == "scalar":
        return np.full((1, 1), np.exp(1j * op.phase))
    raise ValueError(f"no base matrix for kind {op.kind!r}")


def _blocks(op: GateOp, d: int) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """(control levels, matrix) pairs that together make up one gate.

    Each matrix acts on the gate's targets inside the slice where the
    controls hold those levels; every other slice is left alone. A
    controlled power fires base^(j*power) on each control level j.
    """
    if op.kind == "cpow":
        power = gates.x_power if op.base == "x" else gates.z_power
        return [((j,), power(d, j * op.power)) for j in range(1, d)]
    return [(op.control_levels, _base_matrix(op, d))]


def _apply_ops(t: np.ndarray, circuit: Circuit, reg: Register) -> np.ndarray:
    """Left-multiply the circuit's gates, in order, into ``t``.

    ``t`` has one axis per wire of ``reg``, optionally followed by a
    column axis; a controlled gate touches only its control slice, which
    it writes in place, so ``t`` may be modified. The result is returned.
    """
    for op in circuit.ops:
        cpos = reg.positions(op.controls)
        # integer-indexing the control axes drops them from the slice
        tpos = [p - sum(c < p for c in cpos) for p in reg.positions(op.targets)]
        for levels, mat in _blocks(op, reg.d):
            if not levels:
                # uncontrolled: take the new array, no full-state write-back
                t = _apply_on_axes(t, mat, tpos)
                continue
            ix = [slice(None)] * t.ndim
            for p, lv in zip(cpos, levels):
                ix[p] = lv
            sub = t[tuple(ix)]
            sub[...] = _apply_on_axes(sub, mat, tpos)
    return t


def circuit_to_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the circuit (ordered product of embedded gates)."""
    reg = circuit.register
    dim = reg.dim
    _check_operator_dim(dim, "circuit register")
    t = np.eye(dim, dtype=complex).reshape([reg.d] * reg.num_wires + [dim])
    return _apply_ops(t, circuit, reg).reshape(dim, dim)


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Run the circuit's gates on the state's wires of the same names.

    State wires the circuit does not name are left alone, and no dense
    operator is built. The input state is not modified.
    """
    reg = state.register
    if reg.d != circuit.register.d:
        raise ValueError(
            f"circuit dimension {circuit.register.d} does not match the state's {reg.d}"
        )
    reg.positions(circuit.register.wires)  # raises on a wire the state lacks
    t = _apply_ops(state.tensor().copy(), circuit, reg)
    return StateVector(reg, t)


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
    remaining local wire gets Z^-l then X^k.
    """
    d = len(c)
    phase = float(-np.angle(c[k] * c[l]))  # conj(c_kl)/conj(c_00), c_00 = 1
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
    gates.WeylIndex(d, k, l)  # validates ranges
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


def build_udec_circuit(params: ProtocolParams) -> Circuit:
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


@dataclass(frozen=True)
class GateCounts:
    """Closed-form one- and two-qudit gate counts for one (d, n)."""

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
    if n < 1:
        raise ValueError(f"party count must be >= 1, got {n}")
    ne2q = 4 * n
    ne1q = 2 * n + 2 * (d - 1)
    nd1q = 2 + (2 * n - 1) * d * d * (d - 1)
    nd2q = 9 + 8 * (2 * n - 1) * (d ** 3 - d ** 2 - d + 1)
    return GateCounts(d, n, ne1q, ne2q, nd1q, nd2q)


DEFAULT_D_SWEEP = tuple(range(2, 11))
DEFAULT_N_SWEEP = (2, 5, 10)


def counts_table(d_values=DEFAULT_D_SWEEP, n_values=DEFAULT_N_SWEEP) -> list[GateCounts]:
    return [gate_counts(d, n) for d in d_values for n in n_values]


def counts_csv(d_values=DEFAULT_D_SWEEP, n_values=DEFAULT_N_SWEEP) -> str:
    lines = ["d,n,NE1Q,NE2Q,ND1Q,ND2Q"]
    for c in counts_table(d_values, n_values):
        lines.append(f"{c.d},{c.n},{c.ne1q},{c.ne2q},{c.nd1q},{c.nd2q}")
    return "\n".join(lines) + "\n"


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
