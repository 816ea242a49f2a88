import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    controlled_power,
    embed_apply,
    p_controlled,
    protocol_register,
    random_unit_vector,
)
from quditclone import (
    Circuit,
    GateOp,
    ProtocolParams,
    Register,
    StateVector,
    apply_circuit,
    build_enc_factored,
    build_tbar,
    build_tkl,
    build_udec_circuit,
    build_udec_factored,
    build_vpx_circuit,
    build_vpz_circuit,
    circuit_to_unitary,
    counts_table,
    fourier,
    gate_counts,
    is_unitary,
    kron_all,
    max_abs_diff,
    pauli_product,
    q_entries,
    q_gate,
    shift_x,
    tally_gates,
    u_dec_dense,
    u_enc,
    v_of_p,
    x_power,
    z_power,
)
from quditclone import circuits, protocol
from quditclone.cazac import chu
from quditclone.circuits import KINDS, _apply_ops, _runs, _tbar_dag_ops, _tbar_ops
from quditclone.gates import bell_basis

TOL = 1e-10


def test_q_gate_d2_values():
    entries = q_entries(2)
    expected = np.array([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
    assert max_abs_diff(entries, expected) < 1e-15


def test_q_gate_unit_modulus():
    for d in range(2, 11):
        assert max_abs_diff(np.abs(q_entries(d)), np.ones(d)) < TOL


def test_q_gate_is_coefficient_spectrum():
    for d in range(2, 11):
        expected = fourier(d) @ chu(d).values
        assert max_abs_diff(q_entries(d), expected) == 0


def test_q_gate_op_phases_match_entries():
    op = q_gate(3, wire="s")
    assert op.kind == "diag" and op.targets == ("s",)
    assert max_abs_diff(np.exp(1j * np.array(op.phases)), q_entries(3)) < 1e-12


def test_empty_circuit_is_identity():
    reg = Register(3, ("a", "b"))
    assert max_abs_diff(circuit_to_unitary(Circuit(reg, ())), np.eye(9)) == 0


def test_single_fourier_circuit():
    reg = Register(5, ("a",))
    circ = Circuit(reg, (GateOp(kind="fourier", targets=("a",)),))
    assert max_abs_diff(circuit_to_unitary(circ), fourier(5)) == 0


def test_gateop_validation():
    with pytest.raises(ValueError):
        GateOp(kind="bogus", targets=("a",))
    with pytest.raises(ValueError):
        GateOp(kind="swap", targets=("a", "a"))
    with pytest.raises(ValueError):
        GateOp(kind="cpow", targets=("a",), controls=("b", "c"))
    with pytest.raises(ValueError):
        GateOp(kind="xpow", targets=("a",), controls=("b",), control_levels=(1, 2))
    with pytest.raises(ValueError):
        GateOp(kind="xpow", power=1, targets=("a",), controls=("b",))


def test_circuit_rejects_unknown_wires():
    reg = Register(2, ("a", "b"))
    with pytest.raises(ValueError):
        Circuit(reg, (GateOp(kind="fourier", targets=("zz",)),))


def test_circuit_rejects_control_levels_out_of_range():
    # a negative level used to fire on level d + level, one >= d to fail
    # only at evaluation
    for d, level in ((3, -1), (2, 5), (2, 2)):
        op = GateOp(kind="xpow", power=1, targets=("a",), controls=("b",),
                    control_levels=(level,))
        with pytest.raises(ValueError, match="control levels"):
            Circuit(Register(d, ("a", "b")), (op,))
    op = GateOp(kind="xpow", power=1, targets=("a",), controls=("b",), control_levels=(2,))
    Circuit(Register(3, ("a", "b")), (op,))  # the top level is valid
    # a correction block's exponents (k, l) are its control levels
    for k, l in ((3, 0), (0, -1)):
        with pytest.raises(ValueError, match="control levels"):
            build_tkl(3, 2, k, l)


def test_circuit_rejects_diag_phase_count():
    # a diag with the wrong phase count used to fail only at evaluation
    op = GateOp(kind="diag", targets=("a",), phases=(0.0, 1.0))
    with pytest.raises(ValueError, match="diag gate needs 3 phases"):
        Circuit(Register(3, ("a",)), (op,))
    Circuit(Register(2, ("a",)), (op,))


def test_cpow_op_matches_controlled_power_gate():
    for d in (2, 3, 5):
        reg = Register(d, ("c", "t"))
        circ = Circuit(
            reg, (GateOp(kind="cpow", base="x", power=1, controls=("c",), targets=("t",)),)
        )
        assert max_abs_diff(circuit_to_unitary(circ), controlled_power(shift_x(d), d)) < 1e-12


def test_level_controlled_op_matches_p_controlled_gate():
    for d, p in [(3, 2), (4, 3), (5, 1)]:
        reg = Register(d, ("c", "t"))
        # p_controlled applies X^p on the matching level; the IR spells
        # the power out explicitly on a level-controlled shift
        circ = Circuit(
            reg,
            (GateOp(kind="xpow", power=p, targets=("t",),
                    controls=("c",), control_levels=(p,)),),
        )
        assert max_abs_diff(circuit_to_unitary(circ), p_controlled(shift_x(d), d, p)) < 1e-12


def test_vpz_circuit_matches_dense():
    for d, n in [(2, 1), (3, 1), (3, 2)]:
        got = circuit_to_unitary(build_vpz_circuit(d, n))
        want = v_of_p(pauli_product("z", d, n), d)
        assert max_abs_diff(got, want) < TOL


def test_vpz_gate_tally():
    circ = build_vpz_circuit(2, 1)
    assert len(circ.ops) == 3
    for d, n in [(2, 1), (3, 2), (4, 3)]:
        circ = build_vpz_circuit(d, n)
        kinds = [op.kind for op in circ.ops]
        assert kinds.count("cpow") == 2 * n
        assert kinds.count("diag") == 1


def test_vpx_circuit_matches_dense():
    for d, n in [(2, 1), (3, 1), (3, 2)]:
        got = circuit_to_unitary(build_vpx_circuit(d, n))
        want = v_of_p(pauli_product("x", d, n), d)
        assert max_abs_diff(got, want) < TOL


def test_vpx_adds_fourier_layer():
    for d, n in [(2, 1), (3, 2)]:
        vpz = build_vpz_circuit(d, n)
        vpx = build_vpx_circuit(d, n)
        assert len(vpx.ops) - len(vpz.ops) == 2 * (n + 1)


def test_vpz_circuit_unitary():
    check = is_unitary(circuit_to_unitary(build_vpz_circuit(3, 2)), 1e-12)
    assert check


def test_vpx_d2_is_hadamard_conjugation():
    h = fourier(2)
    hh = np.kron(h, h)
    want = hh.conj().T @ circuit_to_unitary(build_vpz_circuit(2, 1)) @ hh
    got = circuit_to_unitary(build_vpx_circuit(2, 1))
    assert max_abs_diff(got, want) < 1e-12


def test_encryption_tally_reconciles_with_count_model():
    # two-qudit tallies match exactly; the one-qudit tally carries two
    # extra Fourier gates on the data wire, which the closed form omits
    for d, n in [(2, 1), (3, 2), (5, 3)]:
        tz = tally_gates(build_vpz_circuit(d, n))
        tx = tally_gates(build_vpx_circuit(d, n))
        counts = gate_counts(d, n)
        assert tz["two_qudit"] + tx["two_qudit"] == counts.ne2q
        assert tz["one_qudit"] + tx["one_qudit"] == counts.ne1q + 2
        assert tz["multi"] == tx["multi"] == 0


def test_tbar_maps_bell_basis_to_kets():
    for d in (2, 3, 4):
        tbar = build_tbar(d)
        for k in range(d):
            for l in range(d):
                out = tbar @ bell_basis(d)[k * d + l]
                expected = np.zeros(d * d)
                expected[k * d + l] = 1.0
                assert max_abs_diff(out, expected) < TOL


def test_tbar_unitary():
    assert is_unitary(build_tbar(5), TOL)


def test_tbar_gate_realization_matches_dense():
    for d in (2, 3, 4, 5):
        reg = Register(d, ("S1", "N1"))
        circ = Circuit(reg, tuple(_tbar_ops("S1", "N1", d)))
        assert max_abs_diff(circuit_to_unitary(circ), build_tbar(d)) < 1e-12
        dag = Circuit(reg, tuple(_tbar_dag_ops("S1", "N1", d)))
        assert max_abs_diff(circuit_to_unitary(dag), build_tbar(d).conj().T) < 1e-12


def _tkl_dense_oracle(d, n, k, l):
    """Projector form on the build_tkl register (S1, N1, S2, N2..Nn)."""
    c = chu(d).values
    gamma = np.conj(c[k] * c[l])
    proj = np.zeros((d * d, d * d), dtype=complex)
    proj[k * d + l, k * d + l] = 1.0
    spectator = np.eye(d) if n >= 2 else np.eye(1)
    corr = kron_all([x_power(d, k) @ z_power(d, -l)] * max(n - 1, 0))
    dim_rest = spectator.shape[0] * corr.shape[0]
    hit = gamma * np.kron(proj, np.kron(spectator, corr))
    miss = np.kron(np.eye(d * d) - proj, np.eye(dim_rest))
    return hit + miss


def test_tkl_identity_block():
    for d, n in [(2, 1), (3, 2)]:
        circ = build_tkl(d, n, 0, 0)
        assert max_abs_diff(circuit_to_unitary(circ), np.eye(circ.register.dim)) < 1e-12


def test_tkl_matches_projector_form():
    for d, n, k, l in [(2, 2, 1, 1), (3, 2, 2, 1), (3, 3, 1, 2), (2, 1, 1, 0)]:
        got = circuit_to_unitary(build_tkl(d, n, k, l))
        assert max_abs_diff(got, _tkl_dense_oracle(d, n, k, l)) < 1e-12


def test_tkl_d2_n2_block_action():
    # on (S1,N1) = (1,1): phase -1 and X Z^-1 on N2, identity on S2
    d, n = 2, 2
    u = circuit_to_unitary(build_tkl(d, n, 1, 1))
    reg = build_tkl(d, n, 1, 1).register
    assert reg.wires == ("S1", "N1", "S2", "N2")
    corr = -(x_power(2, 1) @ z_power(2, -1))
    block = u.reshape(4, 4, 4, 4)[3, :, 3, :]
    assert max_abs_diff(block, np.kron(np.eye(2), corr)) < 1e-12
    miss = u.reshape(4, 4, 4, 4)[0, :, 0, :]
    assert max_abs_diff(miss, np.eye(4)) < 1e-12


def test_tkl_products_commute_and_stay_unitary():
    d, n = 3, 2
    mats = [
        circuit_to_unitary(build_tkl(d, n, k, l))
        for k in range(d)
        for l in range(d)
    ]
    forward = np.eye(mats[0].shape[0], dtype=complex)
    for m in mats:
        forward = m @ forward
    backward = np.eye(mats[0].shape[0], dtype=complex)
    for m in reversed(mats):
        backward = m @ backward
    assert max_abs_diff(forward, backward) < 1e-12
    assert is_unitary(forward, TOL)


def test_udec_circuit_matches_dense():
    for d, n, t in [(2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1), (3, 3, 2)]:
        params = ProtocolParams(d, n, t)
        others = tuple(f"N{j}" for j in range(1, n + 1) if j != t)
        for build in (build_udec_circuit, build_udec_factored):
            circ = build(params)
            assert circ.register.wires == (f"S{t}", f"N{t}") + others
            assert max_abs_diff(circuit_to_unitary(circ), u_dec_dense(params)) < TOL


def test_udec_factored_tally_is_linear():
    # 2d one-qudit gates (two analyzer Fourier gates and two diagonals of
    # d - 1 rotations each) and 2n + 1 two-qudit gates, with no d^2 term,
    # and five passes; building allocates nothing, so (d, n) past the state
    # cap are taken too
    for d in range(2, 65):
        for n in range(1, 11):
            circ = build_udec_factored(SimpleNamespace(d=d, n=n, target_party=n))
            assert len(circ.ops) == 2 * n + 5
            assert tally_gates(circ) == {"one_qudit": 2 * d, "two_qudit": 2 * n + 1,
                                         "multi": 0}, (d, n)
            assert len(_runs(circ.ops)) == 5, (d, n)


def test_apply_circuit_matches_embedded_unitary():
    rng = np.random.default_rng(23)
    for d, n in [(2, 1), (3, 1), (2, 2), (4, 2), (2, 3), (3, 3)]:
        reg = protocol_register(d, n)
        circs = [build_vpz_circuit(d, n), build_vpx_circuit(d, n), build_enc_factored(d, n)]
        circs += [build_udec_circuit(ProtocolParams(d, n, t)) for t in sorted({1, n})]
        for circ in circs:
            state = StateVector(reg, random_unit_vector(rng, reg.dim))
            got = apply_circuit(state, circ)
            want = embed_apply(state, circuit_to_unitary(circ), circ.register.wires)
            assert max_abs_diff(got.amplitudes, want.amplitudes) < 1e-12


def test_encryption_circuits_match_u_enc_on_run_large_grid():
    # the benchmark's run-large (d, n): vpz then vpx on the state is u_enc,
    # and so is the factored encryption circuit
    rng = np.random.default_rng(37)
    for d, n in [(2, 8), (3, 5), (4, 4), (5, 3), (6, 3)]:
        reg = protocol_register(d, n)
        state = StateVector(reg, random_unit_vector(rng, reg.dim))
        wires = ["A"] + [f"S{i}" for i in range(1, n + 1)]
        want = embed_apply(state, u_enc(ProtocolParams(d, n)), wires)
        literal = apply_circuit(apply_circuit(state, build_vpz_circuit(d, n)),
                                build_vpx_circuit(d, n))
        factored = apply_circuit(state, build_enc_factored(d, n))
        for got in (literal, factored):
            assert max_abs_diff(got.amplitudes, want.amplitudes) < 1e-12, (d, n)


def test_enc_factored_tally_and_passes():
    # 4n + 4 gates: the vpz gates, the difference ladder, F q F^dag on S_n and
    # the inverse ladder; 2d one-qudit gates (two Fourier gates and two
    # diagonals of d - 1 rotations each) and 4n two-qudit gates, in three
    # passes
    for d in range(2, 65):
        for n in range(1, 11):
            circ = build_enc_factored(d, n)
            assert len(circ.ops) == 4 * n + 4
            assert tally_gates(circ) == {"one_qudit": 2 * d, "two_qudit": 4 * n,
                                         "multi": 0}, (d, n)
            assert len(_runs(circ.ops)) == 3, (d, n)


def _pass_shapes(circ):
    """Each compiled pass as ("gather", its table's entries) or ("product", d)."""
    return [("gather", len(p.src)) if isinstance(p, circuits._Gather) else ("product", len(p.m))
            for p in circ._passes]


def test_protocol_circuits_compile_to_pinned_passes():
    # every gather of a protocol circuit spans just the wires its gates
    # touch, d^k table entries for k wires, so no table exceeds d^(n+1)
    admitted = 0
    for d in range(2, 7):
        for n in range(1, 5):
            try:
                ProtocolParams(d, n)
            except ValueError:  # over the state cap
                continue
            admitted += 1
            full, pair, product = ("gather", d ** (n + 1)), ("gather", d * d), ("product", d)
            assert _pass_shapes(build_vpz_circuit(d, n)) == [full]
            assert _pass_shapes(build_vpx_circuit(d, n)) == (
                [product] * (n + 1) + [full] + [product] * (n + 1))
            assert _pass_shapes(build_enc_factored(d, n)) == [full, product, full]
            for t in sorted({1, n}):
                params = ProtocolParams(d, n, t)
                # at n = 1, diag(N1) stands just before F^dag on N1 and joins
                # its product, leaving diag(S1) alone in the middle gather
                middle = ("gather", d) if n == 1 else full
                assert _pass_shapes(build_udec_factored(params)) == [
                    pair, product, middle, product, pair]
                assert _pass_shapes(build_udec_circuit(params)) == [
                    pair, product, full, product, pair, product, pair]
    assert admitted == 19


def test_enc_factored_builds_its_q_gate_once(monkeypatch):
    # the q gate between F and F^dag on S_n is the vpz one, not a second build
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return q_gate(*args, **kwargs)

    monkeypatch.setattr(circuits, "q_gate", counted)
    d, n = 3, 2
    ops = build_enc_factored(d, n).ops
    assert len(calls) == 1
    assert ops[n] == ops[3 * n + 2] == q_gate(d, wire=f"S{n}")
    assert [op.kind for op in ops[3 * n + 1:3 * n + 4]] == ["fourier", "diag", "fourier_dag"]


def test_compiled_tables_are_read_only_and_reusable():
    # a run's circuits are shared across runs, so their tables must not change
    rng = np.random.default_rng(47)
    params = ProtocolParams(3, 2, target_party=2)
    reg = protocol_register(3, 2)
    fresh = [build_enc_factored(3, 2), build_udec_factored(params), build_udec_circuit(params)]
    cached = [protocol._enc_circuit(3, 2), *(protocol._dec_circuit(3, 2, p) for p in (False, True))]
    for circ, twin in zip(cached, fresh):
        assert circ == twin and circ is not twin
        states = [StateVector(reg, random_unit_vector(rng, reg.dim)) for _ in range(2)]
        before = [s.amplitudes.copy() for s in states]
        want = circuit_to_unitary(twin)
        for state, amps in zip(states, before):
            got = apply_circuit(state, circ)
            expect = embed_apply(state, want, circ.register.wires)
            assert max_abs_diff(got.amplitudes, expect.amplitudes) < 1e-12
            assert np.array_equal(state.amplitudes, amps)
        kinds = set()
        for p in circ._passes:
            for name in ("src", "g", "m"):
                table = getattr(p, name, None)
                if table is None:
                    continue
                kinds.add(name)
                with pytest.raises(ValueError, match="read-only"):
                    table[0] = 0
        assert kinds == {"src", "g", "m"}


def test_one_wire_stretch_is_one_pass():
    # uncontrolled gates on one wire, Fourier gates among them, are one pass
    # equal to their matrix product; a two-wire gate after them is another
    d = 3
    reg = Register(d, ("a", "b"))
    stretch = [
        GateOp(kind="diag", targets=("a",), phases=(0.3, -1.1, 2.0)),
        GateOp(kind="fourier", targets=("a",)),
        GateOp(kind="xpow", power=2, targets=("a",)),
        GateOp(kind="fourier_dag", targets=("a",)),
    ]
    assert _runs(stretch) == [stretch]
    want = np.eye(d, dtype=complex)
    for m in (np.diag(np.exp(1j * np.array(stretch[0].phases))), fourier(d),
              x_power(d, 2), fourier(d).conj().T):
        want = m @ want
    got = circuit_to_unitary(Circuit(reg, tuple(stretch)))
    assert max_abs_diff(got, np.kron(want, np.eye(d))) < 1e-14
    cx = GateOp(kind="cpow", base="x", power=1, controls=("a",), targets=("b",))
    for tail in (cx, GateOp(kind="zpow", power=1, targets=("b",))):
        assert _runs(stretch + [tail]) == [stretch, [tail]]
    # nor does a stretch take in a gate on its wire that has a control
    cz = GateOp(kind="zpow", power=1, targets=("a",), controls=("b",), control_levels=(1,))
    assert _runs(stretch + [cz]) == [stretch, [cz]]


def test_bare_gate_before_a_fourier_gate_joins_its_product():
    # passes group gates by their bare wire: a bare Z on a, after a CX that
    # a monomial run could take it into, goes with the Fourier gate on a
    d = 3
    reg = Register(d, ("a", "b"))
    cx = GateOp(kind="cpow", base="x", power=1, controls=("a",), targets=("b",))
    za = GateOp(kind="zpow", power=1, targets=("a",))
    fa = GateOp(kind="fourier", targets=("a",))
    assert _runs([cx, za, fa]) == [[cx], [za, fa]]
    want = np.kron(fourier(d) @ z_power(d, 1), np.eye(d)) @ controlled_power(shift_x(d), d)
    got = circuit_to_unitary(Circuit(reg, (cx, za, fa)))
    assert max_abs_diff(got, want) < 1e-14


def test_thirteen_wire_ladder_is_one_pass():
    # a monomial run is one pass however many wires it touches, here a
    # 2^13-entry gather table; it equals the gates applied one at a time
    d, wires = 2, tuple(f"q{i}" for i in range(13))
    ops = [GateOp(kind="cpow", base="xz"[i % 2], power=1, controls=(wires[i],),
                  targets=(wires[i + 1],)) for i in range(12)]
    ops.insert(6, GateOp(kind="diag", targets=("q6",), phases=(0.3, -1.1)))
    circ = Circuit(Register(d, wires), tuple(ops))
    assert _runs(circ.ops) == [ops]
    rng = np.random.default_rng(41)
    state = StateVector(circ.register, random_unit_vector(rng, d ** 13))
    want = state
    for op in ops:
        want = apply_circuit(want, Circuit(circ.register, (op,)))
    got = apply_circuit(state, circ)
    assert max_abs_diff(got.amplitudes, want.amplitudes) < 1e-12


def test_apply_circuit_leaves_input_unmodified():
    rng = np.random.default_rng(29)
    reg = protocol_register(3, 2)
    state = StateVector(reg, random_unit_vector(rng, reg.dim))
    before = state.amplitudes.copy()
    for circ in (build_vpx_circuit(3, 2), build_udec_circuit(ProtocolParams(3, 2))):
        out = apply_circuit(state, circ)
        assert np.array_equal(state.amplitudes, before)
        assert not np.shares_memory(out.amplitudes, state.amplitudes)


def test_gateop_refuses_controls_on_fourier_gates():
    # no protocol circuit controls a Fourier gate, so the evaluator never
    # needs a level slice of the state
    for kind in ("fourier", "fourier_dag"):
        for controls, levels in ((("b",), (1,)), (("b", "c"), (2, 0))):
            with pytest.raises(ValueError, match=f"{kind} takes no controls"):
                GateOp(kind=kind, targets=("a",), controls=controls, control_levels=levels)
        assert GateOp(kind=kind, targets=("a",)).controls == ()


def test_apply_circuit_rejects_foreign_register():
    state = StateVector(Register(2, ("a",)), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        apply_circuit(state, Circuit(Register(2, ("b",)), ()))
    with pytest.raises(ValueError):
        apply_circuit(state, Circuit(Register(3, ("a",)), ()))


def test_udec_circuit_has_expected_block_count():
    circ = build_udec_circuit(ProtocolParams(2, 1))
    conditional_scalars = [
        op for op in circ.ops if op.kind == "scalar" and op.controls
    ]
    assert len(conditional_scalars) == 3  # d^2 - 1 nontrivial corrections
    assert circ.ops[0].kind == "scalar" and circ.ops[0].phase == 0.0
    assert circ.ops[-1].kind == "swap"


def test_udec_circuit_tally():
    # the d^2 - 1 correction blocks are conditional scalars; their controls
    # on the n - 1 other locals land in the multi bucket, and the bare
    # leading scalar is free
    for d, n in ((2, 1), (3, 2), (4, 3)):
        assert tally_gates(build_udec_circuit(ProtocolParams(d, n))) == {
            "one_qudit": 4, "two_qudit": d * d + 3, "multi": 2 * (n - 1) * (d * d - 1)}, (d, n)


def test_gateop_and_builders_refuse_with_their_cause():
    with pytest.raises(ValueError, match="swap takes 2 target"):
        GateOp(kind="swap", targets=("a",))
    with pytest.raises(ValueError, match="cpow base must be 'x' or 'z'"):
        GateOp(kind="cpow", base="y", power=1, targets=("a",), controls=("b",))
    with pytest.raises(ValueError, match="phases must be finite"):
        GateOp(kind="diag", targets=("a",), phases=(0.0, np.nan))
    with pytest.raises(ValueError, match="phases must be finite"):
        GateOp(kind="scalar", phase=np.inf)
    with pytest.raises(ValueError, match="at least one share"):
        build_vpz_circuit(2, 0)
    with pytest.raises(ValueError, match="at least one share"):
        build_tkl(2, 0, 0, 0)


def test_circuit_serialization_round_trip_fields():
    circ = build_udec_circuit(ProtocolParams(2, 2))
    data = json.loads(json.dumps([op.to_dict() for op in circ.ops]))
    assert isinstance(data, list) and len(data) == len(circ.ops)
    for entry in data:
        assert set(entry) == {"kind", "params", "targets", "controls", "control_levels"}
    swaps = [e for e in data if e["kind"] == "swap"]
    assert swaps and swaps[0]["targets"] == ["S1", "N1"]


def test_to_dict_pins_every_kind():
    assert KINDS == ("xpow", "zpow", "fourier", "fourier_dag", "diag", "cpow", "swap", "scalar")
    lv = {"controls": ("c",), "control_levels": (1,)}
    cases = [
        (GateOp(kind="xpow", power=2, targets=("t",), **lv),
         {"kind": "xpow", "params": {"power": 2}, "targets": ["t"],
          "controls": ["c"], "control_levels": [1]}),
        (GateOp(kind="zpow", power=1, targets=("t",), **lv),
         {"kind": "zpow", "params": {"power": 1}, "targets": ["t"],
          "controls": ["c"], "control_levels": [1]}),
        (GateOp(kind="fourier", targets=("t",)),
         {"kind": "fourier", "params": {}, "targets": ["t"],
          "controls": [], "control_levels": []}),
        (GateOp(kind="fourier_dag", targets=("t",)),
         {"kind": "fourier_dag", "params": {}, "targets": ["t"],
          "controls": [], "control_levels": []}),
        (GateOp(kind="diag", phases=(0.5, -0.25), targets=("t",), **lv),
         {"kind": "diag", "params": {"phases": [0.5, -0.25]}, "targets": ["t"],
          "controls": ["c"], "control_levels": [1]}),
        (GateOp(kind="cpow", base="z", power=2, targets=("t",), controls=("c",)),
         {"kind": "cpow", "params": {"base": "z", "power": 2}, "targets": ["t"],
          "controls": ["c"], "control_levels": []}),
        (GateOp(kind="swap", targets=("t", "u"), **lv),
         {"kind": "swap", "params": {}, "targets": ["t", "u"],
          "controls": ["c"], "control_levels": [1]}),
        (GateOp(kind="scalar", phase=0.75, controls=("c", "e"), control_levels=(1, 2)),
         {"kind": "scalar", "params": {"phase": 0.75}, "targets": [],
          "controls": ["c", "e"], "control_levels": [1, 2]}),
    ]
    assert [op.kind for op, _ in cases] == list(KINDS)
    for op, want in cases:
        # json.dumps keeps key order, which circuit-dump writes as it is
        assert json.dumps(op.to_dict()) == json.dumps(want), op.kind


def test_level_controlled_gates_match_dense_before_and_after_their_targets():
    # control wire c on level lv before the targets, then after them; the
    # scalar gets a spectator wire t so that both cases exist for it too
    d = 3
    eye = np.eye(d)
    swap = np.eye(d * d)[[b * d + a for a in range(d) for b in range(d)]]
    cases = [
        (GateOp(kind="xpow", power=2, targets=("t",)), x_power(d, 2), ("t",)),
        (GateOp(kind="zpow", power=1, targets=("t",)), z_power(d, 1), ("t",)),
        (GateOp(kind="diag", phases=(0.3, -1.1, 2.0), targets=("t",)),
         np.diag(np.exp(1j * np.array([0.3, -1.1, 2.0]))), ("t",)),
        (GateOp(kind="scalar", phase=0.7), np.exp(0.7j) * eye, ("t",)),
        (GateOp(kind="swap", targets=("t", "u")), swap, ("t", "u")),
    ]
    for base, gate, wires in cases:
        rest = np.eye(len(gate))
        for lv in range(d):
            p = np.zeros((d, d))
            p[lv, lv] = 1
            op = GateOp(kind=base.kind, power=base.power, phases=base.phases,
                        phase=base.phase, targets=base.targets,
                        controls=("c",), control_levels=(lv,))
            for order, want in (
                (("c", *wires), kron_all([p, gate]) + kron_all([eye - p, rest])),
                ((*wires, "c"), kron_all([gate, p]) + kron_all([rest, eye - p])),
            ):
                got = circuit_to_unitary(Circuit(Register(d, order), (op,)))
                assert max_abs_diff(got, want) < 1e-14, (base.kind, lv, order)


def test_bare_scalar_run_is_a_global_phase():
    # a run of bare scalars spans no wire, so its gather table has one entry
    for wires in (("a",), ("a", "b")):
        circ = Circuit(Register(2, wires), (GateOp(kind="scalar", phase=1.0),
                                           GateOp(kind="scalar", phase=0.5)))
        want = np.exp(1.0j) * np.exp(0.5j) * np.eye(2 ** len(wires))
        assert max_abs_diff(circuit_to_unitary(circ), want) < 1e-15


def test_gateop_and_gate_counts_refuse_non_integers():
    with pytest.raises(ValueError, match="gate power must be an integer"):
        GateOp(kind="xpow", power=1.5, targets=("t",))
    with pytest.raises(ValueError, match="gate power must be an integer"):
        GateOp(kind="zpow", power=0.5, targets=("t",))
    with pytest.raises(ValueError, match="gate power must be an integer"):
        GateOp(kind="cpow", power=1.5, targets=("t",), controls=("c",))
    with pytest.raises(ValueError, match="control level must be an integer"):
        GateOp(kind="xpow", power=1, targets=("t",), controls=("c",), control_levels=(1.0,))
    with pytest.raises(ValueError, match="party count must be an integer"):
        gate_counts(3, 2.5)
    # numpy integers are integers
    op = GateOp(kind="xpow", power=np.int64(2), targets=("t",),
                controls=("c",), control_levels=(np.int32(1),))
    assert op.power == 2 and gate_counts(np.int64(3), np.int64(2)) == gate_counts(3, 2)


def test_gate_counts_frozen_rows():
    c = gate_counts(3, 2)
    assert (c.ne1q, c.ne2q, c.nd1q, c.nd2q) == (8, 8, 56, 393)
    c = gate_counts(2, 2)
    assert (c.ne1q, c.ne2q, c.nd1q, c.nd2q) == (6, 8, 14, 81)


def test_gate_counts_d2_two_qudit_decryption():
    for n in (1, 2, 5, 10):
        assert gate_counts(2, n).nd2q == 9 + 8 * (2 * n - 1) * 3


def test_two_qudit_encryption_count_ignores_dimension():
    for n in (1, 2, 5):
        counts = {gate_counts(d, n).ne2q for d in range(2, 11)}
        assert counts == {4 * n}


def test_counts_table_default_sweep():
    rows = counts_table(range(2, 11), (2, 5, 10))
    assert len(rows) == 27
    assert all(r.nd1q >= r.ne1q for r in rows)


def test_gate_counts_validation():
    with pytest.raises(ValueError):
        gate_counts(1, 2)
    with pytest.raises(ValueError):
        gate_counts(3, 0)


def test_circuit_on_an_in_order_block_matches_embedded_unitary():
    # a circuit whose wires are one in-order block of the state's register
    # runs in place of that block; gathers with and without phases, a
    # level-controlled gate and Fourier stretches, at offsets 0, 1 and 3
    rng = np.random.default_rng(59)
    d = 3
    reg = Register(d, tuple(f"w{i}" for i in range(6)))
    for offset in (0, 1, 3):
        a, b, c = reg.wires[offset:offset + 3]
        circ = Circuit(Register(d, (a, b, c)), (
            GateOp(kind="cpow", base="x", power=1, controls=(a,), targets=(b,)),
            GateOp(kind="fourier", targets=(c,)),
            GateOp(kind="zpow", power=2, targets=(c,)),
            GateOp(kind="swap", targets=(a, c)),
            GateOp(kind="fourier_dag", targets=(b,)),
            GateOp(kind="xpow", power=1, targets=(b,), controls=(a,), control_levels=(2,)),
            GateOp(kind="cpow", base="z", power=1, controls=(c,), targets=(a,)),
        ))
        state = StateVector(reg, random_unit_vector(rng, reg.dim))
        before = state.amplitudes.copy()
        got = apply_circuit(state, circ)
        want = embed_apply(state, circuit_to_unitary(circ), (a, b, c))
        assert max_abs_diff(got.amplitudes, want.amplitudes) < 1e-12, offset
        assert np.array_equal(state.amplitudes, before)
        # the evaluator acts on the block from the axis it is given; the
        # caller's tensor serves as one of the two buffers, and no entry
        # of the spare is read: a NaN there would reach the result
        t = state.tensor().copy()
        spare = np.full_like(t, np.nan)
        out, free = _apply_ops(t, circ, offset, spare)
        assert max_abs_diff(out.reshape(-1), got.amplitudes) < 1e-12, offset
        # what comes back is the two buffers that went in, one of them free
        for buf in (t, spare):
            assert np.shares_memory(out, buf) != np.shares_memory(free, buf)
    # and it allocates nothing of the state's size: numpy's broadcast
    # multiply of a gather's phases takes a scratch buffer of at most
    # np.getbufsize() entries, which is more than the state above, so
    # this call runs the last circuit on a state of 3^13 amplitudes
    t = np.zeros((d,) * 13, dtype=complex)
    t[(0,) * 13] = 1
    spare = np.empty_like(t)
    tracemalloc.start()
    out, _ = _apply_ops(t, circ, 3, spare)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 0.01 * t.nbytes, peak
    assert abs(np.linalg.norm(out) - 1) < 1e-12


def test_apply_circuit_without_passes_returns_a_copy():
    reg = Register(2, ("a", "b"))
    state = StateVector(reg, random_unit_vector(np.random.default_rng(61), reg.dim))
    out = apply_circuit(state, Circuit(reg, ()))
    assert np.array_equal(out.amplitudes, state.amplitudes)
    assert not np.shares_memory(out.amplitudes, state.amplitudes)


def test_apply_circuit_holds_two_states():
    # the passes swap between a reordered copy of the state and one spare,
    # and the result is read back into whichever of the two is free: the
    # call's peak is two states, with passes or without
    for d, n, t in ((4, 4, 1), (6, 3, 2)):
        reg = protocol_register(d, n)
        state = StateVector(reg, random_unit_vector(np.random.default_rng(d), reg.dim))
        circ = build_udec_factored(ProtocolParams(d, n, t))
        apply_circuit(state, circ)  # compile the passes outside the measurement
        for c in (circ, Circuit(reg, ())):
            tracemalloc.start()
            out = apply_circuit(state, c)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak <= 2.1 * state.amplitudes.nbytes, (d, n, len(c.ops), peak)
        # no passes: a copy in the state's order, sharing no memory with it
        assert np.array_equal(out.amplitudes, state.amplitudes)
        assert not np.shares_memory(out.amplitudes, state.amplitudes)
