"""Property tests: both decryption paths of a run (the factored and the
paper-literal circuit) agree on every report, a run's in-place scores agree
with the reduced-density and product-state oracles, the circuit evaluator
agrees with a product of dense per-gate matrices, and ``is_unitary`` on a
column-sparse matrix agrees with the dense product M M^dag."""

import numpy as np
from hypothesis import event, given, settings, strategies as st

from conftest import (
    controlled_power,
    gram_deviation,
    overlap,
    product_state,
    protocol_register,
    reduced_density,
    swap_gate,
)
from quditclone import (
    Circuit,
    GateOp,
    ProtocolParams,
    Register,
    StateVector,
    apply_circuit,
    build_udec_circuit,
    build_udec_factored,
    build_vpx_circuit,
    build_vpz_circuit,
    circuit_to_unitary,
    decryption_scores,
    fourier,
    is_unitary,
    kron_all,
    max_abs_diff,
    random_state,
    run_protocol,
    share_marginals,
    x_power,
    z_power,
)
from quditclone.circuits import KINDS
from quditclone.gates import bell_amplitudes
from quditclone.linalg import column_sparse_form


@st.composite
def protocol_cases(draw):
    d = draw(st.integers(2, 5))
    n = draw(st.integers(1, 3))
    target = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**32 - 1))
    return ProtocolParams(d, n, target_party=target), seed


@settings(max_examples=40, deadline=None, database=None)
@given(protocol_cases())
def test_decrypt_paths_agree(case):
    params, seed = case
    formula = run_protocol(params, seed=seed)
    circuit = run_protocol(params, seed=seed, decrypt_with_circuit=True)
    assert abs(formula.decryption_fidelity - circuit.decryption_fidelity) < 1e-12
    assert formula.decryption_ok
    pairs = [r["pair"] for r in formula.bell_residuals]
    assert pairs == [r["pair"] for r in circuit.bell_residuals]
    for a, b in zip(formula.bell_residuals, circuit.bell_residuals):
        assert abs(a["fidelity"] - b["fidelity"]) < 1e-12, a["pair"]


def _check_scores_against_oracles(state, psi, params):
    """The in-place scores of ``state`` equal the density-matrix and overlap oracles."""
    d, n, t = params.d, params.n, params.target_party
    bell = bell_amplitudes(d)
    for i, rho in enumerate(share_marginals(state, n), start=1):
        assert max_abs_diff(rho, reduced_density(state, (f"S{i}",)).matrix) < 1e-12
    others = [j for j in range(1, n + 1) if j != t]
    closed = product_state(
        state.register,
        [(("A", f"N{t}"), bell), ((f"S{t}",), psi.amplitudes)]
        + [((f"S{j}", f"N{j}"), bell) for j in others],
    )
    fidelity, residuals = decryption_scores(state, psi, params)
    assert abs(fidelity - abs(overlap(closed, state))) < 1e-12
    pairs = [("A", f"N{t}")] + [(f"S{j}", f"N{j}") for j in others]
    assert [r["pair"] for r in residuals] == [list(p) for p in pairs]
    for r, pair in zip(residuals, pairs):
        rho = reduced_density(state, pair).matrix
        assert abs(r["fidelity"] - np.real(bell.conj() @ rho @ bell)) < 1e-12, pair


@settings(max_examples=40, deadline=None, database=None)
@given(protocol_cases(), st.booleans())
def test_in_place_scores_match_density_oracles(case, with_circuit):
    params, seed = case
    d, n = params.d, params.n
    reg = protocol_register(d, n)
    psi = random_state(d, seed)
    bell = bell_amplitudes(d)
    parts = [(("A",), psi.amplitudes)] + [((f"S{i}", f"N{i}"), bell) for i in range(1, n + 1)]
    state = apply_circuit(product_state(reg, parts), build_vpz_circuit(d, n))
    state = apply_circuit(state, build_vpx_circuit(d, n))
    _check_scores_against_oracles(state, psi, params)
    encrypted = share_marginals(state, n)
    udec = build_udec_circuit if with_circuit else build_udec_factored
    state = apply_circuit(state, udec(params))
    _check_scores_against_oracles(state, psi, params)

    # the run scores this same final state
    report = run_protocol(params, seed=seed, decrypt_with_circuit=with_circuit)
    mixed = np.eye(d) / d
    want = [max_abs_diff(rho, mixed) for rho in encrypted]
    assert max_abs_diff(report.marginal_deviations, want) < 1e-12
    fidelity, residuals = decryption_scores(state, psi, params)
    assert abs(report.decryption_fidelity - fidelity) < 1e-12
    for a, b in zip(report.bell_residuals, residuals):
        assert a["pair"] == b["pair"] and abs(a["fidelity"] - b["fidelity"]) < 1e-12

    # a generic state, whose marginals are not mixed and whose pairs are not Bell pairs
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(reg.dim) + 1j * rng.standard_normal(reg.dim)
    _check_scores_against_oracles(StateVector(reg, v / np.linalg.norm(v)), psi, params)


# Reference for the circuit evaluator: every gate as a dense matrix built
# from the `gates` constructors, `np.kron` and `kron_all` alone, never from `circuits`.

def _base_matrix(op, d):
    if op.kind == "xpow":
        return x_power(d, op.power)
    if op.kind == "zpow":
        return z_power(d, op.power)
    if op.kind == "fourier":
        return fourier(d)
    if op.kind == "fourier_dag":
        return fourier(d).conj().T
    if op.kind == "diag":
        return np.diag(np.exp(1j * np.array(op.phases)))
    if op.kind == "swap":
        return swap_gate(d)
    if op.kind == "scalar":
        return np.full((1, 1), np.exp(1j * op.phase))
    base = x_power(d, op.power) if op.base == "x" else z_power(d, op.power)
    return controlled_power(base, d)  # cpow: control first, then target


def _gate_matrix(op, d):
    """Dense matrix of ``op`` on its wires in the order controls + targets."""
    u = _base_matrix(op, d)
    if not op.control_levels:
        return u
    proj = kron_all([np.diag(np.eye(d)[lv]) for lv in op.control_levels])
    return np.kron(proj, u) + np.kron(np.eye(proj.shape[0]) - proj, np.eye(u.shape[0]))


def _embedded(op, reg):
    """``op`` on the whole register: kron with the identity, then axes into register order."""
    d, m = reg.d, reg.num_wires
    order = list(op.wires) + [w for w in reg.wires if w not in op.wires]
    full = np.kron(_gate_matrix(op, d), np.eye(d ** (m - len(op.wires))))
    perm = [order.index(w) for w in reg.wires]
    t = full.reshape([d] * (2 * m)).transpose(perm + [m + p for p in perm])
    return t.reshape(reg.dim, reg.dim)


@st.composite
def gate_ops(draw, d, wires):
    kind = draw(st.sampled_from(KINDS))
    ntargets = {"swap": 2, "scalar": 0}.get(kind, 1)
    order = draw(st.permutations(wires))
    targets = tuple(order[:ntargets])
    if kind == "cpow":
        controls, levels = (order[ntargets],), ()
    elif kind in ("fourier", "fourier_dag"):  # they take no controls
        controls, levels = (), ()
    else:
        nc = draw(st.integers(0, len(wires) - ntargets))
        controls = tuple(order[ntargets:ntargets + nc])
        levels = tuple(draw(st.lists(st.integers(0, d - 1), min_size=nc, max_size=nc)))
    phase = st.floats(-np.pi, np.pi)
    return GateOp(
        kind=kind, targets=targets, controls=controls, control_levels=levels,
        power=draw(st.integers(-d, 2 * d)), base=draw(st.sampled_from("xz")),
        phases=tuple(draw(st.lists(phase, min_size=d, max_size=d))) if kind == "diag" else (),
        phase=draw(phase),
    )


@st.composite
def circuit_cases(draw):
    d = draw(st.integers(2, 5))
    wires = tuple(f"q{i}" for i in range(draw(st.integers(2, 4))))
    ops = draw(st.lists(gate_ops(d, wires), min_size=1, max_size=10))
    # the state holds the circuit's wires in a drawn order
    state_wires = tuple(draw(st.permutations(wires)))
    seed = draw(st.integers(0, 2**32 - 1))
    return Circuit(Register(d, wires), tuple(ops)), Register(d, state_wires), seed


@settings(max_examples=80, deadline=None, database=None)
@given(circuit_cases())
def test_apply_circuit_matches_dense_gate_product(case):
    circuit, reg, seed = case
    want = np.eye(reg.dim, dtype=complex)
    for op in circuit.ops:
        want = _embedded(op, reg) @ want
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(reg.dim) + 1j * rng.standard_normal(reg.dim)
    state = StateVector(reg, v / np.linalg.norm(v))
    got = apply_circuit(state, circuit)
    assert max_abs_diff(got.amplitudes, want @ state.amplitudes) < 1e-12
    same_order = Circuit(reg, circuit.ops)
    assert max_abs_diff(circuit_to_unitary(same_order), want) < 1e-12


@st.composite
def layered_matrices(draw):
    """A sum of r = 1..4 layers, each a row map of the columns times phases.

    A layer's row map is a permutation or, leaving some rows empty, a random
    map; some layers are scaled off unit modulus; some matrices lose a few
    entries, so that their columns hold unequal counts.
    """
    dim = draw(st.sampled_from([4, 9, 16, 25, 36, 64]))
    r = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = np.zeros((dim, dim), dtype=complex)
    for _ in range(r):
        rows = rng.permutation(dim) if draw(st.booleans()) else rng.integers(0, dim, dim)
        scale = draw(st.sampled_from([1.0, 1.0, 0.5, 1.5, 1.0 + 1e-6]))
        m[rows, np.arange(dim)] += scale / np.sqrt(r) * np.exp(2j * np.pi * rng.random(dim))
    if draw(st.booleans()):
        m[rng.integers(0, dim, 3), rng.integers(0, dim, 3)] = 0
    return m


@settings(max_examples=100, deadline=None, database=None)
@given(layered_matrices())
def test_is_unitary_sparse_path_matches_dense_product(m):
    # equal column counts r with r^2 <= D take the pairwise products, any
    # other matrix the GEMM; either way the deviation is the dense one
    counts = (m != 0).sum(0)
    sparse = bool((counts == counts[0]).all() and counts[0] ** 2 <= len(m))
    assert (column_sparse_form(m) is not None) == sparse
    event(f"sparse path: {sparse}")
    check, want = is_unitary(m), gram_deviation(m)
    assert abs(check.max_deviation - want) <= 1e-14, (check.max_deviation, want)
    assert bool(check) == (want <= check.tolerance)
