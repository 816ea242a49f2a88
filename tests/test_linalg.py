import numpy as np
import pytest

from conftest import (
    DensityMatrix,
    basis_state,
    embed_apply,
    overlap,
    partial_trace,
    product_state,
    random_matrix,
    random_unit_vector,
    random_unitary,
    reduced_density,
)
from quditclone import (
    Register,
    SizeCapError,
    StateVector,
    fourier,
    is_unitary,
    kron,
    max_abs_diff,
    shift_x,
    phase_z,
    swap_gate,
)
from quditclone.linalg import column_sparse_form
from quditclone.cazac import chu
from quditclone.gates import bell_amplitudes

TOL = 1e-10


def test_register_rejects_degenerate_and_duplicates():
    with pytest.raises(ValueError):
        Register(1, ("A",))
    with pytest.raises(ValueError):
        Register(3, ("A", "A"))


def test_register_refuses_a_non_integer_dimension():
    with pytest.raises(ValueError, match="qudit dimension must be an integer"):
        Register(2.0, ("a",))
    assert Register(np.int64(2), ("a",)).dim == 2


def test_kron_identity():
    assert max_abs_diff(kron(np.eye(2), np.eye(2)), np.eye(4)) == 0


def test_kron_double_flip():
    reg = Register(2, ("a", "b"))
    xx = kron(shift_x(2), shift_x(2))
    out = xx @ basis_state(reg, (0, 0)).amplitudes
    assert max_abs_diff(out, basis_state(reg, (1, 1)).amplitudes) == 0


def test_kron_shift_phase_column():
    # (X3 x Z3)|01> = X|0> x Z|1> = omega |11>: single nonzero at row 4
    w = np.exp(2j * np.pi / 3)
    m = kron(shift_x(3), phase_z(3))
    col = m[:, 1]
    expected = np.zeros(9, dtype=complex)
    expected[4] = w
    assert max_abs_diff(col, expected) < 1e-15


def test_kron_associativity():
    rng = np.random.default_rng(3)
    a, b, c = (random_matrix(rng, k) for k in (2, 3, 4))
    assert max_abs_diff(kron(kron(a, b), c), kron(a, kron(b, c))) < 1e-12


def test_kron_size_cap():
    big = np.eye(70)
    with pytest.raises(SizeCapError):
        kron(big, big)


def test_embed_apply_single_wire_flip():
    reg = Register(2, ("w0", "w1", "w2"))
    out = embed_apply(basis_state(reg, (0, 0, 0)), shift_x(2), ("w1",))
    assert max_abs_diff(out.amplitudes, basis_state(reg, (0, 1, 0)).amplitudes) == 0


def test_embed_apply_swap_on_bell_pair():
    reg = Register(2, ("w0", "w1", "w2"))
    state = product_state(
        reg, [(("w0",), [1, 0]), (("w1", "w2"), bell_amplitudes(2))]
    )
    out = embed_apply(state, swap_gate(2), ("w1", "w2"))
    assert max_abs_diff(out.amplitudes, state.amplitudes) < 1e-15


def test_embed_apply_weyl_on_data_wire():
    # X Z^2 |0> = |1>, phase omega^0 = 1
    reg = Register(3, ("A", "q0", "q1"))
    psi = product_state(
        reg, [(("A",), [1, 0, 0]), (("q0", "q1"), bell_amplitudes(3))]
    )
    op = shift_x(3) @ np.linalg.matrix_power(phase_z(3), 2)
    out = embed_apply(psi, op, ("A",))
    expected = product_state(
        reg, [(("A",), [0, 1, 0]), (("q0", "q1"), bell_amplitudes(3))]
    )
    assert abs(overlap(expected, out) - 1) < 1e-12


def test_embed_apply_errors():
    reg = Register(2, ("a", "b"))
    state = basis_state(reg, (0, 0))
    with pytest.raises(ValueError):
        embed_apply(state, shift_x(2), ("nope",))
    with pytest.raises(ValueError):
        embed_apply(state, np.eye(3), ("a",))


def test_embed_apply_unitary_roundtrip():
    rng = np.random.default_rng(11)
    for d in (2, 3):
        reg = Register(d, ("a", "b", "c"))
        state = StateVector(reg, random_unit_vector(rng, reg.dim))
        u = random_unitary(rng, d * d)
        back = embed_apply(embed_apply(state, u, ("b", "c")), u.conj().T, ("b", "c"))
        assert max_abs_diff(back.amplitudes, state.amplitudes) < TOL


def test_embed_apply_disjoint_wires_commute():
    rng = np.random.default_rng(12)
    reg = Register(3, ("a", "b", "c"))
    state = StateVector(reg, random_unit_vector(rng, reg.dim))
    u, v = random_unitary(rng, 3), random_unitary(rng, 3)
    one = embed_apply(embed_apply(state, u, ("a",)), v, ("c",))
    two = embed_apply(embed_apply(state, v, ("c",)), u, ("a",))
    assert max_abs_diff(one.amplitudes, two.amplitudes) < TOL


def test_partial_trace_bell_marginal():
    for d in (2, 3, 4):
        state = StateVector(Register(d, ("q0", "q1")), bell_amplitudes(d))
        rho = DensityMatrix(
            state.register, np.outer(state.amplitudes, state.amplitudes.conj())
        )
        marg = partial_trace(rho, ("q0",))
        assert max_abs_diff(marg.matrix, np.eye(d) / d) < TOL


def test_partial_trace_product_state():
    reg = Register(2, ("a", "b"))
    state = basis_state(reg, (0, 0))
    rho = DensityMatrix(reg, np.outer(state.amplitudes, state.amplitudes.conj()))
    marg = partial_trace(rho, ("a",))
    assert max_abs_diff(marg.matrix, np.diag([1.0, 0.0])) == 0


def test_partial_trace_keep_all_is_identity_op():
    rng = np.random.default_rng(5)
    reg = Register(2, ("a", "b", "c"))
    v = random_unit_vector(rng, reg.dim)
    rho = DensityMatrix(reg, np.outer(v, v.conj()))
    out = partial_trace(rho, reg.wires)
    assert max_abs_diff(out.matrix, rho.matrix) == 0


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(6)
    reg = Register(3, ("a", "b"))
    v = random_unit_vector(rng, reg.dim)
    rho = DensityMatrix(reg, np.outer(v, v.conj()))
    for keep in (("a",), ("b",), ("a", "b")):
        out = partial_trace(rho, keep)
        assert abs(np.trace(out.matrix) - np.trace(rho.matrix)) < TOL


def test_partial_trace_empty_keep_rejected():
    state = StateVector(Register(2, ("q0", "q1")), bell_amplitudes(2))
    rho = DensityMatrix(
        state.register, np.outer(state.amplitudes, state.amplitudes.conj())
    )
    with pytest.raises(ValueError):
        partial_trace(rho, ())


def test_reduced_density_matches_partial_trace():
    rng = np.random.default_rng(7)
    reg = Register(3, ("a", "b", "c"))
    state = StateVector(reg, random_unit_vector(rng, reg.dim))
    rho = DensityMatrix(reg, np.outer(state.amplitudes, state.amplitudes.conj()))
    for keep in (("b",), ("a", "c"), ("c", "a")):
        direct = reduced_density(state, keep)
        traced = partial_trace(rho, keep)
        assert max_abs_diff(direct.matrix, traced.matrix) < 1e-12


def test_is_unitary_fourier():
    check = is_unitary(fourier(5), 1e-10)
    assert check
    assert check.max_deviation < 1e-14


def test_is_unitary_reports_deviation():
    check = is_unitary(np.diag([1.0, 1.1]), 1e-10)
    assert not check
    assert check.max_deviation == pytest.approx(0.21)


def test_is_unitary_monomial_scan_matches_product():
    # a matrix with one nonzero per row and column takes the O(D^2) scan;
    # its deviation is that of the product M M^dag - I
    rng = np.random.default_rng(12)
    perm = rng.permutation(27)
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, 27))
    cases = [kron(shift_x(3), phase_z(3)), np.eye(27)[perm] * phases]
    cases.append(cases[-1] * np.where(np.arange(27) == 5, 1.0 + 1e-6, 1.0))
    cases.append(np.diag([1.0, 0.0]))  # a zero row is not monomial
    for m in cases:
        check = is_unitary(m, 1e-10)
        want = np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0])))
        assert abs(check.max_deviation - want) < 1e-15
        assert bool(check) == (want <= 1e-10)


def test_monomial_form_reads_back_the_matrix():
    # a monomial matrix (one nonzero per column) reads back as one row of
    # column_sparse_form; a matrix with a zero column or a dense one does not
    rng = np.random.default_rng(13)
    perm = rng.permutation(27)
    m = np.eye(27)[perm] * np.exp(1j * rng.uniform(-np.pi, np.pi, 27))
    for mat in (m, kron(shift_x(3), phase_z(3)), np.eye(4)):
        (rows,), (entries,) = column_sparse_form(mat)
        back = np.zeros_like(mat, dtype=complex)
        back[rows, np.arange(len(mat))] = entries
        assert np.array_equal(back, mat)
    for mat in (np.diag([1.0, 0.0]), fourier(3), np.ones((2, 2))):
        assert column_sparse_form(mat) is None


def test_column_sparse_form_reads_back_the_matrix():
    rng = np.random.default_rng(14)
    perm = rng.permutation(27)
    m = np.zeros((27, 27), dtype=complex)
    for k in range(3):  # three nonzeros in every column, at distinct rows
        m[(perm + 5 * k) % 27, np.arange(27)] = rng.standard_normal(27) + 1j
    for mat, r in ((m, 3), (np.kron(fourier(2), np.eye(2)), 2), (np.diag([2.0, 0.5]), 1)):
        rows, entries = column_sparse_form(mat)
        assert rows.shape == entries.shape == (r, len(mat))
        assert (np.diff(rows, axis=0) > 0).all()
        back = np.zeros_like(mat, dtype=complex)
        back[rows, np.arange(len(mat))] = entries
        assert np.array_equal(back, mat)
    # unequal counts, and r^2 > D
    for mat in (np.diag([1.0, 0.0]), np.triu(np.ones((3, 3))), fourier(3), np.ones((4, 4))):
        assert column_sparse_form(mat) is None


def test_column_sparse_form_refuses_uneven_columns():
    # as many nonzeros as columns, r = 1, but column 2 holds two and column 3 none
    merged = np.eye(4)
    merged[:, 2] += merged[:, 3]
    merged[:, 3] = 0
    assert column_sparse_form(merged) is None


def test_refusals_name_their_cause():
    with pytest.raises(ValueError, match="first operand is not square"):
        kron(np.ones((2, 3)), np.eye(2))
    with pytest.raises(ValueError, match="second operand is not square"):
        kron(np.eye(2), np.ones((3, 2)))
    with pytest.raises(ValueError, match="at least one wire"):
        Register(2, ())
    with pytest.raises(ValueError, match="repeated wires"):
        Register(2, ("a", "b")).positions(("b", "a", "b"))
    with pytest.raises(ValueError, match="is_unitary: matrix is not square"):
        is_unitary(np.ones((2, 3)))


def test_overlap_basics():
    rng = np.random.default_rng(8)
    reg = Register(3, ("a",))
    psi = StateVector(reg, random_unit_vector(rng, 3))
    assert overlap(psi, psi) == pytest.approx(1.0)
    zero, one = basis_state(reg, (0,)), basis_state(reg, (1,))
    assert overlap(zero, one) == 0


def test_overlap_fourier_column_is_uniform():
    reg = Register(3, ("a",))
    f0 = StateVector(reg, fourier(3) @ basis_state(reg, (0,)).amplitudes)
    uniform = StateVector(reg, np.ones(3) / np.sqrt(3))
    assert abs(overlap(f0, uniform) - 1) < 1e-12


def test_overlap_register_mismatch():
    a = basis_state(Register(2, ("a",)), (0,))
    b = basis_state(Register(2, ("b",)), (0,))
    with pytest.raises(ValueError):
        overlap(a, b)


def test_state_vector_validation():
    reg = Register(2, ("a",))
    with pytest.raises(ValueError):
        StateVector(reg, np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(ValueError):
        StateVector(reg, np.array([1.0, 0.0, 0.0]))  # wrong size
    with pytest.raises(SizeCapError):
        StateVector(Register(2, tuple(f"w{i}" for i in range(23))), np.zeros(2))


def test_state_vector_refuses_non_finite_and_overflowing_entries():
    # one squared-norm pass; non-finite entries are still named as such
    reg = Register(2, ("a",))
    for bad in ([np.nan, 0.0], [np.inf, 0.0], [-np.inf, 1.0], [1.0, complex(0, np.nan)]):
        with pytest.raises(ValueError, match="^state vector contains non-finite entries$"):
            StateVector(reg, np.array(bad))
    with pytest.raises(ValueError, match="^state vector norm inf is not 1$"):
        StateVector(reg, np.array([1e160, 1e160]))
    with pytest.raises(ValueError, match=r"^state vector norm 1\.4142135623730951 is not 1$"):
        StateVector(reg, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="^state vector norm 0.5 is not 1$"):
        StateVector(reg, np.array([0.5, 0.0]))
    StateVector(reg, np.array([1.0, 1e-9]))  # within the 1e-8 rule


def test_single_axis_products_agree_with_einsum():
    # a compiled product pass writes its result into out: batched when more
    # than one amplitude trails the axis, one product with m^T when the axis
    # comes last, with or without the length-1 trailing axis _apply_ops adds
    from quditclone.circuits import _Product

    rng = np.random.default_rng(67)
    for shape, p in (((2, 3, 4), 1), ((36, 6, 36), 1), ((3, 9, 3), 1), ((25, 5), 1),
                     ((2, 2, 64), 1), ((4, 3, 5), 0), ((1296, 6, 6), 1),
                     ((1024, 5), 1), ((2, 3, 4, 5), 2), ((64, 8, 1), 1), ((1, 5, 7), 1),
                     ((1, 7, 1), 1)):
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m = random_matrix(rng, shape[p])
        want = np.moveaxis(np.tensordot(m, t, axes=([1], [p])), 0, p)
        out = np.empty_like(t)
        _Product(p, m).apply(t, out)
        assert max_abs_diff(out, want) < 1e-12, shape


def test_qudit_dimension_cap():
    # a d x d gate or grid is operator-sized: refused before allocating
    Register(4096, ("a",))
    with pytest.raises(SizeCapError):
        Register(4097, ("a",))
    with pytest.raises(SizeCapError):
        chu(4097)


def test_density_matrix_validation():
    reg = Register(2, ("a",))
    with pytest.raises(ValueError):
        DensityMatrix(reg, np.array([[0.5, 1.0], [0.0, 0.5]]))  # not hermitian
    with pytest.raises(ValueError):
        DensityMatrix(reg, np.eye(2))  # trace 2
    DensityMatrix(reg, np.array([[0.5, 1.0], [0.0, 0.5]]), validate=False)
