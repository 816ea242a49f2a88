import numpy as np
import pytest

from quditclone import (
    autocorr2d,
    chu,
    gauss_sum,
    max_abs_diff,
    periodic_autocorr,
    zadoff_chu,
)
from quditclone.cazac import ChuSequence

TOL = 1e-10


def test_chu_frozen_values():
    assert max_abs_diff(chu(2).values, [1, -1j]) < 1e-15
    assert max_abs_diff(chu(3).values, [1, np.exp(-2j * np.pi / 3), 1]) < 1e-15
    assert max_abs_diff(
        chu(4).values, [1, np.exp(-1j * np.pi / 4), -1, np.exp(-1j * np.pi / 4)]
    ) < 1e-15


def test_zadoff_chu_zero_index_is_one():
    for d, u, q in [(3, 1, 0), (5, 2, 1), (8, 3, 2)]:
        assert zadoff_chu(d, u, q).values[0] == pytest.approx(1.0)


def test_zadoff_chu_matches_chu_at_default_parameters():
    for d in range(2, 11):
        assert max_abs_diff(zadoff_chu(d, 1, 0).values, chu(d).values) == 0


def test_zadoff_chu_rejects_shared_factor():
    with pytest.raises(ValueError):
        zadoff_chu(4, 2, 0)


def test_coeff_grid_d2_values():
    c = chu(2).values
    g = np.outer(c, c)
    assert max_abs_diff(g, np.array([[1, -1j], [-1j, -1]])) < 1e-15


def test_coeff_grid_symmetry_and_corner():
    for d in range(2, 8):
        c = chu(d).values
        g = np.outer(c, c)
        assert g[0, 0] == pytest.approx(1.0)
        assert max_abs_diff(g, g.T) < 1e-15


def test_autocorr_zero_shift_is_one():
    rng = np.random.default_rng(1)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 9))
    assert periodic_autocorr(phases, 0) == pytest.approx(1.0)


def test_chu_sequence_is_zero_autocorrelation():
    for d in range(2, 11):
        vals = chu(d).values
        for shift in range(1, d):
            assert abs(periodic_autocorr(vals, shift)) < TOL


def test_constant_sequence_is_not_cazac():
    assert periodic_autocorr([1, 1, 1], 1) == pytest.approx(1.0)


def test_autocorr_shift_range():
    with pytest.raises(ValueError):
        periodic_autocorr([1, 1j], 2)


def test_autocorr2d_delta():
    for d in range(2, 11):
        grid = autocorr2d(d)
        assert abs(grid[0, 0] - 1.0) < 1e-12
        grid2 = grid.copy()
        grid2[0, 0] = 0.0
        assert grid2.max() < TOL


def test_autocorr2d_d2_brute_force():
    # independent brute force with explicit modular indexing
    c = chu(2).values
    g = np.array([[c[k] * c[l] for l in range(2)] for k in range(2)])
    expected = np.zeros((2, 2))
    for m in range(2):
        for n in range(2):
            acc = 0.0 + 0.0j
            for k in range(2):
                for l in range(2):
                    acc += g[k, l] * np.conj(g[(k + m) % 2, (l + n) % 2])
            expected[m, n] = abs(acc) / 4
    assert max_abs_diff(autocorr2d(2), expected) < 1e-15
    assert expected[0, 0] == pytest.approx(1.0)
    assert expected[0, 1] < 1e-15 and expected[1, 0] < 1e-15 and expected[1, 1] < 1e-15


def test_gauss_sum_peak():
    for d in range(2, 11):
        assert abs(gauss_sum(d, 0) - d) < 1e-12


def test_gauss_sum_vanishes_off_peak():
    assert abs(gauss_sum(3, 1)) < 1e-12
    for d in range(2, 11):
        for m in range(1, d):
            assert abs(gauss_sum(d, m)) < TOL


def test_flat_spectrum():
    for d in range(2, 11):
        spectrum = np.fft.fft(chu(d).values)
        assert max_abs_diff(np.abs(spectrum), np.sqrt(d) * np.ones(d)) < TOL


def test_grid_autocorrelation_vanishes_at_row_shifts():
    # flattening the grid row-major, shifts by whole rows stay CAZAC
    for d in range(2, 8):
        c = chu(d).values
        flat = np.outer(c, c).reshape(-1)
        for a in range(1, d):
            assert abs(periodic_autocorr(flat, a * d)) < TOL


def test_sequence_and_gauss_sum_refuse_with_their_cause():
    with pytest.raises(ValueError, match="value count does not match d"):
        ChuSequence(3, 1, 0, chu(2).values)
    for m in (-1, 3):
        with pytest.raises(ValueError, match=f"m {m} out of range for d=3"):
            gauss_sum(3, m)
    with pytest.raises(ValueError, match="gauss_sum shift m must be an integer, got 1.5"):
        gauss_sum(3, 1.5)


def test_sequence_invariants_enforced():
    with pytest.raises(ValueError):
        ChuSequence(3, 1, 0, np.array([1.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        ChuSequence(3, 1, 0, np.ones(3, dtype=complex))


def test_autocorr2d_takes_the_state_cap(monkeypatch):
    # the d^2 grid is refused above 2048 before the sequence is built
    from quditclone import SizeCapError, cazac

    class Admitted(Exception):
        pass

    def admitted(d):
        raise Admitted

    monkeypatch.setattr(cazac, "chu", admitted)
    with pytest.raises(Admitted):
        autocorr2d(2048)
    with pytest.raises(SizeCapError, match="2049\\^2 amplitudes, over the cap"):
        autocorr2d(2049)
