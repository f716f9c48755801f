from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from conftest import dense_hamiltonian
from ergochain import (
    ChainConfig,
    InvalidInputError,
    NumericalFailureError,
    analytic_pst_spectrum,
    analytic_uniform_spectrum,
    build_hamiltonian,
    diagonalize,
    disordered_bonds,
    gn_factor,
    interpolated_bonds,
    krawtchouk,
    krawtchouk_table,
)
from ergochain import spectral
from ergochain.spectral import _fix_column_signs


def _hamiltonian(n, alpha, coupling=1.0, field=1.0):
    cfg = ChainConfig(n_sites=n, coupling=coupling, field=field, alpha=alpha)
    return build_hamiltonian(interpolated_bonds(cfg), field)


class TestDiagonalize:
    @pytest.mark.parametrize("n,alpha", [(2, 0.0), (5, 1.0), (16, 0.5), (40, 0.25)])
    def test_eigendecomposition_contract(self, n, alpha):
        h = _hamiltonian(n, alpha)
        decomposition = diagonalize(h)
        dense = dense_hamiltonian(h.diagonal, h.offdiagonal)
        residual = dense @ decomposition.vectors - decomposition.vectors * decomposition.energies
        assert np.max(np.abs(residual)) < 1e-12 * n
        gram = decomposition.vectors.T @ decomposition.vectors
        assert np.max(np.abs(gram - np.eye(n))) < 1e-12
        assert np.all(np.diff(decomposition.energies) > 0)

    def test_matches_dense_solver(self):
        h = _hamiltonian(23, 0.37, coupling=1.4, field=0.6)
        decomposition = diagonalize(h)
        reference = np.linalg.eigvalsh(dense_hamiltonian(h.diagonal, h.offdiagonal))
        assert decomposition.energies == pytest.approx(reference, abs=1e-12)

    def test_sign_convention(self):
        for n, alpha in [(7, 0.0), (12, 1.0), (9, 0.6)]:
            decomposition = diagonalize(_hamiltonian(n, alpha))
            for k in range(n):
                column = decomposition.vectors[:, k]
                leading = column[np.abs(column) > 1e-12 * np.max(np.abs(column))][0]
                assert leading > 0

    def test_rejects_non_hamiltonian(self):
        with pytest.raises(InvalidInputError):
            diagonalize(np.eye(3))


def _fix_column_signs_loop(vectors):
    """Column-by-column gauge fix: the reference the vectorized pass must equal."""
    fixed = vectors.copy()
    for k in range(fixed.shape[1]):
        col = fixed[:, k]
        threshold = 1e-12 * np.max(np.abs(col))
        for component in col:
            if abs(component) > threshold:
                if component < 0:
                    fixed[:, k] = -col
                break
    return fixed


class TestFixColumnSigns:
    @pytest.mark.parametrize("n", [2, 3, 8, 33, 128, 500])
    @pytest.mark.parametrize("alpha,delta", [(0.0, 0.0), (1.0, 0.0), (0.5, 0.2), (1.0, 0.1)])
    def test_matches_loop_on_solver_output(self, n, alpha, delta):
        config = ChainConfig(n_sites=n, coupling=1.0, field=1.0, alpha=alpha, delta=delta)
        bonds = disordered_bonds(config, seed=3, realization_index=n)
        h = build_hamiltonian(bonds, config.field)
        _, vectors = eigh_tridiagonal(h.diagonal, h.offdiagonal)
        assert _fix_column_signs(vectors).tobytes() == _fix_column_signs_loop(vectors).tobytes()

    def test_matches_loop_on_leading_zeros_and_subthreshold_components(self):
        vectors = np.array(
            [
                [0.0, 0.0, 3e-13, -3e-13, 0.0, -0.0, 1e-13],
                [0.0, -0.0, -1e-13, 2e-13, 0.0, 0.0, -1e-13],
                [-0.5, 0.7, -0.9, 0.4, 0.0, -2.0, 0.0],
                [0.5, -0.7, 0.1, -0.4, 0.0, 1.0, 0.0],
            ]
        )
        fixed = _fix_column_signs(vectors)
        assert fixed.tobytes() == _fix_column_signs_loop(vectors).tobytes()
        assert list(np.signbit(fixed[2, :4])) == [False] * 4

    @given(data=st.data(), rows=st.integers(1, 12), cols=st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_matches_loop_on_random_matrices(self, data, rows, cols):
        # scaled entries put components on both sides of the 1e-12 threshold
        scale = st.sampled_from([0.0, 1e-14, 1e-12, 1e-11, 1.0])
        values = data.draw(st.lists(st.floats(-1, 1), min_size=rows * cols, max_size=rows * cols))
        scales = data.draw(st.lists(scale, min_size=rows * cols, max_size=rows * cols))
        vectors = (np.array(values) * np.array(scales)).reshape(rows, cols)
        assert _fix_column_signs(vectors).tobytes() == _fix_column_signs_loop(vectors).tobytes()


class TestAnalyticUniform:
    @pytest.mark.parametrize("n", [2, 3, 4, 9, 17, 32, 64])
    def test_matches_numerical(self, n):
        analytic = analytic_uniform_spectrum(n, 1.0, 1.0)
        numerical = diagonalize(_hamiltonian(n, 0.0))
        assert np.max(np.abs(analytic.energies - numerical.energies)) < 1e-12
        assert np.max(np.abs(analytic.vectors - numerical.vectors)) < 1e-12

    def test_energy_formula(self):
        n, coupling, field = 6, 1.3, 0.7
        analytic = analytic_uniform_spectrum(n, coupling, field)
        k = np.arange(1, n + 1)
        expected = -2.0 * coupling * np.cos(k * math.pi / (n + 1)) - (n - 2) * field
        assert analytic.energies == pytest.approx(expected, abs=1e-14)

    def test_is_true_eigendecomposition(self):
        n = 11
        analytic = analytic_uniform_spectrum(n, 1.0, 1.0)
        h = _hamiltonian(n, 0.0)
        dense = dense_hamiltonian(h.diagonal, h.offdiagonal)
        residual = dense @ analytic.vectors - analytic.vectors * analytic.energies
        assert np.max(np.abs(residual)) < 1e-13


class TestKrawtchouk:
    def test_edge_rows(self):
        m = 9
        for x in range(m + 1):
            assert krawtchouk(0, x, m) == 1
            assert krawtchouk(1, x, m) == m - 2 * x
        for k in range(m + 1):
            assert krawtchouk(k, 0, m) == math.comb(m, k)

    def test_known_small_values(self):
        # m=3 table, spelled out by hand
        expected = {
            (0, 0): 1, (0, 1): 1, (0, 2): 1, (0, 3): 1,
            (1, 0): 3, (1, 1): 1, (1, 2): -1, (1, 3): -3,
            (2, 0): 3, (2, 1): -1, (2, 2): -1, (2, 3): 3,
            (3, 0): 1, (3, 1): -1, (3, 2): 1, (3, 3): -1,
        }
        for (k, x), value in expected.items():
            assert krawtchouk(k, x, 3) == value

    def test_returns_exact_integers_at_large_size(self):
        value = krawtchouk(60, 1, 127)
        assert isinstance(value, int)
        # K_k(1) = C(m-1, k) - C(m-1, k-1)
        assert value == math.comb(126, 60) - math.comb(126, 59)

    @given(data=st.data(), m=st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_recurrence(self, data, m):
        # (k+1) K_{k+1}(x) = (m - 2x) K_k(x) - (m - k + 1) K_{k-1}(x)
        k = data.draw(st.integers(1, m - 1)) if m > 1 else 0
        x = data.draw(st.integers(0, m))
        if k >= 1 and k + 1 <= m:
            lhs = (k + 1) * krawtchouk(k + 1, x, m)
            rhs = (m - 2 * x) * krawtchouk(k, x, m) - (m - k + 1) * krawtchouk(k - 1, x, m)
            assert lhs == rhs

    @given(m=st.integers(0, 30), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_self_duality(self, m, data):
        # C(m, x) K_k(x) = C(m, k) K_x(k)
        k = data.draw(st.integers(0, m))
        x = data.draw(st.integers(0, m))
        assert math.comb(m, x) * krawtchouk(k, x, m) == math.comb(m, k) * krawtchouk(x, k, m)

    def test_orthogonality_with_binomial_weight(self):
        m = 12
        table = krawtchouk_table(m)
        for k in range(m + 1):
            for l in range(k, m + 1):
                total = sum(
                    math.comb(m, x) * table.values[k, x] * table.values[l, x]
                    for x in range(m + 1)
                )
                expected = (2**m * math.comb(m, k)) if k == l else 0
                assert total == expected

    @pytest.mark.parametrize("m", [*range(41), 127])
    def test_table_matches_pointwise(self, m):
        table = krawtchouk_table(m)
        assert table.m == m and table.values.shape == (m + 1, m + 1)
        for k in range(m + 1):
            for x in range(m + 1):
                value = table.values[k, x]
                assert type(value) is int and value == krawtchouk(k, x, m)

    def test_table_accepts_numpy_integer(self):
        table = krawtchouk_table(np.int64(127))
        assert table.m == 127 and type(table.m) is int
        assert np.array_equal(table.values, krawtchouk_table(127).values)
        assert all(type(value) is int for value in table.values.ravel())

    def test_table_rejects_bad_size(self):
        for m in (-1, 2.0, True):
            with pytest.raises(InvalidInputError):
                krawtchouk_table(m)

    def test_rejects_out_of_domain(self):
        for k, x, m in [(-1, 0, 3), (4, 0, 3), (0, -1, 3), (0, 4, 3), (0, 0, -1)]:
            with pytest.raises(InvalidInputError):
                krawtchouk(k, x, m)


class TestAnalyticPst:
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 15, 32, 64])
    def test_matches_numerical(self, n):
        analytic = analytic_pst_spectrum(n, 1.0, 1.0)
        numerical = diagonalize(_hamiltonian(n, 1.0))
        assert np.max(np.abs(analytic.energies - numerical.energies)) < 1e-11
        assert np.max(np.abs(analytic.vectors - numerical.vectors)) < 1e-11

    @pytest.mark.parametrize("n", [4, 5, 12, 13])
    def test_ladder_spacing(self, n):
        analytic = analytic_pst_spectrum(n, 1.0, 1.0)
        gaps = np.diff(analytic.energies)
        expected = 4.0 * gn_factor(n) / n
        assert gaps == pytest.approx(np.full(n - 1, expected), abs=1e-13)

    def test_is_true_eigendecomposition(self):
        n = 10
        analytic = analytic_pst_spectrum(n, 1.0, 1.0)
        h = _hamiltonian(n, 1.0)
        dense = dense_hamiltonian(h.diagonal, h.offdiagonal)
        residual = dense @ analytic.vectors - analytic.vectors * analytic.energies
        assert np.max(np.abs(residual)) < 1e-13

    def test_vectors_orthonormal(self):
        analytic = analytic_pst_spectrum(20, 1.0, 1.0)
        gram = analytic.vectors.T @ analytic.vectors
        assert np.max(np.abs(gram - np.eye(20))) < 1e-13

    def test_mirror_alternation(self):
        # eigenvector k picks up (-1)^(k-1) under site reversal: the refocusing
        # mechanism behind perfect transfer
        n = 9
        analytic = analytic_pst_spectrum(n, 1.0, 1.0)
        for k in range(n):
            flipped = analytic.vectors[::-1, k]
            assert np.max(np.abs(flipped - (-1.0) ** k * analytic.vectors[:, k])) < 1e-12


def test_pst_spectrum_past_float_range_raises_before_building_the_table(monkeypatch):
    calls = []
    monkeypatch.setattr(spectral, "krawtchouk_table", lambda m: calls.append(m))
    with pytest.raises(NumericalFailureError):
        analytic_pst_spectrum(1100, 1.0, 1.0)
    assert calls == []
