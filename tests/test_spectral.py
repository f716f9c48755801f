from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from conftest import dense_hamiltonian
from oracles import krawtchouk
from ergochain import (
    BondSet,
    ChainConfig,
    InvalidInputError,
    NumericalFailureError,
    amplitude_spectral,
    analytic_pst_spectrum,
    analytic_uniform_spectrum,
    build_hamiltonian,
    diagonalize,
    disordered_bonds,
    ensemble_fidelity,
    erg_max_window,
    gn_factor,
    interpolated_bonds,
    reflection_fidelity,
    reflection_time,
)
from ergochain import dynamics, spectral
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

    @pytest.mark.parametrize("n", [2, 3, 8, 33, 128, 500])
    @pytest.mark.parametrize("alpha,delta", [(0.0, 0.0), (1.0, 0.0), (0.5, 0.2)])
    def test_named_driver_matches_eigh_tridiagonal(self, n, alpha, delta):
        # dstevd is what eigh_tridiagonal's "auto" picks, so the bits are the same
        config = ChainConfig(n_sites=n, coupling=1.0, field=1.0, alpha=alpha, delta=delta)
        h = build_hamiltonian(disordered_bonds(config, seed=5, realization_index=n), 1.0)
        energies, vectors = eigh_tridiagonal(h.diagonal, h.offdiagonal)
        decomposition = diagonalize(h)
        assert decomposition.energies.tobytes() == energies.tobytes()
        assert decomposition.vectors.tobytes() == _fix_column_signs(vectors).tobytes()

    def test_residual_bound_is_enforced(self, monkeypatch):
        h = _hamiltonian(16, 0.5)
        monkeypatch.setattr(spectral, "RESIDUAL_RTOL", 1e-12)
        diagonalize(h)
        monkeypatch.setattr(spectral, "RESIDUAL_RTOL", 1e-20)
        with pytest.raises(NumericalFailureError) as info:
            diagonalize(h)
        assert 0.0 < info.value.residual < 1e-12


class TestCheckResidual:
    """The residual contract of one chain, eigenvectors as rows."""

    def _chain(self, n, k=0):
        config = ChainConfig(n_sites=n, coupling=1.0, field=1.0, alpha=0.5, delta=0.2)
        diag = np.full(n, -(n - 2.0))
        off = disordered_bonds(config, 1, k).values
        energies, vectors = spectral._solve(diag, off)
        return diag, off, energies, vectors.copy()

    @pytest.mark.parametrize("n", [2, 9, 40])
    def test_stack_passes_and_names_the_bad_chain(self, n):
        # the chains of an ensemble are checked one at a time: of four
        # realizations, only the one with perturbed vectors fails
        chains = [self._chain(n, k) for k in range(4)]
        chains[2][3][:, 1::2] *= 1.0 + 1e-6
        for k, chain in enumerate(chains):
            if k != 2:
                spectral._check_residual(*chain)
        with pytest.raises(NumericalFailureError) as info:
            spectral._check_residual(*chains[2])
        assert info.value.residual > 100 * spectral.RESIDUAL_RTOL

    def test_nan_fails(self):
        diag, off, energies, vectors = self._chain(5)
        vectors[0, 0] = np.nan
        with pytest.raises(NumericalFailureError):
            spectral._check_residual(diag, off, energies, vectors)

    @pytest.mark.parametrize("n", [2, 9, 40, 300])
    def test_block_size_changes_no_residual(self, monkeypatch, n):
        # blocks of one k row, of a few rows, and the whole chain in one pass
        diag, off, energies, vectors = self._chain(n)
        perturbed = vectors.copy()
        perturbed[:, 1::2] *= 1.0 + 1e-6

        def outcome(vectors):
            try:
                spectral._check_residual(diag, off, energies, vectors)
            except NumericalFailureError as error:
                return str(error), error.residual
            return None

        rtol = spectral.RESIDUAL_RTOL
        outcomes = []
        for block_bytes in (1, 8 * n * 4, 1 << 40):
            monkeypatch.setattr(spectral, "_BLOCK_BYTES", block_bytes)
            monkeypatch.setattr(spectral, "RESIDUAL_RTOL", rtol)
            verdicts = [outcome(vectors), outcome(perturbed)]
            monkeypatch.setattr(spectral, "RESIDUAL_RTOL", 1e-30)
            verdicts.append(outcome(vectors))
            outcomes.append(verdicts)
        assert outcomes[0][0] is None and outcomes[0][1] is not None
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]

    def test_nan_in_a_later_block_fails(self, monkeypatch):
        monkeypatch.setattr(spectral, "_BLOCK_BYTES", 1)
        diag, off, energies, vectors = self._chain(5)
        vectors[4, 2] = np.nan
        with pytest.raises(NumericalFailureError):
            spectral._check_residual(diag, off, energies, vectors)

    def test_diagonalize_holds_two_square_arrays(self):
        # the solve's eigenvectors and dstevd's workspace; the check adds O(N)
        import tracemalloc

        n = 1000
        h = _hamiltonian(n, 0.5)
        tracemalloc.start()
        try:
            diagonalize(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * n * n

    def test_lapack_failure_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "_stevd", lambda d, e: (d.copy(), np.eye(d.size), 2))
        with pytest.raises(NumericalFailureError, match="info = 2"):
            diagonalize(_hamiltonian(6, 0.5))


def _mp_end_spectrum(mpmath, bonds, start):
    """40-digit eigenvalues and end weights of the zero-diagonal chain with these bonds.

    Each eigenvalue is Newton's method on det(x - H), by the three-term
    recurrence, from the float value ``start[k]``; each weight is
    prod_j b_j / prod_(j != k) (E_k - E_j) at those eigenvalues.
    """
    with mpmath.workdps(40):
        squares = [mpmath.mpf(float(b)) ** 2 for b in bonds]
        roots = []
        for guess in start:
            x = mpmath.mpf(float(guess))
            for _ in range(6):
                p0, p1, d0, d1 = mpmath.mpf(1), x, mpmath.mpf(0), mpmath.mpf(1)
                for b2 in squares:
                    p0, p1, d0, d1 = p1, x * p1 - b2 * p0, d1, p1 + x * d1 - b2 * d0
                x -= p1 / d1
            roots.append(x)
        product = mpmath.fprod(mpmath.mpf(float(b)) for b in bonds)
        weights = [
            product / mpmath.fprod(e - other for j, other in enumerate(roots) if j != k)
            for k, e in enumerate(roots)
        ]
    return roots, weights


def _end_amplitude(energies, weights, t):
    return complex(np.sum(weights * np.exp(-1j * energies * t)))


class TestEndWeights:
    """Eigenvalues from dsterf, end weights from the eigenvalues, and their certificate."""

    def test_weights_are_the_end_products_of_the_eigenvectors(self):
        # the identity itself, against 40-digit eigenvectors of the dense matrix
        mpmath = pytest.importorskip("mpmath")
        for n in (2, 5, 10):
            bonds = disordered_bonds(ChainConfig(n, 1.0, 1.0, 0.5, 0.9), 3, n).values
            energies, weights, beta = spectral._end_weights(bonds[None])
            with mpmath.workdps(40):
                matrix = mpmath.matrix(n, n)
                for j, b in enumerate(bonds):
                    matrix[j, j + 1] = matrix[j + 1, j] = mpmath.mpf(float(b))
                values, vectors = mpmath.eigsy(matrix)
                order = sorted(range(n), key=lambda k: values[k])
                exact = [vectors[0, k] * vectors[n - 1, k] for k in order]
                assert max(abs(values[k] - e) for k, e in zip(order, energies[0])) < 1e-14
            assert sum(abs(w - float(x)) for w, x in zip(weights[0], exact)) <= beta[0]

    @pytest.mark.parametrize(
        "n,alpha,delta",
        [(8, 0.0, 0.2), (8, 0.5, 0.5), (32, 1.0, 0.05), (32, 0.5, 0.5), (128, 0.0, 0.2)],
    )
    def test_fidelity_and_weights_against_a_40_digit_oracle(self, n, alpha, delta):
        mpmath = pytest.importorskip("mpmath")
        bonds = disordered_bonds(ChainConfig(n, 1.0, 1.0, alpha, delta), 11, n).values
        t = reflection_time(n, alpha, 1.0)
        energies, weights, beta = spectral._end_weights(bonds[None])
        roots, exact = _mp_end_spectrum(mpmath, bonds, energies[0])
        with mpmath.workdps(40):
            f_exact = mpmath.fsum(w * mpmath.expj(-e * t) for w, e in zip(exact, roots))
            weight_error = float(mpmath.fsum(abs(w - x) for w, x in zip(weights[0], exact)))
            f_error = float(abs(abs(_end_amplitude(energies[0], weights[0], t)) - abs(f_exact)))
        assert 0.0 < beta[0] <= 1e-10
        assert weight_error <= beta[0]
        assert f_error <= beta[0]

    def test_a_zero_bond_gives_zero_exactly(self):
        for n, cut in ((2, 0), (9, 4), (9, 7), (40, 19)):
            bonds = np.linspace(0.5, 1.5, n - 1)
            bonds[cut] = 0.0
            energies, weights, beta = spectral._end_weights(bonds[None])
            assert np.all(weights == 0.0) and beta[0] == 0.0
            assert dynamics._end_amplitudes(bonds[None], 1.0, 3.7) == [0j]

    @pytest.mark.parametrize("n", [5, 16, 64])
    def test_negative_bonds_match_the_dstevd_readout(self, n):
        # delta >= 1 draws bonds of either sign; the sign of prod b carries over
        config = ChainConfig(n, 1.0, 1.0, 0.5, 1.5)
        t = reflection_time(n, 0.5, 1.0)
        signs = set()
        for k in range(20):
            bonds = disordered_bonds(config, 2, k)
            signs.add(float(np.prod(np.sign(bonds.values))))
            energies, weights, beta = spectral._end_weights(bonds.values[None])
            f = dynamics._end_amplitudes(bonds.values[None], 1.0, t)[0]
            old = amplitude_spectral(diagonalize(build_hamiltonian(bonds, 1.0)), n, t).value
            if beta[0] <= spectral.END_WEIGHT_ATOL:
                assert abs(abs(f) - abs(old)) <= beta[0]
            else:
                assert f == old
        assert signs == {-1.0, 1.0}

    @pytest.mark.parametrize("n,weak", [(20, 1e-5), (40, 1e-6), (20, 1e-9)])
    def test_weak_end_bonds_take_the_dstevd_route(self, n, weak):
        # two end-localized states split by about weak^2: beta passes the tolerance,
        # or the gap falls inside 2 dE, and the chain is read out through dstevd
        bonds = np.ones(n - 1)
        bonds[0] = bonds[-1] = weak
        t = 0.7 * n
        beta = spectral._end_weights(bonds[None])[2][0]
        assert not beta <= spectral.END_WEIGHT_ATOL
        h = build_hamiltonian(BondSet(values=bonds, alpha=None), 1.3)
        old = amplitude_spectral(diagonalize(h), n, t).value
        assert dynamics._end_amplitudes(bonds[None], 1.3, t) == [old]
        # in a stack, the fallback row and its neighbours read as they do alone
        stack = np.array([np.linspace(0.8, 1.2, n - 1), bonds, np.full(n - 1, 0.9)])
        alone = [dynamics._end_amplitudes(row[None], 1.3, t)[0] for row in stack]
        assert dynamics._end_amplitudes(stack, 1.3, t) == alone

    def test_rows_of_a_stack_read_as_they_do_alone(self):
        rng = np.random.default_rng(5)
        for n, chains in ((2, 7), (8, 256), (33, 16), (129, 3)):
            stack = rng.uniform(0.3, 1.7, (chains, n - 1))
            energies, weights, beta = spectral._end_weights(stack)
            for r in (0, chains // 2, chains - 1):
                alone = spectral._end_weights(stack[r : r + 1].copy())
                assert energies[r].tobytes() == alone[0][0].tobytes()
                assert weights[r].tobytes() == alone[1][0].tobytes()
                assert beta[r] == alone[2][0]

    def test_block_size_changes_no_weight(self, monkeypatch):
        stack = np.random.default_rng(2).uniform(0.5, 1.5, (3, 40))
        pinned = spectral._end_weights(stack)
        for block_bytes in (1, 8 * 3 * 41 * 5):
            monkeypatch.setattr(spectral, "_BLOCK_BYTES", block_bytes)
            for got, want in zip(spectral._end_weights(stack), pinned):
                assert got.tobytes() == want.tobytes()

    def test_unsolved_eigenvalues_raise(self, monkeypatch):
        original = spectral._sterf

        def shifted(*args):
            energies, info = original(*args)
            energies[0] -= 1e-6  # one eigenvalue off: sum E^2 misses trace(H^2)
            return energies, info

        monkeypatch.setattr(spectral, "_sterf", shifted)
        with pytest.raises(NumericalFailureError, match="trace"):
            spectral._end_weights(np.ones((1, 7)))

    @pytest.mark.parametrize(
        "call",
        [
            lambda cfg: ensemble_fidelity(cfg, 3, seed=0),
            reflection_fidelity,
            lambda cfg: erg_max_window(cfg, "coherent", 1.0, 5.0),
        ],
        ids=["ensemble_fidelity", "reflection_fidelity", "erg_max_window"],
    )
    def test_lapack_failure_raises(self, monkeypatch, call):
        monkeypatch.setattr(spectral, "_sterf", lambda d, e: (d.copy(), 1))
        with pytest.raises(NumericalFailureError, match="dsterf failed with info = 1"):
            call(ChainConfig(12, 1.0, 1.0, 0.5, 0.1))

    def test_no_benchmark_cell_falls_back(self, monkeypatch):
        # the disorder cells (N <= 128, delta <= 0.2) and the clean chains of the
        # window and theta-sweep cells stay on the eigenvalue route
        def no_dstevd(*args):
            raise AssertionError("dstevd fallback")

        monkeypatch.setattr(spectral, "_solve", no_dstevd)
        for n in (8, 32, 128):
            for alpha in (0.0, 1.0):
                for delta in (0.05, 0.2):
                    ensemble_fidelity(ChainConfig(n, 1.0, 1.0, alpha, delta), 150, seed=0)
        for n, alpha in ((16, 1.0), (64, 1.0), (256, 1.0), (128, 0.0), (256, 0.0)):
            bonds = interpolated_bonds(ChainConfig(n, 1.0, 1.0, alpha)).values
            assert spectral._end_weights(bonds[None])[2][0] <= 1e-9

    def test_reflection_fidelity_at_5000_sites_stays_small(self):
        import tracemalloc

        n = 5000
        tracemalloc.start()
        try:
            _, fidelity = reflection_fidelity(ChainConfig(n, 1.0, 1.0, 0.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 <= fidelity <= 1.0
        assert peak < 0.02 * 8 * n * n  # one (N, N) array is 200 MB; the gap blocks are 256 KB


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


def _krawtchouk_table(m):
    """All K_k(x), 0 <= k, x <= m, as exact integers (rows k) by the three-term recurrence.

    The table the library used before its PST eigenvectors moved to floating
    point; kept here as the exact oracle for them.
    """
    values = np.empty((m + 1, m + 1), dtype=object)
    values[0] = 1
    slope = np.array([m - 2 * x for x in range(m + 1)], dtype=object)
    previous = 0  # K_{-1}
    for k in range(m):
        values[k + 1] = (slope * values[k] - (m - k + 1) * previous) // (k + 1)
        previous = values[k]
    return values


def _integer_route_vectors(n):
    """PST eigenvectors from exact integers: (-1)^(n-1) sqrt(w(n)) K_{k-1}(n-1), normalized.

    The library's route before the float recurrence, operation for operation;
    finite up to N ~ 1030.
    """
    weights = np.array([math.comb(n - 1, j) for j in range(n)], dtype=float)
    weights *= 0.5 ** (n - 1)
    table = _krawtchouk_table(n - 1).astype(float)
    vectors = np.sqrt(weights)[:, None] * table.T
    vectors /= np.linalg.norm(vectors, axis=0)[None, :]
    sites = np.arange(1, n + 1)
    vectors *= np.where(sites % 2 == 1, 1.0, -1.0)[:, None]
    return vectors


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
        table = [[krawtchouk(k, x, m) for x in range(m + 1)] for k in range(m + 1)]
        for k in range(m + 1):
            for l in range(k, m + 1):
                total = sum(
                    math.comb(m, x) * table[k][x] * table[l][x]
                    for x in range(m + 1)
                )
                expected = (2**m * math.comb(m, k)) if k == l else 0
                assert total == expected

    @pytest.mark.parametrize("m", [*range(41), 127])
    def test_table_matches_pointwise(self, m):
        # the oracle table behind the PST eigenvector tests
        table = _krawtchouk_table(m)
        assert table.shape == (m + 1, m + 1)
        for k in range(m + 1):
            for x in range(m + 1):
                value = table[k, x]
                assert type(value) is int and value == krawtchouk(k, x, m)


class TestAnalyticPst:
    # 84 is the largest N at which both gauges pick the same sign for every column
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 15, 32, 64, 84])
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

    @pytest.mark.parametrize("n", [*range(2, 41), 127, 128, 1000])
    def test_matches_integer_route(self, n):
        vectors = analytic_pst_spectrum(n, 1.0, 1.0).vectors
        assert np.max(np.abs(vectors - _integer_route_vectors(n))) < 2e-14
        assert np.all(vectors[0] > 0.0)

    @pytest.mark.parametrize("n", [128, 256])
    def test_gauges_differ_only_below_the_solver_threshold(self, n):
        # diagonalize fixes the sign on the first component above 1e-12 of the
        # column's largest; the closed form keeps row 1 positive
        analytic = analytic_pst_spectrum(n, 1.0, 1.0).vectors
        numerical = diagonalize(_hamiltonian(n, 1.0)).vectors
        assert np.max(np.abs(np.abs(analytic) - np.abs(numerical))) < 1e-11
        flipped = np.einsum("ij,ij->j", analytic, numerical) < 0.0
        small = np.abs(analytic[0]) < 1e-12 * np.max(np.abs(analytic), axis=0)
        assert flipped.any() and np.all(small[flipped])

    def test_mirror_alternation(self):
        # eigenvector k picks up (-1)^(k-1) under site reversal: the refocusing
        # mechanism behind perfect transfer
        n = 9
        analytic = analytic_pst_spectrum(n, 1.0, 1.0)
        for k in range(n):
            flipped = analytic.vectors[::-1, k]
            assert np.max(np.abs(flipped - (-1.0) ** k * analytic.vectors[:, k])) < 1e-12


@pytest.mark.parametrize("n", [1100, 2000])
def test_pst_spectrum_finite_past_the_old_float_range(n):
    # the integer route overflowed a float past N ~ 1030
    vectors = analytic_pst_spectrum(n, 1.0, 1.0).vectors
    assert np.all(np.isfinite(vectors)) and np.all(vectors[0] >= 0.0)
    assert np.max(np.abs(np.linalg.norm(vectors, axis=0) - 1.0)) < 1e-13
    numerical = diagonalize(_hamiltonian(n, 1.0)).vectors
    # the eigensolver's own error is about 2e-11 at N = 2000
    assert np.max(np.abs(np.abs(vectors) - np.abs(numerical))) < 1e-10


@given(n=st.integers(2, 2000))
@settings(max_examples=12, deadline=None)
def test_pst_spectrum_is_finite(n):
    decomposition = analytic_pst_spectrum(n, 1.0, 1.0)
    assert np.all(np.isfinite(decomposition.vectors))
    assert np.all(np.isfinite(decomposition.energies))
