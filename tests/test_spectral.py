from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from conftest import dense_hamiltonian
from lapack_hooks import hooked_lasq1, report_failure
from oracles import krawtchouk, mp_end_spectrum
from ergochain import (
    ChainConfig,
    InvalidInputError,
    NumericalFailureError,
    SpectralDecomposition,
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


DRIVER_SITES = (2, 3, 8, 33, 128, 500)
DRIVER_BLENDS = ((0.0, 0.0), (1.0, 0.0), (0.5, 0.2))

# Per case: do ``diagonalize``'s energies and vectors equal ``eigh_tridiagonal``'s, bit for bit?
DRIVER_MATCHES = f"""\
from scipy.linalg import eigh_tridiagonal
from ergochain import ChainConfig, build_hamiltonian, diagonalize, disordered_bonds
from ergochain.spectral import _fix_column_signs
for n in {DRIVER_SITES!r}:
    for alpha, delta in {DRIVER_BLENDS!r}:
        config = ChainConfig(n_sites=n, coupling=1.0, field=1.0, alpha=alpha, delta=delta)
        h = build_hamiltonian(disordered_bonds(config, seed=5, realization_index=n), 1.0)
        energies, vectors = eigh_tridiagonal(h.diagonal, h.offdiagonal)
        decomposition = diagonalize(h)
        print(n, alpha, delta, decomposition.energies.tobytes() == energies.tobytes(),
              decomposition.vectors.tobytes() == _fix_column_signs(vectors).tobytes())
"""


@pytest.fixture(scope="module")
def driver_matches():
    """``DRIVER_MATCHES`` of one fresh interpreter whose OpenBLAS runs one thread, by "n alpha delta".

    ``diagonalize`` calls ``dstevd`` from numpy's bundled OpenBLAS and
    ``eigh_tridiagonal`` from scipy's. On one thread the two give the same
    bits; on more, each library's split of the threaded BLAS work can move
    the eigenvectors' last bits.
    """
    root = str(Path(spectral.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": root if not path else root + os.pathsep + path}
    done = subprocess.run([sys.executable, "-c", DRIVER_MATCHES], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return {" ".join(line.split()[:3]): " ".join(line.split()[3:]) for line in done.stdout.splitlines()}


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

    @pytest.mark.parametrize("n", DRIVER_SITES)
    @pytest.mark.parametrize("alpha,delta", DRIVER_BLENDS)
    def test_named_driver_matches_eigh_tridiagonal(self, driver_matches, n, alpha, delta):
        # dstevd is what eigh_tridiagonal's "auto" picks, so the bits are the same
        assert driver_matches[f"{n} {alpha} {delta}"] == "True True"

    def test_leaves_the_hamiltonian_as_it_was(self):
        # dstevd overwrites D and E, and ctypes does not see the read-only flag
        # of the held diagonal and bonds: the wrapper solves copies
        h = _hamiltonian(40, 0.5)
        before = h.diagonal.tobytes(), h.offdiagonal.tobytes()
        diagonalize(h)
        assert (h.diagonal.tobytes(), h.offdiagonal.tobytes()) == before

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

    def test_decomposition_checks_its_arrays_without_a_square_temporary(self):
        # the finiteness check of (N, N) vectors reads their extremes: no mask.
        # The vectors are copied once
        import tracemalloc

        n = 2000
        energies, vectors = np.arange(n, dtype=float), np.eye(n)
        tracemalloc.start()
        try:
            SpectralDecomposition(energies, vectors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.01 * 8 * n * n

    def test_lapack_failure_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "_stevd", lambda d, e: (d.copy(), np.eye(d.size), 2))
        with pytest.raises(NumericalFailureError, match="info = 2"):
            diagonalize(_hamiltonian(6, 0.5))


def _end_modulus(bonds, t):
    """|f_N(t)| = sqrt(F) of one chain, as the package reads it (``dynamics._end_fidelities``)."""
    return math.sqrt(dynamics._end_fidelities(bonds[None], t)[0])


def _full_spectrum(sigma, n):
    """The ascending eigenvalues -sigma_k, [0 for odd N,] +sigma_k of one half spectrum row."""
    return np.concatenate((-sigma[n % 2 :][::-1], sigma))


def _oracle_half_spectrum(mpmath, bonds, sigma):
    """40-digit (roots, w) of the full spectrum from starts +-sigma_k, and its exact c_k.

    c_k = 2 v_k[1] v_k[N] over the positive roots, and c_0 = v_0[1] v_0[N]
    for the zero mode of odd N.
    """
    n = bonds.size + 1
    roots, weights = mp_end_spectrum(mpmath, bonds, _full_spectrum(sigma, n))
    with mpmath.workdps(40):  # doubling is exact at 40 digits, not at the default 15
        amplitudes = [2 * w for w in weights[n // 2 :]]
    amplitudes[: n % 2] = weights[n // 2 : n // 2 + n % 2]
    return roots, weights, amplitudes


def _amplitude_error(mpmath, amplitudes, exact):
    """sum_k |c_k - exact c_k|, in 40 digits: the full spectrum's sum_k |w_k - exact w_k|."""
    with mpmath.workdps(40):
        return float(mpmath.fsum(abs(c - x) for c, x in zip(amplitudes, exact)))


def _oracle_moduli(mpmath, bonds, sigma, times):
    """|f_N(t)| of the zero-diagonal chain with these bonds at each t, from the 40-digit oracle."""
    roots, exact = mp_end_spectrum(mpmath, bonds, _full_spectrum(sigma, bonds.size + 1))
    with mpmath.workdps(40):
        return [
            float(abs(mpmath.fsum(w * mpmath.expj(-e * t) for w, e in zip(exact, roots))))
            for t in times
        ]


def _assert_fallback_reads_the_oracle(bonds, monkeypatch):
    """beta past the tolerance, one ``_solve`` per readout, |f_N| within 1e-14 of the oracle.

    Each readout of the chain, alone or as the middle row of a stack, makes
    exactly one ``_solve`` call, with its bonds, and the stack's rows read as
    they do alone. The count is what shows the route: on these chains the
    uncertified dqds weights read |f_N| within 1e-14 too. The fold averages
    the mirror halves of ``dstevd``'s spectrum; its worst error on these
    chains, at these times, was 2.3e-15, against 2.1e-15 for a complex sum
    over the full spectrum. Both round each phase E t at about eps max|E| t.
    """
    mpmath = pytest.importorskip("mpmath")
    n = bonds.size + 1
    sigma, _, beta = spectral._end_weights(bonds[None])
    assert not beta[0] <= spectral.END_WEIGHT_ATOL
    solved, original = [], spectral._solve
    monkeypatch.setattr(spectral, "_solve", lambda d, e: solved.append(e.tobytes()) or original(d, e))
    times = (0.1 * n, 0.7 * n, 3.1 * n)
    for t, exact in zip(times, _oracle_moduli(mpmath, bonds, sigma[0], times)):
        solved.clear()
        assert abs(_end_modulus(bonds, t) - exact) <= 1e-14
        assert solved == [bonds.tobytes()]
    # in a stack, the fallback row and its neighbours read as they do alone
    stack = np.array([np.linspace(0.8, 1.2, n - 1), bonds, np.full(n - 1, 0.9)])
    alone = [dynamics._end_fidelities(row[None], times[1])[0] for row in stack]
    solved.clear()
    assert dynamics._end_fidelities(stack, times[1]).tolist() == alone
    assert solved == [bonds.tobytes()]


class TestEndWeights:
    """Half spectrum from dlasq1, end weights from the eigenvalues, and their certificate."""

    def test_weights_are_the_end_products_of_the_eigenvectors(self):
        # the identity itself, against 40-digit eigenvectors of the dense matrix:
        # sigma_k are its positive eigenvalues and c_k = 2 v_k[1] v_k[N] over them,
        # c_0 = v_0[1] v_0[N] for the zero mode of odd N
        mpmath = pytest.importorskip("mpmath")
        for n in (2, 5, 10):
            bonds = disordered_bonds(ChainConfig(n, 1.0, 1.0, 0.5, 0.9), 3, n).values
            sigma, amplitudes, beta = spectral._end_weights(bonds[None])
            assert sigma.shape == amplitudes.shape == (1, (n + 1) // 2)
            with mpmath.workdps(40):
                matrix = mpmath.matrix(n, n)
                for j, b in enumerate(bonds):
                    matrix[j, j + 1] = matrix[j + 1, j] = mpmath.mpf(float(b))
                values, vectors = mpmath.eigsy(matrix)
                upper = sorted(range(n), key=lambda k: values[k])[n // 2 :]
                exact = [2 * vectors[0, k] * vectors[n - 1, k] for k in upper]
                exact[: n % 2] = [vectors[0, k] * vectors[n - 1, k] for k in upper[: n % 2]]
                assert max(abs(values[k] - s) for k, s in zip(upper, sigma[0])) < 1e-14
            assert _amplitude_error(mpmath, amplitudes[0], exact) <= beta[0]

    @pytest.mark.parametrize(
        "n,alpha,delta",
        [(8, 0.0, 0.2), (8, 0.5, 0.5), (32, 1.0, 0.05), (32, 0.5, 0.5), (128, 0.0, 0.2)],
    )
    def test_fidelity_and_weights_against_a_40_digit_oracle(self, n, alpha, delta):
        mpmath = pytest.importorskip("mpmath")
        bonds = disordered_bonds(ChainConfig(n, 1.0, 1.0, alpha, delta), 11, n).values
        t = reflection_time(n, alpha, 1.0)
        sigma, amplitudes, beta = spectral._end_weights(bonds[None])
        roots, weights, exact = _oracle_half_spectrum(mpmath, bonds, sigma[0])
        with mpmath.workdps(40):
            f_exact = mpmath.fsum(w * mpmath.expj(-e * t) for w, e in zip(weights, roots))
            f_error = float(abs(_end_modulus(bonds, t) - abs(f_exact)))
        assert 0.0 < beta[0] <= 1e-10
        assert _amplitude_error(mpmath, amplitudes[0], exact) <= beta[0]
        assert f_error <= beta[0]

    def test_a_zero_bond_gives_zero_exactly(self):
        for n, cut in ((2, 0), (9, 4), (9, 7), (40, 19)):
            bonds = np.linspace(0.5, 1.5, n - 1)
            bonds[cut] = 0.0
            sigma, amplitudes, beta = spectral._end_weights(bonds[None])
            assert np.all(amplitudes == 0.0) and beta[0] == 0.0
            assert dynamics._end_fidelities(bonds[None], 3.7).tolist() == [0.0]

    @pytest.mark.parametrize("n", [5, 16, 64])
    def test_negative_bonds_read_the_oracle(self, n):
        # delta >= 1 draws bonds of either sign; the sign of prod b carries over.
        # Each of these 20 chains per size is certified (beta within the
        # tolerance); the first eight are within beta of the 40-digit oracle, and
        # so within beta plus dstevd's own oracle error of the dstevd readout
        # (dstevd is off by more than beta on some of these chains)
        mpmath = pytest.importorskip("mpmath")
        config = ChainConfig(n, 1.0, 1.0, 0.5, 1.5)
        t = reflection_time(n, 0.5, 1.0)
        signs, checked = set(), set()
        for k in range(20):
            bonds = disordered_bonds(config, 2, k)
            sign = float(np.prod(np.sign(bonds.values)))
            signs.add(sign)
            sigma, _, beta = spectral._end_weights(bonds.values[None])
            assert beta[0] <= spectral.END_WEIGHT_ATOL
            if len(checked) < 8:
                f = _end_modulus(bonds.values, t)
                old = amplitude_spectral(diagonalize(build_hamiltonian(bonds, 1.0)), n, t).value
                (exact,) = _oracle_moduli(mpmath, bonds.values, sigma[0], [t])
                assert abs(f - exact) <= beta[0]
                assert abs(f - abs(old)) <= beta[0] + abs(abs(old) - exact)
                checked.add((k, sign))
        assert signs == {-1.0, 1.0}
        assert {sign for _, sign in checked} == {-1.0, 1.0}

    @pytest.mark.parametrize(
        "n,weak", [(20, 1e-5), (40, 1e-6), (20, 1e-9), (20, 1e-13), (20, 1e-15)]
    )
    def test_weak_end_bonds_resolve_against_the_oracle(self, n, weak):
        # two end-localized states split by about weak^2: sigma_1 reaches 1e-30 at
        # weak = 1e-15, far below any absolute error bound on H^2, and dqds still
        # resolves it to full relative accuracy
        mpmath = pytest.importorskip("mpmath")
        bonds = np.ones(n - 1)
        bonds[0] = bonds[-1] = weak
        t = 0.7 * n
        sigma, amplitudes, beta = spectral._end_weights(bonds[None])
        roots, _, exact = _oracle_half_spectrum(mpmath, bonds, sigma[0])
        with mpmath.workdps(40):
            smallest = min(abs(r) for r in roots)
            assert abs(sigma[0, 0] - smallest) <= 1e-13 * float(smallest)
        assert 0.0 < beta[0] <= 1e-10
        assert _amplitude_error(mpmath, amplitudes[0], exact) <= beta[0]
        (exact,) = _oracle_moduli(mpmath, bonds, sigma[0], [t])
        assert abs(_end_modulus(bonds, t) - exact) <= beta[0]

    @pytest.mark.parametrize(
        "n,middle", [(20, 1e-8), (40, 1e-10), (20, 1e-12), (21, 1e-4), (41, 1e-4)]
    )
    def test_near_degenerate_halves_take_the_dstevd_route(self, monkeypatch, n, middle):
        # two equal halves joined by a weak middle bond (for odd N, the two bonds
        # of the centre site): every level pairs with its mirror image at a
        # splitting of about the middle bond (its square for odd N), within the
        # eigenvalue bounds' reach, so beta passes the tolerance and the chain
        # is read out through dstevd
        bonds = np.ones(n - 1)
        bonds[n // 2 - 1 : (n + 1) // 2] = middle
        _assert_fallback_reads_the_oracle(bonds, monkeypatch)

    def test_subnormal_end_pair_takes_the_dstevd_route(self, monkeypatch):
        # sigma_1^2 ~ 1e-321 is subnormal: its square keeps only a few digits,
        # the absolute rounding term of dy says so, and the chain is read out
        # through dstevd
        bonds = np.ones(19)
        bonds[0] = bonds[-1] = 1e-80
        _assert_fallback_reads_the_oracle(bonds, monkeypatch)

    def test_fallback_rows_leave_the_bond_stack_as_it_was(self, monkeypatch):
        # rows 0 and 2 (subnormal end pairs) are solved by dstevd on views of
        # the caller's stack and on one shared zero diagonal; neither is written
        solved = []
        solve = spectral._solve
        monkeypatch.setattr(spectral, "_solve", lambda d, e: solved.append(1) or solve(d, e))
        bonds = np.ones((3, 19))
        bonds[::2, 0] = bonds[::2, -1] = 1e-80
        before = bonds.tobytes()
        sigma, amplitudes = spectral._end_spectrum(bonds)
        assert len(solved) == 2 and bonds.tobytes() == before
        assert sigma[0].tobytes() == sigma[2].tobytes()
        assert amplitudes[0].tobytes() == amplitudes[2].tobytes()

    def test_rows_of_a_stack_read_as_they_do_alone(self):
        rng = np.random.default_rng(5)
        for n, chains in ((2, 7), (8, 256), (33, 16), (129, 3)):
            stack = rng.uniform(0.3, 1.7, (chains, n - 1))
            sigma, amplitudes, beta = spectral._end_weights(stack)
            for r in (0, chains // 2, chains - 1):
                alone = spectral._end_weights(stack[r : r + 1].copy())
                assert sigma[r].tobytes() == alone[0][0].tobytes()
                assert amplitudes[r].tobytes() == alone[1][0].tobytes()
                assert beta[r] == alone[2][0]

    @pytest.mark.parametrize("n", [2, 3, 64, 65, 1000, 1001])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_certified_rows_are_handed_on_unsolved(self, monkeypatch, n, alpha):
        # on the chains the CLI runs, _end_spectrum returns the half spectrum of
        # _end_weights bit for bit, and never calls dstevd
        def no_dstevd(*args):
            raise AssertionError("dstevd fallback")

        bonds = interpolated_bonds(ChainConfig(n, 0.7, 1.0, alpha)).values[None]
        sigma, amplitudes, beta = spectral._end_weights(bonds)
        assert beta[0] <= spectral.END_WEIGHT_ATOL
        monkeypatch.setattr(spectral, "_solve", no_dstevd)
        got = spectral._end_spectrum(bonds)
        assert got[0].tobytes() == sigma.tobytes()
        assert got[1].tobytes() == amplitudes.tobytes()

    @pytest.mark.parametrize("n", [20, 21])
    def test_only_the_fallback_row_is_solved(self, monkeypatch, n):
        # a stack with a near-degenerate middle row: dstevd solves that row alone,
        # and the certified rows around it keep the bits of _end_weights
        stack = np.ones((3, n - 1))
        stack[0] = np.linspace(0.8, 1.2, n - 1)
        stack[1, n // 2 - 1 : (n + 1) // 2] = 1e-10
        stack[2] = 0.9
        sigma, amplitudes, beta = spectral._end_weights(stack)
        assert (beta <= spectral.END_WEIGHT_ATOL).tolist() == [True, False, True]
        solved, original = [], spectral._solve
        monkeypatch.setattr(spectral, "_solve", lambda d, e: solved.append(e) or original(d, e))
        got = spectral._end_spectrum(stack)
        assert len(solved) == 1 and solved[0].tobytes() == stack[1].tobytes()
        for r in (0, 2):
            assert got[0][r].tobytes() == sigma[r].tobytes()
            assert got[1][r].tobytes() == amplitudes[r].tobytes()
        assert got[0].shape == got[1].shape == (3, (n + 1) // 2)

    def test_block_size_changes_no_weight(self, monkeypatch):
        stack = np.random.default_rng(2).uniform(0.5, 1.5, (3, 40))
        pinned = spectral._end_weights(stack)
        for block_bytes in (1, 8 * 3 * 41 * 5):
            monkeypatch.setattr(spectral, "_BLOCK_BYTES", block_bytes)
            for got, want in zip(spectral._end_weights(stack), pinned):
                assert got.tobytes() == want.tobytes()

    def test_unsolved_eigenvalues_raise(self, monkeypatch):
        def shifted(values, info):
            values[0] -= 1e-6  # one singular value off: the sum of squares misses the trace

        monkeypatch.setattr(spectral, "_lasq1", hooked_lasq1(shifted))
        with pytest.raises(NumericalFailureError, match="trace sum_j b_j"):
            spectral._end_weights(np.ones((1, 7)))

    @pytest.mark.parametrize("n", [3, 8, 65])
    def test_moved_eigenvalues_raise_on_the_fourth_moment(self, monkeypatch, n):
        # the largest and the smallest sigma^2 of the call moved 1e-9 toward each
        # other, their sum kept: the trace check passes, and the fourth moment
        # sees the move (at N = 3 and 65 the smallest is the zero mode of odd N)
        def moved(values, info):
            values[0] = math.sqrt(values[0] ** 2 - 1e-9)
            values[-1] = math.sqrt(values[-1] ** 2 + 1e-9)

        monkeypatch.setattr(spectral, "_lasq1", hooked_lasq1(moved))
        with pytest.raises(NumericalFailureError, match="sum sigma\\^4"):
            spectral._end_weights(np.linspace(0.5, 1.5, n - 1)[None])

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
        monkeypatch.setattr(spectral, "_lasq1", hooked_lasq1(report_failure))
        with pytest.raises(NumericalFailureError, match="dlasq1 failed with info = 1"):
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
        assert peak < 0.02 * 8 * n * n  # one (N, N) array is 200 MB; the pair blocks are 64 KB


@given(
    n=st.integers(2, 64),
    kind=st.sampled_from(["disorder", "signed", "zero bond"]),
    alpha=st.floats(0.0, 1.0),
    delta=st.floats(0.0, 0.99),
    seed=st.integers(0, 2**32 - 1),
    cut=st.integers(0, 62),
)
@settings(max_examples=25, deadline=None)
def test_certificate_covers_the_oracle(n, kind, alpha, delta, seed, cut):
    # the bounds dy on sigma_k^2 and beta on the weights and on |f_N| hold against
    # the 40-digit oracle: disorder up to delta 0.99, signed bonds (delta >= 1)
    # and a zero bond; every N, 2 and 3 included, takes one guarded dlasq1 call
    # of order N//2 + N mod 2
    mpmath = pytest.importorskip("mpmath")
    if kind == "signed":
        delta += 1.0
    bonds = disordered_bonds(ChainConfig(n, 1.0, 1.0, alpha, delta), seed, 0).values.copy()
    if kind == "zero bond":
        bonds[cut % (n - 1)] = 0.0
    orders, original = [], spectral._lasq1
    spectral._lasq1 = hooked_lasq1(lambda values, info: None, orders)
    try:
        sigma, amplitudes, beta = spectral._end_weights(bonds[None])
    finally:
        spectral._lasq1 = original
    assert orders == [n // 2 + n % 2]
    if kind == "zero bond":
        assert np.all(amplitudes == 0.0) and beta[0] == 0.0
        return
    if not beta[0] <= spectral.END_WEIGHT_ATOL:
        return  # read out through dstevd instead
    roots, weights, exact = _oracle_half_spectrum(mpmath, bonds, sigma[0])
    # sigma_k^2 and their bounds, in the power-of-two units _end_weights works in
    m, scale = n // 2, int(np.frexp(np.max(np.abs(bonds)))[1])
    y, dy = spectral._squared_spectrum(np.ldexp(bonds, -scale)[None])
    t = reflection_time(n, alpha, 1.0)
    with mpmath.workdps(40):
        for k, root in enumerate(roots[n - m :]):
            assert abs(mpmath.ldexp(root**2, -2 * scale) - y[0, k]) <= dy[0, k]
        f_exact = abs(mpmath.fsum(w * mpmath.expj(-e * t) for w, e in zip(weights, roots)))
    assert _amplitude_error(mpmath, amplitudes[0], exact) <= beta[0]
    assert abs(_end_modulus(bonds, t) - float(f_exact)) <= beta[0]


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
        fixed = _fix_column_signs(vectors.copy())  # flips in place
        assert fixed.tobytes() == _fix_column_signs_loop(vectors).tobytes()

    def test_matches_loop_on_leading_zeros_and_subthreshold_components(self):
        vectors = np.array(
            [
                [0.0, 0.0, 3e-13, -3e-13, 0.0, -0.0, 1e-13],
                [0.0, -0.0, -1e-13, 2e-13, 0.0, 0.0, -1e-13],
                [-0.5, 0.7, -0.9, 0.4, 0.0, -2.0, 0.0],
                [0.5, -0.7, 0.1, -0.4, 0.0, 1.0, 0.0],
            ]
        )
        fixed = _fix_column_signs(vectors.copy())
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
        fixed = _fix_column_signs(vectors.copy())  # flips in place
        assert fixed.tobytes() == _fix_column_signs_loop(vectors).tobytes()


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
