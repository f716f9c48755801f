from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_hamiltonian, full_hilbert_receiver_state, rk4_propagate
from ergochain import (
    ChainConfig,
    InitialSiteState,
    InvalidInputError,
    NumericalFailureError,
    QubitState,
    amplitude_bessel_limit,
    amplitude_profile,
    amplitude_pst_closed,
    amplitude_spectral,
    amplitude_uniform_closed,
    build_hamiltonian,
    diagonalize,
    gn_factor,
    interpolated_bonds,
    reduced_state,
    reflection_time,
)
from ergochain.dynamics import _amplitude_grid
from ergochain.spectral import krawtchouk


def _decomposition(n, alpha, coupling=1.0, field=1.0):
    cfg = ChainConfig(n_sites=n, coupling=coupling, field=field, alpha=alpha)
    return diagonalize(build_hamiltonian(interpolated_bonds(cfg), field))


class TestAmplitudeSpectral:
    def test_initial_condition(self):
        decomposition = _decomposition(8, 0.5)
        assert amplitude_spectral(decomposition, 1, 0.0).value == pytest.approx(1.0, abs=1e-13)
        for site in range(2, 9):
            assert abs(amplitude_spectral(decomposition, site, 0.0).value) < 1e-13

    def test_probability_conservation(self):
        decomposition = _decomposition(11, 0.3)
        for t in (0.7, 4.2, 19.0):
            total = sum(
                abs(amplitude_spectral(decomposition, site, t).value) ** 2
                for site in range(1, 12)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_mirror_symmetry_in_time(self):
        # |f(t)| = |f(-t)| for a real Hamiltonian
        decomposition = _decomposition(9, 0.8)
        for t in (0.5, 3.3):
            forward = abs(amplitude_spectral(decomposition, 9, t).value)
            backward = abs(amplitude_spectral(decomposition, 9, -t).value)
            assert forward == pytest.approx(backward, abs=1e-14)

    def test_profile_matches_pointwise(self):
        decomposition = _decomposition(10, 0.6)
        times = np.array([0.0, 1.1, 2.7, 8.4])
        profile = amplitude_profile(decomposition, 10, times)
        for i, t in enumerate(times):
            assert profile[i] == pytest.approx(
                amplitude_spectral(decomposition, 10, float(t)).value, abs=1e-14
            )

    def test_rejects_bad_site(self):
        decomposition = _decomposition(5, 0.0)
        for site in (0, 6, -1, 2.0):
            with pytest.raises(InvalidInputError):
                amplitude_spectral(decomposition, site, 1.0)

    def test_rk4_cross_check(self):
        # independent integrator, fixed step, moderate horizon
        cfg = ChainConfig(n_sites=12, coupling=1.0, field=1.0, alpha=0.45)
        h = build_hamiltonian(interpolated_bonds(cfg), 1.0)
        decomposition = diagonalize(h)
        t = 9.0
        psi0 = np.zeros(12)
        psi0[0] = 1.0
        psi = rk4_propagate(dense_hamiltonian(h.diagonal, h.offdiagonal), psi0, t, 1e-3)
        for site in (1, 6, 12):
            expected = psi[site - 1]
            got = amplitude_spectral(decomposition, site, t).value
            assert abs(got - expected) < 1e-7


class TestAmplitudeGrid:
    """The factorized window against amplitude_profile on the same grid."""

    @pytest.mark.parametrize("n", [2, 3, 8, 33, 128, 256])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("count", [1, 2, 1024, 1021])
    def test_matches_profile(self, n, alpha, count):
        decomposition = _decomposition(n, alpha)
        horizon = 0.7 * n
        step = horizon / count
        times = np.arange(step, horizon + 0.5 * step, step)
        assert times.size == count
        direct = np.abs(amplitude_profile(decomposition, n, times)) ** 2
        factorized = np.abs(_amplitude_grid(decomposition, n, step, count)) ** 2
        assert factorized.shape == (count,)
        assert np.max(np.abs(factorized - direct)) <= 1e-12
        assert np.argmax(factorized) == np.argmax(direct)

    def test_every_site(self):
        decomposition = _decomposition(9, 0.3, coupling=1.7, field=0.6)
        times = np.arange(1, 51) * 0.37
        for site in range(1, 10):
            np.testing.assert_allclose(
                _amplitude_grid(decomposition, site, 0.37, 50),
                amplitude_profile(decomposition, site, times),
                rtol=0.0,
                atol=1e-13,
            )


class TestClosedForms:
    @pytest.mark.parametrize("n", [2, 3, 7, 12, 21])
    def test_uniform_modulus_matches_spectral(self, n):
        decomposition = _decomposition(n, 0.0)
        rng = np.random.default_rng(1234)
        for t in rng.uniform(0.0, 5.0 * n, 25):
            for site in (1, (n + 1) // 2, n):
                closed = abs(amplitude_uniform_closed(n, 1.0, site, float(t)).value)
                spectral = abs(amplitude_spectral(decomposition, site, float(t)).value)
                assert closed == pytest.approx(spectral, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 7, 12, 16])
    def test_pst_modulus_matches_spectral(self, n):
        decomposition = _decomposition(n, 1.0)
        rng = np.random.default_rng(99)
        for t in rng.uniform(0.0, 5.0 * n, 25):
            for site in (1, (n + 1) // 2, n):
                closed = abs(amplitude_pst_closed(n, 1.0, site, float(t)).value)
                spectral = abs(amplitude_spectral(decomposition, site, float(t)).value)
                assert closed == pytest.approx(spectral, abs=1e-12)

    def test_pst_refocusing(self):
        for n in (2, 5, 10, 31):
            t = reflection_time(n, 1.0, 1.0)
            assert abs(amplitude_pst_closed(n, 1.0, n, t).value) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_pst_two_sites_is_rabi(self):
        # N=2 engineered chain is a single J bond: |f_2| = |sin(J t)|
        for t in (0.0, 0.4, 1.1, 2.8):
            assert abs(amplitude_pst_closed(2, 1.0, 2, t).value) == pytest.approx(
                abs(math.sin(t)), abs=1e-13
            )

    @given(t=st.floats(0.0, 60.0), n=st.integers(2, 24))
    @settings(max_examples=60, deadline=None)
    def test_moduli_bounded_by_one(self, t, n):
        assert abs(amplitude_uniform_closed(n, 1.0, n, t).value) <= 1.0 + 1e-10
        assert abs(amplitude_pst_closed(n, 1.0, n, t).value) <= 1.0 + 1e-10

    @staticmethod
    def _pst_closed_oracle(n, coupling, site, time):
        # the Krawtchouk-sum closed form, exact integers rounded once, operation for operation
        gn = 1.0 if n % 2 == 0 else 1.0 / math.sqrt(1.0 - 1.0 / n**2)
        k = np.arange(1, n + 1)
        energies = -(2.0 * coupling / n) * (n - (2 * k - 1)) * gn
        kraw = np.array([float(krawtchouk(kk, site - 1, n - 1)) for kk in range(n)])
        total = np.sum(kraw * np.exp(-1j * energies * float(time)))
        prefactor = (-1.0) ** (site - 1) * 0.5 ** (n - 1) * math.sqrt(math.comb(n - 1, site - 1))
        return complex(prefactor * total)

    @pytest.mark.parametrize("n", [2, 3, 9, 200, 1000])
    def test_pst_closed_unchanged_below_overflow(self, n):
        # the float formula against the Krawtchouk sum it replaced: largest
        # difference measured 6.7e-15 over this grid (N <= 1000)
        for site in sorted({1, 2, n}):
            peak = math.asin(math.sqrt((site - 1) / (n - 1))) * n / (2.0 * 1.3 * gn_factor(n))
            for t in (0.0, 1.7, math.pi * n / 4.0, peak):
                got = amplitude_pst_closed(n, 1.3, site, t).value
                assert abs(got - self._pst_closed_oracle(n, 1.3, site, t)) < 2e-13

    @pytest.mark.parametrize(
        "n, site",
        [
            (1030, 1),  # where the Krawtchouk sum overflowed: NaN
            (1030, 1030),
            (1031, 1),  # where K overflowed a float
            (1031, 1031),
            (1080, 61),  # where 2^(1-N) underflowed to 0
            (2000, 1),
            (2000, 2000),
        ],
    )
    def test_pst_closed_finite_past_old_float_range(self, n, site):
        value = amplitude_pst_closed(n, 1.0, site, reflection_time(n, 1.0, 1.0)).value
        assert cmath.isfinite(value)
        assert abs(value) == pytest.approx(1.0 if site == n else 0.0, abs=1e-12)

    def test_pst_closed_raises_when_the_phase_overflows(self):
        with pytest.raises(NumericalFailureError):
            amplitude_pst_closed(4, 1e308, 2, 1e10)

    @given(n=st.integers(2, 100_000), data=st.data(), t=st.floats(-1e4, 1e4))
    @settings(max_examples=200, deadline=None)
    def test_pst_closed_finite_and_bounded(self, n, data, t):
        site = data.draw(st.integers(1, n))
        value = amplitude_pst_closed(n, 1.0, site, t).value
        assert cmath.isfinite(value) and abs(value) <= 1.0 + 1e-12

    @given(n=st.integers(2, 2000), t=st.floats(0.0, 1e4))
    @settings(max_examples=25, deadline=None)
    def test_pst_closed_conserves_probability(self, n, t):
        moduli = [abs(amplitude_pst_closed(n, 1.0, site, t).value) for site in range(1, n + 1)]
        total = sum(m * m for m in moduli)
        assert total == pytest.approx(1.0, abs=1e-11)

    @staticmethod
    def _mpmath_amplitude(mpmath, n, coupling, site, time):
        # (-i)^(n-1) sqrt(C(N-1, n-1)) cos(lt)^(N-n) sin(lt)^(n-1), l = 2J G_N/N, 50 digits
        with mpmath.workdps(50):
            gn = 1 if n % 2 == 0 else 1 / mpmath.sqrt(1 - mpmath.mpf(1) / n**2)
            angle = 2 * mpmath.mpf(coupling) * gn / n * mpmath.mpf(time)
            modulus = mpmath.sqrt(mpmath.binomial(n - 1, site - 1))
            modulus *= mpmath.cos(angle) ** (n - site) * mpmath.sin(angle) ** (site - 1)
            return complex((-1j) ** ((site - 1) % 4) * complex(modulus))

    @pytest.mark.parametrize("n", [9, 64, 1000, 2000, 5000])
    def test_pst_closed_matches_50_digits(self, n):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(n)
        rate = 2.0 * gn_factor(n) / n
        for site in sorted({1, 2, n // 4, (n + 1) // 2, n - 1, n}):
            peak = math.asin(math.sqrt((site - 1) / (n - 1))) / rate
            times = (reflection_time(n, 1.0, 1.0), peak, 1.01 * peak, *rng.uniform(0.0, 2.0 * n, 3))
            for t in times:
                got = amplitude_pst_closed(n, 1.0, site, float(t)).value
                assert abs(got - self._mpmath_amplitude(mpmath, n, 1.0, site, float(t))) < 1e-13


class TestBesselLimit:
    def test_frozen_value(self):
        # i^4 J_4(20): modulus is |J_4(20)|
        amp = amplitude_bessel_limit(5, 1.0, 10.0)
        assert abs(amp.value) == pytest.approx(0.13067093355486283, abs=1e-12)

    def test_ahead_of_wavefront(self):
        # the bulk formula is excellent for sites the front (speed 2J) has not
        # reached; behind the front the open boundary makes it diverge from
        # the finite chain
        n, t = 30, 3.0
        decomposition = _decomposition(n, 0.0)
        for site, tol in ((16, 1e-6), (20, 1e-9)):
            bulk = amplitude_bessel_limit(site, 1.0, t).value
            exact = amplitude_spectral(decomposition, site, t).value
            assert abs(abs(bulk) - abs(exact)) < tol

    def test_site_one_anomaly_documented(self):
        # the formula double counts the injection site at t=0: value 2, not 1
        assert amplitude_bessel_limit(1, 1.0, 0.0).value == pytest.approx(2.0)

    def test_phase_factor(self):
        amp = amplitude_bessel_limit(4, 1.0, 3.0)
        from scipy.special import jv

        assert amp.value == pytest.approx((1j) ** 3 * jv(3, 6.0), abs=1e-14)


class TestReducedState:
    @pytest.mark.parametrize(
        "n,alpha,theta,phi,t",
        [
            (2, 1.0, 1.2, 0.4, 0.9),
            (5, 0.0, 2.0, 0.0, 3.3),
            (6, 1.0, math.pi / 2, 1.1, 4.7),
            (7, 0.3, 2.8, 2.0, 6.0),
            (8, 0.7, 0.6, 5.0, 11.0),
        ],
    )
    def test_against_full_hilbert_space(self, n, alpha, theta, phi, t):
        cfg = ChainConfig(n_sites=n, coupling=1.0, field=1.0, alpha=alpha)
        bonds = interpolated_bonds(cfg)
        decomposition = diagonalize(build_hamiltonian(bonds, 1.0))
        amplitude = amplitude_spectral(decomposition, n, t)
        state = reduced_state(InitialSiteState(theta=theta, phi=phi), amplitude)
        rho = full_hilbert_receiver_state(bonds.values, 1.0, theta, phi, t)
        assert state.excited_population == pytest.approx(float(rho[1, 1].real), abs=1e-12)
        assert abs(state.coherence) == pytest.approx(abs(rho[0, 1]), abs=1e-12)
        assert float(rho[0, 0].real + rho[1, 1].real) == pytest.approx(1.0, abs=1e-12)

    def test_populations(self):
        decomposition = _decomposition(4, 1.0)
        t = reflection_time(4, 1.0, 1.0)
        amplitude = amplitude_spectral(decomposition, 4, t)
        state = reduced_state(InitialSiteState(theta=math.pi), amplitude)
        assert state.excited_population == pytest.approx(1.0, abs=1e-12)
        assert abs(state.coherence) < 1e-12

    def test_rejects_superunitary_amplitude(self):
        bad = amplitude_bessel_limit(1, 1.0, 0.0)  # value 2
        with pytest.raises(InvalidInputError):
            reduced_state(InitialSiteState(theta=1.0), bad)


class TestInitialSiteState:
    def test_domain(self):
        with pytest.raises(InvalidInputError):
            InitialSiteState(theta=-0.1)
        with pytest.raises(InvalidInputError):
            InitialSiteState(theta=math.pi + 0.1)
        with pytest.raises(InvalidInputError):
            InitialSiteState(theta=math.nan)

    def test_population_and_coherence(self):
        state = InitialSiteState(theta=math.pi / 2, phi=0.0)
        assert state.excited_population == pytest.approx(0.5, abs=1e-15)
        assert state.initial_coherence == pytest.approx(0.5, abs=1e-15)
        rotated = InitialSiteState(theta=math.pi / 2, phi=math.pi / 2)
        assert rotated.initial_coherence == pytest.approx(-0.5j, abs=1e-15)


class TestQubitState:
    def test_positivity_enforced(self):
        QubitState(excited_population=0.5, coherence=0.5)  # rank-1 edge is fine
        with pytest.raises(InvalidInputError):
            QubitState(excited_population=0.5, coherence=0.51)
        with pytest.raises(InvalidInputError):
            QubitState(excited_population=0.1, coherence=0.4)
        with pytest.raises(InvalidInputError):
            QubitState(excited_population=1.3, coherence=0.0)
