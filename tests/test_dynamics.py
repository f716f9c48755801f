from __future__ import annotations

import cmath
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_hamiltonian, full_hilbert_receiver_state, rk4_propagate
from oracles import krawtchouk
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
from ergochain import dynamics
from ergochain.dynamics import _amplitude_grid


def _decomposition(n, alpha, coupling=1.0, field=1.0):
    cfg = ChainConfig(n_sites=n, coupling=coupling, field=field, alpha=alpha)
    return diagonalize(build_hamiltonian(interpolated_bonds(cfg), field))


def _grid(decomposition, site, step, count):
    """``_amplitude_grid`` on a decomposition's energies and site weights v_k[1] v_k[site]."""
    weights = decomposition.vectors[0] * decomposition.vectors[site - 1]
    return _amplitude_grid(decomposition.energies, weights, step, count)


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
        factorized = np.abs(_grid(decomposition, n, step, count)) ** 2
        assert factorized.shape == (count,)
        assert np.max(np.abs(factorized - direct)) <= 1e-12
        assert np.argmax(factorized) == np.argmax(direct)

    def test_every_site(self):
        decomposition = _decomposition(9, 0.3, coupling=1.7, field=0.6)
        times = np.arange(1, 51) * 0.37
        for site in range(1, 10):
            np.testing.assert_allclose(
                _grid(decomposition, site, 0.37, 50),
                amplitude_profile(decomposition, site, times),
                rtol=0.0,
                atol=1e-13,
            )


# erg_max_window's window at N = 131 (horizon 0.7N/J, step 0.01/J): with the
# product on OpenBLAS's default thread count, its bits differ between one and
# two threads, while the eigensolve's do not.
WINDOW_BYTES = """
import hashlib, math
import numpy as np
from ergochain import ChainConfig, erg_max_window, dynamics, diagonalize
from ergochain import build_hamiltonian, interpolated_bonds
n = 131
config = ChainConfig(n_sites=n, coupling=1.0, field=1.0, alpha=0.0)
record = erg_max_window(config, "coherent", math.pi / 2, 0.7 * n, 0.01)
decomposition = diagonalize(build_hamiltonian(interpolated_bonds(config), 1.0))
count = int(round(0.7 * n / 0.01))
weights = decomposition.vectors[0] * decomposition.vectors[n - 1]
window = dynamics._amplitude_grid(decomposition.energies, weights, 0.01, count)
profile = dynamics.amplitude_profile(decomposition, n, np.arange(1, count + 1) * 0.01)
digest = hashlib.sha256(repr(record).encode() + window.tobytes() + profile.tobytes())
print(digest.hexdigest())
"""


def _window_digest(blas_threads: str) -> str:
    root = str(Path(dynamics.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": root if not path else root + os.pathsep + path,
        "OPENBLAS_NUM_THREADS": blas_threads,
    }
    done = subprocess.run(
        [sys.executable, "-c", WINDOW_BYTES], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class _FakeThreads:
    """A thread-count setter and getter that records every value set."""

    def __init__(self, count):
        self.count = count
        self.history = []

    def set(self, count):
        self.count = count
        self.history.append(count)

    def get(self):
        return self.count


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS (setter, getter), its count set to 2 for the test."""
    api = dynamics._numpy_openblas_threads()
    if api is None:
        pytest.skip("numpy's BLAS is not a bundled OpenBLAS")
    setter, getter = api
    before = getter()
    setter(2)
    try:
        yield setter, getter
    finally:
        setter(before)


class TestOneBlasThread:
    """The window and profile products run on one thread of numpy's OpenBLAS."""

    def test_window_bytes_do_not_depend_on_blas_threads(self):
        assert _window_digest("1") == _window_digest("2")

    def test_count_restored_after_products(self, monkeypatch, two_blas_threads):
        setter, getter = two_blas_threads
        history = []

        def recording_setter(count):
            history.append(count)
            setter(count)

        monkeypatch.setattr(dynamics, "_numpy_openblas_threads", lambda: (recording_setter, getter))
        monkeypatch.setattr(dynamics, "_one_blas_thread", dynamics._OneBlasThread())
        decomposition = _decomposition(131, 0.0)
        _grid(decomposition, 131, 0.01, 9170)
        amplitude_profile(decomposition, 131, np.arange(1, 101) * 0.1)
        assert history == [1, 2, 1, 2]
        assert getter() == 2

    def test_count_restored_after_an_exception(self, two_blas_threads):
        _, getter = two_blas_threads
        with pytest.raises(ZeroDivisionError):
            with dynamics._one_blas_thread:
                assert getter() == 1
                1 / 0
        assert getter() == 2

    def test_concurrent_callers_restore_once_the_last_leaves(self, two_blas_threads):
        _, getter = two_blas_threads
        guard = dynamics._OneBlasThread()
        first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()
        inside = {}

        def first():
            with guard:
                first_in.set()
                second_in.wait(10)
            first_out.set()

        def second():
            first_in.wait(10)
            with guard:
                second_in.set()
                first_out.wait(10)
                inside["after_first_left"] = getter()

        workers = [threading.Thread(target=first), threading.Thread(target=second)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
        assert not any(worker.is_alive() for worker in workers)
        assert inside == {"after_first_left": 1}
        assert getter() == 2

    def test_stress_never_leaves_the_pool_at_one(self, monkeypatch):
        fake = _FakeThreads(7)
        guard = dynamics._OneBlasThread()
        monkeypatch.setattr(dynamics, "_numpy_openblas_threads", lambda: (fake.set, fake.get))
        wrong = []

        def run():
            for _ in range(300):
                with guard:
                    if fake.get() != 1:
                        wrong.append(fake.get())

        workers = [threading.Thread(target=run) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert wrong == []
        assert fake.count == 7
        assert fake.history[::2] == [1] * (len(fake.history) // 2)
        assert fake.history[1::2] == [7] * (len(fake.history) // 2)

    def test_nested_entries_set_and_restore_once(self, monkeypatch):
        fake = _FakeThreads(3)
        guard = dynamics._OneBlasThread()
        monkeypatch.setattr(dynamics, "_numpy_openblas_threads", lambda: (fake.set, fake.get))
        with guard:
            with guard:
                assert fake.count == 1
            assert fake.count == 1
        assert fake.history == [1, 3]

    def test_library_is_resolved_on_first_entry_only(self, monkeypatch):
        lookups = []
        monkeypatch.setattr(dynamics, "_numpy_openblas_threads", lambda: lookups.append(1))
        guard = dynamics._OneBlasThread()
        assert lookups == []
        for _ in range(3):
            with guard:
                pass
        assert lookups == [1]

    @pytest.mark.parametrize("n", [33, 131])
    def test_products_run_when_the_setter_is_missing(self, monkeypatch, n):
        decomposition = _decomposition(n, 0.0)
        count = 70 * n
        times = np.arange(1, count + 1) * 0.01
        pinned = (
            _grid(decomposition, n, 0.01, count),
            amplitude_profile(decomposition, n, times),
        )
        monkeypatch.setattr(dynamics, "_OPENBLAS_THREAD_SYMBOLS", (("no_set", "no_get"),))
        monkeypatch.setattr(dynamics, "_one_blas_thread", dynamics._OneBlasThread())
        fallback = (
            _grid(decomposition, n, 0.01, count),
            amplitude_profile(decomposition, n, times),
        )
        assert dynamics._numpy_openblas_threads() is None
        for got, want in zip(fallback, pinned):
            if n == 33:  # at this size both products have the same bits on 1 and 2 threads
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


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
