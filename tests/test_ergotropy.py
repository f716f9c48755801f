from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ergotropy_by_sorting
from ergochain import ergotropy, spectral
from ergochain import (
    ChainConfig,
    InvalidInputError,
    NumericalFailureError,
    QubitState,
    UndefinedEfficiencyError,
    amplitude_profile,
    build_hamiltonian,
    diagonalize,
    ensemble_erg,
    ensemble_fidelity,
    ensemble_stats,
    erg_at_reflection,
    erg_coherent,
    erg_input,
    erg_max_window,
    erg_mixed,
    gn_factor,
    interpolated_bonds,
    match_mixed_to_pure,
    qubit_ergotropy,
    reflection_fidelity,
    reflection_time,
    rescaled_efficiency,
)


def _qubit_matrix(state: QubitState) -> np.ndarray:
    return np.array(
        [
            [state.ground_population, state.coherence],
            [np.conj(state.coherence), state.excited_population],
        ]
    )


class TestQubitErgotropy:
    def test_pure_excited(self):
        state = QubitState(excited_population=1.0, coherence=0.0)
        assert qubit_ergotropy(state, 1.0) == pytest.approx(2.0, abs=1e-14)

    def test_ground_and_maximally_mixed_are_passive(self):
        assert qubit_ergotropy(QubitState(excited_population=0.0, coherence=0.0), 1.0) == 0.0
        assert qubit_ergotropy(QubitState(excited_population=0.5, coherence=0.0), 1.0) == 0.0

    def test_coherence_contributes(self):
        # equal populations plus coherence is a rotated pure-ish state: work
        # is extractable even though the populations alone are passive
        state = QubitState(excited_population=0.5, coherence=0.4)
        assert qubit_ergotropy(state, 1.0) == pytest.approx(0.8, abs=1e-14)

    @given(
        p1=st.floats(0.0, 1.0),
        ratio=st.floats(0.0, 1.0),
        phase=st.floats(0.0, 2.0 * math.pi),
        field=st.floats(0.1, 5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_sorting_oracle(self, p1, ratio, phase, field):
        magnitude = ratio * math.sqrt(p1 * (1.0 - p1))
        coherence = magnitude * complex(math.cos(phase), math.sin(phase))
        state = QubitState(excited_population=p1, coherence=coherence)
        h = np.diag([-field, field])
        expected = ergotropy_by_sorting(_qubit_matrix(state), h)
        assert qubit_ergotropy(state, field) == pytest.approx(expected, abs=1e-12)

    def test_scale_linear_in_field(self):
        state = QubitState(excited_population=0.8, coherence=0.1j)
        assert qubit_ergotropy(state, 3.0) == pytest.approx(
            3.0 * qubit_ergotropy(state, 1.0), abs=1e-13
        )


class TestEncodings:
    def test_input_identities(self):
        for theta in np.linspace(0.0, math.pi, 9):
            assert erg_input("coherent", float(theta), 1.0) == pytest.approx(
                2.0 * math.sin(theta / 2.0) ** 2, abs=1e-14
            )
        assert erg_input("mixed", 0.5, 1.0) == 0.0
        assert erg_input("mixed", 0.3, 1.0) == 0.0
        assert erg_input("mixed", 1.0, 1.0) == pytest.approx(2.0)

    @given(theta=st.floats(0.0, math.pi))
    @settings(max_examples=100, deadline=None)
    def test_matching_equalizes_inputs(self, theta):
        q = match_mixed_to_pure(theta)
        assert 0.5 <= q <= 1.0
        assert erg_input("mixed", q, 1.7) == pytest.approx(
            erg_input("coherent", theta, 1.7), abs=1e-12
        )

    def test_match_endpoints(self):
        assert match_mixed_to_pure(0.0) == pytest.approx(0.5)
        assert match_mixed_to_pure(math.pi) == pytest.approx(1.0)
        assert match_mixed_to_pure(math.pi / 2) == pytest.approx(0.75)

    def test_rejects_unknown_encoding(self):
        with pytest.raises(InvalidInputError):
            erg_input("thermal", 0.5, 1.0)

    @pytest.mark.parametrize("field", [1.0, 1.9, 3e-300])
    def test_arrays_have_the_bits_of_the_scalar_calls(self, field):
        """Every entry of an array call is the scalar call's float, shape kept."""
        rng = np.random.default_rng(11)
        thetas = np.array([0.0, math.pi, *rng.uniform(0.0, math.pi, 2000)])
        qs = np.array([-1e-13, 0.0, 0.5, 1.0, 1.0 + 1e-13, *rng.uniform(0.0, 1.0, 2001)])
        cases = [
            (match_mixed_to_pure, thetas, lambda t: match_mixed_to_pure(t)),
            (lambda t: erg_input("coherent", t, field), thetas,
             lambda t: erg_input("coherent", t, field)),
            (lambda q: erg_input("mixed", q, field), qs, lambda q: erg_input("mixed", q, field)),
        ]
        for call, values, scalar in cases:
            got = call(values.reshape(2, -1))
            want = [scalar(value) for value in values.tolist()]
            assert type(want[0]) is float and got.dtype == float and got.ndim == 2
            assert got.ravel().view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
            assert type(scalar(np.float64(values[3]))) is float

    def test_an_array_entry_outside_the_domain_raises(self):
        for bad in (np.array([0.5, math.pi + 1e-9]), np.array([math.nan]), np.array([-1.0])):
            with pytest.raises(InvalidInputError):
                match_mixed_to_pure(bad)
            with pytest.raises(InvalidInputError):
                erg_input("coherent", bad, 1.0)
        for bad in (np.array([0.5, 1.0 + 1e-9]), np.array([math.inf])):
            with pytest.raises(InvalidInputError):
                erg_input("mixed", bad, 1.0)


class TestClosedFormsAgainstFirstPrinciples:
    @given(
        theta=st.floats(0.0, math.pi),
        fidelity=st.floats(0.0, 1.0),
        field=st.floats(0.1, 4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_coherent_route(self, theta, fidelity, field):
        # receiver state built by hand, ergotropy from the generic formula
        s2 = math.sin(theta / 2.0) ** 2
        p1 = s2 * fidelity
        coherence = math.cos(theta / 2.0) * math.sin(theta / 2.0) * math.sqrt(fidelity)
        state = QubitState(excited_population=p1, coherence=coherence)
        assert erg_coherent(fidelity, theta, field) == pytest.approx(
            qubit_ergotropy(state, field), abs=1e-12
        )

    @given(q=st.floats(0.0, 1.0), fidelity=st.floats(0.0, 1.0), field=st.floats(0.1, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_mixed_route(self, q, fidelity, field):
        state = QubitState(excited_population=q * fidelity, coherence=0.0)
        assert erg_mixed(fidelity, q, field) == pytest.approx(
            qubit_ergotropy(state, field), abs=1e-12
        )

    def test_full_excitation_collapses_to_mixed(self):
        # theta = pi carries no coherence: both encodings coincide at q = 1
        for fidelity in (0.0, 0.3, 0.5, 0.8, 1.0):
            assert erg_coherent(fidelity, math.pi, 1.0) == pytest.approx(
                erg_mixed(fidelity, 1.0, 1.0), abs=1e-13
            )

    @given(theta=st.floats(0.01, math.pi), fa=st.floats(0.0, 1.0), fb=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_fidelity(self, theta, fa, fb):
        lo, hi = sorted((fa, fb))
        assert erg_coherent(lo, theta, 1.0) <= erg_coherent(hi, theta, 1.0) + 1e-12
        q = match_mixed_to_pure(theta)
        assert erg_mixed(lo, q, 1.0) <= erg_mixed(hi, q, 1.0) + 1e-12

    def test_coherent_against_a_100_digit_oracle(self):
        # relative error, F down to 1e-12 and theta over [0, pi], pi itself and
        # the ill-conditioned corner near (pi, 1/2) included; the oracle is the
        # closed form as written, at 100 digits, on the same float inputs
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(0)
        thetas = np.concatenate(
            [rng.uniform(0.0, math.pi, 1500), np.full(100, math.pi),
             math.pi - 10.0 ** rng.uniform(-16, 0, 400)]
        )
        fidelities = 10.0 ** rng.uniform(-12, 0, thetas.size)
        near = slice(1600, None)  # F near 1/(2 s^2), where 1 - 2 F s^2 cancels
        fidelities[near] = np.minimum(
            1.0, 0.5 / np.sin(0.5 * thetas[near]) ** 2 * (1 + rng.uniform(-1e-3, 1e-3, 400))
        )
        eps = np.finfo(float).eps
        with mpmath.workdps(100):
            for theta, fidelity in zip(thetas.tolist(), fidelities.tolist()):
                got = erg_coherent(fidelity, theta, 1.0)
                t, f = mpmath.mpf(theta), mpmath.mpf(fidelity)
                s2 = mpmath.sin(t / 2) ** 2
                exact = 2 * f * s2 - 1 + mpmath.sqrt(1 + 4 * s2 * s2 * f * (f - 1))
                a = 1 - 2 * f * s2
                spread = mpmath.sqrt(a * a + f * mpmath.sin(t) ** 2) + abs(a)
                bound = 8 * eps * (1 + 1 / float(spread))
                assert float(abs(got - exact)) <= bound * float(exact), (theta, fidelity)

    @given(
        theta=st.one_of(st.just(math.pi), st.floats(0.0, math.pi)),
        fa=st.one_of(st.floats(0.0, 1.0), st.floats(-12.0, 0.0).map(lambda e: 10.0**e)),
        fb=st.one_of(st.floats(0.0, 1.0), st.floats(-12.0, 0.0).map(lambda e: 10.0**e)),
    )
    @settings(max_examples=300, deadline=None)
    def test_coherent_nondecreasing_in_fidelity(self, theta, fa, fb):
        # no absolute slack: a larger F never reads less, beyond a relative
        # rounding, even where erg is far below eps (small F, theta = pi)
        lo, hi = sorted((fa, fb))
        eps = np.finfo(float).eps
        assert erg_coherent(lo, theta, 1.0) <= erg_coherent(hi, theta, 1.0) * (1 + 4 * eps)

    @given(theta=st.floats(0.0, math.pi), fidelity=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_coherent_never_below_matched_mixed(self, theta, fidelity):
        # the transported coherence can only help
        q = match_mixed_to_pure(theta)
        assert erg_coherent(fidelity, theta, 1.0) >= erg_mixed(fidelity, q, 1.0) - 1e-12


class TestReflectionTime:
    def test_uniform_endpoint(self):
        assert reflection_time(12, 0.0, 1.0) == pytest.approx(math.pi * 12 / 6.0, abs=1e-13)

    def test_engineered_endpoint(self):
        for n in (6, 7, 20, 21):
            expected = math.pi * n / (4.0 * gn_factor(n))
            assert reflection_time(n, 1.0, 1.0) == pytest.approx(expected, abs=1e-13)

    def test_interpolates_in_alpha_squared(self):
        n = 10
        t0 = reflection_time(n, 0.0, 1.0)
        t1 = reflection_time(n, 1.0, 1.0)
        alpha = 0.6
        expected = alpha**2 * t1 + (1 - alpha**2) * t0
        assert reflection_time(n, alpha, 1.0) == pytest.approx(expected, abs=1e-13)

    def test_coupling_scaling(self):
        assert reflection_time(8, 0.5, 2.0) == pytest.approx(
            reflection_time(8, 0.5, 1.0) / 2.0, abs=1e-13
        )


class TestErgAtReflection:
    def test_perfect_transfer_returns_input(self):
        cfg = ChainConfig(n_sites=16, coupling=1.0, field=1.0, alpha=1.0)
        for encoding, parameter in (("coherent", 2.0), ("mixed", 0.9)):
            record = erg_at_reflection(cfg, encoding, parameter)
            assert record.fidelity == pytest.approx(1.0, abs=1e-10)
            assert record.erg_out == pytest.approx(record.erg_in, abs=1e-9)
            assert record.efficiency == pytest.approx(1.0, abs=1e-9)

    def test_uniform_chain_frozen_fidelities(self):
        # independently computed reference values of F = |f_N(T)|^2 at alpha=0
        frozen = {2: 0.75, 4: 0.5834, 6: 0.5141, 8: 0.4753, 12: 0.4331}
        for n, expected in frozen.items():
            cfg = ChainConfig(n_sites=n, coupling=1.0, field=1.0, alpha=0.0)
            record = erg_at_reflection(cfg, "coherent", math.pi / 2)
            assert record.fidelity == pytest.approx(expected, abs=5e-5)

    def test_efficiency_nan_when_nothing_sent(self):
        cfg = ChainConfig(n_sites=5, coupling=1.0, field=1.0, alpha=1.0)
        record = erg_at_reflection(cfg, "coherent", 0.0)
        assert record.erg_in == 0.0
        assert math.isnan(record.efficiency)
        mixed = erg_at_reflection(cfg, "mixed", 0.4)
        assert mixed.erg_in == 0.0
        assert math.isnan(mixed.efficiency)

    def test_ignores_delta(self):
        # the clean figure of merit: disorder only enters via ensembles
        noisy_cfg = ChainConfig(n_sites=8, coupling=1.0, field=1.0, alpha=0.5, delta=0.3)
        clean_cfg = ChainConfig(n_sites=8, coupling=1.0, field=1.0, alpha=0.5, delta=0.0)
        a = erg_at_reflection(noisy_cfg, "coherent", 1.0)
        b = erg_at_reflection(clean_cfg, "coherent", 1.0)
        assert a.erg_out == b.erg_out


class TestErgMaxWindow:
    def test_never_below_reflection_value(self):
        for n in (6, 9, 14):
            cfg = ChainConfig(n_sites=n, coupling=1.0, field=1.0, alpha=0.0)
            horizon = 3.0 * reflection_time(n, 0.0, 1.0)
            at_reflection = erg_at_reflection(cfg, "coherent", 2.5)
            windowed = erg_max_window(cfg, "coherent", 2.5, horizon)
            assert windowed.erg_out >= at_reflection.erg_out - 1e-9

    def test_full_excitation_revival(self):
        # at theta = pi the reflection-time value can be zero while a later
        # revival clears the extraction threshold
        cfg = ChainConfig(n_sites=20, coupling=1.0, field=1.0, alpha=0.0)
        at_reflection = erg_at_reflection(cfg, "coherent", math.pi)
        windowed = erg_max_window(cfg, "coherent", math.pi, 1000.0)
        assert at_reflection.erg_out <= 1e-12
        assert windowed.erg_out == pytest.approx(0.5278, abs=2e-3)

    def test_window_respects_horizon(self):
        cfg = ChainConfig(n_sites=8, coupling=1.0, field=1.0, alpha=1.0)
        record = erg_max_window(cfg, "mixed", 1.0, 5.0)
        assert 0 < record.time <= 5.0 + 1e-12

    @pytest.mark.parametrize("n", [2, 8, 33, 128, 256])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_matches_full_phase_matrix(self, n, alpha):
        # oracle: the (T, N) phase matrix of amplitude_profile on the same grid,
        # mapped through the scalar closed forms
        cfg = ChainConfig(n_sites=n, coupling=1.0, field=1.0, alpha=alpha)
        decomposition = diagonalize(build_hamiltonian(interpolated_bonds(cfg), cfg.field))
        horizon, step = 0.7 * n, 0.01
        times = np.arange(step, horizon + 0.5 * step, step)
        fidelities = np.abs(amplitude_profile(decomposition, n, times)) ** 2
        theta = math.pi / 2
        q = match_mixed_to_pure(theta)
        for encoding, parameter, erg in (
            ("coherent", theta, erg_coherent),
            ("mixed", q, erg_mixed),
        ):
            ergs = [erg(min(f, 1.0), parameter, cfg.field) for f in fidelities]
            best = int(np.argmax(ergs))
            record = erg_max_window(cfg, encoding, parameter, horizon, step)
            assert record.time == times[best]
            assert record.fidelity == pytest.approx(fidelities[best], abs=1e-12)
            assert record.erg_out == pytest.approx(ergs[best], abs=1e-12)

    def test_window_memory_is_sublinear_in_samples(self):
        # T = 35,840 samples at N = 512: the full phase matrix alone would be 294 MB
        cfg = ChainConfig(n_sites=512, coupling=1.0, field=1.0, alpha=0.0)
        tracemalloc.start()
        try:
            erg_max_window(cfg, "coherent", math.pi / 2, 0.7 * 512, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_rejects_bad_window(self):
        cfg = ChainConfig(n_sites=8, coupling=1.0, field=1.0)
        with pytest.raises(InvalidInputError):
            erg_max_window(cfg, "coherent", 1.0, 0.0)
        with pytest.raises(InvalidInputError):
            erg_max_window(cfg, "coherent", 1.0, 1.0, step=2.0)

    # horizon/step just past 2^24, then 1e15, then 1e600, which overflows to inf
    @pytest.mark.parametrize("horizon, step", [(1.001 * 2**24, 1.0), (1e12, 1e-3), (1e300, 1e-300)])
    def test_rejects_a_window_past_the_step_bound_before_allocating(
        self, monkeypatch, horizon, step
    ):
        calls = []
        monkeypatch.setattr(ergotropy, "_window_fidelities", lambda *args: calls.append(args))
        cfg = ChainConfig(n_sites=8, coupling=1.0, field=1.0)
        assert ergotropy._MAX_WINDOW_STEPS == 2**24
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="horizon/step"):
                erg_max_window(cfg, "coherent", 1.0, horizon, step)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert calls == []


class TestRescaledEfficiency:
    def test_size_compensated_ratio(self):
        # 8^(2/3) = 4
        assert rescaled_efficiency(0.5, 1.0, 8) == pytest.approx(2.0)
        assert rescaled_efficiency(1.0, 1.0, 8) == pytest.approx(4.0)
        assert rescaled_efficiency(0.0, 1.0, 17) == 0.0

    def test_zero_input_raises(self):
        with pytest.raises(UndefinedEfficiencyError):
            rescaled_efficiency(0.0, 0.0, 8)

    def test_an_overflowing_ratio_raises(self):
        # a tiny erg_in: the ratio gave inf
        with pytest.raises(NumericalFailureError, match="overflows"):
            rescaled_efficiency(1.0, 1e-310, 8)
        assert rescaled_efficiency(1.0, 1e-300, 8) == pytest.approx(4e300)

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            rescaled_efficiency(-0.1, 1.0, 8)
        with pytest.raises(InvalidInputError):
            rescaled_efficiency(0.1, -1.0, 8)

    def test_bad_size_rejected(self):
        with pytest.raises(InvalidInputError):
            rescaled_efficiency(0.5, 1.0, 1)
        with pytest.raises(InvalidInputError):
            rescaled_efficiency(0.5, 1.0, 8.0)


class TestArrayMaps:
    """One formula per map: an array of F gives exactly the scalar values."""

    FIDELITIES = np.concatenate(
        [np.linspace(0.0, 1.0, 257), [1e-300, 5e-324, 1.0 - 1e-16, -1e-13, 1.0 + 1e-13]]
    )

    @staticmethod
    def _scalar(erg, parameter, field):
        return np.array([erg(float(f), parameter, field) for f in TestArrayMaps.FIDELITIES])

    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, 2.0, math.pi])
    def test_coherent(self, theta):
        values = erg_coherent(self.FIDELITIES, theta, 0.9)
        assert values.tobytes() == self._scalar(erg_coherent, theta, 0.9).tobytes()

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 0.75, 1.0])
    def test_mixed(self, q):
        values = erg_mixed(self.FIDELITIES, q, 1.7)
        assert values.tobytes() == self._scalar(erg_mixed, q, 1.7).tobytes()

    def test_arrays_of_angles_broadcast_against_fidelities(self):
        """F as a column and theta as a row: every entry has the scalar bits."""
        thetas = np.concatenate([[0.0, math.pi], np.random.default_rng(3).uniform(0, math.pi, 200)])
        values = erg_coherent(self.FIDELITIES[:, None], thetas, 1.3)
        assert values.shape == (self.FIDELITIES.size, thetas.size)
        want = [[erg_coherent(float(f), float(t), 1.3) for t in thetas] for f in self.FIDELITIES]
        assert values.tobytes() == np.array(want).tobytes()
        assert erg_coherent(0.75, thetas, 1.3).tobytes() == np.array(want[192]).tobytes()

    def test_arrays_of_q_broadcast_against_fidelities(self):
        """F as a column and q as a row, q clipped as a scalar q is: every entry
        has the scalar bits."""
        qs = np.concatenate([self.FIDELITIES, [math.nextafter(0.5, 1.0)],
                             np.random.default_rng(5).uniform(0.5, 1.0, 200)])
        values = erg_mixed(self.FIDELITIES[:, None], qs, 1.7)
        assert values.shape == (self.FIDELITIES.size, qs.size)
        want = [[erg_mixed(float(f), float(q), 1.7) for q in qs] for f in self.FIDELITIES]
        assert values.tobytes() == np.array(want).tobytes()
        assert erg_mixed(0.75, qs, 1.7).tobytes() == np.array(want[192]).tobytes()

    @pytest.mark.parametrize("bad", [[0.5, 3.5, 1.5], [-0.1], [math.nan]])
    def test_arrays_of_q_validated_elementwise(self, bad):
        with pytest.raises(InvalidInputError, match="^q "):
            erg_mixed(0.5, np.array(bad), 1.0)

    @pytest.mark.parametrize("bad", [[0.5, 3.5, 1.5], [-0.1], [math.nan]])
    def test_arrays_of_angles_validated_elementwise(self, bad):
        with pytest.raises(InvalidInputError, match="theta"):
            erg_coherent(0.5, np.array(bad), 1.0)

    def test_mixed_is_symmetric_in_fidelity_and_q_to_the_bit(self):
        """A property of the formula: doubling is exact, so (2q)F and (2F)q round alike."""
        qs = np.concatenate([self.FIDELITIES[self.FIDELITIES >= 0], [math.nextafter(0.5, 1.0)]])
        for fidelity in self.FIDELITIES[self.FIDELITIES >= 0].tolist():
            swapped = erg_mixed(qs, fidelity, 1.7)
            want = [erg_mixed(fidelity, q, 1.7) for q in np.clip(qs, 0.0, 1.0).tolist()]
            assert swapped.tobytes() == np.array(want).tobytes(), fidelity

    def test_scalar_gives_python_float(self):
        assert type(erg_coherent(np.float64(0.5), 1.0, 1.0)) is float
        assert type(erg_mixed(np.float64(0.9), 0.8, 1.0)) is float

    @pytest.mark.parametrize(
        "bad", [np.array([0.5, 1.5]), np.array([0.5, math.nan]), np.array([True]), np.array(["0.5"])]
    )
    def test_arrays_validated_elementwise(self, bad):
        with pytest.raises(InvalidInputError):
            erg_coherent(bad, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            erg_mixed(bad, 0.8, 1.0)


@pytest.mark.parametrize("call", [erg_at_reflection, erg_max_window])
def test_bad_parameter_is_rejected_before_the_solve(monkeypatch, call):
    calls = []
    for solve in ("_end_fidelities", "_window_fidelities"):
        monkeypatch.setattr(ergotropy, solve, lambda *args: calls.append(args))
    cfg = ChainConfig(n_sites=8, coupling=1.0, field=1.0, alpha=1.0)
    with pytest.raises(InvalidInputError):
        call(cfg, "coherent", 4.0, *([2.0] if call is erg_max_window else []))
    assert calls == []


@pytest.mark.parametrize("n", [2500, 5000])
def test_perfect_transfer_reads_within_the_certificate(n):
    # F is clipped onto 1 (at N = 2500 dqds puts it 1.8e-12 past), and its
    # distance from the exact 1 stays within the chain's certificate beta
    config = ChainConfig(n_sites=n, coupling=1.0, field=1.0, alpha=1.0)
    record = erg_at_reflection(config, "coherent", math.pi / 2)
    beta = spectral._end_weights(interpolated_bonds(config).values[None])[2][0]
    assert 0.0 <= 1.0 - record.fidelity <= beta
    assert record.fidelity == reflection_fidelity(config)[1]


@pytest.mark.parametrize("n", [16, 17, 256, 1000, 2000, 2500, 4999, 5000])
def test_perfect_transfer_unclipped_reads_within_the_certificate(n):
    # F = (sum_k c_k g(sigma_k T))^2 before the clip to 1; beta bounds the
    # error of |f_N|, so F - 1 stays within 2 beta (to first order)
    bonds = interpolated_bonds(ChainConfig(n_sites=n, coupling=1.0, field=1.0, alpha=1.0)).values
    sigma, amplitudes = spectral._end_spectrum(bonds[None])
    beta = spectral._end_weights(bonds[None])[2][0]
    wave = np.cos if n % 2 else np.sin
    f = float((amplitudes[0] * wave(sigma[0] * reflection_time(n, 1.0, 1.0))).sum())
    assert abs(f * f - 1.0) <= 2 * beta


class TestRecordsKeepTheValidatedParameter:
    """A parameter that validation clips onto [0, 1] is stored as clipped,
    the value its erg_in and erg_out were computed at."""

    CONFIG = ChainConfig(n_sites=8, coupling=1.0, field=1.3, alpha=0.5)

    @pytest.mark.parametrize("given, clipped", [(1 + 5e-13, 1.0), (-5e-13, 0.0)])
    def test_erg_at_reflection(self, given, clipped):
        record = erg_at_reflection(self.CONFIG, "mixed", given)
        assert record.parameter == clipped
        assert repr(record) == repr(erg_at_reflection(self.CONFIG, "mixed", clipped))

    def test_erg_max_window(self):
        record = erg_max_window(self.CONFIG, "mixed", 1 + 5e-13, 6.0, 0.05)
        assert record.parameter == 1.0
        assert record == erg_max_window(self.CONFIG, "mixed", 1.0, 6.0, 0.05)

    @pytest.mark.parametrize("given, clipped", [(1 + 5e-13, 1.0), (-5e-13, 0.0)])
    def test_ensembles(self, given, clipped):
        config = ChainConfig(n_sites=8, coupling=1.0, field=1.3, alpha=0.5, delta=0.1)
        stats = ensemble_erg(config, "mixed", given, 6, seed=3)
        assert stats.parameter == clipped
        fidelities = ensemble_fidelity(config, 6, seed=3)
        assert ensemble_stats(config, "mixed", given, fidelities).parameter == clipped

    def test_in_domain_parameters_are_stored_as_floats(self):
        for encoding, given in (("coherent", np.float64(2.0)), ("mixed", 1), ("coherent", 3)):
            record = erg_at_reflection(self.CONFIG, encoding, given)
            assert type(record.parameter) is float and record.parameter == given
