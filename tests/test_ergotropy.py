from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ergotropy_by_sorting
from ergochain import (
    ChainConfig,
    InvalidInputError,
    QubitState,
    UndefinedEfficiencyError,
    amplitude_profile,
    build_hamiltonian,
    diagonalize,
    erg_at_reflection,
    erg_coherent,
    erg_input,
    erg_max_window,
    erg_mixed,
    gn_factor,
    interpolated_bonds,
    match_mixed_to_pure,
    qubit_ergotropy,
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


class TestRescaledEfficiency:
    def test_size_compensated_ratio(self):
        # 8^(2/3) = 4
        assert rescaled_efficiency(0.5, 1.0, 8) == pytest.approx(2.0)
        assert rescaled_efficiency(1.0, 1.0, 8) == pytest.approx(4.0)
        assert rescaled_efficiency(0.0, 1.0, 17) == 0.0

    def test_zero_input_raises(self):
        with pytest.raises(UndefinedEfficiencyError):
            rescaled_efficiency(0.0, 0.0, 8)

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
