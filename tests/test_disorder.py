from __future__ import annotations

import math

import numpy as np
import pytest

from ergochain import disorder
from ergochain import (
    ChainConfig,
    EnsembleStats,
    InvalidInputError,
    MisuseError,
    UndefinedMetricError,
    ensemble_erg,
    ensemble_fidelity,
    ensemble_stats,
    erg_at_reflection,
    erg_coherent,
    erg_mixed,
    gamma_metric,
    reflection_fidelity,
)


def _config(n=12, delta=0.05, alpha=1.0):
    return ChainConfig(n_sites=n, coupling=1.0, field=1.0, alpha=alpha, delta=delta)


class TestEnsembleDeterminism:
    def test_same_seed_reproduces(self):
        a = ensemble_erg(_config(), "coherent", math.pi / 2, n_realizations=16, seed=7)
        b = ensemble_erg(_config(), "coherent", math.pi / 2, n_realizations=16, seed=7)
        assert np.array_equal(a.values, b.values)

    def test_different_seed_differs(self):
        a = ensemble_erg(_config(), "coherent", math.pi / 2, n_realizations=16, seed=7)
        b = ensemble_erg(_config(), "coherent", math.pi / 2, n_realizations=16, seed=8)
        assert not np.array_equal(a.values, b.values)

    def test_thread_count_does_not_change_values(self):
        serial = ensemble_erg(_config(), "mixed", 0.75, n_realizations=24, seed=3, threads=1)
        pooled = ensemble_erg(_config(), "mixed", 0.75, n_realizations=24, seed=3, threads=4)
        assert np.array_equal(serial.values, pooled.values)

    def test_prefix_stability(self):
        # realization k is keyed by (seed, k), so a longer run extends the
        # shorter one instead of reshuffling it
        short = ensemble_erg(_config(), "coherent", 1.0, n_realizations=8, seed=5)
        long = ensemble_erg(_config(), "coherent", 1.0, n_realizations=20, seed=5)
        assert np.array_equal(long.values[:8], short.values)


class TestFidelitySample:
    """Both encodings are maps of one fidelity sample, realization by realization."""

    @pytest.mark.parametrize("threads", [1, 4])
    def test_ensemble_erg_maps_one_fidelity_sample(self, threads):
        cfg = _config(n=10, delta=0.2, alpha=0.5)
        theta, q = 2.0, 0.5 * (1.0 + math.sin(1.0) ** 2)
        fidelities = ensemble_fidelity(cfg, 30, seed=4, threads=threads)
        coh = ensemble_erg(cfg, "coherent", theta, 30, seed=4, threads=threads)
        mix = ensemble_erg(cfg, "mixed", q, 30, seed=4, threads=threads)
        expected_coh = [erg_coherent(f, theta, cfg.field) for f in fidelities]
        expected_mix = [erg_mixed(f, q, cfg.field) for f in fidelities]
        assert coh.values.tolist() == expected_coh
        assert mix.values.tolist() == expected_mix
        for stats, encoding, parameter in ((coh, "coherent", theta), (mix, "mixed", q)):
            mapped = ensemble_stats(cfg, encoding, parameter, fidelities)
            assert mapped.values.tobytes() == stats.values.tobytes()
            assert (mapped.mean, mapped.stddev) == (stats.mean, stats.stddev)

    def test_reflection_fidelity_is_the_record_fidelity(self):
        for n, alpha in [(2, 0.0), (7, 0.3), (16, 1.0), (31, 0.9)]:
            cfg = _config(n=n, delta=0.0, alpha=alpha)
            time, fidelity = reflection_fidelity(cfg)
            for encoding, parameter in (("coherent", 1.2), ("mixed", 0.8)):
                record = erg_at_reflection(cfg, encoding, parameter)
                assert (record.time, record.fidelity) == (time, fidelity)

    def test_each_path_keeps_its_clip(self):
        # the engineered N = 16 chain overshoots F = 1 by a few ulps at T: the
        # ensemble clips it, the single-chain readout reports it unclipped
        cfg = _config(n=16, delta=0.0, alpha=1.0)
        assert 1.0 < reflection_fidelity(cfg)[1] < 1.0 + 1e-14
        assert ensemble_fidelity(cfg, 3, seed=0).tolist() == [1.0, 1.0, 1.0]

    def test_ensemble_stats_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            ensemble_stats(_config(), "coherent", 1.0, np.array([]))
        with pytest.raises(InvalidInputError):
            ensemble_stats(_config(), "both", 1.0, np.array([0.5]))
        with pytest.raises(InvalidInputError):
            ensemble_stats(_config(), "mixed", 0.8, np.array([1.5]))


class TestEnsembleStats:
    def test_zero_disorder_collapses(self):
        stats = ensemble_erg(_config(delta=0.0), "coherent", math.pi / 2, n_realizations=10, seed=0)
        clean = erg_at_reflection(_config(delta=0.0), "coherent", math.pi / 2)
        assert stats.stddev == 0.0
        assert stats.mean == pytest.approx(clean.erg_out, abs=1e-12)
        assert np.max(np.abs(stats.values - clean.erg_out)) < 1e-12

    def test_single_realization_has_zero_spread(self):
        stats = ensemble_erg(_config(), "mixed", 0.8, n_realizations=1, seed=0)
        assert stats.count == 1
        assert stats.stddev == 0.0

    def test_moments_match_values(self):
        stats = ensemble_erg(_config(n=9), "coherent", 2.0, n_realizations=40, seed=11)
        assert stats.mean == pytest.approx(float(np.mean(stats.values)), abs=1e-14)
        assert stats.stddev == pytest.approx(float(np.std(stats.values, ddof=1)), abs=1e-14)
        assert stats.count == 40

    def test_metadata_recorded(self):
        stats = ensemble_erg(_config(delta=0.07), "mixed", 0.9, n_realizations=4, seed=2)
        assert stats.encoding == "mixed"
        assert stats.parameter == 0.9
        assert stats.delta == 0.07

    def test_rejects_bad_realization_count(self):
        from ergochain import InvalidInputError

        with pytest.raises(InvalidInputError):
            ensemble_erg(_config(), "coherent", 1.0, n_realizations=0, seed=0)


class TestEncodingComparison:
    """Coherent input prepared at theta against the mixed input matched to it."""

    def test_coherent_beats_mixed_on_average(self):
        theta = math.pi / 2
        q = 0.75  # matched excited weight for theta = pi/2
        for n, delta in [(12, 0.05), (12, 0.15), (25, 0.1)]:
            cfg = _config(n=n, delta=delta)
            coh = ensemble_erg(cfg, "coherent", theta, n_realizations=300, seed=42)
            mix = ensemble_erg(cfg, "mixed", q, n_realizations=300, seed=42)
            se = math.hypot(coh.stddev, mix.stddev) / math.sqrt(300)
            assert coh.mean - mix.mean > 3 * se

    def test_coherent_fluctuates_less_at_weak_disorder(self):
        cfg = _config(n=25, delta=0.1)
        coh = ensemble_erg(cfg, "coherent", math.pi / 2, n_realizations=400, seed=42)
        mix = ensemble_erg(cfg, "mixed", 0.75, n_realizations=400, seed=42)
        assert coh.stddev < mix.stddev

    def test_gamma_positive_under_disorder(self):
        cfg = _config(n=12, delta=0.1)
        coh = ensemble_erg(cfg, "coherent", math.pi / 2, n_realizations=200, seed=9)
        mix = ensemble_erg(cfg, "mixed", 0.75, n_realizations=200, seed=9)
        assert gamma_metric(coh, mix) > 0.0

    def test_gamma_vanishes_without_disorder(self):
        cfg = _config(delta=0.0)
        coh = ensemble_erg(cfg, "coherent", math.pi / 2, n_realizations=5, seed=0)
        mix = ensemble_erg(cfg, "mixed", 0.75, n_realizations=5, seed=0)
        assert abs(gamma_metric(coh, mix)) < 1e-12


def _stats(encoding, mean):
    values = np.full(4, mean)
    return EnsembleStats(
        encoding=encoding,
        parameter=0.5,
        delta=0.1,
        values=values,
        mean=mean,
        stddev=0.0,
    )


class TestGammaMetric:
    def test_rejects_swapped_encodings(self):
        with pytest.raises(MisuseError):
            gamma_metric(_stats("mixed", 1.0), _stats("coherent", 0.5))

    def test_rejects_same_encoding(self):
        with pytest.raises(MisuseError):
            gamma_metric(_stats("coherent", 1.0), _stats("coherent", 0.5))

    def test_undefined_when_both_means_vanish(self):
        with pytest.raises(UndefinedMetricError):
            gamma_metric(_stats("coherent", 0.0), _stats("mixed", 0.0))

    def test_hand_value(self):
        # normalized contrast: (1.2 - 0.8) / (1.2 + 0.8)
        assert gamma_metric(_stats("coherent", 1.2), _stats("mixed", 0.8)) == pytest.approx(0.2)


class TestStatsMapWholeSample:
    @pytest.mark.parametrize("encoding, parameter", [("coherent", 1.1), ("mixed", 0.8)])
    def test_values_equal_scalar_maps_in_one_call(self, monkeypatch, encoding, parameter):
        config = _config(n=9, delta=0.2)
        fidelities = ensemble_fidelity(config, 40, seed=5)
        erg = erg_coherent if encoding == "coherent" else erg_mixed
        expected = np.array([erg(f, parameter, config.field) for f in fidelities])
        calls = []

        def counted(*args):
            calls.append(args)
            return erg(*args)

        monkeypatch.setattr(disorder, f"erg_{encoding}", counted)
        stats = ensemble_stats(config, encoding, parameter, fidelities)
        assert stats.values.tobytes() == expected.tobytes()
        assert len(calls) == 1
