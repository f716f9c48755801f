from __future__ import annotations

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.random import Generator, Philox

from ergochain import chain, disorder, dynamics, ergotropy, spectral
from ergochain import (
    ChainConfig,
    EnsembleStats,
    InvalidInputError,
    MisuseError,
    NumericalFailureError,
    UndefinedMetricError,
    amplitude_spectral,
    build_hamiltonian,
    diagonalize,
    disordered_bonds,
    ensemble_erg,
    ensemble_fidelity,
    ensemble_stats,
    erg_at_reflection,
    erg_coherent,
    erg_mixed,
    gamma_metric,
    interpolated_bonds,
    reflection_fidelity,
    reflection_time,
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

    def test_clean_profile_built_once_per_ensemble(self, monkeypatch):
        # each realization is the single-chain readout of disordered_bonds(config, seed, k)
        cfg = _config(n=9, delta=0.2, alpha=0.6)
        t = reflection_time(cfg.n_sites, cfg.alpha, cfg.coupling)
        expected = [_chain_readout(disordered_bonds(cfg, 6, k), t) for k in range(10)]
        calls = []
        original = chain.pst_couplings

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(chain, "pst_couplings", counted)
        assert ensemble_fidelity(cfg, 10, seed=6).tolist() == expected
        assert len(calls) == 1

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
        fidelities = ensemble_fidelity(cfg, 30, seed=4)
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

        monkeypatch.setattr(ergotropy, f"erg_{encoding}", counted)
        stats = ensemble_stats(config, encoding, parameter, fidelities)
        assert stats.values.tobytes() == expected.tobytes()
        assert len(calls) == 1


def _chain_readout(bonds, t):
    """F = min(|f_N(t)|^2, 1) of one chain read on its own (a stack of one bond row)."""
    f = dynamics._end_amplitudes(bonds.values[None], 1.0, t)[0]
    return min(abs(f) ** 2, 1.0)


def _parent_loop(config, n_realizations, seed):
    """Each realization read on its own through the single-chain readout: the bit-for-bit oracle."""
    t = reflection_time(config.n_sites, config.alpha, config.coupling)
    return np.array(
        [_chain_readout(disordered_bonds(config, seed, k), t) for k in range(n_realizations)]
    )


def _end_weights_calls(monkeypatch):
    """Record the stack height of every ``spectral._end_weights`` call."""
    original = spectral._end_weights
    heights = []

    def counted(bonds):
        heights.append(bonds.shape[0])
        return original(bonds)

    monkeypatch.setattr(spectral, "_end_weights", counted)
    return heights


def _traced_peak(call):
    """``tracemalloc`` peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestEnsembleKernel:
    """The chunked kernel equals the per-realization loop bit for bit."""

    SITES = [2, 3, 5, 8, 25, 32, 50, 128]

    @pytest.mark.parametrize("n, calls", [(8, 1), (32, 1), (128, 3)])
    def test_one_end_weights_call_per_block_of_phases(self, monkeypatch, n, calls):
        # a chunk is the chains whose (chunk, N) complex phases fill one 128 KB
        # block: 1024 at N = 8, 256 at N = 32, 64 at N = 128
        heights = _end_weights_calls(monkeypatch)
        ensemble_fidelity(_config(n=n, delta=0.2), 150, seed=0)
        assert len(heights) == calls
        assert sum(heights) == 150

    def test_memory_does_not_grow_with_realizations(self):
        # the chunk's temporaries stay within a few blocks; only the output
        # array (8 bytes per realization) grows with the count
        cfg = _config(n=128, delta=0.2, alpha=0.5)
        peaks = [_traced_peak(lambda: ensemble_fidelity(cfg, count, 3)) for count in (150, 2000)]
        assert max(peaks) < 8 * spectral._BLOCK_BYTES
        assert peaks[1] - peaks[0] <= 8 * (2000 - 150) + 4096, peaks

    def test_thousands_of_sites_stay_in_blocks(self):
        # one (N, N) float array would be 32 MB; two chains of N = 2000 need a
        # few blocks of gap temporaries and O(N) rows
        n = 2000
        cfg = _config(n=n, delta=0.05, alpha=0.5)
        fidelities = []
        peak = _traced_peak(lambda: fidelities.extend(ensemble_fidelity(cfg, 2, 0)))
        assert np.all(np.isfinite(fidelities)) and len(fidelities) == 2
        assert peak < 0.02 * 8 * n * n, peak

    def test_strong_disorder_rarely_falls_back(self, monkeypatch):
        # 360 chains (N = 32 and 128, alpha 0.5, delta 0.5/0.9/0.99, 60 each,
        # seed 3): 1 takes the dstevd fallback, 6 did with the full-chain
        # eigenvalues; only fallback chains' bits depend on OPENBLAS_NUM_THREADS
        solved, original = [], spectral._solve
        counted = lambda d, e: solved.append(d.size) or original(d, e)  # noqa: E731
        monkeypatch.setattr(spectral, "_solve", counted)
        for n in (32, 128):
            for delta in (0.5, 0.9, 0.99):
                ensemble_fidelity(_config(n=n, delta=delta, alpha=0.5), 60, seed=3)
        assert len(solved) <= 6

    @pytest.mark.parametrize("n", SITES)
    def test_matches_parent_loop_on_the_grid(self, n):
        # 10 realizations are one chunk at every N here; the boundary test crosses chunks
        for alpha in (0.0, 0.5, 1.0):
            for delta in (0.0, 0.05, 0.2):
                for seed in (0, 7, -1):
                    cfg = _config(n=n, delta=delta, alpha=alpha)
                    kernel = ensemble_fidelity(cfg, 10, seed)
                    assert np.array_equal(kernel, _parent_loop(cfg, 10, seed)), (alpha, delta, seed)

    @pytest.mark.parametrize("n", SITES)
    def test_matches_dstevd_route_within_the_certificate(self, n):
        # the eigenvector route (dstevd and the constant diagonal) agrees in |f|
        # within each chain's beta; the worst ratio on this grid is about 0.2
        for alpha in (0.0, 0.5, 1.0):
            for delta in (0.0, 0.05, 0.2):
                cfg = _config(n=n, delta=delta, alpha=alpha)
                t = reflection_time(n, alpha, 1.0)
                for k in range(10):
                    bonds = disordered_bonds(cfg, 7, k)
                    energies, weights, beta = spectral._end_weights(bonds.values[None])
                    assert beta[0] <= 1e-10  # far inside the tolerance: no fallback
                    f = complex(np.sum(weights[0] * np.exp(-1j * energies[0] * t)))
                    old = amplitude_spectral(diagonalize(build_hamiltonian(bonds, 1.0)), n, t)
                    assert abs(abs(f) - abs(old.value)) <= beta[0], (alpha, delta, k)

    @pytest.mark.parametrize("n", SITES)
    def test_matches_parent_loop_across_chunk_boundaries(self, monkeypatch, n):
        # a block of 7 chains' phases makes a chunk of 7 at every N, so 150
        # realizations cross 21 boundaries; realization k depends only on
        # (seed, k), so each count is a prefix of one oracle run
        cfg = _config(n=n, delta=0.2, alpha=0.5)
        chunk = 7
        counts = [1, chunk, chunk + 1, 150]
        expected = _parent_loop(cfg, max(counts), 7)
        monkeypatch.setattr(spectral, "_BLOCK_BYTES", 16 * n * chunk)
        heights = _end_weights_calls(monkeypatch)
        for count in counts:
            assert np.array_equal(ensemble_fidelity(cfg, count, 7), expected[:count]), count
        assert heights == [1, 7, 7, 1] + [7] * 21 + [3]

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64 - 1])
    def test_extreme_seeds_draw_fresh_keyed_streams(self, monkeypatch, seed):
        # realization k is a new Philox keyed (seed mod 2^64, k), whichever generator
        # drew before it; 300 realizations span two chunks of 256 at N = 8
        monkeypatch.setattr(spectral, "_BLOCK_BYTES", 16 * 8 * 256)
        cfg = _config(n=8, delta=0.2, alpha=0.5)
        clean = interpolated_bonds(cfg).values
        t = reflection_time(8, 0.5, 1.0)
        expected = []
        for k in range(300):
            key = np.array([seed % 2**64, k], dtype=np.uint64)
            noise = Generator(Philox(key=key)).uniform(-0.2, 0.2, 7)
            bonds = chain.BondSet(values=clean * (1.0 + noise), alpha=None, delta=0.2)
            expected.append(_chain_readout(bonds, t))
        assert np.array_equal(ensemble_fidelity(cfg, 300, seed), np.array(expected))

    def test_one_generator_per_call(self, monkeypatch):
        built = []

        def counted():
            built.append(1)
            return chain._noise_generator()

        monkeypatch.setattr(disorder, "_noise_generator", counted)
        ensemble_fidelity(_config(n=8, delta=0.2), 300, seed=3)
        assert len(built) == 1

    def test_concurrent_ensembles_match_serial_ones(self):
        # each call re-keys a generator of its own, so threads cannot interleave draws
        configs = [_config(n=8, delta=0.2, alpha=a) for a in (0.0, 0.3, 0.6, 1.0)]
        serial = [ensemble_fidelity(cfg, 300, seed=11 + i) for i, cfg in enumerate(configs)]
        results = [None] * len(configs)

        def run(i):
            results[i] = ensemble_fidelity(configs[i], 300, seed=11 + i)

        workers = [threading.Thread(target=run, args=(i,)) for i in range(len(configs))]
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
        for got, want in zip(results, serial):
            assert np.array_equal(got, want)


def _perturbed_stevd(monkeypatch):
    """Scale every eigenvector's components on even sites by 1 + 1e-6, and every
    second ``dsterf`` eigenvalue by the same factor.

    Scaling whole eigenvectors would keep them eigenvectors. Scaling every
    second site breaks H v = E v by about 1e-6 times a bond, 15 times the
    residual bound at N = 128 and 900 times at N = 2. The scaled eigenvalues
    miss trace(H^2) by about 1e-6 of it, far past the moment bound of
    ``spectral._end_weights``.
    """
    original = spectral._stevd
    original_sterf = spectral._sterf

    def perturbed(*args, **kwargs):
        energies, vectors, info = original(*args, **kwargs)
        vectors[1::2, :] *= 1.0 + 1e-6
        return energies, vectors, info

    def perturbed_sterf(*args, **kwargs):
        energies, info = original_sterf(*args, **kwargs)
        energies[1::2] *= 1.0 + 1e-6
        return energies, info

    monkeypatch.setattr(spectral, "_stevd", perturbed)
    monkeypatch.setattr(spectral, "_sterf", perturbed_sterf)


def _failing_stevd(monkeypatch):
    """``dstevd`` and ``dsterf`` report failure (info = 1) with otherwise valid output."""
    original = spectral._stevd
    original_sterf = spectral._sterf

    def failing(*args, **kwargs):
        energies, vectors, _ = original(*args, **kwargs)
        return energies, vectors, 1

    def failing_sterf(*args, **kwargs):
        energies, _ = original_sterf(*args, **kwargs)
        return energies, 1

    monkeypatch.setattr(spectral, "_stevd", failing)
    monkeypatch.setattr(spectral, "_sterf", failing_sterf)


class TestGuardedSolve:
    """Every eigensolve is guarded, in the kernel and in ``diagonalize``."""

    @pytest.mark.parametrize("break_solver", [_perturbed_stevd, _failing_stevd])
    @pytest.mark.parametrize("n", [2, 8, 128])
    def test_ensemble_fidelity_raises(self, monkeypatch, break_solver, n):
        break_solver(monkeypatch)
        with pytest.raises(NumericalFailureError):
            ensemble_fidelity(_config(n=n, delta=0.1), 5, seed=0)

    @pytest.mark.parametrize("break_solver", [_perturbed_stevd, _failing_stevd])
    @pytest.mark.parametrize("n", [2, 8, 128])
    def test_diagonalize_raises(self, monkeypatch, break_solver, n):
        h = build_hamiltonian(disordered_bonds(_config(n=n, delta=0.1), 0, 0), 1.0)
        break_solver(monkeypatch)
        with pytest.raises(NumericalFailureError):
            diagonalize(h)

    def test_one_bad_realization_fails_its_chunk(self, monkeypatch):
        # realization 3 of 40 is perturbed; it lies inside the first chunk at N = 8
        original = spectral._sterf
        calls = []

        def perturbed(*args, **kwargs):
            energies, info = original(*args, **kwargs)
            if len(calls) == 3:
                energies[1::2] *= 1.0 + 1e-6
            calls.append(None)
            return energies, info

        monkeypatch.setattr(spectral, "_sterf", perturbed)
        with pytest.raises(NumericalFailureError):
            ensemble_fidelity(_config(n=8, delta=0.1), 40, seed=0)
