from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergochain import (
    ChainConfig,
    InitialSiteState,
    InvalidInputError,
    NumericalFailureError,
    WorkDistribution,
    adaptive_density,
    binned_histogram,
    build_hamiltonian,
    diagonalize,
    gaussian_density,
    interpolated_bonds,
    moments,
    pst_couplings,
    pst_closed_distribution,
    semicircle_density,
    tpm_distribution,
    uniform_closed_distribution,
)
from ergochain import spectral
from ergochain.workstats import _merge_atoms

FULL = InitialSiteState(theta=math.pi)


def _config(n, alpha, coupling=1.0, field=1.0):
    return ChainConfig(n_sites=n, coupling=coupling, field=field, alpha=alpha)


class TestTpmDistribution:
    @pytest.mark.parametrize("n", [2, 3, 14, 64, 257])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_equals_the_gauge_fixed_route(self, n, alpha):
        # the weights are squares, so skipping the sign gauge changes no bit
        config = _config(n, alpha, coupling=1.3, field=0.7)
        initial = InitialSiteState(theta=2.1)
        h = build_hamiltonian(interpolated_bonds(config), config.field)
        decomposition = diagonalize(h)
        p = initial.excited_population
        expected = _merge_atoms(
            decomposition.energies - h.diagonal[0],
            p * decomposition.vectors[0, :] ** 2,
            1.0 - p,
            config.coupling,
        )
        dist = tpm_distribution(config, initial)
        assert dist.values.tobytes() == expected.values.tobytes()
        assert dist.probabilities.tobytes() == expected.probabilities.tobytes()

    def test_solve_is_guarded(self, monkeypatch):
        original = spectral._stevd

        def perturbed(*args):
            energies, vectors, info = original(*args)
            vectors[1::2, :] *= 1.0 + 1e-6
            return energies, vectors, info

        monkeypatch.setattr(spectral, "_stevd", perturbed)
        with pytest.raises(NumericalFailureError):
            tpm_distribution(_config(20, 0.5), FULL)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_normalized_and_sorted(self, alpha):
        dist = tpm_distribution(_config(14, alpha), InitialSiteState(theta=1.1))
        assert np.sum(dist.probabilities) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(dist.values) > 0)
        assert np.all(dist.probabilities >= 0)

    def test_field_cancels(self):
        # W is the energy change of the coupling quench; the field part is
        # common to both measured Hamiltonians and drops out
        initial = InitialSiteState(theta=2.2)
        a = tpm_distribution(_config(10, 0.6, field=0.5), initial)
        b = tpm_distribution(_config(10, 0.6, field=3.0), initial)
        assert np.max(np.abs(a.values - b.values)) < 1e-12
        assert np.max(np.abs(a.probabilities - b.probabilities)) < 1e-14

    def test_vacuum_atom_weight(self):
        initial = InitialSiteState(theta=math.pi / 3)
        dist = tpm_distribution(_config(8, 1.0), initial)
        at_zero = np.isclose(dist.values, 0.0, atol=1e-12)
        assert at_zero.sum() == 1
        assert dist.probabilities[at_zero][0] == pytest.approx(
            math.cos(math.pi / 6) ** 2, abs=1e-12
        )

    def test_atom_counts_by_parity(self):
        initial = InitialSiteState(theta=1.0)
        # even N: band has no zero mode, vacuum atom stands alone -> N+1 atoms
        assert tpm_distribution(_config(10, 0.0), initial).n_atoms == 11
        # odd N: the band's zero mode fuses with the vacuum atom -> N atoms
        assert tpm_distribution(_config(11, 0.0), initial).n_atoms == 11

    def test_full_excitation_drops_vacuum_atom(self):
        dist = tpm_distribution(_config(10, 0.0), FULL)
        assert dist.n_atoms == 10
        assert not np.any(np.isclose(dist.values, 0.0, atol=1e-9))

    @given(theta=st.floats(0.0, math.pi), alpha=st.floats(0.0, 1.0))
    @example(theta=3.388278957505872e-162, alpha=0.0)  # weight 5e-324: every band weight underflows
    @settings(max_examples=50, deadline=None)
    def test_population_dependence_only_through_theta(self, theta, alpha):
        # the excited branch scales by sin^2(theta/2); positions never move
        base = tpm_distribution(_config(9, alpha), FULL)
        dist = tpm_distribution(_config(9, alpha), InitialSiteState(theta=theta))
        weight = math.sin(theta / 2.0) ** 2
        if weight == 0.0:
            # exactly zero-weight band atoms are pruned
            assert dist.n_atoms == 1
            assert dist.values[0] == 0.0
            return
        band = ~np.isclose(dist.values, 0.0, atol=1e-12)
        band_values = dist.values[band]
        base_band = ~np.isclose(base.values, 0.0, atol=1e-12)
        # band atoms whose weight underflows to zero are pruned too
        kept = weight * base.probabilities[base_band] > 0.0
        assert band_values == pytest.approx(base.values[base_band][kept], abs=1e-10)


class TestMoments:
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("n", [9, 16, 50])
    def test_mean_zero_variance_first_bond(self, alpha, n):
        cfg = _config(n, alpha)
        m = moments(tpm_distribution(cfg, FULL))
        first_bond = interpolated_bonds(cfg).values[0]
        assert abs(m.mean) < 1e-13
        assert m.variance == pytest.approx(first_bond**2, abs=1e-11)

    def test_partial_excitation_scales_variance(self):
        cfg = _config(12, 1.0)
        theta = 1.3
        m = moments(tpm_distribution(cfg, InitialSiteState(theta=theta)))
        first_bond = interpolated_bonds(cfg).values[0]
        assert m.variance == pytest.approx(
            math.sin(theta / 2.0) ** 2 * first_bond**2, abs=1e-12
        )

    def test_three_site_enumeration(self):
        # N=3 engineered bonds: (2J/3) sqrt(2) G_3 with G_3 = 3/sqrt(8), so
        # each bond equals J and the hopping eigenvalues are 0, +-J sqrt(2);
        # site-1 weights 1/2, 1/4, 1/4 give variance J^2
        m = moments(pst_closed_distribution(3, 1.0, FULL))
        assert abs(m.mean) < 1e-15
        assert m.variance == pytest.approx(1.0, abs=1e-13)

    def test_higher_orders_on_two_site_chain(self):
        # N=2: atoms at +-J with weight 1/2 each, so <W^n> alternates 0, J^n
        coupling = 1.3
        m = moments(uniform_closed_distribution(2, coupling, FULL), max_order=6)
        assert m.higher == pytest.approx(
            (0.0, coupling**4, 0.0, coupling**6), abs=1e-12
        )
        assert moments(uniform_closed_distribution(2, coupling, FULL)).higher is None

    def test_odd_moments_vanish_by_symmetry(self):
        for alpha in (0.0, 1.0):
            cfg = _config(16, alpha)
            m = moments(tpm_distribution(cfg, FULL), max_order=6)
            assert abs(m.mean) < 1e-12
            assert abs(m.higher[0]) < 1e-12  # <W^3>
            assert abs(m.higher[2]) < 1e-11  # <W^5>

    def test_bad_max_order_rejected(self):
        dist = uniform_closed_distribution(4, 1.0, FULL)
        for bad in (1, 7, 2.5, True):
            with pytest.raises(InvalidInputError):
                moments(dist, max_order=bad)


class TestClosedDistributions:
    @pytest.mark.parametrize("n", [2, 3, 10, 25, 50])
    def test_pst_identity_with_tpm(self, n):
        closed = pst_closed_distribution(n, 1.0, FULL)
        numeric = tpm_distribution(_config(n, 1.0), FULL)
        assert closed.n_atoms == numeric.n_atoms
        assert np.max(np.abs(closed.values - numeric.values)) < 1e-12
        assert np.max(np.abs(closed.probabilities - numeric.probabilities)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 10, 25, 51])
    def test_uniform_identity_with_tpm(self, n):
        closed = uniform_closed_distribution(n, 1.0, FULL)
        numeric = tpm_distribution(_config(n, 0.0), FULL)
        assert closed.n_atoms == numeric.n_atoms
        assert np.max(np.abs(closed.values - numeric.values)) < 1e-12
        assert np.max(np.abs(closed.probabilities - numeric.probabilities)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 10, 101, 999, 1000])
    @pytest.mark.parametrize("theta", [math.pi, 1.0, 0.3])
    def test_pst_matches_float_binomial_formula(self, n, theta):
        # the weights as float(C) * p * 2^(1-N), which overflows past N ~ 1030
        initial = InitialSiteState(theta=theta)
        k = np.arange(1, n + 1)
        gn = 1.0 if n % 2 == 0 else 1.0 / math.sqrt(1.0 - 1.0 / n**2)
        work = -(2.0 * 1.3 / n) * (n - (2 * k - 1)) * gn
        p = initial.excited_population
        weights = np.array([math.comb(n - 1, kk - 1) for kk in k], dtype=float)
        weights *= p * 0.5 ** (n - 1)
        expected = _merge_atoms(work, weights, 1.0 - p, 1.3)
        got = pst_closed_distribution(n, 1.3, initial)
        assert got.values.tobytes() == expected.values.tobytes()
        assert got.probabilities.tobytes() == expected.probabilities.tobytes()

    @pytest.mark.parametrize("n", [1100, 2000])
    @pytest.mark.parametrize("theta", [math.pi, 1.0])
    def test_pst_beyond_float_binomials(self, n, theta):
        initial = InitialSiteState(theta=theta)
        distribution = pst_closed_distribution(n, 1.0, initial)
        assert np.all(np.isfinite(distribution.values))
        assert np.all(np.isfinite(distribution.probabilities))
        assert float(np.sum(distribution.probabilities)) == pytest.approx(1.0, abs=1e-12)
        result = moments(distribution)
        first_bond = float(pst_couplings(n, 1.0)[0])
        assert result.mean == pytest.approx(0.0, abs=1e-12)
        assert result.variance == pytest.approx(
            initial.excited_population * first_bond**2, rel=1e-9
        )

    def test_pst_weights_are_binomial(self):
        n = 12
        dist = pst_closed_distribution(n, 1.0, FULL)
        expected = np.array([math.comb(n - 1, k) for k in range(n)]) * 0.5 ** (n - 1)
        assert dist.probabilities == pytest.approx(expected, abs=1e-15)

    def test_uniform_band_edges(self):
        dist = uniform_closed_distribution(40, 1.5, FULL)
        assert dist.values[0] > -2.0 * 1.5
        assert dist.values[-1] < 2.0 * 1.5
        assert dist.values[0] == pytest.approx(-2.0 * 1.5 * math.cos(math.pi / 41), abs=1e-12)


class TestDensities:
    def test_gaussian_normalization_and_peak(self):
        grid = np.linspace(-3.0, 3.0, 20001)
        density = gaussian_density(grid, 0.0784)
        assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=1e-8)
        assert gaussian_density(0.0, 0.0784) == pytest.approx(1.4247938585765452, abs=1e-12)

    def test_semicircle_normalization_and_support(self):
        grid = np.linspace(-2.5, 2.5, 200001)
        density = semicircle_density(grid, 1.0)
        assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=1e-6)
        assert semicircle_density(0.0, 1.0) == pytest.approx(1.0 / math.pi, abs=1e-14)
        assert semicircle_density(2.0, 1.0) == 0.0
        assert semicircle_density(-3.0, 1.0) == 0.0

    def test_adaptive_density_integrates_to_one(self):
        dist = pst_closed_distribution(50, 1.0, FULL)
        _, density = adaptive_density(dist)
        inner = 0.5 * (dist.values[1:] + dist.values[:-1])
        edges = np.concatenate(
            [[2 * dist.values[0] - inner[0]], inner, [2 * dist.values[-1] - inner[-1]]]
        )
        assert np.sum(density * np.diff(edges)) == pytest.approx(1.0, abs=1e-12)

    def test_adaptive_density_tracks_gaussian_limit(self):
        # the binomial ladder against its limit: deviation frozen from an
        # independent evaluation (sup over atoms, N=50)
        dist = pst_closed_distribution(50, 1.0, FULL)
        points, density = adaptive_density(dist)
        reference = gaussian_density(points, (2.0 / 50.0) ** 2 * 49.0)
        sup = float(np.max(np.abs(density - reference)))
        assert sup == pytest.approx(0.006889, abs=5e-5)

    def test_uniform_density_tracks_semicircle(self):
        dist = uniform_closed_distribution(50, 1.0, FULL)
        points, density = adaptive_density(dist)
        reference = semicircle_density(points, 1.0)
        sup = float(np.max(np.abs(density - reference)))
        assert sup == pytest.approx(0.006519, abs=5e-5)

    def test_kolmogorov_distance_decreases_with_size(self):
        # CDF distance of the work ladder to its Gaussian limit, frozen curve
        from math import erf

        frozen = {8: 0.147272, 16: 0.101873, 32: 0.071269, 64: 0.050129, 128: 0.035354}
        measured = {}
        for n in frozen:
            dist = pst_closed_distribution(n, 1.0, FULL)
            sigma = math.sqrt(moments(dist).variance)
            cdf = np.cumsum(dist.probabilities)
            gauss = 0.5 * (1.0 + np.array([erf(w / (sigma * math.sqrt(2))) for w in dist.values]))
            # compare just below and at each atom
            below = np.concatenate([[0.0], cdf[:-1]])
            measured[n] = float(np.max(np.maximum(np.abs(cdf - gauss), np.abs(below - gauss))))
            assert measured[n] == pytest.approx(frozen[n], abs=2e-5)
        sizes = sorted(measured)
        assert all(measured[a] > measured[b] for a, b in zip(sizes, sizes[1:]))

    def test_binned_histogram_conserves_mass(self):
        dist = tpm_distribution(_config(13, 0.5), FULL)
        centers, density = binned_histogram(dist, 25)
        width = centers[1] - centers[0]
        assert np.sum(density * width) == pytest.approx(1.0, abs=1e-12)
        assert len(centers) == 25

    def test_adaptive_density_needs_two_atoms(self):
        single = WorkDistribution(values=np.array([0.0]), probabilities=np.array([1.0]))
        with pytest.raises(InvalidInputError):
            adaptive_density(single)


class TestWorkDistributionValidation:
    def test_rejects_unsorted(self):
        with pytest.raises(InvalidInputError):
            WorkDistribution(values=np.array([1.0, 0.0]), probabilities=np.array([0.5, 0.5]))

    def test_rejects_bad_mass(self):
        with pytest.raises(InvalidInputError):
            WorkDistribution(values=np.array([0.0, 1.0]), probabilities=np.array([0.5, 0.6]))
        with pytest.raises(InvalidInputError):
            WorkDistribution(values=np.array([0.0, 1.0]), probabilities=np.array([1.5, -0.5]))
