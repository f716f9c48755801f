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
from ergochain._validate import HALF_MAX
from ergochain.workstats import MERGE_RTOL, _merge_atoms

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
            decomposition.vectors[0, :] ** 2,
            p,
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

    def test_solve_leaves_its_inputs_as_they_were(self, monkeypatch):
        # dstevd overwrites D and E, and ctypes does not see a read-only flag:
        # the wrapper solves copies of the chain's diagonal and bonds
        original, unchanged = spectral._stevd, []

        def watched(diag, off):
            before = diag.tobytes(), off.tobytes()
            result = original(diag, off)
            unchanged.append((diag.tobytes(), off.tobytes()) == before)
            return result

        monkeypatch.setattr(spectral, "_stevd", watched)
        tpm_distribution(_config(40, 0.5), FULL)
        assert unchanged == [True]

    def test_holds_two_square_arrays(self):
        # the eigenvectors beside dstevd's workspace of 1 + 4N + N^2 doubles
        import tracemalloc

        n = 1000
        tracemalloc.start()
        try:
            tpm_distribution(_config(n, 0.5), FULL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * n * n

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

    def test_a_moment_past_the_float_range_raises(self):
        # <W^4> and <W^6> overflowed to inf, <W^3> and <W^5> to NaN (inf - inf)
        for coupling, max_order in ((1e150, 6), (1e100, 4), (1e155, 2)):
            distribution = pst_closed_distribution(8, coupling, FULL)
            with pytest.raises(NumericalFailureError, match="overflows"):
                moments(distribution, max_order=max_order)
        # below the edge every moment is finite: <W^6> ~ 1e300
        m = moments(pst_closed_distribution(8, 1e50, FULL), max_order=6)
        assert all(map(math.isfinite, (m.mean, m.variance, *m.higher)))

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
        band = np.array([math.comb(n - 1, kk - 1) for kk in k], dtype=float)
        band *= 0.5 ** (n - 1)
        expected = _merge_atoms(work, band, p, 1.3)
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

    def test_pst_band_equals_the_full_pascal_list(self):
        # half of Pascal's rule and its mirror give every quotient C / 2^(N-1)
        for n in [*range(2, 301), 1024, 1025, 1100, 2000]:
            expected = np.array([math.comb(n - 1, j) / 2 ** (n - 1) for j in range(n)])
            expected = expected[expected > 0]  # past N ~ 1075 the outer ones underflow to 0
            got = pst_closed_distribution(n, 1.0, FULL).probabilities
            assert got.tobytes() == expected.tobytes(), n

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

    def test_semicircle_far_from_unit_coupling(self):
        """J J overflowed at J = 1e155 and underflowed at 1e-170: both gave NaN."""
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        for w, coupling in ((0.5, 1e155), (0.0, 1e-170), (1.5e155, 1e155), (3e-171, 1e-170)):
            value = semicircle_density(w, coupling)
            with mpmath.workdps(40):
                w_, j = mpmath.mpf(w), mpmath.mpf(coupling)
                exact = float(mpmath.sqrt(4 * j * j - w_ * w_) / (2 * mpmath.pi * j * j))
            assert value == pytest.approx(exact, rel=4 * eps, abs=0.0), (w, coupling)
        assert semicircle_density(1e300, 1e-170) == 0.0  # w^2 past the float range, outside
        with pytest.raises(NumericalFailureError, match="overflows"):
            semicircle_density(0.0, 1e-320)  # a peak 1/(pi J) past the float range

    def test_semicircle_keeps_the_unscaled_bits_in_the_normal_range(self):
        for k in range(-60, 61, 3):
            for coupling in (2.0**k, 1.37 * 2.0**k):
                w = np.concatenate([np.linspace(-2.2, 2.2, 201) * coupling, [0.0, 2.0 * coupling]])
                radicand = np.clip(4.0 * coupling * coupling - w * w, 0.0, None)
                unscaled = np.sqrt(radicand) / (2.0 * math.pi * coupling * coupling)
                assert semicircle_density(w, coupling).tobytes() == unscaled.tobytes(), coupling

    def test_gaussian_far_from_unit_variance(self):
        """w w overflowed at w = 1e200, and 2 pi v at v = 8e307 (a density of 0.0)."""
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        assert gaussian_density(1e200, 1.0) == 0.0
        assert gaussian_density(0.0, 8e307) == pytest.approx(4.460310290381928e-155, rel=4 * eps)
        for k in range(-1000, 1001, 125):
            for variance in (2.0**k, 1.37 * 2.0**k):
                sigma = math.sqrt(variance)
                # past 37.7 sigma exp(-z^2/2) leaves the normal range
                for z in (0.0, 0.5, 3.0, 30.0, 38.0, 45.0):
                    value = gaussian_density(z * sigma, variance)
                    with mpmath.workdps(40):
                        w, v = mpmath.mpf(z * sigma), mpmath.mpf(variance)
                        exact = float(mpmath.exp(-w * w / (2 * v)) / mpmath.sqrt(2 * mpmath.pi * v))
                    rel = 8 * eps * (1.0 + z * z / 2)  # the exponent's own rounding
                    assert abs(value - exact) <= rel * exact + 2.0**-1074, (k, variance, z)
                    if exact > 1e-300:
                        assert value > 0.0

    def test_gaussian_keeps_the_unscaled_bits_in_the_normal_range(self):
        for k in range(-60, 61, 3):
            for variance in (2.0**k, 1.37 * 2.0**k):
                w = np.concatenate([np.linspace(-8.0, 8.0, 201) * math.sqrt(variance), [0.0]])
                unscaled = np.exp(-0.5 * w * w / variance) / math.sqrt(2.0 * math.pi * variance)
                assert gaussian_density(w, variance).tobytes() == unscaled.tobytes(), variance

    def test_densities_at_the_edge_of_the_float_range(self):
        """Midpoints overflowed to NaN at both edge atoms, and the histogram's span."""
        big = pst_closed_distribution(8, HALF_MAX, FULL)
        small = pst_closed_distribution(8, HALF_MAX / 16, FULL)  # the same atoms, 2^-4 apart
        assert big.values.tobytes() == np.ldexp(small.values, 4).tobytes()
        points, density = adaptive_density(big)
        assert points.tobytes() == big.values.tobytes()
        # subnormal densities: both round at most half their last place
        assert density == pytest.approx(np.ldexp(adaptive_density(small)[1], -4), rel=1e-12)
        centers, heights = binned_histogram(big, 5)
        small_centers, small_heights = binned_histogram(small, 5)
        assert centers.tobytes() == np.ldexp(small_centers, 4).tobytes()
        assert heights == pytest.approx(np.ldexp(small_heights, -4), rel=1e-12)
        assert np.all(heights > 0.0) and np.all(density > 0.0)
        # a density past the float range raises: atoms one subnormal step apart
        tiny = WorkDistribution(values=np.array([0.0, 5e-324]), probabilities=np.array([0.5, 0.5]))
        with pytest.raises(NumericalFailureError, match="overflows"):
            adaptive_density(tiny)
        with pytest.raises(NumericalFailureError, match="overflows"):
            binned_histogram(tiny, 5)

    @pytest.mark.parametrize("n_bins", [1, 2, 5, 101])
    def test_densities_keep_the_unscaled_bits_in_the_normal_range(self, n_bins):
        for distribution in (
            tpm_distribution(_config(13, 0.5), FULL),
            pst_closed_distribution(50, 1.0, FULL),
            uniform_closed_distribution(9, 1e-30, InitialSiteState(theta=1.0)),
            pst_closed_distribution(7, 1e250, FULL),
        ):
            v, p = distribution.values, distribution.probabilities
            inner = 0.5 * (v[1:] + v[:-1])
            edges = np.concatenate([[2.0 * v[0] - inner[0]], inner, [2.0 * v[-1] - inner[-1]]])
            assert adaptive_density(distribution)[1].tobytes() == (p / np.diff(edges)).tobytes()
            width = (v[-1] - v[0]) / max(n_bins - 1, 1)
            edges = np.linspace(v[0] - 0.5 * width, v[-1] + 0.5 * width, n_bins + 1)
            weights, _ = np.histogram(v, bins=edges, weights=p)
            centers, heights = binned_histogram(distribution, n_bins)
            assert centers.tobytes() == (0.5 * (edges[1:] + edges[:-1])).tobytes()
            assert heights.tobytes() == (weights / np.diff(edges)).tobytes()

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


def _merge_oracle(work, band, p_excited, scale):
    """The reference: one left-to-right loop over every atom, each against the last mean."""
    values = np.concatenate([[0.0], work])
    probabilities = np.concatenate([[1.0 - p_excited], p_excited * band])
    order = np.argsort(values)
    values = values[order]
    probabilities = probabilities[order]
    tol = MERGE_RTOL * scale
    merged_v: list[float] = []
    merged_p: list[float] = []
    for v, p in zip(values, probabilities):
        if merged_v and v - merged_v[-1] <= tol:
            total = merged_p[-1] + p
            if total > 0:
                merged_v[-1] = (merged_v[-1] * merged_p[-1] + v * p) / total
            merged_p[-1] = total
        else:
            merged_v.append(float(v))
            merged_p.append(float(p))
    keep_v = [v for v, p in zip(merged_v, merged_p) if p > 0]
    keep_p = [p for p in merged_p if p > 0]
    return np.array(keep_v), np.array(keep_p)


def _rounded_up_cluster():
    # 1 + 3 ulp and 1 + 4 ulp at weights 0.3 and 0.35: their mean rounds to
    # 1 + 5 ulp, above the last member, and the follower lies more than tol
    # past that member but within tol of the mean
    a, b, c = 1.0000000000000007, 1.0000000000000009, 1.000000000001001
    mean = (a * 0.3 + b * 0.35) / (0.3 + 0.35)
    assert mean > b and c - b > MERGE_RTOL and c - mean <= MERGE_RTOL
    return np.array([-0.5, a, b, c]), np.array([0.1, 0.3, 0.35, 0.25]), 1.0, 1.0


_tol = MERGE_RTOL * 1.3
MERGE_CASES = {
    "no close atoms": (np.linspace(-1.0, 1.0, 8), np.full(8, 1 / 8), 0.7, 1.3),
    # the atom at W = tol and the vacuum atom at 0 are exactly tol apart
    "gap of exactly tol": (np.array([-0.4, _tol, 0.9]), np.full(3, 1 / 3), 0.6, 1.3),
    # steps of 0.6 tol: the loop fuses three atoms, then starts a new cluster at
    # the fourth (1.2 tol past the mean); a segmented sum would fuse all five
    "chained cluster": (
        np.array([-0.25, *(0.25 + np.array([0.0, 0.6, 1.2, 1.8, 2.4]) * _tol), 0.75]),
        np.full(7, 1 / 7),
        0.8,
        1.3,
    ),
    # a zero-weight pair keeps its first member's position; the follower fuses
    # with it and lands at (x w) / w, one rounding away from x
    "zero-weight cluster": (
        np.array([-0.7, 0.3, 0.3 + 0.5 * _tol, 0.3000000000011014, 0.8]),
        np.array([0.25, 0.0, 0.0, 0.5, 0.25]),
        0.9,
        1.3,
    ),
    # uniform band, N = 7: W_4 = -2J cos(pi/2) is a roundoff away from 0
    "odd-N zero mode": (
        -2.6 * np.cos(np.arange(1, 8) * math.pi / 8),
        (2 / 8) * np.sin(np.arange(1, 8) * math.pi / 8) ** 2,
        InitialSiteState(theta=1.0).excited_population,
        1.3,
    ),
    "mean rounded above its last member": _rounded_up_cluster(),
}


@pytest.mark.parametrize("case", MERGE_CASES)
def test_merge_atoms_equals_the_full_loop(case):
    work, band, p_excited, scale = MERGE_CASES[case]
    values, probabilities = _merge_oracle(work, band, p_excited, scale)
    got = _merge_atoms(work, band, p_excited, scale)
    assert got.values.tobytes() == values.tobytes()
    assert got.probabilities.tobytes() == probabilities.tobytes()


class TestWorkDistributionValidation:
    def test_rejects_unsorted(self):
        with pytest.raises(InvalidInputError):
            WorkDistribution(values=np.array([1.0, 0.0]), probabilities=np.array([0.5, 0.5]))

    def test_rejects_bad_mass(self):
        with pytest.raises(InvalidInputError):
            WorkDistribution(values=np.array([0.0, 1.0]), probabilities=np.array([0.5, 0.6]))
        with pytest.raises(InvalidInputError):
            WorkDistribution(values=np.array([0.0, 1.0]), probabilities=np.array([1.5, -0.5]))
