from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from ergochain import (
    BondSet,
    ChainConfig,
    InvalidConfigError,
    InvalidInputError,
    SingleExcitationHamiltonian,
    build_hamiltonian,
    disordered_bonds,
    gn_factor,
    interpolated_bonds,
    pst_couplings,
)


class TestChainConfig:
    def test_valid_roundtrip(self):
        cfg = ChainConfig(n_sites=5, coupling=2.0, field=0.5, alpha=0.3, delta=0.1)
        assert cfg.n_sites == 5
        assert cfg.coupling == 2.0
        assert cfg.alpha == 0.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_sites": 1},
            {"n_sites": 0},
            {"n_sites": 2.5},
            {"n_sites": True},
            {"coupling": 0.0},
            {"coupling": -1.0},
            {"coupling": math.inf},
            {"field": 0.0},
            {"field": -0.5},
            {"alpha": -0.01},
            {"alpha": 1.01},
            {"alpha": math.nan},
            {"delta": -0.1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        base = {"n_sites": 4, "coupling": 1.0, "field": 1.0}
        base.update(kwargs)
        with pytest.raises(InvalidConfigError):
            ChainConfig(**base)


class TestGnFactor:
    def test_even_is_one(self):
        for n in (2, 4, 10, 64, 200):
            assert gn_factor(n) == 1.0

    def test_odd_values(self):
        for n in (3, 5, 51):
            assert gn_factor(n) == pytest.approx(1.0 / math.sqrt(1.0 - 1.0 / n**2), abs=1e-15)
        assert gn_factor(3) == pytest.approx(3.0 / math.sqrt(8.0), abs=1e-15)

    def test_rejects_bad_input(self):
        for bad in (1, 0, -3, 2.0, True):
            with pytest.raises(InvalidInputError):
                gn_factor(bad)


class TestPstCouplings:
    def test_mirror_symmetry(self):
        for n in (2, 7, 16, 33):
            values = pst_couplings(n, 1.3)
            assert np.allclose(values, values[::-1], atol=0, rtol=1e-15)

    def test_small_cases(self):
        # N=2: single bond (2J/2) sqrt(1) = J
        assert pst_couplings(2, 1.0) == pytest.approx([1.0])
        # N=4: (2J/4) sqrt(j(4-j)) for j=1,2,3
        expected = 2.0 / 4.0 * np.sqrt(np.array([3.0, 4.0, 3.0]))
        assert pst_couplings(4, 1.0) == pytest.approx(expected, abs=1e-15)

    def test_central_bond_peaks(self):
        values = pst_couplings(20, 1.0)
        assert np.argmax(values) in (9, 10)
        assert values[0] == min(values)

    def test_scales_linearly_with_coupling(self):
        assert np.allclose(pst_couplings(9, 3.5), 3.5 * pst_couplings(9, 1.0), rtol=1e-15)


class TestInterpolatedBonds:
    def test_alpha_zero_is_uniform(self):
        cfg = ChainConfig(n_sites=10, coupling=1.7, field=1.0, alpha=0.0)
        assert np.all(interpolated_bonds(cfg).values == 1.7)

    def test_alpha_one_is_engineered(self):
        cfg = ChainConfig(n_sites=10, coupling=1.7, field=1.0, alpha=1.0)
        assert np.allclose(
            interpolated_bonds(cfg).values, pst_couplings(10, 1.7), atol=0, rtol=1e-15
        )

    def test_all_bonds_positive_across_alpha(self):
        # the blend never disconnects the chain
        for alpha in np.linspace(0.0, 1.0, 21):
            cfg = ChainConfig(n_sites=12, coupling=1.0, field=1.0, alpha=float(alpha))
            assert np.all(interpolated_bonds(cfg).values > 0)

    @given(
        alpha=st.floats(0.0, 1.0),
        n=st.integers(2, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_in_alpha(self, alpha, n):
        def bonds(a):
            return interpolated_bonds(
                ChainConfig(n_sites=n, coupling=1.0, field=1.0, alpha=a)
            ).values

        lo, hi = bonds(0.0), bonds(1.0)
        assert bonds(alpha) == pytest.approx((1 - alpha) * lo + alpha * hi, abs=1e-12)

    def test_metadata(self):
        cfg = ChainConfig(n_sites=6, coupling=1.0, field=1.0, alpha=0.25)
        bonds = interpolated_bonds(cfg)
        assert bonds.alpha == 0.25
        assert bonds.delta == 0.0
        assert bonds.n_sites == 6


class TestDisorderedBonds:
    def test_deterministic_per_key(self):
        cfg = ChainConfig(n_sites=9, coupling=1.0, field=1.0, alpha=0.5, delta=0.2)
        a = disordered_bonds(cfg, seed=11, realization_index=3)
        b = disordered_bonds(cfg, seed=11, realization_index=3)
        assert np.array_equal(a.values, b.values)

    def test_realizations_differ(self):
        cfg = ChainConfig(n_sites=9, coupling=1.0, field=1.0, alpha=0.5, delta=0.2)
        a = disordered_bonds(cfg, seed=11, realization_index=0)
        b = disordered_bonds(cfg, seed=11, realization_index=1)
        c = disordered_bonds(cfg, seed=12, realization_index=0)
        assert not np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_schedule_independence(self):
        # realization k does not depend on which realizations were drawn before
        cfg = ChainConfig(n_sites=9, coupling=1.0, field=1.0, alpha=0.5, delta=0.2)
        direct = disordered_bonds(cfg, seed=5, realization_index=40)
        for r in range(40):
            disordered_bonds(cfg, seed=5, realization_index=r)
        again = disordered_bonds(cfg, seed=5, realization_index=40)
        assert np.array_equal(direct.values, again.values)

    def test_relative_window(self):
        cfg = ChainConfig(n_sites=30, coupling=1.0, field=1.0, alpha=0.7, delta=0.25)
        clean = interpolated_bonds(cfg).values
        noisy = disordered_bonds(cfg, seed=0, realization_index=0).values
        ratio = noisy / clean
        assert np.all(ratio > 1.0 - 0.25) and np.all(ratio < 1.0 + 0.25)

    def test_zero_delta_is_clean(self):
        cfg = ChainConfig(n_sites=9, coupling=1.0, field=1.0, alpha=0.5, delta=0.0)
        assert np.array_equal(
            disordered_bonds(cfg, seed=1, realization_index=0).values,
            interpolated_bonds(cfg).values,
        )

    def test_rejects_bad_indices(self):
        cfg = ChainConfig(n_sites=4, coupling=1.0, field=1.0, delta=0.1)
        with pytest.raises(InvalidInputError):
            disordered_bonds(cfg, seed=0, realization_index=-1)
        with pytest.raises(InvalidInputError):
            disordered_bonds(cfg, seed=0.5, realization_index=0)


class TestBuildHamiltonian:
    def test_structure(self):
        cfg = ChainConfig(n_sites=7, coupling=1.0, field=2.0, alpha=1.0)
        bonds = interpolated_bonds(cfg)
        h = build_hamiltonian(bonds, 2.0)
        assert h.n_sites == 7
        assert np.all(h.diagonal == -(7 - 2) * 2.0)
        assert np.array_equal(h.offdiagonal, bonds.values)

    def test_rejects_bad_field(self):
        bonds = BondSet(values=np.ones(3), alpha=None)
        with pytest.raises(InvalidInputError):
            build_hamiltonian(bonds, 0.0)
        with pytest.raises(InvalidInputError):
            build_hamiltonian(bonds, -1.0)

    @pytest.mark.parametrize(
        "diagonal,offdiagonal",
        [
            ([1.0], []),
            ([1.0, math.nan], [1.0]),
            ([1.0, 2.0], [math.inf]),
            ([1.0, 2.0, 3.0], [1.0]),
        ],
        ids=["one-site", "nan-diagonal", "inf-bond", "short-offdiagonal"],
    )
    def test_hamiltonian_rejects_what_no_chain_has(self, diagonal, offdiagonal):
        with pytest.raises(InvalidInputError):
            SingleExcitationHamiltonian(diagonal=np.array(diagonal), offdiagonal=np.array(offdiagonal))


class TestBondSet:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            BondSet(values=np.array([[1.0]]), alpha=None)
        with pytest.raises(InvalidInputError):
            BondSet(values=np.array([1.0, math.nan]), alpha=None)

    def test_values_read_only(self):
        bonds = BondSet(values=np.ones(3), alpha=0.0)
        with pytest.raises(ValueError):
            bonds.values[0] = 5.0


class TestSeedDomain:
    """Seeds are the integers Philox can key: [-2^63, 2^64)."""

    @pytest.mark.parametrize("seed", [2**64, -(2**63) - 1, 10**23])
    def test_rejects_seeds_philox_cannot_key(self, seed):
        cfg = ChainConfig(n_sites=4, coupling=1.0, field=1.0, delta=0.1)
        with pytest.raises(InvalidInputError):
            disordered_bonds(cfg, seed=seed, realization_index=0)

    def test_rejects_realization_index_philox_cannot_key(self):
        cfg = ChainConfig(n_sites=4, coupling=1.0, field=1.0, delta=0.1)
        with pytest.raises(InvalidInputError):
            disordered_bonds(cfg, seed=0, realization_index=2**64)

    @pytest.mark.parametrize("seed", [0, 7, -1, -(2**63), 2**63, 2**64 - 1])
    def test_accepted_seeds_keep_their_stream(self, seed):
        cfg = ChainConfig(n_sites=6, coupling=1.0, field=1.0, alpha=0.5, delta=0.2)
        # Below 2^63 the stream is Philox(key=[seed, 3]) byte for byte; from
        # 2^63 on that list key loses bits, so the expectation is the uint64 key.
        key = [seed, 3] if seed < 2**63 else np.array([seed, 3], dtype=np.uint64)
        noise = Generator(Philox(key=key)).uniform(-0.2, 0.2, 5)
        expected = interpolated_bonds(cfg).values * (1.0 + noise)
        assert disordered_bonds(cfg, seed=seed, realization_index=3).values.tobytes() == (
            expected.tobytes()
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_seeds_past_int64_keep_all_their_bits(self):
        cfg = ChainConfig(n_sites=6, coupling=1.0, field=1.0, alpha=0.5, delta=0.2)
        clean = interpolated_bonds(cfg).values
        streams = {}
        for seed in (2**63, 2**63 + 1, 2**64 - 1, 0):
            key = np.array([seed, 3], dtype=np.uint64)
            expected = clean * (1.0 + Generator(Philox(key=key)).uniform(-0.2, 0.2, 5))
            got = disordered_bonds(cfg, seed=seed, realization_index=3).values.tobytes()
            assert got == expected.tobytes()
            streams[seed] = got
        assert len(set(streams.values())) == 4
