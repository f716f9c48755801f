"""Chain geometry: couplings, disorder, and the single-excitation Hamiltonian.

The model is an open chain of N spin-1/2 sites with XX hopping and a uniform
transverse field of strength B. The dynamics conserves excitation number, and
everything in this package lives in the span of the vacuum (all spins down,
energy -N*B) and the N single-excitation states |n> (one up-spin at site n).
In that block the Hamiltonian is a real symmetric tridiagonal matrix with
constant diagonal -(N-2)*B and off-diagonal elements given by the bond
strengths between neighbouring sites.

Two bond families matter:

* uniform: every bond equals the coupling scale J;
* engineered: bond j is (2J/N) * sqrt(j*(N-j)) * G_N, the parabolic profile
  for which a single excitation refocuses perfectly at the mirror site.

``interpolated_bonds`` blends the two linearly with a weight alpha in [0, 1],
and ``disordered_bonds`` applies i.i.d. relative multiplicative noise on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _validate
from .errors import InvalidConfigError, InvalidInputError

__all__ = [
    "ChainConfig",
    "BondSet",
    "SingleExcitationHamiltonian",
    "gn_factor",
    "pst_couplings",
    "interpolated_bonds",
    "disordered_bonds",
    "build_hamiltonian",
]


@dataclass(frozen=True)
class ChainConfig:
    """Validated physical parameters of one chain.

    Attributes:
        n_sites: number of sites N, an integer in [2, 2^53].
        coupling: overall coupling scale J in (0, HALF_MAX].
        field: transverse field strength B in (0, HALF_MAX].
        alpha: interpolation weight between uniform (0) and engineered (1) bonds.
        delta: half-width of the relative disorder window, in [0, HALF_MAX].
    """

    n_sites: int
    coupling: float
    field: float
    alpha: float = 0.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        try:
            for name, value in (
                ("n_sites", _validate.sites(self.n_sites)),
                ("coupling", _validate.positive("coupling", self.coupling)),
                ("field", _validate.positive("field", self.field)),
                ("alpha", _validate.real("alpha", self.alpha, 0.0, 1.0)),
                ("delta", _validate.real("delta", self.delta, 0.0, _validate.HALF_MAX)),
            ):
                object.__setattr__(self, name, value)
        except InvalidInputError as exc:  # a field's domain: a configuration error
            raise InvalidConfigError(str(exc)) from None


@dataclass(frozen=True)
class BondSet:
    """The N-1 nearest-neighbour bond strengths of one chain realization.

    ``alpha`` records the interpolation weight the bonds were built from, or
    None for bonds that did not come from ``interpolated_bonds`` (e.g. after
    disorder is applied). ``delta`` records the disorder half-width (0 for a
    clean chain). ``values`` is an immutable copy of the given array
    (``_validate.frozen``).
    """

    values: np.ndarray
    alpha: float | None
    delta: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _validate.frozen("bond values", self.values))

    @property
    def n_sites(self) -> int:
        return self.values.size + 1


@dataclass(frozen=True)
class SingleExcitationHamiltonian:
    """Symmetric tridiagonal single-excitation block.

    ``diagonal`` has length N >= 2 (constant -(N-2)*B) and ``offdiagonal``
    length N-1 (the bond strengths); every entry is finite. Both are
    immutable copies of the given arrays (``_validate.frozen``).
    """

    diagonal: np.ndarray
    offdiagonal: np.ndarray

    def __post_init__(self) -> None:
        diag = _validate.frozen("diagonal", self.diagonal)
        off = _validate.frozen("offdiagonal", self.offdiagonal)
        if off.size != diag.size - 1:
            raise InvalidInputError("diagonal must have length N >= 2 and offdiagonal N-1")
        object.__setattr__(self, "diagonal", diag)
        object.__setattr__(self, "offdiagonal", off)

    @property
    def n_sites(self) -> int:
        return self.diagonal.size


def gn_factor(n_sites: int) -> float:
    """Parity factor G_N: 1 for even N, 1/sqrt(1 - 1/N^2) for odd N.

    It rescales the engineered-coupling profile so that the single-excitation
    spectrum is exactly linear for both parities.
    """
    n_sites = _validate.sites(n_sites)
    if n_sites % 2 == 0:
        return 1.0
    return 1.0 / math.sqrt(1.0 - 1.0 / n_sites**2)


def pst_couplings(n_sites: int, coupling: float) -> np.ndarray:
    """Engineered bond profile (2J/N) * sqrt(j*(N-j)) * G_N for j = 1..N-1.

    Under these bonds an excitation placed at site 1 arrives at site N with
    unit fidelity at time t = pi*N / (4*J*G_N).
    """
    gn = gn_factor(n_sites)  # validates n_sites
    coupling = _validate.positive("coupling", coupling)
    j = np.arange(1, n_sites, dtype=float)
    return (2.0 * coupling / n_sites) * np.sqrt(j * (n_sites - j)) * gn


def interpolated_bonds(config: ChainConfig) -> BondSet:
    """Linear blend (1-alpha)*J + alpha*J_engineered[j] of the two bond families.

    alpha=0 reproduces the uniform chain, alpha=1 the engineered chain, and the
    blend is affine in alpha bond by bond.
    """
    _validate.instance("config", config, ChainConfig)
    engineered = pst_couplings(config.n_sites, config.coupling)
    values = (1.0 - config.alpha) * config.coupling + config.alpha * engineered
    return BondSet(values=values, alpha=config.alpha, delta=0.0)


def _seed(seed: int) -> int:
    """A disorder seed, checked against the range Philox can take as a key word."""
    return _validate.integer("seed", seed, -(2**63), 2**64 - 1)


def _noise_generator() -> np.random.Generator:
    """A Philox generator for ``_noise_factors``, which re-keys it before each draw.

    Building one takes about 18 us and re-keying it 6 us, so an ensemble
    builds one per call. It is never shared between calls, so ensembles can
    run in several threads at once. ``numpy.random`` is imported here, on
    the first disorder draw, not with the package: nothing else uses it.
    """
    from numpy.random import Generator, Philox

    return Generator(Philox(key=np.zeros(2, dtype=np.uint64)))


def _noise_factors(
    rng: np.random.Generator, delta: float, seed: int, realization_index: int, size: int
) -> np.ndarray:
    """The factors (1 + d_j), d_j ~ U(-delta, +delta), drawn from the (seed, index) stream.

    ``rng`` (from ``_noise_generator``) is set to the state of a fresh
    ``Philox(key=[seed, index])``: that key, a zero counter and an empty
    buffer. So the draw does not depend on what ``rng`` drew before. Takes
    a validated seed and index, so an ensemble builds its clean profile once
    and validates once. The key words are uint64, so seeds in [2^63, 2^64)
    keep every bit and a negative seed is its two's complement.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": (0, 0, 0, 0),
            "key": np.array([seed % 2**64, realization_index], dtype=np.uint64),
        },
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return 1.0 + rng.uniform(-delta, delta, size)


def disordered_bonds(config: ChainConfig, seed: int, realization_index: int) -> BondSet:
    """One disorder realization: bonds scaled by (1 + d_j), d_j ~ U(-delta, +delta).

    The noise stream is a counter-based generator keyed by (seed,
    realization_index), so realization k is the same no matter how many other
    realizations were drawn before it.
    """
    clean = interpolated_bonds(config).values  # checks config first
    seed = _seed(seed)
    realization_index = _validate.integer("realization_index", realization_index, 0, 2**64 - 1)
    factors = _noise_factors(_noise_generator(), config.delta, seed, realization_index, clean.size)
    return BondSet(values=clean * factors, alpha=None, delta=config.delta)


def build_hamiltonian(bonds: BondSet, field: float) -> SingleExcitationHamiltonian:
    """Assemble the single-excitation block for the given bonds and field.

    The diagonal is the constant -(N-2)*B: flipping one of N down-spins in a
    field that pays -B per aligned spin leaves N-2 aligned net.
    """
    _validate.instance("bonds", bonds, BondSet)
    field = _validate.positive("field", field)
    n = bonds.n_sites
    diag = np.full(n, -(n - 2) * field)
    return SingleExcitationHamiltonian(diagonal=diag, offdiagonal=bonds.values)
