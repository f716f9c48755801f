"""Work statistics of the coupling quench, via two-point measurement.

Protocol: measure the energy of the uncoupled chain (field term only), switch
the hopping on, measure the full chain's energy. The work W is the difference
of the two outcomes. Because the hopping has zero diagonal, the field
contribution cancels outcome by outcome and W is independent of B.

The resulting distribution is purely atomic:

* an atom at W = 0 with the vacuum weight cos^2(theta/2) (the vacuum is an
  eigenstate of both Hamiltonians, so the quench does no work on it);
* atoms at the hopping eigenvalues W_k with weights sin^2(theta/2) v_k[1]^2
  (the excited branch projects onto the new eigenbasis).

The mean is exactly zero (it is the vanishing diagonal element <1|V|1> of the
hopping V) and the variance is the square of the first bond (<1|V^2|1>).

For large chains the two special families have classical limits: the
engineered ladder's binomial weights approach a centered Gaussian with
variance bond_1^2, and the uniform chain's band approaches the radius-2J
semicircle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _validate
from .chain import ChainConfig, build_hamiltonian, interpolated_bonds
from .dynamics import InitialSiteState
from .errors import InvalidInputError
from .spectral import _pst_ladder, _solve

__all__ = [
    "WorkDistribution",
    "WorkMoments",
    "tpm_distribution",
    "pst_closed_distribution",
    "uniform_closed_distribution",
    "moments",
    "adaptive_density",
    "binned_histogram",
    "gaussian_density",
    "semicircle_density",
]

# Atoms closer than this (times the coupling scale) are one outcome: the
# measurement cannot resolve them, and the zero mode of odd chains must fuse
# with the vacuum atom rather than shadow it.
MERGE_RTOL = 1e-12


@dataclass(frozen=True)
class WorkDistribution:
    """Atomic work distribution: strictly increasing values, weights summing to 1."""

    values: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        probabilities = np.asarray(self.probabilities, dtype=float)
        if values.ndim != 1 or probabilities.shape != values.shape or values.size < 1:
            raise InvalidInputError("values and probabilities must be equal-length 1-D arrays")
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(probabilities))):
            raise InvalidInputError("work atoms must be finite")
        if np.any(np.diff(values) <= 0):
            raise InvalidInputError("atom positions must be strictly increasing")
        if np.any(probabilities < -1e-12):
            raise InvalidInputError("probabilities must be nonnegative")
        total = float(np.sum(probabilities))
        if abs(total - 1.0) > 1e-9:
            raise InvalidInputError(f"probabilities sum to {total}, not 1")
        values.setflags(write=False)
        probabilities.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probabilities", probabilities)

    @property
    def n_atoms(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class WorkMoments:
    mean: float
    variance: float
    # raw moments <W^n> for n = 3..max_order, None unless asked for
    higher: tuple[float, ...] | None = None


def _merge_atoms(
    work: np.ndarray, weights: np.ndarray, vacuum: float, scale: float
) -> WorkDistribution:
    """Add the vacuum atom, sort the atoms and fuse any closer than MERGE_RTOL * scale.

    The vacuum atom sits at W = 0 with weight ``vacuum`` and goes first, ahead
    of the atoms at ``work`` with ``weights``. A fused atom is weight-summed,
    at the probability-weighted mean of its cluster, and zero-weight atoms
    are dropped afterwards.
    """
    values = np.concatenate([[0.0], work])
    probabilities = np.concatenate([[vacuum], weights])
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
    return WorkDistribution(values=np.array(keep_v), probabilities=np.array(keep_p))


def tpm_distribution(config: ChainConfig, initial: InitialSiteState) -> WorkDistribution:
    """Two-point-measurement work distribution of the clean interpolated chain.

    Fully numerical route: one guarded ``_solve`` (the LAPACK call and
    residual contract of ``diagonalize``), W_k = E_k - E_site1 and weights
    from the site-1 eigenvector components. The weights are squares, so the
    sign gauge is skipped. The field cancels in every W_k.
    """
    if not isinstance(config, ChainConfig):
        raise InvalidInputError("config must be a ChainConfig")
    if not isinstance(initial, InitialSiteState):
        raise InvalidInputError("initial must be an InitialSiteState")
    hamiltonian = build_hamiltonian(interpolated_bonds(config), config.field)
    diag = hamiltonian.diagonal
    energies, vectors = _solve(diag, hamiltonian.offdiagonal)
    p_excited = initial.excited_population
    # E_site1 = <1|H|1> is the constant diagonal
    weights = p_excited * vectors[:, 0] ** 2
    return _merge_atoms(energies - diag[0], weights, 1.0 - p_excited, config.coupling)


def pst_closed_distribution(
    n_sites: int, coupling: float, initial: InitialSiteState
) -> WorkDistribution:
    """Closed-form work atoms of the engineered chain.

    W_k = -(2J/N)(N - (2k-1)) G_N with binomial weights
    sin^2(theta/2) C(N-1, k-1) 2^(1-N), plus the vacuum atom at 0.
    """
    n = _validate.integer("n_sites", n_sites, 2)
    coupling = _validate.positive("coupling", coupling)
    if not isinstance(initial, InitialSiteState):
        raise InvalidInputError("initial must be an InitialSiteState")
    work = _pst_ladder(n, coupling)
    p_excited = initial.excited_population
    binomials = [1]  # C(N-1, j) by Pascal's multiplicative rule, exact in integers
    for j in range(n - 1):
        binomials.append(binomials[-1] * (n - 1 - j) // (j + 1))
    # int / int is correctly rounded and cannot overflow; float(C) overflows past N ~ 1030
    scale = 2 ** (n - 1)
    weights = np.array([c / scale for c in binomials])
    weights *= p_excited
    return _merge_atoms(work, weights, 1.0 - p_excited, coupling)


def uniform_closed_distribution(
    n_sites: int, coupling: float, initial: InitialSiteState
) -> WorkDistribution:
    """Closed-form work atoms of the uniform chain.

    W_k = -2J cos(k pi/(N+1)) with weights
    sin^2(theta/2) (2/(N+1)) sin^2(k pi/(N+1)), plus the vacuum atom. For odd
    N the band's zero mode lands exactly on the vacuum atom and fuses with it.
    """
    n = _validate.integer("n_sites", n_sites, 2)
    coupling = _validate.positive("coupling", coupling)
    if not isinstance(initial, InitialSiteState):
        raise InvalidInputError("initial must be an InitialSiteState")
    k = np.arange(1, n + 1)
    theta = k * math.pi / (n + 1)
    work = -2.0 * coupling * np.cos(theta)
    p_excited = initial.excited_population
    weights = p_excited * (2.0 / (n + 1)) * np.sin(theta) ** 2
    return _merge_atoms(work, weights, 1.0 - p_excited, coupling)


def moments(distribution: WorkDistribution, max_order: int = 2) -> WorkMoments:
    """Raw moments <W^n> = sum_k p_k W_k^n up to max_order (2..6).

    mean and variance are always filled; orders 3..max_order land in
    `higher` as raw (non-central) moments.
    """
    if not isinstance(distribution, WorkDistribution):
        raise InvalidInputError("distribution must be a WorkDistribution")
    max_order = _validate.integer("max_order", max_order, 2, 6)
    mean = float(np.sum(distribution.probabilities * distribution.values))
    second = float(np.sum(distribution.probabilities * distribution.values**2))
    higher = (
        tuple(
            float(np.sum(distribution.probabilities * distribution.values**n))
            for n in range(3, max_order + 1)
        )
        or None
    )
    return WorkMoments(mean=mean, variance=second - mean * mean, higher=higher)


def adaptive_density(distribution: WorkDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Density estimate at each atom: weight divided by its midpoint cell.

    Cell k spans from the midpoint with the previous atom to the midpoint
    with the next one; the two edge cells are closed off symmetrically (the
    outer edge sits as far from the atom as the inner one). This keeps the
    estimate honest for strongly nonuniform ladders, where fixed-width bins
    would lump many atoms together or strand empty bins between them.
    Requires at least two atoms.
    """
    if not isinstance(distribution, WorkDistribution):
        raise InvalidInputError("distribution must be a WorkDistribution")
    v = distribution.values
    if v.size < 2:
        raise InvalidInputError("adaptive density needs at least two atoms")
    inner = 0.5 * (v[1:] + v[:-1])
    edges = np.concatenate([[2.0 * v[0] - inner[0]], inner, [2.0 * v[-1] - inner[-1]]])
    widths = np.diff(edges)
    return v.copy(), distribution.probabilities / widths


def binned_histogram(
    distribution: WorkDistribution, n_bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform-bin density over the atom support: (bin centers, densities).

    Useful for intermediate bond blends whose atoms follow no closed-form
    ladder. Bins span [min - w/2, max + w/2] so the extreme atoms sit at the
    centers of the outer bins.
    """
    if not isinstance(distribution, WorkDistribution):
        raise InvalidInputError("distribution must be a WorkDistribution")
    n_bins = _validate.integer("n_bins", n_bins, 1)
    v = distribution.values
    lo, hi = float(v[0]), float(v[-1])
    if lo == hi:
        raise InvalidInputError("histogram needs atoms at more than one position")
    width = (hi - lo) / max(n_bins - 1, 1)
    edges = np.linspace(lo - 0.5 * width, hi + 0.5 * width, n_bins + 1)
    weights, _ = np.histogram(v, bins=edges, weights=distribution.probabilities)
    centers = 0.5 * (edges[1:] + edges[:-1])
    return centers, weights / np.diff(edges)


def gaussian_density(work: np.ndarray | float, variance: float) -> np.ndarray | float:
    """Centered Gaussian density with the given variance."""
    variance = _validate.positive("variance", variance)
    w = _validate.reals("work", work)
    out = np.exp(-0.5 * w * w / variance) / math.sqrt(2.0 * math.pi * variance)
    return float(out) if np.isscalar(work) else out


def semicircle_density(work: np.ndarray | float, coupling: float) -> np.ndarray | float:
    """Radius-2J semicircle density sqrt(4J^2 - w^2)/(2 pi J^2), 0 outside."""
    coupling = _validate.positive("coupling", coupling)
    w = _validate.reals("work", work)
    radicand = np.clip(4.0 * coupling * coupling - w * w, 0.0, None)
    out = np.sqrt(radicand) / (2.0 * math.pi * coupling * coupling)
    return float(out) if np.isscalar(work) else out
