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
from .errors import InvalidInputError, NumericalFailureError
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

_LN2 = math.log(2.0)  # the exponent shift of ``gaussian_density``'s far tail


@dataclass(frozen=True)
class WorkDistribution:
    """Atomic work distribution: strictly increasing values, weights summing to 1.

    Both arrays are finite, immutable copies of the given arrays
    (``_validate.frozen``).
    """

    values: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        values = _validate.frozen("values", self.values)
        probabilities = _validate.frozen("probabilities", self.probabilities)
        if probabilities.shape != values.shape:
            raise InvalidInputError("values and probabilities must be equal-length 1-D arrays")
        if np.any(np.diff(values) <= 0):
            raise InvalidInputError("atom positions must be strictly increasing")
        if np.any(probabilities < -1e-12):
            raise InvalidInputError("probabilities must be nonnegative")
        total = float(np.sum(probabilities))
        if abs(total - 1.0) > 1e-9:
            raise InvalidInputError(f"probabilities sum to {total}, not 1")
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
    work: np.ndarray, band: np.ndarray, p_excited: float, scale: float
) -> WorkDistribution:
    """Weight the atoms by the sender, sort them and fuse any closer than MERGE_RTOL * scale.

    The vacuum atom sits at W = 0 with weight 1 - p and goes first, ahead of
    the atoms at ``work`` with weights p * ``band``, where p = ``p_excited``
    is the sender's excited weight sin^2(theta/2) and ``band`` are the
    excited branch's weights. A fused atom is weight-summed, at the
    probability-weighted mean of its cluster, and zero-weight atoms are
    dropped afterwards.

    Atoms are fused left to right, each against the mean of the cluster
    before it. That loop runs only from an atom whose successor lies within
    the tolerance, and it runs on while its own test holds: a rounded mean
    can sit an ulp above the cluster's last member, so an atom just past
    the tolerance of that member may still fuse. Every other atom is copied
    as it is, so a spectrum with no close atoms costs a few array passes.
    A segmented sum (``np.add.reduceat`` over runs of small gaps) would fuse
    a chained cluster that the loop keeps apart.
    """
    values = np.concatenate([[0.0], work])
    probabilities = np.concatenate([[1.0 - p_excited], p_excited * band])
    atoms = np.array([values, probabilities])[:, np.argsort(values)]
    values, probabilities = atoms
    tol = MERGE_RTOL * scale
    pieces = []
    done = 0  # atoms before this one are copied or fused
    for first in np.flatnonzero(np.diff(values) <= tol):
        if first < done:
            continue
        pieces.append(atoms[:, done:first])
        v, p = atoms[:, first]
        done = first + 1
        while done < values.size and values[done] - v <= tol:
            total = p + probabilities[done]
            if total > 0:
                v = (v * p + values[done] * probabilities[done]) / total
            p = total
            done += 1
        pieces.append([[v], [p]])
    values, probabilities = np.concatenate(pieces + [atoms[:, done:]], axis=1)
    keep = probabilities > 0
    return WorkDistribution(values[keep], probabilities[keep])


def tpm_distribution(config: ChainConfig, initial: InitialSiteState) -> WorkDistribution:
    """Two-point-measurement work distribution of the clean interpolated chain.

    Fully numerical route: one guarded ``_solve`` (the LAPACK call and
    residual contract of ``diagonalize``), W_k = E_k - E_site1 and weights
    from the site-1 eigenvector components. The weights are squares, so the
    sign gauge is skipped. The field cancels in every W_k.
    """
    p_excited = _validate.instance("initial", initial, InitialSiteState).excited_population
    _validate.instance("config", config, ChainConfig)
    hamiltonian = build_hamiltonian(interpolated_bonds(config), config.field)
    diag = hamiltonian.diagonal
    energies, vectors = _solve(diag, hamiltonian.offdiagonal)
    # E_site1 = <1|H|1> is the constant diagonal
    return _merge_atoms(energies - diag[0], vectors[:, 0] ** 2, p_excited, config.coupling)


def pst_closed_distribution(
    n_sites: int, coupling: float, initial: InitialSiteState
) -> WorkDistribution:
    """Closed-form work atoms of the engineered chain.

    W_k = -(2J/N)(N - (2k-1)) G_N with binomial weights
    sin^2(theta/2) C(N-1, k-1) 2^(1-N), plus the vacuum atom at 0. The
    binomials are exact integers, so each quotient C / 2^(N-1) is correctly
    rounded at any N. Pascal's rule runs over the lower half, j <= (N-1)//2,
    and the upper half mirrors its quotients: equal integers give equal
    quotients, so this is the full list's band bit for bit, at half its work.
    """
    p_excited = _validate.instance("initial", initial, InitialSiteState).excited_population
    n = _validate.sites(n_sites)
    coupling = _validate.positive("coupling", coupling)
    work = _pst_ladder(n, coupling)
    binomials = [1]  # C(N-1, j), j <= (N-1)//2, by Pascal's multiplicative rule, exact
    for j in range((n - 1) // 2):
        binomials.append(binomials[-1] * (n - 1 - j) // (j + 1))
    # int / int is correctly rounded and cannot overflow; float(C) overflows past N ~ 1030
    scale = 2 ** (n - 1)
    half = [c / scale for c in binomials]
    band = np.array(half + half[::-1][n % 2 :])  # C(N-1, j) = C(N-1, N-1-j); odd N: middle once
    return _merge_atoms(work, band, p_excited, coupling)


def uniform_closed_distribution(
    n_sites: int, coupling: float, initial: InitialSiteState
) -> WorkDistribution:
    """Closed-form work atoms of the uniform chain.

    W_k = -2J cos(k pi/(N+1)) with weights
    sin^2(theta/2) (2/(N+1)) sin^2(k pi/(N+1)), plus the vacuum atom. For odd
    N the band's zero mode lands exactly on the vacuum atom and fuses with it.
    """
    p_excited = _validate.instance("initial", initial, InitialSiteState).excited_population
    n = _validate.sites(n_sites)
    coupling = _validate.positive("coupling", coupling)
    k = np.arange(1, n + 1)
    theta = k * math.pi / (n + 1)
    work = -2.0 * coupling * np.cos(theta)
    band = (2.0 / (n + 1)) * np.sin(theta) ** 2
    return _merge_atoms(work, band, p_excited, coupling)


def moments(distribution: WorkDistribution, max_order: int = 2) -> WorkMoments:
    """Raw moments <W^n> = sum_k p_k W_k^n up to max_order (2..6).

    mean and variance are always filled; orders 3..max_order land in
    `higher` as raw (non-central) moments. A moment past the float range
    raises NumericalFailureError.
    """
    _validate.instance("distribution", distribution, WorkDistribution)
    max_order = _validate.integer("max_order", max_order, 2, 6)
    p, v = distribution.probabilities, distribution.values
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mean, second, *higher = (float(np.sum(p * v**n)) for n in range(1, max_order + 1))
    variance = second - mean * mean
    if not all(map(math.isfinite, (mean, variance, *higher))):
        raise NumericalFailureError(f"a work moment up to order {max_order} overflows")
    return WorkMoments(mean=mean, variance=variance, higher=tuple(higher) or None)


def adaptive_density(distribution: WorkDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Density estimate at each atom: weight divided by its midpoint cell.

    Cell k spans from the midpoint with the previous atom to the midpoint
    with the next one; the two edge cells are closed off symmetrically (the
    outer edge sits as far from the atom as the inner one). This keeps the
    estimate honest for strongly nonuniform ladders, where fixed-width bins
    would lump many atoms together or strand empty bins between them.
    Requires at least two atoms. The cells are formed at the atoms' scale
    (``_scale``), so no midpoint or edge overflows.
    """
    _validate.instance("distribution", distribution, WorkDistribution)
    v = distribution.values
    if v.size < 2:
        raise InvalidInputError("adaptive density needs at least two atoms")
    e, scaled = _scale(v)
    inner = 0.5 * (scaled[1:] + scaled[:-1])
    edges = np.concatenate([[2.0 * scaled[0] - inner[0]], inner, [2.0 * scaled[-1] - inner[-1]]])
    density = _unscaled(distribution.probabilities / np.diff(edges), -e, "adaptive density")
    return v.copy(), density


def binned_histogram(
    distribution: WorkDistribution, n_bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform-bin density over the atom support: (bin centers, densities).

    Useful for intermediate bond blends whose atoms follow no closed-form
    ladder. Bins span [min - w/2, max + w/2] so the extreme atoms sit at the
    centers of the outer bins. The bins are formed at the atoms' scale
    (``_scale``), so no span or edge overflows.
    """
    _validate.instance("distribution", distribution, WorkDistribution)
    n_bins = _validate.integer("n_bins", n_bins, 1, _validate.MAX_COUNT)
    e, v = _scale(distribution.values)
    lo, hi = float(v[0]), float(v[-1])
    if lo == hi:
        raise InvalidInputError("histogram needs atoms at more than one position")
    width = (hi - lo) / max(n_bins - 1, 1)
    edges = np.linspace(lo - 0.5 * width, hi + 0.5 * width, n_bins + 1)
    weights, _ = np.histogram(v, bins=edges, weights=distribution.probabilities)
    centers = _unscaled(0.5 * (edges[1:] + edges[:-1]), e, "bin center")
    return centers, _unscaled(weights / np.diff(edges), -e, "histogram density")


def _scale(values: np.ndarray) -> tuple[int, np.ndarray]:
    """(e, values 2^-e) with 2^e the scale of the largest |value| (``math.frexp``).

    Every scaled value lies in (-1, 1), so a sum, span or edge of a few of
    them stays finite. A power of two commutes with every rounding in the
    normal range, so there a formula of the scaled values, unscaled by
    ``_unscaled``, keeps the bits of the unscaled formula.
    """
    e = math.frexp(float(np.abs(values).max()))[1]
    return e, np.ldexp(values, -e)


def _unscaled(scaled: np.ndarray, e: int, what: str) -> np.ndarray:
    """``scaled`` times 2^e; NumericalFailureError where that is past the float range."""
    if scaled.size and math.frexp(float(np.abs(scaled).max()))[1] + e > 1024:  # 2^1024 overflows
        raise NumericalFailureError(f"{what} overflows the float range")
    return np.ldexp(scaled, e)


def gaussian_density(work: np.ndarray | float, variance: float) -> np.ndarray | float:
    """Centered Gaussian density exp(-w^2/(2v)) / sqrt(2 pi v) with variance v.

    Evaluated at the variance's scale, as ``semicircle_density`` is at J's:
    with v = s 4^k (``math.frexp``, s in [1/2, 2)), the density at (w, v) is
    2^-k times the density at (w 2^-k, s), so neither w^2 nor 2 pi v leaves
    the float range, and in the normal range the bits are those of the
    unscaled formula. A |w 2^-k| past 128 is taken as 128, where the density
    is 0 at every variance. An exponent x below -708, where exp(x) leaves
    the normal range, is taken as 2^-m exp(x + m ln 2), m = floor(-x/ln 2),
    so a density that 2^-k brings back into the normal range keeps its
    digits (relative error about |x| eps). The density never overflows: at
    the least variance, 5e-324, its peak is 1.8e161.
    """
    variance = _validate.positive("variance", variance)
    w = _validate.reals("work", work)
    k = math.frexp(variance)[1] // 2
    s = math.ldexp(variance, -2 * k)
    u = np.ldexp(np.minimum(np.abs(w), math.ldexp(128.0, k)), -k)
    x = -0.5 * u * u / s
    m = np.where(x < -708.0, np.floor(x / -_LN2), 0.0)
    out = np.ldexp(np.exp(x + m * _LN2) / math.sqrt(2.0 * math.pi * s), (-k - m).astype(int))
    return float(out) if np.isscalar(work) else out


def semicircle_density(work: np.ndarray | float, coupling: float) -> np.ndarray | float:
    """Radius-2J semicircle density sqrt(4J^2 - w^2)/(2 pi J^2), 0 outside.

    Evaluated at J's scale: with J = j 2^e (``math.frexp``, j in [1/2, 1)),
    the density at (w, J) is 2^-e times the density at (w 2^-e, j), so J^2
    neither overflows nor underflows, as it would at J = 1e155 or 1e-170. A
    power of two commutes with every rounding of the formula in the normal
    range, so there the bits are those of the unscaled formula. A |w| past
    4J lies outside the support and is taken as 4J, which keeps the scaled
    w^2 finite. A density past the float range (J below about 1/(pi 1.8e308))
    raises NumericalFailureError.
    """
    coupling = _validate.positive("coupling", coupling)
    w = _validate.reals("work", work)
    j, e = math.frexp(coupling)
    w = np.ldexp(np.minimum(np.abs(w), 4.0 * coupling), -e)
    radicand = np.clip(4.0 * j * j - w * w, 0.0, None)
    scaled = np.sqrt(radicand) / (2.0 * math.pi * j * j)
    out = _unscaled(scaled, -e, f"semicircle density at J = {coupling}")
    return float(out) if np.isscalar(work) else out
