"""Spectral decompositions: numerical and closed-form.

``diagonalize`` wraps a symmetric tridiagonal eigensolver and enforces a
residual contract. For the two special bond families the spectrum is known in
closed form:

* uniform bonds: E_k = -2J cos(k pi/(N+1)) - (N-2)B with sine-wave
  eigenvectors;
* engineered bonds: an exactly linear ladder
  E_k = -(2J/N) (N - (2k-1)) G_N - (N-2)B with eigenvectors built from
  binomial weights and Krawtchouk polynomials.

Both closed forms are returned in the same gauge the numerical solver uses
(each eigenvector's first nonvanishing component positive), so the two routes
agree column by column, not just up to sign. Because the bonds are positive
while the closed-form energies are written for the sign-flipped chain, the
eigenvectors carry a site-alternating factor (-1)^(n-1); the diagonal
similarity transform that flips every second site maps the two chains onto
each other without touching the spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import _validate
from .chain import SingleExcitationHamiltonian, gn_factor
from .errors import InvalidInputError, NumericalFailureError

__all__ = [
    "SpectralDecomposition",
    "KrawtchoukTable",
    "diagonalize",
    "analytic_uniform_spectrum",
    "krawtchouk",
    "krawtchouk_table",
    "analytic_pst_spectrum",
]

# Residual contract for the eigensolver: ||H v - E v|| per column, relative to
# an infinity-norm bound on H. Dense LAPACK solvers land around 1e-14 here, so
# tripping this indicates genuine numerical trouble, not slack.
RESIDUAL_RTOL = 1e-9


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors (as columns).

    ``energies[k]`` pairs with column ``vectors[:, k]``. Every column's first
    nonvanishing component is positive, which fixes the overall sign freedom
    and makes decompositions from different routes directly comparable.
    """

    energies: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        energies = np.asarray(self.energies, dtype=float)
        vectors = np.asarray(self.vectors, dtype=float)
        n = energies.size
        if energies.ndim != 1 or vectors.shape != (n, n):
            raise InvalidInputError("energies must be (N,) and vectors (N, N)")
        energies.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "vectors", vectors)

    @property
    def n_sites(self) -> int:
        return self.energies.size


def _fix_column_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so each one's first non-negligible component is positive.

    A component is non-negligible when its magnitude exceeds 1e-12 times the
    column's largest magnitude; an all-zero column is left as it is. Sign
    flips are exact, so the result does not depend on how it is computed.
    """
    magnitudes = np.abs(vectors)
    significant = magnitudes > 1e-12 * magnitudes.max(axis=0)
    del magnitudes  # freed before the flipped copy, so the peak stays at two (N, N) arrays
    leading = vectors[np.argmax(significant, axis=0), np.arange(vectors.shape[1])]
    return vectors * np.where(leading < 0, -1.0, 1.0)


def _tridiagonal_matvec(
    diag: np.ndarray, off: np.ndarray, vectors: np.ndarray
) -> np.ndarray:
    out = diag[:, None] * vectors
    out[:-1] += off[:, None] * vectors[1:]
    out[1:] += off[:, None] * vectors[:-1]
    return out


def diagonalize(
    hamiltonian: SingleExcitationHamiltonian, rtol: float = RESIDUAL_RTOL
) -> SpectralDecomposition:
    """Full eigendecomposition of the single-excitation block.

    Raises NumericalFailureError (carrying the worst per-column residual) if
    max_k ||H v_k - E_k v_k|| exceeds ``rtol`` times an infinity-norm bound
    on H.
    """
    if not isinstance(hamiltonian, SingleExcitationHamiltonian):
        raise InvalidInputError("hamiltonian must be a SingleExcitationHamiltonian")
    rtol = _validate.positive("rtol", rtol)
    diag = hamiltonian.diagonal
    off = hamiltonian.offdiagonal
    energies, vectors = eigh_tridiagonal(diag, off)
    vectors = _fix_column_signs(vectors)

    norm_bound = float(
        np.max(
            np.abs(diag)
            + np.concatenate([[0.0], np.abs(off)])
            + np.concatenate([np.abs(off), [0.0]])
        )
    )
    residual = float(
        np.max(
            np.linalg.norm(
                _tridiagonal_matvec(diag, off, vectors) - energies[None, :] * vectors,
                axis=0,
            )
        )
    )
    if residual > rtol * max(norm_bound, 1.0):
        raise NumericalFailureError(
            f"eigensolver residual {residual:.3e} exceeds {rtol:.1e} * {norm_bound:.3e}",
            residual=residual,
        )
    return SpectralDecomposition(energies=energies, vectors=vectors)


def analytic_uniform_spectrum(
    n_sites: int, coupling: float, field: float
) -> SpectralDecomposition:
    """Closed-form spectrum of the uniform chain.

    E_k = -2J cos(k pi/(N+1)) - (N-2) B for k = 1..N, with eigenvectors
    v_k[n] = (-1)^(n-1) sqrt(2/(N+1)) sin(k pi n/(N+1)).
    """
    n = _validate.integer("n_sites", n_sites, 2)
    coupling = _validate.positive("coupling", coupling)
    field = _validate.positive("field", field)
    k = np.arange(1, n + 1)
    theta = k * math.pi / (n + 1)
    energies = -2.0 * coupling * np.cos(theta) - (n - 2) * field
    sites = np.arange(1, n + 1)
    vectors = math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(sites, theta))
    vectors *= np.where(sites % 2 == 1, 1.0, -1.0)[:, None]  # alternating gauge
    return SpectralDecomposition(energies=energies, vectors=vectors)


def krawtchouk(k: int, x: int, m: int) -> int:
    """Binary Krawtchouk polynomial K_k(x) on {0..m}, exact integer value.

    K_k(x) = sum_i (-1)^i C(x, i) C(m-x, k-i). Evaluated with exact integer
    arithmetic; no rounding at any size.
    """
    m = _validate.integer("m", m, 0)
    k = _validate.integer("k", k, 0, m)
    x = _validate.integer("x", x, 0, m)
    total = 0
    for i in range(max(0, k - (m - x)), min(k, x) + 1):
        total += (-1) ** i * math.comb(x, i) * math.comb(m - x, k - i)
    return total


@dataclass(frozen=True)
class KrawtchoukTable:
    """Exact integer table K_k(x) for 0 <= k, x <= m (dtype=object, k rows)."""

    m: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (self.m + 1, self.m + 1):
            raise InvalidInputError("table must be (m+1, m+1)")
        self.values.setflags(write=False)


def krawtchouk_table(m: int) -> KrawtchoukTable:
    """All K_k(x) for 0 <= k, x <= m as exact Python integers.

    Rows come from the three-term recurrence
    (k+1) K_{k+1}(x) = (m - 2x) K_k(x) - (m - k + 1) K_{k-1}(x), applied to
    all x at once; the division is exact, so the table equals ``krawtchouk``
    entry by entry at O(m^2) big-integer operations.
    """
    m = _validate.integer("m", m, 0)
    values = np.empty((m + 1, m + 1), dtype=object)
    values[0] = 1
    slope = np.array([m - 2 * x for x in range(m + 1)], dtype=object)
    previous = 0  # K_{-1}
    for k in range(m):
        values[k + 1] = (slope * values[k] - (m - k + 1) * previous) // (k + 1)
        previous = values[k]
    return KrawtchoukTable(m=m, values=values)


def analytic_pst_spectrum(
    n_sites: int, coupling: float, field: float
) -> SpectralDecomposition:
    """Closed-form spectrum of the engineered chain.

    The energies are an exactly linear ladder,
    E_k = -(2J/N) (N - (2k-1)) G_N - (N-2) B for k = 1..N, with spacing
    (4J/N) G_N. Eigenvector k is (-1)^(n-1) sqrt(w(n)) K_{k-1}(n-1)
    normalized to unit length, where w(n) = C(N-1, n-1) 2^(1-N) is the
    symmetric binomial weight.

    Past N ~ 1030 the binomials overflow a float; such chains raise
    NumericalFailureError, checked on the weights before the exact integer
    table is built.
    """
    n = _validate.integer("n_sites", n_sites, 2)
    coupling = _validate.positive("coupling", coupling)
    field = _validate.positive("field", field)
    gn = gn_factor(n)
    k = np.arange(1, n + 1)
    energies = -(2.0 * coupling / n) * (n - (2 * k - 1)) * gn - (n - 2) * field

    try:
        weights = np.array([math.comb(n - 1, j) for j in range(n)], dtype=float)
        weights *= 0.5 ** (n - 1)
        table = krawtchouk_table(n - 1).values.astype(float)
    except OverflowError as exc:
        raise NumericalFailureError(f"closed-form PST spectrum overflows at N={n}") from exc
    # column k-1 of the decomposition is sqrt(w(n)) K_{k-1}(n-1) over sites n
    vectors = np.sqrt(weights)[:, None] * table.T
    vectors /= np.linalg.norm(vectors, axis=0)[None, :]
    sites = np.arange(1, n + 1)
    vectors *= np.where(sites % 2 == 1, 1.0, -1.0)[:, None]  # alternating gauge
    return SpectralDecomposition(energies=energies, vectors=vectors)
