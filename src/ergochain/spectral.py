"""Spectral decompositions: numerical and closed-form.

``diagonalize`` calls LAPACK ``dstevd`` (the symmetric tridiagonal
divide-and-conquer driver) and enforces a residual contract; the disorder
kernel calls the same driver and checks the same contract on a stack of
chains. The handle, ``_stevd``, comes from scipy's ``_flapack`` extension,
which ``_load_stevd`` loads by itself: ``import scipy.linalg`` would run the
package init, whose array-API layer imports ``numpy.testing`` and
``numpy.f2py``, about 0.33 s of a 0.47 s ``import ergochain.cli``. Without
it the import takes about 0.18 s (medians of 8 fresh interpreters, 2-core
x86-64 host). It calls the same Fortran routine as
``scipy.linalg.lapack.dstevd``, so every output bit is scipy's. For the two
special bond families the spectrum is known in closed form:

* uniform bonds: E_k = -2J cos(k pi/(N+1)) - (N-2)B with sine-wave
  eigenvectors;
* engineered bonds: an exactly linear ladder
  E_k = -(2J/N) (N - (2k-1)) G_N - (N-2)B with Krawtchouk eigenvectors.

Both closed forms make each eigenvector's first component positive. The
numerical solver makes its first component above 1e-12 of the column's
largest positive, so the routes agree column by column for uniform bonds,
and for engineered bonds up to N = 84; past that, columns whose first
component is below 1e-12 can differ in sign (1 of 85, 6 of 128, 27 of 256).
Because the bonds are positive while the uniform closed-form energies are
written for the sign-flipped chain, those eigenvectors carry a
site-alternating factor (-1)^(n-1); the diagonal similarity transform that
flips every second site maps the two chains onto each other without
touching the spectrum.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import scipy

from . import _validate
from .chain import SingleExcitationHamiltonian, gn_factor
from .errors import InvalidInputError, NumericalFailureError

__all__ = [
    "SpectralDecomposition",
    "diagonalize",
    "analytic_uniform_spectrum",
    "krawtchouk",
    "analytic_pst_spectrum",
]

# Residual contract for the eigensolver: ||H v - E v|| per column, relative to
# an infinity-norm bound on H. Dense LAPACK solvers land around 1e-14 here, so
# tripping this indicates genuine numerical trouble, not slack.
RESIDUAL_RTOL = 1e-9

# Bytes of each of the two temporaries of one ``_check_residual`` block. Not
# below the disorder kernel's 128 KB chunk of eigenvectors, so the kernel
# checks each chunk in one pass.
_RESIDUAL_BLOCK_BYTES = 256 * 1024


def _load_stevd():
    """LAPACK ``dstevd`` from scipy's ``_flapack`` extension, loaded on its own.

    A process that has imported ``scipy.linalg._flapack`` already reuses it.
    Otherwise the extension file in scipy's package directory is loaded
    under the private name ``ergochain._flapack``. Under scipy's own name it
    would sit in ``sys.modules`` before its package existed, and a later
    ``import scipy.linalg`` would then leave ``scipy.linalg._flapack``
    unset. Both modules come from the one shared library, so ``dstevd`` is
    the same Fortran routine that ``scipy.linalg.lapack.dstevd`` calls (the
    two capsule pointers are equal) and every output bit is scipy's. A
    missing extension raises ImportError naming the path; there is no other
    route to the solver. ``import scipy`` (about 15 ms) stays: it locates the
    package and runs scipy's distributor init, which on Windows wheels adds
    the DLL directories the extension needs.
    """
    flapack = sys.modules.get("scipy.linalg._flapack")
    if flapack is None:
        name = "ergochain._flapack"
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        path = os.path.join(os.path.dirname(scipy.__file__), "linalg", "_flapack" + suffix)
        if not os.path.isfile(path):
            raise ImportError(f"LAPACK extension not found: {path}", name=name, path=path)
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        spec = importlib.util.spec_from_file_location(name, path, loader=loader)
        flapack = importlib.util.module_from_spec(spec)
        loader.exec_module(flapack)
    return flapack.dstevd


_stevd = _load_stevd()


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors (as columns).

    ``energies[k]`` pairs with column ``vectors[:, k]``. The class leaves
    column signs as given; the routes that build one fix them. The closed
    forms make each column's first component positive, ``diagonalize`` its
    first component above 1e-12 of the column's largest. So the routes agree
    column by column for uniform bonds, and for engineered bonds up to
    N = 84; past that, columns whose first component is below the threshold
    can differ in sign (6 of 128 at N = 128, see the module docstring).
    Sign-free products such as v_k[1] v_k[n] agree on every route up to
    rounding.
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


def _solve(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors (columns) of one tridiagonal matrix.

    One call of LAPACK ``dstevd``, the driver scipy's tridiagonal eigensolver
    picks by default in scipy 1.17. It is named here, so a scipy that changes
    its default cannot change the bits. ``_stevd`` calls scipy's own routine,
    from its ``_flapack`` extension loaded without importing ``scipy.linalg``
    (see the module docstring), so the bundled LAPACK and BLAS are the ones
    ``scipy.linalg`` would use. A nonzero ``info`` raises
    NumericalFailureError.
    """
    energies, vectors, info = _stevd(diag, off)
    if info != 0:
        raise NumericalFailureError(f"LAPACK dstevd failed with info = {info}")
    return energies, vectors


def _check_residual(
    diag: np.ndarray,
    off: np.ndarray,
    energies: np.ndarray,
    vectors: np.ndarray,
    rtol: float = RESIDUAL_RTOL,
) -> None:
    """Raise NumericalFailureError unless every ||H v_k - E_k v_k|| is in bound.

    Works on a stack of chains: ``energies`` is (..., N), ``vectors``
    (..., N, N) with eigenvector k in ``vectors[..., k, :]``, ``off``
    (..., N-1), and ``diag`` is (N,) or (..., N). Each chain's worst residual
    must not exceed ``rtol`` times max(1, its infinity-norm bound on H); a
    NaN fails too. The error names the first failing chain.

    (H - E_k) v_k is formed for a block of k at a time; each of the block's
    two temporaries holds at most ``_RESIDUAL_BLOCK_BYTES`` (or one k row of
    the stack), so the check adds no (N, N) array to the solve's two. Each
    k's squared norm is the same sum whatever the block, so the residuals
    do not depend on the block size.
    """
    bonds = off[..., None, :]
    squares = np.empty(energies.shape)
    rows = max(1, _RESIDUAL_BLOCK_BYTES // (8 * vectors[..., 0, :].size))
    for start in range(0, energies.shape[-1], rows):
        block = slice(start, start + rows)
        v = vectors[..., block, :]
        out = diag[..., None, :] - energies[..., block, None]  # (H - E_k) v_k, one row per k
        out *= v
        shifted = bonds * v[..., 1:]
        out[..., :-1] += shifted
        np.multiply(bonds, v[..., :-1], out=shifted)
        out[..., 1:] += shifted
        np.einsum("...ki,...ki->...k", out, out, out=squares[..., block])
    residual = np.ravel(np.sqrt(np.max(squares, axis=-1)))
    # |d_i| + |e_(i-1)| + |e_i|: the infinity norm of each H
    row_sums = np.abs(np.broadcast_to(diag, energies.shape))
    row_sums[..., 1:] += np.abs(off)
    row_sums[..., :-1] += np.abs(off)
    norm_bound = np.ravel(np.max(row_sums, axis=-1))
    failed = np.flatnonzero(~(residual <= rtol * np.maximum(norm_bound, 1.0)))
    if failed.size:
        chain = failed[0]
        raise NumericalFailureError(
            f"eigensolver residual {residual[chain]:.3e} exceeds "
            f"{rtol:.1e} * {norm_bound[chain]:.3e}",
            residual=float(residual[chain]),
        )


def diagonalize(
    hamiltonian: SingleExcitationHamiltonian, rtol: float = RESIDUAL_RTOL
) -> SpectralDecomposition:
    """Full eigendecomposition of the single-excitation block.

    Validation, one LAPACK ``dstevd`` call (``_solve``), the residual
    contract (``_check_residual``), then the sign gauge. Raises
    NumericalFailureError (carrying the worst per-column residual) if LAPACK
    reports failure or if max_k ||H v_k - E_k v_k|| exceeds ``rtol`` times
    an infinity-norm bound on H.
    """
    if not isinstance(hamiltonian, SingleExcitationHamiltonian):
        raise InvalidInputError("hamiltonian must be a SingleExcitationHamiltonian")
    rtol = _validate.positive("rtol", rtol)
    diag = hamiltonian.diagonal
    off = hamiltonian.offdiagonal
    energies, vectors = _solve(diag, off)
    _check_residual(diag, off, energies, vectors.T, rtol)
    return SpectralDecomposition(energies=energies, vectors=_fix_column_signs(vectors))


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


def _pst_ladder(n: int, coupling: float) -> np.ndarray:
    """Hopping energies -(2J/N)(N - (2k-1)) G_N, k = 1..N, of the engineered chain.

    The one evaluation order of the ladder: the closed-form spectrum and the
    closed-form work atoms share its bits.
    """
    k = np.arange(1, n + 1)
    return -(2.0 * coupling / n) * (n - (2 * k - 1)) * gn_factor(n)


def _pst_vectors(n: int) -> np.ndarray:
    """Unit eigenvectors (columns, ascending energy) of the engineered chain, row 1 positive.

    The hopping matrix is 2J G_N/N times the one with off-diagonal
    b_j = sqrt(j (N-j)) and eigenvalues mu_k = 2k - (N+1). All columns run
    b_j v_(j+1) + b_(j-1) v_(j-1) = mu_k v_j from v_1 = 1 to the centre row,
    the stable direction; a column past 2^500 is scaled by 2^-500 (exactly),
    done rows included. Mirror symmetry, v_(N+1-j) = (-1)^(N-k) v_j, fills the rest.
    """
    half = (n + 1) // 2
    inner = np.arange(1, half)
    bonds = np.sqrt(inner * (n - inner))
    mu = 2.0 * np.arange(1, n + 1) - (n + 1)
    parity = np.where((n - np.arange(1, n + 1)) % 2 == 0, 1.0, -1.0)
    vectors = np.empty((n, n))
    rows = vectors[:half]
    rows[0] = 1.0
    if half > 1:
        rows[1] = mu / bonds[0]
    for j in range(2, half):
        rows[j] = (mu * rows[j - 1] - bonds[j - 2] * rows[j - 2]) / bonds[j - 1]
        big = np.abs(rows[j]) > 2.0**500
        if big.any():
            rows[: j + 1, big] *= 2.0**-500
    if n % 2:
        rows[-1, parity < 0] = 0.0  # the centre of an odd column
    np.multiply(rows[: n - half][::-1], parity, out=vectors[half:])
    # the bits of np.linalg.norm(vectors, axis=0) without its (N, N) squares temporary
    vectors /= np.sqrt(np.einsum("ij,ij->j", vectors, vectors))
    return vectors


def analytic_pst_spectrum(
    n_sites: int, coupling: float, field: float
) -> SpectralDecomposition:
    """Closed-form spectrum of the engineered chain.

    The energies are an exactly linear ladder,
    E_k = -(2J/N) (N - (2k-1)) G_N - (N-2) B for k = 1..N, with spacing
    (4J/N) G_N. Eigenvector k is (-1)^(n-1) sqrt(w(n)) K_{k-1}(n-1)
    normalized to unit length, where w(n) = C(N-1, n-1) 2^(1-N) is the
    symmetric binomial weight, computed by a float recurrence
    (``_pst_vectors``): finite at any N, and within 1.5e-15 of the
    exact-integer route (measured at N = 2-256, 500 and 1000). Row 1 is
    positive until its smallest entry, 2^(-(N-1)/2), underflows (subnormal
    past N ~ 2045, zero past 2149).
    """
    n = _validate.integer("n_sites", n_sites, 2)
    coupling = _validate.positive("coupling", coupling)
    field = _validate.positive("field", field)
    energies = _pst_ladder(n, coupling) - (n - 2) * field
    return SpectralDecomposition(energies=energies, vectors=_pst_vectors(n))
