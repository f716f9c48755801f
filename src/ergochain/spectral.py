"""Spectral decompositions: numerical and closed-form.

``_solve`` is the one call of LAPACK ``dstevd`` (the symmetric tridiagonal
divide-and-conquer driver), and it enforces the residual contract on what
the driver returns. Its three callers are ``diagonalize``, the fallback of
``_end_spectrum`` and ``workstats.tpm_distribution``. Every readout of f_N
at one time or over a window needs only the end weights v_k[1] v_k[N], and
``_end_weights`` gets them from the eigenvalues alone: one LAPACK ``dsterf``
call per chain (no eigenvectors, no BLAS call),
w_k = prod_j b_j / prod_(j != k) (E_k - E_j), and a first-order certificate
``beta`` on |f_N|. ``_end_spectrum`` reads a chain whose ``beta`` exceeds
END_WEIGHT_ATOL (1e-6), or whose weights or gaps fail, through ``_solve``
instead. The handles, ``_stevd`` and ``_sterf``, come from scipy's
``_flapack`` extension, which ``_load_flapack`` loads by itself:
``import scipy.linalg`` would run the package init, whose array-API layer
imports ``numpy.testing`` and ``numpy.f2py``, about 0.33 s of a 0.47 s
``import ergochain.cli``. Without it the import takes about 0.18 s (medians
of 8 fresh interpreters, 2-core x86-64 host). They call the same Fortran
routines as ``scipy.linalg.lapack``, so every output bit is scipy's. For the two
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
    "analytic_pst_spectrum",
]

# Residual contract for the eigensolver: ||H v - E v|| per column, relative to
# an infinity-norm bound on H. Dense LAPACK solvers land around 1e-14 here, so
# tripping this indicates genuine numerical trouble, not slack.
RESIDUAL_RTOL = 1e-9

# Bytes of each temporary of one block: the two of a ``_check_residual`` block
# and the gap arrays of an ``_end_weights`` block. The disorder kernel reads
# _BLOCK_BYTES // (8 N^2) chains at a time, so each of its chunks is one block.
_BLOCK_BYTES = 128 * 1024

# Tolerance of the end-weight certificate ``beta`` on |f_N|. The bound is
# first order; against 40-digit oracles (N = 32-128, delta 0.2-0.99) it was at
# least 500 times the actual error of the weights and of |f_N|. Clean chains
# reach beta = 1e-7 at N = 5000, the benchmark's cells stay below 1e-10. A
# chain past it is read out through ``dstevd`` instead.
END_WEIGHT_ATOL = 1e-6

_EPS = np.finfo(float).eps


def _load_flapack():
    """scipy's ``_flapack`` extension (LAPACK ``dstevd``, ``dsterf``), loaded on its own.

    A process that has imported ``scipy.linalg._flapack`` already reuses it.
    Otherwise the extension file in scipy's package directory is loaded
    under the private name ``ergochain._flapack``. Under scipy's own name it
    would sit in ``sys.modules`` before its package existed, and a later
    ``import scipy.linalg`` would then leave ``scipy.linalg._flapack``
    unset. Both modules come from the one shared library, so each routine is
    the same Fortran routine that ``scipy.linalg.lapack`` calls (the capsule
    pointers are equal) and every output bit is scipy's. A missing extension
    raises ImportError naming the path; there is no other route to the
    solvers. ``import scipy`` (about 15 ms) stays: it locates the package and
    runs scipy's distributor init, which on Windows wheels adds the DLL
    directories the extension needs.
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
    return flapack


_flapack = _load_flapack()
_stevd = _flapack.dstevd
_sterf = _flapack.dsterf
del _flapack


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
    """Eigenvalues (ascending) and eigenvectors (rows) of one tridiagonal matrix, checked.

    The one call of LAPACK ``dstevd``, the driver scipy's tridiagonal
    eigensolver picks by default in scipy 1.17. It is named here, so a scipy
    that changes its default cannot change the bits. ``_stevd`` calls scipy's
    own routine, from its ``_flapack`` extension loaded without importing
    ``scipy.linalg`` (see the module docstring), so the bundled LAPACK and
    BLAS are the ones ``scipy.linalg`` would use. Eigenvector k is row
    ``vectors[k]``, a transposed view of the driver's columns. A nonzero
    ``info`` raises NumericalFailureError, and so does a result that fails
    ``_check_residual``.
    """
    energies, vectors, info = _stevd(diag, off)
    if info != 0:
        raise NumericalFailureError(f"LAPACK dstevd failed with info = {info}")
    vectors = vectors.T
    _check_residual(diag, off, energies, vectors)
    return energies, vectors


def _check_residual(
    diag: np.ndarray, off: np.ndarray, energies: np.ndarray, vectors: np.ndarray
) -> None:
    """Raise NumericalFailureError unless every ||H v_k - E_k v_k|| is in bound.

    H is the one chain with diagonal ``diag`` and bonds ``off``; eigenvector k
    is row ``vectors[k]``. The worst residual must not exceed RESIDUAL_RTOL
    (read at call time) times max(1, an infinity-norm bound on H); a NaN
    fails too. The error carries the worst residual.

    (H - E_k) v_k is formed for a block of k at a time; each of the block's
    two temporaries holds at most ``_BLOCK_BYTES`` (or one row), so the check
    adds no (N, N) array to the solve's two. Each k's squared norm is the
    same sum whatever the block, so the residual does not depend on the
    block size.
    """
    n = energies.size
    squares = np.empty(n)
    rows = max(1, _BLOCK_BYTES // (8 * n))
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        v = vectors[block]
        out = diag - energies[block, None]  # (H - E_k) v_k, one row per k
        out *= v
        shifted = off * v[:, 1:]
        out[:, :-1] += shifted
        np.multiply(off, v[:, :-1], out=shifted)
        out[:, 1:] += shifted
        np.einsum("ki,ki->k", out, out, out=squares[block])
    residual = float(np.sqrt(np.max(squares)))
    # |d_i| + |e_(i-1)| + |e_i|: the infinity norm of H
    row_sums = np.abs(diag)
    row_sums[1:] += np.abs(off)
    row_sums[:-1] += np.abs(off)
    norm_bound = float(np.max(row_sums))
    if not residual <= RESIDUAL_RTOL * max(norm_bound, 1.0):
        raise NumericalFailureError(
            f"eigensolver residual {residual:.3e} exceeds "
            f"{RESIDUAL_RTOL:.1e} * {norm_bound:.3e}",
            residual=residual,
        )


def _end_weights(bonds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, end weights w_k = v_k[1] v_k[N] and their certificate, per chain.

    ``bonds`` is a stack (chains, N-1); row r of each output depends on bond
    row r alone, bit for bit. The eigenvalues (ascending) come from one LAPACK
    ``dsterf`` call per chain on a zero diagonal: the constant diagonal
    -(N-2)B only multiplies f_N by a global phase, so leaving it out also
    drops its rounding from |f_N|. ``dsterf`` makes no BLAS call, so its bits
    do not depend on ``OPENBLAS_NUM_THREADS``. The weights are the residues of
    (z - H)^-1_(1N) = prod_j b_j / det(z - H), the Gauss weights of Golub and
    Welsch (1969):

        w_k = prod_j b_j / prod_(j != k) (E_k - E_j),

    with sign sign(prod_j b_j) (-1)^(N-k). Their magnitudes are sums of
    log|b_j| and log|E_k - E_j|, with the gaps formed for a block of k at a
    time, so memory stays O(N) past one block of ``_BLOCK_BYTES``. A zero
    bond splits the chain: w = 0 exactly, so f_N = 0.

    The certificate ``beta = sum_k |w_k| rho_k`` is a first-order bound on
    the error the weights put into |f_N(t)|, at any t. Each eigenvalue is
    within dE = 2N eps max|b| of the exact one, so each w_k within rho_k =
    sum_(j != k) 2 dE/|E_k - E_j| + 2N eps of its value, relative. ``beta``
    is inf where a weight is not finite or a gap lies within 2 dE, where the
    product formula cannot be trusted, and 0 for a split chain.

    A nonzero ``info`` raises NumericalFailureError. So does a spectrum whose
    sum of squares misses trace(H^2) = 2 sum_j b_j^2 by more than dE and the
    rounding of both sums allow, the check that every eigenvalue was solved.
    """
    chains, n = bonds.shape[0], bonds.shape[1] + 1
    energies = np.empty((chains, n))
    zero = np.zeros(n)
    for r in range(chains):
        energies[r], info = _sterf(zero, bonds[r])
        if info != 0:
            raise NumericalFailureError(f"LAPACK dsterf failed with info = {info}")
    magnitudes = np.abs(bonds)
    top = np.max(magnitudes, axis=-1)
    delta_e = 2 * n * _EPS * top
    unit = np.where(top > 0, top, 1.0)[:, None]  # the moments in units of max|b|: no overflow
    scaled = energies / unit
    squares = np.sum(scaled * scaled, axis=-1)
    trace = 2.0 * np.sum((magnitudes / unit) ** 2, axis=-1)
    slack = 4 * n * _EPS * np.sum(np.abs(scaled), axis=-1) + 2 * n * _EPS * (squares + trace)
    missed = np.flatnonzero(~(np.abs(squares - trace) <= slack))
    if missed.size:
        chain = missed[0]
        raise NumericalFailureError(
            f"dsterf eigenvalues: sum of squares {squares[chain]:.17g} misses "
            f"trace(H^2) = {trace[chain]:.17g}"
        )
    log_gaps = np.empty((chains, n))
    inverse_gaps = np.empty((chains, n))
    rows = max(1, _BLOCK_BYTES // (8 * chains * n))
    parity = np.where((n - 1 - np.arange(n)) % 2 == 0, 1.0, -1.0)
    sign = np.prod(np.sign(bonds), axis=-1)  # 0 for a zero bond
    # zero bonds and gaps give infinities here; the certificate turns them away
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, n, rows):
            k = np.arange(start, min(start + rows, n))
            gaps = energies[:, k, None] - energies[:, None, :]
            np.abs(gaps, out=gaps)
            gaps[:, k - start, k] = 1.0  # j = k adds log 1 = 0
            log_gaps[:, k] = np.sum(np.log(gaps), axis=-1)
            np.reciprocal(gaps, out=gaps)
            gaps[:, k - start, k] = 0.0
            inverse_gaps[:, k] = np.sum(gaps, axis=-1)
        log_bonds = np.sum(np.log(magnitudes), axis=-1)
        weights = sign[:, None] * parity * np.exp(log_bonds[:, None] - log_gaps)
        rho = 2 * delta_e[:, None] * inverse_gaps + 2 * n * _EPS
        beta = np.sum(np.abs(weights) * rho, axis=-1)
    # E is ascending, so the smallest gap is between neighbours
    beta[~(np.min(np.diff(energies, axis=-1), axis=-1) > 2 * delta_e)] = np.inf
    split = sign == 0
    weights[split] = 0.0
    beta[split] = 0.0
    return energies, weights, beta


def _end_spectrum(bonds: np.ndarray, field: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and end weights v_k[1] v_k[N] of a stack of chains (chains, N-1).

    Each chain is read from ``_end_weights`` when its certificate ``beta`` is
    at most END_WEIGHT_ATOL. A chain past it (near-degenerate pairs under
    strong disorder, where the product formula cancels) is solved by one
    guarded ``_solve`` on its full diagonal -(N-2)B: its energies and
    weights are those of ``diagonalize``, bit for bit, since v_k[1] v_k[N]
    does not depend on the sign gauge. Row r depends on bond row r alone.
    """
    energies, weights, beta = _end_weights(bonds)
    fallback = np.flatnonzero(~(beta <= END_WEIGHT_ATOL))
    if fallback.size:
        n = energies.shape[1]
        diag = np.full(n, -(n - 2) * field)
        for r in fallback:
            energies[r], vectors = _solve(diag, bonds[r])
            weights[r] = vectors[:, 0] * vectors[:, -1]
    return energies, weights


def diagonalize(hamiltonian: SingleExcitationHamiltonian) -> SpectralDecomposition:
    """Full eigendecomposition of the single-excitation block.

    Validation, one guarded ``_solve`` (LAPACK ``dstevd`` and the residual
    contract), then the sign gauge. Raises NumericalFailureError (carrying
    the worst per-column residual) if LAPACK reports failure or if
    max_k ||H v_k - E_k v_k|| exceeds RESIDUAL_RTOL times an infinity-norm
    bound on H.
    """
    if not isinstance(hamiltonian, SingleExcitationHamiltonian):
        raise InvalidInputError("hamiltonian must be a SingleExcitationHamiltonian")
    energies, vectors = _solve(hamiltonian.diagonal, hamiltonian.offdiagonal)
    return SpectralDecomposition(energies=energies, vectors=_fix_column_signs(vectors.T))


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
