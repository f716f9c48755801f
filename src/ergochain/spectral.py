"""Spectral decompositions: numerical and closed-form.

``_solve`` is the one call of LAPACK ``dstevd`` (the symmetric tridiagonal
divide-and-conquer driver), and it enforces the residual contract on what
the driver returns. Its three callers are ``diagonalize``, the fallback of
``_end_spectrum`` and ``workstats.tpm_distribution``. Every readout of f_N
at one time or over a window needs only the eigenvalues and the end weights
v_k[1] v_k[N], and ``_end_weights`` gets both from half the spectrum: the
chain without its constant diagonal is bipartite, its eigenvalues are
+-sigma_k, and one LAPACK ``dsterf`` call per chain (no eigenvectors, no
BLAS call) on an N//2 + 1 row block of H^2 gives the sigma_k^2. One Newton
step on the bonds' continuant refines each to high relative accuracy, the
weights follow from w_k = prod_j b_j / prod_(j != k) (E_k - E_j) over pairs
of the half spectrum, and a first-order certificate ``beta`` bounds their
error in |f_N|. ``_end_spectrum`` reads a chain whose ``beta`` exceeds
END_WEIGHT_ATOL (1e-6) through ``_solve`` instead. The handles, ``_stevd``
and ``_sterf``, come from scipy's ``_flapack`` extension, which
``_load_flapack`` loads by itself: ``import scipy.linalg`` would run the
package init, whose array-API layer imports ``numpy.testing`` and
``numpy.f2py``, about 0.33 s of a 0.47 s ``import ergochain.cli``. Without
it the import takes about 0.18 s (medians of 8 fresh interpreters, 2-core
x86-64 host). They call the same Fortran routines as ``scipy.linalg.lapack``,
so every output bit is scipy's. For the two special bond families the
spectrum is known in closed form:

* uniform bonds: E_k = -2J cos(k pi/(N+1)) - (N-2)B with sine-wave
  eigenvectors;
* engineered bonds: an exactly linear ladder
  E_k = -(2J/N) (N - (2k-1)) G_N - (N-2)B with Krawtchouk eigenvectors.

The gauge rule, stated here once: ``diagonalize`` flips each eigenvector so
that its first component whose magnitude exceeds 1e-12 times the vector's
largest is positive (``_fix_column_signs``; an all-zero vector is left as it
is). Both closed forms make the first component itself positive. So the
routes agree vector by vector for uniform bonds, and for engineered bonds up
to N = 84; past that, vectors whose first component is below the threshold
can differ in sign (1 of 85, 6 of 128, 27 of 256). Sign-free products such
as v_k[1] v_k[n], and so every end-weight readout, agree on every route up to
rounding.

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

# Bytes of each temporary of one block: the two of a ``_check_residual`` block.
# A ``_pair_sums`` step forms its gap array in half a block; the broadcast
# subtraction takes a temporary as large, and the product and reciprocal
# passes add less, so the step holds about 1.5 blocks at its peak (tracemalloc,
# numpy 2.4.6: 183 KB at N = 5000). The disorder kernel reads
# _BLOCK_BYTES // (16 N) chains at a time, so its (chunk, N) complex phases are
# one block. Every reader looks it up at call time, so one value drives all.
_BLOCK_BYTES = 128 * 1024

# Tolerance of the end-weight certificate ``beta`` on |f_N|. The bound is
# first order; against 40-digit oracles (N = 32-128, delta 0-0.99) it was at
# least 700 times the actual error of the weights and of |f_N|, and at least 70
# times with signed bonds (delta 1.5). Clean chains reach beta = 7e-8 at
# N = 5000, the benchmark's cells stay below 1e-10. A chain past it is read out
# through ``dstevd`` instead.
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
    column signs as given; the route that builds one sets them by the gauge
    rule of the module docstring.
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
    """Flip the columns into the gauge of ``diagonalize`` (the rule is in the module docstring).

    Sign flips are exact, so the result does not depend on how it is computed.
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


def _continuant(squares: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det(x - H) / x^(N mod 2) at y = x^2, as (mantissa, power of two), per chain and y.

    ``squares`` (chains, 2m + 2) holds b_j^2 at index j and zeros at 0 and
    past N - 1; ``y`` is (chains, m). Two sites at a time the characteristic
    polynomials p_n(x) = x p_(n-1) - b_(n-1)^2 p_(n-2) of the zero-diagonal
    chain are polynomials in y: with P_k = p_2k, Q_k = p_(2k+1)/x and
    c_j = b_j^2,

        Q_k = P_k - c_2k Q_(k-1),    P_(k+1) = y Q_k - c_(2k+1) P_k,

    division-free. After m + 1 steps from (P_0, Q_-1) = (1, 0), Q_m is P_m
    (N even, c_N = 0) or Q_m (N odd): the monic R(y) whose roots are the
    sigma_k^2. Each step rounds like a relative change of its bonds and of
    y, so the root of the computed R is within a few N eps of sigma_k^2,
    relative, whatever the gaps. A pairwise product of the step matrices
    would take O(log m) numpy calls instead of m + 1, but it rounds the
    products, not the bonds: near-degenerate pairs then read R up to 100
    times off (N = 20, two halves joined by a 1e-3 bond). All chains and y
    go through each step at once (O(m) numpy calls per stack), and (P, Q) is
    rescaled by a power of two every eight steps, so nothing overflows, nor
    underflows unless 16 consecutive bonds multiply to less than
    2^-500 max|b|^16.
    """
    chains, m = y.shape
    # rows along the longer axis, where numpy loops fastest; one chain reads Python floats
    if chains == 1:
        rows, couplings = y[0], squares[0].tolist()
    elif chains > m:
        rows, couplings = y.T, squares.T[:, None, :]
    else:
        rows, couplings = y, squares.T[:, :, None]
    p = np.ones(rows.shape)
    q = np.zeros(rows.shape)
    scratch = np.empty(rows.shape)
    exponent = np.zeros(rows.shape, dtype=np.int64)
    for k in range(m + 1):
        q *= couplings[2 * k]
        np.subtract(p, q, out=q)
        p *= couplings[2 * k + 1]
        np.multiply(rows, q, out=scratch)
        np.subtract(scratch, p, out=p)
        if k % 8 == 7:
            shift = np.frexp(np.maximum(np.abs(p), np.abs(q)))[1]
            scale = np.ldexp(1.0, -shift)
            p *= scale
            q *= scale
            exponent += shift
    if chains == 1:
        return q[None], exponent[None]
    return (q.T, exponent.T) if chains > m else (q, exponent)


def _product(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """prod(values) along the last axis as (mantissa, power of two).

    Products of 16 factors at a time, each split by ``frexp``, so nothing
    overflows or underflows while each 16 multiply to within 2^+-1000 and
    there are at most 16,000 factors. A product of rounded factors is off by
    about one rounding per factor; a sum of their logs, by about eps |log|
    per term, which is larger.
    """
    groups = np.multiply.reduceat(values, np.arange(0, values.shape[-1], 16), axis=-1)
    mantissas, exponents = np.frexp(groups)
    mantissa, exponent = np.frexp(mantissas.prod(axis=-1))
    return mantissa, exponent + exponents.sum(axis=-1)


def _pair_sums(
    y: np.ndarray, spread: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """prod_(j != k) |y_k - y_j| (as ``_product``) and sum_(j != k) (s_k + s_j)/|y_k - y_j|.

    ``y`` and ``spread`` s are (chains, m); without ``spread`` the sum is
    sum_(j != k) 1/|y_k - y_j|. The gaps are formed for a block of k at a
    time, each block at most half of ``_BLOCK_BYTES`` (the broadcast
    subtraction takes twice its output); each k's product and sum run over
    its whole row, so they do not depend on the block.
    """
    chains, m = y.shape
    mantissa = np.empty((chains, m))
    exponent = np.empty((chains, m), dtype=np.int64)
    sums = np.empty((chains, m))
    rows = max(1, _BLOCK_BYTES // (16 * chains * m))  # half a block: subtraction doubles it
    for start in range(0, m, rows):
        k = slice(start, min(start + rows, m))
        gaps = y[:, k, None] - y[:, None, :]
        np.abs(gaps, out=gaps)
        diagonal = gaps.reshape(chains, -1)[:, start :: m + 1]  # the entries j = k
        diagonal[...] = 1.0  # left out of the product
        mantissa[:, k], exponent[:, k] = _product(gaps)
        np.reciprocal(gaps, out=gaps)
        diagonal[...] = 0.0
        sums[:, k] = gaps.sum(axis=-1)
        if spread is not None:
            gaps *= spread[:, None, :]
            sums[:, k] *= spread[:, k]
            sums[:, k] += gaps.sum(axis=-1)
        del gaps, diagonal  # freed before the next block is formed, so steps do not stack
    return mantissa, exponent, sums


def _squared_spectrum(
    padded: np.ndarray, split: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sigma_k^2 of each chain, ascending, refined, with error bounds and their range flag.

    ``padded`` (chains, 2m + 2) holds the bonds, scaled so that max|b| < 1,
    at indices 1..N-1 and zeros elsewhere; ``split`` flags chains with a
    zero bond. One LAPACK ``dsterf`` call per chain solves the odd-site block
    of H^2, with site N + 1 added when N is even: m + 1 rows, diagonal
    b_2i^2 + b_(2i+1)^2, off-diagonal b_(2i+1) b_(2i+2). Its eigenvalues are
    the zero mode and the sigma_k^2; the smallest is dropped. (The even-site
    block has the sigma_k^2 alone, but it is a single number at N = 2 and 3,
    where no check could catch a wrong ``dsterf`` value.) Then one Newton
    step y_k - d_k, d_k = R(y_k)/R'(y_k), with R from ``_continuant`` and
    R'(y_k) = prod_(j != k) (y_k - y_j) from ``_pair_sums``.

    The step d_k is the a-posteriori error of the ``dsterf`` value. With
    R' formed from the other values, the refined value is off by about
    d_k sum_(j != k) d_j/(y_k - y_j); the bound
    dy_k = 2 |d_k| max_j |d_j| sum_(j != k) 1/|y_k - y_j| + 8 (m + 1) eps y_k
    adds the continuant's rounding, whose backward error is relative in the
    bonds, so it moves sigma_k by a few N eps sigma_k at most (Demmel and
    Kahan 1990). ``in_range`` is False where max_j |d_j| sum_j 1/|y_k - y_j|
    exceeds 1/4, outside Newton's quadratic range.

    NumericalFailureError is raised for a nonzero ``info``; for eigenvalues
    whose sum misses the block's trace sum_j b_j^2 by more than rounding
    allows (the check that every one was solved); and for a step in range,
    on a chain without a zero bond, past ``dsterf``'s bound
    8 (m + 1) eps (max|b| < 1), so a wrong eigenvalue is never repaired
    silently.
    """
    chains, m = padded.shape[0], padded.shape[1] // 2 - 1
    squares = padded * padded
    diag = squares[:, 0::2] + squares[:, 1::2]
    off = padded[:, 1 : 2 * m : 2] * padded[:, 2 : 2 * m + 1 : 2]
    block = np.empty((chains, m + 1))
    for r in range(chains):
        block[r], info = _sterf(diag[r], off[r])
        if info != 0:
            raise NumericalFailureError(f"LAPACK dsterf failed with info = {info}")
    del diag, off
    total, trace = block.sum(axis=-1), squares.sum(axis=-1)
    slack = 4 * (m + 1) * _EPS * (np.abs(block).sum(axis=-1) + trace)
    missed = np.flatnonzero(~(np.abs(total - trace) <= slack))
    if missed.size:
        chain = missed[0]
        raise NumericalFailureError(
            f"dsterf eigenvalues: sum {total[chain]:.17g} misses the trace "
            f"sum_j b_j^2 = {trace[chain]:.17g}"
        )
    guess = block[:, 1:]
    value, value_exponent = _continuant(squares, guess)
    del squares
    slope, slope_exponent, reach = _pair_sums(guess)
    slope[:, m % 2 :: 2] *= -1.0  # R'(y_k) < 0 below an odd number of y_j
    value /= slope
    value_exponent -= slope_exponent
    steps = np.ldexp(value, value_exponent)
    del value, value_exponent, slope, slope_exponent
    y = guess - steps
    reach *= np.abs(steps).max(axis=-1, keepdims=True)
    in_range = reach <= 0.25
    wrong = in_range & (np.abs(steps) > 8 * (m + 1) * _EPS)
    wrong[split] = False
    if wrong.any():
        chain, k = np.argwhere(wrong)[0]
        raise NumericalFailureError(
            f"dsterf eigenvalue {guess[chain, k]:.17g} moved by {steps[chain, k]:.3e} "
            f"under refinement, past its bound"
        )
    dy = np.abs(steps, out=steps)
    dy *= 2 * reach
    dy += 8 * (m + 1) * _EPS * np.abs(y)
    return y, dy, in_range


def _end_weights(bonds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, end weights w_k = v_k[1] v_k[N] and their certificate, per chain.

    ``bonds`` is a stack (chains, N-1); row r of each output depends on bond
    row r alone, bit for bit. The constant diagonal -(N-2)B only multiplies
    f_N by a global phase, so it is left out, and with it its rounding in
    |f_N|. The chain H then has a zero diagonal: it is bipartite, its
    spectrum is +-sigma_k, k = 1..m = N//2 (and 0 for odd N), and the
    sigma_k^2 are the eigenvalues of one sublattice block of H^2 (Golub and
    Kahan 1965). ``_squared_spectrum`` solves that block with ``dsterf``, on
    bonds scaled by a power of two (no square overflows, no bit changes), and
    refines each sigma_k^2 with one Newton step on det(x - H); ``dsterf``
    makes no BLAS call, so no bit depends on ``OPENBLAS_NUM_THREADS``. The
    weights are the residues of (z - H)^-1_(1N) = prod_j b_j / det(z - H)
    (Golub and Welsch 1969):

        |w(+-sigma_k)| = prod|b| / (2 sigma_k [sigma_k if N odd]
                                    prod_(j != k) |sigma_k^2 - sigma_j^2|),

    the zero mode of odd N has prod|b| / prod_j sigma_j^2, and the sign is
    sign(prod_j b_j) (-1)^(N-k) for ascending E. The products run over the
    m^2 pairs of the half spectrum (``_pair_sums``), not over N^2 gaps. A
    zero bond splits the chain: w = 0 exactly, so f_N = 0.

    The certificate ``beta = sum_k |w_k| rho_k`` is a first-order bound on
    the error the weights put into |f_N(t)|, at any t. With each sigma_k^2
    within dy_k of the exact one (``_squared_spectrum``), each weight is
    within rho_k = sum_(j != k) (dy_k + dy_j)/|sigma_k^2 - sigma_j^2| +
    dy_k/(2 sigma_k^2) [twice for odd N] + 2N eps of its value, relative.
    ``beta`` is inf where a refinement left Newton's quadratic range, where
    neighbours, or sigma_1^2 and 0, lie within twice their dy, or where a
    weight is not finite; and 0 for a split chain. The errors raised are
    those of ``_squared_spectrum``.
    """
    chains, n = bonds.shape[0], bonds.shape[1] + 1
    m, odd = divmod(n, 2)
    scale = np.frexp(np.abs(bonds).max(axis=-1))[1]  # max|b| in [1/2, 1) once scaled
    padded = np.zeros((chains, 2 * m + 2))
    padded[:, 1:n] = np.ldexp(bonds, -scale[:, None])
    bond_product, bond_exponent = _product(np.abs(padded[:, 1:n]))
    sign = np.sign(bonds).prod(axis=-1)  # 0 for a zero bond
    split = sign == 0
    # zero bonds and gaps give infinities here; the certificate turns them away
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        y, dy, in_range = _squared_spectrum(padded, split)
        del padded
        gaps, gaps_exponent, rho = _pair_sums(y, dy)
        sigma = np.sqrt(y)
        gaps *= y if odd else sigma
        gaps *= 2.0
        np.divide(bond_product[:, None], gaps, out=gaps)
        np.subtract(bond_exponent[:, None], gaps_exponent, out=gaps_exponent)
        magnitudes = np.ldexp(gaps, gaps_exponent)
        del gaps, gaps_exponent
        rho += (0.5 + 0.5 * odd) * dy / y + 2 * n * _EPS
        beta = 2 * (magnitudes * rho).sum(axis=-1)
        weights = np.empty((chains, n))
        weights[:, :m] = magnitudes[:, ::-1]
        weights[:, n - m :] = magnitudes
        if odd:
            y_product, y_exponent = _product(y)
            weights[:, m] = np.ldexp(bond_product / y_product, bond_exponent - y_exponent)
            beta += weights[:, m] * ((dy / y).sum(axis=-1) + 2 * n * _EPS)
        resolved = (
            in_range.all(axis=-1)
            & (y[:, 0] > 2 * dy[:, 0])
            & (y[:, 1:] - y[:, :-1] > 2 * (dy[:, 1:] + dy[:, :-1])).all(axis=-1)
            & (beta <= np.inf)
        )
        beta[~resolved] = np.inf
    energies = np.zeros((chains, n))
    np.negative(sigma[:, ::-1], out=energies[:, :m])
    energies[:, n - m :] = sigma
    parity = np.ones(n)
    parity[n - 2 :: -2] = -1.0  # (-1)^(N-k) for ascending E
    weights *= sign[:, None] * parity
    weights[split] = 0.0
    beta[split] = 0.0
    return np.ldexp(energies, scale[:, None]), weights, beta


def _end_spectrum(bonds: np.ndarray, field: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and end weights v_k[1] v_k[N] of a stack of chains (chains, N-1).

    Each chain is read from ``_end_weights`` when its certificate ``beta`` is
    at most END_WEIGHT_ATOL. A chain past it (near-degenerate pairs, as in
    two nearly equal halves, where the eigenvalue bounds reach the gaps) is
    solved by one guarded ``_solve`` on its full diagonal -(N-2)B: its
    energies and weights are those of ``diagonalize``, bit for bit, since
    v_k[1] v_k[N] does not depend on the sign gauge. Row r depends on bond
    row r alone.
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
