"""Spectral decompositions: numerical and closed-form.

``_solve`` is the one call of LAPACK ``dstevd`` (the symmetric tridiagonal
divide-and-conquer driver), and it enforces the residual contract on what
the driver returns. Its three callers are ``diagonalize``, the fallback of
``_end_spectrum`` and ``workstats.tpm_distribution``. Every readout of f_N
at one time or over a window needs only the eigenvalues and the end weights
v_k[1] v_k[N], and ``_end_weights`` gets both as half the spectrum: the
chain without its constant diagonal is bipartite, its eigenvalues are
+-sigma_k, the singular values of a bidiagonal matrix of the bonds, and one
LAPACK ``dlasq1`` (dqds) call per chain computes them to high relative
accuracy (no eigenvectors, no threaded BLAS call). The weights follow from
w_k = prod_j b_j / prod_(j != k) (E_k - E_j) over pairs of the half
spectrum, and a first-order certificate ``beta`` bounds their error in
|f_N|. What ``_end_weights`` returns is the half spectrum (sigma_k, c_k),
c_k the sum of the two mirror weights, on which f_N is a real sum times 1
or -i; the readouts of F in ``dynamics`` take nothing else.
``_end_spectrum`` reads a chain whose ``beta`` exceeds END_WEIGHT_ATOL
(1e-6) through ``_solve`` instead and folds that chain's full spectrum onto
its row. Both routines come from one library, resolved once at import by
``_load_lapack``: the OpenBLAS numpy's wheel bundles, which numpy has mapped
already (``scipy_dlasq1_64_`` and ``scipy_dstevd_64_``, 64-bit integers).
The same pass binds that library's thread-count setter and getter
(``scipy_openblas_set_num_threads64_`` and its ``get`` twin) as
``_blas_threads``, with which ``dynamics._OneBlasThread`` runs numpy's BLAS
products on one thread; import calls neither. Only where numpy bundles
no OpenBLAS do the routines come from scipy's bundled LAPACK, through the
shared library of scipy's ``_flapack`` extension (``scipy_dlasq1_``,
``scipy_dstevd_``, 32-bit integers), and ``_blas_threads`` is None, since
scipy's pool does not run numpy's products; only then does
``import ergochain`` import ``scipy``. Either is reached by ``ctypes``, as
neither numpy nor scipy wraps ``dlasq1``; the two libraries gave equal bits
for ``dlasq1`` on every bidiagonal tried (2,562, of order 1-500), and for
``dstevd`` under ``OPENBLAS_NUM_THREADS=1``. So a run maps one OpenBLAS and
starts one thread pool.

For the two special bond families the spectrum is known in closed form:

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

import contextlib
import ctypes
import importlib.machinery
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
# ``_end_weights`` makes one ``_pair_sums`` pass per stack. Each step forms its
# gap array in half a block; the broadcast subtraction takes a temporary as
# large, and the product and reciprocal passes add less, so the step holds
# about 1.5 blocks at its peak (tracemalloc, numpy 2.4.6, N = 5000: 182 KB
# above the pass's three (chains, m) outputs; ``reflection_fidelity`` peaks at
# 363 KB in all). The half spectrum (sigma, c) is made after that peak. The
# disorder kernel reads _BLOCK_BYTES // (16 N) chains at a time, so its
# (chunk, N-1) bond rows take half a block, and the chunk's sigma and c, each
# (chunk, (N+1)//2), a quarter block each. Every reader looks it up at call
# time, so one value drives all.
_BLOCK_BYTES = 128 * 1024

# Tolerance of the end-weight certificate ``beta`` on |f_N|. The bound is
# first order; against 40-digit oracles (N = 32-128, delta 0-0.99) it was at
# least 700 times the actual error of the weights and of |f_N|, and at least 70
# times with signed bonds (delta 1.5). Clean chains reach beta = 7e-8 at
# N = 5000, the benchmark's cells stay below 1e-10. A chain past it is read out
# through ``dstevd`` instead.
END_WEIGHT_ATOL = 1e-6

_EPS = np.finfo(float).eps


# Where numpy's wheel bundles its shared libraries, OpenBLAS among them.
_NUMPY_LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"


def _numpy_openblas() -> list[ctypes.CDLL]:
    """The OpenBLAS libraries numpy's wheel bundles in ``numpy.libs``, by ``ctypes``.

    numpy has mapped them already, so ``CDLL`` returns those copies and loads
    nothing new. The list is empty where numpy bundles none (conda, a source
    build against another BLAS). A file that does not load is left out.
    """
    found = []
    for path in sorted(_NUMPY_LIBS.glob("*openblas*")):
        with contextlib.suppress(OSError):
            found.append(ctypes.CDLL(str(path)))
    return found


def _flapack_path() -> str:
    """The file of scipy's ``_flapack`` extension; ImportError naming it where it is missing.

    ``import scipy`` (about 15 ms) locates the package and runs scipy's
    distributor init, which on Windows wheels adds the DLL directories the
    extension needs.
    """
    import scipy

    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    path = os.path.join(os.path.dirname(scipy.__file__), "linalg", "_flapack" + suffix)
    if not os.path.isfile(path):
        raise ImportError(f"LAPACK extension not found: {path}", path=path)
    return path


# Symbols of LAPACK routines, of the OpenBLAS thread-count setter and getter
# beside them, and the integer the routines take: the ILP64 builds (numpy's
# wheels) add the suffix 64_, the scipy-openblas builds the prefix scipy_.
_LAPACK_SYMBOLS = (
    ("scipy_{}_64_", "scipy_openblas_{}_num_threads64_", ctypes.c_int64),
    ("{}_64_", "openblas_{}_num_threads64_", ctypes.c_int64),
    ("scipy_{}_", "scipy_openblas_{}_num_threads", ctypes.c_int),
    ("{}_", "openblas_{}_num_threads", ctypes.c_int),
)


def _lapack_libraries():
    """Where ``dlasq1`` and ``dstevd`` are looked for, in order, as ``ctypes.CDLL``s.

    First numpy's bundled OpenBLAS (``_numpy_openblas``), mapped already.
    Then, only where none of those has them, the shared library of scipy's
    ``_flapack`` extension, which links scipy's own bundled LAPACK; mapping
    it runs no Python code, but locating it imports ``scipy``.
    """
    yield from _numpy_openblas()
    yield ctypes.CDLL(_flapack_path())


def _load_lapack(libraries):
    """``dlasq1``, ``dstevd`` and a thread pair from the first of ``libraries`` (``CDLL``s) with both.

    Each library is searched for the symbol pairs of ``_LAPACK_SYMBOLS``, in
    order, so both routines take the same integer, which each handle carries
    as its ``integer`` attribute, beside the library's path as ``library``;
    on Linux a library's lookup also reaches the libraries it links. Integers
    are passed as pointers to that type and arrays as addresses: ``dlasq1``
    takes (N, D, E, WORK, INFO), ``dstevd`` (JOBZ, N, D, E, Z, LDZ, WORK,
    LWORK, IWORK, LIWORK, INFO) and the hidden length of JOBZ. The thread
    pair is (setter, getter) of the pool's thread count, by the thread
    symbols of the same row, both taking or returning a C ``int``; it is
    None unless the library lies in ``numpy.libs`` and exports both, as only
    numpy's pool runs numpy's BLAS products. Neither is called here. Where
    no library has the routines, ImportError names the last path searched.
    Nothing is added to ``sys.modules``.
    """
    path = None
    for library in libraries:
        path = library._name
        for symbol, threads, integer in _LAPACK_SYMBOLS:
            lasq1 = getattr(library, symbol.format("dlasq1"), None)
            stevd = getattr(library, symbol.format("dstevd"), None)
            if lasq1 is not None and stevd is not None:
                pointer, address = ctypes.POINTER(integer), ctypes.c_void_p
                lasq1.argtypes = (pointer,) + (address,) * 3 + (pointer,)
                stevd.argtypes = (ctypes.c_char_p, pointer, address, address, address, pointer,
                                  address, pointer, address, pointer, pointer, ctypes.c_size_t)
                for routine in (lasq1, stevd):
                    routine.restype, routine.integer, routine.library = None, integer, path
                setter = getattr(library, threads.format("set"), None)
                getter = getattr(library, threads.format("get"), None)
                if Path(path).parent != _NUMPY_LIBS or setter is None or getter is None:
                    return lasq1, stevd, None
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                getter.argtypes, getter.restype = (), ctypes.c_int
                return lasq1, stevd, (setter, getter)
    raise ImportError(f"LAPACK dlasq1 and dstevd not found in {path}", path=path)


_lasq1, _dstevd, _blas_threads = _load_lapack(_lapack_libraries())


def _stevd(diag: np.ndarray, off: np.ndarray):
    """LAPACK ``dstevd`` with eigenvectors (``_dstevd``) on copies of ``diag`` and ``off``.

    Returns (energies, vectors, info): energies ascending, eigenvector k as
    column ``vectors[:, k]`` of an (N, N) array in Fortran order, and the
    routine's status. ``dstevd`` overwrites D and E, and ``ctypes`` does not
    see a read-only flag, so both are copied first. The workspace sizes are
    LWORK = 1 + 4N + N^2 and LIWORK = 3 + 5N, the least ``dstevd`` takes
    for JOBZ = 'V', so memory is the (N, N) result beside its workspace.
    """
    n = diag.size
    integer = _dstevd.integer
    energies, off = np.array(diag, dtype=float), np.array(off, dtype=float)
    vectors = np.empty((n, n), order="F")
    work = np.empty(1 + 4 * n + n * n)
    iwork = np.empty(3 + 5 * n, dtype=integer)
    size, info = integer(n), integer()
    _dstevd(
        b"V", size, energies.ctypes.data, off.ctypes.data, vectors.ctypes.data, size,
        work.ctypes.data, integer(work.size), iwork.ctypes.data, integer(iwork.size), info, 1,
    )
    return energies, vectors, info.value


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors (as columns).

    ``energies[k]`` pairs with column ``vectors[:, k]``; every entry is
    finite. Both are immutable copies of the given arrays
    (``_validate.frozen``), so building one takes a second (N, N) array
    beside the given vectors, whichever route builds it. The class leaves
    column signs as given; the route that builds one sets them by the gauge
    rule of the module docstring.
    """

    energies: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        energies = _validate.frozen("energies", self.energies)
        vectors = _validate.frozen("vectors", self.vectors, ndim=2)
        if vectors.shape != (energies.size, energies.size):
            raise InvalidInputError("energies must be (N,) and vectors (N, N)")
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "vectors", vectors)

    @property
    def n_sites(self) -> int:
        return self.energies.size


def _fix_column_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip the columns of ``vectors`` in place into the gauge of ``diagonalize``
    (the rule is in the module docstring), and return it.

    Sign flips are exact, so the result does not depend on how it is computed.
    """
    magnitudes = np.abs(vectors)
    significant = magnitudes > 1e-12 * magnitudes.max(axis=0)
    del magnitudes  # freed before the caller's copy, so the peak stays at two (N, N) arrays
    leading = vectors[np.argmax(significant, axis=0), np.arange(vectors.shape[1])]
    vectors *= np.where(leading < 0, -1.0, 1.0)
    return vectors


def _solve(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors (rows) of one tridiagonal matrix, checked.

    The one call of LAPACK ``dstevd``, the driver scipy's tridiagonal
    eigensolver picks by default in scipy 1.17. ``_stevd`` calls it by
    ``ctypes`` from the library that also runs ``dlasq1`` (see the module
    docstring), on copies of ``diag`` and ``off``, with the workspace sizes
    scipy's wrapper uses. It calls that library's threaded BLAS, so from
    N = 202 on its bits can depend on ``OPENBLAS_NUM_THREADS``, as those of
    scipy's library did. On one thread the two libraries gave equal bits on
    clean chains N = 2-1000; on two, eigenvectors up to 2.5e-16 apart.
    Eigenvector k is row ``vectors[k]``, a transposed view of the driver's
    columns. A nonzero ``info`` raises NumericalFailureError, and so does a
    result that fails ``_check_residual``.
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


def _pair_sums(y: np.ndarray, spread: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """prod_(j != k) |y_k - y_j| (as ``_product``) and sum_(j != k) (s_k + s_j)/|y_k - y_j|.

    ``y`` and ``spread`` s are (chains, m). The gaps are formed for a block
    of k at a time, each block at most half of ``_BLOCK_BYTES`` (the
    broadcast subtraction takes twice its output); each k's product and sum
    run over its whole row, so they do not depend on the block.
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
        gaps *= spread[:, None, :]
        sums[:, k] *= spread[:, k]
        sums[:, k] += gaps.sum(axis=-1)
        del gaps, diagonal  # freed before the next block is formed, so steps do not stack
    return mantissa, exponent, sums


def _squared_spectrum(scaled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sigma_k^2 of each chain, ascending, with their error bounds.

    ``scaled`` (chains, N-1) holds the bonds, scaled so that max|b| < 1; N
    and its parity come from its shape. The zero-diagonal chain is the
    Golub-Kahan form of the bidiagonal matrix with diagonal b_1, b_3, ... and
    superdiagonal b_2, b_4, ..., with a zero diagonal entry appended for odd N
    (order m + 1, one zero singular value): its eigenvalues are +-sigma_k, the
    singular values of that matrix. One LAPACK ``dlasq1`` (dqds) call per
    chain computes them, in place on a row of one (chains, order) array, to
    high relative accuracy (Demmel and Kahan 1990; Fernando and Parlett
    1994): each within a few (m + 1) eps, relative, whatever the gaps. The
    bound dy_k = 4 (m + 1) eps y_k + 2^-1074 on y_k = sigma_k^2 is a-priori;
    its last term is the absolute rounding of a subnormal square.

    NumericalFailureError is raised for a nonzero ``info`` and for values
    that miss either moment identity by more than rounding allows:
    sum sigma^2 = sum_i b_i^2 (the check that every value was solved), and
    sum sigma^4 = (1/2) trace(H^4) = (1/2) sum_i (H^2)_ii^2 + sum_i b_i^2 b_(i+1)^2,
    with (H^2)_ii = b_(i-1)^2 + b_i^2, which sees a pair moved with its sum kept.
    Both sums run over every value of the call, the zero of odd N included.
    """
    chains, n = scaled.shape[0], scaled.shape[1] + 1
    m, odd = divmod(n, 2)
    order = m + odd
    d = np.zeros((chains, order))
    e = np.zeros((chains, order))
    d[:, :m] = scaled[:, 0::2]
    e[:, : n - 1 - m] = scaled[:, 1::2]
    work = np.empty(4 * order)
    size, info = _lasq1.integer(order), _lasq1.integer()
    d_at, e_at, work_at, row = d.ctypes.data, e.ctypes.data, work.ctypes.data, d.strides[0]
    for r in range(chains):
        _lasq1(size, d_at + r * row, e_at + r * row, work_at, info)
        if info.value != 0:
            raise NumericalFailureError(f"LAPACK dlasq1 failed with info = {info.value}")
    values = d * d  # descending, the zero of odd N last
    squares = scaled * scaled
    diagonal = np.zeros((chains, n))  # (H^2)_ii
    diagonal[:, 1:] = squares
    diagonal[:, :-1] += squares
    fourth = 0.5 * (diagonal * diagonal).sum(axis=-1)
    fourth += (squares[:, 1:] * squares[:, :-1]).sum(axis=-1)
    moments = (("the trace sum_j b_j^2", squares.sum(axis=-1)), ("trace(H^4)/2", fourth))
    for power, (name, exact) in enumerate(moments, 1):
        total = (values**power).sum(axis=-1)
        slack = 4 * power * (m + 1) * _EPS * (total + exact)
        missed = np.flatnonzero(~(np.abs(total - exact) <= slack))
        if missed.size:
            chain = missed[0]
            raise NumericalFailureError(
                f"dlasq1 singular values: sum sigma^{2 * power} = {total[chain]:.17g} "
                f"misses {name} = {exact[chain]:.17g}"
            )
    y = values[:, m - 1 :: -1].copy()
    return y, 4 * (m + 1) * _EPS * y + 2.0**-1074


def _end_weights(bonds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half spectrum (sigma_k, c_k) of each chain in a stack, and its certificate ``beta``.

    ``bonds`` is a stack (chains, N-1); sigma and c are (chains, (N+1)//2),
    ``beta`` is (chains,), and row r of each depends on bond row r alone,
    bit for bit. The constant diagonal -(N-2)B only multiplies f_N by a
    global phase, so it is left out, and with it its rounding in |f_N|. The
    chain H then has a zero diagonal: it is bipartite, its spectrum is
    +-sigma_k, k = 1..m = N//2 (and 0 for odd N), and the sigma_k are the
    singular values of a bidiagonal matrix of the bonds (Golub and Kahan
    1965). ``_squared_spectrum`` computes them with ``dlasq1``, on bonds
    scaled by a power of two (no square overflows), and the same ``ldexp``
    scales them back, with no bit changed; ``dlasq1`` makes no threaded BLAS
    call, so no bit depends on ``OPENBLAS_NUM_THREADS``. The end weights
    w = v[1] v[N] are the residues of (z - H)^-1_(1N) = prod_j b_j / det(z - H)
    (Golub and Welsch 1969):

        |w(+-sigma_k)| = prod|b| / (2 sigma_k [sigma_k if N odd]
                                    prod_(j != k) |sigma_k^2 - sigma_j^2|),

    the zero mode of odd N has prod|b| / prod_j sigma_j^2, and the sign of
    w(E) is sign(prod_j b_j) (-1)^(N-i) at place i of the ascending
    spectrum. The products run over the m^2 pairs of the half spectrum (one
    ``_pair_sums`` pass), not over N^2 gaps. The two mirror images
    w(+-sigma_k) sum in f_N to c_k = 2 w(sigma_k) times sin or cos, so

        f_N(t) = -i sum_k c_k sin(sigma_k t)  (N even),   sum_k c_k cos(sigma_k t)  (N odd),

    the columns ascending in sigma; for odd N column 0 is the zero mode,
    sigma_0 = 0 and c_0 = w(0). A zero bond splits the chain: c = 0 exactly,
    so f_N = 0.

    The certificate ``beta = sum_k |w_k| rho_k`` over the full spectrum is a
    first-order bound on the error the weights put into |f_N(t)|, at any t,
    and so on sum_k |c_k - exact c_k|. With each sigma_k^2 within dy_k of
    the exact one (``_squared_spectrum``), each weight is within
    rho_k = sum_(j != k) (dy_k + dy_j)/|sigma_k^2 - sigma_j^2| +
    dy_k/(2 sigma_k^2) [twice for odd N] + 2N eps of its value, relative.
    ``beta`` is inf where neighbours, or sigma_1^2 and 0, lie within twice
    their dy, or where a weight is not finite; and 0 for a split chain. The
    errors raised are those of ``_squared_spectrum``.
    """
    chains, n = bonds.shape[0], bonds.shape[1] + 1
    m, odd = divmod(n, 2)
    scale = np.frexp(np.abs(bonds).max(axis=-1))[1]  # max|b| in [1/2, 1) once scaled
    scaled = np.ldexp(bonds, -scale[:, None])
    bond_product, bond_exponent = _product(np.abs(scaled))
    sign = np.sign(bonds).prod(axis=-1)  # 0 for a zero bond
    split = sign == 0
    # zero bonds and gaps give infinities here; the certificate turns them away
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        y, dy = _squared_spectrum(scaled)
        del scaled
        gaps, gaps_exponent, rho = _pair_sums(y, dy)
        sigma = np.zeros((chains, m + odd))  # made after the pass's peak
        amplitudes = np.empty((chains, m + odd))
        np.sqrt(y, out=sigma[:, odd:])
        gaps *= y if odd else sigma
        gaps *= 2.0
        np.divide(bond_product[:, None], gaps, out=gaps)
        np.subtract(bond_exponent[:, None], gaps_exponent, out=gaps_exponent)
        magnitudes = amplitudes[:, odd:]
        np.ldexp(gaps, gaps_exponent, out=magnitudes)
        del gaps, gaps_exponent
        rho += dy / y * (0.5 + 0.5 * odd) + 2 * n * _EPS  # dy / y first: 0.5 dy may underflow
        beta = 2 * (magnitudes * rho).sum(axis=-1)
        if odd:
            y_product, y_exponent = _product(y)
            amplitudes[:, 0] = np.ldexp(bond_product / y_product, bond_exponent - y_exponent)
            beta += amplitudes[:, 0] * ((dy / y).sum(axis=-1) + 2 * n * _EPS)
        resolved = (
            (y[:, 0] > 2 * dy[:, 0])
            & (y[:, 1:] - y[:, :-1] > 2 * (dy[:, 1:] + dy[:, :-1])).all(axis=-1)
            & (beta <= np.inf)
        )
        beta[~resolved] = np.inf
    # c_k = 2 w(sigma_k): 2 (-1)^(N-i), i the place of sigma_k in the ascending E
    parity = 2.0 * (-1.0) ** np.arange(m + odd - 1, -1, -1)
    parity[:odd] *= 0.5  # the zero mode of odd N is its own mirror: c_0 = w(0)
    amplitudes *= sign[:, None] * parity
    amplitudes[split] = 0.0
    beta[split] = 0.0
    return np.ldexp(sigma, scale[:, None]), amplitudes, beta


def _end_spectrum(bonds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half spectrum (sigma_k, c_k) of a stack (chains, N-1), as ``_end_weights`` defines it.

    Every chain is read without the constant diagonal -(N-2)B, a global
    phase of f_N, so all rows of a stack share one energy convention. A row
    whose certificate ``beta`` is at most END_WEIGHT_ATOL is ``_end_weights``'
    own, bit for bit. A chain past it (near-degenerate pairs, as in two
    nearly equal halves, where the eigenvalue bounds reach the gaps, or a
    sigma_k^2 below the normal range, as with end bonds under about 1e-78 of
    the largest) is solved by one guarded ``_solve`` on a zero diagonal
    (v_k[1] v_k[N] does not depend on the sign gauge), and its full
    spectrum is folded onto the half spectrum in its row: with
    E_(N-1-j) = -E_j and w_(N-1-j) = (-1)^(N+1) w_j for the eigenvalues E
    and end weights w, ascending, sigma = (E_j - E_(N-1-j))/2 and
    c = w_j + (-1)^(N+1) w_(N-1-j) for j >= N//2, the middle term of odd N
    halved (c_0 = w_0). The fold averages the two mirror halves of
    ``dstevd``'s spectrum. Row r depends on bond row r alone.
    """
    sigma, amplitudes, beta = _end_weights(bonds)
    n = bonds.shape[1] + 1
    diag = np.zeros(n)
    for r in np.flatnonzero(~(beta <= END_WEIGHT_ATOL)):
        energies, vectors = _solve(diag, bonds[r])
        weights = vectors[:, 0] * vectors[:, -1]
        sigma[r] = 0.5 * (energies - energies[::-1])[n // 2 :]
        amplitudes[r] = (weights + (-1) ** (n + 1) * weights[::-1])[n // 2 :]
        amplitudes[r, : n % 2] *= 0.5  # odd N: the zero mode is its own mirror
    return sigma, amplitudes


def diagonalize(hamiltonian: SingleExcitationHamiltonian) -> SpectralDecomposition:
    """Full eigendecomposition of the single-excitation block.

    Validation, one guarded ``_solve`` (LAPACK ``dstevd`` and the residual
    contract), then the sign gauge. Raises NumericalFailureError (carrying
    the worst per-column residual) if LAPACK reports failure or if
    max_k ||H v_k - E_k v_k|| exceeds RESIDUAL_RTOL times an infinity-norm
    bound on H. Memory: two (N, N) arrays at a time (the solver's
    eigenvectors beside its workspace, the gauge's magnitudes, or the
    decomposition's immutable copy), and the gauge's boolean mask; the
    gauge flips the solver's eigenvectors in place. The peak is 2.14 N^2
    doubles (tracemalloc, N = 1000).
    """
    _validate.instance("hamiltonian", hamiltonian, SingleExcitationHamiltonian)
    energies, vectors = _solve(hamiltonian.diagonal, hamiltonian.offdiagonal)
    return SpectralDecomposition(energies=energies, vectors=_fix_column_signs(vectors.T))


def analytic_uniform_spectrum(
    n_sites: int, coupling: float, field: float
) -> SpectralDecomposition:
    """Closed-form spectrum of the uniform chain.

    E_k = -2J cos(k pi/(N+1)) - (N-2) B for k = 1..N, with eigenvectors
    v_k[n] = (-1)^(n-1) sqrt(2/(N+1)) sin(k pi n/(N+1)). Memory: the
    angles become their sines and the vectors in place, and the
    decomposition's immutable copy is the second (N, N) array; the peak is
    2.00 N^2 doubles (tracemalloc, N = 1000).
    """
    n = _validate.sites(n_sites)
    coupling = _validate.positive("coupling", coupling)
    field = _validate.positive("field", field)
    k = np.arange(1, n + 1)
    theta = k * math.pi / (n + 1)
    energies = -2.0 * coupling * np.cos(theta) - (n - 2) * field
    sites = np.arange(1, n + 1)
    vectors = np.outer(sites, theta)
    np.sin(vectors, out=vectors)
    vectors *= math.sqrt(2.0 / (n + 1))
    vectors *= np.where(sites % 2 == 1, 1.0, -1.0)[:, None]  # alternating gauge
    return SpectralDecomposition(energies, vectors)


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
    past N ~ 2045, zero past 2149). Memory: the vectors are built in place,
    and the decomposition's immutable copy of them is the second (N, N)
    array; the peak is 2.00 N^2 doubles (tracemalloc, N = 1000), where
    building in place alone held 1.02.
    """
    n = _validate.sites(n_sites)
    coupling = _validate.positive("coupling", coupling)
    field = _validate.positive("field", field)
    energies = _pst_ladder(n, coupling) - (n - 2) * field
    return SpectralDecomposition(energies, _pst_vectors(n))
