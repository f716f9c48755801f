"""Excitation transport: transition amplitudes and the receiver qubit state.

The sender qubit at site 1 is prepared in cos(theta/2)|0> + e^{i phi}
sin(theta/2)|1> with the rest of the chain in the vacuum. Everything
downstream depends on the complex transition amplitude

    f_n(t) = sum_k v_k[1] v_k[n] exp(-i E_k t),

the overlap of the time-evolved one-excitation wavepacket with site n. The
spectral route works for any bond set; the uniform and engineered chains also
admit closed forms, and the uniform bulk admits a Bessel-function limit.
Route-vs-route contracts compare |f|: the closed forms are written without
the constant field offset on the diagonal, so their phases differ from the
spectral route by a global factor while the moduli agree.
"""

from __future__ import annotations

import ctypes
import math
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _validate
from .errors import InvalidInputError, NumericalFailureError
from .chain import gn_factor
from .spectral import SpectralDecomposition

__all__ = [
    "InitialSiteState",
    "TransitionAmplitude",
    "QubitState",
    "amplitude_spectral",
    "amplitude_profile",
    "amplitude_uniform_closed",
    "amplitude_pst_closed",
    "amplitude_bessel_limit",
    "reduced_state",
]


@dataclass(frozen=True)
class InitialSiteState:
    """Sender preparation cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", _validate.angle("theta", self.theta))
        object.__setattr__(self, "phi", _validate.real("phi", self.phi))

    @property
    def excited_population(self) -> float:
        return math.sin(0.5 * self.theta) ** 2

    @property
    def initial_coherence(self) -> complex:
        # rho_01(0) = <0|rho|1> for the pure preparation
        return (
            math.cos(0.5 * self.theta)
            * math.sin(0.5 * self.theta)
            * complex(math.cos(self.phi), -math.sin(self.phi))
        )


@dataclass(frozen=True)
class TransitionAmplitude:
    """Complex amplitude f_site(time) for one site and time.

    |value| <= 1 for any amplitude computed from an actual chain. The bulk
    Bessel formula is an approximation and can exceed 1 (site 1 at small
    times is the worst case); it is returned as written, not clamped.
    """

    value: complex
    site: int
    time: float

    @property
    def modulus(self) -> float:
        return abs(self.value)


def amplitude_spectral(
    decomposition: SpectralDecomposition, site: int, time: float
) -> TransitionAmplitude:
    """f_site(time) summed over the eigendecomposition. Works for any bonds.

    The constant diagonal -(N-2)B of the chain stays in the energies. It is
    a global phase, but its rounding in E_k t moves |f|: against the same
    sum with the diagonal removed, by at most 2.1e-12, 7.4e-12 and 1.4e-11
    at N = 500, 1000 and 2000 (J = B = 1; clean and disordered chains at
    alpha 0, 0.5 and 1; 61 times up to 1.2 reflection times). That is well
    below N^2 eps (8.8e-10 at N = 2000).
    """
    if not isinstance(decomposition, SpectralDecomposition):
        raise InvalidInputError("decomposition must be a SpectralDecomposition")
    site = _validate.integer("site", site, 1, decomposition.n_sites)
    time = _validate.real("time", time)
    weights = decomposition.vectors[0, :] * decomposition.vectors[site - 1, :]
    value = complex(np.sum(weights * np.exp(-1j * decomposition.energies * time)))
    return TransitionAmplitude(value=value, site=site, time=time)


# Thread-count setter and getter of a bundled OpenBLAS, in the order tried:
# scipy-openblas wheels (64-bit integers, then 32-bit), then plain OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _numpy_openblas_threads():
    """(setter, getter) of the thread count of numpy's bundled OpenBLAS, or None.

    The library is the one in the wheel's ``numpy.libs`` directory; numpy has
    mapped it already, so ``CDLL`` returns that copy and loads nothing new.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


class _OneBlasThread:
    """Context manager: numpy's BLAS products inside it run on one OpenBLAS thread.

    numpy and scipy each bundle an OpenBLAS with its own thread pool, and each
    pool's worker spins for a while after a threaded call. On a 2-core host a
    threaded numpy product therefore competes with scipy's worker still
    spinning from the eigensolve. Right after a solve, the N = 256 window
    product took a median 4.5 ms on one thread against 6.7-31 ms on two, and
    at N = 1000 35-37 ms against 47-72 ms (20 calls each, two runs, 2-core
    x86-64 host). One thread also makes the product's bits independent of
    ``OPENBLAS_NUM_THREADS``; on two, windows from N = 130 on can differ in
    the last bits (by up to 6e-16).

    The first caller to enter saves numpy's thread count and sets it to 1;
    the last to leave restores it, after an exception too. A lock and a depth
    counter make this hold for nested and concurrent callers, so the count
    can neither stay at 1 nor be restored under another caller's product.
    The library is looked up on first entry, not at import. When numpy's
    BLAS is not a bundled OpenBLAS with these symbols (a source build against
    another BLAS, a wheel laid out differently), entering does nothing and
    the products run on that BLAS's own threads. scipy's OpenBLAS, which
    runs the eigensolves, is never touched.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._resolved = False
        self._api = None
        self._depth = 0
        self._saved = 1

    def __enter__(self) -> None:
        with self._lock:
            if not self._resolved:
                self._api = _numpy_openblas_threads()
                self._resolved = True
            if self._api is not None and self._depth == 0:
                setter, getter = self._api
                self._saved = getter()
                setter(1)
            self._depth += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._depth -= 1
            if self._api is not None and self._depth == 0:
                self._api[0](self._saved)


_one_blas_thread = _OneBlasThread()


def amplitude_profile(
    decomposition: SpectralDecomposition, site: int, times: np.ndarray
) -> np.ndarray:
    """Vectorized f_site(t) over an array of times (same sum as amplitude_spectral).

    The (T, N) phase matrix times the weight vector is one BLAS product, run
    on one thread of numpy's OpenBLAS (``_OneBlasThread``), so its bits do
    not depend on ``OPENBLAS_NUM_THREADS``.
    """
    if not isinstance(decomposition, SpectralDecomposition):
        raise InvalidInputError("decomposition must be a SpectralDecomposition")
    site = _validate.integer("site", site, 1, decomposition.n_sites)
    times = _validate.reals("times", times)
    if times.ndim != 1:
        raise InvalidInputError("times must be a 1-D array")
    weights = decomposition.vectors[0, :] * decomposition.vectors[site - 1, :]
    phases = np.exp(-1j * np.outer(times, decomposition.energies))
    with _one_blas_thread:
        return phases @ weights


def _amplitude_grid(
    decomposition: SpectralDecomposition, site: int, step: float, count: int
) -> np.ndarray:
    """f_site(t_i) on the arithmetic grid t_i = (i+1) step, i = 0..count-1.

    With B = ceil(sqrt(count)) and i = b B + j, each phase factors as
    exp(-i E (j+1) step) exp(-i E b B step). So (B + G) N exponentials and one
    (G, N) @ (N, B) product replace the (count, N) phase matrix of
    ``amplitude_profile``, and memory is O(N sqrt(count)). The product runs
    on one thread of numpy's OpenBLAS (``_OneBlasThread``): it is faster so
    on a 2-core host, and its bits do not depend on ``OPENBLAS_NUM_THREADS``.
    """
    energies = decomposition.energies
    weights = decomposition.vectors[0, :] * decomposition.vectors[site - 1, :]
    block = math.isqrt(count - 1) + 1
    blocks = -(-count // block)
    near = np.exp(-1j * np.outer(np.arange(1, block + 1) * step, energies)) * weights
    far = np.exp(-1j * np.outer(np.arange(blocks) * (block * step), energies))
    with _one_blas_thread:
        product = far @ near.T
    return product.ravel()[:count]


def amplitude_uniform_closed(
    n_sites: int, coupling: float, site: int, time: float
) -> TransitionAmplitude:
    """Closed-form f_site(time) for the uniform chain (hopping part only).

    f_n(t) = (-1)^(n-1) (2/(N+1)) sum_k sin(theta_k) sin(n theta_k)
             exp(2 i J t cos theta_k),  theta_k = k pi/(N+1).
    """
    n_sites = _validate.integer("n_sites", n_sites, 2)
    coupling = _validate.positive("coupling", coupling)
    site = _validate.integer("site", site, 1, n_sites)
    time = _validate.real("time", time)
    k = np.arange(1, n_sites + 1)
    theta = k * math.pi / (n_sites + 1)
    phases = np.exp(2j * coupling * time * np.cos(theta))
    total = np.sum(np.sin(theta) * np.sin(site * theta) * phases)
    value = complex((-1.0) ** (site - 1) * 2.0 / (n_sites + 1) * total)
    return TransitionAmplitude(value=value, site=site, time=time)


def _stirling_error(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n) for n >= 1, to a few ulp (the series from 16 on)."""
    if n < 16:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - 0.5 * math.log(2.0 * math.pi)
    nn = 1.0 / (n * n)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - nn / 1188) * nn) * nn) * nn) / n


def amplitude_pst_closed(
    n_sites: int, coupling: float, site: int, time: float
) -> TransitionAmplitude:
    """Closed-form f_site(time) for the engineered chain (hopping part only).

    The chain is a spin-(N-1)/2 rotation, so with l = 2J G_N / N (half the
    spacing of the ladder E_k = -(2J/N)(N - (2k-1)) G_N)

        f_n(t) = (-i)^(n-1) sqrt(C(N-1, n-1)) cos(lt)^(N-n) sin(lt)^(n-1),

    and |f_N| = 1 at the refocusing time t = pi N/(4 J G_N). The modulus is
    taken in log space, finite at any N: the binomial through Stirling's
    formula and its error term (no N log N terms to cancel), the larger of
    |cos|, |sin| through log1p of the smaller one's square. Against 50-digit
    arithmetic it is within 7e-14 at N <= 5000 and 2e-13 at N = 20000
    (edge, middle and end sites, at their peaks and at random times).
    """
    n = _validate.integer("n_sites", n_sites, 2)
    coupling = _validate.positive("coupling", coupling)
    site = _validate.integer("site", site, 1, n)
    time = _validate.real("time", time)
    angle = (2.0 * coupling / n) * gn_factor(n) * time
    if not math.isfinite(angle):
        raise NumericalFailureError(f"closed-form PST amplitude: phase {angle} at t={time}")
    cos, sin = math.cos(angle), math.sin(angle)
    small = min(abs(cos), abs(sin))
    log_small = math.log(small) if small else -math.inf
    log_large = 0.5 * math.log1p(-small * small)
    log_cos, log_sin = (log_small, log_large) if abs(cos) <= abs(sin) else (log_large, log_small)
    m, x = n - 1, site - 1  # |f|^2 is the binomial(m, sin^2) probability of x
    if x in (0, m):
        log_modulus = m * (log_cos if x == 0 else log_sin)
    else:
        log_modulus = (
            x * (log_sin - 0.5 * math.log(x / m))
            + (m - x) * (log_cos - 0.5 * math.log((m - x) / m))
            + 0.5 * (_stirling_error(m) - _stirling_error(x) - _stirling_error(m - x))
            - 0.25 * math.log(2.0 * math.pi * x * (m - x) / m)
        )
    phase = (-1j) ** (x % 4) * math.copysign(1.0, cos) ** (m - x) * math.copysign(1.0, sin) ** x
    return TransitionAmplitude(value=complex(phase * math.exp(log_modulus)), site=site, time=time)


def amplitude_bessel_limit(site: int, coupling: float, time: float) -> TransitionAmplitude:
    """Bulk (N -> infinity) amplitude for the uniform chain, as written:

    f_n(t) = delta_{n,1} J_0(2Jt) + i^(n-1) J_{n-1}(2Jt).

    Note the n=1 anomaly: at t=0 the two terms add to 2 instead of 1. The
    formula is intended for propagation away from the injection site and is
    reproduced verbatim, anomaly included.

    ``scipy.special`` (for ``jv``) is imported on the first call, which costs
    about 0.3 s once per process; importing ergochain does not load it.
    """
    site = _validate.integer("site", site, 1)
    coupling = _validate.positive("coupling", coupling)
    time = _validate.real("time", time)
    from scipy.special import jv

    x = 2.0 * coupling * time
    value = complex(1j) ** (site - 1) * jv(site - 1, x)
    if site == 1:
        value = value + jv(0, x)
    return TransitionAmplitude(value=complex(value), site=site, time=time)


@dataclass(frozen=True)
class QubitState:
    """Receiver qubit: excited population p1 and coherence c = <0|rho|1>.

    Positivity |c|^2 <= p0 p1 is enforced up to a small numerical slack.
    """

    excited_population: float
    coherence: complex

    _POSITIVITY_SLACK = 1e-10

    def __post_init__(self) -> None:
        p1 = _validate.unit_interval("excited_population", self.excited_population)
        c = _validate.complex_number("coherence", self.coherence)
        if abs(c) ** 2 > p1 * (1.0 - p1) + self._POSITIVITY_SLACK:
            raise InvalidInputError(
                f"coherence {abs(c):.6g} violates positivity for p1={p1:.6g}"
            )
        object.__setattr__(self, "excited_population", p1)
        object.__setattr__(self, "coherence", c)

    @property
    def ground_population(self) -> float:
        return 1.0 - self.excited_population


def reduced_state(initial: InitialSiteState, amplitude: TransitionAmplitude) -> QubitState:
    """Receiver qubit state once the excitation amplitude f has arrived.

    p1 = sin^2(theta/2) |f|^2 and c = rho_01(0) f: the receiver inherits the
    sender's coherence scaled by the transition amplitude. Only |f| <= 1
    amplitudes are meaningful here (the bulk Bessel formula near site 1 is
    not a valid input).
    """
    if not isinstance(initial, InitialSiteState):
        raise InvalidInputError("initial must be an InitialSiteState")
    if not isinstance(amplitude, TransitionAmplitude):
        raise InvalidInputError("amplitude must be a TransitionAmplitude")
    f = amplitude.value
    if abs(f) > 1.0 + 1e-9:
        raise InvalidInputError(f"|f| = {abs(f):.6g} > 1 is not a chain amplitude")
    p1 = initial.excited_population * abs(f) ** 2
    c = initial.initial_coherence * f
    return QubitState(excited_population=p1, coherence=c)
