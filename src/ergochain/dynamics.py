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

The receiver reads only F = |f_N|^2, and the package computes every F from
the half spectrum (sigma_k, c_k) of ``spectral._end_spectrum``. Without its
diagonal the chain is bipartite, so f_N = -i sum_k c_k sin(sigma_k t) for
even N and sum_k c_k cos(sigma_k t) for odd N: F is the square of a real sum.
Two readouts consume it, ``_end_fidelities`` at one time for a stack of
chains and ``_window_fidelities`` over an arithmetic grid of times. Both
apply the package's one clip rule, min(F, 1), against roundoff past 1.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import _validate
from .errors import InvalidInputError, NumericalFailureError
from .chain import gn_factor
from .spectral import SpectralDecomposition, _blas_threads, _end_spectrum

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

    The one-time case of ``amplitude_profile``: one formula, and so the same
    bits, for a scalar time and an array of times. The constant diagonal
    -(N-2)B of the chain stays in the energies. It is a global phase, but
    its rounding in E_k t moves |f|: against the same sum with the diagonal
    removed, by at most 2.1e-12, 7.4e-12 and 1.4e-11 at N = 500, 1000 and
    2000 (J = B = 1; clean and disordered chains at alpha 0, 0.5 and 1; 61
    times up to 1.2 reflection times). That is well below N^2 eps
    (8.8e-10 at N = 2000).
    """
    time = _validate.real("time", time)  # a scalar; the profile validates the rest
    value = complex(amplitude_profile(decomposition, site, [time])[0])
    return TransitionAmplitude(value=value, site=int(site), time=time)


def _end_fidelities(bonds: np.ndarray, time: float) -> np.ndarray:
    """F = min(|f_N(time)|^2, 1) of each chain in a stack of bond rows (chains, N-1).

    From the half spectrum of ``spectral._end_spectrum`` (the certified
    eigenvalue route, or ``dstevd`` past the certificate, both without the
    constant diagonal -(N-2)B, a global phase), f_N is a real sum up to a
    factor -i: F = (sum_k c_k g(sigma_k t))^2 with g = sin for even N and
    cos for odd N. The one clip rule of the package, min(F, 1), takes off
    the roundoff that puts a perfect transfer past 1 (F - 1 = +1.8e-12 on
    the engineered chain at N = 2500). Entry r depends on bond row r alone,
    bit for bit, so a chain read in a stack and on its own give the same F.
    """
    sigma, amplitudes = _end_spectrum(bonds)
    if not math.isfinite(float(sigma.max()) * time):  # before numpy's product overflows
        raise NumericalFailureError(f"phase sigma t of f_N overflows at t = {time}")
    wave = np.sin if bonds.shape[1] % 2 else np.cos
    sums = (amplitudes * wave(sigma * time)).sum(axis=-1)
    return np.minimum(sums * sums, 1.0)


class _OneBlasThread:
    """Context manager: numpy's BLAS products inside it run on one OpenBLAS thread.

    The bits are the reason: on one thread the product's bits do not depend
    on ``OPENBLAS_NUM_THREADS``, while on two, windows from N = 130 on can
    differ in the last bits (by up to 6e-16). It is not a speed-up. The
    window's solve is one ``dlasq1`` call, which makes no threaded BLAS call,
    so no pool is left spinning before the product. Right after such a solve
    the N = 256 window product took a median 0.8-1.1 ms on one thread against
    0.6-0.8 ms on two (single calls on two reached 22-39 ms), and at N = 1000
    11-13 ms against 6.3-7.2 ms (20 calls each, five runs, 2-core x86-64
    host).

    ``threads`` is the (setter, getter) pair of numpy's OpenBLAS thread count
    that ``spectral`` binds at import, in the pass that finds ``dlasq1`` and
    ``dstevd`` (``spectral._blas_threads``). The first caller to enter saves
    the count and sets it to 1; the last to leave restores it, after an
    exception too. A lock and a depth counter make this hold for nested and
    concurrent callers, so the count can neither stay at 1 nor be restored
    under another caller's product. Where ``threads`` is None (numpy's BLAS
    is not a bundled OpenBLAS with these symbols: a source build against
    another BLAS, a wheel laid out differently), entering does nothing and
    the products run on that BLAS's own threads. ``dstevd`` and ``dlasq1``
    run in numpy's OpenBLAS too, so the pool is shared: a ``dstevd`` solve in
    another thread that overlaps a product runs on one thread, and from
    N = 202 on its bits can then differ from a solve on two. Nothing
    serializes the two; ``dlasq1`` makes no threaded call either way.
    """

    def __init__(self, threads) -> None:
        self._lock = threading.Lock()
        self._threads = threads
        self._depth = 0
        self._saved = 1

    def __enter__(self) -> None:
        with self._lock:
            if self._threads is not None and self._depth == 0:
                setter, getter = self._threads
                self._saved = getter()
                setter(1)
            self._depth += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._depth -= 1
            if self._threads is not None and self._depth == 0:
                self._threads[0](self._saved)


_one_blas_thread = _OneBlasThread(_blas_threads)


def amplitude_profile(
    decomposition: SpectralDecomposition, site: int, times: np.ndarray
) -> np.ndarray:
    """Vectorized f_site(t) over an array of times (``amplitude_spectral`` at each).

    The (T, N) phase matrix times the weight vector is one BLAS product, run
    on one thread of numpy's OpenBLAS (``_OneBlasThread``), so its bits do
    not depend on ``OPENBLAS_NUM_THREADS``. The phases are exponentiated in
    place, so the peak is 1.5 times the complex (T, N) matrix: the matrix and
    the real outer product it is made from (tracemalloc, N = 1000, T = 2000).
    Where max|E| max|t| overflows, a phase would be NaN, so that raises
    NumericalFailureError first.
    """
    _validate.instance("decomposition", decomposition, SpectralDecomposition)
    site = _validate.integer("site", site, 1, decomposition.n_sites)
    times = _validate.reals("times", times)
    if times.ndim != 1:
        raise InvalidInputError("times must be a 1-D array")
    top = float(np.abs(times).max()) if times.size else 0.0  # checked before numpy's phases
    if not math.isfinite(float(np.abs(decomposition.energies).max()) * top):
        raise NumericalFailureError(f"phase E t of f_{site} overflows at |t| = {top}")
    weights = decomposition.vectors[0, :] * decomposition.vectors[site - 1, :]
    phases = np.empty((times.size, decomposition.n_sites), complex)
    np.multiply(np.outer(times, decomposition.energies), -1j, out=phases)
    np.exp(phases, out=phases)
    with _one_blas_thread:
        return phases @ weights


def _window_fidelities(bonds: np.ndarray, step: float, count: int) -> np.ndarray:
    """F = min(|f_N(t_i)|^2, 1) of one chain (bond row ``bonds``) on t_i = (i+1) step, i < count.

    The half spectrum (sigma_k, c_k) of ``spectral._end_spectrum`` gives
    S(t) = sum_k c_k exp(-i sigma_k t). Its real part (odd N) or its
    imaginary part (even N) is the real sum of ``_end_fidelities``, up to
    sign. With B = ceil(sqrt(count)), G = ceil(count / B) and i = b B + j,
    each phase factors as exp(-i sigma (j+1) step) exp(-i sigma b B step).
    So one table of B near and G far rows over the h = (N+1)//2 columns,
    exponentiated in place, and one (G, h) @ (h, B) product replace the
    (count, N) phase matrix of ``amplitude_profile``; c multiplies the near
    rows in place. The table is O(N sqrt(count)); the (G, B) product (16 B
    per sample) and F (8 B) are O(count). At N = 2000 and 5000 (count =
    0.7 N / 0.01) the tracemalloc peak is the table and the real outer
    product it is made from, 1.51 and 1.50 complex (B, N) tables. The
    product runs on one thread of numpy's OpenBLAS (``_OneBlasThread``), so
    its bits do not depend on ``OPENBLAS_NUM_THREADS``. F is clipped as in
    ``_end_fidelities``.
    """
    sigma, amplitudes = _end_spectrum(bonds[None])
    if not math.isfinite(float(sigma.max()) * (count * step)):  # count step bounds the grid's times
        raise NumericalFailureError(f"phase sigma t of f_N overflows at t = {count * step}")
    block = math.isqrt(count - 1) + 1
    far_times = np.arange(-(-count // block)) * (block * step)
    times = np.concatenate((np.arange(1, block + 1) * step, far_times))
    table = np.empty((times.size, sigma.shape[1]), complex)
    np.multiply(np.outer(times, sigma[0]), -1j, out=table)
    np.exp(table, out=table)
    table[:block] *= amplitudes[0]
    with _one_blas_thread:
        product = table[block:] @ table[:block].T  # far rows times near rows
    sums = (product.imag if bonds.size % 2 else product.real).ravel()[:count]
    return np.minimum(sums * sums, 1.0)


def amplitude_uniform_closed(
    n_sites: int, coupling: float, site: int, time: float
) -> TransitionAmplitude:
    """Closed-form f_site(time) for the uniform chain (hopping part only).

    f_n(t) = (-1)^(n-1) (2/(N+1)) sum_k sin(theta_k) sin(n theta_k)
             exp(2 i J t cos theta_k),  theta_k = k pi/(N+1).

    A 2Jt that overflows (the phase would be NaN) raises NumericalFailureError.
    """
    n_sites = _validate.sites(n_sites)
    coupling = _validate.positive("coupling", coupling)
    site = _validate.integer("site", site, 1, n_sites)
    time = _validate.real("time", time)
    if not math.isfinite(2.0 * coupling * time):  # before numpy's phases
        raise NumericalFailureError(f"closed-form uniform amplitude: phase 2Jt at t={time}")
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
    n = _validate.sites(n_sites)
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
        # ``real`` first: p1 is a scalar, and ``unit_interval`` would take an array
        p1 = _validate.real("excited_population", self.excited_population)
        p1 = _validate.unit_interval("excited_population", p1)
        c = _validate.complex_number("coherence", self.coherence)
        if abs(c) * abs(c) > p1 * (1.0 - p1) + self._POSITIVITY_SLACK:  # ** 2 may overflow
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
    _validate.instance("initial", initial, InitialSiteState)
    f = _validate.instance("amplitude", amplitude, TransitionAmplitude).value
    if abs(f) > 1.0 + 1e-9:
        raise InvalidInputError(f"|f| = {abs(f):.6g} > 1 is not a chain amplitude")
    p1 = initial.excited_population * abs(f) ** 2
    c = initial.initial_coherence * f
    return QubitState(excited_population=p1, coherence=c)
