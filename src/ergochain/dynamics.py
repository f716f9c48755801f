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

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from .chain import gn_factor
from .errors import InvalidInputError, NumericalFailureError
from .spectral import SpectralDecomposition, krawtchouk

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
        for name in ("theta", "phi"):
            value = getattr(self, name)
            if not isinstance(value, (int, float, np.floating, np.integer)) or not math.isfinite(
                float(value)
            ):
                raise InvalidInputError(f"{name} must be a finite real, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not 0.0 <= self.theta <= math.pi:
            raise InvalidInputError(f"theta must lie in [0, pi], got {self.theta}")

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


def _check_site_time(site: int, time: float, n_sites: int | None = None) -> None:
    if isinstance(site, bool) or not isinstance(site, (int, np.integer)):
        raise InvalidInputError(f"site must be an integer, got {site!r}")
    if site < 1 or (n_sites is not None and site > n_sites):
        raise InvalidInputError(f"site {site} outside 1..{n_sites}")
    if not isinstance(time, (int, float, np.floating, np.integer)) or not math.isfinite(
        float(time)
    ):
        raise InvalidInputError(f"time must be a finite real, got {time!r}")


def amplitude_spectral(
    decomposition: SpectralDecomposition, site: int, time: float
) -> TransitionAmplitude:
    """f_site(time) summed over the eigendecomposition. Works for any bonds."""
    if not isinstance(decomposition, SpectralDecomposition):
        raise InvalidInputError("decomposition must be a SpectralDecomposition")
    _check_site_time(site, time, decomposition.n_sites)
    weights = decomposition.vectors[0, :] * decomposition.vectors[site - 1, :]
    value = complex(np.sum(weights * np.exp(-1j * decomposition.energies * float(time))))
    return TransitionAmplitude(value=value, site=int(site), time=float(time))


def amplitude_profile(
    decomposition: SpectralDecomposition, site: int, times: np.ndarray
) -> np.ndarray:
    """Vectorized f_site(t) over an array of times (same sum as amplitude_spectral)."""
    if not isinstance(decomposition, SpectralDecomposition):
        raise InvalidInputError("decomposition must be a SpectralDecomposition")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise InvalidInputError("times must be a 1-D array")
    if times.size:
        _check_site_time(site, float(times[0]), decomposition.n_sites)
        if not np.all(np.isfinite(times)):
            raise InvalidInputError("times must all be finite")
    else:
        _check_site_time(site, 0.0, decomposition.n_sites)
    weights = decomposition.vectors[0, :] * decomposition.vectors[site - 1, :]
    return np.exp(-1j * np.outer(times, decomposition.energies)) @ weights


def _amplitude_grid(
    decomposition: SpectralDecomposition, site: int, step: float, count: int
) -> np.ndarray:
    """f_site(t_i) on the arithmetic grid t_i = (i+1) step, i = 0..count-1.

    With B = ceil(sqrt(count)) and i = b B + j, each phase factors as
    exp(-i E (j+1) step) exp(-i E b B step). So (B + G) N exponentials and one
    (G, N) @ (N, B) product replace the (count, N) phase matrix of
    ``amplitude_profile``, and memory is O(N sqrt(count)).
    """
    energies = decomposition.energies
    weights = decomposition.vectors[0, :] * decomposition.vectors[site - 1, :]
    block = math.isqrt(count - 1) + 1
    blocks = -(-count // block)
    near = np.exp(-1j * np.outer(np.arange(1, block + 1) * step, energies)) * weights
    far = np.exp(-1j * np.outer(np.arange(blocks) * (block * step), energies))
    return (far @ near.T).ravel()[:count]


def amplitude_uniform_closed(
    n_sites: int, coupling: float, site: int, time: float
) -> TransitionAmplitude:
    """Closed-form f_site(time) for the uniform chain (hopping part only).

    f_n(t) = (-1)^(n-1) (2/(N+1)) sum_k sin(theta_k) sin(n theta_k)
             exp(2 i J t cos theta_k),  theta_k = k pi/(N+1).
    """
    _check_n_coupling(n_sites, coupling)
    _check_site_time(site, time, n_sites)
    k = np.arange(1, n_sites + 1)
    theta = k * math.pi / (n_sites + 1)
    phases = np.exp(2j * coupling * float(time) * np.cos(theta))
    total = np.sum(np.sin(theta) * np.sin(site * theta) * phases)
    value = complex((-1.0) ** (site - 1) * 2.0 / (n_sites + 1) * total)
    return TransitionAmplitude(value=value, site=int(site), time=float(time))


def amplitude_pst_closed(
    n_sites: int, coupling: float, site: int, time: float
) -> TransitionAmplitude:
    """Closed-form f_site(time) for the engineered chain (hopping part only).

    f_n(t) = (-1)^(n-1) 2^(1-N) sqrt(C(N-1, n-1))
             sum_k K_{k-1}(n-1) exp(-i E_k t)

    with the linear ladder E_k = -(2J/N)(N - (2k-1)) G_N. At the refocusing
    time t = pi N/(4 J G_N) this gives |f_N| = 1 exactly.

    Past N ~ 1030 the integers K and C overflow a float and 2^(1-N)
    underflows, so such chains raise NumericalFailureError instead of
    returning inf, NaN or a spurious zero.
    """
    _check_n_coupling(n_sites, coupling)
    _check_site_time(site, time, n_sites)
    n = n_sites
    gn = gn_factor(n)
    k = np.arange(1, n + 1)
    energies = -(2.0 * coupling / n) * (n - (2 * k - 1)) * gn
    try:
        kraw = np.array([float(krawtchouk(kk, site - 1, n - 1)) for kk in range(n)])
        prefactor = (-1.0) ** (site - 1) * 0.5 ** (n - 1) * math.sqrt(math.comb(n - 1, site - 1))
    except OverflowError as exc:
        raise NumericalFailureError(f"closed-form PST amplitude overflows at N={n}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(kraw * np.exp(-1j * energies * float(time)))
        value = complex(prefactor * total)
    if prefactor == 0.0 or not cmath.isfinite(value):
        raise NumericalFailureError(f"closed-form PST amplitude leaves the float range at N={n}")
    return TransitionAmplitude(value=value, site=int(site), time=float(time))


def amplitude_bessel_limit(site: int, coupling: float, time: float) -> TransitionAmplitude:
    """Bulk (N -> infinity) amplitude for the uniform chain, as written:

    f_n(t) = delta_{n,1} J_0(2Jt) + i^(n-1) J_{n-1}(2Jt).

    Note the n=1 anomaly: at t=0 the two terms add to 2 instead of 1. The
    formula is intended for propagation away from the injection site and is
    reproduced verbatim, anomaly included.
    """
    if not (isinstance(coupling, (int, float, np.floating, np.integer)) and coupling > 0):
        raise InvalidInputError(f"coupling must be > 0, got {coupling!r}")
    _check_site_time(site, time, None)
    x = 2.0 * float(coupling) * float(time)
    value = complex(1j) ** (site - 1) * jv(site - 1, x)
    if site == 1:
        value = value + jv(0, x)
    return TransitionAmplitude(value=complex(value), site=int(site), time=float(time))


@dataclass(frozen=True)
class QubitState:
    """Receiver qubit: excited population p1 and coherence c = <0|rho|1>.

    Positivity |c|^2 <= p0 p1 is enforced up to a small numerical slack.
    """

    excited_population: float
    coherence: complex

    _POSITIVITY_SLACK = 1e-10

    def __post_init__(self) -> None:
        p1 = self.excited_population
        if not isinstance(p1, (int, float, np.floating, np.integer)) or not math.isfinite(
            float(p1)
        ):
            raise InvalidInputError(f"excited_population must be finite, got {p1!r}")
        p1 = float(p1)
        if not -1e-12 <= p1 <= 1.0 + 1e-12:
            raise InvalidInputError(f"excited_population must lie in [0, 1], got {p1}")
        p1 = min(max(p1, 0.0), 1.0)
        c = complex(self.coherence)
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


def _check_n_coupling(n_sites: int, coupling: float) -> None:
    if isinstance(n_sites, bool) or not isinstance(n_sites, (int, np.integer)):
        raise InvalidInputError(f"n_sites must be an integer, got {n_sites!r}")
    if n_sites < 2:
        raise InvalidInputError(f"n_sites must be >= 2, got {n_sites}")
    if not isinstance(coupling, (int, float, np.floating, np.integer)) or not (
        math.isfinite(float(coupling)) and coupling > 0
    ):
        raise InvalidInputError(f"coupling must be a positive finite real, got {coupling!r}")
