"""Extractable work (ergotropy) of the receiver qubit.

The work medium is a single qubit with local Hamiltonian gap 2B (ground state
|0>, excited state |1>). For a state with excited population p1 and coherence
c the ergotropy is

    erg = B (2 p1 - 1) + 2 B sqrt((p0 - p1)^2 / 4 + |c|^2),

the gap between the state's energy and the energy of its passive counterpart
(same spectrum, populations sorted against the Hamiltonian).

Two sender encodings with equal input ergotropy are compared throughout:

* coherent: the pure state with polar angle theta, erg_in = 2 B sin^2(theta/2);
* mixed: the diagonal mixture with excited weight q, erg_in = 2 B (2q - 1)
  for q >= 1/2 (and 0 below).

``match_mixed_to_pure`` picks the q that equalizes the two inputs. After
transport with fidelity F = |f|^2, closed forms give each encoding's receiver
ergotropy; the coherent one keeps a sqrt(F) coherence term that survives where
the population term alone has gone passive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _validate
from .chain import ChainConfig, gn_factor, interpolated_bonds
from .dynamics import QubitState, _end_fidelities, _window_fidelities
from .errors import InvalidInputError, NumericalFailureError, UndefinedEfficiencyError

__all__ = [
    "ErgotropyRecord",
    "qubit_ergotropy",
    "erg_input",
    "match_mixed_to_pure",
    "erg_coherent",
    "erg_mixed",
    "reflection_time",
    "reflection_fidelity",
    "erg_at_reflection",
    "erg_max_window",
    "rescaled_efficiency",
]

def qubit_ergotropy(state: QubitState, field: float) -> float:
    """Ergotropy of a qubit state against the gap-2B local Hamiltonian."""
    _validate.instance("state", state, QubitState)
    field = _validate.positive("field", field)
    p1 = state.excited_population
    r = math.sqrt(0.25 * (1.0 - 2.0 * p1) ** 2 + abs(state.coherence) ** 2)
    return field * (2.0 * p1 - 1.0) + 2.0 * field * r


def _sin_squared(theta: np.ndarray, scale: float) -> np.ndarray:
    """sin(scale * t) ** 2 at each entry t of ``theta``, by the scalar libm
    expression: ``s ** 2`` is libm ``pow``, which differs from numpy's
    ``x ** 2`` (``x * x``) in the last bit of some angles."""
    return np.array([math.sin(scale * t) ** 2 for t in theta.ravel().tolist()]).reshape(theta.shape)


def erg_input(
    encoding: str, parameter: float | np.ndarray, field: float
) -> float | np.ndarray:
    """Sender-side ergotropy: 2B sin^2(theta/2) or max(0, 2B(2q-1)).

    The parameter may be a scalar or an array: theta in [0, pi], or q
    clipped onto [0, 1] by ``unit_interval``. A 0-d result is returned as a
    Python float, and each entry of an array has the bits of the scalar call
    (``_sin_squared`` takes sin^2(theta/2) by the scalar expression).
    """
    field = _validate.positive("field", field)
    if _validate.encoding(encoding) == "coherent":
        erg = 2.0 * field * _sin_squared(_validate.reals("theta", parameter, 0.0, math.pi), 0.5)
    else:
        x = 2.0 * field * (2.0 * _validate.unit_interval("q", parameter) - 1.0)
        erg = np.where(x > 0.0, x, 0.0)
    return float(erg) if erg.ndim == 0 else erg


def match_mixed_to_pure(theta: float | np.ndarray) -> float | np.ndarray:
    """Excited weight q = (1 + sin^2(theta/2))/2 equalizing the two inputs.

    theta may be a scalar or an array, as in ``erg_input``; each entry has
    the bits of the scalar call.
    """
    q = 0.5 * (1.0 + _sin_squared(_validate.reals("theta", theta, 0.0, math.pi), 0.5))
    return float(q) if q.ndim == 0 else q


def erg_coherent(
    fidelity: float | np.ndarray, theta: float | np.ndarray, field: float
) -> float | np.ndarray:
    """Receiver ergotropy for the coherent encoding after fidelity-F transport.

    erg = B [2 F s^2 - 1 + sqrt(1 + 4 s^4 F (F - 1))], s^2 = sin^2(theta/2).
    Nonnegative and nondecreasing in F on [0, 1]; the sqrt term is the
    transported coherence doing work the populations alone could not.
    F and theta may each be a scalar or an array (broadcast together); one
    numpy formula serves every shape, and a 0-d result is returned as a
    Python float. The terms of theta, sin^2(theta/2) and sin^2(theta), are
    taken once per angle by scalar libm expressions (``_sin_squared``).
    Every other step (products, ``sqrt``, the division,
    the choice of branch) is one correctly rounded operation per entry, so
    each entry of an array has the bits of the scalar call at its (F, theta).

    With a = 1 - 2 F s^2 and c = F sin^2(theta) the radicand is a^2 + c, and
    erg = B c / (r + a) for a > 0, B (r - a) otherwise, r = sqrt(a^2 + c):
    both sums r + |a| are of nonnegative terms, so nothing cancels, and
    r + |a| > 0 wherever a <= 0 (sin^2(math.pi) is 1.5e-32, not 0). The
    result is within 8 eps (1 + 1/(r + |a|)) of erg, relative (1.7 times
    eps (1 + 1/(r + |a|)) at most against 100-digit arithmetic on 25,000
    (theta, F), F down to 1e-12). r + |a| is at least
    max(|1 - 2 F s^2|, sqrt(F) |sin(theta)|), so the bound is a few eps unless
    theta is near pi and F near 1/2, where erg itself moves by that much,
    relative, under a change of F by one rounding.
    """
    fidelity = _validate.unit_interval("fidelity", fidelity)
    field = _validate.positive("field", field)
    theta = _validate.reals("theta", theta, 0.0, math.pi)
    a = 1.0 - 2.0 * _sin_squared(theta, 0.5) * fidelity
    c = _sin_squared(theta, 1.0) * fidelity
    span = np.sqrt(a * a + c) + np.abs(a)
    erg = field * np.where(a > 0.0, c / span, span)
    return float(erg) if erg.ndim == 0 else erg


def erg_mixed(
    fidelity: float | np.ndarray, q: float | np.ndarray, field: float
) -> float | np.ndarray:
    """Receiver ergotropy for the mixed encoding: max(0, 2B(2qF - 1)).

    F and q may each be a scalar or an array (broadcast together), each
    validated and clipped by ``unit_interval``; one formula serves every
    shape, a 0-d result is returned as a Python float, and each entry of an
    array has the bits of the scalar call at its (F, q). The map is
    symmetric in F and q to the bit: doubling is exact, so (2q)F and (2F)q
    round the same product.
    """
    fidelity = _validate.unit_interval("fidelity", fidelity)
    q = _validate.unit_interval("q", q)
    field = _validate.positive("field", field)
    x = 2.0 * field * (2.0 * q * fidelity - 1.0)
    erg = np.where(x > 0.0, x, 0.0)
    return float(erg) if erg.ndim == 0 else erg


def _check_inputs(config: ChainConfig, encoding: str, parameter: float) -> float:
    """Check the config, then the encoding and its parameter, before any solve.

    Returns the parameter as validated, the one its ergotropies are computed
    at: theta in [0, pi], or q clipped onto [0, 1]. Either is a scalar:
    ``real`` rejects the array that ``unit_interval`` takes.
    """
    _validate.instance("config", config, ChainConfig)
    if _validate.encoding(encoding) == "coherent":
        return _validate.angle("theta", parameter)
    return _validate.unit_interval("q", _validate.real("q", parameter))


def _erg_out(encoding: str, fidelity, parameter, field: float) -> float | np.ndarray:
    """Receiver ergotropy of ``encoding`` at F and its parameter (theta or q),
    each a scalar or an array, broadcast together.

    The one place in the package that picks ``erg_coherent`` or ``erg_mixed``.
    Both are read from the module globals at call time, so a wrapper put
    there sees every call.
    """
    erg = erg_coherent if encoding == "coherent" else erg_mixed
    return erg(fidelity, parameter, field)


def reflection_time(n_sites: int, alpha: float, coupling: float) -> float:
    """First arrival/reflection time of the excitation at the far end.

    T = (N / J) [alpha^2 pi/(4 G_N) + (1 - alpha^2) pi/6]: the engineered
    chain refocuses at pi N/(4 J G_N), the uniform chain's wavefront (group
    velocity 2J, sharpened by dispersion) peaks near pi N/(6 J), and the
    blend interpolates in alpha^2. A T that overflows (J below about
    N / 1.8e308) raises NumericalFailureError.
    """
    n_sites = _validate.sites(n_sites)
    alpha = _validate.real("alpha", alpha, 0.0, 1.0)
    coupling = _validate.positive("coupling", coupling)
    gn = gn_factor(n_sites)
    a2 = alpha * alpha
    t = (n_sites / coupling) * (a2 * math.pi / (4.0 * gn) + (1.0 - a2) * math.pi / 6.0)
    if not math.isfinite(t):
        raise NumericalFailureError(f"reflection time {t} at N = {n_sites}, J = {coupling}")
    return t


@dataclass(frozen=True)
class ErgotropyRecord:
    """One transport-and-extract evaluation.

    ``parameter`` is stored as validated, the value erg_in and erg_out were
    computed at: a q within ``_validate.UNIT_SLACK`` outside [0, 1] reads as
    clipped onto it. ``efficiency`` is erg_out / erg_in, or NaN when
    erg_in = 0 (theta = 0 or q <= 1/2 sends nothing extractable, so the
    ratio is undefined).
    """

    n_sites: int
    alpha: float
    encoding: str
    parameter: float
    time: float
    fidelity: float
    erg_in: float
    erg_out: float
    efficiency: float


def _efficiency(erg_out, erg_in):
    """erg_out / erg_in, or NaN where nothing extractable was sent: one division
    for scalars and arrays, a 0-d result as a Python float."""
    ratio = np.divide(erg_out, erg_in, out=np.full(np.shape(erg_out), math.nan), where=erg_in > 0)
    return float(ratio) if ratio.ndim == 0 else ratio


def _record(
    config: ChainConfig, encoding: str, parameter: float, time: float, fidelity: float
) -> ErgotropyRecord:
    """The record at (time, F) of a parameter that ``_check_inputs`` returned."""
    erg_in = erg_input(encoding, parameter, config.field)
    erg_out = _erg_out(encoding, fidelity, parameter, config.field)
    return ErgotropyRecord(
        config.n_sites, config.alpha, encoding, parameter, float(time), float(fidelity),
        erg_in, erg_out, _efficiency(erg_out, erg_in),
    )


def reflection_fidelity(config: ChainConfig) -> tuple[float, float]:
    """(T, F): first reflection time of the clean chain and F = min(|f_N(T)|^2, 1).

    Solves the chain once, from its eigenvalues alone: one LAPACK ``dlasq1``
    (dqds) call for the half spectrum, the singular values of a bidiagonal
    matrix of the bonds, and the end
    weights v_k[1] v_k[N] = prod_j b_j / prod_(j != k) (E_k - E_j)
    (``spectral._end_weights``), in O(N) memory. The weights carry a
    first-order certificate ``beta`` on |f_N|; a chain whose ``beta`` exceeds
    ``spectral.END_WEIGHT_ATOL`` (1e-6) is read out through ``dstevd`` and
    the residual contract of ``diagonalize`` instead. The constant diagonal
    -(N-2)B is a global phase and is left out, so it adds no rounding to F.
    The eigenvalue route gives the half spectrum (sigma_k, c_k) itself, a
    ``dstevd`` chain is folded onto it, and F is the square of one real sum
    (``dynamics._end_fidelities``). Every encoding's receiver ergotropy at T
    is a function of F alone, so callers that need several
    encodings or parameters map this one F instead of solving the chain
    again. F is clipped to 1: at perfect transfer dqds can leave it past 1
    by more than the unit interval's roundoff slack (+1.8e-12 on the
    engineered chain at N = 2500), always within ``beta``. Disorder is
    ignored here (config.delta plays no role).
    """
    _validate.instance("config", config, ChainConfig)
    t = reflection_time(config.n_sites, config.alpha, config.coupling)
    return t, float(_end_fidelities(interpolated_bonds(config).values[None], t)[0])


def erg_at_reflection(config: ChainConfig, encoding: str, parameter: float) -> ErgotropyRecord:
    """Receiver ergotropy at the first reflection time of the clean chain.

    Disorder is deliberately ignored here (config.delta plays no role): this
    is the clean-transport figure of merit. Disordered ensembles go through
    the ensemble API instead.
    """
    parameter = _check_inputs(config, encoding, parameter)  # before the solve
    return _record(config, encoding, parameter, *reflection_fidelity(config))


# The most steps horizon/step that ``erg_max_window`` samples: 48 times the
# window of N = 5000 at horizon 0.7 N/J and step 0.01/J, and about 0.7 GB of
# the window's O(T) arrays (40 B per sample).
_MAX_WINDOW_STEPS = 2**24


def erg_max_window(
    config: ChainConfig,
    encoding: str,
    parameter: float,
    horizon: float,
    step: float | None = None,
) -> ErgotropyRecord:
    """Best receiver ergotropy over the sampled window (0, horizon].

    The window is scanned with uniform ``step`` (default 0.01/J), and the
    record is the first maximum of the ergotropy on that grid. Both
    encodings' ergotropy is nondecreasing in F, but it is flat where nothing
    is extracted, so the record's F is the window's largest only where some
    work is extracted. Where every ``erg_out`` is 0 (the mixed encoding
    below its threshold), the first maximum is the first grid time, whatever
    F is there: ``erg_max_window(ChainConfig(128, 1, 1, 0), "mixed", 0.75,
    89.6, 0.01)`` returns t = 0.01 with F = 4.7e-37. Maximizing F itself is
    an open item of ROADMAP.md.

    The chain is solved once through ``spectral._end_spectrum``: its half
    spectrum (sigma_k, c_k) from one LAPACK ``dlasq1`` (dqds) call and end
    weights from the eigenvalues alone, with the certificate and the
    ``dstevd`` fallback of ``reflection_fidelity`` (``beta`` bounds the
    weights' share of the error of |f| at every time). The grid is
    arithmetic, so the T = horizon/step phase factors factorize into a block
    of B = ceil(sqrt(T)) near steps times G = ceil(T/B) far block offsets
    (``dynamics._window_fidelities``): one matrix product and
    (B + G)·⌈N/2⌉ exponentials over the half spectrum, of whose sums the
    real part (odd N) or the imaginary part (even N) is f_N up to a phase.
    The table is O(N sqrt(T)) instead of the (T, N) phase matrix that
    ``amplitude_profile`` builds: the tracemalloc peak of the window is
    1.51 complex (B, N) tables at N = 2000 and 1.50 at N = 5000 (horizon
    0.7 N/J, step 0.01/J). The (G, B) product (16 B per sample) and F, the
    ergotropy and the times (8 B each) are O(T), so a window of more than
    2^24 steps horizon/step (``_MAX_WINDOW_STEPS``, 0.7 GB of those arrays)
    raises InvalidInputError before anything is allocated. Each F is
    clipped to 1, as in ``reflection_fidelity``. Against a 40-digit sum over the same
    (sigma_k, c_k) at the exact times (i+1)·step, F stays within 9.0e-16 at
    N = 256 and 1.3e-15 at N = 1000 (uniform chain, J = B = 1, horizon
    0.7 N/J; 191 times each, the window's maximum among them). The product runs on
    one thread of numpy's OpenBLAS (see ``dynamics._OneBlasThread``) and
    ``dlasq1`` makes no threaded BLAS call, so the window's bits do not depend on
    ``OPENBLAS_NUM_THREADS`` (unless the chain falls back to ``dstevd``).
    """
    parameter = _check_inputs(config, encoding, parameter)  # before the solve
    horizon = _validate.positive("horizon", horizon)
    if step is None:
        step = 0.01 / config.coupling
    step = _validate.positive("step", step)
    if step > horizon:
        raise InvalidInputError(f"step {step} exceeds horizon {horizon}")
    if not horizon / step <= _MAX_WINDOW_STEPS:  # the ratio may overflow to inf
        raise InvalidInputError(
            f"window of {horizon / step:.3g} steps (horizon/step) exceeds {_MAX_WINDOW_STEPS}"
        )
    times = np.arange(step, horizon + 0.5 * step, step)
    fidelities = _window_fidelities(interpolated_bonds(config).values, step, times.size)
    best = int(np.argmax(_erg_out(encoding, fidelities, parameter, config.field)))
    return _record(config, encoding, parameter, times[best], float(fidelities[best]))


def rescaled_efficiency(erg_out: float, erg_in: float, n_sites: int) -> float:
    """(erg_out / erg_in) * N^(2/3) — the size-compensated figure of merit.

    The uniform chain's best windowed output thins like N^(-2/3), so this
    rescaling makes chains of different lengths comparable. Raises
    UndefinedEfficiencyError when erg_in = 0, and NumericalFailureError when
    the result overflows, as a tiny erg_in makes it do
    (``rescaled_efficiency(1.0, 1e-310, 8)``).
    """
    erg_out = _validate.real("erg_out", erg_out, 0.0)
    erg_in = _validate.real("erg_in", erg_in, 0.0)
    n_sites = _validate.sites(n_sites)
    if erg_in == 0:
        raise UndefinedEfficiencyError("efficiency undefined: input ergotropy is zero")
    rescaled = erg_out / erg_in * float(n_sites) ** (2.0 / 3.0)
    if not math.isfinite(rescaled):
        raise NumericalFailureError(f"rescaled efficiency overflows at erg_in = {erg_in}")
    return rescaled
