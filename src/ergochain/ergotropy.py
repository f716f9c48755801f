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
from .dynamics import QubitState, _amplitude_grid, _end_amplitudes
from .errors import InvalidInputError, UndefinedEfficiencyError
from .spectral import _end_spectrum

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
    if not isinstance(state, QubitState):
        raise InvalidInputError("state must be a QubitState")
    field = _validate.positive("field", field)
    p1 = state.excited_population
    r = math.sqrt(0.25 * (1.0 - 2.0 * p1) ** 2 + abs(state.coherence) ** 2)
    return field * (2.0 * p1 - 1.0) + 2.0 * field * r


def erg_input(encoding: str, parameter: float, field: float) -> float:
    """Sender-side ergotropy: 2B sin^2(theta/2) or max(0, 2B(2q-1))."""
    field = _validate.positive("field", field)
    if _validate.encoding(encoding) == "coherent":
        return 2.0 * field * math.sin(0.5 * _validate.angle("theta", parameter)) ** 2
    q = _validate.unit_interval("q", parameter)
    return max(0.0, 2.0 * field * (2.0 * q - 1.0))


def match_mixed_to_pure(theta: float) -> float:
    """Excited weight q = (1 + sin^2(theta/2))/2 equalizing the two inputs."""
    theta = _validate.angle("theta", theta)
    return 0.5 * (1.0 + math.sin(0.5 * theta) ** 2)


def _positive_part(value):
    """max(0.0, value), elementwise for an array; -0.0 and NaN give 0.0 both ways."""
    if isinstance(value, np.ndarray):
        return np.where(value > 0.0, value, 0.0)
    return max(0.0, float(value))


def erg_coherent(
    fidelity: float | np.ndarray, theta: float, field: float
) -> float | np.ndarray:
    """Receiver ergotropy for the coherent encoding after fidelity-F transport.

    erg = B [2 F s^2 - 1 + sqrt(1 + 4 s^4 F (F - 1))], s^2 = sin^2(theta/2).
    Nonnegative and nondecreasing in F on [0, 1]; the sqrt term is the
    transported coherence doing work the populations alone could not.
    A scalar F gives a float; an array of F gives an array.
    """
    fidelity = _validate.unit_intervals("fidelity", fidelity)
    theta = _validate.angle("theta", theta)
    field = _validate.positive("field", field)
    s2 = math.sin(0.5 * theta) ** 2
    inner = 1.0 + 4.0 * s2 * s2 * fidelity * (fidelity - 1.0)
    # inner >= (1 - 2 s^2 F)^2 >= 0 analytically; clip roundoff only. math.sqrt
    # keeps the scalar path free of numpy scalar overhead; both round correctly.
    if isinstance(inner, np.ndarray):
        root = np.sqrt(np.maximum(inner, 0.0))
    else:
        root = math.sqrt(max(inner, 0.0))
    return _positive_part(field * (2.0 * fidelity * s2 - 1.0 + root))


def erg_mixed(fidelity: float | np.ndarray, q: float, field: float) -> float | np.ndarray:
    """Receiver ergotropy for the mixed encoding: max(0, 2B(2qF - 1)).

    A scalar F gives a float; an array of F gives an array.
    """
    fidelity = _validate.unit_intervals("fidelity", fidelity)
    q = _validate.unit_interval("q", q)
    field = _validate.positive("field", field)
    return _positive_part(2.0 * field * (2.0 * q * fidelity - 1.0))


def reflection_time(n_sites: int, alpha: float, coupling: float) -> float:
    """First arrival/reflection time of the excitation at the far end.

    T = (N / J) [alpha^2 pi/(4 G_N) + (1 - alpha^2) pi/6]: the engineered
    chain refocuses at pi N/(4 J G_N), the uniform chain's wavefront (group
    velocity 2J, sharpened by dispersion) peaks near pi N/(6 J), and the
    blend interpolates in alpha^2.
    """
    n_sites = _validate.integer("n_sites", n_sites, 2)
    alpha = _validate.real("alpha", alpha, 0.0, 1.0)
    coupling = _validate.positive("coupling", coupling)
    gn = gn_factor(n_sites)
    a2 = alpha * alpha
    return (n_sites / coupling) * (a2 * math.pi / (4.0 * gn) + (1.0 - a2) * math.pi / 6.0)


@dataclass(frozen=True)
class ErgotropyRecord:
    """One transport-and-extract evaluation.

    ``efficiency`` is erg_out / erg_in, or NaN when erg_in = 0 (theta = 0 or
    q <= 1/2 sends nothing extractable, so the ratio is undefined).
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


def _record(
    config: ChainConfig, encoding: str, parameter: float, time: float, fidelity: float
) -> ErgotropyRecord:
    erg_in = erg_input(encoding, parameter, config.field)
    if encoding == "coherent":
        erg_out = erg_coherent(fidelity, parameter, config.field)
    else:
        erg_out = erg_mixed(fidelity, parameter, config.field)
    efficiency = erg_out / erg_in if erg_in > 0 else math.nan
    return ErgotropyRecord(
        n_sites=config.n_sites,
        alpha=config.alpha,
        encoding=encoding,
        parameter=float(parameter),
        time=float(time),
        fidelity=float(fidelity),
        erg_in=erg_in,
        erg_out=erg_out,
        efficiency=efficiency,
    )


def _reflection_amplitude(config: ChainConfig) -> tuple[float, complex]:
    """(T, f_N(T)) of the clean chain: one ``dynamics._end_amplitudes`` readout."""
    t = reflection_time(config.n_sites, config.alpha, config.coupling)
    return t, _end_amplitudes(interpolated_bonds(config).values[None], config.field, t)[0]


def reflection_fidelity(config: ChainConfig) -> tuple[float, float]:
    """(T, F): first reflection time of the clean chain and F = |f_N(T)|^2.

    Solves the chain once, from its eigenvalues alone: LAPACK ``dsterf`` and
    the end weights v_k[1] v_k[N] = prod_j b_j / prod_(j != k) (E_k - E_j)
    (``spectral._end_weights``), in O(N) memory. The weights carry a
    first-order certificate ``beta`` on |f_N|; a chain whose ``beta`` exceeds
    ``spectral.END_WEIGHT_ATOL`` (1e-6) is read out through ``dstevd`` and
    the residual contract of ``diagonalize`` instead. The constant diagonal
    -(N-2)B is a global phase and is left out, so it adds no rounding to F.
    Every encoding's receiver ergotropy at T is a function of F alone, so
    callers that need several encodings or parameters map this one F instead
    of solving the chain again. F is not clipped to 1: at perfect transfer it
    can exceed 1 by a few ulps. Disorder is ignored here (config.delta plays
    no role).
    """
    t, f = _reflection_amplitude(config)
    return t, abs(f) ** 2


def erg_at_reflection(config: ChainConfig, encoding: str, parameter: float) -> ErgotropyRecord:
    """Receiver ergotropy at the first reflection time of the clean chain.

    Disorder is deliberately ignored here (config.delta plays no role): this
    is the clean-transport figure of merit. Disordered ensembles go through
    the ensemble API instead.
    """
    erg_input(encoding, parameter, config.field)  # validates before the solve
    return _record(config, encoding, parameter, *reflection_fidelity(config))


def erg_max_window(
    config: ChainConfig,
    encoding: str,
    parameter: float,
    horizon: float,
    step: float | None = None,
) -> ErgotropyRecord:
    """Best receiver ergotropy over the sampled window (0, horizon].

    The window is scanned with uniform ``step`` (default 0.01/J). Both
    encodings' ergotropy are nondecreasing in fidelity, so this is equivalent
    to maximizing |f| over the same grid, but the maximization is done on the
    ergotropy itself.

    The chain is solved once through ``spectral._end_spectrum``: energies
    from LAPACK ``dsterf`` and end weights from the eigenvalues alone, with
    the certificate and the ``dstevd`` fallback of ``reflection_fidelity``
    (``beta`` bounds the weights' share of the error of |f| at every time).
    The grid is arithmetic, so the T = horizon/step phase factors factorize
    into a block of B = ceil(sqrt(T)) near steps times G = ceil(T/B) far
    block offsets: (B + G) N exponentials and one matrix product, with
    O(N sqrt(T)) memory instead of the (T, N) phase matrix that
    ``amplitude_profile`` builds. Both routes round each phase E t at the
    scale eps max|E| horizon; against a 40-digit reference on the same
    decomposition both stay within about 1e-13 of F at N = 256 and 6e-13 at
    N = 1000 (uniform chain, J = B = 1, horizon 0.7 N/J). The product runs on
    one thread of numpy's OpenBLAS (see ``dynamics._OneBlasThread``) and
    ``dsterf`` makes no BLAS call, so the window's bits do not depend on
    ``OPENBLAS_NUM_THREADS`` (unless the chain falls back to ``dstevd``).
    """
    erg_input(encoding, parameter, config.field)  # validates before the solve
    horizon = _validate.positive("horizon", horizon)
    if step is None:
        step = 0.01 / config.coupling
    step = _validate.positive("step", step)
    if step > horizon:
        raise InvalidInputError(f"step {step} exceeds horizon {horizon}")
    energies, weights = _end_spectrum(interpolated_bonds(config).values[None], config.field)
    times = np.arange(step, horizon + 0.5 * step, step)
    fidelities = np.abs(_amplitude_grid(energies[0], weights[0], step, times.size)) ** 2
    erg = erg_coherent if encoding == "coherent" else erg_mixed
    best = int(np.argmax(erg(fidelities, parameter, config.field)))
    return _record(config, encoding, parameter, times[best], float(fidelities[best]))


def rescaled_efficiency(erg_out: float, erg_in: float, n_sites: int) -> float:
    """(erg_out / erg_in) * N^(2/3) — the size-compensated figure of merit.

    The uniform chain's best windowed output thins like N^(-2/3), so this
    rescaling makes chains of different lengths comparable. Raises
    UndefinedEfficiencyError when erg_in = 0.
    """
    erg_out = _validate.real("erg_out", erg_out, 0.0)
    erg_in = _validate.real("erg_in", erg_in, 0.0)
    n_sites = _validate.integer("n_sites", n_sites, 2)
    if erg_in == 0:
        raise UndefinedEfficiencyError("efficiency undefined: input ergotropy is zero")
    return erg_out / erg_in * float(n_sites) ** (2.0 / 3.0)
