"""Disorder ensembles: receiver ergotropy statistics under bond noise.

Each realization multiplies every bond by an independent factor (1 + d),
d ~ U(-delta, +delta), solves the noisy chain for its eigenvalues and end
weights, and reads out the receiver fidelity at the clean chain's reflection
time (the protocol cannot adapt its readout time to noise it does not know). Realization k is drawn
from a counter-based stream keyed by (seed, k), so ensembles are reproducible
element by element regardless of evaluation order or thread count.

``ensemble_fidelity`` returns that fidelity sample; ``ensemble_stats`` maps
it through one encoding's closed form, so both encodings can share one set of
solves. ``ensemble_erg`` does both steps for a single encoding.

``gamma_metric`` condenses a coherent-vs-mixed comparison into
Gamma = (mean_coh - mean_mix) / (mean_coh + mean_mix): positive when the
coherent encoding delivers more extractable work on average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _validate, spectral
from .chain import ChainConfig, _noise_factors, _noise_generator, _seed, interpolated_bonds
from .dynamics import _end_amplitudes
from .ergotropy import (
    _check_inputs,
    _erg_out,
    reflection_time,
)
from .errors import InvalidInputError, MisuseError, UndefinedMetricError

__all__ = [
    "EnsembleStats",
    "ensemble_fidelity",
    "ensemble_stats",
    "ensemble_erg",
    "gamma_metric",
]


@dataclass(frozen=True)
class EnsembleStats:
    """Ergotropy sample over one disorder ensemble.

    ``values[k]`` is realization k (the keyed stream makes the order
    canonical). ``stddev`` is the sample standard deviation (ddof=1), 0.0 for
    a single realization. It is taken about the first value, which leaves it
    unchanged but spares the rounding of the mean, so a sample of equal
    values (zero disorder) reads 0.0 exactly.
    """

    encoding: str
    parameter: float
    delta: float
    values: np.ndarray
    mean: float
    stddev: float

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise InvalidInputError("values must be a 1-D array of length >= 1")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def count(self) -> int:
        return self.values.size


def ensemble_fidelity(config: ChainConfig, n_realizations: int, seed: int) -> np.ndarray:
    """Receiver fidelities F_k = min(|f_N(T)|^2, 1) over disorder draws.

    Entry k is realization k, drawn from the stream keyed by
    (seed, k) and read out at the clean chain's reflection time T. The clean
    bond profile and one Philox generator are built once. Each realization
    re-keys that generator and draws into a preallocated bond row. A chunk of
    rows is then read out by ``dynamics._end_amplitudes``. The chunk holds
    the chains whose (chunk, N) complex phases fill one block of
    ``spectral._BLOCK_BYTES`` (128 KB): 1024 at N = 8, 64 at N = 128, one
    from N = 8193 on. ``_end_weights`` forms its pair arrays in blocks of
    its own, so memory stays a few blocks whatever the count. Each chain
    takes one LAPACK ``dsterf`` call on an N//2 + 1 row block of H^2, one
    Newton step per eigenvalue and end weights from the eigenvalues alone
    (``spectral._end_weights``), no eigenvectors. Each chain carries a
    first-order certificate ``beta`` on |f_N|; one whose ``beta`` exceeds
    ``spectral.END_WEIGHT_ATOL`` (1e-6) is solved by the guarded
    ``spectral._solve`` (``dstevd`` and its residual contract) instead. On
    the benchmark's cells (N <= 128, delta <= 0.2) ``beta`` stays below
    1e-10, so no chain falls back there. A nonzero ``info``, a ``dsterf``
    spectrum that misses its trace or moves past its bound under the Newton
    step, or a failed residual raises NumericalFailureError.

    Row r of a chunk depends on bond row r alone, so F_k equals the
    single-chain readout ``_end_amplitudes(bonds[None], field, T)`` of
    ``disordered_bonds(config, seed, k)`` bit for bit. The modulus stays a
    Python scalar, because ``np.abs`` on complex arrays can differ from
    ``abs(complex)`` by an ulp. The constant diagonal -(N-2)B is a global
    phase; the eigenvalue route leaves it out, so it adds no rounding to |f|.

    Everything runs in the calling thread, and ``dsterf`` makes no BLAS call,
    so the values do not depend on ``OPENBLAS_NUM_THREADS`` unless a chain
    falls back to ``dstevd``.
    """
    clean = interpolated_bonds(config).values  # checks config first
    n_realizations = _validate.integer("n_realizations", n_realizations, 1)
    seed = _seed(seed)
    n = config.n_sites
    t = reflection_time(n, config.alpha, config.coupling)
    # chains whose (chunk, N) complex phases fill one block, read at call time:
    # 1024 at N = 8, 256 at N = 32, 64 at N = 128, 1 from N = 8193 on
    chunk = min(n_realizations, max(1, spectral._BLOCK_BYTES // (16 * n)))
    bonds = np.empty((chunk, n - 1))
    fidelities = np.empty(n_realizations)
    rng = _noise_generator()
    for start in range(0, n_realizations, chunk):
        rows = min(chunk, n_realizations - start)
        for r in range(rows):
            factors = _noise_factors(rng, config.delta, seed, start + r, n - 1)
            np.multiply(clean, factors, out=bonds[r])
        amplitudes = _end_amplitudes(bonds[:rows], config.field, t)
        for r, f in enumerate(amplitudes):
            fidelities[start + r] = min(abs(f) ** 2, 1.0)
    return fidelities


def ensemble_stats(
    config: ChainConfig, encoding: str, parameter: float, fidelities: np.ndarray
) -> EnsembleStats:
    """Ergotropy statistics of one encoding over a fidelity sample.

    Maps the whole sample through ``erg_coherent`` or ``erg_mixed`` in one
    call. Calling it for both encodings on one ``ensemble_fidelity`` sample
    pairs them realization by realization, which is what ``gamma_metric``
    compares.
    """
    _check_inputs(config, encoding, parameter)
    fidelities = np.asarray(fidelities)
    if fidelities.ndim != 1 or fidelities.size < 1:
        raise InvalidInputError("fidelities must be a 1-D array of length >= 1")
    values = _erg_out(encoding, fidelities, parameter, config.field)
    mean = float(np.mean(values))
    stddev = float(np.std(values - values[0], ddof=1)) if values.size > 1 else 0.0
    return EnsembleStats(
        encoding=encoding,
        parameter=float(parameter),
        delta=config.delta,
        values=values,
        mean=mean,
        stddev=stddev,
    )


def ensemble_erg(
    config: ChainConfig,
    encoding: str,
    parameter: float,
    n_realizations: int,
    seed: int,
    threads: int = 1,
) -> EnsembleStats:
    """Ergotropy statistics over ``n_realizations`` disorder draws.

    The same (config, seed) pair always produces the same sample, and the
    coherent/mixed encodings see identical noise when called with the same
    seed, which makes paired comparisons sharp. To get both encodings from
    one set of eigensolves, call ``ensemble_fidelity`` once and
    ``ensemble_stats`` per encoding. ``threads`` is validated (an integer
    >= 1) and kept for callers that pass it; every solve runs in the calling
    thread whatever its value.
    """
    _check_inputs(config, encoding, parameter)  # before any solve
    _validate.integer("threads", threads, 1)
    fidelities = ensemble_fidelity(config, n_realizations, seed)
    return ensemble_stats(config, encoding, parameter, fidelities)


def gamma_metric(coherent: EnsembleStats, mixed: EnsembleStats) -> float:
    """Gamma = (mean_coh - mean_mix) / (mean_coh + mean_mix).

    Raises UndefinedMetricError when both means vanish (nothing arrived in
    either ensemble, so there is no comparison to make).
    """
    for stats in (coherent, mixed):
        if not isinstance(stats, EnsembleStats):
            raise InvalidInputError("gamma_metric takes two EnsembleStats")
    if coherent.encoding != "coherent" or mixed.encoding != "mixed":
        raise MisuseError(
            "gamma_metric compares a coherent ensemble against a mixed one, got "
            f"({coherent.encoding!r}, {mixed.encoding!r})"
        )
    denominator = coherent.mean + mixed.mean
    if denominator == 0 or not math.isfinite(denominator):
        raise UndefinedMetricError("both ensemble means vanish; Gamma is undefined")
    return (coherent.mean - mixed.mean) / denominator
