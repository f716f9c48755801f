"""Disorder ensembles: receiver ergotropy statistics under bond noise.

Each realization multiplies every bond by an independent factor (1 + d),
d ~ U(-delta, +delta), solves the noisy chain for its half spectrum
(sigma_k, c_k), and reads out the receiver fidelity
F = min((sum_k c_k g(sigma_k T))^2, 1), g = sin or cos by the parity of N, at
the clean chain's reflection time T (the protocol cannot adapt its readout
time to noise it does not know). Realization k is drawn
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
from .dynamics import _end_fidelities
from .ergotropy import (
    _check_inputs,
    _erg_out,
    reflection_time,
)
from .errors import MisuseError, UndefinedMetricError

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

    ``parameter`` is stored as validated, like ``ErgotropyRecord.parameter``.

    ``values[k]`` is realization k (the keyed stream makes the order
    canonical); it is finite, an immutable copy of the given array
    (``_validate.frozen``).
    ``stddev`` is the sample standard deviation (ddof=1), 0.0 for a single
    realization. It is taken about the first value, which leaves it
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
        object.__setattr__(self, "values", _validate.frozen("values", self.values))

    @property
    def count(self) -> int:
        return self.values.size


def ensemble_fidelity(config: ChainConfig, n_realizations: int, seed: int) -> np.ndarray:
    """Receiver fidelities F_k = min(|f_N(T)|^2, 1) over disorder draws.

    Entry k is realization k, drawn from the stream keyed by
    (seed, k) and read out at the clean chain's reflection time T. The clean
    bond profile and one Philox generator are built once. Each realization
    re-keys that generator and draws into a preallocated bond row. A chunk of
    rows is then read out by ``dynamics._end_fidelities``, in one vectorized
    real sum per chunk. The chunk holds ``spectral._BLOCK_BYTES`` // (16 N)
    chains, so its (chunk, N-1) bond rows take half a block (128 KB) and its
    half spectrum, sigma and c of (chunk, (N+1)//2) each, a quarter block
    each: 1024 chains at N = 8, 64 at N = 128, one from N = 8193 on.
    ``_end_weights`` forms its pair arrays in blocks of its own, so memory
    stays a few blocks whatever the count. Each chain takes one LAPACK
    ``dlasq1`` (dqds) call for its half spectrum, the singular values of a
    bidiagonal matrix of its bonds, and end weights from the eigenvalues
    alone (``spectral._end_weights``), no eigenvectors. Each chain carries a
    first-order certificate ``beta`` on |f_N|; one whose ``beta`` exceeds
    ``spectral.END_WEIGHT_ATOL`` (1e-6) is solved by the guarded
    ``spectral._solve`` (``dstevd`` and its residual contract) instead. On
    the benchmark's cells (N <= 128, delta <= 0.2) ``beta`` stays below
    1e-10, so no chain falls back there. A nonzero ``info``, singular
    values that miss the trace or the fourth moment of the chain, or a
    failed residual raises NumericalFailureError.

    The eigenvalue route gives the half spectrum (sigma_k, c_k) directly,
    and a ``dstevd`` chain is folded onto it (``spectral._end_spectrum``);
    on it f_N is a real sum up to a factor -i, and F is clipped by the
    package's one rule, min(F, 1). Row r of a chunk depends on bond row r
    alone, so F_k equals the single-chain readout
    ``_end_fidelities(bonds[None], T)`` of
    ``disordered_bonds(config, seed, k)`` bit for bit. The constant diagonal
    -(N-2)B is a global phase; both routes leave it out (the ``dstevd``
    fallback solves on a zero diagonal), so it adds no rounding to F and
    needs no field.

    Everything runs in the calling thread, and ``dlasq1`` makes no threaded
    BLAS call, so the values do not depend on ``OPENBLAS_NUM_THREADS`` unless a chain
    falls back to ``dstevd``.
    """
    clean = interpolated_bonds(config).values  # checks config first
    n_realizations = _validate.integer("n_realizations", n_realizations, 1, _validate.MAX_COUNT)
    seed = _seed(seed)
    n = config.n_sites
    t = reflection_time(n, config.alpha, config.coupling)
    # chains whose (chunk, N-1) bonds take half a block, read at call time:
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
        fidelities[start : start + rows] = _end_fidelities(bonds[:rows], t)
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
    parameter = _check_inputs(config, encoding, parameter)
    fidelities = _validate.frozen("fidelities", fidelities)
    values = _erg_out(encoding, fidelities, parameter, config.field)
    mean = float(np.mean(values))
    stddev = float(np.std(values - values[0], ddof=1)) if values.size > 1 else 0.0
    return EnsembleStats(
        encoding=encoding,
        parameter=parameter,
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
    _validate.instance("coherent", coherent, EnsembleStats)
    _validate.instance("mixed", mixed, EnsembleStats)
    if coherent.encoding != "coherent" or mixed.encoding != "mixed":
        raise MisuseError(
            "gamma_metric compares a coherent ensemble against a mixed one, got "
            f"({coherent.encoding!r}, {mixed.encoding!r})"
        )
    denominator = coherent.mean + mixed.mean
    if denominator == 0 or not math.isfinite(denominator):
        raise UndefinedMetricError("both ensemble means vanish; Gamma is undefined")
    return (coherent.mean - mixed.mean) / denominator
