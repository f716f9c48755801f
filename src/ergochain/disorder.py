"""Disorder ensembles: receiver ergotropy statistics under bond noise.

Each realization multiplies every bond by an independent factor (1 + d),
d ~ U(-delta, +delta), diagonalizes the noisy chain, and reads out the
receiver fidelity at the clean chain's reflection time (the protocol cannot
adapt its readout time to noise it does not know). Realization k is drawn
from a counter-based stream keyed by (seed, k), so ensembles are reproducible
element by element regardless of evaluation order or thread count.

``ensemble_fidelity`` returns that fidelity sample; ``ensemble_stats`` maps
it through one encoding's closed form, so both encodings can share one set of
eigensolves. ``ensemble_erg`` does both steps for a single encoding.

``gamma_metric`` condenses a coherent-vs-mixed comparison into
Gamma = (mean_coh - mean_mix) / (mean_coh + mean_mix): positive when the
coherent encoding delivers more extractable work on average.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _validate
from .chain import ChainConfig, build_hamiltonian, disordered_bonds
from .dynamics import amplitude_spectral
from .ergotropy import (
    erg_coherent,
    erg_input,
    erg_mixed,
    reflection_time,
)
from .errors import InvalidInputError, MisuseError, UndefinedMetricError
from .spectral import diagonalize

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
    a single realization.
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


def ensemble_fidelity(
    config: ChainConfig, n_realizations: int, seed: int, threads: int = 1
) -> np.ndarray:
    """Receiver fidelities F_k = min(|f_N(T)|^2, 1) over disorder draws.

    Entry k is realization k, drawn from the stream keyed by
    (seed, k) and read out at the clean chain's reflection time T. Each
    realization is diagonalized once; ``threads`` > 1 spreads the
    realizations over a thread pool without changing any value.
    """
    n_realizations = _validate.integer("n_realizations", n_realizations, 1)
    threads = _validate.integer("threads", threads, 1)
    t = reflection_time(config.n_sites, config.alpha, config.coupling)

    def one(realization: int) -> float:
        bonds = disordered_bonds(config, seed, realization)
        decomposition = diagonalize(build_hamiltonian(bonds, config.field))
        f = amplitude_spectral(decomposition, config.n_sites, t)
        return min(abs(f.value) ** 2, 1.0)

    if threads == 1:
        return np.array([one(r) for r in range(n_realizations)])
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return np.array(list(pool.map(one, range(n_realizations))))


def ensemble_stats(
    config: ChainConfig, encoding: str, parameter: float, fidelities: np.ndarray
) -> EnsembleStats:
    """Ergotropy statistics of one encoding over a fidelity sample.

    Maps the whole sample through ``erg_coherent`` or ``erg_mixed`` in one
    call. Calling it for both encodings on one ``ensemble_fidelity`` sample
    pairs them realization by realization, which is what ``gamma_metric``
    compares.
    """
    erg_input(encoding, parameter, config.field)  # validates encoding and parameter
    fidelities = np.asarray(fidelities)
    if fidelities.ndim != 1 or fidelities.size < 1:
        raise InvalidInputError("fidelities must be a 1-D array of length >= 1")
    erg = erg_coherent if encoding == "coherent" else erg_mixed
    values = erg(fidelities, parameter, config.field)
    mean = float(np.mean(values))
    stddev = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
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
    ``ensemble_stats`` per encoding.
    """
    erg_input(encoding, parameter, config.field)  # validates before any solve
    fidelities = ensemble_fidelity(config, n_realizations, seed, threads)
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
