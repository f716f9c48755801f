"""Ergotropy transport along engineered XX spin chains.

A simulator for sending extractable work through a 1-D spin chain: prepare a
qubit at one end, let the single excitation propagate, and ask how much work
the far-end qubit can deliver. The chain's bonds interpolate between a
uniform profile and the parabolic profile with perfect end-to-end state
transfer; coherent and incoherent sender encodings with equal input
ergotropy can be compared cleanly, with and without bond disorder, along
with the full quench work statistics.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .chain import (
    BondSet,
    ChainConfig,
    SingleExcitationHamiltonian,
    build_hamiltonian,
    disordered_bonds,
    gn_factor,
    interpolated_bonds,
    pst_couplings,
)
from .disorder import (
    EnsembleStats,
    ensemble_erg,
    ensemble_fidelity,
    ensemble_stats,
    gamma_metric,
)
from .dynamics import (
    InitialSiteState,
    QubitState,
    TransitionAmplitude,
    amplitude_bessel_limit,
    amplitude_profile,
    amplitude_pst_closed,
    amplitude_spectral,
    amplitude_uniform_closed,
    reduced_state,
)
from .ergotropy import (
    ErgotropyRecord,
    erg_at_reflection,
    erg_coherent,
    erg_input,
    erg_max_window,
    erg_mixed,
    match_mixed_to_pure,
    qubit_ergotropy,
    reflection_fidelity,
    reflection_time,
    rescaled_efficiency,
)
from .errors import (
    ErgochainError,
    InvalidConfigError,
    InvalidInputError,
    MisuseError,
    NumericalFailureError,
    UndefinedEfficiencyError,
    UndefinedMetricError,
)
from .spectral import (
    KrawtchoukTable,
    SpectralDecomposition,
    analytic_pst_spectrum,
    analytic_uniform_spectrum,
    diagonalize,
    krawtchouk,
    krawtchouk_table,
)
from .workstats import (
    WorkDistribution,
    WorkMoments,
    adaptive_density,
    binned_histogram,
    gaussian_density,
    moments,
    pst_closed_distribution,
    semicircle_density,
    tpm_distribution,
    uniform_closed_distribution,
)

__all__ = [
    "__version__",
    # errors
    "ErgochainError",
    "InvalidConfigError",
    "InvalidInputError",
    "MisuseError",
    "NumericalFailureError",
    "UndefinedEfficiencyError",
    "UndefinedMetricError",
    # chain
    "ChainConfig",
    "BondSet",
    "SingleExcitationHamiltonian",
    "gn_factor",
    "pst_couplings",
    "interpolated_bonds",
    "disordered_bonds",
    "build_hamiltonian",
    # spectral
    "SpectralDecomposition",
    "KrawtchoukTable",
    "diagonalize",
    "analytic_uniform_spectrum",
    "krawtchouk",
    "krawtchouk_table",
    "analytic_pst_spectrum",
    # dynamics
    "InitialSiteState",
    "TransitionAmplitude",
    "QubitState",
    "amplitude_spectral",
    "amplitude_profile",
    "amplitude_uniform_closed",
    "amplitude_pst_closed",
    "amplitude_bessel_limit",
    "reduced_state",
    # ergotropy
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
    # disorder
    "EnsembleStats",
    "ensemble_fidelity",
    "ensemble_stats",
    "ensemble_erg",
    "gamma_metric",
    # work statistics
    "WorkDistribution",
    "WorkMoments",
    "tpm_distribution",
    "pst_closed_distribution",
    "uniform_closed_distribution",
    "moments",
    "adaptive_density",
    "binned_histogram",
    "gaussian_density",
    "semicircle_density",
]
