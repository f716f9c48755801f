"""Input contract of the package root.

Every numeric parameter of every public function and input dataclass obeys
one rule: Python and numpy integers are integers, those plus Python and numpy
floats are reals, and ``bool`` is neither. A call either returns finite values
or raises an ErgochainError; any other exception is a defect.
"""
from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np
import pytest

import ergochain as ec

_CONFIG = ec.ChainConfig(n_sites=4, coupling=1.0, field=1.0, alpha=0.5, delta=0.1)
_STATE = ec.InitialSiteState(theta=math.pi / 2)
_BONDS = ec.interpolated_bonds(_CONFIG)
_HAMILTONIAN = ec.build_hamiltonian(_BONDS, 1.0)
_DECOMPOSITION = ec.diagonalize(_HAMILTONIAN)
_DISTRIBUTION = ec.tpm_distribution(_CONFIG, _STATE)
_CHAIN = {"n_sites": 4, "coupling": 1.0}

# (callable, valid keyword arguments, its numeric parameters)
CASES = [
    (ec.ChainConfig, {**_CHAIN, "field": 1.0, "alpha": 0.5, "delta": 0.1},
     ("n_sites", "coupling", "field", "alpha", "delta")),
    (ec.gn_factor, {"n_sites": 5}, ("n_sites",)),
    (ec.pst_couplings, _CHAIN, ("n_sites", "coupling")),
    (ec.disordered_bonds, {"config": _CONFIG, "seed": 3, "realization_index": 2},
     ("seed", "realization_index")),
    (ec.build_hamiltonian, {"bonds": _BONDS, "field": 1.0}, ("field",)),
    (ec.diagonalize, {"hamiltonian": _HAMILTONIAN, "rtol": 1e-9}, ("rtol",)),
    (ec.analytic_uniform_spectrum, {**_CHAIN, "field": 1.0}, ("n_sites", "coupling", "field")),
    (ec.analytic_pst_spectrum, {**_CHAIN, "field": 1.0}, ("n_sites", "coupling", "field")),
    (ec.krawtchouk, {"k": 1, "x": 2, "m": 4}, ("k", "x", "m")),
    (ec.InitialSiteState, {"theta": 1.0, "phi": 0.5}, ("theta", "phi")),
    (ec.QubitState, {"excited_population": 0.5, "coherence": 0.1},
     ("excited_population", "coherence")),
    (ec.amplitude_spectral, {"decomposition": _DECOMPOSITION, "site": 4, "time": 1.0},
     ("site", "time")),
    (ec.amplitude_profile,
     {"decomposition": _DECOMPOSITION, "site": 4, "times": np.array([0.5, 1.0])}, ("site",)),
    (ec.amplitude_uniform_closed, {**_CHAIN, "site": 4, "time": 1.0},
     ("n_sites", "coupling", "site", "time")),
    (ec.amplitude_pst_closed, {**_CHAIN, "site": 4, "time": 1.0},
     ("n_sites", "coupling", "site", "time")),
    (ec.amplitude_bessel_limit, {"site": 3, "coupling": 1.0, "time": 1.0},
     ("site", "coupling", "time")),
    (ec.qubit_ergotropy, {"state": ec.QubitState(0.5, 0.1), "field": 1.0}, ("field",)),
    (ec.erg_input, {"encoding": "coherent", "parameter": 1.0, "field": 1.0},
     ("parameter", "field")),
    (ec.erg_input, {"encoding": "mixed", "parameter": 1.0, "field": 1.0},
     ("parameter", "field")),
    (ec.match_mixed_to_pure, {"theta": 1.0}, ("theta",)),
    (ec.erg_coherent, {"fidelity": 0.9, "theta": 1.0, "field": 1.0},
     ("fidelity", "theta", "field")),
    (ec.erg_mixed, {"fidelity": 0.9, "q": 1.0, "field": 1.0}, ("fidelity", "q", "field")),
    (ec.reflection_time, {"n_sites": 4, "alpha": 0.5, "coupling": 1.0},
     ("n_sites", "alpha", "coupling")),
    (ec.erg_at_reflection, {"config": _CONFIG, "encoding": "coherent", "parameter": 1.0},
     ("parameter",)),
    (ec.erg_max_window,
     {"config": _CONFIG, "encoding": "mixed", "parameter": 1.0, "horizon": 2.0, "step": 0.1},
     ("parameter", "horizon", "step")),
    (ec.rescaled_efficiency, {"erg_out": 0.5, "erg_in": 1.0, "n_sites": 4},
     ("erg_out", "erg_in", "n_sites")),
    (ec.ensemble_fidelity, {"config": _CONFIG, "n_realizations": 3, "seed": 1, "threads": 1},
     ("n_realizations", "seed", "threads")),
    (ec.ensemble_stats,
     {"config": _CONFIG, "encoding": "coherent", "parameter": 1.0,
      "fidelities": np.array([0.5, 0.9])},
     ("parameter",)),
    (ec.ensemble_erg,
     {"config": _CONFIG, "encoding": "mixed", "parameter": 1.0, "n_realizations": 3,
      "seed": 1, "threads": 1},
     ("parameter", "n_realizations", "seed", "threads")),
    (ec.pst_closed_distribution, {**_CHAIN, "initial": _STATE}, ("n_sites", "coupling")),
    (ec.uniform_closed_distribution, {**_CHAIN, "initial": _STATE}, ("n_sites", "coupling")),
    (ec.moments, {"distribution": _DISTRIBUTION, "max_order": 4}, ("max_order",)),
    (ec.binned_histogram, {"distribution": _DISTRIBUTION, "n_bins": 5}, ("n_bins",)),
    (ec.gaussian_density, {"work": 0.5, "variance": 1.0}, ("work", "variance")),
    (ec.semicircle_density, {"work": 0.5, "coupling": 1.0}, ("work", "coupling")),
]

BAD_VALUES = [True, "1", None, math.nan, math.inf, -math.inf]

PARAMETERS = [
    pytest.param(function, kwargs, name, id=f"{function.__name__}-{name}-{kwargs.get('encoding', '')}")
    for function, kwargs, names in CASES
    for name in names
]


def _finite(result) -> bool:
    if result is None or isinstance(result, (str, int)):
        return True  # exact integers (Krawtchouk values) are finite at any size
    if isinstance(result, (float, complex, np.number)):
        return cmath.isfinite(complex(result))
    if isinstance(result, np.ndarray):
        return bool(np.all(np.isfinite(result)))
    if isinstance(result, (tuple, list)):
        return all(_finite(v) for v in result)
    if dataclasses.is_dataclass(result):
        return all(_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    raise AssertionError(f"no finiteness rule for {type(result).__name__}")


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return type(a) is type(b) and a == b


def outcome(function, kwargs, name, value):
    """("ok", result) or ("raises", error class); other exceptions propagate."""
    try:
        return "ok", function(**{**kwargs, name: value})
    except ec.ErgochainError as exc:
        return "raises", type(exc)


@pytest.mark.parametrize("function, kwargs, name", PARAMETERS)
def test_result_is_finite_or_an_ergochain_error(function, kwargs, name):
    for value in BAD_VALUES + [np.int64(int(kwargs[name])), np.float64(kwargs[name])]:
        kind, result = outcome(function, kwargs, name, value)
        if kind == "ok":
            assert _finite(result), f"{name}={value!r} gave {result!r}"


@pytest.mark.parametrize("function, kwargs, name", PARAMETERS)
def test_bool_is_not_a_number(function, kwargs, name):
    with pytest.raises(ec.ErgochainError):
        function(**{**kwargs, name: True})


@pytest.mark.parametrize("function, kwargs, name", PARAMETERS)
def test_numpy_scalars_act_like_python_ones(function, kwargs, name):
    for python, numpy in ((int, np.int64), (float, np.float64)):
        value = python(kwargs[name])
        kind, result = outcome(function, kwargs, name, value)
        numpy_kind, numpy_result = outcome(function, kwargs, name, numpy(value))
        assert numpy_kind == kind, f"{name}: {python.__name__} {kind}, {numpy.__name__} {numpy_kind}"
        assert _same(result, numpy_result)


@pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["huge", "minus-huge"])
def test_integers_past_the_float_range_are_not_finite_reals(value):
    with pytest.raises(ec.InvalidInputError):
        ec.erg_mixed(0.5, 1.0, value)
    with pytest.raises(ec.InvalidConfigError):
        ec.ChainConfig(n_sites=4, coupling=value, field=1.0)
