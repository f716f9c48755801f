"""Input contract of the package root.

Every numeric parameter of every public function and input dataclass obeys
one rule: Python and numpy integers are integers, those plus Python and numpy
floats are reals, and ``bool`` is neither. A call either returns finite values
or raises an ErgochainError; any other exception is a defect.
"""
from __future__ import annotations

import cmath
import dataclasses
import functools
import inspect
import math
import sys

import numpy as np
import pytest

import ergochain as ec
from ergochain import _validate

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
    (ec.analytic_uniform_spectrum, {**_CHAIN, "field": 1.0}, ("n_sites", "coupling", "field")),
    (ec.analytic_pst_spectrum, {**_CHAIN, "field": 1.0}, ("n_sites", "coupling", "field")),
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
    (ec.ensemble_fidelity, {"config": _CONFIG, "n_realizations": 3, "seed": 1},
     ("n_realizations", "seed")),
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
        return True  # integer and string fields (n_sites, encoding) have no rounding to check
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


@pytest.mark.parametrize("function, kwargs, name", PARAMETERS)
def test_an_array_in_place_of_a_number_is_finite_or_an_ergochain_error(function, kwargs, name):
    # ``unit_interval`` takes arrays (of F); a scalar q or p1 must not pass through it as one
    for size in (1, 2):
        kind, result = outcome(function, kwargs, name, np.full(size, kwargs[name]))
        if kind == "ok":
            assert _finite(result), f"{name}=array of {size} gave {result!r}"


@pytest.mark.parametrize(
    "name, call",
    [("q", lambda v: ec.erg_mixed(0.9, v, 1.0)),
     ("q", lambda v: ec.erg_input("mixed", v, 1.0)),
     ("excited_population", lambda v: ec.QubitState(v, 0.0))],
    ids=["erg_mixed", "erg_input", "QubitState"],
)
def test_a_scalar_unit_parameter_rejects_an_array(name, call):
    for size in (1, 2):
        with pytest.raises(ec.InvalidInputError, match=f"{name} must be a real number"):
            call(np.full(size, 0.7))


def test_unit_interval_takes_a_scalar_or_an_array():
    assert _validate.unit_interval("F", 1.0 + 1e-13) == 1.0
    assert type(_validate.unit_interval("F", np.float64(0.5))) is float
    clipped = _validate.unit_interval("F", np.array([[-1e-13, 0.5], [1.0, 1.0 + 1e-13]]))
    assert clipped.dtype == float and np.array_equal(clipped, [[0.0, 0.5], [1.0, 1.0]])
    for bad in (1.5, np.array([0.5, 1.5]), np.array([math.nan])):
        with pytest.raises(ec.InvalidInputError):
            _validate.unit_interval("F", bad)


def test_positive_takes_values_up_to_half_the_float_range():
    # so 2J, 2B and a draw's 2 delta stay finite
    assert 2 * _validate.HALF_MAX == sys.float_info.max
    assert _validate.positive("J", _validate.HALF_MAX) == _validate.HALF_MAX
    with pytest.raises(ec.InvalidInputError, match=r"^J must lie in \[-inf, 8\.988465674311579e\+307\], got 8"):
        _validate.positive("J", math.nextafter(_validate.HALF_MAX, math.inf))
    with pytest.raises(ec.InvalidInputError, match=r"^J must be > 0, got 0\.0$"):
        _validate.positive("J", 0.0)


# magnitudes inside the float range whose results overflowed: each gave inf or
# NaN, or a raw OverflowError, before the bound of ``positive`` and the overflow checks
MAGNITUDE_CALLS = {
    "reflection-time": (ec.NumericalFailureError,
                        lambda: ec.reflection_fidelity(ec.ChainConfig(6, 1e-310, 1.0, 0.5))),
    "ensemble-reflection-time": (
        ec.NumericalFailureError,
        lambda: ec.ensemble_fidelity(ec.ChainConfig(6, 1e-310, 1.0, 0.5, 0.1), 3, 0)),
    "ensemble-phase": (ec.NumericalFailureError,
                       lambda: ec.ensemble_fidelity(ec.ChainConfig(6, 1.0, 1.0, 0.5, 8e307), 3, 0)),
    "window-phase": (
        ec.NumericalFailureError,
        lambda: ec.erg_max_window(ec.ChainConfig(6, 8e307, 1.0), "coherent", 1.0, 2.0, 0.1)),
    "field": (ec.InvalidConfigError, lambda: ec.ChainConfig(6, 1.0, 1e308)),
    "delta": (ec.InvalidConfigError, lambda: ec.ChainConfig(6, 1.0, 1.0, 0.5, 9e307)),
    "coherence": (ec.InvalidInputError, lambda: ec.QubitState(0.5, 1e300)),
}


@pytest.mark.parametrize("case", MAGNITUDE_CALLS)
def test_magnitudes_that_overflow_raise_an_ergochain_error(case):
    error, call = MAGNITUDE_CALLS[case]
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["huge", "minus-huge"])
def test_integers_past_the_float_range_are_not_finite_reals(value):
    with pytest.raises(ec.InvalidInputError):
        ec.erg_mixed(0.5, 1.0, value)
    with pytest.raises(ec.InvalidConfigError):
        ec.ChainConfig(n_sites=4, coupling=value, field=1.0)


# every package-root function with a ``config`` parameter, with valid other arguments
CONFIG_CALLS = {
    "interpolated_bonds": {},
    "disordered_bonds": {"seed": 3, "realization_index": 2},
    "reflection_fidelity": {},
    "erg_at_reflection": {"encoding": "coherent", "parameter": 1.0},
    "erg_max_window": {"encoding": "mixed", "parameter": 1.0, "horizon": 2.0, "step": 0.1},
    "ensemble_fidelity": {"n_realizations": 3, "seed": 1},
    "ensemble_stats": {"encoding": "coherent", "parameter": 1.0,
                       "fidelities": np.array([0.5, 0.9])},
    "ensemble_erg": {"encoding": "mixed", "parameter": 1.0, "n_realizations": 3, "seed": 1},
    "tpm_distribution": {"initial": _STATE},
}


def test_config_table_covers_the_package_root():
    takes_config = {
        name
        for name in ec.__all__
        if inspect.isfunction(getattr(ec, name))
        and "config" in inspect.signature(getattr(ec, name)).parameters
    }
    assert takes_config == set(CONFIG_CALLS)


@pytest.fixture
def eigensolves(monkeypatch):
    """Count the calls of both LAPACK handles, ``dstevd`` and ``dlasq1``."""
    calls = []
    for handle in ("_stevd", "_lasq1"):
        original = getattr(ec.spectral, handle)

        @functools.wraps(original)  # carries ``integer``, the type dlasq1's handle takes
        def counted(*args, _original=original, _handle=handle):
            calls.append(_handle)
            return _original(*args)

        monkeypatch.setattr(ec.spectral, handle, counted)
    return calls


@pytest.mark.parametrize("name", sorted(CONFIG_CALLS))
@pytest.mark.parametrize("config", ["x", None, _BONDS], ids=["str", "None", "BondSet"])
def test_config_of_another_type_raises_before_any_solve(eigensolves, name, config):
    with pytest.raises(ec.InvalidInputError, match="config must be a ChainConfig"):
        getattr(ec, name)(config=config, **CONFIG_CALLS[name])
    assert eigensolves == []


@pytest.mark.parametrize("name", sorted(CONFIG_CALLS))
def test_valid_config_reaches_the_solver(eigensolves, name):
    # the counter sees the solves, so the zero above is not vacuous
    getattr(ec, name)(config=_CONFIG, **CONFIG_CALLS[name])
    solves = name not in ("interpolated_bonds", "disordered_bonds", "ensemble_stats")
    assert bool(eigensolves) == solves


# every package-root parameter that takes an object of a package type, with valid arguments
_AMPLITUDE = ec.amplitude_spectral(_DECOMPOSITION, 4, 1.0)
_COHERENT = ec.ensemble_erg(_CONFIG, "coherent", 1.0, 3, 1)
_MIXED = ec.ensemble_erg(_CONFIG, "mixed", 0.75, 3, 1)
OBJECT_CALLS = [
    (ec.build_hamiltonian, {"bonds": _BONDS, "field": 1.0}, "bonds"),
    (ec.diagonalize, {"hamiltonian": _HAMILTONIAN}, "hamiltonian"),
    (ec.amplitude_spectral, {"decomposition": _DECOMPOSITION, "site": 4, "time": 1.0},
     "decomposition"),
    (ec.amplitude_profile,
     {"decomposition": _DECOMPOSITION, "site": 4, "times": np.array([0.5, 1.0])},
     "decomposition"),
    (ec.reduced_state, {"initial": _STATE, "amplitude": _AMPLITUDE}, "initial"),
    (ec.reduced_state, {"initial": _STATE, "amplitude": _AMPLITUDE}, "amplitude"),
    (ec.qubit_ergotropy, {"state": ec.QubitState(0.5, 0.1), "field": 1.0}, "state"),
    (ec.gamma_metric, {"coherent": _COHERENT, "mixed": _MIXED}, "coherent"),
    (ec.gamma_metric, {"coherent": _COHERENT, "mixed": _MIXED}, "mixed"),
    (ec.tpm_distribution, {"config": _CONFIG, "initial": _STATE}, "initial"),
    (ec.pst_closed_distribution, {**_CHAIN, "initial": _STATE}, "initial"),
    (ec.uniform_closed_distribution, {**_CHAIN, "initial": _STATE}, "initial"),
    (ec.moments, {"distribution": _DISTRIBUTION}, "distribution"),
    (ec.adaptive_density, {"distribution": _DISTRIBUTION}, "distribution"),
    (ec.binned_histogram, {"distribution": _DISTRIBUTION, "n_bins": 5}, "distribution"),
]


def test_object_table_covers_the_package_root():
    types = {name for name in ec.__all__ if dataclasses.is_dataclass(getattr(ec, name))}
    takes_object = {
        (function.__name__, parameter.name)
        for function in (getattr(ec, name) for name in ec.__all__)
        if inspect.isfunction(function)
        for parameter in inspect.signature(function).parameters.values()
        if parameter.annotation in types - {"ChainConfig"}
    }
    assert takes_object == {(function.__name__, name) for function, _, name in OBJECT_CALLS}


@pytest.mark.parametrize(
    "function, kwargs, name",
    [pytest.param(*call, id=f"{call[0].__name__}-{call[2]}") for call in OBJECT_CALLS],
)
def test_object_of_another_type_raises(function, kwargs, name):
    function(**kwargs)  # the valid call passes
    for wrong in ("x", None, _CONFIG):
        with pytest.raises(ec.InvalidInputError, match=f"^{name} must be an? "):
            function(**{**kwargs, name: wrong})


# each value type with one valid set of its arrays, and its other fields
VALUE_TYPES = [
    (ec.BondSet, {"values": [1.0, 0.5]}, {"alpha": None}),
    (ec.SingleExcitationHamiltonian, {"diagonal": [0.0, 0.0], "offdiagonal": [1.0]}, {}),
    (ec.SpectralDecomposition,
     {"energies": [-1.0, 1.0], "vectors": [[0.6, 0.8], [0.8, -0.6]]}, {}),
    (ec.WorkDistribution, {"values": [-1.0, 1.0], "probabilities": [0.25, 0.75]}, {}),
    (ec.EnsembleStats, {"values": [0.1, 0.3]},
     {"encoding": "coherent", "parameter": 1.0, "delta": 0.1, "mean": 0.2, "stddev": 0.1}),
]
VALUE_TYPE_PARAMETERS = [pytest.param(*case, id=case[0].__name__) for case in VALUE_TYPES]


@pytest.mark.parametrize("kind, arrays, others", VALUE_TYPE_PARAMETERS)
def test_value_type_is_out_of_reach_of_the_callers_array(kind, arrays, others):
    given = {name: np.array(values) for name, values in arrays.items()}
    held = kind(**given, **others)
    for name, array in given.items():
        kept = getattr(held, name)
        before = kept.copy()
        with pytest.raises(ValueError):
            kept.flat[0] = 0.5
        assert array.flags.writeable
        array.flat[0] = np.nan  # the caller's array stays writable ...
        assert np.array_equal(kept, before)  # ... and the value type does not see the write


@pytest.mark.parametrize("kind, arrays, others", VALUE_TYPE_PARAMETERS)
def test_value_type_takes_a_read_only_owner_as_it_is(kind, arrays, others):
    given = {name: _validate.sealed(np.array(values)) for name, values in arrays.items()}
    held = kind(**given, **others)
    for name, array in given.items():
        assert getattr(held, name) is array
        # a read-only view of a writable array is copied: its owner can still change
        owner = np.array(arrays[name], dtype=float)
        view = owner.view()
        view.setflags(write=False)
        again = kind(**{**given, name: view}, **others)
        assert not np.shares_memory(getattr(again, name), owner)


@pytest.mark.parametrize("kind, arrays, others", VALUE_TYPE_PARAMETERS)
def test_a_read_only_array_made_writable_again_cannot_reach_the_value_type(kind, arrays, others):
    # numpy lets the owner of a read-only array set ``writeable`` back to True
    given = {name: np.array(values, dtype=float) for name, values in arrays.items()}
    for array in given.values():
        array.setflags(write=False)
    held = kind(**given, **others)
    for name, array in given.items():
        before = getattr(held, name).copy()
        array.setflags(write=True)
        array.flat[0] = np.nan
        assert np.array_equal(getattr(held, name), before)


def test_a_decomposition_the_caller_spoils_stays_finite():
    energies, vectors = np.array([-1.0, 1.0]), np.array([[0.6, 0.8], [0.8, -0.6]])
    decomposition = ec.SpectralDecomposition(energies, vectors)
    energies[0] = vectors[0, 0] = np.nan
    assert cmath.isfinite(ec.amplitude_spectral(decomposition, 2, 1.0).value)


def test_the_routes_hand_their_new_arrays_over_without_a_copy(monkeypatch):
    taken = []

    def spy(name, values, ndim=1, frozen=_validate.frozen):
        held = frozen(name, values, ndim)
        taken.append((name, held is values))
        return held

    monkeypatch.setattr(_validate, "frozen", spy)
    ec.diagonalize(ec.build_hamiltonian(ec.disordered_bonds(_CONFIG, 1, 0), 1.0))
    ec.analytic_uniform_spectrum(5, 1.0, 1.0)
    ec.analytic_pst_spectrum(5, 1.0, 1.0)
    ec.tpm_distribution(_CONFIG, _STATE)
    ec.pst_closed_distribution(5, 1.0, _STATE)
    fidelities = _validate.sealed(ec.ensemble_fidelity(_CONFIG, 3, 1))
    ec.ensemble_stats(_CONFIG, "coherent", 1.0, fidelities)
    assert len(taken) > 15 and all(held for _, held in taken), taken


@pytest.mark.parametrize("spoil", ["nan", "inf", "bool"])
@pytest.mark.parametrize("kind, arrays, others", VALUE_TYPE_PARAMETERS)
def test_value_type_rejects_non_finite_and_bool_arrays(kind, arrays, others, spoil):
    for name in arrays:
        given = {field: np.array(values) for field, values in arrays.items()}
        if spoil == "bool":
            given[name] = given[name] != 0
        else:
            given[name].flat[0] = math.nan if spoil == "nan" else math.inf
        with pytest.raises(ec.InvalidInputError):
            kind(**given, **others)


def test_array_finiteness_is_read_from_the_extremes():
    # a sum of these overflows to inf, though every entry is finite
    bonds = ec.BondSet(values=np.array([1e308, 1e308, -1e308]), alpha=None)
    assert bonds.values.tolist() == [1e308, 1e308, -1e308]
