"""Start-up cost: what importing ergochain loads, checked in fresh interpreters.

A CLI study is a short process, so the packages an import pulls in are part
of every run. These tests pin which heavy scipy subpackages stay unloaded;
they assert no wall-clock times.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

import ergochain
from ergochain import spectral

HEAVY = ("scipy.linalg", "scipy.special")


def _fresh(code: str) -> str:
    """Standard output of ``code`` run by a new interpreter that imports this ergochain."""
    root = str(Path(ergochain.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": root if not path else root + os.pathsep + path}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize("module", ["ergochain", "ergochain.cli"])
def test_import_leaves_linalg_and_special_unloaded(module):
    code = f"import sys, {module}\nprint([m for m in {HEAVY!r} if m in sys.modules])"
    assert _fresh(code) == "[]"


# The Fortran routine an f2py handle calls: the pointer in its ``_cpointer`` capsule.
ROUTINE = (
    "import ctypes\n"
    "get = ctypes.pythonapi.PyCapsule_GetPointer\n"
    "get.argtypes, get.restype = [ctypes.py_object, ctypes.c_char_p], ctypes.c_void_p\n"
    "def routine(handle):\n"
    "    return get(handle._cpointer, None)\n"
)


def test_solver_is_scipys_dstevd():
    import scipy.linalg.lapack

    namespace = {}
    exec(ROUTINE, namespace)
    routine = namespace["routine"]
    assert routine(spectral._stevd) == routine(scipy.linalg.lapack.dstevd)
    assert routine(spectral._sterf) == routine(scipy.linalg.lapack.dsterf)


def test_solver_is_scipys_dstevd_when_scipy_linalg_comes_later():
    code = ROUTINE + (
        "import sys\n"
        "from ergochain import spectral\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "import scipy.linalg.lapack\n"
        "print(routine(spectral._stevd) == routine(scipy.linalg.lapack.dstevd),\n"
        "      routine(spectral._sterf) == routine(scipy.linalg.lapack.dsterf))"
    )
    assert _fresh(code) == "True True"


@pytest.mark.parametrize(
    "first,second", [("ergochain", "scipy.linalg"), ("scipy.linalg", "ergochain")]
)
def test_scipy_linalg_keeps_its_flapack_attribute(first, second):
    code = (
        f"import {first}, {second}\n"
        "import scipy.linalg\n"
        "print(scipy.linalg._flapack is scipy.linalg.lapack._flapack)"
    )
    assert _fresh(code) == "True"


def test_missing_extension_raises_naming_the_path(monkeypatch, tmp_path):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
    with pytest.raises(ImportError, match="_flapack") as raised:
        spectral._load_flapack()
    assert raised.value.path.startswith(str(tmp_path / "scipy" / "linalg" / "_flapack"))


def test_first_bessel_call_loads_special_and_matches_jv():
    code = (
        "import struct, sys\n"
        "from ergochain import amplitude_bessel_limit\n"
        "assert 'scipy.special' not in sys.modules\n"
        "value = amplitude_bessel_limit(4, 1.0, 3.0).value\n"
        "from scipy.special import jv\n"
        "expected = (1j) ** 3 * jv(3, 6.0)\n"
        "print(struct.pack('dd', value.real, value.imag) == "
        "struct.pack('dd', expected.real, expected.imag))"
    )
    assert _fresh(code) == "True"



# The package root's public names, written out once here so that a name added
# to or dropped from a submodule's ``__all__`` shows up as a failure.
ROOT_API = {
    "__version__",
    # errors
    "ErgochainError", "InvalidConfigError", "InvalidInputError", "MisuseError",
    "NumericalFailureError", "UndefinedEfficiencyError", "UndefinedMetricError",
    # chain
    "ChainConfig", "BondSet", "SingleExcitationHamiltonian", "gn_factor", "pst_couplings",
    "interpolated_bonds", "disordered_bonds", "build_hamiltonian",
    # spectral
    "SpectralDecomposition", "diagonalize", "analytic_uniform_spectrum",
    "analytic_pst_spectrum",
    # dynamics
    "InitialSiteState", "TransitionAmplitude", "QubitState", "amplitude_spectral",
    "amplitude_profile", "amplitude_uniform_closed", "amplitude_pst_closed",
    "amplitude_bessel_limit", "reduced_state",
    # ergotropy
    "ErgotropyRecord", "qubit_ergotropy", "erg_input", "match_mixed_to_pure", "erg_coherent",
    "erg_mixed", "reflection_time", "reflection_fidelity", "erg_at_reflection",
    "erg_max_window", "rescaled_efficiency",
    # disorder
    "EnsembleStats", "ensemble_fidelity", "ensemble_stats", "ensemble_erg", "gamma_metric",
    # work statistics
    "WorkDistribution", "WorkMoments", "tpm_distribution", "pst_closed_distribution",
    "uniform_closed_distribution", "moments", "adaptive_density", "binned_histogram",
    "gaussian_density", "semicircle_density",
}


def test_root_api_is_pinned():
    assert len(ROOT_API) == 55
    assert len(ergochain.__all__) == len(set(ergochain.__all__))
    assert set(ergochain.__all__) == ROOT_API
    for name in ergochain.__all__:
        getattr(ergochain, name)
    namespace = {}
    exec("from ergochain import *", namespace)
    assert set(namespace) - {"__builtins__"} == ROOT_API
