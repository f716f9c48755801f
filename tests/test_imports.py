"""Start-up cost: what importing ergochain loads, checked in fresh interpreters.

A CLI study is a short process, so the packages an import pulls in are part
of every run. These tests pin what stays unloaded until a run needs it
(scipy and its second OpenBLAS, ``numpy.random``) and which library each
LAPACK routine comes from; they assert no wall-clock times.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import ergochain
from ergochain import spectral

# Loaded on first use only: scipy's package init and its second OpenBLAS
# (through ``_flapack``), the linalg and special subpackages, and numpy.random.
HEAVY = ("scipy", "scipy.linalg", "scipy.special", "numpy.random")


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
def test_import_leaves_scipy_and_numpy_random_unloaded(module):
    code = (
        f"import sys, {module}\n"
        "from ergochain import spectral\n"
        f"print([m for m in {HEAVY!r} if m in sys.modules], spectral._dstevd)"
    )
    assert _fresh(code) == "[] None"


def test_first_ensemble_loads_numpy_random_and_no_scipy():
    code = (
        "import sys\n"
        "from ergochain import ChainConfig, ensemble_fidelity\n"
        "assert 'numpy.random' not in sys.modules\n"
        "ensemble_fidelity(ChainConfig(8, 1.0, 1.0, 0.5, 0.2), 4, 0)\n"
        "print('numpy.random' in sys.modules, 'scipy' in sys.modules)"
    )
    assert _fresh(code) == "True False"


# The Fortran routine an f2py handle calls: the pointer in its ``_cpointer`` capsule.
ROUTINE = (
    "import ctypes\n"
    "get = ctypes.pythonapi.PyCapsule_GetPointer\n"
    "get.argtypes, get.restype = [ctypes.py_object, ctypes.c_char_p], ctypes.c_void_p\n"
    "def routine(handle):\n"
    "    return get(handle._cpointer, None)\n"
)

# The first full eigendecomposition of a run: a work distribution.
FIRST_DSTEVD = (
    "from ergochain import ChainConfig, InitialSiteState, spectral, tpm_distribution\n"
    "assert spectral._dstevd is None\n"
    "tpm_distribution(ChainConfig(9, 1.0, 1.0, 0.5), InitialSiteState(2.0))\n"
)


@pytest.mark.parametrize("linalg_first", [False, True], ids=["linalg-later", "linalg-first"])
def test_first_tpm_distribution_loads_scipys_dstevd(linalg_first):
    # the first dstevd loads scipy but not scipy.linalg; the handle is scipy's
    # own dstevd whichever import comes first, and scipy.linalg keeps its
    # _flapack attribute either way
    code = (
        ROUTINE
        + ("import scipy.linalg\n" if linalg_first else "")
        + "import sys\n"
        + FIRST_DSTEVD
        + "print('scipy' in sys.modules, 'scipy.linalg' in sys.modules)\n"
        + "import scipy.linalg.lapack\n"
        + "print(routine(spectral._dstevd) == routine(scipy.linalg.lapack.dstevd), "
        + "scipy.linalg._flapack is scipy.linalg.lapack._flapack, "
        + "spectral._dstevd is scipy.linalg.lapack.dstevd)"
    )
    assert _fresh(code).splitlines() == [f"True {linalg_first}", f"True True {linalg_first}"]


def test_concurrent_first_calls_load_dstevd_once():
    # eight threads make the process's first dstevd call at once, with a short
    # switch interval; the extension is loaded once and every solve agrees
    code = (
        "import sys, threading\n"
        "import numpy as np\n"
        "from ergochain import spectral\n"
        "loads, load = [], spectral._load_flapack\n"
        "spectral._load_flapack = lambda: loads.append(1) or load()\n"
        "sys.setswitchinterval(1e-6)\n"
        "barrier, results = threading.Barrier(8), []\n"
        "def solve():\n"
        "    barrier.wait()\n"
        "    results.append(spectral._solve(np.zeros(40), np.linspace(0.5, 1.5, 39))[0].tobytes())\n"
        "threads = [threading.Thread(target=solve) for _ in range(8)]\n"
        "for thread in threads:\n"
        "    thread.start()\n"
        "for thread in threads:\n"
        "    thread.join(60)\n"
        "print(len(loads), len(results), len(set(results)), any(t.is_alive() for t in threads))"
    )
    assert _fresh(code) == "1 8 1 False"


class _SymbolInfo(ctypes.Structure):
    """``Dl_info`` of the C library's ``dladdr``: the file and symbol an address lies in."""

    _fields_ = [
        ("file", ctypes.c_char_p),
        ("base", ctypes.c_void_p),
        ("symbol", ctypes.c_char_p),
        ("address", ctypes.c_void_p),
    ]


def _library_of(routine):
    """The file of the shared library whose code holds a ctypes routine, and its symbol (GNU ``dladdr``)."""
    info = _SymbolInfo()
    address = ctypes.cast(routine, ctypes.c_void_p).value
    assert ctypes.CDLL(None).dladdr(ctypes.c_void_p(address), ctypes.byref(info))
    return Path(os.fsdecode(info.file)).resolve(), info.symbol.decode()


def _wheel_libs(package):
    """The directory of shared libraries a wheel of ``package`` ships beside it."""
    return Path(package.__file__).resolve().parents[1] / f"{package.__name__}.libs"


def _scipy_lasq1():
    """The fallback ``dlasq1``: from the LAPACK that scipy's ``_flapack`` extension links."""
    return spectral._load_lasq1([ctypes.CDLL(spectral._flapack_path())])


needs_numpy_openblas = pytest.mark.skipif(
    sys.platform != "linux" or not spectral._numpy_openblas(),
    reason="dladdr of the GNU C library, and a numpy wheel that bundles OpenBLAS",
)


@needs_numpy_openblas
def test_dlasq1_resolves_from_numpys_bundled_openblas():
    # first choice: the ILP64 OpenBLAS numpy's wheel ships in numpy.libs, which
    # numpy has mapped already; loading it again adds no module
    library, symbol = _library_of(spectral._lasq1)
    assert library.is_relative_to(_wheel_libs(np))
    assert symbol in ("scipy_dlasq1_64_", "dlasq1_64_")
    assert spectral._lasq1.integer is ctypes.c_int64
    before = set(sys.modules)
    routine = spectral._load_lasq1(spectral._numpy_openblas())
    assert set(sys.modules) == before
    assert _library_of(routine) == _library_of(spectral._lasq1)


# The OpenBLAS files mapped into the process, after each step of a run.
MAPPED_OPENBLAS = (
    "import os\n"
    "def mapped():\n"
    "    with open('/proc/self/maps') as maps:\n"
    "        paths = {line.split()[-1] for line in maps if 'openblas' in line}\n"
    "    return sorted(os.path.basename(os.path.dirname(p)) for p in paths)\n"
    "from ergochain import ChainConfig, InitialSiteState, ensemble_fidelity, tpm_distribution\n"
    "ensemble_fidelity(ChainConfig(64, 1.0, 1.0, 0.5, 0.2), 8, 0)\n"
    "print(mapped())\n"
    "tpm_distribution(ChainConfig(9, 1.0, 1.0, 0.5), InitialSiteState(2.0))\n"
    "print(mapped())\n"
)


@needs_numpy_openblas
def test_dqds_runs_map_only_numpys_openblas():
    # scipy's own OpenBLAS is mapped by the first dstevd, not before
    assert _fresh(MAPPED_OPENBLAS).splitlines() == [
        "['numpy.libs']",
        "['numpy.libs', 'scipy.libs']",
    ]


@pytest.mark.skipif(sys.platform != "linux", reason="dladdr of the GNU C library")
def test_fallback_dlasq1_resolves_from_scipys_own_lapack():
    # a library without dlasq1 is passed over for the next candidate: the
    # LAPACK that scipy's wheels ship beside the package (scipy.libs), 32-bit
    libc = ctypes.CDLL(ctypes.util.find_library("c"))
    before = set(sys.modules)
    routine = spectral._load_lasq1([libc, ctypes.CDLL(spectral._flapack_path())])
    assert set(sys.modules) == before
    library, symbol = _library_of(routine)
    assert library.is_relative_to(_wheel_libs(scipy))
    assert symbol in ("scipy_dlasq1_", "dlasq1_")
    assert routine.integer is ctypes.c_int


def _half_spectra(lasq1, stacks, monkeypatch):
    """The bytes of ``_end_weights``' (sigma, c, beta) of each stack, solved by ``lasq1``."""
    monkeypatch.setattr(spectral, "_lasq1", lasq1)
    return [b"".join(a.tobytes() for a in spectral._end_weights(bonds)) for bonds in stacks]


@needs_numpy_openblas
def test_both_candidate_libraries_give_the_same_bits(monkeypatch):
    rng = np.random.default_rng(23)
    stacks = []
    for n in (2, 3, 8, 9, 64, 65, 128, 257, 500, 1001):
        stacks.append(rng.uniform(0.2, 1.8, (6, n - 1)))  # disordered
        stacks.append(rng.uniform(-1.0, 1.0, (3, n - 1)))  # signed
        stacks.append(np.exp(rng.uniform(-30.0, 30.0, (3, n - 1))))  # graded
        stacks.append(np.sqrt(np.arange(1, n) * (n - np.arange(1, n)))[None])  # engineered
    numpy_bits = _half_spectra(spectral._lasq1, stacks, monkeypatch)
    assert _half_spectra(_scipy_lasq1(), stacks, monkeypatch) == numpy_bits


def test_library_without_dlasq1_raises_naming_the_path():
    library = ctypes.util.find_library("c")
    with pytest.raises(ImportError, match="dlasq1") as raised:
        spectral._load_lasq1([ctypes.CDLL(library)])
    assert raised.value.path == library


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
