"""Start-up cost: what importing ergochain loads, checked in fresh interpreters.

A CLI study is a short process, so the packages an import pulls in are part
of every run. These tests pin what stays unloaded until a run needs it
(``numpy.random``; scipy only for the Bessel limit) and which library both
LAPACK routines come from, so that a run maps one OpenBLAS; they assert no
wall-clock times.
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

# Loaded on first use only: scipy's package init (the Bessel limit), its linalg
# and special subpackages, and numpy.random (the first disorder draw).
HEAVY = ("scipy", "scipy.linalg", "scipy.special", "numpy.random")


def _fresh(code: str, **environ: str) -> str:
    """Standard output of ``code`` run by a new interpreter that imports this ergochain.

    ``environ`` adds to or overrides the environment of this process.
    """
    root = str(Path(ergochain.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, **environ, "PYTHONPATH": root if not path else root + os.pathsep + path}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize("module", ["ergochain", "ergochain.cli"])
def test_import_leaves_scipy_and_numpy_random_unloaded(module):
    code = f"import sys, {module}\nprint([m for m in {HEAVY!r} if m in sys.modules])"
    assert _fresh(code) == "[]"


def test_first_ensemble_loads_numpy_random_and_no_scipy():
    code = (
        "import sys\n"
        "from ergochain import ChainConfig, ensemble_fidelity\n"
        "assert 'numpy.random' not in sys.modules\n"
        "ensemble_fidelity(ChainConfig(8, 1.0, 1.0, 0.5, 0.2), 4, 0)\n"
        "print('numpy.random' in sys.modules, 'scipy' in sys.modules)"
    )
    assert _fresh(code) == "True False"


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


def _scipy_lapack():
    """The fallback (``dlasq1``, ``dstevd``): from the LAPACK that scipy's ``_flapack`` extension links."""
    return spectral._load_lapack([ctypes.CDLL(spectral._flapack_path())])


needs_numpy_openblas = pytest.mark.skipif(
    sys.platform != "linux" or not spectral._numpy_openblas(),
    reason="dladdr of the GNU C library, and a numpy wheel that bundles OpenBLAS",
)


# The thread-count symbols that pair with each ILP64 symbol convention of dlasq1.
THREAD_SYMBOLS = {
    "scipy_dlasq1_64_": "scipy_openblas_{}_num_threads64_",
    "dlasq1_64_": "openblas_{}_num_threads64_",
}


@needs_numpy_openblas
def test_lapack_resolves_from_numpys_bundled_openblas():
    # first choice: the ILP64 OpenBLAS numpy's wheel ships in numpy.libs, which
    # numpy has mapped already, for both routines and for the pool's thread
    # count; loading it again adds no module
    handles = (spectral._lasq1, spectral._dstevd, *spectral._blas_threads)
    (lasq1, lasq1_symbol), (stevd, stevd_symbol), *threads = map(_library_of, handles)
    assert lasq1 == stevd and lasq1.is_relative_to(_wheel_libs(np))
    assert lasq1_symbol in THREAD_SYMBOLS
    assert stevd_symbol == lasq1_symbol.replace("dlasq1", "dstevd")
    pattern = THREAD_SYMBOLS[lasq1_symbol]
    assert threads == [(lasq1, pattern.format("set")), (lasq1, pattern.format("get"))]
    assert spectral._lasq1.integer is spectral._dstevd.integer is ctypes.c_int64
    assert spectral._lasq1.library == spectral._dstevd.library
    assert Path(spectral._lasq1.library).resolve() == lasq1
    before = set(sys.modules)
    lasq1_handle, stevd_handle, pair = spectral._load_lapack(spectral._numpy_openblas())
    assert set(sys.modules) == before
    routines = (lasq1_handle, stevd_handle, *pair)
    assert list(map(_library_of, routines)) == list(map(_library_of, handles))


# ``mapped()``: the directories of the OpenBLAS files mapped into the process.
MAPPED = (
    "import os\n"
    "def mapped():\n"
    "    with open('/proc/self/maps') as maps:\n"
    "        paths = {line.split()[-1] for line in maps if 'openblas' in line}\n"
    "    return sorted(os.path.basename(os.path.dirname(p)) for p in paths)\n"
)

# The OpenBLAS files mapped into the process, after each step of a run.
MAPPED_OPENBLAS = MAPPED + (
    "import sys\n"
    "from ergochain import (ChainConfig, InitialSiteState, build_hamiltonian, diagonalize,\n"
    "                       ensemble_fidelity, interpolated_bonds, tpm_distribution)\n"
    "ensemble_fidelity(ChainConfig(64, 1.0, 1.0, 0.5, 0.2), 8, 0)\n"
    "print(mapped())\n"
    "tpm_distribution(ChainConfig(9, 1.0, 1.0, 0.5), InitialSiteState(2.0))\n"
    "diagonalize(build_hamiltonian(interpolated_bonds(ChainConfig(40, 1.0, 1.0, 0.5)), 1.0))\n"
    "print(mapped(), 'scipy' in sys.modules)\n"
)


@needs_numpy_openblas
def test_dqds_runs_map_only_numpys_openblas():
    # dstevd runs in numpy's OpenBLAS too: neither scipy nor its OpenBLAS loads
    assert _fresh(MAPPED_OPENBLAS).splitlines() == ["['numpy.libs']", "['numpy.libs'] False"]


# Every CLI scenario but bessel-compare, in order, in one interpreter: after
# each, is scipy imported, and which OpenBLAS directories are mapped?
CLI_RUNS = MAPPED + (
    "import contextlib, io, sys, tempfile\n"
    "from pathlib import Path\n"
    "from ergochain.cli import main\n"
    "inis = {\n"
    "    'transport-sweep': '[transport-sweep]\\nsites = 4, 9\\nalphas = 0.0, 1.0\\n',\n"
    "    'theta-sweep': '[theta-sweep]\\nsites = 5\\ntheta_count = 5\\n',\n"
    "    'disorder': '[disorder]\\nsites = 8\\nalphas = 0.5\\ndeltas = 0.1\\nrealizations = 4\\n',\n"
    "    'workdist': '[workdist]\\nn = 12\\nbins = 9\\n',\n"
    "}\n"
    "with tempfile.TemporaryDirectory() as tmp:\n"
    "    for scenario, text in inis.items():\n"
    "        config = Path(tmp) / (scenario + '.ini')\n"
    "        config.write_text(text)\n"
    "        out = Path(tmp) / scenario\n"
    "        with contextlib.redirect_stdout(io.StringIO()):  # the 'wrote ...' line\n"
    "            assert main([scenario, '--config', str(config), '--out', str(out)]) == 0\n"
    "        print(scenario, 'scipy' in sys.modules, mapped())\n"
)


@needs_numpy_openblas
def test_cli_scenarios_import_no_scipy_and_map_only_numpys_openblas():
    assert _fresh(CLI_RUNS).splitlines() == [
        f"{scenario} False ['numpy.libs']"
        for scenario in ("transport-sweep", "theta-sweep", "disorder", "workdist")
    ]


@pytest.mark.skipif(sys.platform != "linux", reason="dladdr of the GNU C library")
def test_fallback_lapack_resolves_from_scipys_own_lapack():
    # a library without the routines is passed over for the next candidate:
    # the LAPACK that scipy's wheels ship beside the package (scipy.libs), 32-bit
    libc = ctypes.CDLL(ctypes.util.find_library("c"))
    before = set(sys.modules)
    lasq1, stevd, threads = spectral._load_lapack([libc, ctypes.CDLL(spectral._flapack_path())])
    assert set(sys.modules) == before
    # scipy's library exports a thread-count pair too, but its pool runs no numpy product
    assert threads is None
    (library, symbol), (stevd_library, stevd_symbol) = _library_of(lasq1), _library_of(stevd)
    assert library == stevd_library and library.is_relative_to(_wheel_libs(scipy))
    assert symbol in ("scipy_dlasq1_", "dlasq1_")
    assert stevd_symbol == symbol.replace("dlasq1", "dstevd")
    assert lasq1.integer is stevd.integer is ctypes.c_int


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
    assert _half_spectra(_scipy_lapack()[0], stacks, monkeypatch) == numpy_bits


# The bytes of ``_stevd``'s (energies, vectors, info) on a stack of chains, from
# each candidate library, in a fresh interpreter whose OpenBLAS runs one thread.
STEVD_BITS = (
    "import ctypes, hashlib\n"
    "import numpy as np\n"
    "from ergochain import spectral\n"
    "rng = np.random.default_rng(25)\n"
    "chains = []\n"
    "for n in (2, 3, 8, 9, 64, 65, 128, 257, 500, 1000):\n"
    "    chains.append((np.zeros(n), rng.uniform(0.2, 1.8, n - 1)))\n"
    "    chains.append((rng.uniform(-2.0, 2.0, n), rng.uniform(-1.0, 1.0, n - 1)))\n"
    "    inner = np.arange(1, n)\n"
    "    chains.append((np.full(n, 2.0 - n), np.sqrt(inner * (n - inner))))\n"
    "def bits():\n"
    "    digest = hashlib.sha256()\n"
    "    for diag, off in chains:\n"
    "        energies, vectors, info = spectral._stevd(diag, off)\n"
    "        digest.update(energies.tobytes() + vectors.tobytes() + bytes([info]))\n"
    "    return digest.hexdigest()\n"
    "numpy_bits = bits()\n"
    "spectral._dstevd = spectral._load_lapack([ctypes.CDLL(spectral._flapack_path())])[1]\n"
    "print(spectral._dstevd.integer is ctypes.c_int, numpy_bits == bits())\n"
)


@needs_numpy_openblas
def test_both_candidate_libraries_give_the_same_dstevd_bits_on_one_thread():
    # with more threads the eigenvectors' last bits may follow each pool's split
    assert _fresh(STEVD_BITS, OPENBLAS_NUM_THREADS="1") == "True True"


# numpy's pool thread count before and after ``import ergochain``, read by a
# getter looked up here, apart from the package's own binding.
IMPORT_THREADS = (
    "import ctypes, os, numpy\n"
    "libs = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(numpy.__file__))),\n"
    "                    'numpy.libs')\n"
    "paths = sorted(os.path.join(libs, name) for name in os.listdir(libs) if 'openblas' in name)\n"
    "library = ctypes.CDLL(paths[0])\n"
    "names = ('scipy_openblas_get_num_threads64_', 'openblas_get_num_threads64_')\n"
    "get = next(getattr(library, name) for name in names if hasattr(library, name))\n"
    "before = get()\n"
    "import ergochain\n"
    "print(before, get())\n"
)


@needs_numpy_openblas
def test_import_leaves_numpys_pool_thread_count_as_it_was():
    # import only looks the setter and getter up; it sets no count
    for environ in ({"OPENBLAS_NUM_THREADS": "2"}, {}):
        before, after = _fresh(IMPORT_THREADS, **environ).split()
        assert after == before


def test_library_without_the_routines_raises_naming_the_path():
    library = ctypes.util.find_library("c")
    with pytest.raises(ImportError, match="dlasq1 and dstevd") as raised:
        spectral._load_lapack([ctypes.CDLL(library)])
    assert raised.value.path == library


def test_missing_extension_raises_naming_the_path(monkeypatch, tmp_path):
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
    with pytest.raises(ImportError, match="_flapack") as raised:
        spectral._flapack_path()
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
