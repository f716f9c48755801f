"""``tools/startup_profile.py``, the per-module import profile of fresh interpreters."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "startup_profile.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("startup_profile_tool", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       120 |        120 |   _io
import time:       300 |        420 | site
import time:        50 |         50 | json
import time:        10 |         10 |     numpy._core
import time:        40 |         50 |   numpy
import time:         7 |          7 |   ergochain.chain
import time:        30 |         87 | ergochain
import time:         5 |          5 | atexit
"""


def test_the_tree_is_the_module_and_what_it_imported(tool):
    assert tool.module_tree(IMPORTTIME, "ergochain") == [
        ("numpy._core", 10, 10),
        ("numpy", 40, 50),
        ("ergochain.chain", 7, 7),
        ("ergochain", 30, 87),
    ]
    assert tool.module_tree(IMPORTTIME, "site") == [("_io", 120, 120), ("site", 300, 420)]


def test_prints_both_cache_modes(tool, capsys):
    assert tool.main(["--runs", "1", "--top", "2", "ergochain"]) == 0
    lines = capsys.readouterr().out.splitlines()
    heads = [line for line in lines if line.startswith("import ergochain ")]
    assert [head.split()[2] for head in heads] == ["[compile]:", "[cached]:"]
    if sys.platform == "linux":
        assert all("VmRSS" in head and head.endswith(" MB") for head in heads)
    assert sum("ergochain's own modules, self:" in line for line in lines) == 2
    assert lines[5].split()[-1] == "ergochain"  # the largest cumulative time is the import's
    places = [i for i, line in enumerate(lines) if line.startswith("  OpenBLAS mapped after the import: ")]
    assert places == [1, lines.index(heads[1]) + 1]  # one line under each head
    bound = [i for i, line in enumerate(lines) if line.startswith("  LAPACK bound: ")]
    assert bound == [place + 1 for place in places]  # one line under each of those
    from ergochain import spectral

    library = Path(spectral._lasq1.library)
    convention = spectral._lasq1.__name__.replace("dlasq1", "{}")
    binding = f"  LAPACK bound: {library.parent.name}/{library.name}, symbols {convention}; "
    for i in bound:
        assert lines[i].startswith(binding + "numpy's pool threads: ")
        threads = lines[i].rsplit(": ", 1)[1]
        if spectral._blas_threads is None:
            assert threads == "not pinned"
        else:
            assert int(threads) >= 1
    mapped = [lines[i] for i in places]
    if sys.platform == "linux":
        # one library, numpy's, which also runs the work distribution's dstevd
        for line in mapped:
            after_import, after_solve = line.split(": ", 1)[1].split("; after tpm_distribution: ")
            assert after_import == after_solve
            assert [path.split("/")[0] for path in after_import.split(",")] == ["numpy.libs"]
