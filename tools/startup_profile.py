"""Print what importing ergochain costs: per-module import times, memory and OpenBLAS libraries.

Usage:

    python tools/startup_profile.py [--runs N] [--top K] [MODULE ...]

For each module (default ``ergochain`` and ``ergochain.cli``) it runs N fresh
interpreters (default 7) under ``python -X importtime`` and prints medians
over them:

* the wall time of the import statement and VmRSS right after it (Linux;
  ``-`` elsewhere);
* the OpenBLAS files mapped into the process (``/proc/self/maps``, Linux;
  ``-`` elsewhere) right after the import and after a first
  ``tpm_distribution`` (a ``dstevd`` solve), each as ``<directory>/<file>``
  and listed once for every distinct set the runs saw;
* the library and symbol convention ``ergochain.spectral`` bound ``dlasq1``
  and ``dstevd`` from, and numpy's pool thread count right after the import,
  read through the getter bound beside them (``not pinned`` where there is
  none), listed once for every distinct pair the runs saw;
* the summed ``-X importtime`` self time of ergochain's own modules;
* for the K modules (default 15) with the largest cumulative time, the
  ``-X importtime`` self and cumulative microseconds.

Each module is measured twice, on a copy of this tree's ``src/`` in a
temporary directory, so bytecode caches elsewhere play no part:

* ``compile``: bytecode writing off (``-B``) and no cache, so every ergochain
  module is compiled from source in every run, as in a fresh checkout under
  ``PYTHONDONTWRITEBYTECODE=1``;
* ``cached``: the caches written by one untimed run, then read by each run.

The difference between the two is the compile time of ergochain's own
modules; numpy and scipy read their installed caches in both.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Imports nothing before the module but ``time`` (built in), so every module
# the import needs shows in its tree; the work distribution runs after it.
PROBE = """\
import time
t0 = time.perf_counter()
import {module}
t1 = time.perf_counter()
import os
def mapped():
    try:
        with open("/proc/self/maps") as maps:
            paths = {{line.split()[-1] for line in maps if "openblas" in line}}
    except OSError:
        return "-"
    return ",".join(sorted(os.path.basename(os.path.dirname(p)) + "/" + os.path.basename(p)
                           for p in paths)) or "none"
try:
    with open("/proc/self/status") as status:
        rss = next(line.split()[1] for line in status if line.startswith("VmRSS:"))
except OSError:
    rss = "-"
after_import = mapped()
from ergochain import spectral
library = spectral._lasq1.library
binding = (os.path.basename(os.path.dirname(library)) + "/" + os.path.basename(library) + ", symbols "
           + spectral._lasq1.__name__.replace("dlasq1", "{{}}"))
threads = "not pinned" if spectral._blas_threads is None else str(spectral._blas_threads[1]())
from ergochain import ChainConfig, InitialSiteState, tpm_distribution
tpm_distribution(ChainConfig(64, 1.0, 1.0, 0.5), InitialSiteState(2.0))
print(t1 - t0, rss, after_import, mapped(), binding, threads, sep="\t")
"""


def module_tree(stderr: str, module: str) -> list[tuple[str, int, int]]:
    """[(module, self us, cumulative us)] of the ``-X importtime`` tree of ``module``'s import.

    Python prints each module after the ones it imports, a nested one
    indented further. The tree is the top-level line of ``module`` and the
    nested lines printed before it, back to the previous top-level line;
    the interpreter's start-up and the probe's own imports come earlier.
    """
    rows, top_level = [], []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:") :].split("|")
        top_level.append(not name.startswith("  "))  # a top-level name has one space
        rows.append((name.strip(), int(self_us), int(cumulative_us)))
    end = max(i for i, row in enumerate(rows) if top_level[i] and row[0] == module)
    start = max((i for i in range(end) if top_level[i]), default=-1) + 1
    return rows[start : end + 1]


def run_probe(
    src: Path, module: str, write_bytecode: bool
) -> tuple[float, int | None, tuple[str, str], tuple[str, str], list[tuple[str, int, int]]]:
    """Import seconds, VmRSS kB, OpenBLAS files, LAPACK binding and ``module_tree`` of a fresh interpreter.

    The files are two comma-separated lists: after the import, and after the
    first ``tpm_distribution``. The binding is (library and symbol
    convention, numpy's pool thread count or ``not pinned``).
    """
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(src)
    flags = ["-X", "importtime"] + ([] if write_bytecode else ["-B"])
    done = subprocess.run(
        [sys.executable, *flags, "-c", PROBE.format(module=module)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    seconds, rss, after_import, after_solve, binding, threads = done.stdout.splitlines()[-1].split("\t")
    mapped, bound = (after_import, after_solve), (binding, threads)
    return float(seconds), None if rss == "-" else int(rss), mapped, bound, module_tree(done.stderr, module)


def profile(src: Path, module: str, runs: int, write_bytecode: bool, top: int) -> None:
    """Print the medians of ``runs`` probes of ``module``."""
    seconds, rss, times, own_rows, mapped, bound = [], [], {}, [], set(), set()
    for _ in range(runs):
        s, r, libraries, binding, rows = run_probe(src, module, write_bytecode)
        own_rows.append(rows)
        mapped.add(libraries)
        bound.add(binding)
        seconds.append(s)
        if r is not None:
            rss.append(r)
        for name, self_us, cumulative_us in rows:
            times.setdefault(name, []).append((self_us, cumulative_us))
    mode = "cached" if write_bytecode else "compile"
    rss_text = f"{statistics.median(rss) / 1024:.1f} MB" if rss else "-"
    print(f"import {module} [{mode}]: {statistics.median(seconds) * 1e3:.1f} ms, VmRSS {rss_text}")
    for after_import, after_solve in sorted(mapped):
        print(f"  OpenBLAS mapped after the import: {after_import}; after tpm_distribution: {after_solve}")
    for binding, threads in sorted(bound):
        print(f"  LAPACK bound: {binding}; numpy's pool threads: {threads}")
    own = statistics.median(
        sum(self_us for name, self_us, _ in run if name.split(".")[0] == "ergochain") for run in own_rows
    )
    print(f"  ergochain's own modules, self: {own / 1e3:.1f} ms")
    medians = [
        (name, statistics.median(s for s, _ in pairs), statistics.median(c for _, c in pairs))
        for name, pairs in times.items()
    ]
    medians.sort(key=lambda row: -row[2])
    if top:
        print(f"  {'self us':>9} {'cumul us':>9}  module")
    for name, self_us, cumulative_us in medians[:top]:
        print(f"  {self_us:9.0f} {cumulative_us:9.0f}  {name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", default=["ergochain", "ergochain.cli"])
    parser.add_argument("--runs", type=int, default=7, help="fresh interpreters per module and mode")
    parser.add_argument("--top", type=int, default=15, help="modules listed, by cumulative time")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.top < 0:
        parser.error("--runs must be at least 1 and --top at least 0")
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for module in args.modules:
            profile(src, module, args.runs, False, args.top)
        for module in args.modules:
            run_probe(src, module, True)  # writes the caches, untimed
            profile(src, module, args.runs, True, args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
