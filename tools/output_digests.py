"""Print the sha256 of every CLI data file and of the benchmark's library records.

Usage:

    python tools/output_digests.py [SEED ...]

At each seed (default 0) it runs, in process, every config under ``configs/``
and every CLI input of ``bench/workloads.py`` in csv and in json, and the
seven ``large-n-library`` calls. It prints one ``<sha256>  <label>`` line per
data file or record. The tree's own ``src/`` is imported, and the benchmark
module is only read, so the listings of two checkouts diff line by line:

    diff <(python old/tools/output_digests.py 0 7) <(python new/tools/output_digests.py 0 7)
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]
FORMATS = ("csv", "json")


def load_workloads():
    """``bench/workloads.py`` as a module of its own, without writing a bytecode file."""
    name = "ergochain_bench_workloads"
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve the module's annotations through it
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[name]
    return module


def config_scenario(path: Path) -> str:
    """The scenario of a config file: its one section other than ``chain``."""
    if path.suffix == ".json":
        sections = list(json.loads(path.read_text()))
    else:
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(path.read_text())
        sections = parser.sections()
    (scenario,) = [section for section in sections if section != "chain"]
    return scenario


def cli_digest(scenario: str, config: Path, seed: int, fmt: str, out: Path) -> str:
    """sha256 of the data file of one CLI run."""
    from ergochain.cli import main

    argv = [scenario, "--config", str(config), "--seed", str(seed), "--out", str(out),
            "--format", fmt]
    with contextlib.redirect_stdout(io.StringIO()):  # the "wrote ..." line
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{scenario} {config} exited {code}")
    return hashlib.sha256((out / f"{scenario}.{fmt}").read_bytes()).hexdigest()


def digests(seeds: list[int]) -> Iterator[tuple[str, str]]:
    """(sha256, label) of every output, seed by seed."""
    workloads = load_workloads().WORKLOADS.values()
    configs = sorted((ROOT / "configs").glob("*.*"))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for seed in seeds:
            work = tmp / f"seed{seed}"
            inputs = [(config_scenario(path), f"configs/{path.name}", path) for path in configs]
            for workload in workloads:
                if workload.entry_module == "ergochain.cli":
                    (work / workload.name).mkdir(parents=True)
                    workload.write_inputs(seed, work / workload.name)
                    config = work / workload.name / "config.json"
                    inputs.append((workload.scenario, f"bench:{workload.name}", config))
            for scenario, label, config in inputs:
                for fmt in FORMATS:
                    out = work / "out" / label.replace("/", "_") / fmt
                    digest = cli_digest(scenario, config, seed, fmt, out)
                    yield digest, f"{scenario} {label} {fmt} seed{seed}"
            for workload in workloads:
                if workload.entry_module != "ergochain.cli":
                    calls = workload.setup(seed, work)
                    for label, status, data in workload.collect(calls, workload.run(calls, 1)):
                        digest = hashlib.sha256(data).hexdigest()
                        yield digest, f"{workload.name} {label} {status} seed{seed}"


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    for digest, label in digests([int(seed) for seed in argv] or [0]):
        print(f"{digest}  {label}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
