"""The benchmark's span tracer still fits the code it wraps.

``bench/tracer.py`` wraps functions by name (its ``TRACED`` table) in every
module namespace and module-level dict that holds them. A rename, or a call
that stops going through a patched name, would leave ``--trace 1`` blind
without any other test failing. The tracer is loaded from its file as it is.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import ergochain
from ergochain.cli import main

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

THETA_SWEEP_INI = """\
[theta-sweep]
sites = 4, 9
theta_count = 3
"""


@pytest.fixture(scope="module")
def tracer_module():
    name = "ergochain_bench_tracer"
    spec = importlib.util.spec_from_file_location(name, TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve the module's annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def _bindings(traced):
    """Every value the tracer may patch: module globals and the entries of their dicts."""
    modules = [ergochain] + [importlib.import_module(f"ergochain.{m}") for m in traced]
    bindings = {}
    for module in modules:
        for key, value in vars(module).items():
            bindings[(module.__name__, key)] = value
            if isinstance(value, dict) and not key.startswith("__"):
                for inner_key, inner in value.items():
                    bindings[(module.__name__, key, inner_key)] = inner
    return bindings


def test_every_traced_name_resolves(tracer_module):
    for module_name, names in tracer_module.TRACED.items():
        module = importlib.import_module(f"ergochain.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"ergochain.{module_name}.{name}"


@pytest.mark.parametrize(
    "fmt, writer", [("csv", "cli.write_rows_csv"), ("json", "cli.write_rows_json")]
)
def test_theta_sweep_is_traced_and_uninstall_restores(tracer_module, tmp_path, capsys, fmt, writer):
    config = tmp_path / "run.ini"
    config.write_text(THETA_SWEEP_INI)
    before = _bindings(tracer_module.TRACED)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = main(["theta-sweep", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--format", fmt])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    names = {span.name for span in tracer.spans}
    for name in ("cli.resolve_config", "cli.run_theta_sweep", writer, "cli.write_manifest",
                 "ergotropy.erg_coherent", "ergotropy.erg_mixed"):
        assert name in names, name
    after = _bindings(tracer_module.TRACED)
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
