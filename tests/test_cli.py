"""End-to-end checks of the command line driver, run in process."""
from __future__ import annotations

import builtins
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from lapack_hooks import hooked_lasq1, report_failure
from oracles import block_rows, rows_block
from ergochain import ChainConfig, InvalidConfigError, ensemble_erg, pst_couplings, spectral
from ergochain.cli import (
    _RUNNERS,
    _SCENARIOS,
    OUTPUT_SCHEMA,
    SCENARIOS,
    config_hash,
    main,
    resolve_config,
    run_disorder,
    run_theta_sweep,
    run_transport_sweep,
    write_rows_json,
)

TRANSPORT_INI = """\
[chain]
coupling = 1.0
field = 1.0

[transport-sweep]
sites = 4, 8
alphas = 0.0, 1.0
theta = 1.5707963267948966
"""

DISORDER_INI = """\
[chain]
coupling = 1.0
field = 1.0

[disorder]
sites = 8
alphas = 1.0
deltas = 0.0, 0.1
realizations = 25
"""

WORKDIST_INI = """\
[workdist]
n = 12
alphas = 0.0, 0.5, 1.0
bins = 25
"""


def _write(tmp_path, name, text):
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / name
    path.write_text(text)
    return path


def _validate_rows(rows, scenario):
    jsonschema.validate(rows, {"type": "array", "items": OUTPUT_SCHEMA[scenario]})


def _run(tmp_path, scenario, config_text, *extra, config_name="run.ini"):
    config = _write(tmp_path, config_name, config_text)
    out = tmp_path / "out"
    code = main([scenario, "--config", str(config), "--out", str(out), *extra])
    return code, out


class TestHappyPaths:
    def test_transport_sweep_csv(self, tmp_path, capsys):
        code, out = _run(tmp_path, "transport-sweep", TRANSPORT_INI)
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        with open(out / "transport-sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        # 2 sites x 2 alphas x 2 encodings
        assert len(rows) == 8
        assert rows[0].keys() == OUTPUT_SCHEMA["transport-sweep"]["properties"].keys()
        perfect = [
            r for r in rows if r["alpha"] == "1" and r["n_sites"] == "8" and r["encoding"] == "coherent"
        ]
        assert len(perfect) == 1
        assert float(perfect[0]["fidelity"]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "scenario,config",
        [
            ("transport-sweep", TRANSPORT_INI),
            ("disorder", DISORDER_INI),
            ("workdist", WORKDIST_INI),
            ("bessel-compare", "[bessel-compare]\nsites = 10, 20\n"),
            ("theta-sweep", "[theta-sweep]\nsites = 6\ntheta_count = 7\n"),
        ],
    )
    def test_json_output_matches_schema(self, tmp_path, scenario, config):
        code, out = _run(tmp_path, scenario, config, "--format", "json")
        assert code == 0
        rows = json.loads((out / f"{scenario}.json").read_text())
        _validate_rows(rows, scenario)
        assert rows

    def test_every_scenario_has_a_schema(self):
        assert set(OUTPUT_SCHEMA) == set(SCENARIOS)

    def test_csv_floats_round_trip(self, tmp_path):
        code, out = _run(tmp_path, "theta-sweep", "[theta-sweep]\nsites = 5\ntheta_count = 9\n")
        assert code == 0
        with open(out / "theta-sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        # 9 angles x 2 encodings, then one argmax summary per encoding
        assert len(rows) == 20
        assert [r["kind"] for r in rows].count("argmax") == 2
        # %.17g preserves doubles exactly
        thetas = sorted({float(r["theta"]) for r in rows})
        assert thetas[1] == math.pi / 8

    def test_theta_sweep_argmax_rows_repeat_best_grid_row(self, tmp_path):
        code, out = _run(tmp_path, "theta-sweep", "[theta-sweep]\nsites = 8\ntheta_count = 13\n")
        assert code == 0
        with open(out / "theta-sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        for encoding in ("coherent", "mixed"):
            grid = [r for r in rows if r["kind"] == "grid" and r["encoding"] == encoding]
            (summary,) = [
                r for r in rows if r["kind"] == "argmax" and r["encoding"] == encoding
            ]
            best = max(grid, key=lambda r: float(r["erg_out"]))
            assert summary["theta"] == best["theta"]
            assert summary["erg_out"] == best["erg_out"]

    def test_theta_sweep_argmax_ties_go_to_the_largest_theta(self, tmp_path):
        # at N = 64, alpha 0, F < 1/2: no angle extracts work by the mixed encoding,
        # so every mixed erg_out ties at 0 and the summary names theta = pi
        code, out = _run(
            tmp_path, "theta-sweep", "[theta-sweep]\nsites = 64\nalpha = 0.0\ntheta_count = 5\n"
        )
        assert code == 0
        with open(out / "theta-sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        mixed = [r for r in rows if r["encoding"] == "mixed"]
        assert {r["erg_out"] for r in mixed} == {"0"}
        (summary,) = [r for r in mixed if r["kind"] == "argmax"]
        assert float(summary["theta"]) == math.pi
        assert summary["efficiency"] == "0"

    @pytest.mark.parametrize("n", [2500, 5000])
    def test_perfect_transfer_chain_runs(self, tmp_path, n):
        # dqds leaves the engineered chain's F past 1 by 1.8e-12 at N = 2500, beyond
        # the unit interval's slack; the readout clips it onto 1
        config = f"[transport-sweep]\nsites = {n}\nalphas = 1.0\n"
        code, out = _run(tmp_path, "transport-sweep", config)
        assert code == 0
        with open(out / "transport-sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2 and all(float(r["fidelity"]) <= 1.0 for r in rows)

    def test_workdist_kinds_per_alpha(self, tmp_path):
        code, out = _run(tmp_path, "workdist", WORKDIST_INI)
        assert code == 0
        with open(out / "workdist.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        kinds = {}
        for row in rows:
            kinds.setdefault(float(row["alpha"]), set()).add(row["kind"])
        assert kinds[0.0] == {"atom", "density", "semicircle"}
        assert kinds[0.5] == {"atom", "hist"}
        assert kinds[1.0] == {"atom", "density", "gaussian"}

    def test_workdist_semicircle_far_from_unit_coupling(self, tmp_path):
        # J J overflowed in the semicircle law: 8 rows of nan, exit 0
        config = "[chain]\ncoupling = 1e155\n[workdist]\nn = 8\nalphas = 0.0\n"
        code, out = _run(tmp_path, "workdist", config)
        assert code == 0
        with open(out / "workdist.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert sum(row["kind"] == "semicircle" for row in rows) == 8
        assert all(math.isfinite(float(row["value"])) for row in rows)

    def test_workdist_gaussian_far_from_unit_coupling(self, tmp_path):
        # the squared first bond overflowed: "variance must be finite", exit 2
        config = "[chain]\ncoupling = 1e155\n[workdist]\nn = 8\nalphas = 1.0\n"
        code, out = _run(tmp_path, "workdist", config)
        assert code == 0
        with open(out / "workdist.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        gaussian = [float(row["value"]) for row in rows if row["kind"] == "gaussian"]
        assert len(gaussian) == 8
        assert all(math.isfinite(float(row["value"])) for row in rows)
        # the density of the atom nearest the centre, sigma = the first bond
        sigma = float(pst_couplings(8, 1e155)[0])
        w = float(rows[3]["work"])
        exact = math.exp(-0.5 * (w / sigma) ** 2) / (math.sqrt(2.0 * math.pi) * sigma)
        assert gaussian[3] == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("theta", ["0", "1e-200"])  # sin^2(theta/2) is 0 at both
    def test_workdist_of_a_sender_that_sends_nothing_is_one_atom(self, tmp_path, theta):
        config = f"[workdist]\nn = 8\nalphas = 0.0, 0.5, 1.0\ntheta = {theta}\n"
        code, out = _run(tmp_path, "workdist", config)
        assert code == 0
        with open(out / "workdist.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [(r["alpha"], r["kind"], r["work"], r["value"]) for r in rows] == [
            (alpha, "atom", "0", "1") for alpha in ("0", "0.5", "1")
        ]

    def test_theta_sweep_trends(self, tmp_path):
        code, out = _run(
            tmp_path,
            "theta-sweep",
            "[theta-sweep]\nsites = 10, 100\nalpha = 0.0\ntheta_count = 65\n",
        )
        assert code == 0
        with open(out / "theta-sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        # longer chains favour a smaller preparation angle for coherent charging
        argmax_theta = {
            int(r["n_sites"]): float(r["theta"])
            for r in rows
            if r["kind"] == "argmax" and r["encoding"] == "coherent"
        }
        assert argmax_theta[100] < argmax_theta[10]
        assert argmax_theta[10] == pytest.approx(1.914, abs=2e-3)
        assert argmax_theta[100] == pytest.approx(1.767, abs=2e-3)
        # mixed output never loses by charging harder
        mixed = [
            float(r["erg_out"])
            for r in rows
            if r["kind"] == "grid" and r["encoding"] == "mixed" and r["n_sites"] == "10"
        ]
        assert all(b >= a - 1e-12 for a, b in zip(mixed, mixed[1:]))

    def test_nan_efficiency_encodes_per_format(self, tmp_path):
        config = "[transport-sweep]\nsites = 4\nalphas = 1.0\ntheta = 0.0\n"
        code, out = _run(tmp_path, "transport-sweep", config)
        assert code == 0
        with open(out / "transport-sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert all(row["efficiency"] == "nan" for row in rows)

        code, out2 = _run(tmp_path / "j", "transport-sweep", config, "--format", "json")
        assert code == 0
        rows = json.loads((out2 / "transport-sweep.json").read_text())
        assert all(row["efficiency"] is None for row in rows)
        _validate_rows(rows, "transport-sweep")

    def test_json_config_equivalent_to_ini(self, tmp_path):
        json_config = json.dumps(
            {
                "chain": {"coupling": 1.0, "field": 1.0},
                "transport-sweep": {
                    "sites": [4, 8],
                    "alphas": [0.0, 1.0],
                    "theta": 1.5707963267948966,
                },
            }
        )
        code_a, out_a = _run(tmp_path / "a", "transport-sweep", TRANSPORT_INI)
        code_b, out_b = _run(
            tmp_path / "b", "transport-sweep", json_config, config_name="run.json"
        )
        assert code_a == code_b == 0
        assert (out_a / "transport-sweep.csv").read_bytes() == (
            out_b / "transport-sweep.csv"
        ).read_bytes()


class TestDeterminism:
    def test_identical_bytes_across_runs_and_threads(self, tmp_path):
        outputs = []
        for tag, extra in [("a", ()), ("b", ()), ("c", ("--threads", "4"))]:
            code, out = _run(tmp_path / tag, "disorder", DISORDER_INI, "--seed", "3", *extra)
            assert code == 0
            outputs.append((out / "disorder.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_manifest_shape_and_stability(self, tmp_path):
        _, out_a = _run(tmp_path / "a", "disorder", DISORDER_INI, "--seed", "5")
        _, out_b = _run(tmp_path / "b", "disorder", DISORDER_INI, "--seed", "5")
        manifest_a = json.loads((out_a / "disorder.manifest.json").read_text())
        manifest_b = json.loads((out_b / "disorder.manifest.json").read_text())
        assert set(manifest_a) == {"configHash", "seed", "toolVersion", "timestamp", "rowCount"}
        for key in ("configHash", "seed", "toolVersion", "rowCount"):
            assert manifest_a[key] == manifest_b[key]
        assert manifest_a["seed"] == 5
        assert manifest_a["rowCount"] == 4

    def test_config_hash_tracks_resolved_config(self, tmp_path):
        config = _write(tmp_path, "run.ini", DISORDER_INI)
        resolved = resolve_config(config, "disorder", 5, "csv")
        _, out = _run(tmp_path / "o", "disorder", DISORDER_INI, "--seed", "5")
        manifest = json.loads((out / "disorder.manifest.json").read_text())
        assert manifest["configHash"] == config_hash(resolved)
        # a different seed resolves to a different hash
        assert config_hash(resolve_config(config, "disorder", 6, "csv")) != manifest["configHash"]


@pytest.fixture
def solve_calls(monkeypatch):
    """Record the thread of every LAPACK eigensolve, whichever route makes it.

    ``reflection_fidelity``, ``erg_max_window`` and the ``ensemble_fidelity``
    kernel solve each chain through the one ``dlasq1`` handle (``dstevd`` only
    for a chain past the end-weight certificate); ``diagonalize`` and
    ``tpm_distribution`` through the one ``dstevd`` handle. Patching both in
    every ergochain namespace that binds them counts every eigensolve.
    """
    calls = []
    for handle in ("_stevd", "_lasq1"):
        original = getattr(spectral, handle)

        @functools.wraps(original)  # carries ``integer``, the type dlasq1's handle takes
        def counted(*args, _original=original, **kwargs):
            calls.append(threading.get_ident())
            return _original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "ergochain" and getattr(module, handle, None) is original:
                monkeypatch.setattr(module, handle, counted)
    return calls


class TestOneSolvePerChain:
    def _resolved(self, tmp_path, scenario, text):
        return resolve_config(_write(tmp_path, "run.ini", text), scenario, 0, "csv")

    def test_theta_sweep_solves_each_size_once(self, tmp_path, solve_calls):
        resolved = self._resolved(
            tmp_path, "theta-sweep", "[theta-sweep]\nsites = 4, 9, 16\ntheta_count = 11\n"
        )
        rows = block_rows(run_theta_sweep(resolved))
        assert len(rows) == 3 * (11 * 2 + 2)
        assert len(solve_calls) == 3

    def test_transport_sweep_solves_each_cell_once(self, tmp_path, solve_calls):
        blocks = run_transport_sweep(self._resolved(tmp_path, "transport-sweep", TRANSPORT_INI))
        assert len(block_rows(blocks)) == 2 * 2 * 2
        assert len(solve_calls) == 2 * 2

    def test_disorder_solves_each_realization_once(self, tmp_path, solve_calls):
        rows = block_rows(run_disorder(self._resolved(tmp_path, "disorder", DISORDER_INI)))
        assert len(rows) == 2 * 2
        assert len(solve_calls) == 2 * 25


class TestSerialExecution:
    """Every eigensolve runs on the calling thread, whatever the thread count asks."""

    def test_ensemble_fidelity(self, solve_calls):
        config = ChainConfig(8, coupling=1.0, field=1.0, alpha=1.0, delta=0.1)
        ensemble_erg(config, "coherent", 1.0, 12, seed=1, threads=4)
        assert solve_calls == [threading.get_ident()] * 12

    @pytest.mark.parametrize(
        "scenario,config,solves",
        [("disorder", DISORDER_INI, 2 * 25), ("transport-sweep", TRANSPORT_INI, 2 * 2)],
        ids=["disorder", "transport-sweep"],
    )
    def test_cli(self, tmp_path, solve_calls, scenario, config, solves):
        code, _ = _run(tmp_path, scenario, config, "--threads", "4")
        assert code == 0
        assert solve_calls == [threading.get_ident()] * solves


class TestFailurePaths:
    def _expect_config_error(self, tmp_path, capsys, scenario, config_text, fragment):
        code, _ = _run(tmp_path, scenario, config_text)
        captured = capsys.readouterr()
        assert code == 2
        assert "configuration error" in captured.err
        assert fragment in captured.err
        return captured.err

    def test_unknown_key(self, tmp_path, capsys):
        config = "[transport-sweep]\nsites = 4\nalphas = 0.5\nbanana = 1\n"
        err = self._expect_config_error(tmp_path, capsys, "transport-sweep", config, "banana")
        assert "known keys" in err

    def test_unknown_section(self, tmp_path, capsys):
        config = "[transport-sweep]\nsites = 4\nalphas = 0.5\n\n[extras]\nx = 1\n"
        self._expect_config_error(tmp_path, capsys, "transport-sweep", config, "[extras]")

    def test_section_for_other_scenario_rejected(self, tmp_path, capsys):
        self._expect_config_error(tmp_path, capsys, "workdist", DISORDER_INI, "[disorder]")

    def test_missing_required_key(self, tmp_path, capsys):
        config = "[transport-sweep]\nalphas = 0.5\n"
        self._expect_config_error(tmp_path, capsys, "transport-sweep", config, "sites")

    def test_missing_file(self, tmp_path, capsys):
        code = main(["workdist", "--config", str(tmp_path / "absent.ini")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_domain_violations(self, tmp_path, capsys):
        self._expect_config_error(
            tmp_path,
            capsys,
            "transport-sweep",
            "[transport-sweep]\nsites = 4\nalphas = 1.5\n",
            "alphas",
        )
        self._expect_config_error(
            tmp_path,
            capsys,
            "transport-sweep",
            "[transport-sweep]\nsites = 1\nalphas = 0.5\n",
            "sites",
        )
        self._expect_config_error(
            tmp_path,
            capsys,
            "transport-sweep",
            "[chain]\ncoupling = -1\n\n[transport-sweep]\nsites = 4\nalphas = 0.5\n",
            "coupling",
        )

    def test_unparsable_value(self, tmp_path, capsys):
        config = "[transport-sweep]\nsites = four\nalphas = 0.5\n"
        self._expect_config_error(tmp_path, capsys, "transport-sweep", config, "sites")

    def test_bad_threads_flag(self, tmp_path, capsys):
        code, _ = _run(tmp_path, "workdist", WORKDIST_INI, "--threads", "0")
        assert code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["run.ini", "run.json"])
    def test_undecodable_config_file(self, tmp_path, capsys, name):
        config = tmp_path / name
        config.write_bytes(b"[workdist]\nn = 12\xff\n")
        code = main(["workdist", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and str(config) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["run.ini", "run.json"])
    def test_config_file_that_cannot_be_opened(self, tmp_path, capsys, monkeypatch, name):
        # the file exists, so ``is_file()`` passes, but opening it fails
        config = _write(tmp_path, name, WORKDIST_INI)
        real_open = io.open

        def refuse(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file) == config:
                raise PermissionError(13, "Permission denied", str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", refuse)
        monkeypatch.setattr(io, "open", refuse)
        code = main(["workdist", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and "Permission denied" in err

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_blocked_by_an_existing_file(self, tmp_path, capsys, out):
        config = _write(tmp_path, "run.ini", WORKDIST_INI)
        (tmp_path / "taken").write_text("keep\n")
        code = main(["workdist", "--config", str(config), "--out", str(tmp_path / out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and str(tmp_path / out) in err
        assert (tmp_path / "taken").read_text() == "keep\n"

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_blocked_out_fails_before_the_run(self, tmp_path, capsys, monkeypatch, out):
        # the directory is made right after the configuration is read, so a bad
        # --out exits 2 without computing a single cell
        ran = []
        monkeypatch.setitem(_RUNNERS, "disorder", lambda resolved: ran.append(resolved) or [])
        config = _write(tmp_path, "run.ini", DISORDER_INI)
        (tmp_path / "taken").write_text("keep\n")
        code = main(["disorder", "--config", str(config), "--out", str(tmp_path / out)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err
        assert ran == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("taken", ["data", "manifest"])
    def test_unwritable_output_file(self, tmp_path, capsys, fmt, taken):
        # a directory where the data file or the manifest goes: exit 2, naming it
        name = {"data": f"theta-sweep.{fmt}", "manifest": "theta-sweep.manifest.json"}[taken]
        (tmp_path / "out" / name).mkdir(parents=True)
        code, out = _run(tmp_path, "theta-sweep", SCENARIO_INIS["theta-sweep"], "--format", fmt)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"ergochain: configuration error: cannot write {out / name}:")
        assert (out / name).is_dir()

    def test_a_reflection_time_that_overflows_exits_numerical(self, tmp_path, capsys):
        code, out = _run(tmp_path, "transport-sweep", "[chain]\ncoupling = 1e-310\n\n" + _TRANSPORT)
        assert code == 3
        assert "reflection time inf" in capsys.readouterr().err
        assert out.is_dir() and list(out.iterdir()) == []

    def test_numerical_failure_leaves_the_out_directory_empty(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(spectral, "_lasq1", hooked_lasq1(report_failure))
        code, out = _run(tmp_path, "theta-sweep", SCENARIO_INIS["theta-sweep"])
        assert code == 3
        assert "info = 1" in capsys.readouterr().err
        assert out.is_dir() and list(out.iterdir()) == []


def test_seed_beyond_the_generator_key_is_a_configuration_error(tmp_path, capsys, solve_calls):
    code, out = _run(tmp_path, "disorder", DISORDER_INI, "--seed", "100000000000000000000000")
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()
    code, out = _run(tmp_path / "workdist", "workdist", WORKDIST_INI, "--seed", "-" + "9" * 20)
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()
    assert solve_calls == []


_TRANSPORT = "[transport-sweep]\nsites = 4\nalphas = 0.5\n"
_SEED_RANGE = "seed must be >= -9223372036854775808 and <= 18446744073709551615"

# (scenario, config text, config suffix, extra arguments, the stderr line after the prefix)
CONFIG_ERRORS = {
    "sites": ("transport-sweep", "[transport-sweep]\nsites = 1\nalphas = 0.5\n", ".ini", (),
              "[transport-sweep] sites must be >= 2 and <= 8192, got 1"),
    "alphas": ("transport-sweep", "[transport-sweep]\nsites = 4\nalphas = 1.5\n", ".ini", (),
               "[transport-sweep] alphas must lie in [0.0, 1.0], got 1.5"),
    "alpha": ("theta-sweep", "[theta-sweep]\nsites = 4\nalpha = -0.1\n", ".ini", (),
              "[theta-sweep] alpha must lie in [0.0, 1.0], got -0.1"),
    "theta": ("transport-sweep", _TRANSPORT + "theta = 4\n", ".ini", (),
              "[transport-sweep] theta must lie in [0.0, 3.141592653589793], got 4.0"),
    "theta_count": ("theta-sweep", "[theta-sweep]\nsites = 4\ntheta_count = 1\n", ".ini", (),
                    "[theta-sweep] theta_count must be >= 2 and <= 1048576, got 1"),
    "deltas": ("disorder", "[disorder]\nsites = 4\ndeltas = -0.1\n", ".ini", (),
               "[disorder] deltas must lie in [0.0, 8.988465674311579e+307], got -0.1"),
    "realizations": ("disorder", "[disorder]\nsites = 4\ndeltas = 0.1\nrealizations = 0\n",
                     ".ini", (), "[disorder] realizations must be >= 1 and <= 1048576, got 0"),
    "n": ("workdist", "[workdist]\nn = 1\n", ".ini", (),
          "[workdist] n must be >= 2 and <= 8192, got 1"),
    "bins": ("workdist", "[workdist]\nn = 4\nbins = 0\n", ".ini", (),
             "[workdist] bins must be >= 1 and <= 1048576, got 0"),
    "coupling": ("transport-sweep", "[chain]\ncoupling = -1\n\n" + _TRANSPORT, ".ini", (),
                 "[chain] coupling must be > 0, got -1.0"),
    "field": ("transport-sweep", "[chain]\nfield = 0\n\n" + _TRANSPORT, ".ini", (),
              "[chain] field must be > 0, got 0.0"),
    # past half the float range, where 2B overflows
    "field-1e308": ("transport-sweep", "[chain]\nfield = 1e308\n\n" + _TRANSPORT, ".ini", (),
                    "[chain] field must lie in [-inf, 8.988465674311579e+307], got 1e+308"),
    "deltas-1e308": ("disorder", "[disorder]\nsites = 4\ndeltas = 1e308\n", ".ini", (),
                     "[disorder] deltas must lie in [0.0, 8.988465674311579e+307], got 1e+308"),
    "json-true": ("transport-sweep", '{"transport-sweep": {"sites": [4], "alphas": [true]}}',
                  ".json", (), "[transport-sweep] alphas must be a real number, got True"),
    "json-inf": ("transport-sweep",
                 '{"transport-sweep": {"sites": [4], "alphas": [0.5], "theta": Infinity}}',
                 ".json", (), "[transport-sweep] theta must be finite, got inf"),
    "ini-inf": ("transport-sweep", _TRANSPORT + "theta = inf\n", ".ini", (),
                "[transport-sweep] theta must be finite, got inf"),
    "unparsable": ("transport-sweep", "[transport-sweep]\nsites = four\nalphas = 0.5\n", ".ini",
                   (), "[transport-sweep] sites: expected int, got 'four'"),
    "json-not-a-list": ("transport-sweep", '{"transport-sweep": {"sites": 4, "alphas": [0.5]}}',
                        ".json", (), "[transport-sweep] sites: expected a list, got 4"),
    "json-empty-list": ("transport-sweep", '{"transport-sweep": {"sites": [], "alphas": [0.5]}}',
                        ".json", (), "[transport-sweep] sites: expected a nonempty list"),
    # a JSON string is a value, never INI text to parse: none of these is read as a number
    "json-string-list": ("transport-sweep",
                         '{"transport-sweep": {"sites": "8, 16", "alphas": [0.5]}}', ".json", (),
                         "[transport-sweep] sites: expected a list, got '8, 16'"),
    "json-string-item": ("transport-sweep",
                         '{"transport-sweep": {"sites": ["8"], "alphas": [0.5]}}', ".json", (),
                         "[transport-sweep] sites must be an integer, got '8'"),
    "json-string-scalar": (
        "transport-sweep",
        '{"transport-sweep": {"sites": [8], "alphas": [0.5], "theta": " 1.5 "}}',
        ".json", (), "[transport-sweep] theta must be a real number, got ' 1.5 '"),
    "json-string-chain": (
        "transport-sweep",
        '{"transport-sweep": {"sites": "8, 16", "alphas": "0.5", "theta": " 1.5 "},'
        ' "chain": {"coupling": "2"}}',
        ".json", (), "[chain] coupling must be a real number, got '2'"),
    "ini-empty-list": ("transport-sweep", "[transport-sweep]\nsites = ,\nalphas = 0.5\n", ".ini",
                       (), "[transport-sweep] sites: expected a nonempty list"),
    "threads": ("transport-sweep", _TRANSPORT, ".ini", ("--threads", "0"),
                "--threads must be >= 1, got 0"),
    "ini-default-section": (
        "transport-sweep", "[DEFAULT]\nsites = 4, 8\n\n[transport-sweep]\nalphas = 0.5\n", ".ini",
        (), "unknown section [DEFAULT] for scenario 'transport-sweep'"
        " (expected [chain] and [transport-sweep])"),
    "seed-workdist": ("workdist", WORKDIST_INI, ".ini", ("--seed", str(2**64)),
                      f"{_SEED_RANGE}, got {2**64}"),
    "seed-disorder": ("disorder", DISORDER_INI, ".ini", ("--seed", str(-(2**63) - 1)),
                      f"{_SEED_RANGE}, got {-(2**63) - 1}"),
}
# each count and chain length one past its bound, and far past it (it cannot be
# allocated); no value at the bound itself is run
CONFIG_ERRORS.update(
    (f"{key}-{value}", (scenario, f"{text}{key} = {value}\n", ".ini", (),
                        f"[{scenario}] {key} must be >= {low} and <= {high}, got {value}"))
    for key, scenario, text, low, high, far in (
        ("theta_count", "theta-sweep", "[theta-sweep]\nsites = 5\n", 2, 2**20, 10**15),
        ("realizations", "disorder", "[disorder]\nsites = 4\ndeltas = 0.1\n", 1, 2**20, 10**15),
        ("bins", "workdist", "[workdist]\nn = 4\nalphas = 0.5\n", 1, 2**20, 10**15),
        ("sites", "theta-sweep", "[theta-sweep]\n", 2, 2**13, 10**12),
        ("n", "workdist", "[workdist]\n", 2, 2**13, 10**12),
    )
    for value in (high + 1, far)
)


@pytest.mark.parametrize("case", CONFIG_ERRORS)
def test_configuration_error_table(tmp_path, capsys, solve_calls, case):
    scenario, text, suffix, extra, message = CONFIG_ERRORS[case]
    code, out = _run(tmp_path, scenario, text, *extra, config_name=f"run{suffix}")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"ergochain: configuration error: {message}\n"
    assert captured.out == ""
    assert not out.exists()
    assert solve_calls == []


@pytest.mark.parametrize("case", ["sites", "coupling", "seed-workdist"])
def test_resolve_config_raises_the_configuration_error_class(tmp_path, case):
    scenario, text, suffix, extra, message = CONFIG_ERRORS[case]
    config = _write(tmp_path, f"run{suffix}", text)
    seed = int(extra[1]) if extra else 0
    with pytest.raises(InvalidConfigError) as info:
        resolve_config(config, scenario, seed, "csv")
    assert type(info.value) is InvalidConfigError
    assert str(info.value) == message


def _json_dumps_rows(scenario, rows):
    """The writer's former body: NaN to None, then ``json.dumps(indent=2)``."""
    columns = _SCENARIOS[scenario].columns
    sanitized = [
        {
            c: (None if isinstance(row[c], float) and math.isnan(row[c]) else row[c])
            for c in columns
        }
        for row in rows
    ]
    return json.dumps(sanitized, indent=2) + "\n"


SCENARIO_INIS = {
    "transport-sweep": TRANSPORT_INI,
    "theta-sweep": "[theta-sweep]\nsites = 3, 8\nalpha = 0.6\ntheta_count = 5\n",
    "disorder": DISORDER_INI,
    "workdist": WORKDIST_INI,
    "bessel-compare": "[bessel-compare]\nsites = 6, 11\n",
}


class TestJsonRowWriter:
    """``write_rows_json`` writes exactly the bytes of ``json.dumps(indent=2)``."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_rows_of_every_scenario(self, tmp_path, scenario):
        config = _write(tmp_path, "run.ini", SCENARIO_INIS[scenario])
        blocks = _RUNNERS[scenario](resolve_config(config, scenario, 0, "json"))
        assert blocks
        write_rows_json(tmp_path / "rows.json", scenario, blocks)
        assert (tmp_path / "rows.json").read_text() == _json_dumps_rows(
            scenario, block_rows(blocks)
        )

    def test_no_rows(self, tmp_path):
        write_rows_json(tmp_path / "rows.json", "disorder", [])
        assert (tmp_path / "rows.json").read_text() == _json_dumps_rows("disorder", []) == "[]\n"

    def test_special_values(self, tmp_path):
        values = [
            math.nan, math.inf, -math.inf, -0.0, 1e-320, 0.1, np.float64(2.5), 2**70, -3,
            True, False, None,
            "plain", "caf\u00e9 \u2192 \U0001f600", 'say "hi"\\n\t\x01', "",
        ]
        columns = list(_SCENARIOS["disorder"].columns)
        rows = [
            {c: values[(i + j) % len(values)] for j, c in enumerate(columns)}
            for i in range(len(values))
        ]
        write_rows_json(tmp_path / "rows.json", "disorder", rows_block(rows, columns))
        text = (tmp_path / "rows.json").read_text()
        assert text == _json_dumps_rows("disorder", rows)
        assert "Infinity" in text and "-Infinity" in text and "NaN" not in text


@pytest.mark.parametrize(
    "scenario", ["disorder", "transport-sweep", "workdist", "theta-sweep", "bessel-compare"]
)
def test_lapack_failure_exits_numerical(tmp_path, capsys, monkeypatch, scenario):
    monkeypatch.setattr(spectral, "_stevd", lambda d, e: (d.copy(), np.eye(d.size), 1))
    monkeypatch.setattr(spectral, "_lasq1", hooked_lasq1(report_failure))
    code, _ = _run(tmp_path, scenario, SCENARIO_INIS[scenario])
    assert code == 3
    assert "info = 1" in capsys.readouterr().err


# Each scenario's data bytes in a fresh interpreter, with ``scipy.linalg``
# imported at {linalg} (before ergochain, after it, or never). ``spectral``
# takes dlasq1 and dstevd from numpy's OpenBLAS either way.
IMPORT_ORDER_DIGESTS = """
import hashlib, sys, tempfile
from pathlib import Path
{before}from ergochain.cli import main
{after}inis = {inis!r}
with tempfile.TemporaryDirectory() as tmp:
    for scenario, text in inis.items():
        config = Path(tmp) / (scenario + ".ini")
        config.write_text(text)
        for fmt in ("csv", "json"):
            out = Path(tmp) / scenario / fmt
            assert main([scenario, "--config", str(config), "--out", str(out), "--format", fmt]) == 0
            data = (out / (scenario + "." + fmt)).read_bytes()
            print("digest", scenario, fmt, hashlib.sha256(data).hexdigest())
print("linalg", "scipy.linalg" in sys.modules)
"""


def _import_order_digests(linalg):
    code = IMPORT_ORDER_DIGESTS.format(
        linalg=linalg,
        before="import scipy.linalg\n" if linalg == "before" else "",
        after="import scipy.linalg\n" if linalg == "after" else "",
        inis=SCENARIO_INIS,
    )
    root = str(Path(spectral.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": root if not path else root + os.pathsep + path}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stdout.splitlines() if line.startswith(("digest ", "linalg "))]
    assert lines[-1] == f"linalg {linalg != 'never'}"
    return lines[:-1]


def test_data_bytes_do_not_depend_on_when_scipy_linalg_is_imported():
    never = _import_order_digests("never")
    assert len(never) == 2 * len(SCENARIO_INIS)
    assert _import_order_digests("before") == never
    assert _import_order_digests("after") == never


# Chains past N = 202, where dstevd's bits can depend on the OpenBLAS thread
# count; the eigenvalue route reads each of them without a BLAS call.
THREAD_INIS = {
    "disorder": "[disorder]\nsites = 8, 256\nalphas = 0.0, 1.0\ndeltas = 0.2\nrealizations = 4\n",
    "theta-sweep": "[theta-sweep]\nsites = 64, 256, 300\nalpha = 1.0\ntheta_count = 5\n",
    "transport-sweep": "[transport-sweep]\nsites = 202, 256, 300\nalphas = 0.0, 0.5, 1.0\n",
    "bessel-compare": "[bessel-compare]\nsites = 202, 256, 300\n",
}

THREAD_DIGESTS = """
import hashlib, tempfile
from pathlib import Path
from ergochain.cli import main
inis = {inis!r}
with tempfile.TemporaryDirectory() as tmp:
    for scenario, text in inis.items():
        config = Path(tmp) / (scenario + ".ini")
        config.write_text(text)
        for threads in ("1", "4"):
            out = Path(tmp) / scenario / threads
            args = [scenario, "--config", str(config), "--out", str(out), "--threads", threads]
            assert main(args) == 0
            data = (out / (scenario + ".csv")).read_bytes()
            print("digest", scenario, threads, hashlib.sha256(data).hexdigest())
"""


def _thread_digests(blas_threads):
    root = str(Path(spectral.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": root if not path else root + os.pathsep + path,
        "OPENBLAS_NUM_THREADS": blas_threads,
    }
    done = subprocess.run(
        [sys.executable, "-c", THREAD_DIGESTS.format(inis=THREAD_INIS)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = [line.split()[1:] for line in done.stdout.splitlines() if line.startswith("digest ")]
    return {(scenario, threads): digest for scenario, threads, digest in lines}


def test_data_bytes_do_not_depend_on_blas_or_cli_threads():
    one, two = _thread_digests("1"), _thread_digests("2")
    assert len(one) == 2 * len(THREAD_INIS)
    assert two == one
    for scenario in THREAD_INIS:
        assert one[scenario, "1"] == one[scenario, "4"]
