"""End-to-end checks of the command line driver, run in process."""
from __future__ import annotations

import csv
import json
import math
import sys
import threading

import jsonschema
import numpy as np
import pytest

from ergochain import ChainConfig, ensemble_fidelity, spectral
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

    def test_env_threads_matches_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ERGOCHAIN_THREADS", "4")
        code, out_env = _run(tmp_path / "env", "disorder", DISORDER_INI)
        assert code == 0
        monkeypatch.delenv("ERGOCHAIN_THREADS")
        code, out_one = _run(tmp_path / "one", "disorder", DISORDER_INI)
        assert code == 0
        assert (out_env / "disorder.csv").read_bytes() == (out_one / "disorder.csv").read_bytes()

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

    ``diagonalize``, ``tpm_distribution`` and the ``ensemble_fidelity`` kernel
    all solve through the one ``dstevd`` handle, so patching it in every
    ergochain namespace that binds it counts every eigensolve.
    """
    calls = []
    original = spectral._stevd

    def counted(*args, **kwargs):
        calls.append(threading.get_ident())
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ergochain" and getattr(module, "_stevd", None) is original:
            monkeypatch.setattr(module, "_stevd", counted)
    return calls


class TestOneSolvePerChain:
    def _resolved(self, tmp_path, scenario, text):
        return resolve_config(_write(tmp_path, "run.ini", text), scenario, 0, "csv")

    def test_theta_sweep_solves_each_size_once(self, tmp_path, solve_calls):
        resolved = self._resolved(
            tmp_path, "theta-sweep", "[theta-sweep]\nsites = 4, 9, 16\ntheta_count = 11\n"
        )
        rows = run_theta_sweep(resolved)
        assert len(rows) == 3 * (11 * 2 + 2)
        assert len(solve_calls) == 3

    def test_transport_sweep_solves_each_cell_once(self, tmp_path, solve_calls):
        rows = run_transport_sweep(self._resolved(tmp_path, "transport-sweep", TRANSPORT_INI))
        assert len(rows) == 2 * 2 * 2
        assert len(solve_calls) == 2 * 2

    def test_disorder_solves_each_realization_once(self, tmp_path, solve_calls):
        rows = run_disorder(self._resolved(tmp_path, "disorder", DISORDER_INI))
        assert len(rows) == 2 * 2
        assert len(solve_calls) == 2 * 25


class TestSerialExecution:
    """Every eigensolve runs on the calling thread, whatever the thread count asks."""

    def test_ensemble_fidelity(self, solve_calls):
        config = ChainConfig(8, coupling=1.0, field=1.0, alpha=1.0, delta=0.1)
        ensemble_fidelity(config, 12, seed=1, threads=4)
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

    def test_bad_env_threads(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ERGOCHAIN_THREADS", "zero")
        code, _ = _run(tmp_path, "workdist", WORKDIST_INI)
        assert code == 2
        assert "ERGOCHAIN_THREADS" in capsys.readouterr().err

    def test_bad_threads_flag(self, tmp_path, capsys):
        code, _ = _run(tmp_path, "workdist", WORKDIST_INI, "--threads", "0")
        assert code == 2
        assert "--threads" in capsys.readouterr().err


def test_seed_beyond_the_generator_key_is_a_configuration_error(tmp_path, capsys, solve_calls):
    code, _ = _run(tmp_path, "disorder", DISORDER_INI, "--seed", "100000000000000000000000")
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert solve_calls == []


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
        rows = _RUNNERS[scenario](resolve_config(config, scenario, 0, "json"))
        assert rows
        write_rows_json(tmp_path / "rows.json", scenario, rows)
        assert (tmp_path / "rows.json").read_text() == _json_dumps_rows(scenario, rows)

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
        write_rows_json(tmp_path / "rows.json", "disorder", rows)
        text = (tmp_path / "rows.json").read_text()
        assert text == _json_dumps_rows("disorder", rows)
        assert "Infinity" in text and "-Infinity" in text and "NaN" not in text


@pytest.mark.parametrize("scenario", ["disorder", "transport-sweep", "workdist"])
def test_lapack_failure_exits_numerical(tmp_path, capsys, monkeypatch, scenario):
    monkeypatch.setattr(spectral, "_stevd", lambda d, e: (d.copy(), np.eye(d.size), 1))
    code, _ = _run(tmp_path, scenario, SCENARIO_INIS[scenario])
    assert code == 3
    assert "info = 1" in capsys.readouterr().err
