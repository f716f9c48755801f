"""The clean-chain CLI rows and the cell writer against the routes they replace.

``transport-sweep`` and ``theta-sweep`` build each row straight from the
chain's (T, F) and the angle's inputs, computed once per angle. The oracle
below is the record route they replaced: one ``ErgotropyRecord`` per (chain,
angle, encoding), turned into a dict, with theta and kind merged in. The
writers format a value once where it repeats the object above it; the oracle
there formats every cell.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import pytest

import ergochain
from ergochain import ChainConfig, cli, disorder, ergotropy
from ergochain.cli import _SCENARIOS, resolve_config, write_rows_csv, write_rows_json
from ergochain.ergotropy import _record, match_mixed_to_pure, reflection_fidelity


def _encoding_rows(config, theta, time, fidelity):
    """Coherent row plus the input-matched mixed row from one reflection fidelity."""
    rows = []
    q = match_mixed_to_pure(theta)
    for encoding, parameter in (("coherent", theta), ("mixed", q)):
        record = _record(config, encoding, parameter, time, fidelity)
        rows.append({**vars(record), "theta": theta})
    return rows


def _oracle_transport_sweep(resolved):
    chain, params = resolved["chain"], resolved["params"]
    rows = []
    for n in params["sites"]:
        for alpha in params["alphas"]:
            config = ChainConfig(n, **chain, alpha=alpha)
            rows += _encoding_rows(config, params["theta"], *reflection_fidelity(config))
    return rows


def _oracle_theta_sweep(resolved):
    chain, params = resolved["chain"], resolved["params"]
    rows = []
    for n in params["sites"]:
        config = ChainConfig(n, **chain, alpha=params["alpha"])
        time, fidelity = reflection_fidelity(config)
        grid = []
        for theta in np.linspace(0.0, math.pi, params["theta_count"]):
            for row in _encoding_rows(config, float(theta), time, fidelity):
                grid.append({**row, "kind": "grid"})
        rows += grid
        for encoding in ("coherent", "mixed"):
            # ties go to the largest theta
            best = max(
                (row for row in grid[::-1] if row["encoding"] == encoding),
                key=lambda row: row["erg_out"],
            )
            rows.append({**best, "kind": "argmax"})
    return rows


_ORACLES = {"transport-sweep": _oracle_transport_sweep, "theta-sweep": _oracle_theta_sweep}


def _csv_per_cell(scenario, rows):
    """Every cell formatted on its own, as the writer did before it reused text."""
    columns = _SCENARIOS[scenario].columns
    handle = io.StringIO(newline="")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(cli._format_cell(row[c]) for c in columns)
    return handle.getvalue()


def _json_per_cell(scenario, rows):
    """``json.dumps(indent=2)`` of the rows, NaN as null."""
    columns = _SCENARIOS[scenario].columns
    sanitized = [
        {c: (None if isinstance(row[c], float) and math.isnan(row[c]) else row[c]) for c in columns}
        for row in rows
    ]
    return json.dumps(sanitized, indent=2) + "\n"


def _same_value(a, b):
    """Equal type and equal repr: NaN equals NaN, and 0.0 differs from -0.0."""
    return type(a) is type(b) and repr(a) == repr(b)


# (scenario, [chain] section, scenario section)
CASES = {
    "transport-theta-0": (
        "transport-sweep", {}, {"sites": [2, 5, 8], "alphas": [0.0, 0.5, 1.0], "theta": 0.0}
    ),
    "transport-theta-pi": (
        "transport-sweep",
        {"coupling": 0.7, "field": 1.9},
        {"sites": [3, 16, 64], "alphas": [0.0, 0.5, 1.0], "theta": math.pi},
    ),
    "transport-default-theta": (
        "transport-sweep",
        {"coupling": 1.6, "field": 0.55},
        {"sites": [4, 32, 202], "alphas": [0.0, 0.25, 1.0]},
    ),
    "theta-count-2": ("theta-sweep", {}, {"sites": [2, 9], "alpha": 0.5, "theta_count": 2}),
    "theta-count-101-pst": (
        "theta-sweep",
        {"coupling": 0.7, "field": 1.9},
        {"sites": [16, 64, 256], "alpha": 1.0, "theta_count": 101},
    ),
    # N = 64 at alpha 0: F < 1/2, so every mixed erg_out is 0
    "theta-count-101-uniform": (
        "theta-sweep",
        {"coupling": 1.3, "field": 0.8},
        {"sites": [5, 64], "alpha": 0.0, "theta_count": 101},
    ),
    "theta-half-blend": ("theta-sweep", {}, {"sites": [7, 40], "alpha": 0.5, "theta_count": 17}),
}


def _resolved(directory, name):
    scenario, chain, params = CASES[name]
    path = directory / f"{name}.json"
    path.write_text(json.dumps({"chain": chain, scenario: params}))
    return resolve_config(path, scenario, 0, "csv")


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request, tmp_path_factory):
    resolved = _resolved(tmp_path_factory.mktemp("rows"), request.param)
    scenario = resolved["scenario"]
    return scenario, cli._RUNNERS[scenario](resolved), _ORACLES[scenario](resolved)


class TestRowsAgainstTheRecordRoute:
    def test_values(self, case):
        _, rows, oracle = case
        assert len(rows) == len(oracle)
        for row, want in zip(rows, oracle):
            assert row.keys() == want.keys()
            for key in want:
                assert _same_value(row[key], want[key]), (key, row[key], want[key])

    def test_csv_bytes(self, case, tmp_path):
        scenario, rows, oracle = case
        write_rows_csv(tmp_path / "rows.csv", scenario, rows)
        assert (tmp_path / "rows.csv").read_text() == _csv_per_cell(scenario, oracle)

    def test_json_bytes(self, case, tmp_path):
        scenario, rows, oracle = case
        write_rows_json(tmp_path / "rows.json", scenario, rows)
        assert (tmp_path / "rows.json").read_text() == _json_per_cell(scenario, oracle)

    def test_the_cases_reach_the_edges(self, tmp_path):
        """NaN efficiencies, F clipped onto 1, and a zero mixed output all occur."""
        rows = []
        for name in CASES:
            resolved = _resolved(tmp_path, name)
            rows += cli._RUNNERS[resolved["scenario"]](resolved)
        assert any(math.isnan(r["efficiency"]) for r in rows)
        assert max(r["fidelity"] for r in rows) == 1.0
        assert any(r["encoding"] == "mixed" and r["erg_in"] > 0 and r["erg_out"] == 0 for r in rows)
        assert {r["alpha"] for r in rows} >= {0.0, 0.5, 1.0}


def _counted(monkeypatch, name):
    """Count calls of ``ergotropy.<name>`` through every module name bound to it."""
    original = getattr(ergotropy, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (ergochain, ergotropy, cli, disorder):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("sites", [[6], [3, 8, 17]], ids=["one-site", "three-sites"])
def test_theta_sweep_computes_each_angle_once(monkeypatch, sites):
    names = ("match_mixed_to_pure", "erg_input", "erg_coherent", "erg_mixed")
    calls = {name: _counted(monkeypatch, name) for name in names}
    count = 9
    resolved = {
        "chain": {"coupling": 1.0, "field": 1.0},
        "params": {"sites": sites, "alpha": 0.5, "theta_count": count},
    }
    rows = cli.run_theta_sweep(resolved)
    assert len(rows) == len(sites) * (2 * count + 2)
    assert len(calls["match_mixed_to_pure"]) == count
    assert len(calls["erg_input"]) == 2 * count
    # the receiver maps still run once per (site, angle, encoding)
    assert len(calls["erg_coherent"]) == len(calls["erg_mixed"]) == len(sites) * count


def test_transport_sweep_computes_its_angle_once(monkeypatch):
    calls = {name: _counted(monkeypatch, name) for name in ("match_mixed_to_pure", "erg_input")}
    resolved = {
        "chain": {"coupling": 1.0, "field": 1.0},
        "params": {"sites": [4, 8], "alphas": [0.0, 1.0], "theta": 1.0},
    }
    assert len(cli.run_transport_sweep(resolved)) == 2 * 2 * 2
    assert len(calls["match_mixed_to_pure"]) == 1
    assert len(calls["erg_input"]) == 2


class TestCellWriter:
    """``_cells`` reuses a cell's text only for the very object above it."""

    SCENARIO = "disorder"  # nine columns
    SHARED = 0.1
    NAN = math.nan
    WIDE = np.float64(2.5)

    def _rows(self):
        # each column runs through one sequence of values, shifted by its index
        values = [
            self.SHARED, self.SHARED, 0.1, 0.0, -0.0, 0.0, 1, True, 1.0, 1, False, 0,
            self.NAN, self.NAN, math.nan, self.WIDE, self.WIDE, np.float64(2.5), 2.5,
            None, None, "mixed", "mixed", "coherent", math.inf, -math.inf, 2**70, -3,
        ]
        columns = list(_SCENARIOS[self.SCENARIO].columns)
        return [
            {c: values[(i + j) % len(values)] for j, c in enumerate(columns)}
            for i in range(len(values))
        ]

    def test_csv_equals_the_per_cell_route(self, tmp_path):
        rows = self._rows()
        write_rows_csv(tmp_path / "rows.csv", self.SCENARIO, rows)
        assert (tmp_path / "rows.csv").read_text() == _csv_per_cell(self.SCENARIO, rows)

    def test_json_equals_the_per_cell_route(self, tmp_path):
        rows = self._rows()
        write_rows_json(tmp_path / "rows.json", self.SCENARIO, rows)
        assert (tmp_path / "rows.json").read_text() == _json_per_cell(self.SCENARIO, rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reuse_by_equality_would_fail(self, tmp_path, monkeypatch, fmt):
        """The rows above tell identity from equality: 0.0/-0.0 and 1/True/1.0."""

        def by_equality(rows, columns, text):
            out = []
            for name in columns:
                above, cell, cells = object(), "", []
                for row in rows:
                    if row[name] != above:
                        above, cell = row[name], text(row[name])
                    cells.append(cell)
                out.append(cells)
            return zip(*out)

        rows = self._rows()
        monkeypatch.setattr(cli, "_cells", by_equality)
        cli._WRITERS[fmt](tmp_path / f"rows.{fmt}", self.SCENARIO, rows)
        per_cell = {"csv": _csv_per_cell, "json": _json_per_cell}[fmt](self.SCENARIO, rows)
        assert (tmp_path / f"rows.{fmt}").read_text() != per_cell

    def test_each_run_of_one_object_is_formatted_once(self):
        rows = self._rows()
        texts = []

        def text(value):
            texts.append(value)
            return repr(value)

        cells = list(cli._cells(rows, ["mean"], text))
        assert [cell for (cell,) in cells] == [repr(row["mean"]) for row in rows]
        runs = 1 + sum(b["mean"] is not a["mean"] for a, b in zip(rows, rows[1:]))
        assert len(texts) == runs < len(rows)
