"""The clean-chain CLI blocks and the block writers against the routes they replace.

``transport-sweep`` and ``theta-sweep`` return one block of rows per chain,
built from the chain's (T, F) and the angles' inputs, computed once per angle,
with each encoding's receiver map run once over the array of angles. The
oracle below is the record route they replaced: one ``ErgotropyRecord`` per
(chain, angle, encoding), turned into a dict, with theta and kind merged in.
The writers format each shared cell once per block and each list column once
per call; the oracles there format every cell of every row. The writers write
block by block, one piece of text at a time, and their memory peaks are pinned.
"""

from __future__ import annotations

import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

import ergochain
from ergochain import ChainConfig, cli, disorder, ergotropy
from ergochain.cli import _SCENARIOS, resolve_config, write_rows_csv, write_rows_json
from ergochain.ergotropy import _record, erg_coherent, erg_mixed, match_mixed_to_pure
from ergochain.ergotropy import reflection_fidelity
from oracles import block_rows


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
    """``csv.writer`` over every cell, each formatted on its own by ``_format_cell``."""
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
        _, blocks, oracle = case
        rows = block_rows(blocks)
        assert cli._row_count(blocks) == len(rows) == len(oracle)
        for row, want in zip(rows, oracle):
            assert row.keys() == want.keys()
            for key in want:
                assert _same_value(row[key], want[key]), (key, row[key], want[key])

    def test_csv_bytes(self, case, tmp_path):
        scenario, blocks, oracle = case
        write_rows_csv(tmp_path / "rows.csv", scenario, blocks)
        assert (tmp_path / "rows.csv").read_text() == _csv_per_cell(scenario, oracle)

    def test_json_bytes(self, case, tmp_path):
        scenario, blocks, oracle = case
        write_rows_json(tmp_path / "rows.json", scenario, blocks)
        assert (tmp_path / "rows.json").read_text() == _json_per_cell(scenario, oracle)

    def test_the_cases_reach_the_edges(self, tmp_path):
        """NaN efficiencies, F clipped onto 1, and a zero mixed output all occur."""
        rows = []
        for name in CASES:
            resolved = _resolved(tmp_path, name)
            rows += block_rows(cli._RUNNERS[resolved["scenario"]](resolved))
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
    assert len(block_rows(cli.run_theta_sweep(resolved))) == len(sites) * (2 * count + 2)
    # q comes from one call over the angles, and each encoding's erg_in from one call
    ((thetas,),) = calls["match_mixed_to_pure"]
    assert thetas.shape == (count,)
    assert [(encoding, parameters.shape) for encoding, parameters, _ in calls["erg_input"]] == [
        ("coherent", (count,)), ("mixed", (count,))
    ]
    # each map runs once, over the chains' F as a column and the row of its parameters
    for name in ("erg_coherent", "erg_mixed"):
        ((fidelities, parameters, _),) = calls[name]
        assert fidelities.shape == (len(sites), 1) and parameters.shape == (count,)


def test_transport_sweep_computes_its_angle_once(monkeypatch):
    names = ("match_mixed_to_pure", "erg_input", "erg_coherent", "erg_mixed")
    calls = {name: _counted(monkeypatch, name) for name in names}
    resolved = {
        "chain": {"coupling": 1.0, "field": 1.0},
        "params": {"sites": [4, 8], "alphas": [0.0, 1.0], "theta": 1.0},
    }
    assert len(block_rows(cli.run_transport_sweep(resolved))) == 2 * 2 * 2
    assert len(calls["match_mixed_to_pure"]) == 1
    assert [encoding for encoding, _, _ in calls["erg_input"]] == ["coherent", "mixed"]
    assert len(calls["erg_coherent"]) == 1 and len(calls["erg_mixed"]) == 1


def _written(path):
    """The file's text as written: no newline translation, so a "\\r" reads back."""
    with open(path, newline="") as handle:
        return handle.read()


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


class TestReceiverMapOverAngles:
    """Each row of a sweep's blocks has the bits of the scalar receiver maps."""

    FIDELITIES = [0.0, 1e-300, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0), 1.0]
    THETAS = [0.0, math.pi, *np.random.default_rng(7).uniform(0.0, math.pi, 10**4).tolist()]

    @pytest.mark.parametrize("field", [1.0, 1.9])
    def test_blocks_equal_the_scalar_maps(self, monkeypatch, field):
        # the chain of N sites reads FIDELITIES[N - 2], so one sweep covers them all
        fidelity_of = dict(enumerate(self.FIDELITIES, start=2))
        monkeypatch.setattr(cli, "reflection_fidelity", lambda c: (1.5, fidelity_of[c.n_sites]))
        configs = [ChainConfig(n, coupling=1.0, field=field, alpha=0.5) for n in fidelity_of]
        blocks = cli._reflection_blocks(configs, self.THETAS, field)
        assert [shared["fidelity"] for shared, _ in blocks] == self.FIDELITIES
        want_in = []
        for theta in self.THETAS:
            q = match_mixed_to_pure(theta)
            want_in += [ergotropy.erg_input("coherent", theta, field),
                        ergotropy.erg_input("mixed", q, field)]
        for (_, lists), fidelity in zip(blocks, self.FIDELITIES):
            want_out = []
            for theta in self.THETAS:
                q = match_mixed_to_pure(theta)
                want_out += [erg_coherent(fidelity, theta, field), erg_mixed(fidelity, q, field)]
            assert _bits(lists["erg_out"]) == _bits(want_out)
            assert _bits(lists["erg_in"]) == _bits(want_in)
            efficiency = lists["efficiency"]
            assert [math.isnan(e) for e in efficiency] == [erg_in == 0 for erg_in in want_in]
            assert _bits([e for e in efficiency if e == e]) == _bits(
                [out / erg_in for out, erg_in in zip(want_out, want_in) if erg_in > 0]
            )

    def test_angles_reach_the_edges(self):
        """theta = 0 sends nothing, and at F = 1/2 - 1 ulp theta = pi leaves
        the mixed map at 0 while one ulp more extracts work."""
        below, above = self.FIDELITIES[2], self.FIDELITIES[4]
        assert erg_mixed(below, match_mixed_to_pure(math.pi), 1.0) == 0.0
        assert erg_mixed(above, match_mixed_to_pure(math.pi), 1.0) > 0.0
        assert ergotropy.erg_input("coherent", 0.0, 1.0) == 0.0


# every kind of number a cell may hold, and strings as the scenario table
# enumerates them (plain ASCII identifiers: nothing to quote, escape or double)
EDGE_VALUES = [
    0.0, -0.0, 1, True, 1.0, math.nan, math.inf, -math.inf, 1e-320, np.float64(2.5), 2**70,
    None, False, 0.1, -3, "coherent", "argmax",
]


def _edge_blocks(columns):
    """Blocks whose shared cells and list columns run through ``EDGE_VALUES``.

    One list object serves every block, the lists of two blocks are equal but
    not identical ([0.0, 1] against [-0.0, True] among them), and the last
    block is a one-row law like ``workdist``'s lone atom.
    """
    n = len(EDGE_VALUES)
    common = [EDGE_VALUES[(5 * k) % n] for k in range(n)]
    blocks = []
    for i in range(4):
        shared = {
            c: EDGE_VALUES[(7 * i + j) % n] for j, c in enumerate(columns[:-1]) if (i + j) % 3 == 0
        }
        lists = {c: [EDGE_VALUES[(i + j + k) % n] for k in range(n)]
                 for j, c in enumerate(columns[:-1]) if c not in shared}
        blocks.append((shared, {**lists, columns[-1]: common}))
    blocks.append(({c: -0.0 for c in columns[:-1]}, {columns[-1]: ["mixed"]}))
    return blocks


class TestBlockWriters:
    """Both writers write the bytes of the per-cell route, whatever the cells hold."""

    @pytest.mark.parametrize("scenario", ["disorder", "workdist"])
    def test_csv_equals_the_per_cell_route(self, tmp_path, scenario):
        blocks = _edge_blocks(list(_SCENARIOS[scenario].columns))
        write_rows_csv(tmp_path / "rows.csv", scenario, blocks)
        text = _written(tmp_path / "rows.csv")
        assert text == _csv_per_cell(scenario, block_rows(blocks))
        assert "nan" in text and "-inf" in text and "e-321" in text

    @pytest.mark.parametrize("scenario", ["disorder", "workdist"])
    def test_json_equals_the_per_cell_route(self, tmp_path, scenario):
        blocks = _edge_blocks(list(_SCENARIOS[scenario].columns))
        write_rows_json(tmp_path / "rows.json", scenario, blocks)
        text = _written(tmp_path / "rows.json")
        assert text == _json_per_cell(scenario, block_rows(blocks))
        assert "Infinity" in text and "NaN" not in text

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_pieces_move_no_byte(self, tmp_path, monkeypatch, fmt):
        """Pieces of 3 rows split every block, a list that several blocks
        share included, and the file is the same."""
        blocks = _edge_blocks(list(_SCENARIOS["workdist"].columns))
        resolved = _resolved(tmp_path, "theta-half-blend")
        sweep = cli._RUNNERS[resolved["scenario"]](resolved)
        written = []
        for piece_rows in (cli._PIECE_ROWS, 3):
            monkeypatch.setattr(cli, "_PIECE_ROWS", piece_rows)
            cli._WRITERS[fmt](tmp_path / "edges", "workdist", blocks)
            cli._WRITERS[fmt](tmp_path / "sweep", "theta-sweep", sweep)
            written.append((_written(tmp_path / "edges"), _written(tmp_path / "sweep")))
        assert written[0] == written[1]
        columns = _SCENARIOS["workdist"].columns
        pieces = list(cli._block_rows(blocks, columns, repr, ",".join, "\n"))
        assert [piece.count("\n") + 1 for piece in pieces] == [3, 3, 3, 3, 3, 2] * 4 + [1]

    def test_the_table_holds_only_plain_names(self):
        """The cell rule's guard: the writers quote, escape and double nothing,
        so every column name and enumerated string must be an ASCII identifier."""
        for spec in _SCENARIOS.values():
            for column, kind in spec.columns.items():
                names = [column, *kind] if isinstance(kind, tuple) else [column]
                assert all(name.isascii() and name.isidentifier() for name in names), names

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_run(self, tmp_path, fmt):
        cli._WRITERS[fmt](tmp_path / f"rows.{fmt}", "workdist", [])
        per_cell = {"csv": _csv_per_cell, "json": _json_per_cell}[fmt]("workdist", [])
        assert (tmp_path / f"rows.{fmt}").read_text() == per_cell
        assert cli._row_count([]) == 0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_row_law(self, tmp_path, fmt):
        """The whole law of a sender that sends nothing: the atom W = 0, p = 1."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"workdist": {"n": 6, "alphas": [0.5], "theta": 0.0}}))
        blocks = cli.run_workdist(resolve_config(config, "workdist", 0, fmt))
        assert cli._row_count(blocks) == 1
        cli._WRITERS[fmt](tmp_path / f"rows.{fmt}", "workdist", blocks)
        per_cell = {"csv": _csv_per_cell, "json": _json_per_cell}[fmt]
        assert (tmp_path / f"rows.{fmt}").read_text() == per_cell("workdist", block_rows(blocks))

    def test_each_shared_cell_and_list_is_written_once(self):
        common = [0.5, -0.0, "x"]
        blocks = [
            ({"a": 1, "c": "grid"}, {"b": common, "d": [0.0, 1, 1.0]}),
            ({"a": 2, "c": "argmax"}, {"b": common, "d": [-0.0, True, 1.0]}),
        ]
        written = []

        def text(value):
            written.append(value)
            return repr(value)

        pieces = list(cli._block_rows(blocks, "abcd", text, ",".join, "\n"))
        rows = [row for piece in pieces for row in piece.split("\n")]
        assert len(pieces) == 2
        assert rows == [",".join(repr(row[c]) for c in "abcd") for row in block_rows(blocks)]
        assert rows[3] == "2,0.5,'argmax',-0.0"
        assert len(written) == 2 * 2 + len(common) + 2 * 3


def _traced_peak(call, *args):
    """``tracemalloc`` peak, in bytes, of one call: what it allocates beyond
    what was held before it."""
    tracemalloc.start()
    try:
        call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestWriterMemory:
    """A writer holds one piece of one block at a time, never the file: its
    peak above the blocks it was handed stays far below the file's size."""

    @pytest.fixture(scope="class")
    def quench_blocks(self):
        """The blocks of the ``quench-json`` workload of bench/workloads.py."""
        params = {"n": 1000, "alphas": [0.0, 0.25, 0.5, 0.75, 1.0], "theta": math.pi, "bins": 101}
        return cli.run_workdist({"chain": {"coupling": 1.0, "field": 1.0}, "params": params})

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_quench_blocks(self, quench_blocks, tmp_path, fmt):
        path = tmp_path / f"rows.{fmt}"
        peak = _traced_peak(cli._WRITERS[fmt], path, "workdist", quench_blocks)
        assert path.stat().st_size > 600_000
        assert peak < 1.5e6, f"{fmt} writer peak {peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_large_block(self, tmp_path, fmt):
        """40,000 grid rows in one block: the writer's peak is below twice the
        block's own text."""
        params = {"sites": [6], "alpha": 1.0, "theta_count": 20_000}
        blocks = cli.run_theta_sweep({"chain": {"coupling": 1.0, "field": 1.0}, "params": params})
        path = tmp_path / f"rows.{fmt}"
        write = cli._WRITERS[fmt]
        write(path, "theta-sweep", [])
        empty = path.stat().st_size
        texts = []
        for block in blocks:  # each block's text: its file less the empty file
            write(path, "theta-sweep", [block])
            texts.append(path.stat().st_size - empty)
        peak = _traced_peak(write, path, "theta-sweep", blocks)
        assert max(texts) > 5e6
        assert peak < 2 * max(texts), f"{fmt} writer peak {peak / 1e6:.2f} MB"
