"""Command-line front end: scenario runs with reproducible outputs.

    ergochain <scenario> --config FILE [--seed S] [--out DIR]
                         [--format csv|json] [--threads K]

Scenarios:

* transport-sweep: receiver ergotropy and efficiency at the reflection time
  over a grid of chain lengths and bond blends, both encodings at matched
  input ergotropy.
* theta-sweep: the same quantities against the preparation angle theta at
  fixed blend, then one ``argmax`` row per encoding: the grid row of largest
  ``erg_out``, ties going to the largest theta. Where no angle extracts work
  by the mixed encoding (F < 1/2), every mixed ``erg_out`` is 0 and that row
  is theta = pi.
* disorder: ensemble statistics of the receiver ergotropy under bond noise,
  with the coherent-vs-mixed contrast Gamma.
* workdist: the quench work distribution at one length: atoms, adaptive
  densities with their Gaussian/semicircle limits at the two closed-form
  blends, uniform-bin histograms in between. Where the sender sends nothing
  (theta = 0, or sin^2(theta/2) underflowing to 0), each blend's law is the
  one atom W = 0, p = 1, and that atom row is all it writes.
* bessel-compare: end-site arrival amplitude |f_N| = sqrt(F) of the uniform
  chain against its bulk Bessel-function limit.

The clean-chain scenarios (transport-sweep, theta-sweep) solve each chain
once for its reflection fidelity F and compute each angle's inputs (the
matched q and both erg_in) once per sweep; the coherent receiver map then
runs once per sweep, over the chains' F and the array of angles, and the
mixed one once per chain, over the array of q. A runner returns column
blocks: the cells every row of a block shares and one list per other
column. The writers format each shared cell once per block and each list
once per run, however many blocks share it, and write each file in one
call.

Every run writes `<scenario>.csv` (or `.json`) plus `<scenario>.manifest.json`
into the output directory. Data files are byte-identical across repeated runs
with the same resolved configuration and seed; the manifest repeats the
configuration hash and differs only in its timestamp. Every cell runs in the
calling thread: --threads is validated, must be an integer >= 1, and selects
no code path.

Exit codes: 0 success, 2 configuration error (bad file, unknown key or
section, bad value, a chain longer than 2^13 sites, a count past 2^20, a
coupling, field or delta past half the largest float, a --seed outside the
generator's key range, a bad --threads, an --out that cannot be a directory,
a data file or manifest that cannot be written, named in the message), 3
numerical failure (an internal accuracy contract was missed, or a reflection
time or phase overflowed). Every configuration check, the seed included,
runs before the output directory is made, so a configuration error leaves
no directory behind. The directory is created right after that, before any
cell runs, so a bad --out exits 2 at once; a run that then fails
numerically leaves that directory created and empty.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence, get_args, get_origin

import numpy as np

from . import __version__, _validate
from .chain import ChainConfig, _seed, pst_couplings
from .disorder import ensemble_fidelity, ensemble_stats, gamma_metric
from .dynamics import InitialSiteState, amplitude_bessel_limit
from .ergotropy import _efficiency, erg_coherent, erg_input, erg_mixed, match_mixed_to_pure
from .ergotropy import reflection_fidelity
from .errors import (
    InvalidConfigError,
    InvalidInputError,
    MisuseError,
    NumericalFailureError,
    UndefinedMetricError,
)
from .workstats import (
    adaptive_density,
    binned_histogram,
    gaussian_density,
    semicircle_density,
    tpm_distribution,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_REQUIRED = None  # the default of a key that every config must set


# A domain is a ``_validate`` rule and its bounds, called as
# ``rule(name, value, *bounds)``.
# The longest chain a config may ask for: a ``workdist`` solve of N sites holds
# below 2.5 N^2 doubles, about 1.3 GB at this bound.
_SITES = (_validate.integer, 2, 2**13)
_UNIT = (_validate.real, 0.0, 1.0)
_ANGLE = (_validate.angle,)
_POSITIVE = (_validate.positive,)
# The largest count a config may ask for (angles, realizations, bins), so a
# count that cannot be allocated is a configuration error, not a MemoryError.
_MAX_COUNT = 2**20
_COUNT = (_validate.integer, 1, _MAX_COUNT)

# Each config key is key -> (parser, default, domain). INI text is parsed by
# ``int`` or ``float`` (``list[...]``: a comma-separated list); JSON values,
# strings included, are used as they are. The domain then checks the value,
# or each item of a list. Defaults are applied before hashing, so the
# configuration hash always covers the fully resolved parameter set.
_CHAIN_SECTION = {
    "coupling": (float, 1.0, _POSITIVE),
    "field": (float, 1.0, _POSITIVE),
}


@dataclass(frozen=True)
class _Scenario:
    keys: dict[str, tuple[Callable, Any, tuple]]
    # output column -> JSON type; a tuple lists the allowed strings. The CSV
    # and JSON columns follow this order.
    columns: dict[str, Any]


# the cell of a reflection record, then its values (ErgotropyRecord plus theta)
_CELL_COLUMNS = {"n_sites": "integer", "alpha": "number", "encoding": _validate.ENCODINGS}
_RECORD_COLUMNS = {
    "theta": "number",
    "parameter": "number",
    "time": "number",
    "fidelity": "number",
    "erg_in": "number",
    "erg_out": "number",
    "efficiency": ["number", "null"],
}
_SCENARIOS: dict[str, _Scenario] = {
    "transport-sweep": _Scenario(
        keys={
            "sites": (list[int], _REQUIRED, _SITES),
            "alphas": (list[float], _REQUIRED, _UNIT),
            "theta": (float, math.pi / 2, _ANGLE),
        },
        columns={**_CELL_COLUMNS, **_RECORD_COLUMNS},
    ),
    # grid rows sample the angles; one argmax row per (N, encoding) repeats
    # the best grid sample
    "theta-sweep": _Scenario(
        keys={
            "sites": (list[int], _REQUIRED, _SITES),
            "alpha": (float, 1.0, _UNIT),
            "theta_count": (int, 25, (_validate.integer, 2, _MAX_COUNT)),
        },
        columns={**_CELL_COLUMNS, "kind": ("grid", "argmax"), **_RECORD_COLUMNS},
    ),
    "disorder": _Scenario(
        keys={
            "sites": (list[int], _REQUIRED, _SITES),
            "alphas": (list[float], [1.0], _UNIT),
            "deltas": (list[float], _REQUIRED, (_validate.real, 0.0, _validate.HALF_MAX)),
            "theta": (float, math.pi / 2, _ANGLE),
            "realizations": (int, 200, _COUNT),
        },
        columns={
            "n_sites": "integer",
            "alpha": "number",
            "delta": "number",
            "encoding": _validate.ENCODINGS,
            "parameter": "number",
            "mean": "number",
            "stddev": "number",
            "count": "integer",
            "gamma": ["number", "null"],
        },
    ),
    "workdist": _Scenario(
        keys={
            "n": (int, _REQUIRED, _SITES),
            "alphas": (list[float], [0.0, 0.5, 1.0], _UNIT),
            "theta": (float, math.pi, _ANGLE),
            "bins": (int, 101, _COUNT),
        },
        columns={
            "n_sites": "integer",
            "alpha": "number",
            "theta": "number",
            "kind": ("atom", "density", "gaussian", "semicircle", "hist"),
            "work": "number",
            "value": "number",
        },
    ),
    "bessel-compare": _Scenario(
        keys={"sites": (list[int], _REQUIRED, _SITES)},
        columns={
            "n_sites": "integer",
            "time": "number",
            "f_discrete": "number",
            "f_bessel": "number",
            "diff": "number",
        },
    ),
}

SCENARIOS = tuple(_SCENARIOS)

# JSON Schema for one output row of each scenario, derived from the table.
OUTPUT_SCHEMA: dict[str, dict[str, Any]] = {
    scenario: {
        "type": "object",
        "properties": {
            column: (
                {"type": "string", "enum": list(kind)}
                if isinstance(kind, tuple)
                else {"type": kind}
            )
            for column, kind in spec.columns.items()
        },
        "required": list(spec.columns),
        "additionalProperties": False,
    }
    for scenario, spec in _SCENARIOS.items()
}


# ---------------------------------------------------------------------------
# configuration loading


class _IniText(str):
    """A value read from INI text: the one kind of raw value that ``_parse`` parses."""


def _read_raw_config(path: Path) -> dict[str, dict[str, Any]]:
    """File -> {section: {key: raw value}}. JSON for .json, INI otherwise."""
    if not path.is_file():
        raise InvalidConfigError(f"config file not found: {path}")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfigError(f"config file {path} cannot be read: {exc}") from exc
    if path.suffix.lower() == ".json":
        try:
            loaded = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict) or not all(
            isinstance(v, dict) for v in loaded.values()
        ):
            raise InvalidConfigError(
                f"config file {path} must be an object of section objects"
            )
        return loaded
    # no section header can be empty, so [DEFAULT] is an ordinary (unknown) section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise InvalidConfigError(f"config file {path} is not valid INI: {exc}") from exc
    return {name: {k: _IniText(v) for k, v in parser.items(name)} for name in parser.sections()}


def _parse(parser: Callable, name: str, raw: Any) -> Any:
    if not isinstance(raw, _IniText):
        return raw
    try:
        return parser(raw.strip())
    except ValueError:
        raise InvalidConfigError(f"{name}: expected {parser.__name__}, got {raw!r}") from None


def _resolve_value(name: str, raw: Any, parser: Callable, domain: tuple) -> Any:
    rule, *bounds = domain
    if get_origin(parser) is not list:
        return rule(name, _parse(parser, name, raw), *bounds)
    (item,) = get_args(parser)
    if isinstance(raw, _IniText):
        raw = [_IniText(part) for part in raw.split(",") if part.strip()]
    elif not isinstance(raw, list):
        raise InvalidConfigError(f"{name}: expected a list, got {raw!r}")
    if not raw:
        raise InvalidConfigError(f"{name}: expected a nonempty list")
    return [rule(name, _parse(item, name, value), *bounds) for value in raw]


def _resolve_section(section: str, raw: dict[str, Any], keys: dict[str, tuple]) -> dict[str, Any]:
    for key in raw:
        if key not in keys:
            known = ", ".join(sorted(keys))
            raise InvalidConfigError(
                f"unknown key {key!r} in section [{section}] (known keys: {known})"
            )
    resolved: dict[str, Any] = {}
    for key, (parser, default, domain) in keys.items():
        if key in raw:
            resolved[key] = _resolve_value(f"[{section}] {key}", raw[key], parser, domain)
        elif default is _REQUIRED:
            raise InvalidConfigError(f"missing required key {key!r} in section [{section}]")
        else:
            resolved[key] = default
    return resolved


def resolve_config(path: Path, scenario: str, seed: int, fmt: str) -> dict[str, Any]:
    """Load, validate fail-closed, and fully default one scenario config.

    The result contains everything that determines the output bytes (chain
    parameters, scenario parameters, seed, format, tool version), so its
    canonical hash identifies the run. A value outside its domain, the seed
    included, raises InvalidConfigError with the ``_validate`` message.
    """
    if scenario not in SCENARIOS:
        raise InvalidConfigError(f"unknown scenario {scenario!r} (known: {', '.join(SCENARIOS)})")
    raw = _read_raw_config(path)
    for section in raw:
        if section not in ("chain", scenario):
            raise InvalidConfigError(
                f"unknown section [{section}] for scenario {scenario!r} "
                f"(expected [chain] and [{scenario}])"
            )
    try:
        return {
            "scenario": scenario,
            "chain": _resolve_section("chain", raw.get("chain", {}), _CHAIN_SECTION),
            "params": _resolve_section(scenario, raw.get(scenario, {}), _SCENARIOS[scenario].keys),
            "seed": _seed(seed),
            "format": fmt,
            "toolVersion": __version__,
        }
    except InvalidInputError as exc:  # a value outside its domain: a configuration error
        raise InvalidConfigError(str(exc)) from None


def config_hash(resolved: dict[str, Any]) -> str:
    """sha256 of the canonical (sorted, compact) JSON of the resolved config."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# scenario runners

# A runner returns its rows as column blocks (shared, lists) in row order.
# ``shared`` maps a column to the cell of every row of the block; ``lists``
# maps each other column, at least one, to the block's values in row order,
# all of one length. A list object may serve several blocks.
Block = tuple[dict[str, Any], dict[str, Sequence]]


def _angle_inputs(theta: float, field: float) -> tuple[tuple[str, float, float], ...]:
    """(encoding, parameter, erg_in) of the angle theta and of its input-matched q.

    The one place the CLI pairs theta with its q. Computed once per angle and
    shared by every chain of a run. The CLI's theta lies in [0, pi] and q in
    [1/2, 1], so each parameter is already the one ``erg_input`` validates.
    """
    q = match_mixed_to_pure(theta)
    return (
        ("coherent", theta, erg_input("coherent", theta, field)),
        ("mixed", q, erg_input("mixed", q, field)),
    )


def _reflection_blocks(
    configs: list[ChainConfig], thetas: list[float], field: float, **extra: Any
) -> list[Block]:
    """One block per chain: a coherent row, then its input-matched mixed row,
    at each angle, from the chain's one reflection fidelity.

    A row holds the fields of the ``ErgotropyRecord`` that ``erg_at_reflection``
    returns, plus theta; ``extra`` adds shared columns. The angle columns are
    one list object that every chain's block shares. The coherent map runs
    once, over the chains' F and the array of angles; the mixed map once per
    chain, over the array of q, which takes F's place (``erg_mixed`` is
    symmetric in F and q to the bit).
    """
    inputs = [row for theta in thetas for row in _angle_inputs(theta, field)]
    encodings, parameters, erg_in = map(list, zip(*inputs))
    lists = {
        "theta": [theta for theta in thetas for _ in _validate.ENCODINGS],
        "encoding": encodings, "parameter": parameters, "erg_in": erg_in,
    }
    solved = [reflection_fidelity(config) for config in configs]
    fidelities = np.array([fidelity for _, fidelity in solved])[:, None]
    qs = np.array(parameters[1::2])
    erg_out = np.stack(
        (erg_coherent(fidelities, np.array(thetas), field),
         [erg_mixed(qs, fidelity, field) for _, fidelity in solved]), axis=2,
    ).reshape(len(configs), -1)
    efficiency = _efficiency(erg_out, np.array(erg_in))
    return [
        ({"n_sites": config.n_sites, "alpha": config.alpha, "time": time, "fidelity": fidelity,
          **extra}, {**lists, "erg_out": out, "efficiency": ratio})
        for config, (time, fidelity), out, ratio
        in zip(configs, solved, erg_out.tolist(), efficiency.tolist())
    ]


def run_transport_sweep(resolved: dict[str, Any]) -> list[Block]:
    chain = resolved["chain"]
    params = resolved["params"]
    configs = [
        ChainConfig(n, **chain, alpha=alpha) for n in params["sites"] for alpha in params["alphas"]
    ]
    return _reflection_blocks(configs, [params["theta"]], chain["field"])


def run_theta_sweep(resolved: dict[str, Any]) -> list[Block]:
    chain = resolved["chain"]
    params = resolved["params"]
    configs = [ChainConfig(n, **chain, alpha=params["alpha"]) for n in params["sites"]]
    thetas = np.linspace(0.0, math.pi, params["theta_count"]).tolist()
    blocks: list[Block] = []
    for shared, lists in _reflection_blocks(configs, thetas, chain["field"], kind="grid"):
        erg_out = lists["erg_out"]
        # max keeps the first of equal rows, scanned from the end: ties go to the largest theta
        best = [max(reversed(range(e, len(erg_out), 2)), key=erg_out.__getitem__) for e in (0, 1)]
        argmax = {column: [values[i] for i in best] for column, values in lists.items()}
        blocks += [(shared, lists), ({**shared, "kind": "argmax"}, argmax)]
    return blocks


def _row_count(blocks: list[Block]) -> int:
    return sum(len(next(iter(lists.values()))) for _, lists in blocks)


def _one_block(scenario: str, rows: list[tuple]) -> list[Block]:
    """Rows given as tuples in the scenario's column order, as one block."""
    return [({}, dict(zip(_SCENARIOS[scenario].columns, map(list, zip(*rows)))))]


def run_disorder(resolved: dict[str, Any]) -> list[Block]:
    chain = resolved["chain"]
    params = resolved["params"]
    inputs = _angle_inputs(params["theta"], chain["field"])
    rows: list[tuple] = []
    for n in params["sites"]:
        for alpha in params["alphas"]:
            for delta in params["deltas"]:
                config = ChainConfig(n, **chain, alpha=alpha, delta=delta)
                fidelities = ensemble_fidelity(config, params["realizations"], resolved["seed"])
                pair = [ensemble_stats(config, e, p, fidelities) for e, p, _ in inputs]
                try:
                    gamma = gamma_metric(*pair)
                except UndefinedMetricError:
                    gamma = math.nan
                rows += [
                    (n, alpha, s.delta, s.encoding, s.parameter, s.mean, s.stddev, s.count, g)
                    for s, g in zip(pair, (gamma, math.nan))
                ]
    return _one_block("disorder", rows)


def run_workdist(resolved: dict[str, Any]) -> list[Block]:
    chain = resolved["chain"]
    params = resolved["params"]
    n = params["n"]
    theta = params["theta"]
    initial = InitialSiteState(theta=theta)
    blocks: list[Block] = []

    def add(alpha: float, kind: str, works: list[float], values: np.ndarray) -> None:
        shared = {"n_sites": n, "alpha": alpha, "theta": theta, "kind": kind}
        blocks.append((shared, {"work": works, "value": values.tolist()}))

    for alpha in params["alphas"]:
        distribution = tpm_distribution(ChainConfig(n, **chain, alpha=alpha), initial)
        add(alpha, "atom", distribution.values.tolist(), distribution.probabilities)
        if distribution.values.size == 1:
            continue  # a sender that sends nothing: the atom W = 0, p = 1 is the whole law
        if alpha == 1.0 or alpha == 0.0:
            points, densities = adaptive_density(distribution)
            works = points.tolist()  # one list for the three laws on these points
            add(alpha, "density", works, densities)
            if alpha == 1.0:
                # limit of the binomial ladder: centered Gaussian, variance
                # equal to the squared first engineered bond
                variance = float(pst_couplings(n, chain["coupling"])[0] ** 2)
                add(alpha, "gaussian", works, gaussian_density(points, variance))
            else:
                add(alpha, "semicircle", works, semicircle_density(points, chain["coupling"]))
        else:
            centers, heights = binned_histogram(distribution, params["bins"])
            add(alpha, "hist", centers.tolist(), heights)
    return blocks


def run_bessel_compare(resolved: dict[str, Any]) -> list[Block]:
    chain = resolved["chain"]
    rows: list[tuple] = []
    for n in resolved["params"]["sites"]:
        t, fidelity = reflection_fidelity(ChainConfig(n, **chain, alpha=0.0))
        f_discrete = math.sqrt(fidelity)
        f_bessel = abs(amplitude_bessel_limit(n, chain["coupling"], t).value)
        rows.append((n, t, f_discrete, f_bessel, abs(f_discrete - f_bessel)))
    return _one_block("bessel-compare", rows)


_RUNNERS: dict[str, Callable[[dict[str, Any]], list[Block]]] = {
    "transport-sweep": run_transport_sweep,
    "theta-sweep": run_theta_sweep,
    "disorder": run_disorder,
    "workdist": run_workdist,
    "bessel-compare": run_bessel_compare,
}


# ---------------------------------------------------------------------------
# output


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _block_rows(
    blocks: list[Block], columns: Iterable[str], text: Callable[[Any], str],
    row: Callable[[list[str]], str],
) -> list[str]:
    """Each row of ``blocks`` as text: its cells in column order, each written by
    ``text`` and joined by ``row``.

    A block's shared cells are written once, and each list column with one
    ``map``; a list object that several blocks share is written once per call.
    ``row`` then joins the shared cells (``%`` doubled) and a ``%s`` per list
    column into the block's template, which each row fills in.
    """
    written: dict[int, list[str]] = {}  # id of a list column -> its cells
    rows: list[str] = []
    for shared, lists in blocks:
        cells, filled = [], []
        for column in columns:
            if column in shared:
                cells.append(text(shared[column]).replace("%", "%%"))
                continue
            values = lists[column]
            if id(values) not in written:
                written[id(values)] = list(map(text, values))
            cells.append("%s")
            filled.append(written[id(values)])
        rows += map(row(cells).__mod__, zip(*filled))
    return rows


def write_rows_csv(path: Path, scenario: str, blocks: list[Block]) -> None:
    """The rows as ``csv.writer`` writes them, each cell as ``_format_cell``
    writes it, in one write.

    ``csv.writer`` (QUOTE_MINIMAL, lines ended by a newline) quotes a cell,
    doubling its quotes, when it holds a comma, a quote or a newline. A
    number's text never does, so the rule is applied to each distinct string.
    """
    columns = _SCENARIOS[scenario].columns
    quoted: dict[str, str] = {}

    def text(value: Any) -> str:
        if not isinstance(value, str):
            return _format_cell(value)
        if value not in quoted:
            special = "," in value or '"' in value or "\n" in value
            quoted[value] = '"' + value.replace('"', '""') + '"' if special else str(value)
        return quoted[value]

    lines = [",".join(map(text, columns)), *_block_rows(blocks, columns, text, ",".join)]
    path.write_text("\n".join(lines) + "\n", newline="")


# the text ``float.__repr__`` gives a non-finite float -> its JSON, NaN as null
_JSON_NONFINITE = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _json_value(value: Any) -> str:
    """One row value as ``json.dumps`` writes it, except that NaN is null.

    A float, most cells, takes ``float.__repr__`` as ``json.dumps`` does,
    without the cost of a ``json.dumps`` call; any other value goes through it.
    """
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_NONFINITE.get(text, text)
    return json.dumps(value)


def write_rows_json(path: Path, scenario: str, blocks: list[Block]) -> None:
    """The rows as ``json.dumps(rows, indent=2)`` writes them, NaN as null.

    ``indent`` sends ``json.dumps`` to its pure-Python encoder, so the rows
    are joined here from the encoder's own pieces (``_json_value`` per cell,
    ``encode_basestring_ascii`` once per key).
    """
    columns = _SCENARIOS[scenario].columns
    keys = [f"    {encode_basestring_ascii(c)}: ".replace("%", "%%") for c in columns]

    def row(cells: list[str]) -> str:
        return "  {\n" + ",\n".join([key + cell for key, cell in zip(keys, cells)]) + "\n  }"

    items = _block_rows(blocks, columns, _json_value, row)
    path.write_text("[\n" + ",\n".join(items) + "\n]\n" if items else "[]\n")


# --format value -> data file writer; the value is also the data file's suffix
_WRITERS = {"csv": write_rows_csv, "json": write_rows_json}


def write_manifest(path: Path, resolved: dict[str, Any], row_count: int) -> None:
    manifest = {
        "configHash": config_hash(resolved),
        "seed": resolved["seed"],
        "toolVersion": resolved["toolVersion"],
        "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "rowCount": row_count,
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergochain",
        description="Ergotropy transport along engineered spin chains.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("scenario", choices=SCENARIOS, help="which study to run")
    parser.add_argument("--config", required=True, help="INI or JSON parameter file")
    parser.add_argument("--seed", type=int, default=0, help="ensemble seed (default 0)")
    parser.add_argument(
        "--out", default=".", help="output directory (created if missing; default .)"
    )
    parser.add_argument(
        "--format", choices=tuple(_WRITERS), default="csv", help="data file format"
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility: an integer >= 1 (default 1);"
        " runs are serial and output bytes never depend on it",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate.integer("--threads", args.threads, 1)
        resolved = resolve_config(Path(args.config), args.scenario, args.seed, args.format)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)  # before the run, so a bad --out fails fast
        except OSError as exc:
            raise InvalidConfigError(f"cannot use {out_dir} as output directory: {exc}") from exc
        blocks = _RUNNERS[args.scenario](resolved)
        rows = _row_count(blocks)
        data_path = path = out_dir / f"{args.scenario}.{args.format}"
        try:  # ``path`` names the file being written, for the message
            _WRITERS[args.format](path, args.scenario, blocks)
            path = out_dir / f"{args.scenario}.manifest.json"
            write_manifest(path, resolved, rows)
        except OSError as exc:
            raise InvalidConfigError(f"cannot write {path}: {exc}") from exc
    except (InvalidConfigError, InvalidInputError, MisuseError) as exc:
        print(f"ergochain: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailureError as exc:
        detail = f" (residual {exc.residual:.3e})" if exc.residual is not None else ""
        print(f"ergochain: numerical failure: {exc}{detail}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {data_path} ({rows} rows)")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
