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
matched q and both erg_in) once per sweep; every row is then built straight
from (T, F) and those inputs, with one receiver map per (chain, angle,
encoding). The writers format a cell once where its value is the very object
of the cell above it.

Every run writes `<scenario>.csv` (or `.json`) plus `<scenario>.manifest.json`
into the output directory. Data files are byte-identical across repeated runs
with the same resolved configuration and seed; the manifest repeats the
configuration hash and differs only in its timestamp. Every cell runs in the
calling thread: --threads is validated, must be an integer >= 1, and selects
no code path.

Exit codes: 0 success, 2 configuration error (bad file, unknown key or
section, bad value, a --seed outside the generator's key range, a bad
--threads, an --out that cannot be a directory), 3 numerical failure (an
internal accuracy contract was missed). Every configuration check, the seed
included, runs before the output directory is made, so a configuration
error leaves no directory behind. The directory is created right after
that, before any cell runs, so a bad --out exits 2 at once; a run that then
fails numerically leaves that directory created and empty.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, get_args, get_origin

import numpy as np

from . import __version__, _validate
from .chain import ChainConfig, _seed, pst_couplings
from .disorder import ensemble_fidelity, ensemble_stats, gamma_metric
from .dynamics import InitialSiteState, amplitude_bessel_limit
from .ergotropy import _record_fields, erg_input, match_mixed_to_pure, reflection_fidelity
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
_SITES = (_validate.integer, 2)
_UNIT = (_validate.real, 0.0, 1.0)
_ANGLE = (_validate.angle,)
_POSITIVE = (_validate.positive,)
_COUNT = (_validate.integer, 1)

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
            "theta_count": (int, 25, (_validate.integer, 2)),
        },
        columns={**_CELL_COLUMNS, "kind": ("grid", "argmax"), **_RECORD_COLUMNS},
    ),
    "disorder": _Scenario(
        keys={
            "sites": (list[int], _REQUIRED, _SITES),
            "alphas": (list[float], [1.0], _UNIT),
            "deltas": (list[float], _REQUIRED, (_validate.real, 0.0)),
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
        return {str(k): dict(v) for k, v in loaded.items()}
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
    elif not isinstance(raw, (list, tuple)):
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

Row = dict[str, Any]


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


def _reflection_rows(config: ChainConfig, angles: list[tuple], **extra: Any) -> list[Row]:
    """One row per (angle, encoding) from the chain's one reflection fidelity.

    ``angles`` pairs each theta with its ``_angle_inputs``, and ``extra``
    adds fixed columns. A row holds the fields of the ``ErgotropyRecord``
    that ``erg_at_reflection`` returns (``ergotropy._record_fields``), plus
    theta, built straight from (T, F) and the angle's inputs.
    """
    time, fidelity = reflection_fidelity(config)
    return [
        {**_record_fields(config, encoding, parameter, erg_in, time, fidelity),
         "theta": theta, **extra}
        for theta, inputs in angles
        for encoding, parameter, erg_in in inputs
    ]


def run_transport_sweep(resolved: dict[str, Any]) -> list[Row]:
    chain = resolved["chain"]
    params = resolved["params"]
    angles = [(params["theta"], _angle_inputs(params["theta"], chain["field"]))]
    rows: list[Row] = []
    for n in params["sites"]:
        for alpha in params["alphas"]:
            rows += _reflection_rows(ChainConfig(n, **chain, alpha=alpha), angles)
    return rows


def run_theta_sweep(resolved: dict[str, Any]) -> list[Row]:
    chain = resolved["chain"]
    params = resolved["params"]
    thetas = np.linspace(0.0, math.pi, params["theta_count"]).tolist()
    angles = [(theta, _angle_inputs(theta, chain["field"])) for theta in thetas]
    rows: list[Row] = []
    for n in params["sites"]:
        config = ChainConfig(n, **chain, alpha=params["alpha"])
        grid = _reflection_rows(config, angles, kind="grid")
        rows += grid
        for encoding in _validate.ENCODINGS:
            ranked = [r for r in reversed(grid) if r["encoding"] == encoding]
            # max keeps the first of equal rows: ties go to the largest theta
            rows.append({**max(ranked, key=lambda r: r["erg_out"]), "kind": "argmax"})
    return rows


def run_disorder(resolved: dict[str, Any]) -> list[Row]:
    chain = resolved["chain"]
    params = resolved["params"]
    inputs = _angle_inputs(params["theta"], chain["field"])
    rows: list[Row] = []
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
                    {**vars(stats), "n_sites": n, "alpha": alpha, "count": stats.count, "gamma": g}
                    for stats, g in zip(pair, (gamma, math.nan))
                ]
    return rows


def run_workdist(resolved: dict[str, Any]) -> list[Row]:
    chain = resolved["chain"]
    params = resolved["params"]
    n = params["n"]
    theta = params["theta"]
    initial = InitialSiteState(theta=theta)
    rows: list[Row] = []

    def add(alpha: float, kind: str, works: Sequence[float], values: Sequence[float]) -> None:
        rows.extend(
            {
                "n_sites": n,
                "alpha": alpha,
                "theta": theta,
                "kind": kind,
                "work": float(work),
                "value": float(value),
            }
            for work, value in zip(works, values)
        )

    for alpha in params["alphas"]:
        distribution = tpm_distribution(ChainConfig(n, **chain, alpha=alpha), initial)
        add(alpha, "atom", distribution.values, distribution.probabilities)
        if distribution.values.size == 1:
            continue  # a sender that sends nothing: the atom W = 0, p = 1 is the whole law
        if alpha == 1.0 or alpha == 0.0:
            points, densities = adaptive_density(distribution)
            add(alpha, "density", points, densities)
            if alpha == 1.0:
                # limit of the binomial ladder: centered Gaussian, variance
                # equal to the squared first engineered bond
                variance = float(pst_couplings(n, chain["coupling"])[0] ** 2)
                add(alpha, "gaussian", points, gaussian_density(points, variance))
            else:
                add(alpha, "semicircle", points, semicircle_density(points, chain["coupling"]))
        else:
            add(alpha, "hist", *binned_histogram(distribution, params["bins"]))
    return rows


def run_bessel_compare(resolved: dict[str, Any]) -> list[Row]:
    chain = resolved["chain"]
    rows: list[Row] = []
    for n in resolved["params"]["sites"]:
        t, fidelity = reflection_fidelity(ChainConfig(n, **chain, alpha=0.0))
        f_discrete = math.sqrt(fidelity)
        f_bessel = abs(amplitude_bessel_limit(n, chain["coupling"], t).value)
        rows.append(
            {
                "n_sites": n,
                "time": t,
                "f_discrete": f_discrete,
                "f_bessel": f_bessel,
                "diff": abs(f_discrete - f_bessel),
            }
        )
    return rows


_RUNNERS: dict[str, Callable[[dict[str, Any]], list[Row]]] = {
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


def _cells(rows: list[Row], columns: Iterable[str], text: Callable[[Any], str]) -> Iterator[tuple]:
    """Each row's cells in column order, each value written by ``text``.

    A value that is the very object above it in its column (a chain's time
    and F, an angle shared by its two encodings) reuses that cell's text.
    The test is identity, never equality: 0.0 and -0.0, or 1 and True, are
    equal but written differently.
    """
    columns = list(columns)
    above: list[Any] = [object()] * len(columns)
    cells = [""] * len(columns)
    for row in rows:
        for i, column in enumerate(columns):
            value = row[column]
            if value is not above[i]:
                above[i] = value
                cells[i] = text(value)
        yield tuple(cells)


def write_rows_csv(path: Path, scenario: str, rows: list[Row]) -> None:
    columns = _SCENARIOS[scenario].columns
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(_cells(rows, columns, _format_cell))


def _json_value(value: Any) -> str:
    """One row value as ``json.dumps`` writes it, except that NaN is null."""
    if isinstance(value, float):
        if value != value:
            return "null"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_rows_json(path: Path, scenario: str, rows: list[Row]) -> None:
    """The rows as ``json.dumps(rows, indent=2)`` writes them, NaN as null.

    ``indent`` sends ``json.dumps`` to its pure-Python encoder, so the rows
    are joined here from the encoder's own pieces (``float.__repr__``,
    ``int.__repr__``, ``encode_basestring_ascii``), each key escaped once.
    """
    columns = _SCENARIOS[scenario].columns
    keys = [f"    {encode_basestring_ascii(c)}: " for c in columns]
    items = [
        "  {\n" + ",\n".join([key + cell for key, cell in zip(keys, cells)]) + "\n  }"
        for cells in _cells(rows, columns, _json_value)
    ]
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
        rows = _RUNNERS[args.scenario](resolved)
        data_path = out_dir / f"{args.scenario}.{args.format}"
        _WRITERS[args.format](data_path, args.scenario, rows)
        write_manifest(out_dir / f"{args.scenario}.manifest.json", resolved, len(rows))
    except (InvalidConfigError, InvalidInputError, MisuseError) as exc:
        print(f"ergochain: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailureError as exc:
        detail = f" (residual {exc.residual:.3e})" if exc.residual is not None else ""
        print(f"ergochain: numerical failure: {exc}{detail}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {data_path} ({len(rows)} rows)")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
