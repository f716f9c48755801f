"""Command-line front end: scenario runs with reproducible outputs.

    ergochain <scenario> --config FILE [--seed S] [--out DIR]
                         [--format csv|json] [--threads K]

Scenarios:

* transport-sweep: receiver ergotropy and efficiency at the reflection time
  over a grid of chain lengths and bond blends, both encodings at matched
  input ergotropy.
* theta-sweep: the same quantities against the preparation angle theta at
  fixed blend.
* disorder: ensemble statistics of the receiver ergotropy under bond noise,
  with the coherent-vs-mixed contrast Gamma.
* workdist: the quench work distribution at one length: atoms, adaptive
  densities with their Gaussian/semicircle limits at the two closed-form
  blends, uniform-bin histograms in between.
* bessel-compare: end-site arrival amplitude of the uniform chain against
  its bulk Bessel-function limit.

Every run writes `<scenario>.csv` (or `.json`) plus `<scenario>.manifest.json`
into the output directory. Data files are byte-identical across repeated runs
with the same resolved configuration and seed, independent of --threads; the
manifest repeats the configuration hash and differs only in its timestamp.

Exit codes: 0 success, 2 configuration error (bad file, unknown key, bad
value), 3 numerical failure (an internal accuracy contract was missed).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .chain import ChainConfig, build_hamiltonian, interpolated_bonds, pst_couplings
from .disorder import ensemble_fidelity, ensemble_stats, gamma_metric
from .dynamics import InitialSiteState, amplitude_bessel_limit, amplitude_spectral
from .ergotropy import (
    _record,
    match_mixed_to_pure,
    reflection_fidelity,
    reflection_time,
)
from .errors import (
    InvalidConfigError,
    InvalidInputError,
    MisuseError,
    NumericalFailureError,
    UndefinedMetricError,
)
from .spectral import diagonalize
from .workstats import (
    adaptive_density,
    binned_histogram,
    gaussian_density,
    semicircle_density,
    tpm_distribution,
)

SCENARIOS = (
    "transport-sweep",
    "theta-sweep",
    "disorder",
    "workdist",
    "bessel-compare",
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_NUM = {"type": "number"}
_NUM_OR_NULL = {"type": ["number", "null"]}
_INT = {"type": "integer"}
_ERG_ROW_PROPERTIES = {
    "n_sites": _INT,
    "alpha": _NUM,
    "encoding": {"type": "string", "enum": ["coherent", "mixed"]},
    "theta": _NUM,
    "parameter": _NUM,
    "time": _NUM,
    "fidelity": _NUM,
    "erg_in": _NUM,
    "erg_out": _NUM,
    "efficiency": _NUM_OR_NULL,
}

# JSON Schema for one output row of each scenario. The CSV columns follow the
# property order given here.
OUTPUT_SCHEMA: dict[str, dict[str, Any]] = {
    "transport-sweep": {
        "type": "object",
        "properties": dict(_ERG_ROW_PROPERTIES),
        "required": list(_ERG_ROW_PROPERTIES),
        "additionalProperties": False,
    },
    "theta-sweep": {
        "type": "object",
        # grid rows sample the angles; one argmax row per (N, encoding)
        # repeats the best grid sample
        "properties": {
            "n_sites": _INT,
            "alpha": _NUM,
            "encoding": {"type": "string", "enum": ["coherent", "mixed"]},
            "kind": {"type": "string", "enum": ["grid", "argmax"]},
            "theta": _NUM,
            "parameter": _NUM,
            "time": _NUM,
            "fidelity": _NUM,
            "erg_in": _NUM,
            "erg_out": _NUM,
            "efficiency": _NUM_OR_NULL,
        },
        "required": [
            "n_sites",
            "alpha",
            "encoding",
            "kind",
            "theta",
            "parameter",
            "time",
            "fidelity",
            "erg_in",
            "erg_out",
            "efficiency",
        ],
        "additionalProperties": False,
    },
    "disorder": {
        "type": "object",
        "properties": {
            "n_sites": _INT,
            "alpha": _NUM,
            "delta": _NUM,
            "encoding": {"type": "string", "enum": ["coherent", "mixed"]},
            "parameter": _NUM,
            "mean": _NUM,
            "stddev": _NUM,
            "count": _INT,
            "gamma": _NUM_OR_NULL,
        },
        "required": [
            "n_sites",
            "alpha",
            "delta",
            "encoding",
            "parameter",
            "mean",
            "stddev",
            "count",
            "gamma",
        ],
        "additionalProperties": False,
    },
    "workdist": {
        "type": "object",
        "properties": {
            "n_sites": _INT,
            "alpha": _NUM,
            "theta": _NUM,
            "kind": {
                "type": "string",
                "enum": ["atom", "density", "gaussian", "semicircle", "hist"],
            },
            "work": _NUM,
            "value": _NUM,
        },
        "required": ["n_sites", "alpha", "theta", "kind", "work", "value"],
        "additionalProperties": False,
    },
    "bessel-compare": {
        "type": "object",
        "properties": {
            "n_sites": _INT,
            "time": _NUM,
            "f_discrete": _NUM,
            "f_bessel": _NUM,
            "diff": _NUM,
        },
        "required": ["n_sites", "time", "f_discrete", "f_bessel", "diff"],
        "additionalProperties": False,
    },
}


# ---------------------------------------------------------------------------
# configuration loading


def _parse_int(name: str, raw: Any) -> int:
    if isinstance(raw, bool):
        raise InvalidConfigError(f"{name}: expected an integer, got a boolean")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        try:
            return int(raw.strip())
        except ValueError:
            raise InvalidConfigError(f"{name}: expected an integer, got {raw!r}") from None
    raise InvalidConfigError(f"{name}: expected an integer, got {raw!r}")


def _parse_float(name: str, raw: Any) -> float:
    if isinstance(raw, bool):
        raise InvalidConfigError(f"{name}: expected a number, got a boolean")
    if isinstance(raw, (int, float)):
        value = float(raw)
    elif isinstance(raw, str):
        try:
            value = float(raw.strip())
        except ValueError:
            raise InvalidConfigError(f"{name}: expected a number, got {raw!r}") from None
    else:
        raise InvalidConfigError(f"{name}: expected a number, got {raw!r}")
    if not math.isfinite(value):
        raise InvalidConfigError(f"{name}: must be finite, got {value!r}")
    return value


def _parse_list(name: str, raw: Any, item: Callable[[str, Any], Any]) -> list:
    if isinstance(raw, str):
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if not parts:
            raise InvalidConfigError(f"{name}: expected a nonempty comma-separated list")
        return [item(name, p) for p in parts]
    if isinstance(raw, (list, tuple)):
        if not raw:
            raise InvalidConfigError(f"{name}: expected a nonempty list")
        return [item(name, v) for v in raw]
    raise InvalidConfigError(f"{name}: expected a list, got {raw!r}")


def _int_list(name: str, raw: Any) -> list[int]:
    return _parse_list(name, raw, _parse_int)


def _float_list(name: str, raw: Any) -> list[float]:
    return _parse_list(name, raw, _parse_float)


# (parser, required, default) per key; defaults are applied before hashing so
# the configuration hash always covers the fully resolved parameter set.
_CHAIN_KEYS: dict[str, tuple[Callable, bool, Any]] = {
    "coupling": (_parse_float, False, 1.0),
    "field": (_parse_float, False, 1.0),
}

_SCENARIO_KEYS: dict[str, dict[str, tuple[Callable, bool, Any]]] = {
    "transport-sweep": {
        "sites": (_int_list, True, None),
        "alphas": (_float_list, True, None),
        "theta": (_parse_float, False, math.pi / 2),
    },
    "theta-sweep": {
        "sites": (_int_list, True, None),
        "alpha": (_parse_float, False, 1.0),
        "theta_count": (_parse_int, False, 25),
    },
    "disorder": {
        "sites": (_int_list, True, None),
        "alphas": (_float_list, False, [1.0]),
        "deltas": (_float_list, True, None),
        "theta": (_parse_float, False, math.pi / 2),
        "realizations": (_parse_int, False, 200),
    },
    "workdist": {
        "n": (_parse_int, True, None),
        "alphas": (_float_list, False, [0.0, 0.5, 1.0]),
        "theta": (_parse_float, False, math.pi),
        "bins": (_parse_int, False, 101),
    },
    "bessel-compare": {
        "sites": (_int_list, True, None),
    },
}


def _read_raw_config(path: Path) -> dict[str, dict[str, Any]]:
    """File -> {section: {key: raw value}}. JSON for .json, INI otherwise."""
    if not path.is_file():
        raise InvalidConfigError(f"config file not found: {path}")
    if path.suffix.lower() == ".json":
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise InvalidConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict) or not all(
            isinstance(v, dict) for v in loaded.values()
        ):
            raise InvalidConfigError(
                f"config file {path} must be an object of section objects"
            )
        return {str(k): dict(v) for k, v in loaded.items()}
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        raise InvalidConfigError(f"config file {path} is not valid INI: {exc}") from exc
    return {section: dict(parser.items(section)) for section in parser.sections()}


def _resolve_section(
    section: str, raw: dict[str, Any], keyspec: dict[str, tuple[Callable, bool, Any]]
) -> dict[str, Any]:
    resolved: dict[str, Any] = {}
    for key in raw:
        if key not in keyspec:
            known = ", ".join(sorted(keyspec))
            raise InvalidConfigError(
                f"unknown key {key!r} in section [{section}] (known keys: {known})"
            )
    for key, (parse, required, default) in keyspec.items():
        if key in raw:
            resolved[key] = parse(f"[{section}] {key}", raw[key])
        elif required:
            raise InvalidConfigError(f"missing required key {key!r} in section [{section}]")
        else:
            resolved[key] = default
    return resolved


def resolve_config(path: Path, scenario: str, seed: int, fmt: str) -> dict[str, Any]:
    """Load, validate fail-closed, and fully default one scenario config.

    The result contains everything that determines the output bytes (chain
    parameters, scenario parameters, seed, format, tool version), so its
    canonical hash identifies the run.
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
    chain = _resolve_section("chain", raw.get("chain", {}), _CHAIN_KEYS)
    params = _resolve_section(scenario, raw.get(scenario, {}), _SCENARIO_KEYS[scenario])
    _validate_domains(scenario, chain, params)
    return {
        "scenario": scenario,
        "chain": chain,
        "params": params,
        "seed": seed,
        "format": fmt,
        "toolVersion": __version__,
    }


def _validate_domains(scenario: str, chain: dict[str, Any], params: dict[str, Any]) -> None:
    if chain["coupling"] <= 0:
        raise InvalidConfigError(f"[chain] coupling must be > 0, got {chain['coupling']}")
    if chain["field"] <= 0:
        raise InvalidConfigError(f"[chain] field must be > 0, got {chain['field']}")
    for key in ("sites",):
        if key in params:
            for n in params[key]:
                if n < 2:
                    raise InvalidConfigError(f"[{scenario}] sites entries must be >= 2, got {n}")
    for key in ("alphas",):
        if key in params:
            for a in params[key]:
                if not 0.0 <= a <= 1.0:
                    raise InvalidConfigError(
                        f"[{scenario}] alphas entries must lie in [0, 1], got {a}"
                    )
    if "alpha" in params and not 0.0 <= params["alpha"] <= 1.0:
        raise InvalidConfigError(f"[{scenario}] alpha must lie in [0, 1], got {params['alpha']}")
    if "theta" in params and not 0.0 <= params["theta"] <= math.pi:
        raise InvalidConfigError(
            f"[{scenario}] theta must lie in [0, pi], got {params['theta']}"
        )
    if "theta_count" in params and params["theta_count"] < 2:
        raise InvalidConfigError(
            f"[{scenario}] theta_count must be >= 2, got {params['theta_count']}"
        )
    if "deltas" in params:
        for d in params["deltas"]:
            if d < 0:
                raise InvalidConfigError(f"[{scenario}] deltas entries must be >= 0, got {d}")
    if "realizations" in params and params["realizations"] < 1:
        raise InvalidConfigError(
            f"[{scenario}] realizations must be >= 1, got {params['realizations']}"
        )
    if "n" in params and params["n"] < 2:
        raise InvalidConfigError(f"[{scenario}] n must be >= 2, got {params['n']}")
    if "bins" in params and params["bins"] < 1:
        raise InvalidConfigError(f"[{scenario}] bins must be >= 1, got {params['bins']}")


def config_hash(resolved: dict[str, Any]) -> str:
    """sha256 of the canonical (sorted, compact) JSON of the resolved config."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# scenario runners

Row = dict[str, Any]


def _run_cells(
    cells: Sequence, worker: Callable[[Any], list[Row]], threads: int
) -> list[Row]:
    """Evaluate independent cells, serially or threaded, in cell order.

    Assembly is by cell index, so the row stream does not depend on thread
    scheduling and the output bytes do not depend on --threads.
    """
    if threads == 1:
        chunks = [worker(cell) for cell in cells]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(worker, cells))
    return [row for chunk in chunks for row in chunk]


def _encoding_rows(
    config: ChainConfig, theta: float, time: float, fidelity: float
) -> list[Row]:
    """Coherent row plus the input-matched mixed row from one reflection fidelity."""
    rows: list[Row] = []
    q = match_mixed_to_pure(theta)
    for encoding, parameter in (("coherent", theta), ("mixed", q)):
        record = _record(config, encoding, parameter, time, fidelity)
        rows.append(
            {
                "n_sites": record.n_sites,
                "alpha": record.alpha,
                "encoding": encoding,
                "theta": theta,
                "parameter": record.parameter,
                "time": record.time,
                "fidelity": record.fidelity,
                "erg_in": record.erg_in,
                "erg_out": record.erg_out,
                "efficiency": record.efficiency,
            }
        )
    return rows


def run_transport_sweep(resolved: dict[str, Any], threads: int = 1) -> list[Row]:
    chain = resolved["chain"]
    params = resolved["params"]
    theta = params["theta"]
    cells = [(n, a) for n in params["sites"] for a in params["alphas"]]

    def worker(cell: tuple[int, float]) -> list[Row]:
        n, alpha = cell
        config = ChainConfig(
            n_sites=n, coupling=chain["coupling"], field=chain["field"], alpha=alpha
        )
        return _encoding_rows(config, theta, *reflection_fidelity(config))

    return _run_cells(cells, worker, threads)


def run_theta_sweep(resolved: dict[str, Any], threads: int = 1) -> list[Row]:
    chain = resolved["chain"]
    params = resolved["params"]
    thetas = np.linspace(0.0, math.pi, params["theta_count"])

    def worker(n: int) -> list[Row]:
        config = ChainConfig(
            n_sites=n,
            coupling=chain["coupling"],
            field=chain["field"],
            alpha=params["alpha"],
        )
        time, fidelity = reflection_fidelity(config)
        grid: list[Row] = []
        for theta in thetas:
            for row in _encoding_rows(config, float(theta), time, fidelity):
                grid.append({**row, "kind": "grid"})
        summaries: list[Row] = []
        for encoding in ("coherent", "mixed"):
            best = max(
                (row for row in grid if row["encoding"] == encoding),
                key=lambda row: row["erg_out"],
            )
            summaries.append({**best, "kind": "argmax"})
        return grid + summaries

    return _run_cells(list(params["sites"]), worker, threads)


def run_disorder(resolved: dict[str, Any], threads: int = 1) -> list[Row]:
    chain = resolved["chain"]
    params = resolved["params"]
    theta = params["theta"]
    q = match_mixed_to_pure(theta)
    seed = resolved["seed"]
    cells = [
        (n, alpha, delta)
        for n in params["sites"]
        for alpha in params["alphas"]
        for delta in params["deltas"]
    ]

    def worker(cell: tuple[int, float, float]) -> list[Row]:
        n, alpha, delta = cell
        config = ChainConfig(
            n_sites=n,
            coupling=chain["coupling"],
            field=chain["field"],
            alpha=alpha,
            delta=delta,
        )
        fidelities = ensemble_fidelity(config, params["realizations"], seed)
        stats_c = ensemble_stats(config, "coherent", theta, fidelities)
        stats_m = ensemble_stats(config, "mixed", q, fidelities)
        try:
            gamma = gamma_metric(stats_c, stats_m)
        except UndefinedMetricError:
            gamma = math.nan
        rows: list[Row] = []
        for stats, gamma_value in ((stats_c, gamma), (stats_m, math.nan)):
            rows.append(
                {
                    "n_sites": n,
                    "alpha": alpha,
                    "delta": delta,
                    "encoding": stats.encoding,
                    "parameter": stats.parameter,
                    "mean": stats.mean,
                    "stddev": stats.stddev,
                    "count": stats.count,
                    "gamma": gamma_value,
                }
            )
        return rows

    return _run_cells(cells, worker, threads)


def run_workdist(resolved: dict[str, Any], threads: int = 1) -> list[Row]:
    chain = resolved["chain"]
    params = resolved["params"]
    n = params["n"]
    theta = params["theta"]
    initial = InitialSiteState(theta=theta)

    def worker(alpha: float) -> list[Row]:
        config = ChainConfig(
            n_sites=n, coupling=chain["coupling"], field=chain["field"], alpha=alpha
        )
        distribution = tpm_distribution(config, initial)

        def row(kind: str, work: float, value: float) -> Row:
            return {
                "n_sites": n,
                "alpha": alpha,
                "theta": theta,
                "kind": kind,
                "work": float(work),
                "value": float(value),
            }

        rows = [
            row("atom", w, p)
            for w, p in zip(distribution.values, distribution.probabilities)
        ]
        if alpha == 1.0 or alpha == 0.0:
            points, densities = adaptive_density(distribution)
            rows.extend(row("density", w, d) for w, d in zip(points, densities))
            if alpha == 1.0:
                # limit of the binomial ladder: centered Gaussian, variance
                # equal to the squared first engineered bond
                variance = float(pst_couplings(n, chain["coupling"])[0] ** 2)
                reference = gaussian_density(points, variance)
                rows.extend(row("gaussian", w, g) for w, g in zip(points, reference))
            else:
                reference = semicircle_density(points, chain["coupling"])
                rows.extend(row("semicircle", w, s) for w, s in zip(points, reference))
        else:
            centers, densities = binned_histogram(distribution, params["bins"])
            rows.extend(row("hist", c, d) for c, d in zip(centers, densities))
        return rows

    return _run_cells(params["alphas"], worker, threads)


def run_bessel_compare(resolved: dict[str, Any], threads: int = 1) -> list[Row]:
    chain = resolved["chain"]
    params = resolved["params"]

    def worker(n: int) -> list[Row]:
        config = ChainConfig(
            n_sites=n, coupling=chain["coupling"], field=chain["field"], alpha=0.0
        )
        t = reflection_time(n, 0.0, chain["coupling"])
        decomposition = diagonalize(build_hamiltonian(interpolated_bonds(config), chain["field"]))
        f_discrete = abs(amplitude_spectral(decomposition, n, t).value)
        f_bessel = abs(amplitude_bessel_limit(n, chain["coupling"], t).value)
        return [
            {
                "n_sites": n,
                "time": t,
                "f_discrete": f_discrete,
                "f_bessel": f_bessel,
                "diff": abs(f_discrete - f_bessel),
            }
        ]

    return _run_cells(params["sites"], worker, threads)


_RUNNERS: dict[str, Callable[[dict[str, Any], int], list[Row]]] = {
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


def write_rows_csv(path: Path, scenario: str, rows: list[Row]) -> None:
    columns = list(OUTPUT_SCHEMA[scenario]["properties"])
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(_format_cell(row[c]) for c in columns)


def write_rows_json(path: Path, scenario: str, rows: list[Row]) -> None:
    columns = list(OUTPUT_SCHEMA[scenario]["properties"])
    sanitized = [
        {
            c: (None if isinstance(row[c], float) and math.isnan(row[c]) else row[c])
            for c in columns
        }
        for row in rows
    ]
    path.write_text(json.dumps(sanitized, indent=2) + "\n")


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


def _default_threads() -> int:
    env = os.environ.get("ERGOCHAIN_THREADS", "").strip()
    if not env:
        return 1
    try:
        value = int(env)
    except ValueError:
        raise InvalidConfigError(
            f"ERGOCHAIN_THREADS must be an integer, got {env!r}"
        ) from None
    if value < 1:
        raise InvalidConfigError(f"ERGOCHAIN_THREADS must be >= 1, got {value}")
    return value


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
        "--format", choices=("csv", "json"), default="csv", help="data file format"
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker threads (default: ERGOCHAIN_THREADS or 1); never affects output bytes",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        threads = args.threads if args.threads is not None else _default_threads()
        if threads < 1:
            raise InvalidConfigError(f"--threads must be >= 1, got {threads}")
        resolved = resolve_config(Path(args.config), args.scenario, args.seed, args.format)
        rows = _RUNNERS[args.scenario](resolved, threads)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.format == "csv":
            data_path = out_dir / f"{args.scenario}.csv"
            write_rows_csv(data_path, args.scenario, rows)
        else:
            data_path = out_dir / f"{args.scenario}.json"
            write_rows_json(data_path, args.scenario, rows)
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
