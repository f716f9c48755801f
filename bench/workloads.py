"""The four benchmark workloads: their inputs, one pass, and the output checks.

A workload turns ``--seed`` into its inputs, runs one pass through ergochain's
public entry points (``ergochain.cli.main`` or the package-root functions),
and checks what the pass produced. A pass is a list of operations; each
operation yields a status and the bytes it produced:

* ``ok``: it completed and produced data bytes;
* ``error:<class>``: a library call raised an ``ErgochainError``, which is a
  documented outcome, not a failure;
* ``fail:<class>``: the CLI exited non-zero, or a call raised any other
  exception. This counts as a failed operation.

Seed 0 runs the stored reference inputs (coupling J = 1, field B = 1, the CLI's
default disorder seed). Any other seed draws J and B from [1/2, 2]; the sizes
and grids of each workload stay fixed, so the cost of a pass does not depend
on the seed. Only the disorder draws and the numbers change.

This module imports nothing outside the standard library at import time, so
the set-up probe can import it without shifting numpy's import cost.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import random
from pathlib import Path
from typing import Any

DEFAULT_SEED = 0
# Tolerance of the reference comparison, per number: |a - b| <= ATOL + RTOL * |b|.
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12
# Slack on the physics invariants, for roundoff in the library's closed forms.
FIDELITY_SLACK = 1e-9
PROBABILITY_SLACK = 1e-9
ERGOTROPY_SLACK = 1e-12


def chain_scales(seed: int) -> tuple[float, float]:
    """Coupling J and field B for a seed: (1, 1) for the reference seed."""
    if seed == DEFAULT_SEED:
        return 1.0, 1.0
    rng = random.Random(seed)
    return 2.0 ** rng.uniform(-1.0, 1.0), 2.0 ** rng.uniform(-1.0, 1.0)


def erg_input(encoding: str, parameter: float, field: float) -> float:
    """Sender ergotropy, written out here so the checks do not trust the library."""
    if encoding == "coherent":
        return 2.0 * field * math.sin(0.5 * parameter) ** 2
    return max(0.0, 2.0 * field * (2.0 * parameter - 1.0))


def _leaves(text: str, fmt: str) -> list[Any]:
    """Every cell or JSON leaf in order; cells that parse as numbers become floats."""
    if fmt == "json":
        out: list[Any] = []

        def walk(node: Any) -> None:
            if isinstance(node, dict):
                for key in sorted(node):
                    out.append(key)
                    walk(node[key])
            elif isinstance(node, list):
                for item in node:
                    walk(item)
            else:
                out.append(node)

        walk(json.loads(text))
        return out
    cells = [cell for line in text.splitlines() for cell in line.split(",")]
    values: list[Any] = []
    for cell in cells:
        try:
            values.append(float(cell))
        except ValueError:
            values.append(cell)
    return values


def matches_reference(text: str, reference: str, fmt: str) -> bool:
    """True when both outputs agree leaf by leaf within the reference tolerance."""
    got, want = _leaves(text, fmt), _leaves(reference, fmt)
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        numeric = isinstance(a, (int, float)) and isinstance(b, (int, float))
        numeric = numeric and not isinstance(a, bool) and not isinstance(b, bool)
        if numeric:
            if math.isnan(a) or math.isnan(b):
                if not (math.isnan(a) and math.isnan(b)):
                    return False
            elif abs(a - b) > REFERENCE_ATOL + REFERENCE_RTOL * abs(b):
                return False
        elif a != b:
            return False
    return True


def _rows_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


class CliWorkload:
    """One CLI scenario run through ``ergochain.cli.main`` with a generated config."""

    entry_module = "ergochain.cli"

    def __init__(
        self,
        name: str,
        scenario: str,
        fmt: str,
        params: dict[str, Any],
        threads2_pass: bool = False,
    ):
        self.name = name
        self.scenario = scenario
        self.fmt = fmt
        self.params = params
        # the traced run adds one pass at --threads 2 and reports the speed-up
        self.threads2_pass = threads2_pass

    def write_inputs(self, seed: int, workdir: Path) -> None:
        coupling, field = chain_scales(seed)
        config = {"chain": {"coupling": coupling, "field": field}, self.scenario: self.params}
        (workdir / "config.json").write_text(json.dumps(config, indent=2) + "\n")

    def setup(self, seed: int, workdir: Path) -> dict[str, Any]:
        """What a user does before the first pass: read and resolve the config."""
        import ergochain.cli

        config = workdir / "config.json"
        ergochain.cli.resolve_config(config, self.scenario, seed, self.fmt)
        return {"config": config, "seed": seed, "out": workdir / "out"}

    def data_path(self, ctx: dict[str, Any]) -> Path:
        return ctx["out"] / f"{self.scenario}.{self.fmt}"

    def clear(self, ctx: dict[str, Any]) -> None:
        """Remove the previous pass's files, so a pass that writes nothing shows."""
        if ctx["out"].is_dir():
            for path in ctx["out"].iterdir():
                path.unlink()

    def run(self, ctx: dict[str, Any], threads: int) -> Any:
        import ergochain.cli

        argv = [
            self.scenario,
            "--config", str(ctx["config"]),
            "--seed", str(ctx["seed"]),
            "--out", str(ctx["out"]),
            "--format", self.fmt,
            "--threads", str(threads),
        ]
        try:
            with contextlib.redirect_stdout(io.StringIO()):  # the "wrote ..." line
                return ergochain.cli.main(argv)
        except Exception as exc:  # a traceback exit: the operation failed
            return exc

    def collect(self, ctx: dict[str, Any], outcome: Any) -> list[tuple[str, str, bytes]]:
        if isinstance(outcome, Exception):
            return [(self.scenario, f"fail:{type(outcome).__name__}", b"")]
        if outcome != 0:
            return [(self.scenario, f"fail:exit{outcome}", b"")]
        return [(self.scenario, "ok", self.data_path(ctx).read_bytes())]

    def written_bytes(self, ctx: dict[str, Any]) -> int:
        return sum(path.stat().st_size for path in ctx["out"].iterdir())

    def check(self, label: str, text: str, seed: int) -> list[str]:
        _, field = chain_scales(seed)
        return getattr(self, "_check_" + self.scenario.replace("-", "_"))(text, field)

    def _check_disorder(self, text: str, field: float) -> list[str]:
        p = self.params
        rows = _rows_csv(text)
        problems = []
        expected = 2 * len(p["sites"]) * len(p["alphas"]) * len(p["deltas"])
        if len(rows) != expected:
            problems.append(f"{len(rows)} rows, expected {expected}")
        for i, row in enumerate(rows):
            erg_in = erg_input(row["encoding"], float(row["parameter"]), field)
            mean, gamma = float(row["mean"]), float(row["gamma"])
            if int(row["count"]) != p["realizations"]:
                problems.append(f"row {i}: count {row['count']}")
            if not 0.0 <= mean <= erg_in + ERGOTROPY_SLACK * field:
                problems.append(f"row {i}: mean erg_out {mean} outside [0, erg_in={erg_in}]")
            if not float(row["stddev"]) >= 0.0:
                problems.append(f"row {i}: stddev {row['stddev']}")
            if row["encoding"] == "coherent" and not (math.isnan(gamma) or abs(gamma) <= 1.0):
                problems.append(f"row {i}: |Gamma| = {abs(gamma)} > 1")
        return problems

    def _check_theta_sweep(self, text: str, field: float) -> list[str]:
        rows = _rows_csv(text)
        problems = []
        expected = len(self.params["sites"]) * (2 * self.params["theta_count"] + 2)
        if len(rows) != expected:
            problems.append(f"{len(rows)} rows, expected {expected}")
        for i, row in enumerate(rows):
            fidelity, erg_out = float(row["fidelity"]), float(row["erg_out"])
            erg_in = erg_input(row["encoding"], float(row["parameter"]), field)
            if not 0.0 <= fidelity <= 1.0 + FIDELITY_SLACK:
                problems.append(f"row {i}: fidelity {fidelity}")
            if not 0.0 <= erg_out <= erg_in + ERGOTROPY_SLACK * field:
                problems.append(f"row {i}: erg_out {erg_out} outside [0, erg_in={erg_in}]")
            if abs(float(row["erg_in"]) - erg_in) > ERGOTROPY_SLACK * field:
                problems.append(f"row {i}: erg_in {row['erg_in']}, expected {erg_in}")
        return problems

    def _check_workdist(self, text: str, field: float) -> list[str]:
        rows = json.loads(text)
        problems = []
        for alpha in self.params["alphas"]:
            atoms = [r["value"] for r in rows if r["alpha"] == alpha and r["kind"] == "atom"]
            total = sum(atoms)
            if not atoms or abs(total - 1.0) > PROBABILITY_SLACK:
                problems.append(f"alpha {alpha}: {len(atoms)} atoms summing to {total}")
            if any(p < -PROBABILITY_SLACK for p in atoms):
                problems.append(f"alpha {alpha}: negative atom probability")
        return problems


@dataclasses.dataclass(frozen=True)
class _Call:
    label: str
    function: str  # name at the package root, looked up at call time
    args: tuple


class LibraryWorkload:
    """Package-root calls the CLI cannot reach, at sizes where memory matters."""

    entry_module = "ergochain"
    threads2_pass = False
    name = "large-n-library"
    fmt = "json"
    window_sites = (128, 256)
    window_horizon = 0.7  # in units of N / J
    window_step = 0.01  # in units of 1 / J
    spectrum_sites = 128
    distribution_sites = (1000, 1100)

    def write_inputs(self, seed: int, workdir: Path) -> None:
        pass

    def setup(self, seed: int, workdir: Path) -> list[_Call]:
        """Input construction: configs, sender states and the call list."""
        import ergochain

        coupling, field = chain_scales(seed)
        theta = math.pi / 2
        q = ergochain.match_mixed_to_pure(theta)
        calls = []
        for n in self.window_sites:
            config = ergochain.ChainConfig(n_sites=n, coupling=coupling, field=field, alpha=0.0)
            horizon = self.window_horizon * n / coupling
            step = self.window_step / coupling
            for encoding, parameter in (("coherent", theta), ("mixed", q)):
                calls.append(
                    _Call(
                        f"erg_max_window/N{n}/{encoding}",
                        "erg_max_window",
                        (config, encoding, parameter, horizon, step),
                    )
                )
        calls.append(
            _Call(
                f"analytic_pst_spectrum/N{self.spectrum_sites}",
                "analytic_pst_spectrum",
                (self.spectrum_sites, coupling, field),
            )
        )
        excited = ergochain.InitialSiteState(theta=math.pi)
        for n in self.distribution_sites:
            calls.append(
                _Call(
                    f"pst_closed_distribution/N{n}",
                    "pst_closed_distribution",
                    (n, coupling, excited),
                )
            )
        return calls

    def clear(self, ctx: list[_Call]) -> None:
        pass

    def run(self, ctx: list[_Call], threads: int) -> list[tuple[str, str, Any]]:
        import ergochain

        outcomes = []
        for call in ctx:
            try:
                result = getattr(ergochain, call.function)(*call.args)
            except ergochain.ErgochainError as exc:
                outcomes.append((call.label, f"error:{type(exc).__name__}", None))
            except Exception as exc:
                outcomes.append((call.label, f"fail:{type(exc).__name__}", None))
            else:
                outcomes.append((call.label, "ok", result))
        return outcomes

    def collect(self, ctx: list[_Call], outcome: Any) -> list[tuple[str, str, bytes]]:
        ops = []
        for label, status, result in outcome:
            data = b""
            if status == "ok":
                data = json.dumps(_as_json(result), sort_keys=True).encode()
            ops.append((label, status, data))
        return ops

    def written_bytes(self, ctx: list[_Call]) -> int:
        return 0

    def check(self, label: str, text: str, seed: int) -> list[str]:
        _, field = chain_scales(seed)
        data = json.loads(text)
        problems = []
        if label.startswith("erg_max_window/"):
            encoding = label.rsplit("/", 1)[1]
            erg_in = erg_input(encoding, data["parameter"], field)
            if not 0.0 <= data["fidelity"] <= 1.0 + FIDELITY_SLACK:
                problems.append(f"fidelity {data['fidelity']}")
            if not 0.0 <= data["erg_out"] <= erg_in + ERGOTROPY_SLACK * field:
                problems.append(f"erg_out {data['erg_out']} outside [0, erg_in={erg_in}]")
        elif label.startswith("analytic_pst_spectrum/"):
            energies, vectors = data["energies"], data["vectors"]
            if any(b <= a for a, b in zip(energies, energies[1:])):
                problems.append("energies not strictly ascending")
            for k in range(len(energies)):
                norm = math.sqrt(sum(row[k] ** 2 for row in vectors))
                if abs(norm - 1.0) > PROBABILITY_SLACK:
                    problems.append(f"eigenvector {k} has norm {norm}")
        else:
            probabilities = data["probabilities"]
            if abs(sum(probabilities) - 1.0) > PROBABILITY_SLACK:
                problems.append(f"probabilities sum to {sum(probabilities)}")
            if any(p < -PROBABILITY_SLACK for p in probabilities):
                problems.append("negative probability")
        return problems


def _as_json(result: Any) -> dict[str, Any]:
    """Record or arrays of a library result as plain JSON values."""
    if dataclasses.is_dataclass(result):
        return {
            field.name: _plain(getattr(result, field.name))
            for field in dataclasses.fields(result)
        }
    raise TypeError(f"no JSON form for {type(result).__name__}")


def _plain(value: Any) -> Any:
    return value.tolist() if hasattr(value, "tolist") else value


WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload(
            "disorder-ensemble",
            "disorder",
            "csv",
            {
                "sites": [8, 32, 128],
                "alphas": [0.0, 1.0],
                "deltas": [0.05, 0.2],
                "theta": math.pi / 2,
                "realizations": 150,
            },
            threads2_pass=True,
        ),
        CliWorkload(
            "theta-grid",
            "theta-sweep",
            "csv",
            {"sites": [16, 64, 256], "alpha": 1.0, "theta_count": 101},
        ),
        CliWorkload(
            "quench-json",
            "workdist",
            "json",
            {"n": 1000, "alphas": [0.0, 0.25, 0.5, 0.75, 1.0], "theta": math.pi},
        ),
        LibraryWorkload(),
    )
}
