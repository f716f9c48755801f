"""Span tracer that wraps ergochain's public functions from the outside.

The library binds many names with ``from .x import f``, so ``cli``,
``ergotropy`` and ``disorder`` each hold their own reference to functions
defined elsewhere, and ``cli._RUNNERS`` holds the scenario runners in a dict.
Patching only the defining module would miss most calls. ``Tracer.install``
therefore replaces every reference it finds, by identity, in the package root,
in every submodule and in the dicts those modules hold at top level, and
``uninstall`` puts the originals back.

Each call records a span (name, start, end, parent, error). A span's self time
is its duration minus the durations of its direct children. Spans stay in
memory; ``per_pass_metrics`` turns the spans of one pass into the per-layer
metrics, and ``reset`` clears them for the next pass.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

# Functions wrapped, by defining module. A function that is not wrapped counts
# toward the self time of the wrapped function that calls it.
TRACED = {
    "chain": ("disordered_bonds", "interpolated_bonds", "pst_couplings", "build_hamiltonian"),
    "spectral": ("diagonalize", "analytic_pst_spectrum"),
    "dynamics": ("amplitude_spectral", "amplitude_profile"),
    "ergotropy": ("erg_at_reflection", "erg_coherent", "erg_mixed", "erg_max_window"),
    "disorder": ("ensemble_erg",),
    "workstats": (
        "tpm_distribution",
        "pst_closed_distribution",
        "adaptive_density",
        "binned_histogram",
        "gaussian_density",
        "semicircle_density",
    ),
    "cli": (
        "resolve_config",
        "run_transport_sweep",
        "run_theta_sweep",
        "run_disorder",
        "run_workdist",
        "run_bessel_compare",
        "write_rows_csv",
        "write_rows_json",
        "write_manifest",
    ),
}

# Reported groups: metric prefix -> traced span names whose self times add up.
GROUPS = {
    "chain.disordered_bonds": ("chain.disordered_bonds",),
    "chain.clean_bonds": ("chain.interpolated_bonds", "chain.pst_couplings"),
    "chain.build_hamiltonian": ("chain.build_hamiltonian",),
    "spectral.diagonalize": ("spectral.diagonalize",),
    "spectral.analytic_pst_spectrum": ("spectral.analytic_pst_spectrum",),
    "dynamics.amplitude_spectral": ("dynamics.amplitude_spectral",),
    "dynamics.amplitude_profile": ("dynamics.amplitude_profile",),
    "ergotropy.erg_at_reflection": ("ergotropy.erg_at_reflection",),
    "ergotropy.erg_map": ("ergotropy.erg_coherent", "ergotropy.erg_mixed"),
    "ergotropy.erg_max_window": ("ergotropy.erg_max_window",),
    "disorder.ensemble_erg": ("disorder.ensemble_erg",),
    "workstats.tpm_distribution": ("workstats.tpm_distribution",),
    "workstats.pst_closed_distribution": ("workstats.pst_closed_distribution",),
    "workstats.density": (
        "workstats.adaptive_density",
        "workstats.binned_histogram",
        "workstats.gaussian_density",
        "workstats.semicircle_density",
    ),
    "cli.resolve_config": ("cli.resolve_config",),
    "cli.runner": (
        "cli.run_transport_sweep",
        "cli.run_theta_sweep",
        "cli.run_disorder",
        "cli.run_workdist",
        "cli.run_bessel_compare",
    ),
    "cli.write": ("cli.write_rows_csv", "cli.write_rows_json", "cli.write_manifest"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    error: str | None
    note: Any  # per-function detail: Hamiltonian digest, computed bytes, realizations


def _hamiltonian_digest(args: tuple, kwargs: dict) -> str:
    hamiltonian = args[0] if args else kwargs["hamiltonian"]
    digest = hashlib.blake2b(hamiltonian.diagonal.tobytes(), digest_size=16)
    digest.update(hamiltonian.offdiagonal.tobytes())
    return digest.hexdigest()


def _profile_bytes(args: tuple, kwargs: dict) -> int:
    # amplitude_profile(decomposition, site, times) builds a (T, N) complex128 matrix
    decomposition = args[0] if args else kwargs["decomposition"]
    times = args[2] if len(args) > 2 else kwargs["times"]
    return len(times) * decomposition.n_sites * 16


def _realizations(args: tuple, kwargs: dict) -> int:
    return int(args[3] if len(args) > 3 else kwargs["n_realizations"])


NOTES: dict[str, Callable[[tuple, dict], Any]] = {
    "spectral.diagonalize": _hamiltonian_digest,
    "dynamics.amplitude_profile": _profile_bytes,
    "disorder.ensemble_erg": _realizations,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []  # (namespace, key, original)

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        note_of = NOTES.get(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            note = note_of(args, kwargs) if note_of is not None else None
            spans = self.spans  # looked up per call: reset() rebinds it
            stack = self._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, error, note)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self) -> None:
        package = importlib.import_module("ergochain")
        modules = [package] + [importlib.import_module(f"ergochain.{m}") for m in TRACED]
        wrappers: dict[int, Callable] = {}
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"ergochain.{module_name}")
            for fn_name in names:
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = self._wrap(f"{module_name}.{fn_name}", fn)
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if id(value) in wrappers:
                    self._patched.append((namespace, key, value))
                    namespace[key] = wrappers[id(value)]
                elif isinstance(value, dict) and not key.startswith("__"):
                    for inner_key, inner in list(value.items()):
                        if id(inner) in wrappers:
                            self._patched.append((value, inner_key, inner))
                            value[inner_key] = wrappers[id(inner)]

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched = []

    def self_times(self) -> list[float]:
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(spans, child_time)]

    def per_pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        self_time = self.self_times()
        calls: dict[str, int] = {}
        seconds: dict[str, float] = {}
        for span, own in zip(self.spans, self_time):
            calls[span.name] = calls.get(span.name, 0) + 1
            seconds[span.name] = seconds.get(span.name, 0.0) + own

        def group_self(prefix: str) -> float:
            return sum(seconds.get(name, 0.0) for name in GROUPS[prefix])

        def group_calls(prefix: str) -> int:
            return sum(calls.get(name, 0) for name in GROUPS[prefix])

        def notes(name: str) -> list[Any]:
            return [s.note for s in self.spans if s.name == name]

        solves = group_calls("spectral.diagonalize")
        chains = len(set(notes("spectral.diagonalize")))
        profile_bytes = notes("dynamics.amplitude_profile")
        metrics = {f"{prefix}.self_s": group_self(prefix) for prefix in GROUPS}
        metrics.update(
            {
                "chain.disordered_bonds.calls": group_calls("chain.disordered_bonds"),
                "spectral.diagonalize.calls": solves,
                "spectral.diagonalize.us_per_call": (
                    1e6 * group_self("spectral.diagonalize") / solves if solves else 0.0
                ),
                "spectral.solves_per_chain": solves / chains if chains else 0.0,
                "dynamics.amplitude_spectral.calls": group_calls("dynamics.amplitude_spectral"),
                "dynamics.amplitude_profile.computed_mb": (
                    max(profile_bytes) / 1e6 if profile_bytes else 0.0
                ),
                "ergotropy.erg_at_reflection.calls": group_calls("ergotropy.erg_at_reflection"),
                "ergotropy.erg_map.calls": group_calls("ergotropy.erg_map"),
                "disorder.realizations": sum(notes("disorder.ensemble_erg")),
                "workstats.pst_closed_distribution.errors": sum(
                    1
                    for s in self.spans
                    if s.name == "workstats.pst_closed_distribution" and s.error is not None
                ),
            }
        )
        return metrics

    def dump(self, path: Path) -> None:
        """Write the spans since the last reset as JSON lines."""
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "error": span.error,
                }
                handle.write(json.dumps(record) + "\n")


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes of each per-layer metric."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
