"""Print the median wall time of each stage of the benchmark's CLI runs.

Usage:

    python tools/cli_stages.py [SEED] [REPEATS]

For each CLI workload of ``bench/workloads.py`` (read as
``tools/output_digests.py`` reads it, never edited) it writes the workload's
config at SEED (default 0) and runs, in process, the stages of
``ergochain.cli.main`` REPEATS times (default 10): ``resolve_config``, the
scenario runner, the data file writer and ``write_manifest``. It prints one
line per workload with the median milliseconds of each stage, so the cost of
serialization has its own number.
"""

from __future__ import annotations

import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

STAGES = ("resolve", "runner", "writer", "manifest")


def output_digests():
    """``tools/output_digests.py`` as a module, for its ``ROOT`` and ``load_workloads``."""
    path = Path(__file__).resolve().with_name("output_digests.py")
    spec = importlib.util.spec_from_file_location("ergochain_output_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stage_medians(workload, seed: int, repeats: int, work: Path) -> dict[str, float]:
    """Median ms of each stage over ``repeats`` runs of one CLI workload."""
    from ergochain import cli

    workload.write_inputs(seed, work)
    data = work / f"{workload.scenario}.{workload.fmt}"
    times: dict[str, list[float]] = {stage: [] for stage in STAGES}
    for _ in range(repeats):
        start = time.perf_counter()
        resolved = cli.resolve_config(work / "config.json", workload.scenario, seed, workload.fmt)
        resolved_at = time.perf_counter()
        blocks = cli._RUNNERS[workload.scenario](resolved)
        ran_at = time.perf_counter()
        cli._WRITERS[workload.fmt](data, workload.scenario, blocks)
        written_at = time.perf_counter()
        cli.write_manifest(work / "manifest.json", resolved, cli._row_count(blocks))
        ends = (resolved_at, ran_at, written_at, time.perf_counter())
        for stage, begin, end in zip(STAGES, (start, *ends), ends):
            times[stage].append(end - begin)
    return {stage: 1e3 * statistics.median(values) for stage, values in times.items()}


def main(argv: list[str]) -> int:
    seed = int(argv[0]) if argv else 0
    repeats = int(argv[1]) if len(argv) > 1 else 10
    tool = output_digests()
    sys.path.insert(0, str(tool.ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        for workload in tool.load_workloads().WORKLOADS.values():
            if workload.entry_module == "ergochain.cli":
                (Path(tmp) / workload.name).mkdir()
                medians = stage_medians(workload, seed, repeats, Path(tmp) / workload.name)
                cells = "".join(f"  {stage} {medians[stage]:8.3f} ms" for stage in STAGES)
                print(f"{workload.name:<18}{cells}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
