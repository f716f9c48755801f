"""Print the median wall time and the memory peak of each stage of the benchmark's CLI runs.

Usage:

    python tools/cli_stages.py [SEED] [REPEATS]

For each CLI workload of ``bench/workloads.py`` (read as
``tools/output_digests.py`` reads it, never edited) it writes the workload's
config at SEED (default 0) and runs, in process, the stages of
``ergochain.cli.main`` REPEATS times (default 10): ``resolve_config``, the
scenario runner, the data file writer and ``write_manifest``. It prints one
line per workload with the median milliseconds of each stage, so the cost of
serialization has its own number, and beside it the stage's ``tracemalloc``
peak in MB above what the run held when the stage began. The peaks come from
one more run, traced on its own, so the timed runs stay untraced.
"""

from __future__ import annotations

import importlib.util
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Callable

STAGES = ("resolve", "runner", "writer", "manifest")


def output_digests():
    """``tools/output_digests.py`` as a module, for its ``ROOT`` and ``load_workloads``."""
    path = Path(__file__).resolve().with_name("output_digests.py")
    spec = importlib.util.spec_from_file_location("ergochain_output_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_stages(workload, seed: int, work: Path, mark: Callable[[], object]) -> list:
    """One CLI run of ``workload``, stage by stage: ``mark()`` before the first
    stage and after each, the marks returned in order."""
    from ergochain import cli

    data = work / f"{workload.scenario}.{workload.fmt}"
    marks = [mark()]
    resolved = cli.resolve_config(work / "config.json", workload.scenario, seed, workload.fmt)
    marks.append(mark())
    blocks = cli._RUNNERS[workload.scenario](resolved)
    marks.append(mark())
    cli._WRITERS[workload.fmt](data, workload.scenario, blocks)
    marks.append(mark())
    cli.write_manifest(work / "manifest.json", resolved, cli._row_count(blocks))
    marks.append(mark())
    return marks


def stage_medians(workload, seed: int, repeats: int, work: Path) -> dict[str, float]:
    """Median ms of each stage over ``repeats`` runs of one CLI workload."""
    workload.write_inputs(seed, work)
    times: dict[str, list[float]] = {stage: [] for stage in STAGES}
    for _ in range(repeats):
        marks = run_stages(workload, seed, work, time.perf_counter)
        for stage, begin, end in zip(STAGES, marks, marks[1:]):
            times[stage].append(end - begin)
    return {stage: 1e3 * statistics.median(values) for stage, values in times.items()}


def _memory_mark() -> tuple[int, int]:
    """(traced bytes now, their peak since the last mark); the peak restarts here."""
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    return current, peak


def stage_peaks(workload, seed: int, work: Path) -> dict[str, float]:
    """MB of each stage's ``tracemalloc`` peak above what was traced when it
    began, from one traced run of one CLI workload."""
    workload.write_inputs(seed, work)
    tracemalloc.start()
    try:
        marks = run_stages(workload, seed, work, _memory_mark)
    finally:
        tracemalloc.stop()
    return {stage: 1e-6 * (end[1] - begin[0])
            for stage, begin, end in zip(STAGES, marks, marks[1:])}


def main(argv: list[str]) -> int:
    seed = int(argv[0]) if argv else 0
    repeats = int(argv[1]) if len(argv) > 1 else 10
    tool = output_digests()
    sys.path.insert(0, str(tool.ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        for workload in tool.load_workloads().WORKLOADS.values():
            if workload.entry_module == "ergochain.cli":
                (Path(tmp) / workload.name).mkdir()
                work = Path(tmp) / workload.name
                medians = stage_medians(workload, seed, repeats, work)
                peaks = stage_peaks(workload, seed, work)
                cells = "".join(
                    f"  {stage} {medians[stage]:8.3f} ms {peaks[stage]:7.2f} MB" for stage in STAGES
                )
                print(f"{workload.name:<18}{cells}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
