"""``tools/cli_stages.py``, the per-stage timing of the benchmark's CLI runs."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import re
import tracemalloc
from pathlib import Path

import pytest

from ergochain.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("cli_stages_tool", ROOT / "tools" / "cli_stages.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_line_per_cli_workload(tool):
    workloads = tool.output_digests().load_workloads().WORKLOADS.values()
    names = [w.name for w in workloads if w.entry_module == "ergochain.cli"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert tool.main(["0", "1"]) == 0
    lines = out.getvalue().splitlines()
    assert [line.split()[0] for line in lines] == names
    stage = r"\s+(resolve|runner|writer|manifest)\s+(\d+\.\d{3}) ms\s+(\d+\.\d{2}) MB"
    for line in lines:
        found = re.findall(stage, line)
        assert [name for name, _, _ in found] == list(tool.STAGES)
        assert all(float(ms) >= 0.0 and float(mb) >= 0.0 for _, ms, mb in found)


def test_the_stages_write_what_a_run_writes(tool, tmp_path):
    """The timed stages are the run's own: the data file equals ``main``'s."""
    workload = tool.output_digests().load_workloads().WORKLOADS["theta-grid"]
    medians = tool.stage_medians(workload, 3, 2, tmp_path)
    assert set(medians) == set(tool.STAGES)
    argv = [workload.scenario, "--config", str(tmp_path / "config.json"), "--seed", "3",
            "--out", str(tmp_path / "out"), "--format", workload.fmt]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    name = f"{workload.scenario}.{workload.fmt}"
    assert (tmp_path / name).read_bytes() == (tmp_path / "out" / name).read_bytes()
    assert (tmp_path / "manifest.json").read_text().count('"rowCount": 612') == 1


def test_the_peaks_come_from_one_traced_run(tool, tmp_path):
    """Each stage has a peak; tracing is off again afterwards, and the timed runs are untraced."""
    workload = tool.output_digests().load_workloads().WORKLOADS["quench-json"]
    peaks = tool.stage_peaks(workload, 0, tmp_path)
    assert list(peaks) == list(tool.STAGES)
    assert not tracemalloc.is_tracing()
    data = tmp_path / f"{workload.scenario}.{workload.fmt}"
    # the writer holds one piece at a time, not the file it writes
    assert 0.0 < peaks["writer"] < 1e-6 * data.stat().st_size
    assert peaks["runner"] > peaks["writer"]
    traced = []
    tool.run_stages(workload, 0, tmp_path, lambda: traced.append(tracemalloc.is_tracing()))
    assert traced == [False] * (len(tool.STAGES) + 1)
