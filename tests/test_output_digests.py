"""``tools/output_digests.py``, the listing that two trees' output bytes are diffed with."""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import re
from pathlib import Path

import pytest

from ergochain.cli import SCENARIOS, main

ROOT = Path(__file__).resolve().parents[1]
TOOL_PATH = ROOT / "tools" / "output_digests.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("output_digests_tool", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def listing(tool):
    return list(tool.digests([0, 5]))


def test_config_scenarios(tool):
    scenarios = {path.name: tool.config_scenario(path) for path in (ROOT / "configs").glob("*.*")}
    assert set(scenarios.values()) <= set(SCENARIOS)
    assert scenarios["transport.ini"] == "transport-sweep"
    assert scenarios["disorder.json"] == "disorder"


def test_every_scenario_and_format_at_every_seed(tool, listing):
    labels = [label for _, label in listing]
    assert len(set(labels)) == len(labels)
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest, _ in listing)
    for seed in (0, 5):
        cli = [label.split() for label in labels if label.endswith(f" seed{seed}")]
        covered = {(words[0], words[2]) for words in cli if words[0] in SCENARIOS}
        assert covered == {(s, fmt) for s in SCENARIOS for fmt in tool.FORMATS}
        library = [words for words in cli if words[0] == "large-n-library"]
        assert len(library) == 7
        assert all(words[2] == "ok" for words in library)


def test_a_digest_is_the_data_file_of_a_plain_run(listing, tmp_path):
    (digest,) = [d for d, label in listing if label == "transport-sweep configs/transport.ini json seed5"]
    argv = ["transport-sweep", "--config", str(ROOT / "configs" / "transport.ini"), "--seed", "5",
            "--out", str(tmp_path), "--format", "json"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert hashlib.sha256((tmp_path / "transport-sweep.json").read_bytes()).hexdigest() == digest


def test_the_seed_reaches_the_outputs(listing):
    by_label = {label: digest for digest, label in listing}
    assert by_label["disorder bench:disorder-ensemble csv seed0"] != (
        by_label["disorder bench:disorder-ensemble csv seed5"]
    )
    # the config files fix J and B, so a scenario without disorder does not move
    assert by_label["transport-sweep configs/transport.ini csv seed0"] == (
        by_label["transport-sweep configs/transport.ini csv seed5"]
    )

