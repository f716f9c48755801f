"""Write the stored reference outputs that run.py compares seed-0 passes against.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs one pass of each named workload (default: all) at the reference seed and
writes ``reference/<workload>.json.gz``. Operations that fail are left out, so
a later fix of a failing call is checked by the invariants alone. Regenerate
only when an output change is intended, and say so in the change's notes.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main(names: list[str]) -> int:
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        workdir = BENCH.parent / ".bench" / f"reference-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            workload.write_inputs(DEFAULT_SEED, workdir)
            ctx = workload.setup(DEFAULT_SEED, workdir)
            ops = workload.collect(ctx, workload.run(ctx, 1))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        stored = {
            label: {"status": status, "text": data.decode()}
            for label, status, data in ops
            if not status.startswith("fail:")
        }
        path = BENCH / "reference" / f"{name}.json.gz"
        path.parent.mkdir(exist_ok=True)
        payload = {"workload": name, "seed": DEFAULT_SEED, "ops": stored}
        with gzip.GzipFile(path, "wb", mtime=0) as handle:
            handle.write(json.dumps(payload, sort_keys=True).encode())
        print(f"wrote {path} ({len(stored)} of {len(ops)} operations)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
