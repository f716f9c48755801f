"""Runs the passes of one workload in a process of its own.

``run.py`` starts this script, so the peak resident memory read from
``getrusage`` is the workload's and not the checker's. The load is a closed
loop in one thread: each pass starts when the previous one has finished.

    python3 bench/worker.py SPEC_JSON

SPEC_JSON names the workload, seed, seconds, trace flag and work directory.
ergochain comes from PYTHONPATH, which run.py points at the checkout's src/.
The script writes ``worker.json`` and the first pass's output bytes
(``first-<i>.bin``) into the work directory and prints nothing.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any

MIN_PASSES = 3  # timed passes per run at least, whatever --seconds says
MIN_TRACED_PASSES = 2  # of each kind in a traced run, which alternates two kinds


def blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS would use, asked through its own API."""
    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(path).name] = fn()
                    break
    return found


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    from tracer import Tracer, median_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    workdir = Path(spec["workdir"])
    ctx = workload.setup(spec["seed"], workdir)
    passes: list[dict[str, Any]] = []

    def one_pass(threads: int = 1, tracer: Tracer | None = None) -> None:
        workload.clear(ctx)
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            cpu0 = time.process_time()
            wall0 = time.perf_counter()
            outcome = workload.run(ctx, threads)
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
        finally:
            if tracer is not None:
                tracer.uninstall()
        ops = workload.collect(ctx, outcome)
        if not passes:
            for i, (_, _, data) in enumerate(ops):
                (workdir / f"first-{i}.bin").write_bytes(data)
        record = {
            "wall": wall,
            "cpu": cpu,
            "threads": threads,
            "traced": tracer is not None,
            "ops": [[label, status, hashlib.sha256(data).hexdigest()] for label, status, data in ops],
        }
        if tracer is not None:
            record["layers"] = tracer.per_pass_metrics()
            record["layers"]["cli.write.bytes"] = workload.written_bytes(ctx)
        passes.append(record)

    one_pass()  # warm-up: fills caches and lazy imports; checked, not timed
    tracer = Tracer() if spec["trace"] else None
    begin = time.perf_counter()
    while True:
        timed = [p for p in passes[1:] if not p["traced"]]
        traced = [p for p in passes[1:] if p["traced"]]
        if tracer is None:
            enough = len(timed) >= MIN_PASSES
        else:
            enough = min(len(timed), len(traced)) >= MIN_TRACED_PASSES
        if enough and time.perf_counter() - begin >= spec["seconds"]:
            break
        one_pass()
        if tracer is not None:  # alternate, so drift in machine speed hits both alike
            one_pass(tracer=tracer)

    result: dict[str, Any] = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        result["layers"] = median_metrics([p["layers"] for p in passes if p["traced"]])
        tracer.dump(workdir / "spans.jsonl")  # the spans of the last traced pass
        if workload.threads2_pass:
            one_pass(threads=2)
    (workdir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
