"""ergochain benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout; it imports ergochain from the
checkout's ``src/`` and writes only under ``.bench/`` in the checkout.

With ``--trace 0`` it measures the end-to-end metrics (see BENCHMARK.json):

* ``setup_s``: median over fresh interpreters of the time from the first
  statement until the first pass can start (import plus ``resolve_config`` for
  the CLI workloads, import plus input construction for the library one);
* ``wall_s`` and ``cpu_s``: median wall and process CPU time of one warm pass,
  passes run back to back in one thread for ``--seconds`` seconds;
* ``peak_rss_mb``: ``ru_maxrss`` of the process that ran the passes;
* ``ok_share``: operations that passed every check over operations attempted.

With ``--trace 1`` it alternates plain passes and passes with every public
function wrapped (see tracer.py), and prints the per-layer metrics.

Every pass is checked: output bytes identical to the run's first pass, the
physics invariants (workloads.py), and for seed 0 the stored reference in
``reference/`` within the tolerance stated in workloads.py. The last line of
standard output is the result JSON; the line before it holds information that
no gate reads: the environment, pass counts, the tail percentile of the pass
times, ``failed_share`` and the share of passes byte-identical to the reference.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCES = BENCH / "reference"
SETUP_REPEATS = 5
RUN_LIMIT_S = 170  # the whole run, including set-up probes and the worker

sys.path.insert(0, str(BENCH))
from workloads import DEFAULT_SEED, WORKLOADS, matches_reference  # noqa: E402

SETUP_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
import {module}
t1 = time.perf_counter()
sys.path.insert(0, {bench!r})
from pathlib import Path
import workloads
workloads.WORKLOADS[{name!r}].setup({seed!r}, Path({workdir!r}))
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t0]))
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("run exceeded its time limit")
    return left


def probe_setup(workload: Any, seed: int, workdir: Path, module: str, deadline: float) -> list[list[float]]:
    """(import, import + set-up) seconds, one pair per fresh interpreter."""
    code = SETUP_PROBE.format(
        module=module, bench=str(BENCH), name=workload.name, seed=seed, workdir=str(workdir)
    )
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=workdir,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=remaining(deadline),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


def run_worker(workload: Any, seed: int, seconds: float, trace: int, workdir: Path, deadline: float) -> dict[str, Any]:
    spec = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workdir": str(workdir),
    }
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
        cwd=workdir,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=remaining(deadline),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr}")
    return json.loads((workdir / "worker.json").read_text())


def load_reference(name: str) -> dict[str, Any]:
    with gzip.open(REFERENCES / f"{name}.json.gz", "rt") as handle:
        return json.load(handle)


def judge(workload: Any, seed: int, result: dict[str, Any], workdir: Path) -> dict[str, Any]:
    """Check every operation of every pass; count attempts, failures and problems."""
    passes = result["passes"]
    first = passes[0]["ops"]
    reference = load_reference(workload.name)["ops"] if seed == DEFAULT_SEED else None
    verdicts = []  # per operation of the first pass: (good, problems)
    for i, (label, status, _) in enumerate(first):
        text = (workdir / f"first-{i}.bin").read_bytes().decode()
        problems = []
        if status == "ok":
            problems += workload.check(label, text, seed)
        if reference is not None and label in reference:
            want = reference[label]
            if want["status"] != status or (
                status == "ok" and not matches_reference(text, want["text"], workload.fmt)
            ):
                problems.append(f"{label}: differs from the stored reference")
        verdicts.append((not status.startswith("fail:") and not problems, problems))
    ref_hashes = (
        {label: hashlib.sha256(entry["text"].encode()).hexdigest() for label, entry in reference.items()}
        if reference is not None
        else None
    )
    attempted = failed = 0
    identical = 0
    problems = [p for _, ps in verdicts for p in ps]
    for record in passes:
        if [op[0] for op in record["ops"]] != [op[0] for op in first]:
            raise RuntimeError("passes ran different operations")
        same_as_reference = ref_hashes is not None
        for (label, status, digest), (first_op, (good, _)) in zip(record["ops"], zip(first, verdicts)):
            attempted += 1
            same = status == first_op[1] and digest == first_op[2]
            if not same:
                problems.append(f"{label}: pass differs from the run's first pass")
            if not (good and same):
                failed += 1
            if ref_hashes is not None and label in ref_hashes and status == "ok":
                same_as_reference = same_as_reference and digest == ref_hashes[label]
        identical += same_as_reference
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems))[:20],
        "reference_identical_share": identical / len(passes) if ref_hashes is not None else None,
    }


def tail(values: list[float]) -> dict[str, Any]:
    """Highest whole percentile with at least ten samples above it, if there is one."""
    n = len(values)
    if n < 11:
        return {"percentile": None, "value": None, "passes": n}
    pct = math.floor(100 * (1 - 10 / n))
    index = max(0, math.ceil(pct / 100 * n) - 1)
    return {"percentile": pct, "value": sorted(values)[index], "passes": n}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(result: dict[str, Any]) -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": result["blas_threads"],
        "thread_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "ERGOCHAIN_THREADS")
            if k in os.environ
        },
        "git_commit": git_commit(),
    }


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[name]
    workdir = ROOT / ".bench" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload.write_inputs(seed, workdir)
        result = run_worker(workload, seed, seconds, trace, workdir, deadline)
        # after the worker, whose imports have written any missing bytecode caches
        module = "ergochain.cli" if trace else workload.entry_module
        setups = probe_setup(workload, seed, workdir, module, deadline)
        verdict = judge(workload, seed, result, workdir)
        if trace:
            shutil.copyfile(workdir / "spans.jsonl", ROOT / ".bench" / f"{name}.spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in result["passes"][1:] if not p["traced"] and p["threads"] == 1]
    walls = [p["wall"] for p in plain]
    wall_s = statistics.median(walls)
    info: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "environment": environment(result),
        "passes": len(walls),
        "wall_s_tail": tail(walls),
        "failed_share": verdict["failed"] / verdict["attempted"],
        "reference_identical_share": verdict["reference_identical_share"],
        "problems": verdict["problems"],
    }
    if trace:
        layers = dict(result["layers"])
        traced_wall = statistics.median(p["wall"] for p in result["passes"] if p["traced"])
        threads2 = [p["wall"] for p in result["passes"] if p["threads"] == 2]
        layers["cli.threads2_speedup"] = wall_s / threads2[0] if threads2 else 0.0
        layers["import.ergochain_cli_s"] = statistics.median(s[0] for s in setups)
        layers["trace.overhead_s"] = traced_wall - wall_s
        units = {"calls": "count", "realizations": "count", "errors": "count", "bytes": "B",
                 "computed_mb": "MB", "us_per_call": "us", "solves_per_chain": "1",
                 "threads2_speedup": "1"}
        metrics = {k: metric(v, units.get(k.rsplit(".", 1)[1], "s")) for k, v in sorted(layers.items())}
    else:
        metrics = {
            "wall_s": metric(wall_s, "s"),
            "cpu_s": metric(statistics.median(p["cpu"] for p in plain), "s"),
            "setup_s": metric(statistics.median(s[1] for s in setups), "s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
            "ok_share": metric(1.0 - verdict["failed"] / verdict["attempted"], "1"),
        }
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": verdict["correct"],
                "attempted": verdict["attempted"],
                "failed": verdict["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in its own process and print one table."""
    status = 0
    print(f"{'workload':20} {'metric':45} {'value':>14} unit")
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True,
            text=True,
            timeout=RUN_LIMIT_S + 10,
        )
        if proc.returncode != 0:
            print(f"{name:20} failed:\n{proc.stderr}")
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows.append(("failed_share", info["failed_share"], "1"))
        rows.append(("correct", result["correct"], ""))
        for key, value, unit in rows:
            shown = f"{value:14.6g}" if isinstance(value, float) else f"{value!s:>14}"
            print(f"{name:20} {key:45} {shown} {unit}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ergochain" / "__init__.py").is_file():
        print(f"bench: no ergochain sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    raise SystemExit(main())
