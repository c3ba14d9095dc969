"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload detect-small --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` times the workload with nothing wrapped and prints the
end-to-end metrics; ``--trace 1`` wraps every layer (see
:mod:`perfbench.tracer`) and prints the per-layer metrics.  Metric
names and units are those of ``BENCHMARK.json``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
a line before it (``perfbench-record ...``) is the run's host and input
record, also written under ``.perfbench/records/`` with the trace spans
under ``.perfbench/traces/``.  A run whose output checks fail prints
``correct: false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs, for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def _import_program(modules: str) -> None:
    """Import the program in a fresh interpreter, as every ``repro`` run does."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-c", f"import {modules}"], cwd=ROOT, env=env, check=True,
    )


def _git_rev() -> "str | None":
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _host_record() -> dict:
    from repro.core.kernels import kernel_name

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": kernel_name(),
        "python": platform.python_version(),
        "git_rev": _git_rev(),
    }


def _end_to_end(measurement, setup_s: float) -> dict:
    ok_share = 1.0 - measurement.failed / measurement.attempted
    values = {
        "wall_s": (measurement.wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (measurement.peak_rss_mb, "MiB"),
        "ok_share": (ok_share, "share"),
        "ops_per_s": (measurement.ops_per_s, "1/s"),
        "latency_ms": (measurement.latency_ms, "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _per_layer(layers: dict) -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {
        metric["name"]: {"value": float(layers.get(metric["name"], 0.0)), "unit": metric["unit"]}
        for metric in declared
    }


def main(argv=None) -> int:
    args = _parse(argv)
    from perfbench import tracer as tracing
    from perfbench.workloads import DEFAULT_SEED, PROGRAM_MODULES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    out = ROOT / ".perfbench"
    scratch = out / "tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](seed, args.smoke, scratch, ROOT)
    try:
        setups = []
        for _ in range(workload.SETUP_REPEATS):
            workload.discard()  # the previous set-up's server, if any
            began = time.perf_counter()
            _import_program(PROGRAM_MODULES)
            workload.prepare()
            setups.append(time.perf_counter() - began)
        fingerprint = workload.fingerprint()
        measurement = workload.measure(args.seconds, bool(args.trace))
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "seconds": args.seconds,
        "input_fingerprint": fingerprint,
        "setup_seconds": setups,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "problems": measurement.problems,
        **_host_record(),
        **measurement.record,
    }
    (out / "records").mkdir(parents=True, exist_ok=True)
    (out / "records" / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if measurement.spans:
        (out / "traces").mkdir(parents=True, exist_ok=True)
        passes = [tracing.span_rows(spans) for spans in measurement.spans]
        (out / "traces" / f"{stem}.json").write_text(json.dumps(passes))
    print("perfbench-record " + json.dumps(record))
    for problem in measurement.problems:
        print(f"output check failed: {problem}", file=sys.stderr)
    if measurement.problems:
        print(json.dumps({
            "correct": False,
            "attempted": measurement.attempted,
            "failed": max(1, measurement.failed),
            "metrics": {},
        }))
        return 1
    metrics = (
        _per_layer(measurement.layers)
        if args.trace
        else _end_to_end(measurement, statistics.median(setups))
    )
    print(json.dumps({
        "correct": True,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
