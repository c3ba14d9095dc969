"""Shared bench plumbing: scenario cache, result recording."""

from __future__ import annotations

import os
import pathlib

from repro.reporting.experiments import ExperimentResult, run_experiment
from repro.synth import Universe, build_universe

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Timing-only bench outputs.  They change on every run and host, so
#: they go to this git-ignored directory rather than next to the paper
#: figures in ``results/``; ``recorded/`` keeps the run the docs quote.
TIMINGS_DIR = pathlib.Path(__file__).parent / "timings"

_UNIVERSES: dict[str, Universe] = {}


def bench_scale() -> str:
    """Scenario preset for benches (``REPRO_SCALE`` env, default small)."""
    return os.environ.get("REPRO_SCALE", "small")


def get_universe(scale: str | None = None) -> Universe:
    """Session-cached universe for the requested scale."""
    name = scale if scale is not None else bench_scale()
    universe = _UNIVERSES.get(name)
    if universe is None:
        universe = build_universe(name)
        _UNIVERSES[name] = universe
    return universe


def record(result: ExperimentResult, tag: str = "") -> ExperimentResult:
    """Print the rendered table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    body = "\n".join(
        [result.title, "=" * len(result.title), "", result.text, ""]
        + result.summary_lines()
    )
    name = result.experiment_id + (f"_{tag}" if tag else "")
    (RESULTS_DIR / f"{name}.txt").write_text(body + "\n")
    print()
    print(body)
    return result


def run_and_record(
    benchmark, experiment_id: str, tag: str = "", **kwargs
) -> ExperimentResult:
    """Benchmark one experiment runner (single round) and record it."""
    universe = get_universe()
    result = benchmark.pedantic(
        run_experiment,
        args=(experiment_id, universe),
        kwargs=kwargs,
        rounds=1,
        iterations=1,
    )
    return record(result, tag)
