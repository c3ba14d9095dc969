"""The scripted event grid at scale: wall-time + exact quality scores.

Drives every scripted event scenario
(:data:`repro.synth.events.EVENT_SCENARIOS`) through the incremental
pipeline at three deployment-cast scales — 1×, 10×, and 100× the script
default (24 → 2,400 deployments, i.e. 10–100× the tier-1 test scale) —
and records per-run wall time plus the exact precision/recall/F1
against the generator's ground-truth ledger into
``timings/scenario_grid.txt``.

Two legs:

* ``test_scenario_grid_floors`` — the 1× grid with the same quality
  floors as ``tests/test_scenario_quality.py`` (the authoritative
  gate); runs in the blocking CI ``scenario-quality`` job via
  ``-k floors``.
* ``test_scenario_grid_scale`` — the 10×/100× scale sweep; rides in
  the non-blocking bench-smoke job and whenever the bench directory is
  run directly.
"""

import time

import pytest

from repro.analysis.pipeline import detect_series
from repro.analysis.quality import score_series
from repro.synth.events import EVENT_SCENARIOS, build_event_universe
from repro.synth.scenarios import scenario
from repro.synth.topology import build_population

from benchmarks.common import TIMINGS_DIR

SCALES = (1, 10, 100)

#: Mirrors tests/test_scenario_quality.py (the blocking gate is there);
#: scenario → (precision floor, recall floor, non-trap precision floor).
FLOORS = {
    "rollout": (0.95, 0.95, 0.99),
    "renumber": (0.99, 0.99, 0.99),
    "rotation": (0.99, 0.95, 0.99),
    "aliased": (0.85, 0.99, 0.99),
    "orgchurn": (0.99, 0.99, 0.99),
    "mixed": (0.90, 0.95, 0.99),
}

#: One org population shared across the grid — engines only read org
#: ids/ASNs from it and allocate addresses from private plans.
_POPULATION = build_population(scenario("tiny"))

_LINES: dict[tuple[int, str], str] = {}


def _flush_results() -> None:
    TIMINGS_DIR.mkdir(exist_ok=True)
    header = [
        "scripted event scenario grid",
        "=" * 28,
        "",
        "incremental detect-series over every event script, scored",
        "exactly against the generator's ground-truth ledger",
        "(floors enforced by tests/test_scenario_quality.py and the",
        "1x leg below; 10x/100x legs are the scale sweep)",
        "",
        f"{'scale':>5} {'scenario':<10} {'deploys':>8} {'dates':>6} "
        f"{'wall':>9} {'prec':>7} {'recall':>7} {'f1':>7} {'traps':>6}",
    ]
    lines = [_LINES[key] for key in sorted(_LINES)]
    (TIMINGS_DIR / "scenario_grid.txt").write_text(
        "\n".join(header + lines) + "\n"
    )


def _run(name: str, scale: int):
    universe = build_event_universe(name, base=_POPULATION, scale=scale)
    start = time.perf_counter()
    results = detect_series(universe, universe.dates)
    elapsed = time.perf_counter() - start
    score = score_series(results, universe.ledger, scenario=name)
    script = universe.script
    _LINES[(scale, name)] = (
        f"{scale:>4}x {name:<10} {script.n_deployments:>8,} "
        f"{script.n_dates:>6} {elapsed * 1e3:>7.0f}ms "
        f"{score.precision:>7.3f} {score.recall:>7.3f} {score.f1:>7.3f} "
        f"{score.trap_positives:>6}"
    )
    _flush_results()
    return score


@pytest.mark.parametrize("name", sorted(EVENT_SCENARIOS))
def test_scenario_grid_floors(name):
    """The blocking 1× leg: every scenario meets its quality floors."""
    precision_floor, recall_floor, non_trap_floor = FLOORS[name]
    score = _run(name, 1)
    assert score.precision >= precision_floor
    assert score.recall >= recall_floor
    assert score.non_trap_precision >= non_trap_floor
    assert score.churn.unreflected == 0


@pytest.mark.parametrize("scale", [s for s in SCALES if s > 1])
@pytest.mark.parametrize("name", sorted(EVENT_SCENARIOS))
def test_scenario_grid_scale(name, scale):
    """The 10×/100× sweep: quality must not decay with cast size."""
    precision_floor, recall_floor, non_trap_floor = FLOORS[name]
    score = _run(name, scale)
    assert score.precision >= precision_floor
    assert score.recall >= recall_floor
    assert score.non_trap_precision >= non_trap_floor


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
