"""The quality-regression gate: scripted scenarios must meet floors.

Every scripted event scenario (:data:`repro.synth.events.EVENT_SCENARIOS`)
is driven through ``detect_series`` and scored *exactly* against the
generator's ground-truth ledger.  The floors below are the contract a
future PR must not silently degrade — the grid runs for both
Step 3-4 engines, and the suite is the blocking payload of the CI
``scenario-quality`` job.

Floor rationale: clean churn scenarios (rollout, renumber, rotation,
orgchurn) are exactly detectable, so anything below ~perfect is a
detection regression; the aliased-cluster scenarios *design in* tied
false positives (the Gasser-style trap prefix survives Step-4 ties), so
their raw precision floor is lower — but every false positive must be a
trap hit, which is what ``non_trap_precision`` isolates.
"""

import pytest

from conftest import as_mapping, detect_each_date

from repro.analysis.pipeline import detect_series
from repro.analysis.quality import score_series
from repro.synth.events import EVENT_SCENARIOS, build_event_universe

ENGINES = ("reference", "columnar")

#: scenario → (precision floor, recall floor, non-trap precision floor).
FLOORS = {
    "rollout": (0.95, 0.95, 0.99),
    "renumber": (0.99, 0.99, 0.99),
    "rotation": (0.99, 0.95, 0.99),
    "aliased": (0.85, 0.99, 0.99),
    "orgchurn": (0.99, 0.99, 0.99),
    "mixed": (0.90, 0.95, 0.99),
}


def test_every_scenario_has_a_floor():
    """A new scripted scenario cannot ship ungated."""
    assert set(FLOORS) == set(EVENT_SCENARIOS)


def _score(name, substrate):
    universe = build_event_universe(name)
    results = detect_series(universe, universe.dates, substrate=substrate)
    return score_series(results, universe.ledger, scenario=name)


@pytest.mark.parametrize("substrate", ENGINES)
@pytest.mark.parametrize("scenario", sorted(EVENT_SCENARIOS))
def test_scenario_meets_floors(scenario, substrate):
    precision_floor, recall_floor, non_trap_floor = FLOORS[scenario]
    score = _score(scenario, substrate)
    assert score.precision >= precision_floor, (
        f"{scenario}/{substrate}: precision "
        f"{score.precision:.3f} below floor {precision_floor}"
    )
    assert score.recall >= recall_floor, (
        f"{scenario}/{substrate}: recall "
        f"{score.recall:.3f} below floor {recall_floor}"
    )
    assert score.non_trap_precision >= non_trap_floor, (
        f"{scenario}/{substrate}: non-trap precision "
        f"{score.non_trap_precision:.3f} below floor {non_trap_floor}"
    )


@pytest.mark.parametrize("scenario", sorted(EVENT_SCENARIOS))
def test_truth_changes_reflected_without_lag(scenario):
    """The exact pipeline must reflect every truth change the same date
    it lands — churn-lag > 0 means delta handling went stale."""
    score = _score(scenario, "columnar")
    assert score.churn.unreflected == 0
    assert score.churn.max_lag in (None, 0)


def test_aliased_false_positives_are_all_trap_hits():
    """The designed trap accounts for *every* aliased-scenario FP —
    any other false positive is a real detection bug."""
    score = _score("aliased", "columnar")
    false_positives = sum(s.false_positives for s in score.dates)
    trap_positives = sum(s.trap_positives for s in score.dates)
    assert false_positives > 0, "the trap should fire at all"
    assert false_positives == trap_positives
    assert score.non_trap_precision == 1.0


@pytest.mark.parametrize("substrate", ENGINES)
def test_incremental_matches_full_on_event_series(substrate):
    """The event series exercises the delta path (constant annotator
    signature) and must stay bit-identical to per-date detection."""
    universe = build_event_universe("mixed")
    full = detect_each_date(universe, universe.dates, substrate=substrate)
    fresh = build_event_universe("mixed")
    incremental = detect_series(fresh, fresh.dates, substrate=substrate)
    assert [d for d, _ in full] == [d for d, _ in incremental]
    for (_, a), (_, b) in zip(full, incremental):
        assert as_mapping(a) == as_mapping(b)
