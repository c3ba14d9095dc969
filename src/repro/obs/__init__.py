"""Telemetry: metrics registry, stage tracing, exposition.

The observability substrate every other subsystem reports into:

* :mod:`repro.obs.metrics` — a process-local, dependency-free
  :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges, and
  fixed-bucket histograms.  Lock-cheap on hot paths, snapshot-able to a
  plain dict, and renderable as Prometheus text or JSON.
* :mod:`repro.obs.tracing` — lightweight stage spans
  (``with trace("step3.accumulate"):``) recording wall/CPU time and
  item counts into the registry; the per-stage timing tables behind
  ``repro detect --stats``.

Detection Steps 1-3, the snapshot-delta path, the ``.sparch``
archive and the query service are all wired through this package; the
HTTP server renders the registry on ``/v1/metrics`` (see
``docs/OBSERVABILITY.md`` for the metric catalog).
"""

from repro.obs.metrics import (
    MetricsError,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.tracing import (
    get_registry,
    record_stage,
    set_enabled,
    set_registry,
    stage_table,
    trace,
    tracing_enabled,
)

__all__ = [
    "MetricsError",
    "MetricsRegistry",
    "get_registry",
    "record_stage",
    "render_prometheus",
    "set_enabled",
    "set_registry",
    "stage_table",
    "trace",
    "tracing_enabled",
]
