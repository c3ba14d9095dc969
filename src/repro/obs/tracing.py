"""Stage spans: wall/CPU timers that record into the metrics registry.

``with trace("step3.accumulate") as span: ...`` records, per stage:

* ``stage.calls`` / ``stage.items`` counters (items via
  :meth:`~trace.add_items` or the ``items=`` argument), and
* ``stage.wall_seconds`` / ``stage.cpu_seconds`` histograms,

all labelled ``stage="step3.accumulate"``.  A span costs
two clock reads on entry and two on exit — instrumentation lives at
stage granularity, never per item, which is how the Step-3 hot path
stays under the <3% overhead budget enforced by
``benchmarks/bench_obs_overhead.py``.

The module-global default registry is what ``detect --stats`` and the
HTTP server snapshot; :func:`set_enabled` turns every span into a
no-op for overhead A/B measurement.
"""

import threading
import time

from repro.obs.metrics import MetricsRegistry, split_key

__all__ = [
    "get_registry",
    "record_stage",
    "set_enabled",
    "set_registry",
    "stage_rows",
    "stage_table",
    "trace",
    "tracing_enabled",
]

_state_lock = threading.Lock()
_registry = MetricsRegistry()
_enabled = True


def get_registry() -> MetricsRegistry:
    """The process-wide default registry spans record into."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _registry
    with _state_lock:
        previous, _registry = _registry, registry
    return previous


def set_enabled(enabled: bool) -> bool:
    """Globally enable/disable span recording; returns the prior state."""
    global _enabled
    with _state_lock:
        previous, _enabled = _enabled, bool(enabled)
    return previous


def tracing_enabled() -> bool:
    """Whether spans currently record (see :func:`set_enabled`)."""
    return _enabled


def record_stage(
    stage: str,
    wall_seconds: float,
    cpu_seconds: float,
    items: "int | None" = None,
    registry: "MetricsRegistry | None" = None,
) -> None:
    """Record one stage execution measured elsewhere.

    The sink behind :class:`trace`; call it directly when the
    ``(wall, cpu)`` pair was measured outside a span.
    """
    if not _enabled:
        return
    target = registry if registry is not None else _registry
    target.counter("stage.calls", stage=stage).inc()
    if items is not None:
        target.counter("stage.items", stage=stage).inc(items)
    target.histogram("stage.wall_seconds", stage=stage).observe(wall_seconds)
    target.histogram("stage.cpu_seconds", stage=stage).observe(cpu_seconds)


class trace:
    """Context-manager span timing one pipeline stage.

    >>> from repro.obs.metrics import MetricsRegistry
    >>> registry = MetricsRegistry()
    >>> with trace("step3.accumulate", registry=registry) as span:
    ...     span.add_items(42)
    >>> registry.snapshot()["counters"]['stage.items{stage="step3.accumulate"}']
    42
    """

    __slots__ = ("stage", "registry", "items", "_wall0", "_cpu0", "_active")

    def __init__(
        self,
        stage: str,
        items: "int | None" = None,
        registry: "MetricsRegistry | None" = None,
    ):
        self.stage = stage
        self.registry = registry
        self.items = items
        self._active = False

    def add_items(self, count: int) -> None:
        """Attribute *count* processed items to this span."""
        self.items = (self.items or 0) + count

    def __enter__(self) -> "trace":
        if _enabled:
            self._active = True
            self._wall0 = time.perf_counter()
            self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._active:
            self._active = False
            record_stage(
                self.stage,
                time.perf_counter() - self._wall0,
                time.process_time() - self._cpu0,
                items=self.items,
                registry=self.registry,
            )


# -- stage reporting ---------------------------------------------------------


def stage_rows(snapshot: dict) -> list:
    """Per-stage rows from a snapshot, in snapshot (sorted-key) order.

    Each row: ``{"stage", "calls", "items", "wall_seconds",
    "cpu_seconds"}``.
    """
    rows: dict = {}
    for key, count in snapshot.get("counters", {}).items():
        name, labels = split_key(key)
        if name not in ("stage.calls", "stage.items"):
            continue
        stage = labels.get("stage", "?")
        row = rows.setdefault(
            stage,
            {
                "stage": stage,
                "calls": 0,
                "items": 0,
                "wall_seconds": 0.0,
                "cpu_seconds": 0.0,
            },
        )
        row["calls" if name == "stage.calls" else "items"] += count
    for key, state in snapshot.get("histograms", {}).items():
        name, labels = split_key(key)
        if name not in ("stage.wall_seconds", "stage.cpu_seconds"):
            continue
        row = rows.get(labels.get("stage", "?"))
        if row is None:
            continue
        field = "wall_seconds" if name == "stage.wall_seconds" else "cpu_seconds"
        row[field] += state["sum"]
    return list(rows.values())


def stage_table(snapshot: dict) -> str:
    """Aligned per-stage timing table (the ``detect --stats`` payload)."""
    rows = stage_rows(snapshot)
    if not rows:
        return "no stage timings recorded"
    header = ("stage", "calls", "items", "wall_s", "cpu_s", "wall_ms/call")
    formatted = [header]
    for row in rows:
        per_call = (
            row["wall_seconds"] / row["calls"] * 1000.0 if row["calls"] else 0.0
        )
        formatted.append(
            (
                row["stage"],
                str(row["calls"]),
                str(row["items"]),
                f"{row['wall_seconds']:.4f}",
                f"{row['cpu_seconds']:.4f}",
                f"{per_call:.2f}",
            )
        )
    widths = [
        max(len(line[column]) for line in formatted)
        for column in range(len(header))
    ]
    lines = []
    for index, line in enumerate(formatted):
        rendered = "  ".join(
            cell.ljust(widths[column]) if column == 0 else cell.rjust(widths[column])
            for column, cell in enumerate(line)
        )
        lines.append(rendered.rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
