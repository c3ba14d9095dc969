"""Process-local metrics registry with exposition.

Design constraints, in order:

* **Lock-cheap on hot paths.**  Metric handles are resolved once (a
  dict lookup on a canonical key) and then mutated under a tiny
  per-metric lock — CPython's ``+=`` spans several bytecodes, so
  "atomic" here is spelled as an uncontended ``threading.Lock`` held
  for a single addition, never across I/O or allocation-heavy work.
* **Snapshot-able to a plain dict.**  :meth:`MetricsRegistry.snapshot`
  returns pure builtins (JSON-serialisable as-is) and is internally
  consistent per metric: every histogram's bucket counts, sum, and
  observation count are read under that metric's lock, so a scrape
  racing a swap storm never sees a torn histogram.
* **Exposition is pure.**  :func:`render_prometheus` and
  :func:`render_json` are functions of a snapshot dict — no registry
  lock is ever held while bytes hit a socket.

>>> registry = MetricsRegistry()
>>> registry.counter("serve.lookups").inc()
>>> registry.counter("serve.lookups").inc(2)
>>> registry.gauge("serve.generation").set(7)
>>> registry.histogram("serve.batch_size", bounds=(1, 10)).observe(3)
>>> snap = registry.snapshot()
>>> snap["counters"]["serve.lookups"]
3
>>> snap["gauges"]["serve.generation"]
7.0
>>> print(render_prometheus(snap).splitlines()[1])
repro_serve_lookups_total 3
"""

import re
import threading

__all__ = [
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_COUNT_BUCKETS",
    "MetricsError",
    "MetricsRegistry",
    "render_json",
    "render_prometheus",
]

#: Latency buckets (seconds): 100µs .. 10s, roughly ×3 apart.
DEFAULT_SECONDS_BUCKETS = (
    0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0,
)

#: Size buckets (items): powers of two up to 4096 (the serving batch cap
#: is 10k, so the overflow bucket is meaningful, not dead).
DEFAULT_COUNT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)

_NAME = re.compile(r"^[a-z][a-z0-9_.]*$")
_LABEL_PAIR = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


class MetricsError(ValueError):
    """Invalid metric name, label, or conflicting histogram bounds."""


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _metric_key(name: str, labels: dict) -> str:
    """Canonical identity string: ``name{k="v",...}`` with sorted labels."""
    if not _NAME.match(name):
        raise MetricsError(f"invalid metric name {name!r}")
    if not labels:
        return name
    pairs = []
    for key in sorted(labels):
        if not re.match(r"^[A-Za-z_][A-Za-z0-9_]*$", key):
            raise MetricsError(f"invalid label name {key!r}")
        pairs.append(f'{key}="{_escape(str(labels[key]))}"')
    return name + "{" + ",".join(pairs) + "}"


def split_key(key: str) -> "tuple[str, dict]":
    """Inverse of the canonical key: ``(name, labels)``."""
    name, brace, rest = key.partition("{")
    if not brace:
        return name, {}
    labels = {
        label: value.replace('\\"', '"').replace("\\n", "\n").replace(
            "\\\\", "\\"
        )
        for label, value in _LABEL_PAIR.findall(rest[:-1])
    }
    return name, labels


class Counter:
    """Monotonic integer counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (>= 0); counters are monotonic by contract."""
        if amount < 0:
            raise MetricsError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """Last-write-wins numeric level."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the level with *value*."""
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        """Shift the level by *amount* (either sign)."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram: counts per bucket plus a running sum.

    ``bounds`` are the finite upper bounds, strictly increasing; an
    implicit overflow (``+Inf``) bucket follows.  Observations land in
    the first bucket whose bound is >= the value (Prometheus ``le``
    semantics).
    """

    __slots__ = ("_lock", "bounds", "_counts", "_sum")

    def __init__(self, bounds):
        bounds = tuple(float(bound) for bound in bounds)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise MetricsError(
                f"histogram bounds must be strictly increasing: {bounds!r}"
            )
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation into its ``le`` bucket and the sum."""
        index = len(self.bounds)
        for position, bound in enumerate(self.bounds):
            if value <= bound:
                index = position
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value

    def state(self) -> dict:
        """Consistent ``{"bounds", "counts", "sum", "count"}`` view."""
        with self._lock:
            counts = list(self._counts)
            total = self._sum
        return {
            "bounds": list(self.bounds),
            "counts": counts,
            "sum": total,
            "count": sum(counts),
        }


class MetricsRegistry:
    """Named metrics with canonical ``name{label="value"}`` identity.

    The registry lock guards only handle creation; reads and updates go
    through the per-metric locks, so a scrape never stalls the hot
    path and vice versa.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}

    def _resolve(self, table: dict, key: str, factory):
        metric = table.get(key)
        if metric is None:
            with self._lock:
                metric = table.get(key)
                if metric is None:
                    metric = factory()
                    table[key] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        """The :class:`Counter` for ``name`` + *labels* (created once)."""
        return self._resolve(self._counters, _metric_key(name, labels), Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        """The :class:`Gauge` for ``name`` + *labels* (created once)."""
        return self._resolve(self._gauges, _metric_key(name, labels), Gauge)

    def histogram(self, name: str, bounds=None, **labels) -> Histogram:
        """The :class:`Histogram` for ``name`` + *labels*.

        *bounds* defaults to :data:`DEFAULT_SECONDS_BUCKETS`;
        re-registering an existing key with different bounds raises
        :class:`MetricsError` (one key, one bucket layout).
        """
        key = _metric_key(name, labels)
        wanted = tuple(
            float(bound)
            for bound in (bounds if bounds is not None else DEFAULT_SECONDS_BUCKETS)
        )
        metric = self._resolve(
            self._histograms, key, lambda: Histogram(wanted)
        )
        if metric.bounds != wanted:
            raise MetricsError(
                f"histogram {key!r} already registered with bounds "
                f"{metric.bounds}, requested {wanted}"
            )
        return metric

    def snapshot(self) -> dict:
        """Plain-dict view; each metric's value is read atomically."""
        return {
            "counters": {
                key: metric.value
                for key, metric in sorted(self._counters.items())
            },
            "gauges": {
                key: metric.value
                for key, metric in sorted(self._gauges.items())
            },
            "histograms": {
                key: metric.state()
                for key, metric in sorted(self._histograms.items())
            },
        }


# -- exposition --------------------------------------------------------------

_PROM_PREFIX = "repro"


def _prom_name(name: str) -> str:
    return _PROM_PREFIX + "_" + name.replace(".", "_")


def _prom_number(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _prom_labels(labels: dict, extra: "dict | None" = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{key}="{_escape(str(merged[key]))}"' for key in sorted(merged)
    )
    return "{" + inner + "}"


def render_prometheus(snapshot: dict) -> str:
    """Prometheus text exposition (v0.0.4) of a snapshot dict.

    Pure function of the snapshot — safe to call while the source
    registry keeps mutating, and never holds any lock across the
    socket write that follows.
    """
    lines = []
    seen_types: set = set()

    def _type_line(family: str, kind: str) -> None:
        if family not in seen_types:
            seen_types.add(family)
            lines.append(f"# TYPE {family} {kind}")

    for key, value in snapshot.get("counters", {}).items():
        name, labels = split_key(key)
        family = _prom_name(name) + "_total"
        _type_line(family, "counter")
        lines.append(f"{family}{_prom_labels(labels)} {value}")
    for key, value in snapshot.get("gauges", {}).items():
        name, labels = split_key(key)
        family = _prom_name(name)
        _type_line(family, "gauge")
        lines.append(f"{family}{_prom_labels(labels)} {_prom_number(value)}")
    for key, state in snapshot.get("histograms", {}).items():
        name, labels = split_key(key)
        family = _prom_name(name)
        _type_line(family, "histogram")
        cumulative = 0
        for bound, count in zip(state["bounds"], state["counts"]):
            cumulative += count
            label = _prom_labels(labels, {"le": _prom_number(bound)})
            lines.append(f"{family}_bucket{label} {cumulative}")
        cumulative += state["counts"][-1]
        label = _prom_labels(labels, {"le": "+Inf"})
        lines.append(f"{family}_bucket{label} {cumulative}")
        lines.append(
            f"{family}_sum{_prom_labels(labels)} {_prom_number(state['sum'])}"
        )
        lines.append(f"{family}_count{_prom_labels(labels)} {state['count']}")
    return "\n".join(lines) + "\n"


def render_json(snapshot: dict) -> str:
    """JSON exposition of a snapshot dict (stable key order)."""
    import json

    return json.dumps(snapshot, sort_keys=True, indent=2)
