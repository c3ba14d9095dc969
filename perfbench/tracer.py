"""In-memory span tracer that wraps the program's public layer functions.

The program is not edited: :func:`install` rebinds each function or
method named in :data:`LAYERS` to a wrapper that opens a span around the
call, and the returned callable puts every original back.  Spans are
kept in memory with their parent ids; a span's *self* time is its
duration minus the durations of its direct children.  The tracer is
single-threaded by design (one span stack) — the traced workloads run
their layers on the calling thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time


class Tracer:
    """Span recorder: ``[id, parent, name, start, end]`` rows."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([span_id, parent, name, time.perf_counter(), None])
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id: int) -> None:
        self.spans[span_id][4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = self._open(name)
        try:
            yield span_id
        finally:
            self._close(span_id)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span_id)

        return traced

    def summary(self, root_id: int) -> dict:
        """Per-layer seconds below *root_id* plus its covered share.

        ``inclusive`` counts only the outermost span of each name (a
        layer re-entered below itself is not double-counted); ``self``
        subtracts direct children.  ``covered`` is the share of the
        root's duration spent inside any layer span.
        """
        children: dict[int, list[int]] = {}
        for span_id, parent, *_ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append(span_id)
        inclusive: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}

        def visit(span_id: int, open_names: frozenset) -> float:
            _, _, name, start, end = self.spans[span_id]
            duration = end - start
            kids = children.get(span_id, ())
            inner = frozenset(open_names | {name})
            child_total = sum(visit(kid, inner) for kid in kids)
            self_time[name] = self_time.get(name, 0.0) + duration - child_total
            calls[name] = calls.get(name, 0) + 1
            if name not in open_names:
                inclusive[name] = inclusive.get(name, 0.0) + duration
            return duration

        root_name = self.spans[root_id][2]
        total = visit(root_id, frozenset())
        root_self = self_time.pop(root_name)
        inclusive.pop(root_name)
        calls.pop(root_name)
        return {
            "covered": (total - root_self) / total if total > 0 else 0.0,
            "inclusive": inclusive,
            "self": self_time,
            "calls": calls,
        }


def span_rows(spans: list[list]) -> list[dict]:
    """*spans* as JSON-ready rows, times relative to the first span."""
    origin = spans[0][3] if spans else 0.0
    return [
        {"id": span_id, "parent": parent, "name": name,
         "start_s": start - origin, "end_s": end - origin}
        for span_id, parent, name, start, end in spans
    ]


#: (module, attribute path, layer) — every public entry point the traced
#: run times.  An attribute path ``Class.method`` patches the class; a
#: plain function is rebound in *every* loaded ``repro`` module that
#: imported it by name, so callers' own bindings are traced too.
LAYERS = (
    ("repro.synth.universe", "build_universe", "synth.build_universe"),
    ("repro.synth.universe", "Universe.snapshot_at", "synth.snapshot_at"),
    ("repro.synth.universe", "Universe.annotator_at", "bgp.annotator_at"),
    ("repro.core.domainsets", "build_index", "core.build_index"),
    ("repro.core.substrate", "ColumnarSubstrate.select", "core.select"),
    ("repro.core.sptuner", "SpTunerMS.tune_all", "core.sptuner"),
    ("repro.dns.openintel", "DnsSnapshot.delta_to", "dns.delta_to"),
    ("repro.core.domainsets", "PrefixDomainIndex.apply_delta", "core.apply_delta"),
    ("repro.publish", "enrich_pairs", "publish.enrich"),
    ("repro.publish", "write_csv", "publish.write_csv"),
    ("repro.analysis.watch", "read_snapshot_file", "watch.read_snapshot"),
    ("repro.analysis.pipeline", "_append_archive", "storage.append"),
    ("repro.storage.substrate_io", "annotator_digest", "storage.digest"),
    ("repro.storage.substrate_io", "siblings_segments", "storage.encode"),
    ("repro.core.substrate", "ColumnarSubstrate.prepare", "storage.state"),
    ("repro.storage.substrate_io", "state_segments", "storage.state"),
    ("repro.storage.substrate_io", "state_dom_gids", "storage.state"),
    ("repro.core.domainsets", "PrefixDomainIndex.content_signature", "storage.state"),
    ("repro.serving.index", "SiblingLookupIndex.from_pairs", "serving.index_build"),
    ("repro.serving.index", "SiblingLookupIndex.from_siblings", "serving.index_build"),
    ("repro.storage.index_io", "index_segments", "serving.index_build"),
    ("repro.storage.archive", "ArchiveWriter.append_generation", "storage.write"),
    ("repro.storage.archive", "ArchiveWriter.append_pool", "storage.write"),
    ("repro.storage.archive", "ArchiveWriter.commit", "storage.write"),
)


def install(tracer: Tracer, layers=LAYERS):
    """Wrap every layer entry point; returns a zero-arg ``restore``."""
    undo: list[tuple[object, str, object]] = []
    # Import everything first so the by-name scan below sees every
    # module that binds a traced function.
    modules = {name: importlib.import_module(name) for name, _, _ in layers}
    for module_name, path, layer in layers:
        module = modules[module_name]
        if "." in path:
            class_name, attribute = path.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                patched = classmethod(tracer.wrap(raw.__func__, layer))
            else:
                patched = tracer.wrap(raw, layer)
            undo.append((owner, attribute, raw))
            setattr(owner, attribute, patched)
            continue
        original = getattr(module, path)
        traced = tracer.wrap(original, layer)
        for name, loaded in list(sys.modules.items()):
            if not name.startswith("repro") or loaded is None:
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    undo.append((loaded, attribute, original))
                    setattr(loaded, attribute, traced)

    def restore() -> None:
        for owner, attribute, value in reversed(undo):
            setattr(owner, attribute, value)

    return restore
