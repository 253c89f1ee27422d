"""In-memory span tracing of trisectrix's public functions, for the traced run.

Tracing replaces attributes in the namespace of every loaded ``trisectrix``
module, including names one module imported from another (such as
``trisectrix.oracles.trisect`` and ``trisectrix.cli.sample_locus``), so calls
between modules are caught without changing the library. Each span is
``[name, start_ns, end_ns, parent_index, op_id]``; spans stay in memory until
the run writes them out. Constructions of the value types are counted, not
spanned: at about a microsecond each, a span would cost more than the work.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter

# (module, function) pairs that get a span named "module.function".
SPANNED = (
    ("locus", "trisect"),
    ("locus", "verify_trisection"),
    ("locus", "sample_locus"),
    ("origami", "abe_construct"),
    ("origami", "abe_verify"),
    ("oracles", "cross_validate"),
    ("oracles", "chord_diagram"),
    ("oracles", "chord_residuals"),
    ("render", "render_svg"),
    ("cli", "main"),
)
SPAN_NAMES = tuple(f"{module}.{func}" for module, func in SPANNED)

# Value classes whose __post_init__ is wrapped to count constructions.
COUNTED = (("geom", "Point2", "geom.point2"), ("geom", "Angle", "geom.angle"))


def _observe(counts: Counter, name: str, result) -> None:
    """Count the work a spanned call reports through its public result."""
    if name == "locus.trisect":
        counts["locus.trisect.iterations"] += result.iterations
    elif name == "locus.sample_locus":
        counts["locus.sample_locus.points"] += len(result)
    elif name == "render.render_svg":
        counts["render.svg_bytes"] += len(result.encode())


def self_times(spans: list) -> list[int]:
    """Self time of each span: its duration minus the durations of its
    direct children (calls are synchronous, so children never overlap)."""
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, child)]


class Tracer:
    """Records spans and counts while installed; see :meth:`installed`."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []

    def _span(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            _observe(counts, name, result)
            return result

        return traced

    def _count(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _write_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(text, path):
            counts["cli.output_bytes"] += len(text.encode())
            return fn(text, path)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap the spanned functions in every loaded trisectrix module, and
        restore the originals on exit."""
        modules = {
            name.partition(".")[2]: mod
            for name, mod in sys.modules.items()
            if name.startswith("trisectrix.") and mod is not None
        }
        namespaces = [sys.modules["trisectrix"], *modules.values()]
        undo = []

        def replace(original, wrapper) -> None:
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        undo.append((ns, key, original))

        for module, func in SPANNED:
            original = getattr(modules[module], func)
            replace(original, self._span(f"{module}.{func}", original))
        for module, cls_name, key in COUNTED:
            cls = getattr(modules[module], cls_name)
            original = cls.__dict__["__post_init__"]
            setattr(cls, "__post_init__", self._count(key, original))
            undo.append((cls, "__post_init__", original))
        # Bytes the CLI writes, whether to a file or to standard output.
        writer = modules["cli"]._write_output
        replace(writer, self._write_counter(writer))
        try:
            yield self
        finally:
            for ns, key, original in reversed(undo):
                setattr(ns, key, original)

    def extend(self, spans: list, counts: dict, op: int) -> None:
        """Append spans recorded by another process under op id ``op``."""
        offset = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, op])
        self.counts.update(counts)


def write_spans(path: str, spans: list) -> None:
    """Write spans as JSON Lines: name, start/end in ns, parent index, op id."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, op in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")
