"""Span recorder for the traced run.

Timing wrappers are installed from outside the program, on the module and
class attributes that fuzzkey resolves at call time, and removed again after
the run.  Each span records its name, start, end, thread and parent span.
Parents are tracked per thread; a span opened on a thread with no open span
of its own (a scoring pool worker) takes the innermost open span of the
main thread as parent, which is ``pipeline.analyze`` while the pool runs.

Spans stay in memory and are written as JSON lines by :meth:`dump`.  A
wrapped function the program no longer calls simply records no spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    size: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def call(self, name, fn, args, kwargs, size=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``size(args, result)``, when given, attaches a work count to the span.
        """
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        span = Span(span_id, parent, name, threading.get_ident(), start, end)
        if size is not None:
            span.size = int(size(args, result))
        self.spans.append(span)
        return result

    def wrap(self, owner, attr: str, name: str, size=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper; a missing attribute is skipped."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        recorder = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            return recorder.call(name, original, args, kwargs, size)

        setattr(owner, attr, timed)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def dump(self, path: Path, **fields) -> None:
        """Append every span as one JSON object per line, tagged with ``fields``."""
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                record = {**fields, **span.__dict__}
                handle.write(json.dumps(record) + "\n")


def install(recorder: SpanRecorder) -> None:
    """Wrap the layer boundaries of fuzzkey's seven modules."""
    from fuzzkey import cipher, cli, pipeline
    from fuzzkey.network import DynamicFuzzyNetwork

    def cells(args, dataset):
        target = dataset.target
        return dataset.rows.size + (0 if target is None else target.size)

    def weight_bytes(args, _):
        return sum(getattr(w, "nbytes", 0) for w in getattr(args[0], "weights", ()))

    def first_len(args, _):
        return len(args[0])

    def result_len(_, result):
        return len(result)

    recorder.wrap(pipeline, "load_table", "ingest.load_table", cells)
    recorder.wrap(pipeline, "normalize", "ingest.normalize")
    recorder.wrap(pipeline, "score_feature", "selection.score_feature")
    recorder.wrap(pipeline, "select_topk", "selection.select")
    recorder.wrap(pipeline, "select_threshold", "selection.select")
    recorder.wrap(cli, "analyze", "pipeline.analyze")
    recorder.wrap(cli, "render_report", "pipeline.render_report", result_len)
    recorder.wrap(cipher, "encrypt", "cipher.encrypt", first_len)
    recorder.wrap(cipher, "decrypt", "cipher.decrypt", first_len)
    recorder.wrap(cipher, "make_tag", "cipher.tag", first_len)
    recorder.wrap(cipher, "serialize_selection", "cipher.serialize")
    recorder.wrap(DynamicFuzzyNetwork, "__init__", "network.build", weight_bytes)
    recorder.wrap(DynamicFuzzyNetwork, "propagate", "network.propagate")


def self_seconds(span: Span, children: list[Span]) -> float:
    """``span``'s duration minus the part of it its children's union covers."""
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda s: s.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.seconds - covered


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over the spans of one traced operation."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def total(name: str) -> float:
        return sum(s.seconds for s in by_name.get(name, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def size(*names: str) -> int:
        return sum(s.size or 0 for n in names for s in by_name.get(n, ()))

    def self_total(name: str) -> float:
        return sum(self_seconds(s, children.get(s.id, [])) for s in by_name.get(name, ()))

    scores = by_name.get("selection.score_feature", [])
    score_wall = max(s.end for s in scores) - min(s.start for s in scores) if scores else 0.0
    return {
        "ingest.load_table_s": total("ingest.load_table"),
        "ingest.normalize_s": total("ingest.normalize"),
        "ingest.cells": size("ingest.load_table"),
        "selection.score_busy_s": total("selection.score_feature"),
        "selection.score_wall_s": score_wall,
        "selection.score_calls": count("selection.score_feature"),
        "selection.select_s": total("selection.select"),
        "network.build_s": total("network.build"),
        "network.weight_bytes": size("network.build"),
        "network.propagate_s": total("network.propagate"),
        "network.propagations": count("network.propagate"),
        "pipeline.analyze_s": total("pipeline.analyze"),
        "pipeline.analyze_self_s": self_total("pipeline.analyze"),
        "pipeline.render_report_s": total("pipeline.render_report"),
        "pipeline.report_bytes": size("pipeline.render_report"),
        "cipher.serialize_s": total("cipher.serialize"),
        "cipher.encrypt_s": total("cipher.encrypt"),
        "cipher.decrypt_s": total("cipher.decrypt"),
        "cipher.tag_s": total("cipher.tag"),
        "cipher.bytes": size("cipher.encrypt", "cipher.decrypt"),
        "cli.main_s": total("cli.main"),
        "cli.self_s": self_total("cli.main"),
    }
