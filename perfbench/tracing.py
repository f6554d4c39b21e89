"""Span tracing of labelvote from outside the package.

``Tracer.install`` replaces every public function of the layer modules,
in every labelvote namespace that holds a reference to it, with a
wrapper that records a span: name (``module.function``), start, end,
parent span, run id and thread. It also wraps the lazy AnnotationMatrix
views, ``AnnotationMatrix.to_records`` and ``MockProvider.complete``.
Per-item helpers stay unwrapped so that their cost shows as their
caller's self time. ``uninstall`` restores the originals. Spans are kept
in memory; ``write`` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import statistics
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "storage", "core", "aggregate", "simulate", "extract", "providers")
# Called once per item or response: wrapping them would cost more than they do.
PER_ITEM = {"weighted_vote", "encode_label", "decode_label", "parse_response", "render_prompt"}
RSS_AT_END = {"core.build_matrix"}


def rss_mib() -> float:
    """Resident set size of this process, from /proc/self/statm (0 where absent)."""
    try:
        with open("/proc/self/statm") as fh:
            resident = int(fh.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return resident * os.sysconf("SC_PAGE_SIZE") / 2**20


class Span:
    __slots__ = ("name", "run", "parent", "thread", "start", "end", "count", "error", "rss_mib")

    def __init__(self, name, run, parent, thread):
        self.name, self.run, self.parent, self.thread = name, run, parent, thread
        self.start = self.end = 0.0
        self.count = None  # len() of a list result
        self.error = False
        self.rss_mib = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run: str | None = None
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        tracer = self
        record_rss = name in RSS_AT_END

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span = Span(name, tracer.run, stack[-1] if stack else None, threading.get_ident())
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if isinstance(result, list):
                span.count = len(result)
            if record_rss:
                span.rss_mib = rss_mib()
            return result

        return traced

    def _patch(self, owner, key, value):
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def install(self) -> None:
        package = importlib.import_module("labelvote")
        modules = {short: importlib.import_module(f"labelvote.{short}") for short in LAYERS}
        namespaces = [package, *modules.values()]
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and attr not in PER_ITEM
                ):
                    wrapped = self._wrap(f"{short}.{attr}", obj)
                    for namespace in namespaces:
                        for key, value in list(vars(namespace).items()):
                            if value is obj:
                                self._patch(namespace, key, wrapped)
        matrix = modules["core"].AnnotationMatrix
        for view in ("by_item", "by_annotator"):
            replacement = functools.cached_property(
                self._wrap(f"core.{view}", vars(matrix)[view].func)
            )
            replacement.__set_name__(matrix, view)
            self._patch(matrix, view, replacement)
        self._patch(matrix, "to_records", self._wrap("core.to_records", matrix.to_records))
        mock = modules["providers"].MockProvider
        self._patch(mock, "complete", self._wrap("providers.complete", mock.complete))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def write(self, path) -> None:
        index = {id(span): n for n, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": None if span.parent is None else index[id(span.parent)],
                            "run": span.run,
                            "thread": span.thread,
                            "count": span.count,
                            "error": span.error,
                        }
                    )
                    + "\n"
                )


def self_times(spans) -> dict[int, float]:
    """Span duration minus the time its direct children (same thread) cover."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[id(span.parent)] += span.duration
    return {id(span): span.duration - covered[id(span)] for span in spans}


def table(spans) -> dict[str, list]:
    """name -> [calls, total seconds, self seconds], sorted by module then name."""
    own = self_times(spans)
    rows: dict[str, list] = {}
    for span in spans:
        row = rows.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.duration
        row[2] += own[id(span)]
    return dict(sorted(rows.items(), key=lambda kv: (LAYERS.index(kv[0].split(".")[0]), kv[0])))


def largest_self(spans, run: str) -> tuple[str, float]:
    """The non-cli span name with the largest total self time in one run."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.run == run and not span.name.startswith("cli."):
            totals[span.name] += own[id(span)]
    return max(totals.items(), key=lambda kv: kv[1], default=("", 0.0))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]; 0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _max_concurrent(spans) -> int:
    events = sorted([(s.start, 1) for s in spans] + [(s.end, -1) for s in spans])
    level = peak = 0
    for _, step in events:
        level += step
        peak = max(peak, level)
    return peak


def layer_metrics(spans, requests: int, in_flight_cap: int) -> dict[str, float]:
    """Per-layer numbers of one traced chain; ``requests`` = providers x products."""
    rows = table(spans)

    def total(*names):
        return sum(rows[n][1] for n in names if n in rows)

    def own(*names):
        return sum(rows[n][2] for n in names if n in rows)

    def calls(name):
        return rows[name][0] if name in rows else 0

    completes = [s for s in spans if s.name == "providers.complete"]
    extract_wall = total("extract.extract_labels")
    records = sum(s.count or 0 for s in spans if s.name == "extract.extract_labels")
    iterations = calls("aggregate.estimate_accuracies")
    rss = [s.rss_mib for s in spans if s.rss_mib is not None]
    durations_ms = [s.duration * 1000 for s in completes]
    return {
        "cli.overhead_s": sum(row[2] for name, row in rows.items() if name.startswith("cli.")),
        "storage.read_annotations_s": total("storage.read_annotations"),
        "storage.records_read": sum(
            s.count or 0 for s in spans if s.name == "storage.read_annotations"
        ),
        "storage.write_annotations_s": total("storage.write_annotations"),
        "storage.write_predictions_s": total("storage.write_predictions"),
        "storage.read_predictions_s": total("storage.read_predictions"),
        "core.build_matrix_s": total("core.build_matrix"),
        "core.views_s": total("core.by_item", "core.by_annotator"),
        "core.to_records_s": total("core.to_records"),
        "core.rss_after_build_mib": max(rss, default=0.0),
        "simulate.generate_ground_truth_s": total("simulate.generate_ground_truth"),
        "simulate.simulate_annotations_s": total("simulate.simulate_annotations"),
        "aggregate.run_ensemble_s": total("aggregate.run_ensemble"),
        "aggregate.iterations": iterations,
        "aggregate.iteration_ms": (
            1000 * total("aggregate.run_ensemble") / iterations if iterations else 0.0
        ),
        "aggregate.estimate_accuracies_s": own("aggregate.estimate_accuracies"),
        "aggregate.vote_self_s": own("aggregate.run_ensemble"),
        "extract.extract_labels_s": extract_wall,
        "extract.in_flight_utilization": (
            sum(s.duration for s in completes) / (extract_wall * in_flight_cap)
            if extract_wall
            else 0.0
        ),
        "extract.records_per_request": records / requests if requests else 0.0,
        "extract.retries": max(0, len(completes) - requests),
        "providers.calls": len(completes),
        "providers.failures": sum(s.error for s in completes),
        "providers.complete_p50_ms": statistics.median(durations_ms) if durations_ms else 0.0,
        "providers.complete_p95_ms": percentile(durations_ms, 0.95),
        "providers.max_in_flight": _max_concurrent(completes),
    }
