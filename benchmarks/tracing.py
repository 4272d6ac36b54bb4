"""Span tracing of taskcascade's public functions, from outside the package.

``Tracer`` replaces each traced function at every module attribute that
holds it (for example both ``taskcascade.linmodel.lambda_max`` and
``taskcascade.cascade.lambda_max``, which is the name ``run_cascade`` looks
up), records one span per call in memory, and puts the originals back on
exit. Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

# (module, function) pairs whose calls become spans. Each name is the
# layer boundary a caller crosses; private helpers stay untraced.
TRACED = (
    ("tasks", "generate_synthetic"),
    ("tasks", "save_collection"),
    ("tasks", "load_collection"),
    ("distances", "compute_distance_matrix"),
    ("distances", "save_distance_matrix"),
    ("distances", "load_distance_matrix"),
    ("graph", "mst"),
    ("graph", "medoid"),
    ("graph", "root_tree"),
    ("graph", "star_tree"),
    ("graph", "random_spanning_tree"),
    ("graph", "topological_order"),
    ("budget", "allocate"),
    ("linmodel", "lambda_max"),
    ("linmodel", "rmse"),
    ("linmodel", "refine"),
    ("linmodel", "contraction_rate"),
    ("theory", "verify_bounds"),
    ("cascade", "run_experiment"),
    ("cascade", "run_method"),
    ("cascade", "run_cascade"),
    ("cascade", "run_individual"),
    ("cascade", "write_run_report"),
    ("cli", "cmd_gen"),
    ("cli", "cmd_dist"),
    ("cli", "cmd_tree"),
    ("cli", "cmd_run"),
    ("cli", "cmd_verify"),
)


def _refine_steps(args, kwargs):
    return kwargs["b"] if "b" in kwargs else args[3]


def _distance_pairs(args, kwargs):
    T = len(kwargs["collection"] if "collection" in kwargs else args[0])
    return T * (T - 1) // 2


# Work counted at a span boundary: counter name -> (span name, count of a call).
COUNTERS = {
    "linmodel.refine.steps": ("linmodel.refine", _refine_steps),
    "distances.pairs": ("distances.compute_distance_matrix", _distance_pairs),
}

# The function whose entry starts a new replicate; it gets no span.
REPLICATE_ENTRY = ("cascade", "_run_replicate")
PACKAGE = "taskcascade"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    replicate: str


class Tracer:
    """Context manager that traces ``TRACED`` while it is active."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.replicate = "pass0"
        self._pass = "pass0"
        self._stack: list[int] = []
        self._replicates = 0
        self._patched: list[tuple[object, str, object]] = []

    def start_pass(self, label: str) -> None:
        """Spans from here on belong to pass ``label`` until a replicate starts."""
        self._pass = label
        self._replicates = 0
        self.replicate = label

    def next_replicate(self) -> None:
        self._replicates += 1
        self.replicate = f"{self._pass}/r{self._replicates}"

    def _wrap(self, name, fn):
        counters = [(c, count) for c, (span, count) in COUNTERS.items() if span == name]

        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(name, start, end, parent, self.replicate)
                for counter, count in counters:
                    self.counts[counter] += count(args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _mark_replicate(self, fn):
        def marked(*args, **kwargs):
            self.next_replicate()
            return fn(*args, **kwargs)

        marked.__wrapped__ = fn
        return marked

    def _patch(self, original, replacement) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def __enter__(self) -> "Tracer":
        for module_name, fn_name in TRACED:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            original = getattr(module, fn_name)
            self._patch(original, self._wrap(f"{module_name}.{fn_name}", original))
        module = importlib.import_module(f"{PACKAGE}.{REPLICATE_ENTRY[0]}")
        original = getattr(module, REPLICATE_ENTRY[1], None)
        if original is not None:
            self._patch(original, self._mark_replicate(original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines, one per span, ids by position."""
        with open(path, "w") as fh:
            for sid, span in enumerate(self.spans):
                if span is not None:
                    fh.write(json.dumps({"id": sid, **asdict(span)}) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_totals(spans: list[Span | None]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    A span's self time is its duration minus the part of it that its child
    spans cover.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span is not None and span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for sid, span in enumerate(spans):
        if span is None:
            continue
        clipped = [
            (max(s, span.start), min(e, span.end)) for s, e in children.get(sid, [])
        ]
        entry = out[span.name]
        entry["calls"] += 1
        entry["total_s"] += span.end - span.start
        entry["self_s"] += span.end - span.start - _covered(clipped)
    return dict(out)
