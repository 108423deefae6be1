"""In-memory span tracer that wraps the pipeline's public functions from outside.

The benchmark never edits ``src/``: a traced run replaces selected functions
and methods with thin wrappers (:func:`install`) that record one span per call
— name, layer, start, end, parent span and thread — and restores the originals
afterwards.  Spans stay in memory until :meth:`Tracer.write` dumps them at the
end of the run.

From the spans :func:`layer_times` derives, per layer, its *busy* time (the
union of the intervals its spans cover, across threads) and its *self* time
(time during which the innermost open span on a thread belongs to the layer).
"""

from __future__ import annotations

import functools
import json
import threading
import time

from contextlib import contextmanager
from pathlib import Path

#: The pipeline's layers, in data-flow order; ``bench`` is the harness itself.
LAYERS = ("chain", "graph", "data", "core", "ensemble", "api", "bench")


class Tracer:
    """Collects spans; each thread keeps its own stack of open spans."""

    def __init__(self):
        self.spans: list[tuple] = []        # (id, name, layer, start, end, parent, thread)
        self.rows: dict[str, list[int]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str):
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, name, layer, start, end, parent,
                                   threading.get_ident()))

    def record_rows(self, name: str, rows: int) -> None:
        """Remember the batch size of one call (e.g. rows per predict)."""
        with self._lock:
            self.rows.setdefault(name, []).append(rows)

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, _, start, end, _, _ in self.spans if n == name]

    def write(self, path: Path, header: dict) -> None:
        """Dump the header line plus one JSON line per span (times in seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for span_id, name, layer, start, end, parent, thread in sorted(
                    self.spans, key=lambda s: s[3]):
                out.write(json.dumps({
                    "id": span_id, "name": name, "layer": layer,
                    "start": start - origin, "end": end - origin,
                    "parent": parent, "thread": thread}) + "\n")


def _wrap(tracer: Tracer, fn, name: str, layer: str, rows_arg: int | None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rows_arg is not None and len(args) > rows_arg:
            tracer.record_rows(name, len(args[rows_arg]))
        with tracer.span(name, layer):
            return fn(*args, **kwargs)
    return wrapper


@contextmanager
def install(tracer: Tracer, targets):
    """Wrap every ``(owner, attribute, span name, rows_arg)`` target while active.

    ``owner`` is a class or module; the attribute is looked up in the
    owner's own ``__dict__`` so classmethods stay classmethods.  ``rows_arg``
    names the positional argument whose ``len()`` is recorded per call
    (``None`` for none).  Originals are restored on exit.
    """
    saved = []
    try:
        for owner, attribute, name, rows_arg in targets:
            layer = name.split(".", 1)[0]
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap(tracer, original.__func__, name, layer, rows_arg))
            else:
                wrapped = _wrap(tracer, original, name, layer, rows_arg)
            setattr(owner, attribute, wrapped)
            saved.append((owner, attribute, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def pipeline_targets():
    """The public layer boundaries the benchmark times, as ``install`` targets."""
    from repro.api.deanonymizer import DeAnonymizer
    from repro.chain import generator as chain_generator
    from repro.chain.ledger import Ledger
    from repro.core.calibration_module import JointCalibrationModule
    from repro.core.classifier import AccountClassificationModule
    from repro.core.gsg import GSGBranch
    from repro.core.ldg import LDGBranch
    from repro.core.model import DBG4ETH
    from repro.data import dataset as data_dataset
    from repro.data.dataset import SubgraphDatasetBuilder
    from repro.data.features import DeepFeatureExtractor
    from repro.graph.txgraph import TxGraph

    return [
        (chain_generator.LedgerGenerator, "generate", "chain.generate", None),
        (Ledger, "open", "chain.open", None),
        (Ledger, "append_blocks_columnar", "chain.append", None),
        (Ledger, "sync", "chain.sync", None),
        # The data module looks both graph functions up in its own namespace.
        (data_dataset, "build_transaction_graph", "graph.build", None),
        (data_dataset, "ego_subgraph", "graph.ego", None),
        (TxGraph, "ingest", "graph.ingest", None),
        (SubgraphDatasetBuilder, "build", "data.dataset_build", None),
        (SubgraphDatasetBuilder, "build_sample", "data.sample", None),
        (SubgraphDatasetBuilder, "_truncate", "data.truncate", None),
        (DeepFeatureExtractor, "extract_many", "data.extract", None),
        (DBG4ETH, "fit", "core.fit", None),
        (DBG4ETH, "predict_proba", "core.predict", 1),
        (DBG4ETH, "predict", "core.predict", 1),
        (GSGBranch, "fit", "core.gsg_fit", None),
        (LDGBranch, "fit", "core.ldg_fit", None),
        (GSGBranch, "predict_scores", "core.gsg_predict", None),
        (LDGBranch, "predict_scores", "core.ldg_predict", None),
        (JointCalibrationModule, "fit", "core.calib_fit", None),
        (JointCalibrationModule, "transform", "core.calib_transform", None),
        (AccountClassificationModule, "fit", "ensemble.fit", None),
        (AccountClassificationModule, "predict_proba", "ensemble.predict", None),
        (AccountClassificationModule, "predict", "ensemble.predict", None),
        (DeAnonymizer, "load", "api.load", None),
        (DeAnonymizer, "save", "api.save", None),
        (DeAnonymizer, "warm", "api.warm", None),
        (DeAnonymizer, "refresh", "api.refresh", None),
        (DeAnonymizer, "score", "api.score", None),
        (DeAnonymizer, "fit_category", "api.fit_category", None),
    ]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cursor = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def layer_times(spans) -> dict[str, tuple[float, float]]:
    """``{layer: (busy seconds, self seconds)}`` over the recorded spans."""
    by_id = {s[0]: s for s in spans}
    child_intervals: dict[int, list[tuple[float, float]]] = {}
    for span_id, _, _, start, end, parent, _ in spans:
        if parent is not None and parent in by_id:
            child_intervals.setdefault(parent, []).append((start, end))
    result = {}
    for layer in LAYERS:
        mine = [s for s in spans if s[2] == layer]
        busy = _union_length([(s[3], s[4]) for s in mine])
        own = sum((s[4] - s[3]) - _union_length(child_intervals.get(s[0], []))
                  for s in mine)
        result[layer] = (busy, own)
    return result
