"""Outside-in layer trace: wrap each layer's public functions, keep spans in memory.

The traced run installs these wrappers from the benchmark's own code; the
program under test is not edited.  Every wrapped call records one span
``[name, start, end, parent, search, rows]``: ``parent`` is the index of the
innermost enclosing recorded span (-1 at top level) and ``search`` the index
of the enclosing ``m3e.search`` span, the identifier all spans of one search
share.  A span's self time is its duration minus the part its children
cover.  The coordinator is single-threaded, so one stack is enough.

Worker processes of the ``parallel`` backend are forked after the wrappers
are installed; whatever they record stays in the worker and is lost, so the
trace covers the coordinating process only (see NOTES.md).  Counts the
program keeps itself (memo hits and misses, kernel row events, dispatched
chunks) are read from its ``repro.obs`` metrics registry instead, as the
change over each traced stretch; the coordinator counts worker rows there.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: The program's own counters (the ``repro.obs`` registry) whose change over
#: the traced units is reported: metric name -> (counter name, labels).  They
#: are kept in the coordinator, so they include rows the workers simulate.
PROGRAM_COUNTERS: Dict[str, Tuple[str, Optional[Dict[str, str]]]] = {
    "evaluator.memo_hits": ("repro_memo_hits_total", None),
    "evaluator.memo_misses": ("repro_memo_misses_total", None),
    "kernel.row_events": ("repro_kernel_row_events_total", None),
    "parallel.chunks": ("repro_chunks_dispatched_total", {"backend": "parallel"}),
}
_CHUNKS_DISPATCHED = PROGRAM_COUNTERS["parallel.chunks"]

#: Child spans of ``m3e.search`` that are not optimizer work.
_NOT_OPTIMIZER = ("m3e.analyze", "evaluator.")

#: Per-layer metrics in report order, with units.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("optimizers.self_s", "s"),
    ("optimizers.self_share", "ratio"),
    ("rl.mlp_forward_s", "s"),
    ("rl.mlp_forward_calls", "count"),
    ("rl.mlp_backward_s", "s"),
    ("rl.mlp_backward_calls", "count"),
    ("evaluator.population_calls", "count"),
    ("evaluator.population_s", "s"),
    ("evaluator.single_calls", "count"),
    ("evaluator.single_s", "s"),
    ("evaluator.memo_hits", "count"),
    ("evaluator.memo_misses", "count"),
    ("evaluator.memo_hit_ratio", "ratio"),
    ("codec.repair_batch_s", "s"),
    ("codec.decode_batch_s", "s"),
    ("codec.decode_batch_rows", "count"),
    ("kernel.batch_s", "s"),
    ("kernel.batch_calls", "count"),
    ("kernel.batch_rows", "count"),
    ("kernel.row_events", "count"),
    ("kernel.ns_per_row_event", "ns"),
    ("kernel.fit_fixed_ms", "ms"),
    ("kernel.fit_us_per_row", "us"),
    ("kernel.scalar_s", "s"),
    ("kernel.scalar_calls", "count"),
    ("objectives.fitness_batch_s", "s"),
    ("parallel.evaluate_s", "s"),
    ("parallel.evaluate_calls", "count"),
    ("parallel.rows", "count"),
    ("parallel.chunks", "count"),
    ("parallel.rows_per_chunk", "rows"),
    ("parallel.pools", "count"),
    ("parallel.close_s", "s"),
    ("analyzer.analyze_s", "s"),
    ("analyzer.analyze_calls", "count"),
    ("analyzer.table_cache_hits", "count"),
    ("analyzer.table_cache_builds", "count"),
    ("workloads.group_build_s", "s"),
    ("campaign.cells", "count"),
    ("campaign.cell_s", "s"),
    ("campaign.self_s", "s"),
    ("store.appends", "count"),
    ("store.append_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_share", "ratio"),
)


class SpanRecorder:
    """In-memory span list plus counts from the wrappers and the program's registry."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._search = -1

    def call(self, probe: "Probe", fn: Callable, args: tuple, kwargs: dict) -> Any:
        index = len(self.spans)
        rows = probe.rows(args, kwargs) if probe.rows is not None else None
        span = [probe.span, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._search, rows]
        self.spans.append(span)
        self._stack.append(index)
        outer_search = self._search
        if probe.span == "m3e.search":
            self._search = span[4] = index
        state = probe.before(args, kwargs) if probe.before is not None else None
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._search = outer_search
        if probe.after is not None:
            probe.after(self.counts, args, kwargs, result, state)
        return result

    def write(self, path: str) -> None:
        """Write the spans out, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, search, rows in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "search": search, "rows": rows}) + "\n")


@dataclass(frozen=True)
class Probe:
    """One wrapped function: where it lives, its span name, and its hooks."""

    owner: Any
    attr: str
    span: str
    rows: Optional[Callable[[tuple, dict], int]] = None
    before: Optional[Callable[[tuple, dict], Any]] = None
    after: Optional[Callable[[Counter, tuple, dict, Any, Any], None]] = None


def _first_arg_rows(args: tuple, kwargs: dict) -> int:
    return int(np.atleast_2d(args[1]).shape[0])


def _registry_value(name: str, labels: Optional[Dict[str, str]]) -> float:
    from repro.obs import get_metrics

    return get_metrics().value_of(name, labels)


def _kernel_rows_after(counts: Counter, args: tuple, kwargs: dict, result: Any, state: Any) -> None:
    batch = args[1]
    counts["kernel.inprocess_row_events"] += batch.pop_size * batch.num_jobs


def _dispatch_before(args: tuple, kwargs: dict) -> Tuple[bool, float]:
    return args[0].is_running, _registry_value(*_CHUNKS_DISPATCHED)


def _dispatch_after(counts: Counter, args: tuple, kwargs: dict, result: Any,
                    before: Tuple[bool, float]) -> None:
    was_running, chunks = before
    if not was_running and args[0].is_running:
        counts["parallel.pools"] += 1
    if _registry_value(*_CHUNKS_DISPATCHED) > chunks:
        counts["parallel.dispatched_rows"] += len(result)


def _cache_before(args: tuple, kwargs: dict) -> Tuple[int, int]:
    return args[0].hits, args[0].builds


def _cache_after(counts: Counter, args: tuple, kwargs: dict, result: Any, before: Tuple[int, int]) -> None:
    counts["analyzer.table_cache_hits"] += args[0].hits - before[0]
    counts["analyzer.table_cache_builds"] += args[0].builds - before[1]


def layer_probes() -> List[Probe]:
    """The public functions wrapped at each layer boundary."""
    from repro.core import parallel
    from repro.core.analyzer import AnalysisTableCache, JobAnalyzer
    from repro.core.bw_allocator import BandwidthAllocator, BatchBandwidthAllocator
    from repro.core.encoding import MappingCodec
    from repro.core.evaluator import MappingEvaluator
    from repro.core.framework import M3E
    from repro.core.objectives import Objective
    from repro.experiments.campaign import CampaignRunner
    from repro.optimizers.rl.nn import MLP
    from repro.utils.storage import BackedStore
    from repro.workloads.benchmark import BenchmarkBuilder

    objectives = [Objective]
    for cls in objectives:
        objectives.extend(cls.__subclasses__())
    return [
        Probe(M3E, "search", "m3e.search"),
        Probe(M3E, "analyze", "m3e.analyze"),
        Probe(MappingEvaluator, "__init__", "evaluator.init"),
        Probe(MappingEvaluator, "evaluate_population", "evaluator.population",
              rows=_first_arg_rows),
        Probe(MappingEvaluator, "evaluate", "evaluator.single"),
        Probe(MappingEvaluator, "detailed_evaluation", "evaluator.detailed"),
        Probe(MappingEvaluator, "schedule_for", "evaluator.schedule"),
        Probe(MappingEvaluator, "close", "evaluator.close"),
        Probe(MappingCodec, "repair_batch", "codec.repair_batch", rows=_first_arg_rows),
        Probe(MappingCodec, "decode_batch", "codec.decode_batch", rows=_first_arg_rows),
        Probe(BatchBandwidthAllocator, "makespan_cycles", "kernel.batch",
              rows=lambda args, kwargs: args[1].pop_size, after=_kernel_rows_after),
        Probe(BandwidthAllocator, "makespan_cycles", "kernel.scalar"),
        Probe(BandwidthAllocator, "allocate", "kernel.scalar"),
        *[Probe(cls, "fitness_batch", "objectives.fitness_batch")
          for cls in objectives if "fitness_batch" in vars(cls)],
        Probe(parallel.ParallelEvaluationPool, "evaluate", "parallel.evaluate",
              rows=_first_arg_rows, before=_dispatch_before, after=_dispatch_after),
        Probe(parallel.ParallelEvaluationPool, "close", "parallel.close"),
        Probe(MLP, "forward", "rl.mlp_forward"),
        Probe(MLP, "backward", "rl.mlp_backward"),
        Probe(JobAnalyzer, "analyze", "analyzer.analyze"),
        Probe(AnalysisTableCache, "get_or_build", "analyzer.table_cache",
              before=_cache_before, after=_cache_after),
        Probe(BenchmarkBuilder, "build_groups", "workloads.group_build"),
        Probe(CampaignRunner, "run_cell", "campaign.cell"),
        Probe(BackedStore, "append_record", "store.append"),
    ]


class LayerTrace:
    """Installs the probes on enter and restores the originals on exit.

    It may be entered many times; spans and counts accumulate in one
    recorder, and the program counters are read on every entry and exit.
    """

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self._originals: List[Tuple[Any, str, Any]] = []
        self._counters_at_entry: Dict[str, float] = {}

    def __enter__(self) -> "LayerTrace":
        self._counters_at_entry = {metric: _registry_value(*counter)
                                   for metric, counter in PROGRAM_COUNTERS.items()}
        for probe in layer_probes():
            original = vars(probe.owner)[probe.attr]
            self._originals.append((probe.owner, probe.attr, original))
            setattr(probe.owner, probe.attr, self._wrap(probe, original))
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        for metric, counter in PROGRAM_COUNTERS.items():
            self.recorder.counts[metric] += _registry_value(*counter) - self._counters_at_entry[metric]

    def _wrap(self, probe: Probe, original: Callable) -> Callable:
        recorder = self.recorder

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return recorder.call(probe, original, args, kwargs)

        return traced


def layer_metrics(recorder: SpanRecorder, overhead_share: float) -> Dict[str, float]:
    """Derive every metric of :data:`LAYER_METRICS` from the recorded spans."""
    spans = recorder.spans
    counts = recorder.counts
    seconds: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    rows: Counter = Counter()
    children: Dict[int, List[int]] = defaultdict(list)
    for index, (name, start, end, parent, _search, span_rows) in enumerate(spans):
        seconds[name] += end - start
        calls[name] += 1
        rows[name] += span_rows or 0
        if parent >= 0:
            children[parent].append(index)

    def duration(index: int) -> float:
        return spans[index][2] - spans[index][1]

    optimizer_self = 0.0
    campaign_self = 0.0
    for index, span in enumerate(spans):
        if span[0] == "m3e.search":
            optimizer_self += duration(index) - sum(
                duration(c) for c in children[index] if spans[c][0].startswith(_NOT_OPTIMIZER))
        elif span[0] == "campaign.cell":
            campaign_self += duration(index) - sum(
                duration(c) for c in children[index] if spans[c][0] == "m3e.search")

    fixed_ms, us_per_row = _fit_fixed_and_per_row(
        [(s[5], s[2] - s[1]) for s in spans if s[0] == "kernel.batch"])
    memo_rows = counts["evaluator.memo_hits"] + counts["evaluator.memo_misses"]
    values = {
        "optimizers.self_s": optimizer_self,
        "optimizers.self_share": _ratio(optimizer_self, seconds["m3e.search"]),
        "rl.mlp_forward_s": seconds["rl.mlp_forward"],
        "rl.mlp_forward_calls": calls["rl.mlp_forward"],
        "rl.mlp_backward_s": seconds["rl.mlp_backward"],
        "rl.mlp_backward_calls": calls["rl.mlp_backward"],
        "evaluator.population_calls": calls["evaluator.population"],
        "evaluator.population_s": seconds["evaluator.population"],
        "evaluator.single_calls": calls["evaluator.single"],
        "evaluator.single_s": seconds["evaluator.single"],
        "evaluator.memo_hits": counts["evaluator.memo_hits"],
        "evaluator.memo_misses": counts["evaluator.memo_misses"],
        "evaluator.memo_hit_ratio": _ratio(counts["evaluator.memo_hits"], memo_rows),
        "codec.repair_batch_s": seconds["codec.repair_batch"],
        "codec.decode_batch_s": seconds["codec.decode_batch"],
        "codec.decode_batch_rows": rows["codec.decode_batch"],
        "kernel.batch_s": seconds["kernel.batch"],
        "kernel.batch_calls": calls["kernel.batch"],
        "kernel.batch_rows": rows["kernel.batch"],
        "kernel.row_events": counts["kernel.row_events"],
        "kernel.ns_per_row_event": _ratio(seconds["kernel.batch"] * 1e9,
                                          counts["kernel.inprocess_row_events"]),
        "kernel.fit_fixed_ms": fixed_ms,
        "kernel.fit_us_per_row": us_per_row,
        "kernel.scalar_s": seconds["kernel.scalar"],
        "kernel.scalar_calls": calls["kernel.scalar"],
        "objectives.fitness_batch_s": seconds["objectives.fitness_batch"],
        "parallel.evaluate_s": seconds["parallel.evaluate"],
        "parallel.evaluate_calls": calls["parallel.evaluate"],
        "parallel.rows": rows["parallel.evaluate"],
        "parallel.chunks": counts["parallel.chunks"],
        "parallel.rows_per_chunk": _ratio(counts["parallel.dispatched_rows"], counts["parallel.chunks"]),
        "parallel.pools": counts["parallel.pools"],
        "parallel.close_s": seconds["parallel.close"],
        "analyzer.analyze_s": seconds["analyzer.analyze"],
        "analyzer.analyze_calls": calls["analyzer.analyze"],
        "analyzer.table_cache_hits": counts["analyzer.table_cache_hits"],
        "analyzer.table_cache_builds": counts["analyzer.table_cache_builds"],
        "workloads.group_build_s": seconds["workloads.group_build"],
        "campaign.cells": calls["campaign.cell"],
        "campaign.cell_s": seconds["campaign.cell"],
        "campaign.self_s": campaign_self,
        "store.appends": calls["store.append"],
        "store.append_s": seconds["store.append"],
        "trace.spans": len(spans),
        "trace.overhead_share": overhead_share,
    }
    return {name: float(values[name]) for name, _unit in LAYER_METRICS}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _fit_fixed_and_per_row(samples: List[Tuple[int, float]]) -> Tuple[float, float]:
    """Least-squares ``seconds = a + b * rows`` over kernel calls, as (a ms, b us).

    Returns zeros when the calls do not span at least two row counts (the
    fit is then undetermined).
    """
    if len({rows for rows, _ in samples}) < 2:
        return 0.0, 0.0
    x = np.array([rows for rows, _ in samples], dtype=float)
    y = np.array([seconds for _, seconds in samples], dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    return float(intercept * 1e3), float(slope * 1e6)
