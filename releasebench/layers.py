"""Per-layer spans recorded from outside the program.

A traced release runs with :class:`LayerTracer` installed: each entry of
:data:`BINDINGS` replaces one public function of a layer *at the binding
its caller uses* (``repro.core.pipeline`` imports ``link`` by name, so
``repro.core.pipeline.link`` is replaced, not ``repro.linker.link``)
with a wrapper that records a span -- layer, start, end, parent -- and
the layer's work counts.  Functions that are pickled to pool workers
(``compile_action``, ``_call_compute``, ``_order_task``) are never
replaced: codegen is timed at ``BuildSystem.run_batch`` and per-function
Ext-TSP at ``ext_tsp_order_many``.

Self time of a span is its duration minus the time its child spans
cover.  ``ParallelExecutor.map`` spans are *pass-through*: they are
recorded (``runtime.pool_map_s`` is their total wall time) but never
become a parent and are not subtracted, because the work a pool map
waits for -- codegen, Ext-TSP -- belongs to the layer that called it.
The tracer never touches :mod:`repro.obs`; it lives entirely in the
benchmark.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The root span around one release; its self time is the pipeline's
#: own cost (``repro.core.stages``, ``repro.core.pipeline``) that no
#: layer span covers.
ROOT = "release"

#: Per-layer time metric -> the layer whose summed self time it reports.
SELF_TIME_METRICS = {
    "codegen.s": "codegen",
    "runtime.store_load_s": "runtime.store_load",
    "runtime.store_write_s": "runtime.store_write",
    "linker.s": "linker",
    "profiles.pgo_s": "profiles.pgo",
    "profiles.trace_s": "profiles.trace",
    "profiles.lbr_s": "profiles.lbr",
    "profiles.match_s": "profiles.match",
    "wpa.s": "wpa",
    "exttsp.s": "exttsp",
    "incr.plan_s": "incr.plan",
    "hwmodel.s": "hwmodel",
    "hwmodel.trace_s": "hwmodel.trace",
    "stages.unattributed_s": ROOT,
}


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    #: Pass-through spans (pool maps) never own time nor children.
    through: bool = False


# -- work counts taken from a wrapped call's arguments and result -------

def _count_batch(counts: Counter, args, kwargs, results) -> None:
    executed = [r for r in results if not r.cache_hit]
    counts["codegen.instrs"] += sum(r.value.num_instrs for r in executed)


def _count_link(counts: Counter, args, kwargs, result) -> None:
    stats = result.stats
    counts["linker.links"] += 1
    counts["linker.input_bytes"] += stats.input_bytes
    counts["linker.relocations"] += stats.relocations_applied
    counts["linker.relax_passes"] += stats.relax_passes
    counts["linker.shrunk_branches"] += stats.shrunk_branches
    counts["linker.deleted_jumps"] += stats.deleted_jumps


def _count_pgo(counts: Counter, args, kwargs, result) -> None:
    counts["profiles.pgo_steps"] += kwargs["max_steps"]


def _count_trace(counts: Counter, args, kwargs, result) -> None:
    counts["profiles.trace_branches"] += result.num_branches


def _count_lbr(counts: Counter, args, kwargs, result) -> None:
    counts["profiles.lbr_records"] += result.num_records


def _count_wpa(counts: Counter, args, kwargs, result) -> None:
    stats = result.stats
    counts["wpa.dcfg_nodes"] += stats.dcfg_nodes
    counts["wpa.dcfg_edges"] += stats.dcfg_edges
    counts["wpa.records_dropped"] += stats.records_dropped


def _count_solves(counts: Counter, args, kwargs, result) -> None:
    counts["exttsp.solves"] += len(result)


def _count_solve(counts: Counter, args, kwargs, result) -> None:
    counts["exttsp.solves"] += 1


def _count_frontend_trace(counts: Counter, args, kwargs, result) -> None:
    counts["hwmodel.blocks"] += result.num_blocks_executed


#: (module, attribute path, layer, work counter, pass-through).  The
#: module is the one whose binding the pipeline actually calls through.
BINDINGS: Tuple[Tuple[str, str, str, Optional[Callable], bool], ...] = (
    ("repro.buildsys.build", "BuildSystem.run_batch", "codegen", _count_batch, False),
    ("repro.runtime.cache", "PersistentActionStore.load", "runtime.store_load", None, False),
    ("repro.runtime.cache", "PersistentActionStore.store", "runtime.store_write", None, False),
    ("repro.runtime.executor", "ParallelExecutor.map", "runtime.pool_map", None, True),
    ("repro.core.pipeline", "link", "linker", _count_link, False),
    ("repro.core.pipeline", "collect_ir_profile", "profiles.pgo", _count_pgo, False),
    ("repro.core.pipeline", "generate_trace", "profiles.trace", _count_trace, False),
    ("repro.core.pipeline", "sample_lbr", "profiles.lbr", _count_lbr, False),
    ("repro.core.pipeline", "match_profile", "profiles.match", None, False),
    # The pipeline calls ``wpa_mod.analyze`` through the module.
    ("repro.core.wpa", "analyze", "wpa", _count_wpa, False),
    ("repro.core.wpa", "ext_tsp_order_many", "exttsp", _count_solves, False),
    ("repro.core.wpa", "ext_tsp_order", "exttsp", _count_solve, False),
    # ``PropellerPipeline.warm_clusters`` imports it at call time.
    ("repro.core.exttsp", "ext_tsp_order", "exttsp", _count_solve, False),
    # ``reoptimize`` imports ``repro.incr`` at call time.
    ("repro.incr", "plan_dirty", "incr.plan", None, False),
    # ``PipelineResult._simulate_frontend`` imports both at call time.
    ("repro.hwmodel", "simulate_frontend", "hwmodel", None, False),
    ("repro.profiles", "generate_trace", "hwmodel.trace", _count_frontend_trace, False),
)


class LayerTracer:
    """Records layer spans while installed (a context manager)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def open(self, layer: str, through: bool = False) -> Span:
        span = Span(layer, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else None,
                    through=through)
        self.spans.append(span)
        if not through:
            self._stack.append(len(self.spans) - 1)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if not span.through:
            self._stack.pop()

    def _wrap(self, fn: Callable, layer: str, count: Optional[Callable],
              through: bool) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(layer, through)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            # Nested spans of one layer (ext_tsp_order inside an inline
            # ext_tsp_order_many) are one unit of work: count the outer.
            parent = tracer.spans[span.parent] if span.parent is not None else None
            if count is not None and (parent is None or parent.layer != layer):
                count(tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        for module_name, path, layer, count, through in BINDINGS:
            owner: Any = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, count, through))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis -------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Layer -> summed self time of its spans (pass-through excluded)."""
        self_time = [s.end - s.start for s in self.spans]
        for span in self.spans:
            if span.parent is not None and not span.through:
                self_time[span.parent] -= span.end - span.start
        totals: Dict[str, float] = {}
        for span, seconds in zip(self.spans, self_time):
            if not span.through:
                totals[span.layer] = totals.get(span.layer, 0.0) + seconds
        return totals

    def metrics(self) -> Dict[str, float]:
        """The per-layer times and the work counts taken from calls.

        ``buildsys.batch_s`` is the inclusive wall time of the codegen
        batches (cache lookups, store I/O and the fan-out together);
        ``runtime.pool_map_s`` the wall time the release waited on pool
        maps, whichever layer's work ran in them.
        """
        self_time = self.self_times()
        metrics = {name: self_time.get(layer, 0.0)
                   for name, layer in SELF_TIME_METRICS.items()}
        metrics["buildsys.batch_s"] = self.total_time("codegen")
        metrics["runtime.pool_map_s"] = self.total_time("runtime.pool_map")
        metrics.update(self.counts)
        return metrics

    def total_time(self, layer: str) -> float:
        """Summed wall time of a layer's outermost spans."""
        total = 0.0
        for span in self.spans:
            parent = self.spans[span.parent] if span.parent is not None else None
            if span.layer == layer and (parent is None or parent.layer != layer):
                total += span.end - span.start
        return total
