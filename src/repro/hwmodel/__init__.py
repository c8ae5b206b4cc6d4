"""Micro-architectural frontend model (Skylake-shaped).

Replays a generated execution trace through models of the structures
code layout actually affects -- L1 instruction cache, L2 (code reads),
two-level iTLB with optional 2M hugepages, branch target buffer, and
the decoded stream buffer (DSB) -- and produces the counters of the
paper's Table 4 plus a simple additive cycle model.  Absolute cycle
counts are not meaningful; *relative* movement between layouts of the
same workload is the measured quantity (Table 3, Figure 8).
"""

from typing import Optional

from repro.elf import Executable
from repro.hwmodel.caches import SetAssociativeCache
from repro.hwmodel.frontend import (
    SCALED_PARAMS,
    TABLE4_LABELS,
    FrontendCounters,
    SkylakeParams,
    simulate_frontend,
)
from repro.hwmodel.heatmap import AccessHeatmap, record_heatmap, render_heatmap

__all__ = [
    "SetAssociativeCache",
    "FrontendCounters",
    "SkylakeParams",
    "TABLE4_LABELS",
    "simulate_frontend",
    "measure_frontend",
    "AccessHeatmap",
    "record_heatmap",
    "render_heatmap",
]


def measure_frontend(
    exe: Executable,
    max_blocks: int = 200_000,
    seed: int = 77,
    params: Optional[SkylakeParams] = None,
    by_function: bool = False,
) -> FrontendCounters:
    """Measure one binary: the frontend protocol every scorecard uses.

    Replays the layout-invariant trace of ``exe`` for a fixed block
    budget through the model with ``params`` (default
    :data:`~repro.hwmodel.frontend.SCALED_PARAMS`).  Two binaries of one
    program measured with the same arguments did the same work, so
    their counters compare directly.  ``simulate_frontend`` and
    ``generate_trace`` are looked up on their packages at call time, so
    a wrapper installed on either attribute sees every measurement.
    """
    from repro.profiles import generate_trace

    trace = generate_trace(exe, max_blocks=max_blocks, seed=seed)
    return simulate_frontend(exe, trace,
                             SCALED_PARAMS if params is None else params,
                             by_function=by_function)
