"""Frontend pipeline simulation.

The counters follow the paper's Table 4:

====== =================================== =============================
label  Intel event                          model source
====== =================================== =============================
I1     frontend_retired.l1i_miss            L1i misses
I2     l2_rqsts.code_rd_miss                L2 code-read misses
I3     icache_16b.ifdata_stall              cycles stalled on L1i misses
T1     icache_64b.iftag_miss                first-level iTLB misses
T2     frontend_retired.itlb_miss           iTLB misses that walked (STLB miss)
B1     baclears.any                         taken branch absent from BTB
B2     br_inst_retired.near_taken           taken branches
DSB    (§5.4 discussion)                    decoded-stream-buffer misses
====== =================================== =============================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.elf import Executable
from repro.hwmodel.caches import SetAssociativeCache
from repro.profiles import Trace


@dataclass(frozen=True)
class SkylakeParams:
    """Structure sizes and penalties (Skylake server, rounded)."""

    line_bytes: int = 64
    l1i_sets: int = 64          # 32 KB / 64 B / 8 ways
    l1i_ways: int = 8
    l2_sets: int = 1024         # 1 MB / 64 B / 16 ways
    l2_ways: int = 16
    itlb_4k_sets: int = 16      # 128-entry, 8-way
    itlb_4k_ways: int = 8
    itlb_2m_sets: int = 1       # 8-entry fully associative
    itlb_2m_ways: int = 8
    stlb_sets: int = 128        # 1536-entry unified second level
    stlb_ways: int = 12
    btb_sets: int = 1024
    btb_ways: int = 4
    dsb_sets: int = 64          # tracked per 32-byte window
    dsb_ways: int = 8
    #: Page sizes as shifts: 4 KB base pages, 2 MB hugepages.
    page_shift_4k: int = 12
    page_shift_2m: int = 21
    # Penalties (cycles) and issue width.
    issue_width: float = 4.0
    l1i_miss_cycles: float = 9.0
    l2_code_miss_cycles: float = 40.0
    itlb_miss_cycles: float = 9.0
    tlb_walk_cycles: float = 55.0
    baclear_cycles: float = 11.0
    #: A *predicted* taken branch costs almost nothing on modern
    #: frontends; the gains from fall-through-dense layout come from
    #: fetch density and prefetch, not from the branch itself.
    taken_branch_cycles: float = 0.12
    dsb_miss_cycles: float = 1.5
    #: Sequential next-line instruction prefetch (all modern Intel
    #: frontends do this): on an L1i miss the following line is
    #: streamed in as well, so straight-line packed code misses far
    #: less than branchy, scattered code.
    next_line_prefetch: bool = True
    #: Average encoded instruction size, used to estimate instruction
    #: counts from block byte sizes.
    avg_instr_bytes: float = 3.1

    def scaled(self, factor: int) -> "SkylakeParams":
        """Shrink capacity structures by ``factor`` (associativity kept).

        Workloads in this reproduction are generated at ~1/100 of the
        paper's size; measuring them against full-size caches would
        understate capacity pressure by the same factor.  Scaling the
        cache/TLB/BTB capacities with the workload preserves the
        *ratio* of working set to structure size, which is what the
        relative layout effects depend on.  Penalties are unchanged.
        """
        if factor < 1:
            raise ValueError("factor must be >= 1")

        def shrink(sets: int) -> int:
            return max(1, sets // factor)

        from dataclasses import replace

        page_scale = max(0, factor.bit_length() - 1)  # log2(factor)
        return replace(
            self,
            l1i_sets=shrink(self.l1i_sets),
            l2_sets=shrink(self.l2_sets),
            itlb_4k_sets=shrink(self.itlb_4k_sets),
            itlb_2m_sets=1,
            itlb_2m_ways=max(2, self.itlb_2m_ways // 2),
            stlb_sets=shrink(self.stlb_sets),
            btb_sets=shrink(self.btb_sets),
            dsb_sets=shrink(self.dsb_sets),
            # Pages scale with the workload too: a scaled-down binary on
            # full-size 2 MB hugepages would fit in one TLB entry and
            # hide all translation behaviour.  Hugepages shrink twice as
            # fast because the big binaries that use them are generated
            # at even smaller scales.
            page_shift_4k=max(6, self.page_shift_4k - page_scale),
            page_shift_2m=max(10, self.page_shift_2m - 2 * page_scale),
        )


DEFAULT_PARAMS = SkylakeParams()

#: Structures scaled to match the default 1/100-scale workloads.
SCALED_PARAMS = DEFAULT_PARAMS.scaled(16)

#: The paper's Table 4 counter labels, in presentation order (``DSB``
#: is the §5.4 discussion counter, reported alongside them).
TABLE4_LABELS: Tuple[str, ...] = ("I1", "I2", "I3", "T1", "T2", "B1", "B2", "DSB")


@dataclass
class FrontendCounters:
    """Simulation outputs (Table 4 labels)."""

    instructions: float = 0.0
    blocks: int = 0
    l1i_miss: int = 0           # I1
    l2_code_miss: int = 0       # I2
    l1i_stall_cycles: float = 0.0  # I3
    itlb_miss: int = 0          # T1
    itlb_walk: int = 0          # T2
    baclears: int = 0           # B1
    taken_branches: int = 0     # B2
    dsb_miss: int = 0
    cycles: float = 0.0
    #: Per-function attribution of the same run, filled only when
    #: :func:`simulate_frontend` was called with ``by_function=True``
    #: (the hook behind ``repro.obs.explain``'s cycle attribution).
    #: Each value's counters cover the events charged while that
    #: function's blocks were fetching; the totals above are always
    #: accumulated globally, so they are bit-identical whether
    #: attribution ran or not.
    per_function: Dict[str, "FrontendCounters"] = field(default_factory=dict)

    def counter(self, label: str) -> float:
        return {
            "I1": self.l1i_miss,
            "I2": self.l2_code_miss,
            "I3": self.l1i_stall_cycles,
            "T1": self.itlb_miss,
            "T2": self.itlb_walk,
            "B1": self.baclears,
            "B2": self.taken_branches,
            "DSB": self.dsb_miss,
        }[label]

    def table4(self) -> Dict[str, float]:
        """The Table 4 counters alone, keyed by label."""
        return {label: self.counter(label) for label in TABLE4_LABELS}

    def as_dict(self) -> Dict[str, float]:
        """Every simulated quantity as a flat, JSON-able mapping.

        The extraction surface behind scorecards and the metrics
        report's ``frontend`` section: Table 4 labels plus the derived
        totals, all plain numbers (deterministic for a given binary,
        trace and parameters).
        """
        out: Dict[str, float] = self.table4()
        out["instructions"] = self.instructions
        out["blocks"] = self.blocks
        out["cycles"] = self.cycles
        out["ipc"] = self.ipc
        return out

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def _model_cycles(params: SkylakeParams, instructions: float, l1i_miss: float,
                  l2_miss: float, itlb_miss: float, itlb_walk: float,
                  baclears: float, taken_branches: float,
                  dsb_miss: float) -> float:
    """The frontend cost model; linear, so per-function shares sum to ~total."""
    return (
        instructions / params.issue_width
        + l1i_miss * params.l1i_miss_cycles
        + l2_miss * params.l2_code_miss_cycles
        + itlb_miss * params.itlb_miss_cycles
        + itlb_walk * params.tlb_walk_cycles
        + baclears * params.baclear_cycles
        + taken_branches * params.taken_branch_cycles
        + dsb_miss * params.dsb_miss_cycles
    )


def simulate_frontend(
    exe: Executable,
    trace: Trace,
    params: SkylakeParams = DEFAULT_PARAMS,
    simulate_dsb: bool = True,
    by_function: bool = False,
) -> FrontendCounters:
    """Replay ``trace`` (generated from ``exe``) through the frontend.

    ``by_function=True`` additionally attributes every charged event to
    the function whose block was fetching (branch events to the function
    containing the branch source) and fills
    :attr:`FrontendCounters.per_function`.  Attribution never perturbs
    the shared cache/TLB/BTB state or the global accumulators, so the
    totals are bit-identical with attribution on or off (asserted in
    tests/test_hwmodel.py).
    """
    counters = FrontendCounters()
    line_shift = params.line_bytes.bit_length() - 1
    page_shift = params.page_shift_2m if exe.hugepages else params.page_shift_4k

    l1i = SetAssociativeCache(params.l1i_sets, params.l1i_ways)
    l2 = SetAssociativeCache(params.l2_sets, params.l2_ways)
    if exe.hugepages:
        itlb = SetAssociativeCache(params.itlb_2m_sets, params.itlb_2m_ways)
    else:
        itlb = SetAssociativeCache(params.itlb_4k_sets, params.itlb_4k_ways)
    stlb = SetAssociativeCache(params.stlb_sets, params.stlb_ways)
    btb = SetAssociativeCache(params.btb_sets, params.btb_ways)
    dsb = SetAssociativeCache(params.dsb_sets, params.dsb_ways) if simulate_dsb else None

    # Precompute per-block fetch footprints.
    block_info: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...], float, Tuple[int, ...]]] = {}
    block_func: Dict[int, str] = {}
    for block in exe.exec_blocks:
        block_func[block.addr] = block.func
        first_line = block.addr >> line_shift
        last_line = (block.addr + max(0, block.size - 1)) >> line_shift
        lines = tuple(range(first_line, last_line + 1))
        pages = tuple(sorted({block.addr >> page_shift, (block.end - 1) >> page_shift}))
        if dsb is not None:
            windows = tuple(range(block.addr >> 5, ((block.addr + max(0, block.size - 1)) >> 5) + 1))
        else:
            windows = ()
        instrs = max(1.0, block.size / params.avg_instr_bytes)
        # Software prefetches (§3.5) stream the target's first two lines
        # and its page translation in ahead of use.
        pf_lines = tuple(
            line
            for target in block.prefetch_targets
            for line in ((target >> line_shift), (target >> line_shift) + 1)
        )
        block_info[block.addr] = (lines, pages, windows, instrs, pf_lines)

    l1i_access = l1i.access
    l2_access = l2.access
    itlb_access = itlb.access
    stlb_access = stlb.access
    dsb_access = dsb.access if dsb is not None else None
    prefetch = params.next_line_prefetch

    # func -> [instructions, blocks, l1i, l2, itlb, walk, dsb, taken, baclears]
    per_func: Optional[Dict[str, List[float]]] = {} if by_function else None

    l1i_miss = 0
    l2_miss = 0
    itlb_miss = 0
    itlb_walk = 0
    dsb_miss = 0
    instructions = 0.0
    page_shift_local = page_shift
    for addr in trace.block_addrs:
        lines, pages, windows, instrs, pf_lines = block_info[addr]
        instructions += instrs
        if per_func is not None:
            before = (l1i_miss, l2_miss, itlb_miss, itlb_walk, dsb_miss)
        for line in lines:
            if not l1i_access(line):
                l1i_miss += 1
                if not l2_access(line):
                    l2_miss += 1
                if prefetch:
                    # Stream the next line in (free fill, no miss charged).
                    l1i_access(line + 1)
                    l2_access(line + 1)
        for page in pages:
            if not itlb_access(page):
                itlb_miss += 1
                if not stlb_access(page):
                    itlb_walk += 1
        for line in pf_lines:  # software prefetch: free fills
            l1i_access(line)
            l2_access(line)
            itlb_access((line << line_shift) >> page_shift_local)
        if dsb_access is not None:
            for window in windows:
                if not dsb_access(window):
                    dsb_miss += 1
        if per_func is not None:
            acc = per_func.get(block_func[addr])
            if acc is None:
                acc = per_func[block_func[addr]] = [0.0, 0, 0, 0, 0, 0, 0, 0, 0]
            acc[0] += instrs
            acc[1] += 1
            acc[2] += l1i_miss - before[0]
            acc[3] += l2_miss - before[1]
            acc[4] += itlb_miss - before[2]
            acc[5] += itlb_walk - before[3]
            acc[6] += dsb_miss - before[4]

    func_at = None
    if per_func is not None:
        # Branch sources are instruction addresses inside blocks; map
        # them to the containing function by interval bisection.
        from bisect import bisect_right

        starts = sorted(block_func)
        start_funcs = [block_func[a] for a in starts]

        def func_at(addr: int) -> str:
            return start_funcs[bisect_right(starts, addr) - 1]

    btb_access = btb.access
    baclears = 0
    for src in trace.branch_src:
        hit = btb_access(src)
        if not hit:
            baclears += 1
        if func_at is not None:
            acc = per_func.get(func_at(src))
            if acc is None:
                acc = per_func[func_at(src)] = [0.0, 0, 0, 0, 0, 0, 0, 0, 0]
            acc[7] += 1
            if not hit:
                acc[8] += 1

    counters.blocks = trace.num_blocks_executed
    counters.instructions = instructions
    counters.l1i_miss = l1i_miss
    counters.l2_code_miss = l2_miss
    counters.itlb_miss = itlb_miss
    counters.itlb_walk = itlb_walk
    counters.baclears = baclears
    counters.taken_branches = trace.num_branches
    counters.dsb_miss = dsb_miss
    counters.l1i_stall_cycles = l1i_miss * params.l1i_miss_cycles
    counters.cycles = _model_cycles(params, instructions, l1i_miss, l2_miss,
                                    itlb_miss, itlb_walk, baclears,
                                    trace.num_branches, dsb_miss)
    if per_func is not None:
        for func, acc in per_func.items():
            counters.per_function[func] = FrontendCounters(
                instructions=acc[0],
                blocks=int(acc[1]),
                l1i_miss=int(acc[2]),
                l2_code_miss=int(acc[3]),
                l1i_stall_cycles=acc[2] * params.l1i_miss_cycles,
                itlb_miss=int(acc[4]),
                itlb_walk=int(acc[5]),
                baclears=int(acc[8]),
                taken_branches=int(acc[7]),
                dsb_miss=int(acc[6]),
                cycles=_model_cycles(params, acc[0], acc[2], acc[3], acc[4],
                                     acc[5], acc[8], acc[7], acc[6]),
            )
    return counters
