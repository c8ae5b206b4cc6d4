"""The benchmark's workloads and one release of each, through the public API.

Every workload is one fixed synthetic program (preset, scale and program
seed are part of the workload, like a benchmark suite's input program)
released with :class:`repro.PropellerPipeline`.  The program and the
edit are fixed so that the exact metrics (simulated cycles, sizes,
simulated build time and memory) repeat bit for bit across seeds and
can be gated tightly; ``--seed`` seeds the output check's trace.  Every
:class:`repro.PipelineConfig` field a workload does not name keeps its
default -- in particular ``jobs`` (derived from the core count) and
``workers=1000`` -- so the process pool costs or pays as it does for
users.  Why each workload exists is recorded in ``predictions.json``.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Dict, FrozenSet, List, Optional

import repro
from repro.incr import IncrState, state_path
from repro.profiles import generate_trace
from repro.synth import EditScript

#: Blocks each binary executes in the output check.
CHECK_BLOCKS = 50_000

#: Layers every traced release must record spans for.
_CORE_LAYERS = frozenset({
    "codegen", "runtime.pool_map", "linker", "profiles.pgo", "profiles.trace",
    "profiles.lbr", "wpa", "exttsp", "hwmodel", "hwmodel.trace",
})
_STORE_LAYERS = frozenset({"runtime.store_load", "runtime.store_write"})


@dataclass(frozen=True)
class Workload:
    """One input program and how it is released."""

    name: str
    preset: str
    scale: float
    #: The :class:`repro.PipelineConfig` fields this workload names.
    config: Dict[str, Any]
    #: Re-optimize a one-function body edit (``edit_seed``) against a
    #: primed state directory (``state_dir``).
    incremental: bool = False
    #: Layers the traced run must see (the coverage guard).
    layers: FrozenSet[str] = field(default=_CORE_LAYERS)
    program_seed: int = 0
    edit_seed: int = 0


#: The programs are small so that a run holds many releases: the
#: medians then rest on enough samples to be steady on a noisy shared
#: host.  The search program's profiling runs are shortened to match
#: its size, so that profiling does not swamp the rest of the release.
_SEARCH_CONFIG = {
    "incremental": True, "hugepages": repro.PRESETS["search"].hugepages,
    "lbr_branches": 60_000, "pgo_steps": 40_000,
}

WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("incremental-release", "search", 0.00025, _SEARCH_CONFIG,
                 incremental=True,
                 layers=_CORE_LAYERS | _STORE_LAYERS | {"incr.plan"}),
        Workload("long-profile", "531.deepsjeng", 0.25, {
            "lbr_branches": 200_000, "pgo_steps": 100_000, "pgo_drift": 0.5,
            "stale_matching": "loose",
        }, layers=_CORE_LAYERS | {"profiles.match"}),
    )
}


@dataclass
class Release:
    """Inputs of one release, made fresh for every repetition."""

    program: Any
    config: Any
    state_dir: Optional[Path] = None


class Bench:
    """Set-up and release of one workload at one seed inside ``workdir``."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.check_seed = seed
        self.workdir = workdir
        #: Worker processes the releases used (``PropellerPipeline.jobs``).
        self.jobs = 0
        #: Set-up seconds: the median priming, and every per-release
        #: set-up and its program generation.
        self.prime_s = 0.0
        self.setup_s: List[float] = []
        self.generate_s: List[float] = []
        self._reps = 0
        self._primed: Optional[Path] = None

    def _program(self):
        w = self.workload
        return repro.generate_workload(repro.PRESETS[w.preset], scale=w.scale,
                                       seed=w.program_seed)

    def _config(self, state_dir: Optional[Path]):
        return repro.PipelineConfig(
            **self.workload.config,
            state_dir=None if state_dir is None else str(state_dir))

    def prime(self, samples: int) -> None:
        """One-time set-up: the cold release an incremental one builds on.

        It is primed ``samples`` times into fresh directories, so that
        :attr:`prime_s` is a median; the first state is kept.
        """
        if not self.workload.incremental:
            return
        took = []
        for i in range(samples):
            start = time.perf_counter()
            state_dir = self.workdir / f"primed{i}"
            program = self._program()
            result = repro.PropellerPipeline(program, self._config(state_dir)).run()
            IncrState.capture(result).save(state_path(state_dir))
            took.append(time.perf_counter() - start)
            if i == 0:
                self._primed = state_dir
            else:
                shutil.rmtree(state_dir, ignore_errors=True)
        self.prime_s = median(took)

    def setup(self) -> Release:
        """Fresh inputs for one release, timed into :attr:`setup_s`.

        Programs are regenerated every repetition (deterministic, so the
        same content) so that no release sees objects an earlier one
        touched.  An incremental release gets an untouched copy of the
        primed state, since ``reoptimize()`` writes the edited modules'
        actions into it.
        """
        # Start every set-up from a collected heap, as the releases do, so
        # that set-ups after a release do not pay for its garbage.
        gc.collect()
        start = time.perf_counter()
        program = self._program()
        generate_s = time.perf_counter() - start
        self._reps += 1
        state_dir = None
        if self.workload.incremental:
            program = EditScript.generate(program, seed=self.workload.edit_seed,
                                          kinds=("body",)).apply(program)
            state_dir = self.workdir / f"rep{self._reps}"
            shutil.copytree(self._primed, state_dir)
        release = Release(program, self._config(state_dir), state_dir)
        self.setup_s.append(time.perf_counter() - start)
        self.generate_s.append(generate_s)
        return release

    def sample_setups(self, count: int) -> None:
        """Set up ``count`` releases and discard them: more samples for
        the set-up median than the releases alone would give."""
        for _ in range(count):
            self.cleanup(self.setup())

    def release(self, release: Release):
        """The timed region: one release plus its frontend scorecard."""
        pipeline = repro.PropellerPipeline(release.program, release.config)
        self.jobs = pipeline.jobs
        if self.workload.incremental:
            result = pipeline.reoptimize(state_path(release.state_dir))
        else:
            result = pipeline.run()
        return result, result.report(include_frontend=True)

    def cleanup(self, release: Release) -> None:
        if release.state_dir is not None:
            shutil.rmtree(release.state_dir, ignore_errors=True)


def exact_metrics(result, report) -> Dict[str, float]:
    """The deterministic end-to-end metrics of one release."""
    frontend = report.frontend
    builds = (result.baseline, result.metadata, result.optimized)
    peak = max(report.gauges.get("wpa.peak_memory_bytes", 0),
               *(b.link_stats.peak_memory_bytes for b in builds))
    return {
        "cycles_improvement":
            frontend["baseline"]["cycles"] / frontend["optimized"]["cycles"] - 1,
        "optimized_text_bytes": result.optimized.executable.text_size,
        "sim_build_s": sum(result.phase_seconds.values()),
        "sim_peak_mem_mb": peak / (1 << 20),
    }


#: Counts that must repeat exactly across the repetitions of one run.
DETERMINISTIC_COUNTERS = {
    "buildsys.cache_misses": "cache.misses",
    "codegen.modules_compiled": "executor.batch_misses",
    "runtime.store_loads": "store.loads",
    "incr.solve_misses": "incr.solve_misses",
}


def release_counts(result) -> Dict[str, float]:
    """Per-layer counts the program itself keeps (``result.counters``)."""
    snap = result.counters.snapshot()
    counters, gauges = snap["counters"], snap["gauges"]
    hits, misses = counters.get("cache.hits", 0), counters.get("cache.misses", 0)
    solve_hits = counters.get("incr.solve_hits", 0)
    solve_misses = counters.get("incr.solve_misses", 0)
    solves = solve_hits + solve_misses
    counts = {name: counters.get(key, 0)
              for name, key in DETERMINISTIC_COUNTERS.items()}
    counts.update({
        "buildsys.cache_hits": hits,
        "buildsys.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "runtime.store_writes": counters.get("store.stores", 0),
        "runtime.pool_tasks": counters.get("pool.tasks", 0),
        "profiles.match_rate": gauges.get("profile.recovered_match_rate", 0.0),
        "incr.dirty_functions": counters.get("incr.dirty_functions", 0),
        "incr.solve_hits": solve_hits,
        "incr.solve_reuse": solve_hits / solves if solves else 0.0,
    })
    return counts


def check_release(result, check_seed: int) -> Optional[str]:
    """Why the release is wrong, or ``None`` when it checks out.

    The baseline and optimized binaries must execute the same block
    sequence -- ``(function, bb_id)`` through each binary's own
    ``block_at`` -- because the trace is layout-invariant by
    construction; and the release must not have degraded.
    """
    if result.degraded:
        return f"degraded: {', '.join(result.degraded_reasons)}"
    sequences = []
    for outcome in (result.baseline, result.optimized):
        exe = outcome.executable
        trace = generate_trace(exe, max_blocks=CHECK_BLOCKS, seed=check_seed)
        sequences.append([(b.func, b.bb_id) for b in map(exe.block_at, trace.block_addrs)])
    if len(sequences[0]) != CHECK_BLOCKS:
        return f"baseline trace ran {len(sequences[0])} of {CHECK_BLOCKS} blocks"
    if sequences[0] != sequences[1]:
        first = next((i for i, (a, b) in enumerate(zip(*sequences)) if a != b),
                     min(map(len, sequences)))
        return f"optimized binary diverges from baseline at block {first}"
    return None
