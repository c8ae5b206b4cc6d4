"""Phases 1-4: the Propeller relinking pipeline (§3, Figure 1).

Ties the substrates together on top of the distributed build system:

* **Phase 1/2** -- compile every module with PGO (the baseline
  configuration) and again with BB address map metadata; all codegen
  actions are cached by module content digest.
* **Phase 3** -- run the workload on the metadata binary, sample LBR,
  and run whole-program analysis to produce ``cc_prof``/``ld_prof``.
* **Phase 4** -- re-run codegen *only* for modules containing hot
  functions (with basic block section clusters); every cold module's
  object is a cache hit from Phase 2; relink with the global symbol
  order, dropping metadata sections.

Simulated wall-clock time and modelled peak memory are recorded per
phase, which is what the paper's Figures 4, 5, 9 and Table 5 report.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro import ir
from repro.analysis import MemoryMeter
from repro.buildsys import BuildSystem, PhaseReport
from repro.codegen import BBSectionsMode, CodeGenOptions, compile_action
from repro.core import wpa as wpa_mod
from repro.core.stages import (
    Artifact,
    ArtifactSet,
    ExecutionObserver,
    Fallback,
    Stage,
    StageContext,
    StageExecution,
    StageGraph,
    StageGraphError,
)
from repro.core.wpa import WPAOptions, WPAResult, WPAStats
from repro.elf import Executable, ObjectFile
from repro.faults import FaultPlan, RetriesExhausted
from repro.ir.digest import module_digest
from repro.linker import LinkOptions, LinkResult, LinkStats, link
from repro.obs import (
    NULL_TRACER,
    BuildStat,
    Counters,
    PhaseStat,
    PipelineReport,
    Tracer,
)
from repro.profiles import (
    MATCH_MODES,
    IRProfile,
    MatchStats,
    PerfData,
    collect_ir_profile,
    generate_trace,
    match_profile,
    sample_lbr,
)
from repro.runtime import FunctionSolveCache, resolve_cache_dir

#: Modelled cost of the instrumented (``-fprofile-generate``) build
#: relative to the optimized baseline build it precedes: slightly
#: cheaper, because instrumentation replaces the optimization passes
#: whose time it saves with cheap counter insertion.  Reported as
#: ``phase_seconds["pgo_instrumented_build"]`` (Fig. 4's PGO column);
#: purely accounting, never part of any artifact digest.
INSTRUMENTED_BUILD_FACTOR = 0.9


def empty_wpa_result() -> WPAResult:
    """The no-directives WPA result degraded runs fall back to.

    With empty clusters and an empty symbol order, Phase 4 degenerates
    to the stale-matching recovery's warm clusters when available, or
    to the baseline layout -- the honest "ship something" outcome when
    profile collection or analysis exhausted its retry budget.
    """
    return WPAResult(clusters={}, symbol_order=[], hot_functions=[],
                     dcfg={}, call_edges={}, stats=WPAStats())


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end pipeline configuration and cost-model rates."""

    seed: int = 0
    #: Instrumented-PGO training run length (IR steps).
    pgo_steps: int = 300_000
    #: Staleness applied to the instrumented profile (§2.4).
    pgo_drift: float = 0.25
    #: Run profile-guided inlining in Phase 1.  Inlined copies are new
    #: blocks the instrumented profile has never seen -- the organic
    #: form of the §2.4 staleness that post-link profiles repair.
    inline_hot: bool = False
    #: Stale-profile matching mode (``off``/``strict``/``loose``, see
    #: :mod:`repro.profiles.matching`).  When enabled, the drifted
    #: instrumented profile is re-attached to the current CFGs (fuzzy
    #: block matching + flow-conservation count inference) and the
    #: *recovered* profile feeds the metadata and Propeller builds;
    #: the baseline build deliberately keeps the stale profile -- it
    #: models the status-quo PGO deployment the paper measures against.
    stale_matching: str = "off"
    #: Hardware-profiling run length (taken branches).
    lbr_branches: int = 400_000
    lbr_period: int = 31
    #: Build pool size.  The default models the effectively unbounded
    #: distributed pool (§2.1); pass 72 to model the paper's workstation
    #: comparison point (Fig. 9, right).
    workers: int = 1000
    enforce_ram: bool = True
    ram_limit: int = 12 << 30
    #: Directory for the persistent action cache.  ``None`` falls back
    #: to the ``REPRO_CACHE_DIR`` environment variable; when neither is
    #: set, caching is in-memory only and runs start cold, as before.
    cache_dir: Optional[str] = None
    #: Enable the incremental re-optimization engine (:mod:`repro.incr`):
    #: per-function Ext-TSP solves are memoized in a
    #: :class:`~repro.runtime.FunctionSolveCache` and
    #: :meth:`PropellerPipeline.reoptimize` replays clean functions'
    #: solutions.  Never changes any artifact --
    #: ``PipelineResult.digest()`` is bit-identical with the engine on
    #: or off.
    incremental: bool = False
    #: Directory holding incremental state across releases: the
    #: ``IncrState`` snapshot, the solve cache (``solves/``) and -- when
    #: ``cache_dir`` is not set otherwise -- the persistent action store
    #: (``actions/``).  Setting it implies solve memoization.
    state_dir: Optional[str] = None
    #: Deterministic fault-injection plan (see :mod:`repro.faults`):
    #: a compact spec string (``"fail=0.02,timeout=0.01,seed=7"``), the
    #: path of a plan JSON file, or ``None`` for no injection.  A plan
    #: changes simulated durations and the ``faults.*``/``retry.*``
    #: counters, never any artifact: ``PipelineResult.digest()`` is
    #: bit-identical with any non-exhausting plan on or off.  When a
    #: whole retry budget is exhausted for profile collection, WPA or
    #: the relink, the run degrades instead of failing
    #: (``PipelineResult.degraded``); a product build that exhausts
    #: raises :class:`repro.faults.RetriesExhausted`.
    fault_plan: Optional[str] = None
    #: Record phase/batch/action spans (see :mod:`repro.obs`).  Off by
    #: default: the pipeline then runs against the shared no-op tracer
    #: and the instrumented paths cost nothing.  Tracing never changes
    #: any artifact (``PipelineResult.digest()`` is identical either
    #: way); counters are always collected.
    trace: bool = False
    wpa: WPAOptions = WPAOptions()
    hugepages: bool = False
    # Cost-model rates (simulated seconds per unit of work).
    codegen_seconds_per_instr: float = 1e-4
    #: Fixed per-compile-action overhead (process spawn, IR read) --
    #: this is what makes full backend re-runs expensive relative to
    #: BOLT's in-process passes on a workstation (Fig. 9, right).
    codegen_fixed_seconds: float = 1.5
    link_seconds_per_byte: float = 2e-7
    wpa_seconds_per_unit: float = 1e-6
    profile_seconds_per_branch: float = 2e-6


def _wpa_options_signature(options: WPAOptions) -> str:
    """Deterministic digest of the WPA knobs (flat dataclasses of
    scalars, so the auto-generated repr is complete and stable)."""
    return hashlib.sha256(repr(options).encode("utf-8")).hexdigest()


def _link_options_signature(options: LinkOptions) -> str:
    """Deterministic digest of every :class:`LinkOptions` field.

    Sequences keep their order (``symbol_order`` is meaningful order);
    sets are sorted; parts are length-prefixed like :func:`action_key`.
    """
    h = hashlib.sha256()
    parts = [
        options.output_name,
        options.entry_symbol,
        str(options.text_base),
        str(options.page_size),
        str(int(options.emit_relocs)),
        str(int(options.keep_bb_addr_map)),
        str(int(options.relax)),
        str(int(options.hugepages)),
        ",".join(sorted(options.features)),
        "|".join(options.symbol_order) if options.symbol_order is not None else "<none>",
    ]
    for part in parts:
        data = part.encode("utf-8")
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


@dataclass
class BuildOutcome:
    """One full (re)build: backend actions plus the final link."""

    tag: str
    executable: Executable
    objects: List[ObjectFile]
    backends: PhaseReport
    link_stats: LinkStats
    link_seconds: float
    hot_modules: int = 0
    cold_cache_hits: int = 0

    @property
    def wall_seconds(self) -> float:
        return self.backends.wall_seconds + self.link_seconds


@dataclass(frozen=True)
class IncrementalSummary:
    """Typed accounting of one :meth:`PropellerPipeline.reoptimize` run.

    The dirty plan (what changed since the prior release's snapshot and
    why), the hot-set churn, and the solve-cache reuse tallies.  Pure
    accounting -- never part of :meth:`PipelineResult.digest` -- and
    serialized onto the report additively via :meth:`as_dict`, whose
    layout is byte-compatible with the raw dict it replaced.
    """

    #: ``result.digest()`` of the prior release the plan was made against.
    prior_digest: str
    #: Functions whose CFG or profile slice changed (sorted).
    dirty: Tuple[str, ...]
    #: Functions absent from the prior snapshot (sorted).
    added: Tuple[str, ...]
    #: Prior functions no longer present (sorted).
    deleted: Tuple[str, ...]
    #: Function -> why it was planned dirty (``code``/``profile``/...).
    reasons: Dict[str, str]
    #: Functions entering or leaving the WPA hot set (sorted).
    hot_flips: Tuple[str, ...]
    #: Solve-cache replays / fresh solves during the run.
    solve_hits: int
    solve_misses: int
    #: ``hits / lookups`` (1.0 when nothing was looked up).
    solve_reuse: float

    def as_dict(self) -> Dict[str, Any]:
        """The report-layer layout (JSON-able, key order preserved)."""
        return {
            "prior_digest": self.prior_digest,
            "dirty": list(self.dirty),
            "added": list(self.added),
            "deleted": list(self.deleted),
            "reasons": dict(self.reasons),
            "hot_flips": list(self.hot_flips),
            "solve_hits": self.solve_hits,
            "solve_misses": self.solve_misses,
            "solve_reuse": self.solve_reuse,
        }


@dataclass
class PipelineResult:
    """Everything the four phases produced."""

    program: ir.Program
    config: PipelineConfig
    baseline: BuildOutcome
    metadata: BuildOutcome
    optimized: BuildOutcome
    ir_profile: IRProfile
    perf: PerfData
    wpa_result: WPAResult
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Stale-profile matching accounting (``None`` when
    #: ``config.stale_matching == "off"``).
    match_stats: Optional[MatchStats] = None
    #: The re-attached profile the metadata/optimized builds consumed
    #: (``None`` when matching was off; ``ir_profile`` always holds the
    #: profile as trained, i.e. the stale one the baseline used).
    recovered_profile: Optional[IRProfile] = None
    #: Metrics accumulated by the run (cache, scheduler, profile
    #: quality); excluded from :meth:`digest` like all accounting.
    counters: Counters = field(default_factory=Counters)
    #: True when some stage exhausted its fault-retry budget and the
    #: pipeline fell back (empty profile, baseline layout, ...) instead
    #: of failing.  Degradation is honest: the flag and its reasons ride
    #: on the report, and the ``faults.degraded`` counter matches.
    degraded: bool = False
    #: One entry per degraded stage, e.g. ``("lbr-profile",)``.
    degraded_reasons: Tuple[str, ...] = ()
    #: Incremental re-optimization accounting, filled only by
    #: :meth:`PropellerPipeline.reoptimize`: the dirty/added/deleted
    #: function sets, their reasons, hot-set flips and the solve-cache
    #: hit/miss tallies.  Accounting, never content -- excluded from
    #: :meth:`digest` like every other non-artifact field.
    incremental: Optional[IncrementalSummary] = None

    @property
    def pct_hot_objects(self) -> float:
        return self.optimized.hot_modules / max(1, len(self.program.modules))

    def digest(self) -> str:
        """SHA-256 over every artifact the four phases produced.

        Deliberately covers *content only* -- the three binaries and
        the WPA directives -- and excludes all timing and cache-hit
        accounting: the simulated ``workers`` pool and a warm
        persistent cache are allowed to change how fast a result is
        produced (real and simulated), never what is produced.  Equal
        digests therefore mean a cold or warm run of the same
        configuration, on any pool size, built the same binaries.
        """
        h = hashlib.sha256()
        for outcome in (self.baseline, self.metadata, self.optimized):
            h.update(b"\x00X")
            h.update(outcome.executable.content_digest().encode())
        h.update(b"\x00W")
        h.update(self.wpa_result.cc_prof_text.encode())
        h.update(self.wpa_result.ld_prof_text.encode())
        h.update(self.ir_profile.digest().encode())
        return h.hexdigest()

    def frontend_counters_by_function(
        self,
        max_blocks: int = 200_000,
        seed: int = 77,
        params=None,
    ) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Per-function frontend attribution for both binaries.

        One :func:`~repro.hwmodel.measure_frontend` pass per binary with
        the model's per-function accounting enabled: returns
        ``{"baseline": {fn: {...}}, "optimized": {fn: {...}}}`` where
        each function's dict carries the subset of counters the explain
        engine ranks on (``cycles``, ``instructions``, ``l1i_miss``,
        ``itlb_miss``, ``taken_branches``, ``baclears``, ``dsb_miss``).
        Totals are accumulated globally inside the model, so enabling
        attribution never changes the gated scorecard values.
        """
        _, by_function = self._frontend_scorecards(
            True, max_blocks=max_blocks, seed=seed, params=params)
        return by_function

    def _frontend_scorecards(self, by_function: bool, **measure):
        """One frontend pass per binary; scorecard + optional attribution.

        ``measure`` is passed through to
        :func:`~repro.hwmodel.measure_frontend` (its defaults are the
        report's protocol).
        """
        from repro.hwmodel import measure_frontend

        scorecard: Dict[str, Dict[str, float]] = {}
        attribution: Dict[str, Dict[str, Dict[str, float]]] = {}
        for name, outcome in (("baseline", self.baseline),
                              ("optimized", self.optimized)):
            counters = measure_frontend(outcome.executable,
                                        by_function=by_function, **measure)
            scorecard[name] = counters.as_dict()
            if by_function:
                attribution[name] = {
                    func: {
                        "cycles": fc.cycles,
                        "instructions": fc.instructions,
                        "l1i_miss": float(fc.l1i_miss),
                        "itlb_miss": float(fc.itlb_miss),
                        "taken_branches": float(fc.taken_branches),
                        "baclears": float(fc.baclears),
                        "dsb_miss": float(fc.dsb_miss),
                    }
                    for func, fc in counters.per_function.items()
                }
        return scorecard, attribution

    def report(self, include_frontend: bool = False,
               include_attribution: bool = False) -> PipelineReport:
        """The run as a typed, JSON-able :class:`~repro.obs.PipelineReport`.

        This is the supported programmatic surface: :meth:`summary` is
        rendered from it, ``--metrics-out`` serializes it, and its JSON
        layout is schema-versioned.  Everything in it is accounting --
        the artifacts themselves stay on this result object.

        ``include_frontend=True`` additionally simulates the frontend
        model on the baseline and optimized binaries (a real
        measurement, not free) and attaches the hardware-counter
        scorecard as the report's ``frontend`` section.
        ``include_attribution=True`` also fills the report's
        ``frontend_by_function`` section with per-function attribution
        (the input to ``repro-explain``); when both are requested the
        simulation runs once and feeds both sections.
        """
        def build_stat(name: str, outcome: BuildOutcome) -> BuildStat:
            return BuildStat(
                name=name,
                wall_seconds=outcome.wall_seconds,
                backend_seconds=outcome.backends.wall_seconds,
                link_seconds=outcome.link_seconds,
                actions=outcome.backends.actions,
                cache_hits=outcome.backends.cache_hits,
                cold_cache_hits=outcome.cold_cache_hits,
                hot_modules=outcome.hot_modules,
                peak_memory_bytes=max(
                    outcome.backends.peak_action_memory,
                    outcome.link_stats.peak_memory_bytes,
                ),
                binary_size=outcome.executable.total_size,
            )

        phase_peaks = {
            "wpa_convert": self.wpa_result.stats.peak_memory_bytes,
            "lbr_profile_run": self.perf.size_bytes,
            "prop_backends": self.optimized.backends.peak_action_memory,
            "prop_link": self.optimized.link_stats.peak_memory_bytes,
            "opt_build": max(self.baseline.backends.peak_action_memory,
                             self.baseline.link_stats.peak_memory_bytes),
            "metadata_build": max(self.metadata.backends.peak_action_memory,
                                  self.metadata.link_stats.peak_memory_bytes),
        }
        snapshot = self.counters.snapshot()
        frontend: Dict[str, Dict[str, float]] = {}
        frontend_by_function: Dict[str, Dict[str, Dict[str, float]]] = {}
        if include_frontend or include_attribution:
            scorecard, attribution = self._frontend_scorecards(
                include_attribution)
            if include_frontend:
                frontend = scorecard
            frontend_by_function = attribution
        return PipelineReport(
            program=self.program.name,
            modules=len(self.program.modules),
            hot_functions=len(self.wpa_result.hot_functions),
            builds=(
                build_stat("baseline", self.baseline),
                build_stat("metadata", self.metadata),
                build_stat("optimized", self.optimized),
            ),
            phases=tuple(
                PhaseStat(name=name, sim_seconds=seconds,
                          peak_memory_bytes=phase_peaks.get(name, 0))
                for name, seconds in self.phase_seconds.items()
            ),
            counters=snapshot["counters"],
            gauges=snapshot["gauges"],
            frontend=frontend,
            frontend_by_function=frontend_by_function,
            profile_recovery=self.match_stats.as_dict() if self.match_stats else {},
            degraded=self.degraded,
            degraded_reasons=self.degraded_reasons,
            incremental=(self.incremental.as_dict()
                         if self.incremental is not None else {}),
        )

    def summary(self) -> str:
        r = self.report()
        base, meta, opt = r.build("baseline"), r.build("metadata"), r.build("optimized")
        lines = [
            f"program: {r.program}",
            f"modules: {r.modules}  "
            f"hot (re-codegen'd): {opt.hot_modules} "
            f"({100 * r.pct_hot_modules:.0f}%)",
            f"hot functions: {r.hot_functions}",
            f"baseline build: {base.wall_seconds:.2f}s "
            f"(backends {base.backend_seconds:.2f}s, "
            f"link {base.link_seconds:.2f}s)",
            f"propeller phase 4: {opt.wall_seconds:.2f}s "
            f"(backends {opt.backend_seconds:.2f}s, "
            f"relink {opt.link_seconds:.2f}s, "
            f"{opt.cold_cache_hits} cold objects from cache)",
            f"wpa peak memory: {r.phase('wpa_convert').peak_memory_bytes / (1 << 20):.1f} MB",
            f"binary sizes: base {base.binary_size}, "
            f"metadata {meta.binary_size}, "
            f"optimized {opt.binary_size}",
        ]
        if r.profile_recovery:
            rec = r.profile_recovery
            lines.append(
                f"stale matching ({rec['mode']}): match-rate "
                f"{rec['stale_match_rate']:.2f} -> "
                f"{rec['recovered_match_rate']:.2f} "
                f"(exact {rec['matched_exact']}, loose {rec['matched_loose']}, "
                f"inferred {rec['blocks_inferred']}+{rec['edges_inferred']})"
            )
        if r.incremental:
            inc = r.incremental
            lines.append(
                f"incremental: {len(inc['dirty'])} dirty, "
                f"{len(inc['added'])} added, {len(inc['deleted'])} deleted; "
                f"solve reuse {inc['solve_reuse']:.2f} "
                f"({inc['solve_hits']} replayed, {inc['solve_misses']} solved)"
            )
        if r.degraded:
            lines.append(f"DEGRADED: {', '.join(r.degraded_reasons)}")
        return "\n".join(lines)


class PropellerPipeline:
    """Drives Phases 1-4 for one program.

    :param tracer: span sink for this run (see :mod:`repro.obs`).
        ``None`` derives it from ``config.trace``: a fresh recording
        :class:`~repro.obs.Tracer` when tracing is on, the shared no-op
        tracer otherwise.  Counters are always collected; they live on
        the build system (``self.counters``) so externally supplied
        build systems keep their own accounting.
    """

    #: Real processes a run uses: always 1, since every task runs
    #: serially (:mod:`repro.runtime.executor`).  Kept only because the
    #: release benchmark (``releasebench/``) reads and reports it.
    jobs = 1

    def __init__(
        self,
        program: ir.Program,
        config: PipelineConfig = PipelineConfig(),
        buildsys: Optional[BuildSystem] = None,
        tracer: "Optional[Tracer]" = None,
    ):
        self.program = program
        self.config = config
        if tracer is None:
            tracer = Tracer() if config.trace else NULL_TRACER
        self.tracer = tracer
        cache_dir = resolve_cache_dir(config.cache_dir)
        if cache_dir is None and config.state_dir:
            # A state directory is a promise of cross-release reuse, so
            # the action store lives beside the incremental state unless
            # the user pointed it elsewhere.
            cache_dir = Path(config.state_dir) / "actions"
        self.buildsys = buildsys or BuildSystem(
            workers=config.workers,
            ram_limit=config.ram_limit,
            enforce_ram=config.enforce_ram,
            cache_dir=cache_dir,
            fault_plan=FaultPlan.resolve(config.fault_plan),
        )
        self.counters: Counters = self.buildsys.counters
        #: Per-function Ext-TSP solve memoization (see :mod:`repro.incr`).
        #: Persisted under ``state_dir/solves`` when a state directory is
        #: configured, in-memory otherwise; ``None`` when the incremental
        #: engine is off.
        self.solve_cache: "Optional[FunctionSolveCache]" = None
        if config.incremental or config.state_dir:
            solve_root = Path(config.state_dir) / "solves" if config.state_dir else None
            self.solve_cache = FunctionSolveCache(solve_root, counters=self.counters)
        self._digests: Dict[str, str] = {}
        # id -> (options, signature); the options reference keeps the
        # object alive so a recycled id can never alias a stale entry.
        self._option_sigs: Dict[int, Tuple[CodeGenOptions, str]] = {}
        #: Simulated cost of the most recent instrumented training run.
        self._pgo_seconds = 0.0

    # ------------------------------------------------------------------
    # Build helpers

    def _local_action(self, span: str, kind: str, key_parts: List[str],
                      compute) -> Any:
        """Run one cached action on the submitting machine, in a span.

        Profiling, analysis and the final link run outside the
        per-action RAM budget (``remote=False``, §3.5).  The ``span``
        (category ``action``) advances by the action's simulated cost
        and notes whether the cache replayed it.
        """
        with self.tracer.span(span, category="action") as sp:
            action = self.buildsys.run_action(kind, key_parts, compute,
                                              remote=False)
            sp.advance(action.cost_seconds)
            sp.note(cache_hit=action.cache_hit)
        return action

    def _digest(self, module: ir.Module) -> str:
        digest = self._digests.get(module.name)
        if digest is None:
            digest = module_digest(module)
            self._digests[module.name] = digest
        return digest

    def _program_digest(self) -> str:
        """Digest of the whole program (module digests in order)."""
        h = hashlib.sha256()
        for module in self.program.modules:
            h.update(self._digest(module).encode())
        return h.hexdigest()

    def _options_signature(self, options: CodeGenOptions) -> str:
        # Memoized per options object: one shared options instance
        # covers every cold module of a build.
        cached = self._option_sigs.get(id(options))
        if cached is not None and cached[0] is options:
            return cached[1]
        sig = options.cache_signature()
        self._option_sigs[id(options)] = (options, sig)
        return sig

    def build(
        self,
        tag: str,
        codegen_options: CodeGenOptions,
        link_options: LinkOptions,
        per_module_options: Optional[Dict[str, CodeGenOptions]] = None,
        per_module_tags: Optional[Dict[str, str]] = None,
    ) -> BuildOutcome:
        """Compile every module (through the cache) and link.

        All backend actions of one build are independent, so they run
        as a single batch, cache misses in deterministic (module)
        order.  The link is itself an action keyed by the backend
        action keys plus the link options, so a warm cache replays it
        too.
        """
        config = self.config
        items = []
        hot_modules = 0
        hot_names: Set[str] = set()
        for module in self.program.modules:
            options = codegen_options
            module_tag = tag
            if per_module_options is not None and module.name in per_module_options:
                options = per_module_options[module.name]
                module_tag = (per_module_tags or {}).get(module.name, tag)
                hot_modules += 1
                hot_names.add(module.name)
            key_parts = [self._digest(module), module_tag, self._options_signature(options)]
            items.append((
                key_parts,
                compile_action,
                (module, options, config.codegen_fixed_seconds,
                 config.codegen_seconds_per_instr),
            ))
        build_span = self.tracer.span(
            f"build:{link_options.output_name}", category="build", tag=tag
        )
        with build_span:
            with self.tracer.span("codegen-batch", category="batch") as sp:
                actions = self.buildsys.run_batch("codegen", items)
                backends = self.buildsys.schedule(actions)
                sp.advance(backends.wall_seconds)
                sp.note(actions=backends.actions, cache_hits=backends.cache_hits,
                        hot_modules=hot_modules)
            objects: List[ObjectFile] = [result.value.obj for result in actions]
            cold_hits = 0
            if per_module_options is not None:
                cold_hits = sum(
                    1 for module, result in zip(self.program.modules, actions)
                    if result.cache_hit and module.name not in hot_names
                )

            def _link_compute():
                link_result = link(objects, link_options, meter=MemoryMeter())
                seconds = link_result.stats.cost_units * config.link_seconds_per_byte
                return link_result, seconds, link_result.stats.peak_memory_bytes

            # The inputs of the link are exactly the backend outputs (named
            # by their action keys) and the link options.
            inputs = hashlib.sha256("\n".join(a.key for a in actions).encode()).hexdigest()
            link_action = self._local_action(
                "link", "link", [inputs, _link_options_signature(link_options)],
                _link_compute)
        link_result: LinkResult = link_action.value
        return BuildOutcome(
            tag=tag,
            executable=link_result.executable,
            objects=objects,
            backends=backends,
            link_stats=link_result.stats,
            link_seconds=link_action.cost_seconds,
            hot_modules=hot_modules,
            cold_cache_hits=cold_hits,
        )

    # ------------------------------------------------------------------
    # Phases

    def collect_pgo_profile(self) -> IRProfile:
        """Instrumented training run (the first stage of the PGO baseline).

        The run is deterministic in (program, steps, seed, drift), so it
        is itself an action: a warm cache replays the profile instead of
        re-interpreting the program.
        """
        config = self.config

        def _compute():
            profile = collect_ir_profile(
                self.program, max_steps=config.pgo_steps, seed=config.seed
            )
            profile = profile.apply_drift(config.pgo_drift, seed=config.seed)
            return profile, config.pgo_steps * config.profile_seconds_per_branch, 0

        action = self._local_action(
            "pgo-train", "profile-pgo",
            [self._program_digest(), str(config.pgo_steps), str(config.seed),
             float(config.pgo_drift).hex()],
            _compute)
        self._pgo_seconds = action.cost_seconds
        profile: IRProfile = action.value
        # getattr: a persistent-store entry written by an older version
        # may predate the profile-quality fields.
        self.counters.gauge("pgo.match_rate", profile.match_rate)
        self.counters.gauge("pgo.source_entries", getattr(profile, "source_entries", 0))
        self.counters.gauge("pgo.dropped_entries", getattr(profile, "dropped_entries", 0))
        return profile

    def _collect_lbr(self, metadata_exe: Executable) -> Tuple[PerfData, float, str]:
        """Phase 3 profiled run: deterministic in (binary, run length, seed).

        Returns ``(perf, cost_seconds, action_key)``; the key doubles as
        the perf data's content identity for downstream action keys.
        """
        config = self.config

        def _compute():
            trace = generate_trace(
                metadata_exe,
                max_branches=config.lbr_branches,
                seed=config.seed + 1,
                record_blocks=False,
            )
            perf = sample_lbr(trace, period=config.lbr_period, binary_name="metadata.out")
            cost = config.lbr_branches * config.profile_seconds_per_branch
            return perf, cost, perf.size_bytes

        action = self._local_action(
            "lbr-sample", "profile-lbr",
            [metadata_exe.content_digest(), str(config.lbr_branches),
             str(config.lbr_period), str(config.seed + 1)],
            _compute)
        perf: PerfData = action.value
        self.counters.gauge("lbr.samples", perf.num_samples)
        self.counters.gauge("lbr.records", perf.num_records)
        self.counters.gauge("lbr.profile_bytes", perf.size_bytes)
        return perf, action.cost_seconds, action.key

    def _analyze(
        self, metadata_exe: Executable, perf: PerfData, perf_key: str
    ) -> Tuple[WPAResult, float]:
        """Whole-program analysis as a cached action.

        Keyed by the metadata binary, the perf data's producing action
        and the WPA options.
        """
        config = self.config
        tracer = self.tracer
        solve_cache = self.solve_cache

        def _compute():
            wpa_result = wpa_mod.analyze(
                metadata_exe, perf, config.wpa, tracer=tracer, solve_cache=solve_cache,
            )
            cost = wpa_result.stats.cost_units * config.wpa_seconds_per_unit
            return wpa_result, cost, wpa_result.stats.peak_memory_bytes

        action = self._local_action(
            "wpa-analyze", "wpa",
            [metadata_exe.content_digest(), perf_key,
             _wpa_options_signature(config.wpa)],
            _compute)
        wpa_result: WPAResult = action.value
        stats = wpa_result.stats
        self.counters.gauge(
            "lbr.record_coverage",
            1.0 - stats.records_dropped / stats.num_records if stats.num_records else 1.0,
        )
        self.counters.gauge("wpa.hot_functions", stats.hot_functions)
        self.counters.gauge("wpa.dcfg_nodes", stats.dcfg_nodes)
        self.counters.gauge("wpa.dcfg_edges", stats.dcfg_edges)
        self.counters.gauge("wpa.peak_memory_bytes", stats.peak_memory_bytes)
        return wpa_result, action.cost_seconds

    def apply_inlining(self, ir_profile: IRProfile):
        """Phase 1 optimization: profile-guided inlining.

        Replaces the pipeline's program with a transformed copy; every
        later phase (including the profiled run) sees the inlined code,
        while ``ir_profile`` still describes the pre-inlining CFG --
        deliberately, that is the point.
        """
        from repro.ir.passes import clone_program, inline_hot_calls
        from repro.ir.verify import verify_program

        transformed = clone_program(self.program)
        report = inline_hot_calls(transformed, ir_profile)
        verify_program(transformed)
        self.program = transformed
        self._digests.clear()
        return report

    def match_stale_profile(
        self, profile: IRProfile, mode: Optional[str] = None
    ) -> Tuple[IRProfile, MatchStats]:
        """Re-attach ``profile`` to the pipeline's *current* program.

        Runs :func:`repro.profiles.match_profile` in ``mode`` (default:
        ``config.stale_matching``) and records the ``profile.*`` gauges.
        Called by :meth:`run` after profile-guided inlining, so the
        anchors are matched against the CFGs codegen will actually see.
        """
        if mode is None:
            mode = self.config.stale_matching
        if mode not in MATCH_MODES:
            raise ValueError(
                f"unknown stale_matching mode {mode!r}; one of {MATCH_MODES}"
            )
        with self.tracer.span("stale-match", category="action") as sp:
            recovered, stats = match_profile(profile, self.program, mode=mode)
            sp.note(mode=mode, matched_exact=stats.matched_exact,
                    matched_loose=stats.matched_loose)
        for name, value in stats.as_gauges().items():
            self.counters.gauge(name, value)
        return recovered, stats

    def baseline_options(self, profile: IRProfile) -> CodeGenOptions:
        return CodeGenOptions(ir_profile=profile)

    def metadata_options(self, profile: IRProfile) -> CodeGenOptions:
        return CodeGenOptions(ir_profile=profile, bb_addr_map=True)

    def link_options(self, name: str, **overrides) -> LinkOptions:
        """:class:`LinkOptions` for this program, with ``overrides`` applied.

        The public way to derive link options consistent with the
        pipeline's configuration (entry symbol, features, hugepages) --
        what the CLI and examples use to drive :meth:`build` directly.
        """
        base = LinkOptions(
            output_name=name,
            entry_symbol=self.program.entry_function,
            features=self.program.features,
            hugepages=self.config.hugepages,
        )
        return replace(base, **overrides)

    # ------------------------------------------------------------------
    # Execution (whole or partial runs all go through the stage graph)

    def run_stages(
        self,
        *,
        incremental_state: Any = None,
        stop_after: Optional[str] = None,
        resume: Optional[ArtifactSet] = None,
        order: Optional[Sequence[str]] = None,
        observers: Sequence[ExecutionObserver] = (),
    ) -> StageExecution:
        """Execute the pipeline's :class:`~repro.core.stages.StageGraph`.

        The engine underneath :meth:`run` and :meth:`reoptimize`,
        exposed for partial execution: ``stop_after`` runs the named
        stage (``"wpa"``, ...) and the stages it consumes from, the returned
        execution's :meth:`~repro.core.stages.StageExecution.save`
        serializes its artifacts, and a later call with ``resume``
        (an :class:`~repro.core.stages.ArtifactSet`) replays them and
        runs only the remaining stages -- bit-identical to one full
        run.  ``order`` overrides the execution order with any valid
        topological order (artifacts are order-invariant; see
        ``tests/test_stages.py``).
        """
        graph = pipeline_stage_graph(incremental=incremental_state is not None)
        seeds: Dict[str, Any] = {}
        if incremental_state is not None:
            seeds["incr_state"] = incremental_state
        # Digest of the program *as constructed* (pre-inlining), the
        # identity a resumed process can recompute before any stage ran.
        program_digest = self._program_digest()
        if resume is not None:
            expected = resume.meta.get("program")
            if expected is not None and expected != program_digest:
                raise StageGraphError(
                    "resume-mismatch",
                    "resumed artifact set was produced from a different "
                    f"program (digest {expected[:12]}.. != "
                    f"{program_digest[:12]}..)")
            if "prepared_program" in resume.values:
                # The inline stage already ran in the producing process;
                # replay its program transform, not just its artifacts.
                self.program = resume.values["prepared_program"]
                self._digests.clear()
        execution = graph.execute(
            StageContext(self), seeds, stop_after=stop_after,
            resume=resume, order=order, observers=observers)
        execution.artifacts.meta.setdefault("program", program_digest)
        execution.artifacts.meta.setdefault("program_name", self.program.name)
        return execution

    def result_from(self, execution: StageExecution) -> PipelineResult:
        """Assemble the :class:`PipelineResult` of a complete execution."""
        if not execution.complete:
            missing = [s.name for s in execution.graph.stages
                       if s.name not in execution.artifacts.records]
            raise StageGraphError(
                "missing-producer",
                f"execution is partial (stages not run: {missing}); "
                "resume it to completion before assembling a result",
                stage=missing[0])
        value = execution.value
        degraded_reasons = execution.degraded_reasons()
        result = PipelineResult(
            program=self.program,
            config=self.config,
            baseline=value("baseline"),
            metadata=value("metadata"),
            optimized=value("optimized"),
            ir_profile=value("ir_profile"),
            perf=value("perf"),
            wpa_result=value("wpa_result"),
            phase_seconds=execution.phase_seconds(),
            match_stats=value("match_stats"),
            recovered_profile=value("recovered_profile"),
            counters=self.counters,
            degraded=bool(degraded_reasons),
            degraded_reasons=degraded_reasons,
        )
        for observer in execution.observers:
            observer.finalize(result, execution)
        return result

    def run(self) -> PipelineResult:
        """Execute Phases 1-4 and return all artifacts.

        One full pass of :data:`PIPELINE_STAGES` through the stage
        driver (see :mod:`repro.core.stages`), which applies tracing,
        fault degradation and phase accounting uniformly.

        Degradation contract (active only under a ``fault_plan``): an
        exhausted retry budget in profile collection, WPA or the Phase-4
        relink falls back -- empty instrumented profile, baseline
        layout, baseline binary respectively, per the stages' declared
        ``fallback=`` -- and marks the result ``degraded`` with an
        explicit reason.  The product builds (baseline, metadata) have
        nothing to fall back to, so their exhaustion propagates as
        :class:`~repro.faults.RetriesExhausted`.
        """
        return self.result_from(self.run_stages())

    def reoptimize(self, state) -> PipelineResult:
        """Re-run the four phases against a prior release's state.

        ``state`` is the :class:`repro.incr.IncrState` snapshot captured
        from the previous release's :class:`PipelineResult` (or the
        path such a snapshot was saved to).  The method first plans the
        *dirty set* -- functions whose CFG content digest or per-anchor
        profile slice changed since the snapshot -- purely for
        observability, then executes :meth:`run` with the pipeline's
        :class:`~repro.runtime.FunctionSolveCache` active: unchanged
        functions' Ext-TSP solves replay from the cache, dirty ones
        solve fresh.  Correctness never rests on the plan: the solve
        cache is keyed by the exact solver inputs, so the result is
        **bit-identical** to a full rebuild
        (``result.digest() == optimize(edited_program).digest()``) by
        construction, whatever the plan predicted.

        Degradations keep their :meth:`run` semantics: a failed
        profile collection or analysis under a fault plan degrades the
        result honestly (``degraded_reasons``) rather than silently
        replaying stale state.

        The dirty plan, hot-set flips and solve-reuse accounting land
        on ``result.incremental`` (an :class:`IncrementalSummary`), the
        ``incr.*`` counters and the report's ``incremental`` section.

        On the stage graph this is :meth:`run`'s DAG with a prepended
        ``plan-dirty`` stage (the dirty-set planner, whose profile
        pre-collection falls back to an empty profile *silently* --
        the pipeline's own profile stage will degrade honestly if
        collection is truly doomed) and the post-run accounting as an
        :class:`~repro.core.stages.ExecutionObserver` -- no duplicated
        driver.
        """
        from repro import incr as incr_mod

        if isinstance(state, (str, Path)):
            state = incr_mod.IncrState.load(state)
        state.check(self.program.name, self.config)
        execution = self.run_stages(
            incremental_state=state,
            observers=(IncrementalAccounting(self, state),))
        return self.result_from(execution)

    def warm_clusters(
        self,
        profile: IRProfile,
        exclude: Set[str] = frozenset(),
        min_fraction: float = 1e-4,
    ) -> Dict[str, List[List[int]]]:
        """Ext-TSP block clusters for *warm* functions, from IR counts.

        The hardware profile's hot set (``exclude``) already gets WPA
        clusters; this covers the tier below it -- functions whose
        recovered instrumented counts carry at least ``min_fraction``
        of the profile's total weight.  With stale matching on, the
        inferred counts are complete enough for Ext-TSP to lay the
        whole warm tier out; with a raw stale profile the dropout
        zeros starve it (which is the measured difference).
        """
        from repro.core.exttsp import ext_tsp_order, solve_signature

        total = sum(sum(c.values()) for c in profile.blocks.values())
        floor = total * min_fraction
        clusters: Dict[str, List[List[int]]] = {}
        for module in self.program.modules:
            for function in module.functions:
                name = function.name
                if name in exclude:
                    continue
                counts = profile.block_counts(name)
                if not counts or sum(counts.values()) < floor:
                    continue
                entry_id = function.entry.bb_id
                hot_ids = [b.bb_id for b in function.blocks
                           if counts.get(b.bb_id, 0.0) > 0]
                if entry_id not in hot_ids:
                    hot_ids.insert(0, entry_id)
                hot_set = set(hot_ids)
                nodes = {
                    b.bb_id: (len(b.instrs) + 1, counts.get(b.bb_id, 0.0))
                    for b in function.blocks if b.bb_id in hot_set
                }
                edges = [(s, d, w)
                         for (s, d), w in sorted(profile.edge_counts(name).items())
                         if s in hot_set and d in hot_set]
                if self.solve_cache is not None:
                    key = solve_signature(nodes, edges, entry=entry_id)
                    order = self.solve_cache.get(key)
                    if order is None:
                        order = ext_tsp_order(nodes, edges, entry=entry_id)
                        self.solve_cache.put(key, order)
                else:
                    order = ext_tsp_order(nodes, edges, entry=entry_id)
                if not order or order[0] != entry_id:
                    continue  # defensive: the section plan needs entry first
                placed = set(order)
                order = order + [b.bb_id for b in function.blocks
                                 if b.bb_id not in placed]
                clusters[name] = [order]
        return clusters

    def relink(
        self,
        ir_profile: IRProfile,
        wpa_result: WPAResult,
        hot_profile: Optional[IRProfile] = None,
    ) -> BuildOutcome:
        """Phase 4 alone (callable with externally computed directives).

        ``ir_profile`` must be the profile the metadata build consumed,
        so that every cold module's Phase-2 object is a cache hit --
        the economics of the relink (§3.4).  ``hot_profile`` (the
        stale-matching recovery of ``ir_profile``, when enabled) is
        consumed only by re-codegen'd modules: it adds
        :meth:`warm_clusters` for the functions WPA's hot set missed
        and drives the local layout of unclustered functions there.
        """
        hot_funcs = set(wpa_result.clusters)
        extra_clusters: Dict[str, List[List[int]]] = {}
        if hot_profile is not None:
            extra_clusters = self.warm_clusters(hot_profile, exclude=hot_funcs)
        layout_funcs = hot_funcs | set(extra_clusters)
        module_profile = hot_profile if hot_profile is not None else ir_profile
        per_module_options: Dict[str, CodeGenOptions] = {}
        per_module_tags: Dict[str, str] = {}
        for module in self.program.modules:
            module_hot = {f.name for f in module.functions} & layout_funcs
            if not module_hot:
                continue
            clusters = {
                fn: wpa_result.clusters.get(fn) or extra_clusters[fn]
                for fn in module_hot
            }
            prefetches = {
                fn: wpa_result.prefetches[fn]
                for fn in module_hot
                if fn in wpa_result.prefetches
            }
            per_module_options[module.name] = CodeGenOptions(
                ir_profile=module_profile,
                bb_sections=BBSectionsMode.LIST,
                clusters=clusters,
                prefetches=prefetches or None,
            )
            cluster_sig = ";".join(
                f"{fn}:" + "|".join(",".join(map(str, c)) for c in clusters[fn])
                for fn in sorted(clusters)
            ) + "#" + ";".join(
                f"{fn}:{sorted(prefetches[fn])}" for fn in sorted(prefetches)
            )
            sig = zlib.crc32(cluster_sig.encode())
            per_module_tags[module.name] = f"pgo+clusters:{sig:08x}"
        return self.build(
            tag="pgo+map",  # cold modules replay their Phase 2 action
            codegen_options=self.metadata_options(ir_profile),
            link_options=self.link_options(
                "propeller.out",
                # An empty order (degraded/no-directives runs) means "no
                # ordering requested", not "order zero symbols".
                symbol_order=wpa_result.symbol_order or None,
                keep_bb_addr_map=False,
            ),
            per_module_options=per_module_options,
            per_module_tags=per_module_tags,
        )

    def build_bolt_input(self, ir_profile: IRProfile) -> BuildOutcome:
        """The BOLT metadata binary: same objects, linked with --emit-relocs."""
        return self.build(
            tag="pgo+map",
            codegen_options=self.metadata_options(ir_profile),
            link_options=self.link_options(
                "bolt-metadata.out", keep_bb_addr_map=False, emit_relocs=True
            ),
        )


# ----------------------------------------------------------------------
# The pipeline as a stage graph (see :mod:`repro.core.stages`)
#
# Each stage body is a thin adapter from (StageContext, inputs) onto the
# pipeline's public phase methods above; all cross-cutting behaviour --
# the ``phase:*`` spans, degradation on RetriesExhausted, per-stage
# ``phase_seconds`` accounting -- is applied by the stage driver from
# the declarations below, not hand-woven into the bodies.

ART_IR_PROFILE = Artifact[IRProfile]("ir_profile")
ART_PREPARED = Artifact[ir.Program]("prepared_program")
ART_BASELINE = Artifact[BuildOutcome]("baseline")
#: ``Optional[IRProfile]`` / ``Optional[MatchStats]`` -- ``object``
#: (the type escape hatch) because ``None`` is a legal value.
ART_RECOVERED = Artifact("recovered_profile")
ART_MATCH_STATS = Artifact("match_stats")
ART_METADATA = Artifact[BuildOutcome]("metadata")
ART_PERF = Artifact[PerfData]("perf")
ART_PERF_KEY = Artifact[str]("perf_key")
ART_WPA = Artifact[WPAResult]("wpa_result")
ART_OPTIMIZED = Artifact[BuildOutcome]("optimized")
#: Seed for the incremental graph: the prior release's ``IncrState``.
ART_INCR_STATE = Artifact("incr_state")
#: ``repro.incr.DirtyPlan`` (``object``: :mod:`repro.incr` imports this
#: module, so the type cannot be named here).
ART_DIRTY_PLAN = Artifact("dirty_plan")


def _stage_pgo_profile(ctx: StageContext, inputs) -> Dict[str, Any]:
    profile = ctx.pipeline.collect_pgo_profile()
    ctx.time("pgo_profile_run", ctx.pipeline._pgo_seconds)
    return {"ir_profile": profile}


def _pgo_profile_fallback(ctx: StageContext, inputs) -> Dict[str, Any]:
    # Instrumented training kept crashing: proceed un-PGO'd.
    ctx.pipeline._pgo_seconds = 0.0
    ctx.time("pgo_profile_run", 0.0)
    return {"ir_profile": IRProfile()}


def _stage_inline(ctx: StageContext, inputs) -> Dict[str, Any]:
    pipeline = ctx.pipeline
    if pipeline.config.inline_hot:
        pipeline.apply_inlining(inputs["ir_profile"])
    return {"prepared_program": pipeline.program}


def _stage_baseline_build(ctx: StageContext, inputs) -> Dict[str, Any]:
    pipeline = ctx.pipeline
    baseline = pipeline.build(
        tag="pgo",
        codegen_options=pipeline.baseline_options(inputs["ir_profile"]),
        link_options=pipeline.link_options("base.out", keep_bb_addr_map=False),
    )
    ctx.time("pgo_instrumented_build",
             baseline.wall_seconds * INSTRUMENTED_BUILD_FACTOR)
    ctx.time("opt_build", baseline.wall_seconds)
    return {"baseline": baseline}


def _stage_stale_match(ctx: StageContext, inputs) -> Dict[str, Any]:
    pipeline = ctx.pipeline
    if pipeline.config.stale_matching == "off":
        return {"recovered_profile": None, "match_stats": None}
    recovered, stats = pipeline.match_stale_profile(inputs["ir_profile"])
    return {"recovered_profile": recovered, "match_stats": stats}


def _stage_metadata_build(ctx: StageContext, inputs) -> Dict[str, Any]:
    pipeline = ctx.pipeline
    metadata = pipeline.build(
        tag="pgo+map",
        codegen_options=pipeline.metadata_options(inputs["ir_profile"]),
        link_options=pipeline.link_options("metadata.out",
                                           keep_bb_addr_map=True),
    )
    ctx.time("metadata_build", metadata.wall_seconds)
    return {"metadata": metadata}


def _stage_lbr_profile(ctx: StageContext, inputs) -> Dict[str, Any]:
    perf, seconds, key = ctx.pipeline._collect_lbr(
        inputs["metadata"].executable)
    ctx.time("lbr_profile_run", seconds)
    return {"perf": perf, "perf_key": key}


def _lbr_profile_fallback(ctx: StageContext, inputs) -> Dict[str, Any]:
    ctx.time("lbr_profile_run", 0.0)
    return {
        "perf": PerfData(samples=[], period=ctx.config.lbr_period,
                         binary_name="metadata.out"),
        "perf_key": "",
    }


def _stage_wpa(ctx: StageContext, inputs) -> Dict[str, Any]:
    wpa_result, seconds = ctx.pipeline._analyze(
        inputs["metadata"].executable, inputs["perf"], inputs["perf_key"])
    ctx.time("wpa_convert", seconds)
    return {"wpa_result": wpa_result}


def _wpa_fallback(ctx: StageContext, inputs) -> Dict[str, Any]:
    ctx.time("wpa_convert", 0.0)
    return {"wpa_result": empty_wpa_result()}


def _stage_relink(ctx: StageContext, inputs) -> Dict[str, Any]:
    optimized = ctx.pipeline.relink(
        inputs["ir_profile"], inputs["wpa_result"],
        hot_profile=inputs["recovered_profile"])
    ctx.time("prop_backends", optimized.backends.wall_seconds)
    ctx.time("prop_link", optimized.link_seconds)
    return {"optimized": optimized}


def _relink_fallback(ctx: StageContext, inputs) -> Dict[str, Any]:
    # The relink itself exhausted its budget: ship the baseline.
    baseline = inputs["baseline"]
    ctx.time("prop_backends", baseline.backends.wall_seconds)
    ctx.time("prop_link", baseline.link_seconds)
    return {"optimized": baseline}


def _plan_against(ctx: StageContext, state: Any, profile: IRProfile):
    from repro import incr as incr_mod

    plan = incr_mod.plan_dirty(state, ctx.pipeline.program, profile)
    ctx.counters.incr("incr.dirty_functions", len(plan.dirty))
    ctx.counters.incr("incr.added_functions", len(plan.added))
    ctx.counters.incr("incr.deleted_functions", len(plan.deleted))
    ctx.counters.incr(
        "incr.clean_functions",
        max(0, ctx.pipeline.program.num_functions
            - len(plan.dirty) - len(plan.added)),
    )
    return {"dirty_plan": plan}


def _stage_plan_dirty(ctx: StageContext, inputs) -> Dict[str, Any]:
    # Plan the dirty set against the *new* profile epoch.  The
    # pre-collection is itself a cached action, so the pgo-profile
    # stage replays it for free.
    return _plan_against(ctx, inputs["incr_state"],
                         ctx.pipeline.collect_pgo_profile())


def _plan_dirty_fallback(ctx: StageContext, inputs) -> Dict[str, Any]:
    # Collection is doomed under the fault plan: plan against an empty
    # profile.  Silent (degrades=False) -- the pgo-profile stage will
    # degrade the run honestly, once, with the right reason.
    return _plan_against(ctx, inputs["incr_state"], IRProfile())


#: The Propeller DAG, in canonical (registration) order.  Stage names
#: double as degradation reasons (``degraded_reasons`` entries and
#: ``degraded:*`` span names), so they are part of the pinned
#: observability surface -- do not rename casually.
PIPELINE_STAGES: Tuple[Stage, ...] = (
    Stage(
        name="pgo-profile",
        run=_stage_pgo_profile,
        outputs=(ART_IR_PROFILE,),
        phase="baseline",
        fallback=Fallback(_pgo_profile_fallback,
                          doc="empty instrumented profile (un-PGO'd run)"),
        time_keys=("pgo_profile_run",),
        doc="Instrumented PGO training run (cached action).",
    ),
    Stage(
        name="inline",
        run=_stage_inline,
        inputs=(ART_IR_PROFILE,),
        outputs=(ART_PREPARED,),
        phase="baseline",
        doc="Profile-guided inlining (when configured); fixes the "
            "program every build stage codegens.",
    ),
    Stage(
        name="baseline-build",
        run=_stage_baseline_build,
        inputs=(ART_IR_PROFILE, ART_PREPARED),
        outputs=(ART_BASELINE,),
        phase="baseline",
        time_keys=("pgo_instrumented_build", "opt_build"),
        doc="The PGO baseline build (status-quo deployment; consumes "
            "the profile as trained, stale and all).",
    ),
    Stage(
        name="stale-match",
        run=_stage_stale_match,
        inputs=(ART_IR_PROFILE, ART_PREPARED),
        outputs=(ART_RECOVERED, ART_MATCH_STATS),
        doc="Stale-profile matching: re-attach the drifted profile to "
            "the current CFGs (no-op when mode is 'off').",
    ),
    Stage(
        name="metadata-build",
        run=_stage_metadata_build,
        inputs=(ART_IR_PROFILE, ART_PREPARED),
        outputs=(ART_METADATA,),
        phase="metadata-build",
        time_keys=("metadata_build",),
        doc="Phases 1-2: the BB-address-map metadata build.",
    ),
    Stage(
        name="lbr-profile",
        run=_stage_lbr_profile,
        inputs=(ART_METADATA,),
        outputs=(ART_PERF, ART_PERF_KEY),
        phase="profile",
        fallback=Fallback(_lbr_profile_fallback,
                          doc="empty perf data (no hardware profile)"),
        time_keys=("lbr_profile_run",),
        doc="Phase 3 sampling: run the metadata binary, sample LBR.",
    ),
    Stage(
        name="wpa",
        run=_stage_wpa,
        inputs=(ART_METADATA, ART_PERF, ART_PERF_KEY),
        outputs=(ART_WPA,),
        phase="wpa",
        fallback=Fallback(_wpa_fallback,
                          doc="no layout directives (baseline layout)"),
        # No hardware profile was collected: nothing to analyze.  The
        # skip is silent -- the run is already degraded by lbr-profile.
        skip_if_degraded=("lbr-profile",),
        time_keys=("wpa_convert",),
        doc="Phase 3 analysis: whole-program analysis into "
            "cc_prof/ld_prof layout directives.",
    ),
    Stage(
        name="relink",
        run=_stage_relink,
        inputs=(ART_IR_PROFILE, ART_PREPARED, ART_WPA, ART_RECOVERED,
                ART_BASELINE),
        outputs=(ART_OPTIMIZED,),
        phase="relink",
        fallback=Fallback(_relink_fallback,
                          doc="ship the baseline binary"),
        time_keys=("prop_backends", "prop_link"),
        doc="Phase 4: re-codegen hot modules with clusters, reuse cold "
            "objects from cache, relink with the global symbol order.",
    ),
)

#: The extra stage :meth:`PropellerPipeline.reoptimize` prepends.
PLAN_DIRTY_STAGE = Stage(
    name="plan-dirty",
    run=_stage_plan_dirty,
    inputs=(ART_INCR_STATE,),
    outputs=(ART_DIRTY_PLAN,),
    fallback=Fallback(_plan_dirty_fallback, degrades=False,
                      doc="plan against an empty profile"),
    doc="Incremental dirty-set planning against the prior release's "
        "state snapshot (observability only; correctness rests on the "
        "content-keyed solve cache).",
)

_GRAPH_CACHE: Dict[bool, StageGraph] = {}


def pipeline_stage_graph(incremental: bool = False) -> StageGraph:
    """The validated Propeller :class:`~repro.core.stages.StageGraph`.

    One definition serves both entry points: ``incremental=True`` is
    the same DAG with :data:`PLAN_DIRTY_STAGE` prepended and the prior
    release's state as a seed artifact.  Stages are stateless (all
    run state lives on the :class:`~repro.core.stages.StageContext`'s
    pipeline), so the graphs are built once and shared.
    """
    graph = _GRAPH_CACHE.get(incremental)
    if graph is None:
        if incremental:
            graph = StageGraph((PLAN_DIRTY_STAGE,) + PIPELINE_STAGES,
                               seeds=(ART_INCR_STATE,))
        else:
            graph = StageGraph(PIPELINE_STAGES)
        _GRAPH_CACHE[incremental] = graph
    return graph


class IncrementalAccounting(ExecutionObserver):
    """Post-run incremental accounting as a driver observer.

    Folds the executed ``plan-dirty`` plan, the WPA hot-set churn and
    the solve-cache tallies into the ``incr.*`` counters and the
    result's :class:`IncrementalSummary` -- the half of
    ``reoptimize()`` that needs the whole run, kept out of the driver.
    """

    def __init__(self, pipeline: "PropellerPipeline", state: Any):
        self.pipeline = pipeline
        self.state = state

    def finalize(self, result: PipelineResult,
                 execution: StageExecution) -> None:
        plan = execution.value("dirty_plan")
        counters = self.pipeline.counters
        new_hot = set(result.wpa_result.hot_functions)
        old_hot = {n for n, fs in self.state.functions.items() if fs.hot}
        hot_flips = sorted(new_hot.symmetric_difference(old_hot))
        counters.incr("incr.hot_flips", len(hot_flips))
        cache = self.pipeline.solve_cache
        hits = cache.hits if cache is not None else 0
        misses = cache.misses if cache is not None else 0
        reuse = cache.reuse_rate if cache is not None else 1.0
        counters.gauge("incr.solve_reuse", reuse)
        result.incremental = IncrementalSummary(
            prior_digest=self.state.result_digest,
            dirty=tuple(sorted(plan.dirty)),
            added=tuple(sorted(plan.added)),
            deleted=tuple(sorted(plan.deleted)),
            reasons={name: reason for name, reason in plan.reasons.items()},
            hot_flips=tuple(hot_flips),
            solve_hits=hits,
            solve_misses=misses,
            solve_reuse=reuse,
        )


def optimize(
    program: ir.Program,
    config: PipelineConfig = PipelineConfig(),
    seed: Optional[int] = None,
) -> PipelineResult:
    """One-call Propeller: run all four phases on ``program``."""
    if seed is not None:
        config = replace(config, seed=seed)
    return PropellerPipeline(program, config).run()
