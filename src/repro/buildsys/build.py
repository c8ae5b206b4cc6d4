"""Content-addressed action execution: the distributed build's cache.

The paper's build environment (§2.1) executes every compiler and linker
invocation as an *action* on a remote worker pool, keyed by the content
digest of its inputs.  Two properties of that system carry the whole
scalability argument:

* **Action caching.**  An action whose key was seen before is never
  re-executed; its outputs are fetched from the content-addressed store
  at a small fixed cost (:data:`CACHE_HIT_SECONDS`).  Phase 4's cheap
  relink (Fig. 9, Table 5) is exactly this: cold objects replay their
  Phase-2 action, only hot modules pay for a real backend run.
* **Per-action resource limits.**  Remote workers are multi-tenant, so
  each action must fit a fixed RAM budget (12 GB in the paper, §3.5).
  Propeller's per-module actions fit; a monolithic BOLT-style
  whole-binary rewrite does not and is rejected
  (:class:`ResourceLimitExceeded`) -- it can only run on a dedicated
  workstation outside the trusted build environment (§5.8).

Costs are simulated seconds supplied by each action's ``compute``
callable; nothing here consults the real clock.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.faults import FaultClock, FaultPlan, RetriesExhausted
from repro.obs import Counters
from repro.runtime import PersistentActionStore, resolve_cache_dir
from repro.runtime.executor import shared_executor

#: Simulated cost of replaying a cached action: fetching the stored
#: outputs from the content-addressed store instead of re-executing.
#: Small relative to any real backend run (compare the pipeline's
#: ``codegen_fixed_seconds``), which is what makes warm relinks cheap.
CACHE_HIT_SECONDS = 0.05


def action_key(kind: str, *parts: str) -> str:
    """Stable content-addressed key for an action.

    The ``kind`` (mnemonic: which tool runs -- ``codegen``, ``link``,
    ``llvm-bolt``) is part of the key, so two tools reading the same
    inputs never collide.  Parts are length-prefixed before hashing so
    the key is injective over part *boundaries*:
    ``action_key("k", "a", "b") != action_key("k", "ab")``.
    """
    h = hashlib.sha256()
    for part in (kind, *parts):
        data = str(part).encode("utf-8")
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


class ResourceLimitExceeded(Exception):
    """A remote action's modelled peak memory exceeds the worker budget.

    Carries the sizes so callers (and Table 5 / §5.8 narratives) can
    report how far over budget the action was.
    """

    def __init__(self, kind: str, needed: int, limit: int):
        self.kind = kind
        self.needed = needed
        self.limit = limit
        super().__init__(
            f"action '{kind}' needs {needed} bytes of RAM but remote "
            f"workers are limited to {limit} bytes per action"
        )


@dataclass(frozen=True)
class ActionResult:
    """One executed (or replayed) action, as seen by the caller."""

    #: The action's output artifact (e.g. a ``CompiledObject``).
    value: Any
    #: Simulated seconds this execution cost -- the real compute cost
    #: on a miss, :data:`CACHE_HIT_SECONDS` on a hit.
    cost_seconds: float
    #: Modelled peak RAM of the action that produced the artifact.
    peak_memory: int
    #: Whether the result was replayed from the action cache.
    cache_hit: bool
    #: The content-addressed key (see :func:`action_key`).
    key: str
    #: Action kind, kept for reporting.
    kind: str = ""


@dataclass
class CacheStats:
    """Running hit/miss counters for one :class:`ActionCache`."""

    hits: int = 0
    misses: int = 0
    #: Subset of ``hits`` that were replayed from the persistent
    #: on-disk store rather than process memory.
    disk_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass(frozen=True)
class _CacheEntry:
    value: Any
    cost_seconds: float
    peak_memory: int


class ActionCache:
    """Content-addressed store of completed action outputs.

    Optionally backed by a :class:`~repro.runtime.PersistentActionStore`:
    a key missing from process memory is then looked up on disk, and
    every stored entry is also written through to disk, so later
    *processes* replay this run's actions the way later *phases* replay
    earlier ones.  Disk hits are digest-verified by the store: an
    unreadable, truncated or poisoned entry is quarantined and degrades
    to a miss, so cache poisoning can cost a recompute but never
    changes an artifact.
    """

    def __init__(
        self,
        store: Optional[PersistentActionStore] = None,
        counters: Optional[Counters] = None,
    ) -> None:
        self._entries: Dict[str, _CacheEntry] = {}
        self._store = store
        self.stats = CacheStats()
        #: Metrics sink; mirrors :attr:`stats` under ``cache.*`` names
        #: so pipeline reports see cache behaviour without reaching in.
        self.counters = counters if counters is not None else Counters()

    @property
    def persistent_store(self) -> Optional[PersistentActionStore]:
        return self._store

    def __contains__(self, key: str) -> bool:
        return key in self._entries or (self._store is not None and key in self._store)

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str) -> "_CacheEntry | None":
        entry = self._entries.get(key)
        if entry is None and self._store is not None:
            disk = self._store.load(key)
            if isinstance(disk, _CacheEntry):
                self._entries[key] = disk
                self.stats.disk_hits += 1
                self.counters.incr("cache.disk_hits")
                entry = disk
        if entry is None:
            self.stats.misses += 1
            self.counters.incr("cache.misses")
        else:
            self.stats.hits += 1
            self.counters.incr("cache.hits")
        return entry

    def store(self, key: str, entry: _CacheEntry) -> None:
        self._entries[key] = entry
        if self._store is not None:
            self._store.store(key, entry)

    def evict_all(self) -> None:
        """Drop every artifact stored in memory *and* on disk
        (counters are preserved)."""
        self._entries.clear()
        if self._store is not None:
            self._store.clear()


class BuildSystem:
    """The distributed build: cache + worker pool + resource policy.

    :param workers: size of the remote worker pool the makespan model
        divides work across.  72 models the paper's workstation
        comparison point; production pools are effectively unbounded
        (the pipeline defaults to 1000).
    :param ram_limit: per-action RAM budget on remote workers (the
        paper's environment enforces 12 GB, §3.5).
    :param enforce_ram: when False, model a dedicated workstation with
        no per-action budget (how the paper runs BOLT at all, §5.8).
    :param cache_dir: when given, back the action cache with a
        persistent on-disk store rooted there, so a later process with
        identical action inputs replays this run's outputs.  ``None``
        (the default) keeps the cache in-memory only.
    :param counters: metrics sink shared with the cache, the store and
        the scheduler; a fresh :class:`~repro.obs.Counters` by default.
    :param fault_plan: when given, executed actions are subject to the
        plan's deterministic failure/timeout/corruption/slowdown
        schedule (see :mod:`repro.faults`): faulted attempts are
        retried with exponential backoff up to the plan's budget, the
        wasted simulated time lands on the action's ``cost_seconds``,
        and an action whose whole budget faults raises
        :class:`~repro.faults.RetriesExhausted`.  Artifacts and cache
        state are plan-invariant by construction -- the compute runs
        once and the cache stores the clean cost.
    """

    def __init__(
        self,
        workers: int = 72,
        ram_limit: int = 12 << 30,
        enforce_ram: bool = True,
        cache_dir: "Optional[str | os.PathLike]" = None,
        counters: Optional[Counters] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.ram_limit = ram_limit
        self.enforce_ram = enforce_ram
        self.counters = counters if counters is not None else Counters()
        self.fault_plan = fault_plan
        #: Simulated-time ledger of injected faults and retries (free
        #: pass-through when no plan is set).
        self.faults = FaultClock(fault_plan, counters=self.counters)
        store = (
            PersistentActionStore(cache_dir, counters=self.counters)
            if cache_dir is not None else None
        )
        self.cache = ActionCache(store=store, counters=self.counters)

    # -- cache passthroughs -------------------------------------------

    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    def __contains__(self, key: str) -> bool:
        return key in self.cache

    def evict_all(self) -> None:
        self.cache.evict_all()

    # -- execution ----------------------------------------------------

    def _charge_faults(self, kind: str, key: str, cost_seconds: float) -> float:
        """The fault-adjusted simulated cost of one executed action.

        Cache hits never come here: faults model remote *execution*,
        and the disk store's own digest verification covers the
        fetch-integrity side (see :mod:`repro.runtime.cache`).
        """
        ledger = self.faults.charge(kind, key, cost_seconds)
        if not ledger.ok:
            raise RetriesExhausted(kind=kind, key=key,
                                   attempts=ledger.attempts,
                                   events=ledger.events)
        return ledger.seconds

    def run_action(
        self,
        kind: str,
        key_parts: Iterable[str],
        compute: Callable[[], Tuple[Any, float, int]],
        remote: bool = True,
    ) -> ActionResult:
        """Execute one action through the cache.

        ``compute`` returns ``(value, cost_seconds, peak_memory)`` and
        runs only on a cache miss.  Remote actions (the default) are
        subject to the per-action RAM budget; ``remote=False`` models a
        step pinned to the submitting machine (e.g. the final link on
        a beefy dedicated host), which bypasses it.
        """
        key = action_key(kind, *key_parts)
        entry = self.cache.lookup(key)
        if entry is not None:
            return ActionResult(
                value=entry.value,
                cost_seconds=CACHE_HIT_SECONDS,
                peak_memory=entry.peak_memory,
                cache_hit=True,
                key=key,
                kind=kind,
            )
        value, cost_seconds, peak_memory = compute()
        if remote and self.enforce_ram and peak_memory > self.ram_limit:
            self.counters.incr("ram.rejections")
            raise ResourceLimitExceeded(kind, needed=peak_memory, limit=self.ram_limit)
        # Faults inflate the executed cost; the cache stores the clean
        # cost so a warm replay of a once-faulted action is unaffected.
        charged_seconds = self._charge_faults(kind, key, cost_seconds)
        self.cache.store(
            key, _CacheEntry(value=value, cost_seconds=cost_seconds,
                             peak_memory=peak_memory)
        )
        return ActionResult(
            value=value,
            cost_seconds=charged_seconds,
            peak_memory=peak_memory,
            cache_hit=False,
            key=key,
            kind=kind,
        )

    def run_batch(
        self,
        kind: str,
        items: "Sequence[Tuple[Sequence[str], Callable[..., Tuple[Any, float, int]], tuple]]",
        remote: bool = True,
    ) -> List[ActionResult]:
        """Execute a batch of independent same-kind actions through the
        cache, running the misses through the shared executor.

        Each item is ``(key_parts, fn, args)`` where ``fn(*args)``
        returns the usual ``(value, cost_seconds, peak_memory)`` triple
        and must be pure.  Results are returned in item order, and
        cache lookups and stores happen in item order.
        """
        keys = [action_key(kind, *key_parts) for key_parts, _fn, _args in items]
        entries = [self.cache.lookup(key) for key in keys]
        miss_idx = [i for i, entry in enumerate(entries) if entry is None]
        self.counters.incr("executor.batches")
        self.counters.incr("executor.batch_tasks", len(items))
        self.counters.incr("executor.batch_misses", len(miss_idx))
        self.counters.max_gauge("executor.max_queue_depth", len(miss_idx))
        charged: Dict[int, float] = {}
        if miss_idx:
            tasks = [(items[i][1], items[i][2]) for i in miss_idx]
            computed = shared_executor().map(_call_compute, tasks)
            for i, (value, cost_seconds, peak_memory) in zip(miss_idx, computed):
                if remote and self.enforce_ram and peak_memory > self.ram_limit:
                    self.counters.incr("ram.rejections")
                    raise ResourceLimitExceeded(
                        kind, needed=peak_memory, limit=self.ram_limit
                    )
                # Fault charges are drawn per action *digest*, never per
                # schedule slot, so they do not depend on how the
                # simulated pool orders the batch.
                charged[i] = self._charge_faults(kind, keys[i], cost_seconds)
                entry = _CacheEntry(
                    value=value, cost_seconds=cost_seconds, peak_memory=peak_memory
                )
                self.cache.store(keys[i], entry)
                entries[i] = entry
        miss_set = set(miss_idx)
        results: List[ActionResult] = []
        for i, entry in enumerate(entries):
            hit = i not in miss_set
            results.append(
                ActionResult(
                    value=entry.value,
                    cost_seconds=CACHE_HIT_SECONDS if hit else charged[i],
                    peak_memory=entry.peak_memory,
                    cache_hit=hit,
                    key=keys[i],
                    kind=kind,
                )
            )
        return results

    def schedule(self, actions: "Iterable[ActionResult]") -> "PhaseReport":
        """Makespan of one build phase over this system's worker pool.

        See :func:`repro.buildsys.scheduler.schedule_phase`.
        """
        from repro.buildsys.scheduler import schedule_phase

        return schedule_phase(actions, workers=self.workers, counters=self.counters)


def _call_compute(fn: Callable[..., Tuple[Any, float, int]], args: tuple):
    """Applies one batch task: the executor maps a single callable."""
    return fn(*args)
