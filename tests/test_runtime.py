"""Tests for the execution layer: serial executor + persistent action cache.

The invariant under test throughout is the determinism contract: a
warm persistent cache may change how fast a result is produced, never
what is produced.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.buildsys import BuildSystem
from repro.buildsys.build import ActionCache, ResourceLimitExceeded, _CacheEntry
from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.runtime import (
    CACHE_DIR_ENV,
    ParallelExecutor,
    PersistentActionStore,
    resolve_cache_dir,
)
from repro.runtime.executor import shared_executor


def _square(x):
    return x * x


def _compute_pair(a, b):
    """Batch compute fn: (value, cost_seconds, peak_memory)."""
    return a + b, float(a), b


class TestParallelExecutor:
    def test_serial_runs_inline(self):
        ex = shared_executor()
        assert isinstance(ex, ParallelExecutor) and shared_executor(8) is ex
        assert ex.map(_square, [(i,) for i in range(20)]) == [i * i for i in range(20)]
        calls = []

        def task(x):
            calls.append(x)
            if x == 2:
                raise KeyError("task failed")
            return x

        # A task's exception propagates unchanged and stops the batch.
        with pytest.raises(KeyError, match="task failed"):
            ex.map(task, [(i,) for i in range(5)])
        assert calls == [0, 1, 2]


class TestPersistentStore:
    def test_roundtrip(self, tmp_path):
        store = PersistentActionStore(tmp_path)
        key = "ab" * 32
        assert store.load(key) is None
        store.store(key, {"answer": 42})
        assert key in store
        assert store.load(key) == {"answer": 42}
        assert len(store) == 1

    def test_rejects_non_digest_keys(self, tmp_path):
        store = PersistentActionStore(tmp_path)
        with pytest.raises(ValueError):
            store.store("../escape", 1)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = PersistentActionStore(tmp_path)
        key = "cd" * 32
        store.store(key, [1, 2, 3])
        path = store._path(key)
        path.write_bytes(b"not a pickle")
        assert store.load(key) is None

    def test_clear(self, tmp_path):
        store = PersistentActionStore(tmp_path)
        store.store("ef" * 32, 1)
        store.clear()
        assert len(store) == 0

    def test_resolve_cache_dir_precedence(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert resolve_cache_dir(None) is None
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_cache_dir(None) == tmp_path / "env"
        assert resolve_cache_dir(tmp_path / "explicit") == tmp_path / "explicit"


class TestActionCacheWithDisk:
    def test_disk_hit_survives_new_cache(self, tmp_path):
        store = PersistentActionStore(tmp_path)
        first = ActionCache(store=store)
        first.store("11" * 32, _CacheEntry(value="artifact", cost_seconds=2.0, peak_memory=10))
        # A brand-new in-memory cache over the same store sees the entry.
        second = ActionCache(store=store)
        entry = second.lookup("11" * 32)
        assert entry is not None and entry.value == "artifact"
        assert second.stats.hits == 1 and second.stats.disk_hits == 1

    def test_evict_all_clears_disk(self, tmp_path):
        store = PersistentActionStore(tmp_path)
        cache = ActionCache(store=store)
        cache.store("22" * 32, _CacheEntry(value=1, cost_seconds=1.0, peak_memory=0))
        cache.evict_all()
        assert ActionCache(store=store).lookup("22" * 32) is None


class TestRunBatch:
    def _items(self, n):
        return [([f"k{i}"], _compute_pair, (i, i + 1)) for i in range(n)]

    def test_second_batch_hits(self):
        bs = BuildSystem(workers=4, enforce_ram=False)
        first = bs.run_batch("t", self._items(4))
        assert [r.value for r in first] == [2 * i + 1 for i in range(4)]
        assert not any(r.cache_hit for r in first)
        again = bs.run_batch("t", self._items(4))
        assert all(r.cache_hit for r in again)

    def test_ram_limit_enforced(self):
        bs = BuildSystem(workers=4, ram_limit=5, enforce_ram=True)
        with pytest.raises(ResourceLimitExceeded):
            bs.run_batch("t", [(["big"], _compute_pair, (1, 10))])


@pytest.fixture(scope="module")
def micro_program():
    """Smallest workload that still has several modules and hot functions."""
    from repro.synth import PRESETS, generate_workload

    return generate_workload(PRESETS["531.deepsjeng"], scale=0.15, seed=7)


class TestPipelineDeterminism:
    """Tier-1 smoke of the acceptance invariants (micro workload)."""

    def _config(self, **kw):
        return PipelineConfig(
            seed=7, lbr_branches=24_000, lbr_period=31, pgo_steps=10_000,
            workers=72, enforce_ram=False, **kw,
        )

    def test_run_starts_no_processes(self, micro_program):
        PropellerPipeline(micro_program, self._config()).run()
        assert multiprocessing.active_children() == []

    def test_warm_cache_same_digest_less_simulated_time(self, micro_program, tmp_path):
        cfg = self._config(cache_dir=str(tmp_path))
        cold = PropellerPipeline(micro_program, cfg).run()
        warm = PropellerPipeline(micro_program, cfg).run()
        assert cold.digest() == warm.digest()
        # Only the recorded wall-clock may change -- and it must drop.
        assert sum(warm.phase_seconds.values()) < sum(cold.phase_seconds.values())
        # Every artifact of the warm run was replayed from disk.
        assert warm.optimized.backends.cache_hits > 0

    def test_cache_dir_env_var(self, micro_program, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        pipe = PropellerPipeline(micro_program, self._config())
        store = pipe.buildsys.cache.persistent_store
        assert store is not None and store.root == tmp_path


def test_cache_entry_pickles():
    entry = _CacheEntry(value=(1, "x"), cost_seconds=0.5, peak_memory=7)
    assert pickle.loads(pickle.dumps(entry)) == entry


# ----------------------------------------------------------------------
# Poisoning defense: every malformed on-disk entry is a quarantined
# miss, never a crash and never a replayed artifact.

class TestStoreQuarantine:
    KEY = "ab" * 32

    def _store_with(self, tmp_path, value):
        store = PersistentActionStore(tmp_path)
        store.store(self.KEY, value)
        return store, store._path(self.KEY)

    def test_truncated_entry_is_quarantined_miss(self, tmp_path):
        store, path = self._store_with(tmp_path, list(range(100)))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 5])
        assert store.load(self.KEY) is None
        assert store.quarantined == 1
        assert self.KEY not in store  # moved aside, not replayable

    def test_header_only_entry_is_quarantined_miss(self, tmp_path):
        store, path = self._store_with(tmp_path, "x")
        from repro.runtime.cache import _MAGIC

        path.write_bytes(_MAGIC)  # magic with no digest/payload
        assert store.load(self.KEY) is None
        assert store.quarantined == 1

    def test_flipped_payload_bit_is_quarantined_miss(self, tmp_path):
        store, path = self._store_with(tmp_path, b"artifact bytes")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        assert store.load(self.KEY) is None
        assert store.quarantined == 1

    def test_legacy_format_is_quarantined_miss(self, tmp_path):
        store, path = self._store_with(tmp_path, 1)
        # A pre-envelope (v1-era) entry: a bare pickle.
        path.write_bytes(pickle.dumps({"old": "format"}))
        assert store.load(self.KEY) is None
        assert store.quarantined == 1

    def test_verified_but_unpicklable_is_quarantined_miss(self, tmp_path):
        import hashlib

        from repro.runtime.cache import _MAGIC

        store = PersistentActionStore(tmp_path)
        path = store._path(self.KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = b"this is not a pickle"
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        path.write_bytes(_MAGIC + digest + b"\n" + payload)
        assert store.load(self.KEY) is None
        assert store.quarantined == 1

    def test_quarantined_file_is_kept_for_inspection(self, tmp_path):
        store, path = self._store_with(tmp_path, 42)
        path.write_bytes(b"garbage")
        store.load(self.KEY)
        moved = list((store.root / "quarantine").iterdir())
        assert len(moved) == 1
        assert moved[0].name.startswith(path.name)

    def test_quarantine_excluded_from_len_and_clear(self, tmp_path):
        store, path = self._store_with(tmp_path, 42)
        path.write_bytes(b"garbage")
        store.load(self.KEY)
        assert len(store) == 0
        store.clear()  # must not touch the quarantine directory
        assert list((store.root / "quarantine").iterdir())

    def test_recompute_overwrites_after_quarantine(self, tmp_path):
        store, path = self._store_with(tmp_path, "old")
        path.write_bytes(b"garbage")
        assert store.load(self.KEY) is None
        store.store(self.KEY, "recomputed")
        assert store.load(self.KEY) == "recomputed"

    def test_quarantine_counter_emitted(self, tmp_path):
        from repro.obs import Counters

        counters = Counters()
        store = PersistentActionStore(tmp_path, counters=counters)
        store.store(self.KEY, 1)
        store._path(self.KEY).write_bytes(b"garbage")
        store.load(self.KEY)
        assert counters.count("store.quarantined") == 1
