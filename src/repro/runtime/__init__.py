"""Real-machine execution layer for the simulated toolchain.

Everything under :mod:`repro.buildsys` models the *paper's* build
environment in simulated seconds; this package is about the seconds the
reproduction itself burns:

* :class:`ParallelExecutor` -- the one serial, order-preserving runner
  for batches of independent pure tasks (per-module codegen,
  per-function Ext-TSP layout); see :mod:`repro.runtime.executor`.
* :class:`PersistentActionStore` -- a content-addressed on-disk store
  of completed action outputs (digest-keyed pickles), the real
  counterpart of the simulator's remote action cache: a second pipeline
  run replays cold modules from disk exactly as ``repro.buildsys``
  models remote replays.

Both are deliberately dependency-free (stdlib only) and import nothing
from the rest of ``repro``, so any layer may use them.
"""

from repro.runtime.cache import (
    CACHE_DIR_ENV,
    FunctionSolveCache,
    PersistentActionStore,
    resolve_cache_dir,
)
from repro.runtime.executor import ParallelExecutor

__all__ = [
    "CACHE_DIR_ENV",
    "FunctionSolveCache",
    "ParallelExecutor",
    "PersistentActionStore",
    "resolve_cache_dir",
]
