"""Serial, order-preserving execution of pure tasks.

Every batch of independent tasks -- per-module backend runs and
per-function Ext-TSP layout -- goes through :meth:`ParallelExecutor.map`,
which runs them in the calling process, in submission order.  There is
one execution path, so there is no scheduling nondeterminism to guard.

A real process pool used to live here.  Measured, it never paid for
itself -- more memory and CPU, no wall time saved (DESIGN.md, "Real
time vs simulated time") -- so it was retired.  The paper's build-time
scalability is modelled in simulated seconds by the ``workers`` pool of
:mod:`repro.buildsys`, which this module never touches.  The class
keeps its name and :func:`shared_executor` its signature because the
release benchmark (``releasebench/``) binds to both.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, TypeVar

R = TypeVar("R")


class ParallelExecutor:
    """The one task runner: ``fn(*args)`` per tuple, results in input order.

    A task's exception propagates unchanged and stops the batch.
    """

    def map(self, fn: Callable[..., R], arg_tuples: Sequence[tuple]) -> List[R]:
        return [fn(*args) for args in arg_tuples]

    def close(self) -> None:
        """Nothing to release; kept for callers that close what they use."""


_SERIAL = ParallelExecutor()


def shared_executor(jobs: int = 1) -> ParallelExecutor:
    """The process-wide executor.

    ``jobs`` is accepted for callers written against the retired
    process pool and ignored: execution is always serial.
    """
    return _SERIAL
