"""CPU time and peak RSS of this process together with its children.

The pipeline's process pool (``repro.runtime.executor.shared_executor``)
keeps its workers alive across releases, so the usual sources undercount
them: ``os.times().children_*`` and ``RUSAGE_CHILDREN`` only see children
that have been reaped, and ``ru_maxrss`` is a lifetime peak of one
process.  This module reads live children from ``/proc`` instead:

* CPU: own ``getrusage`` + reaped children + ``utime+stime`` of every
  live child.  A delta around a release therefore includes the work its
  pool workers did, whether or not they exited.
* RSS: ``VmHWM`` (peak resident set) of this process and each live
  child, summed.  :func:`reset_peak_rss` writes ``5`` to each process's
  ``clear_refs``, which resets ``VmHWM`` to the current RSS, so a peak
  read after a release belongs to that release.  Forked workers share
  pages with the parent, so the sum is an upper bound on the tree's
  resident memory.

Linux only; every function raises ``OSError`` where ``/proc`` lacks the
files it reads.
"""

from __future__ import annotations

import os
import resource
from pathlib import Path
from typing import List

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_PROC = Path("/proc")


def _stat_fields(pid: int) -> List[str]:
    """``/proc/<pid>/stat`` fields after the command name (state first)."""
    text = (_PROC / str(pid) / "stat").read_text()
    return text[text.rindex(")") + 2:].split()


def child_pids() -> List[int]:
    """Live direct children of this process."""
    me = os.getpid()
    children = []
    for entry in _PROC.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            ppid = int(_stat_fields(int(entry.name))[1])
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked, or not readable
        if ppid == me:
            children.append(int(entry.name))
    return children


def cpu_seconds() -> float:
    """User+system CPU seconds of this process and all its children so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    for pid in child_pids():
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue  # reaped since listing: now counted in RUSAGE_CHILDREN
        # utime and stime are fields 14 and 15 of stat(5); 12 and 13 here.
        total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total


def reset_peak_rss() -> None:
    """Reset the peak-RSS mark of this process and its live children."""
    for pid in [os.getpid(), *child_pids()]:
        try:
            (_PROC / str(pid) / "clear_refs").write_text("5")
        except FileNotFoundError:
            continue  # the child exited in between


def _vm_hwm_bytes(pid: int) -> int:
    for line in (_PROC / str(pid) / "status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024
    raise OSError(f"no VmHWM in /proc/{pid}/status")


def peak_rss_bytes() -> int:
    """Sum of the peak RSS of this process and its live children since
    the last :func:`reset_peak_rss` (or since each child started)."""
    total = _vm_hwm_bytes(os.getpid())
    for pid in child_pids():
        try:
            total += _vm_hwm_bytes(pid)
        except FileNotFoundError:
            continue
    return total
