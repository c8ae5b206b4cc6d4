"""Named counters and gauges for the metrics report.

A :class:`Counters` instance is the single sink every layer writes to:
the action cache counts hits/misses, the build system counts RAM
rejections, the scheduler records queue depth, the pipeline records
profile-quality gauges (PGO match rate, LBR coverage, WPA hot-function
count).  Counters are *monotonic* accumulators (``incr``); gauges are
last-written or high-watermark values (``gauge`` / ``max_gauge``).

Determinism contract: every mutation happens in program order in one
process, so two runs of the same configuration from the same cache
state produce exactly the same counter values.
"""

from __future__ import annotations

from typing import Dict, Union

Number = Union[int, float]

__all__ = ["Counters"]


class Counters:
    """A flat namespace of counters and gauges (dotted names by convention)."""

    __slots__ = ("_counts", "_gauges")

    def __init__(self) -> None:
        self._counts: Dict[str, Number] = {}
        self._gauges: Dict[str, Number] = {}

    # -- counters -----------------------------------------------------

    def incr(self, name: str, amount: Number = 1) -> None:
        """Add ``amount`` to the counter ``name`` (creating it at 0)."""
        if amount < 0:
            raise ValueError(f"counter {name!r}: negative increment {amount}")
        self._counts[name] = self._counts.get(name, 0) + amount

    def count(self, name: str, default: Number = 0) -> Number:
        return self._counts.get(name, default)

    # -- gauges -------------------------------------------------------

    def gauge(self, name: str, value: Number) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = value

    def max_gauge(self, name: str, value: Number) -> None:
        """Raise the gauge ``name`` to ``value`` if it is higher."""
        current = self._gauges.get(name)
        if current is None or value > current:
            self._gauges[name] = value

    def gauge_value(self, name: str, default: Number = 0) -> Number:
        return self._gauges.get(name, default)

    # -- export -------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Number]]:
        """Deterministic (name-sorted) copy of all counters and gauges."""
        return {
            "counters": {k: self._counts[k] for k in sorted(self._counts)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
        }

    def clear(self) -> None:
        self._counts.clear()
        self._gauges.clear()

    def __repr__(self) -> str:
        return f"Counters(counters={len(self._counts)}, gauges={len(self._gauges)})"
