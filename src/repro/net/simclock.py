"""Simulation clock.

Separated from the event loop so that components which only need to
*read* time (metrics, estimators, loggers) can depend on a tiny
interface instead of the whole environment.
"""

from __future__ import annotations

from ..errors import ClockError


class SimClock:
    """A monotonically non-decreasing simulated clock.

    The environment owns the single writer; everything else sees a
    read-only ``now`` property.  Advancing backwards raises
    :class:`~repro.errors.ClockError` — a guard that has caught real
    heap-ordering bugs during development of event kernels.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if not start >= 0:
            raise ClockError(f"clock cannot start at negative time {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, when: float) -> None:
        """Move the clock forward to ``when`` (used only by the event loop)."""
        if not when >= self._now:
            raise ClockError(f"clock moving backwards: {self._now} -> {when}")
        self._now = when

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.6f})"
