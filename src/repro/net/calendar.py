"""Kernel-selection names kept for the benchmark harness.

The simulator has one event kernel, the binary heap inside
:class:`repro.net.env.Environment`.  ``perfbench/round.py`` records the
kernel in every run's environment block through the two calls below.
"""

from __future__ import annotations

__all__ = ["compiled_core", "resolve_kernel"]


# perfbench/round.py reads this; removing it breaks every benchmark round.
def resolve_kernel() -> str:
    """The event kernel's name."""
    return "heapq"


# perfbench/round.py reads this; removing it breaks every benchmark round.
def compiled_core() -> None:
    """There is no compiled core."""
    return None
