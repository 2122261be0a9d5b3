"""KER001 — respect the Environment API and its fast lanes.

Four parts:

* **Bypass** — the scheduler's internals (``env._scheduler``, the
  cached ``_push`` bindings, ``_schedule_event``/``_schedule_resume``,
  calendar bucket state, the timer pool) are owned by the kernel
  modules (``net/env.py``, ``net/calendar.py``, ``net/events.py``,
  ``net/simclock.py``).  Anything else reaching for them skips the
  one-validation-per-schedule contract and couples itself to kernel
  data layout that PRs rewrite (heap → calendar → compiled).

* **Fast-lane advisory** — a bare ``yield env.timeout(...)`` statement
  allocates a fresh ``Timeout`` event per wait and discards it; per-
  chunk churners should use ``env.pooled_timeout(...)`` (recycled
  event, bit-identical dispatch order) or ``env.call_at`` for fire-and-
  forget wake-ups.  Sites that genuinely need a composable event
  (stored, raced with ``AnyOf``) keep ``env.timeout`` and waive or
  baseline the finding with a justification.

* **Spawn-and-wait advisory** — ``yield env.process(gen(...))``, bare
  or as an assignment's value, starts a ``Process`` only to wait for it
  on the spot: one ``Initialize`` event, one completion event and two
  allocations per call, for a step that ``yield from gen(...)`` runs
  inside the caller at no kernel cost.  Sub-steps delegate; only
  concurrency spawns (``env.process(...)`` *not* yielded there — a
  ticker, a per-path loop, a fetch the session races).  A site that
  must be a Process although it is awaited at once (interrupted from
  outside, raced in ``AnyOf``, handle kept for later) waives the
  finding with that reason.

* **Fixed-period wake** — ``yield env.pooled_timeout(<…>.tick_s)`` is a
  loop waking every playback tick whether or not anything changed: one
  kernel entry per 0.1 s per session.  Playback lives on the playout
  clock (:mod:`repro.sim.playout`), which replays ticks lazily and
  wakes only where a threshold is crossed; a poller waits on
  ``clock.park()``.  ``live/`` is outside the deterministic paths: a
  wall-clock player ticks for real.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..base import ModuleContext, Rule, rule
from ..findings import Finding

#: Attribute names that are unambiguous scheduler internals.  Generic
#: spellings (``_now``, ``_n``, ``_counter``, ``_clock``) are excluded:
#: unrelated classes legitimately use them for their own state.
_SCHEDULER_INTERNALS = frozenset(
    {
        "_scheduler",
        "_push",
        "_push_callback",
        "_schedule_event",
        "_schedule_resume",
        "_buckets",
        "_dirty",
        "_cursor",
        "_far",
        "_heap",
        "_timer_pool",
        "_active_process",
    }
)


@rule
class KernelApiBypass(Rule):
    id = "KER001"
    title = "no scheduler-internal access; prefer the kernel fast lanes"
    rationale = (
        "scheduler internals are owned by net/env|calendar|events|simclock; "
        "external access skips delay validation and breaks when the kernel "
        "changes.  Discarded per-wait Timeouts should ride the pooled-timer "
        "or bare-callback fast lanes, a sub-step awaited on the spot "
        "should be delegated to with `yield from`, not spawned as a Process, "
        "and playback must not poll at the tick period."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.is_kernel_internal():
            return
        deterministic = ctx.in_deterministic_path()
        periods = _tick_period_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in _SCHEDULER_INTERNALS
            ):
                yield ctx.finding(
                    self.id,
                    node,
                    f"access to scheduler internal {node.attr!r} outside the "
                    "kernel modules; use the Environment API "
                    "(timeout/pooled_timeout/call_at/process/run)",
                )
            elif (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Yield)
                and isinstance(node.value.value, ast.Call)
                and isinstance(node.value.value.func, ast.Attribute)
                and node.value.value.func.attr == "timeout"
                and deterministic
            ):
                yield ctx.finding(
                    self.id,
                    node,
                    "bare `yield env.timeout(...)` discards a fresh Event per "
                    "wait; use env.pooled_timeout(...) (bit-identical "
                    "dispatch) or waive with a justification if the event "
                    "must compose",
                )
            elif deterministic and _is_tick_period_wait(node, periods):
                yield ctx.finding(
                    self.id,
                    node,
                    "a fixed-period wake; wait on the playout clock "
                    "(look/rearm, or yield clock.park() in an OFF-period loop)",
                )
            elif deterministic and _is_spawn_and_wait(node):
                yield ctx.finding(
                    self.id,
                    node,
                    "spawn-and-wait costs a Process and two kernel events per "
                    "call; delegate with `yield from`, or waive with the "
                    "reason it must be a Process (interrupted, raced in "
                    "`AnyOf`, awaited later)",
                )


def _yielded_call(node: ast.AST) -> ast.Call | None:
    """The call in ``yield <Call>``, as a statement or an assignment's value."""
    if not isinstance(node, (ast.Expr, ast.Assign, ast.AnnAssign)):
        return None
    value = node.value
    if isinstance(value, ast.Yield) and isinstance(value.value, ast.Call):
        return value.value
    return None


def _is_spawn_and_wait(node: ast.AST) -> bool:
    """``yield X.process(<Call>)``."""
    spawn = _yielded_call(node)
    return (
        spawn is not None
        and isinstance(spawn.func, ast.Attribute)
        and spawn.func.attr == "process"
        and len(spawn.args) == 1
        and isinstance(spawn.args[0], ast.Call)
    )


def _tick_period_names(tree: ast.AST) -> frozenset[str]:
    """``tick_s`` and every name the module binds to ``<…>.tick_s``."""
    return frozenset({"tick_s"}) | {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "tick_s"
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def _is_tick_period_wait(node: ast.AST, periods: frozenset[str]) -> bool:
    """``yield X.pooled_timeout(<…>.tick_s)``, or of a name bound to it."""
    call = _yielded_call(node)
    if call is None or not call.args:
        return False
    if not (isinstance(call.func, ast.Attribute) and call.func.attr == "pooled_timeout"):
        return False
    period = call.args[0]
    return (isinstance(period, ast.Attribute) and period.attr == "tick_s") or (
        isinstance(period, ast.Name) and period.id in periods
    )
