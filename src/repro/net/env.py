"""The discrete-event environment: clock + binary-heap event queue.

Usage::

    env = Environment()

    def worker(env):
        yield env.timeout(1.5)
        return "done"

    proc = env.process(worker(env))
    env.run()
    assert env.now == 1.5 and proc.value == "done"

Events scheduled at the same timestamp dispatch in (priority, FIFO)
order, which keeps co-timed interactions deterministic — essential for
reproducible experiments.

The pending-event store is one ``heapq`` list of tuples ordered by
``(time, priority, counter)``.  The counter is unique, so tuple
comparison never reaches the payload slots:

* ``(time, priority, counter, event, None)`` — dispatch ``event``;
* ``(time, priority, counter, event, process)`` — direct resume of
  ``process`` with the already-processed ``event``;
* ``(time, priority, counter, callback)`` — fast lane: call the bare
  callable, no Event machinery at all (a 4-tuple — the fast lane does
  not pay for the ``None`` process slot).

Two scheduling lanes exist beside the classic event machinery:

* :meth:`Environment.call_at` / :meth:`Environment.call_later` — the
  *bare-callback fast lane*: a plain callable is queued with no Event
  or Timeout allocation at all.  Contract: fast-lane callbacks cannot
  be waited on, composed, or cancelled — they are for fire-and-forget
  internal wake-ups (link allocation wake-ups and friends), not for
  process synchronization (see DESIGN.md "Kernel internals").
* :meth:`Environment.pooled_timeout` — a recycled timeout event for
  per-chunk churners (TCP request RTTs, DNS/TLS delays): the event
  object and its callback list return to a free pool after dispatch.
  Contract: the caller yields it exactly once, immediately, and never
  stores, composes, or re-yields it.

:meth:`Environment.run` is the one dispatch loop, whatever it runs
until: the queue draining, a simulated time (a private stop event
queued behind everything due at that instant), or an event's own
dispatch.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Generator
from heapq import heapify, heappop, heappush

from ..errors import ClockError, SimulationError
from .events import (
    _URGENT,
    NORMAL,
    AllOf,
    Event,
    PooledTimeout,
    Process,
    Timeout,
)

#: Pooled timers kept for reuse per environment; beyond this they are
#: left to the garbage collector (a bound, not a working-set estimate).
_TIMER_POOL_LIMIT = 128

#: Priority of ``run(until=<time>)``'s stop entry: after every urgent
#: and normal entry due at that instant.  It is the only entry of its
#: priority, so its tie-breaker slot needs no counter bump.
_STOP = NORMAL + 1


class EmptySchedule(SimulationError):
    """``run()`` exhausted the event queue before reaching ``until``."""


class Environment:
    """Owns simulated time and the pending-event heap."""

    __slots__ = ("_now", "_heap", "_counter", "_timer_pool")

    def __init__(self, start: float = 0.0) -> None:
        if not start >= 0:
            raise ClockError(f"clock cannot start at negative time {start}")
        self._now = float(start)
        self._heap: list[tuple] = []
        #: FIFO tie-breaker for co-timed entries, bumped once per entry
        #: on every lane — so it is also the total ever scheduled.
        self._counter = 0
        self._timer_pool: list[PooledTimeout] = []

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def scheduled_count(self) -> int:
        """Total entries ever scheduled (the FIFO counter's value)."""
        return self._counter

    # -- factories ------------------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator)

    def all_of(self, events) -> AllOf:
        """Condition event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- fast lanes ------------------------------------------------------------
    #
    # Every push below inlines the counter bump and the heappush: they
    # are the kernel's hottest few lines, and a shared helper would cost
    # one extra Python call per scheduled entry.

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Schedule a bare ``callback()`` at absolute time ``when``.

        No Event is allocated; the callback cannot be waited on or
        cancelled.  One validation per schedule happens here.
        """
        if not when >= self._now:
            raise ClockError(f"cannot schedule a callback at {when} < now")
        self._counter = counter = self._counter + 1
        heappush(self._heap, (when, NORMAL, counter, callback))

    def call_later(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule a bare ``callback()`` after ``delay`` seconds."""
        if not delay >= 0:
            raise ClockError(f"cannot schedule a callback {delay} seconds in the past")
        self._counter = counter = self._counter + 1
        heappush(self._heap, (self._now + delay, NORMAL, counter, callback))

    def pooled_timeout(self, delay: float, value: object = None) -> PooledTimeout:
        """A timeout event drawn from the environment's free pool.

        Behaves like :meth:`timeout` on the scheduling side (same
        priority, same FIFO-counter bump, so dispatch order is
        bit-identical) but recycles the event object and its callback
        list after dispatch.  Internal hot-path use only — the caller
        must yield it exactly once, immediately; it must never be
        stored, composed into conditions, or yielded after it fired.
        """
        if not delay >= 0:
            raise ClockError(f"cannot schedule a timeout {delay} seconds in the past")
        pool = self._timer_pool
        if pool:
            timer = pool.pop()
            timer._value = value
            timer.delay = delay
        else:
            timer = PooledTimeout(self, delay, value)
        self._counter = counter = self._counter + 1
        heappush(self._heap, (self._now + delay, NORMAL, counter, timer, None))
        return timer

    # -- scheduling (internal API used by events) ----------------------------

    def _schedule_event(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        # Delay validation is the *caller's* job (one validation per
        # schedule): Timeout.__init__ checks user-supplied delays; every
        # other internal caller schedules at "now".
        self._counter = counter = self._counter + 1
        heappush(self._heap, (self._now + delay, priority, counter, event, None))

    def _schedule_resume(self, process: Process, event: Event) -> None:
        """Urgently redeliver a processed ``event`` straight to ``process``.

        The event's processed state is left untouched: it already ran
        its callbacks at its own dispatch; this entry only carries its
        outcome to one late waiter.
        """
        self._counter = counter = self._counter + 1
        heappush(self._heap, (self._now, _URGENT, counter, event, process))

    # -- execution ------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        heap = self._heap
        return heap[0][0] if heap else math.inf

    def run(self, until: float | Event | None = None) -> object:
        """Run until the queue drains, a deadline passes, or an event fires.

        * ``until=None`` — run to queue exhaustion;
        * ``until=<float>`` — run to that simulated time (clock is left at
          exactly ``until`` even if the next event is later);
        * ``until=<Event>`` — run until that event is *processed*, then
          return its value (re-raising if it failed).  Entries due at
          the same instant behind it stay queued.
        """
        heap = self._heap
        stop: tuple | None = None
        if until is None:
            sentinel = None
        elif isinstance(until, Event):
            sentinel = until
            if sentinel.processed:
                if not sentinel.ok:
                    raise sentinel._value  # type: ignore[misc]
                return sentinel.value
        else:
            deadline = float(until)
            if not deadline >= self._now:
                raise ClockError(f"cannot run until {deadline} < now {self._now}")
            # A time is run to as a private event due at ``deadline``,
            # queued behind every entry due then: the loop below stops
            # at its dispatch exactly as it stops at an awaited event's.
            sentinel = Event(self)
            sentinel._ok = True
            sentinel._value = None
            stop = (deadline, _STOP, 0, sentinel, None)
            heappush(heap, stop)
        # The kernel's hottest code: the dispatch body is written out
        # here once (a call per event would cost ~10% of the fast
        # lane's throughput) and hot attributes are cached in locals.
        pool = self._timer_pool
        try:
            while heap:
                entry = heappop(heap)
                when = entry[0]
                if not when >= self._now:
                    raise ClockError(f"clock moving backwards: {self._now} -> {when}")
                self._now = when
                if len(entry) == 4:
                    entry[3]()  # fast lane: a bare callback, no event at all
                    continue
                event = entry[3]
                process = entry[4]
                if process is not None:
                    process._resume(event)
                    continue
                if event.__class__ is PooledTimeout:
                    callbacks = event.callbacks
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
                        callbacks.clear()
                    if len(pool) < _TIMER_POOL_LIMIT:
                        pool.append(event)
                    continue
                callbacks = event.callbacks
                event.callbacks = None  # marks the event processed
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event.defused:
                    # An event failed and nobody was listening: surface
                    # it rather than letting the error pass silently.
                    raise event._value  # type: ignore[misc]
                if event is sentinel:
                    break
            else:
                if sentinel is None:
                    return None
                raise EmptySchedule("event queue drained before the awaited event fired")
        except BaseException:
            if stop is not None and stop in heap:
                heap.remove(stop)
                heapify(heap)
            raise
        if not sentinel._ok:
            sentinel.defused = True
            raise sentinel._value  # type: ignore[misc]
        return sentinel._value
