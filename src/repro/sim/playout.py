"""The playout clock: playback, finish and watchdog without a ticker.

Playback steps ``tick_s`` at a time on a grid anchored at launch
(``t = t + tick_s``, the instants a ticker process woke at), yet only a
handful of ticks per session change anything (§4's thresholds).  So a
*look* replays the ticks already due with the ticker's floats, and one
wake stays armed for the next crossing: a look a few ticks short of a
closed-form bound, then a wake at the grid instant before the crossing,
which queues the crossing tick from there, as the ticker did.  A wake is
only a look (plus, on a grid instant, that tick through the driver's
real tick body), so a stale one is harmless.  OFF-period pollers
``park()``.  DESIGN.md "Playout clock" has the tie rules and the ledger.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from ..core.buffer import BufferPhase, PlayoutBuffer
from ..core.metrics import QoEMetrics
from ..net.env import Environment
from ..net.events import Event

#: At or below this many safe ticks the crossing is found by exact scan;
#: above it, a look is armed ``_LOOK_MARGIN`` ticks short of the bound.
_SCAN_TICKS = 8
_LOOK_MARGIN = 3


class PlayoutClock:
    """Lazy playback and the stop condition of one simulated session."""

    def __init__(
        self,
        env: Environment,
        metrics: QoEMetrics,
        tick_s: float,
        stop: str = "full",
        target_cycles: int = 3,
        max_sim_time: float = 1800.0,
        on_tick: Callable[[float, float], None] | None = None,
    ) -> None:
        if stop not in ("prebuffer", "cycles", "full"):
            raise ValueError(f"unknown stop condition {stop!r}")
        self.env = env
        self.metrics = metrics
        self.tick_s = tick_s
        self.stop = stop
        self.target_cycles = target_cycles
        self.max_sim_time = max_sim_time
        #: Set by the driver once the stream size is known.
        self.buffer: PlayoutBuffer | None = None
        self.finished = env.event()
        self.stop_reason = "unknown"
        #: What one tick runs at its instant, ``(dt, now)``.
        self._tick_body = on_tick or self._buffer_tick
        self._launch = math.inf
        #: The first grid instant whose tick has not run.
        self._next = math.inf
        #: The earliest wake known to be queued.
        self._armed = math.inf
        self._ticking = False
        self._frozen = False  # finished, and the last tick has run
        self._parked: list[tuple[float, Event]] = []

    def launch(self) -> None:
        """Anchor the grid at ``now``; arm the watchdog."""
        now = self.env.now
        self._launch = now
        self._next = now + self.tick_s
        self.env.call_at(now + self.max_sim_time, self._timeout)

    def finish_once(self, reason: str) -> None:
        if self.finished.triggered:
            return
        self.stop_reason = reason
        if self._ticking:
            self.finished.succeed(reason)
            return  # this tick is the last
        self._catch_up(self.env.now)
        # The ticker still ran the tick it had queued, then stopped.  One
        # due now was queued before the finish, so it runs before
        # ``finished`` is processed.
        due_now = self._next <= self.env.now
        if due_now:
            self.env.call_at(self._next, self._wake)
        self.finished.succeed(reason)
        self.open_gates()
        if not due_now:
            self.env.call_at(self._next, self._wake)

    def _timeout(self) -> None:
        if self.finished.triggered:
            return  # a shared environment outlived this session
        self._catch_up(self.env.now)  # queued at launch: before any tick here
        self.finish_once("timeout")

    # -- looks and wakes ---------------------------------------------------

    def look(self) -> None:
        """Run the ticks the ticker would have run by now (all no-ops): those
        before ``now`` and, on a grid instant, the one at ``now`` unless it
        changes something (then its own entry is still due: ours came first).
        """
        now = self.env.now
        if self._frozen or self.finished.triggered or self._next > now:
            return
        self._catch_up(now)
        if self._next <= now:
            buffer = self.buffer
            crossing = None if buffer is None else buffer.next_change_at(now, self.tick_s)
            if crossing is None or crossing > now:
                self._catch_up(math.nextafter(now, math.inf))

    def _catch_up(self, until: float) -> None:
        if self._next >= until:
            return
        if self.buffer is not None:
            self._next = self.buffer.replay_ticks(self._next, until, self.tick_s)
        else:
            self._next = self._grid_before(self._next, until) + self.tick_s

    def rearm(self) -> None:
        """Keep a wake queued no later than the next crossing needs it."""
        buffer = self.buffer
        if buffer is None or self.finished.triggered:
            return
        dt = self.tick_s
        safe = buffer.safe_ticks(dt)
        if safe is None:
            return
        if safe > _SCAN_TICKS:
            self._arm(self._next + (safe - _LOOK_MARGIN) * dt)
            return
        crossing = buffer.next_change_at(self._next, dt)
        if crossing is not None:
            self._arm(self._grid_before(self._next, crossing))

    def _arm(self, at: float) -> None:
        if at < self._armed:
            self._armed = at
            self.env.call_at(at, self._wake)

    def _wake(self) -> None:
        if self._frozen:
            return
        now = self.env.now
        if now >= self._armed:
            self._armed = math.inf
        self.look()
        if self._next <= now:  # a changing (or the last) tick is due here
            self._tick(now)
        self.rearm()

    def _tick(self, now: float) -> None:
        buffer = self.buffer
        previous = None if buffer is None else buffer.phase
        self._next = now + self.tick_s
        self._ticking = True
        try:
            self._tick_body(self.tick_s, now)
        finally:
            self._ticking = False
        self._frozen = self.finished.triggered
        if self._frozen or (buffer is not None and buffer.phase is not previous):
            self.open_gates(after_tick=True)

    # -- the buffer-owning drivers' tick and transitions --------------------------

    def _buffer_tick(self, dt: float, now: float) -> None:
        buffer = self.buffer
        if buffer is None:
            return  # no stream yet
        previous = buffer.phase
        buffer.on_tick(dt, now)
        self.note(previous, now)
        if buffer.playback_finished:
            if self.metrics.playback_finished_at is None:
                self.metrics.playback_finished_at = now
            self.finish_once("playback-finished")

    def note(self, previous: BufferPhase, now: float) -> None:
        """Record the buffer's transition from ``previous``; apply stop rules."""
        buffer = self.buffer
        assert buffer is not None
        if buffer.phase is previous:
            return
        if self.metrics.note_phase_change(previous, buffer.phase, now, buffer.level_s):
            self.started()
        self.check_cycles()

    def started(self) -> None:
        """Playback began."""
        if self.stop == "prebuffer":
            self.finish_once("prebuffer-complete")

    def check_cycles(self) -> None:
        if (
            self.stop == "cycles"
            and len(self.metrics.completed_cycle_durations()) >= self.target_cycles
        ):
            self.finish_once("cycles-complete")

    # -- OFF-period pollers -------------------------------------------------------------

    def park(self) -> Event:
        """What a poller yields instead of sleeping ``tick_s``: fires at its
        own next poll instant (``now + tick_s``, accumulated) at or after
        the moment its gate may have opened; the poller then re-checks."""
        event = self.env.event()
        self._parked.append((self.env.now, event))
        return event

    def open_gates(self, after_tick: bool = False) -> None:
        """A parked poller's condition may have changed now."""
        now, dt = self.env.now, self.tick_s
        parked, self._parked = self._parked, []
        for anchor, event in parked:
            previous = self._grid_before(anchor, now)
            poll = previous + dt
            # A poll due at this very instant was queued from its previous
            # one and runs first, finding the gate shut — unless the tick
            # that opened it was queued from an earlier instant.
            if poll <= now and not (
                after_tick and previous > self._grid_before(self._launch, now)
            ):
                poll = poll + dt
            self.env.call_at(poll, event.succeed)

    def _grid_before(self, t: float, until: float) -> float:
        """The last instant of the grid ``t, t + tick_s, …`` (accumulated,
        as a ticker or a poll loop steps) before the first one at or after
        ``until``; ``t`` itself when ``t + tick_s`` is already there."""
        dt = self.tick_s
        while t + dt < until:
            t = t + dt
        return t
