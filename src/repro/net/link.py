"""Fluid bottleneck link carrying one flow at a time.

Each wireless interface in the paper's testbed has one bottleneck — the
WiFi airlink or the LTE radio bearer.  We model each as a :class:`Link`:

* capacity follows a :class:`~repro.net.bandwidth.BandwidthProcess`
  (piecewise constant);
* the link carries at most one flow, at the smaller of the capacity and
  the flow's *rate cap* (the TCP model's slow-start and receive-window
  limit).  MSPlayer keeps one persistent connection per interface with
  one range request outstanding on it (§2, §4), so no two flows ever
  meet on a link; a second concurrent ``start_flow`` is refused with
  :class:`~repro.errors.ConfigError`;
* the link can be taken down/up to model mobility events (the WiFi
  break scenario of §2 "Robust Data Transport").

The implementation is event-driven fluid simulation: whenever the flow
starts or ends, its cap doubles, or the capacity changes, the link
settles the bytes delivered since the last change, recomputes the rate,
and schedules the next completion.  Stale wake-ups are filtered with a
version counter, so no cancellation bookkeeping is needed.

Capacity is a pure function of simulated time, so no process drives it:
the link steps its segment iterator forward when someone looks and
schedules segment boundaries only while a flow is there to feel them —
an idle link costs no events (DESIGN.md "Lazy link capacity").
"""

from __future__ import annotations

import math
from functools import partial
from collections.abc import Callable, Iterator

from ..errors import ConfigError, LinkDownError, NetworkError
from .bandwidth import BandwidthProcess
from .env import Environment
from .events import Event


class FlowHandle:
    """A single fluid transfer in progress on a link.

    Exposes the completion :class:`Event` (``done``) and live
    accounting (``bytes_delivered``, ``rate``).  A flow may carry a
    *slow-start ramp*: its cap doubles every ``ramp_rtt`` seconds up to
    ``ramp_limit``, with the doubling instants computed analytically by
    the link (no pacer process, no per-doubling timeout events).
    Cancel with :meth:`abort` (fails ``done`` with the given exception).
    """

    __slots__ = (
        "link",
        "total_bytes",
        "remaining",
        "cap",
        "rate",
        "done",
        "started_at",
        "finished_at",
        "_ramp_interval",
        "_ramp_at",
        "_ramp_limit",
    )

    def __init__(
        self,
        link: "Link",
        total_bytes: float,
        cap: float,
        ramp_rtt: float | None = None,
        ramp_limit: float = math.inf,
    ) -> None:
        # Written so NaN fails too; an infinite flow never completes and
        # its link wakes at every capacity boundary for ever.
        if not 0 < total_bytes < math.inf:
            raise ConfigError(f"flow size must be positive and finite, got {total_bytes}")
        if not cap > 0:
            raise ConfigError(f"flow cap must be positive, got {cap}")
        if ramp_rtt is not None and not ramp_rtt > 0:
            raise ConfigError(f"ramp_rtt must be positive, got {ramp_rtt}")
        # ``min(cap, nan)`` is ``cap``: a NaN limit would double the cap
        # without end.
        if not ramp_limit > 0:
            raise ConfigError(f"ramp_limit must be positive, got {ramp_limit}")
        self.link = link
        self.total_bytes = float(total_bytes)
        self.remaining = float(total_bytes)
        self.cap = float(cap)
        self.rate = 0.0
        self.done: Event = link.env.event()
        self.started_at = link.env.now
        self.finished_at: float | None = None
        self._ramp_interval = ramp_rtt
        self._ramp_limit = float(ramp_limit)
        if ramp_rtt is None or self.cap >= self._ramp_limit:
            self._ramp_at: float | None = None
        else:
            self._ramp_at = self.started_at + ramp_rtt

    @property
    def bytes_delivered(self) -> float:
        return self.total_bytes - self.remaining

    @property
    def active(self) -> bool:
        return not self.done.triggered

    def abort(self, error: NetworkError | None = None) -> None:
        """Terminate the flow; ``done`` fails with ``error``.

        The error is annotated with ``flow_bytes_delivered`` so upper
        layers can keep the in-order prefix that did arrive (a partial
        HTTP body is still valid leading bytes of the range).
        """
        if not self.active:
            return
        self.link._detach(self)
        failure = error or NetworkError("flow aborted")
        failure.flow_bytes_delivered = int(self.bytes_delivered)  # type: ignore[attr-defined]
        self.done.fail(failure)
        self.done.defused = True  # caller may not be waiting anymore

    def _advance_ramp(self, now: float) -> None:
        """Apply every slow-start doubling whose instant has passed.

        The small tolerance absorbs the float error of a wake-up timed
        exactly at a doubling instant landing one ulp short of it.
        """
        ramp_at = self._ramp_at
        if ramp_at is None:
            return
        cap = self.cap
        limit = self._ramp_limit
        while ramp_at is not None and now >= ramp_at - 1e-12:
            cap = min(cap * 2.0, limit)
            ramp_at = None if cap >= limit else ramp_at + self._ramp_interval
        self.cap = cap
        self._ramp_at = ramp_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlowHandle {self.bytes_delivered:.0f}/{self.total_bytes:.0f}B "
            f"rate={self.rate:.0f}B/s cap={self.cap:.0f}>"
        )


class Link:
    """One bottleneck link: lazily advanced capacity schedule + at most one flow."""

    __slots__ = (
        "env",
        "name",
        "bandwidth",
        "_capacity",
        "_segment_end",
        "_armed",
        "_flow",
        "_version",
        "_last_settle",
        "_down",
        "bytes_carried",
        "status_listeners",
        "_segments",
    )

    def __init__(
        self,
        env: Environment,
        bandwidth: BandwidthProcess,
        name: str = "link",
    ) -> None:
        self.env = env
        self.name = name
        self.bandwidth = bandwidth
        # The current segment holds ``_capacity`` until ``_segment_end``;
        # the first segment starts now and is drawn at the first look.
        self._capacity = bandwidth.mean_rate
        self._segment_end = env.now
        #: True while a boundary wake-up is queued (one chain per link).
        self._armed = False
        self._flow: FlowHandle | None = None
        self._version = 0
        self._last_settle = env.now
        self._down = False
        #: Total bytes this link has carried (for Table 1 accounting).
        self.bytes_carried = 0.0
        #: Observers notified on up/down transitions (mobility handling).
        self.status_listeners: list[Callable[[bool], None]] = []
        self._segments: Iterator[tuple[float, float]] = bandwidth.segments()

    # -- public API -----------------------------------------------------------

    @property
    def capacity(self) -> float:
        """The bandwidth process's rate at ``env.now`` (bytes/s)."""
        self._advance_capacity()
        return self._capacity

    @property
    def is_down(self) -> bool:
        return self._down

    @property
    def active_flow_count(self) -> int:
        return 0 if self._flow is None else 1

    def start_flow(
        self,
        total_bytes: float,
        cap: float = math.inf,
        ramp_rtt: float | None = None,
        ramp_limit: float = math.inf,
    ) -> FlowHandle:
        """Begin transferring ``total_bytes`` through the link.

        ``ramp_rtt``/``ramp_limit`` arm the closed-form slow-start
        schedule: the cap doubles every ``ramp_rtt`` seconds until it
        reaches ``ramp_limit`` (both in bytes/s terms on the cap).

        Raises :class:`~repro.errors.ConfigError` if the link already
        carries a flow (a link carries one flow at a time; the running
        flow is left untouched), and :class:`~repro.errors.LinkDownError`
        if the link is down — starting a transfer needs connectivity,
        whereas a flow already in progress merely stalls while down.
        """
        if self._flow is not None:
            raise ConfigError(f"{self.name} already carries a flow")
        if self._down:
            raise LinkDownError(f"{self.name} is down")
        flow = FlowHandle(self, total_bytes, cap, ramp_rtt=ramp_rtt, ramp_limit=ramp_limit)
        self._settle()
        self._flow = flow
        self._state_changed(settled=True)
        return flow

    def set_down(self, down: bool) -> None:
        """Take the link down (flows stall) or bring it back up."""
        if down == self._down:
            return
        self._settle()
        self._down = down
        self._state_changed(settled=True)
        for listener in list(self.status_listeners):
            listener(down)

    def reset_flows(self, error: NetworkError | None = None) -> None:
        """Abort the active flow, if any (e.g. hard handover kills connections)."""
        if self._flow is not None:
            self._flow.abort(error or NetworkError(f"{self.name}: flows reset"))

    # -- internal fluid machinery ----------------------------------------------

    def _advance_capacity(self) -> None:
        """Step the segment schedule forward to the one covering ``now``.

        Boundaries accumulate as ``end + duration`` — the floats a
        process sleeping ``duration`` at each boundary would wake at —
        so a settlement at a boundary sees the same ``elapsed`` whether
        or not the link was watched in between.
        """
        end = self._segment_end
        now = self.env.now
        if end > now:
            return
        segments = self._segments
        while end <= now:
            duration, rate = next(segments)
            end = end + duration
        self._capacity = rate
        self._segment_end = end

    def _boundary(self) -> None:
        """A segment ended while a flow was (or had just been) active.

        Settles and re-rates even if the rate did not change: the split
        of ``elapsed`` at the boundary is part of every byte count's
        rounding.  A link left without a flow ends the chain; the next
        ``start_flow`` arms a new one.
        """
        self._state_changed()
        if self._flow is not None:
            self.env.call_at(self._segment_end, self._boundary)
        else:
            self._armed = False

    def _settle(self) -> None:
        """Account bytes delivered since the last rate change."""
        now = self.env.now
        elapsed = now - self._last_settle
        self._last_settle = now
        flow = self._flow
        if elapsed <= 0 or flow is None:
            return
        delivered = min(flow.rate * elapsed, flow.remaining)
        if delivered > 0:
            flow.remaining -= delivered
            self.bytes_carried += delivered

    def _detach(self, flow: FlowHandle) -> None:
        if flow is self._flow:
            self._settle()
            self._flow = None
            self._state_changed(settled=True)

    def _state_changed(self, settled: bool = False) -> None:
        """Recompute the flow's rate and (re)arm the next wake-up.

        The wake-up is the earlier of (a) the flow's completion at its
        current rate and (b) its next slow-start doubling while its cap
        binds the rate — the closed-form substitute for the
        per-exchange pacer process.  With a flow present it also steps
        the capacity schedule to ``now`` and makes sure the
        segment-boundary chain is armed; without one, capacity is left
        alone and nothing is scheduled.
        """
        if not settled:
            self._settle()
        self._version += 1
        flow = self._flow
        if flow is None:
            return
        now = self.env.now

        # Catch up the analytic slow-start schedule before rating: every
        # doubling instant that has passed takes effect here, so the cap
        # is exact whenever the rate is recomputed.
        if flow._ramp_at is not None:
            flow._advance_ramp(now)

        # Complete a flow that has (numerically) hit zero remaining
        # bytes.  The microbyte tolerance absorbs float crumbs from the
        # rate*elapsed settlements; real chunks are >= 16 KB.
        if flow.remaining <= 1e-6:
            self._flow = None
            flow.rate = 0.0
            flow.remaining = 0.0
            flow.finished_at = now
            flow.done.succeed(flow)
            self._version += 1
            return

        self._advance_capacity()
        if not self._armed:
            # ``call_at``, not ``call_later``: ``now + (end - now)`` can
            # land an ulp off the boundary and move every later byte count.
            self._armed = True
            self.env.call_at(self._segment_end, self._boundary)
        capacity = 0.0 if self._down else self._capacity
        # Test the cap first, so ``rate == cap`` holds exactly when the
        # cap binds.
        cap = flow.cap
        rate = flow.rate = cap if cap <= capacity else capacity
        next_event = flow.remaining / rate if rate > 0 else math.inf
        if flow._ramp_at is not None and rate == cap:
            # A doubling only changes the rate while the cap binds; an
            # unbinding cap is advanced analytically at the next change.
            next_event = min(next_event, flow._ramp_at - now)
        if math.isfinite(next_event):
            # Floor the delay at one representable step of the clock so
            # the wake-up is guaranteed to advance time (otherwise a
            # sub-ulp completion would respin at the same timestamp
            # forever).
            minimum_step = math.ulp(now) * 4.0 + 1e-12
            self._arm_wake(max(next_event, minimum_step))

    def _arm_wake(self, delay: float) -> None:
        """Schedule the next rate-change wake-up on the fast lane.

        ``call_later`` queues the bound callback directly: no Timeout,
        no Event, no lambda — zero allocations beyond the partial, and
        the same single FIFO-counter bump as the Timeout it replaced,
        so dispatch order is unchanged.  Stale wake-ups are filtered by
        the version counter.
        """
        self.env.call_later(delay, partial(self._wake, self._version))

    def _wake(self, version: int) -> None:
        if version == self._version:
            self._state_changed()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "down" if self._down else f"{self._capacity:.0f}B/s"
        return f"<Link {self.name} {state} flow={self._flow!r}>"
