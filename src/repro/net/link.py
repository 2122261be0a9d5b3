"""Fluid bottleneck link with max-min (processor-sharing) bandwidth sharing.

Each wireless interface in the paper's testbed has one bottleneck — the
WiFi airlink or the LTE radio bearer.  We model each as a :class:`Link`:

* capacity follows a :class:`~repro.net.bandwidth.BandwidthProcess`
  (piecewise constant);
* concurrently active flows share capacity max-min fairly, with
  per-flow *rate caps* used by the TCP model to express slow-start and
  receive-window limits;
* the link can be taken down/up to model mobility events (the WiFi
  break scenario of §2 "Robust Data Transport").

The implementation is event-driven fluid simulation: whenever the flow
set, a cap, or the capacity changes, the link settles the bytes
delivered since the last change, recomputes the allocation, and
schedules the next completion.  Stale wake-ups are filtered with a
version counter, so no O(n²) cancellation bookkeeping is needed.

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


def max_min_allocation(capacity: float, caps: list[float]) -> list[float]:
    """Max-min fair rates for flows with upper bounds ``caps``.

    Classic water-filling, done in one linear pass over the caps sorted
    ascending: walking up the sorted order, a flow whose cap is below
    the equal share of the remaining capacity is frozen at its cap and
    the surplus is redistributed among the flows still unfrozen; the
    first flow whose cap exceeds its share ends the walk — it and every
    later (larger-capped) flow get the equal share.

    >>> max_min_allocation(10.0, [2.0, float("inf")])
    [2.0, 8.0]
    >>> max_min_allocation(9.0, [float("inf")] * 3)
    [3.0, 3.0, 3.0]
    """
    if capacity < 0:
        raise ConfigError("capacity must be non-negative")
    n = len(caps)
    if n == 0:
        return []
    rates = [0.0] * n
    remaining = capacity
    order = sorted(range(n), key=lambda i: caps[i])
    for position, index in enumerate(order):
        share = remaining / (n - position)
        cap = caps[index]
        if cap <= share:
            rates[index] = cap
            remaining -= cap
        else:
            for unfrozen in order[position:]:
                rates[unfrozen] = share
            break
    return rates


class FlowHandle:
    """A single fluid transfer in progress on a link.

    Exposes the completion :class:`Event` (``done``), live accounting
    (``bytes_delivered``, ``rate``), and knobs the TCP model uses
    (``set_cap``).  A flow may carry a *slow-start ramp*: its cap
    doubles every ``ramp_rtt`` seconds up to ``ramp_limit``, with the
    doubling instants computed analytically by the link (no pacer
    process, no per-doubling timeout events).  Cancel with
    :meth:`abort` (fails ``done`` with the given exception).
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
        if total_bytes <= 0:
            raise ConfigError(f"flow size must be positive, got {total_bytes}")
        if cap <= 0:
            raise ConfigError(f"flow cap must be positive, got {cap}")
        if ramp_rtt is not None and ramp_rtt <= 0:
            raise ConfigError(f"ramp_rtt must be positive, got {ramp_rtt}")
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

    def set_cap(self, cap: float) -> None:
        """Update the flow's rate cap (bytes/s); ``inf`` removes it."""
        if cap <= 0:
            raise ConfigError(f"flow cap must be positive, got {cap}")
        if not self.active:
            return
        self.cap = float(cap)
        self.link._state_changed()

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
    """One bottleneck link: lazily advanced capacity schedule + active flow set."""

    __slots__ = (
        "env",
        "name",
        "bandwidth",
        "_capacity",
        "_segment_end",
        "_armed",
        "_flows",
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
        self._flows: list[FlowHandle] = []
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
        return len(self._flows)

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

        Raises :class:`~repro.errors.LinkDownError` immediately if the
        link is down — starting a transfer needs connectivity, whereas
        flows already in progress merely stall while down.
        """
        if self._down:
            raise LinkDownError(f"{self.name} is down")
        flow = FlowHandle(self, total_bytes, cap, ramp_rtt=ramp_rtt, ramp_limit=ramp_limit)
        self._settle()
        self._flows.append(flow)
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
        """Abort every active flow (e.g. hard handover kills connections)."""
        for flow in list(self._flows):
            flow.abort(error or NetworkError(f"{self.name}: flows reset"))

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
        """A segment ended while flows were (or had just been) active.

        Settles and re-allocates even if the rate did not change: the
        split of ``elapsed`` at the boundary is part of every byte
        count's rounding.  A link left without flows ends the chain;
        the next ``start_flow`` arms a new one.
        """
        self._state_changed()
        if self._flows:
            self.env.call_at(self._segment_end, self._boundary)
        else:
            self._armed = False

    def _settle(self) -> None:
        """Account bytes delivered since the last allocation change."""
        now = self.env.now
        elapsed = now - self._last_settle
        self._last_settle = now
        if elapsed <= 0:
            return
        for flow in self._flows:
            delivered = min(flow.rate * elapsed, flow.remaining)
            if delivered > 0:
                flow.remaining -= delivered
                self.bytes_carried += delivered

    def _detach(self, flow: FlowHandle) -> None:
        if flow in self._flows:
            self._settle()
            self._flows.remove(flow)
            self._state_changed(settled=True)

    def _state_changed(self, settled: bool = False) -> None:
        """Recompute allocation and (re)arm the next wake-up.

        The wake-up is the earliest of (a) the next flow completion at
        current rates and (b) the next slow-start doubling of a flow
        whose cap currently binds its rate — the closed-form substitute
        for the per-exchange pacer process.  With flows present it also
        steps the capacity schedule to ``now`` and makes sure the
        segment-boundary chain is armed; without any, capacity is left
        alone and nothing is scheduled.
        """
        if not settled:
            self._settle()
        self._version += 1
        now = self.env.now

        # Catch up the analytic slow-start schedules before allocating:
        # every doubling instant that has passed takes effect here, so
        # the caps are exact whenever the allocation is recomputed.
        for flow in self._flows:
            if flow._ramp_at is not None:
                flow._advance_ramp(now)

        # Complete flows that have (numerically) hit zero remaining
        # bytes.  The microbyte tolerance absorbs float crumbs from the
        # rate*elapsed settlements; real chunks are >= 16 KB.
        finished = [f for f in self._flows if f.remaining <= 1e-6]
        if finished:
            for flow in finished:
                self._flows.remove(flow)
                flow.rate = 0.0
                flow.remaining = 0.0
                flow.finished_at = now
                flow.done.succeed(flow)
            self._version += 1

        flows = self._flows
        if not flows:
            return
        self._advance_capacity()
        if not self._armed:
            # ``call_at``, not ``call_later``: ``now + (end - now)`` can
            # land an ulp off the boundary and move every later byte count.
            self._armed = True
            self.env.call_at(self._segment_end, self._boundary)
        capacity = 0.0 if self._down else self._capacity
        rates = max_min_allocation(capacity, [f.cap for f in flows])
        next_event = math.inf
        for flow, rate in zip(flows, rates, strict=True):
            flow.rate = rate
            if rate > 0:
                next_event = min(next_event, flow.remaining / rate)
        for flow in flows:
            # A doubling only changes the allocation while the cap binds
            # (rates are exactly the cap for saturated flows); unbinding
            # caps are advanced analytically at the next state change.
            if flow._ramp_at is not None and flow.rate == flow.cap:
                next_event = min(next_event, flow._ramp_at - now)
        if math.isfinite(next_event):
            # Floor the delay at one representable step of the clock so
            # the wake-up is guaranteed to advance time (otherwise a
            # sub-ulp completion would respin at the same timestamp
            # forever).
            minimum_step = math.ulp(now) * 4.0 + 1e-12
            self._arm_wake(max(next_event, minimum_step))

    def _arm_wake(self, delay: float) -> None:
        """Schedule the next allocation-change wake-up on the fast lane.

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
        return f"<Link {self.name} {state} flows={len(self._flows)}>"
