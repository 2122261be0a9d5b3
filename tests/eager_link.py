"""Reference oracle: the link as it was before capacity went lazy.

``EagerLink`` is the product's old ``Link`` class kept verbatim — one
generator process per link wakes at *every* bandwidth-segment boundary,
settles, stores the new rate and re-allocates, whether or not a flow is
there to notice.  The lazy :class:`repro.net.link.Link` must agree with
it bit for bit on everything a flow can observe (completion times,
``bytes_carried``, capacity, ``finished_at``); only the number of kernel
events may differ.  Flow handles are shared with the product.

The product link carries one flow and refuses a second, so it lost its
allocators; the oracle owns them now, verbatim as the old link ran
them: the scalar ``max_min_allocation`` (moved here from
``repro.net.link``), and the numpy threshold and array allocator for
eight or more flows.  ``EagerLink`` itself still shares capacity among
any number of flows; the lazy wall never starts a second flow on a busy
link, so the two are compared on one-flow schedules only.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from functools import partial

import numpy as np

from repro.errors import ConfigError, LinkDownError, NetworkError
from repro.net.bandwidth import BandwidthProcess
from repro.net.env import Environment
from repro.net.link import FlowHandle


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


#: Flow count at and above which the link switches from per-flow Python
#: arithmetic to one vectorized numpy pass (settlement, allocation, and
#: completion scheduling).  Below the threshold the scalar code runs so
#: small experiments keep their historical bit-exact outputs; the two
#: paths agree to float rounding (reduction order differs), and the
#: path taken depends on the flow count alone.
_VECTOR_THRESHOLD = 8


def _max_min_allocation_array(capacity: float, caps: "np.ndarray") -> "np.ndarray":
    """Vectorized water-filling over a cap array (large flow counts).

    Same algorithm as :func:`max_min_allocation` in one numpy pass:
    with caps sorted ascending every flow before the first cap
    exceeding its equal share is frozen at its cap, and that first flow
    and all later ones get the share.  Frozen rates are *copied* from
    the caps, so ``rate == cap`` comparisons stay bitwise-exact.
    """
    n = caps.size
    order = np.argsort(caps, kind="stable")
    sorted_caps = caps[order]
    frozen_before = np.empty(n)
    frozen_before[0] = 0.0
    np.cumsum(sorted_caps[:-1], out=frozen_before[1:])
    shares = (capacity - frozen_before) / np.arange(n, 0, -1)
    unfrozen = sorted_caps > shares
    rates_sorted = sorted_caps.copy()
    if unfrozen.any():
        first = int(np.argmax(unfrozen))
        rates_sorted[first:] = shares[first]
    rates = np.empty(n)
    rates[order] = rates_sorted
    return rates


class EagerLink:
    """The pre-lazy link, verbatim: a generator process applies every segment."""

    __slots__ = (
        "env",
        "name",
        "bandwidth",
        "capacity",
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
        self.capacity = bandwidth.mean_rate
        self._flows: list[FlowHandle] = []
        self._version = 0
        self._last_settle = env.now
        self._down = False
        #: Total bytes this link has carried (for Table 1 accounting).
        self.bytes_carried = 0.0
        #: Observers notified on up/down transitions (mobility handling).
        self.status_listeners: list[Callable[[bool], None]] = []
        self._segments: Iterator[tuple[float, float]] = bandwidth.segments()
        env.process(self._capacity_process())

    # -- public API -----------------------------------------------------------

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

    def _capacity_process(self):
        """Apply the bandwidth process's piecewise-constant segments."""
        for duration, rate in self._segments:
            self._settle()
            self.capacity = rate
            self._state_changed(settled=True)
            yield self.env.pooled_timeout(duration)

    def _settle(self) -> None:
        """Account bytes delivered since the last allocation change."""
        now = self.env.now
        elapsed = now - self._last_settle
        self._last_settle = now
        if elapsed <= 0:
            return
        flows = self._flows
        if len(flows) >= _VECTOR_THRESHOLD:
            rates = np.array([f.rate for f in flows])
            remaining = np.array([f.remaining for f in flows])
            delivered = np.minimum(rates * elapsed, remaining)
            total = float(delivered.sum())
            if total > 0.0:
                remaining -= delivered
                for flow, left in zip(flows, remaining.tolist(), strict=True):
                    flow.remaining = left
                self.bytes_carried += total
            return
        for flow in flows:
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
        for the per-exchange pacer process.
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

        capacity = 0.0 if self._down else self.capacity
        flows = self._flows
        if len(flows) >= _VECTOR_THRESHOLD:
            caps = np.array([f.cap for f in flows])
            rate_array = _max_min_allocation_array(capacity, caps)
            remaining = np.array([f.remaining for f in flows])
            completion = np.full(len(flows), math.inf)
            np.divide(remaining, rate_array, out=completion, where=rate_array > 0.0)
            next_event = float(completion.min())
            for flow, rate in zip(flows, rate_array.tolist(), strict=True):
                flow.rate = rate
        else:
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
        state = "down" if self._down else f"{self.capacity:.0f}B/s"
        return f"<EagerLink {self.name} {state} flows={len(self._flows)}>"
