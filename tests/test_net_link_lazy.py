"""The lazy link against its eager oracle, plus the points the design rests on.

``tests/eager_link.py`` keeps the old link, which ran a generator
process that woke at every bandwidth-segment boundary.  The product
link has no such process: capacity is advanced when someone looks and
boundaries are scheduled only while a flow exists.  Everything a flow
can observe must agree **bit for bit** — these tests compare floats
with ``==``, never ``approx``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LinkDownError, NetworkError
from repro.net.bandwidth import (
    ARLogNormalBandwidth,
    CompositeBandwidth,
    ConstantBandwidth,
    MarkovBandwidth,
    TraceBandwidth,
)
from repro.net.env import Environment
from repro.net.link import Link

from eager_link import EagerLink


def _generator(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, stream]))


def _ar(seed: int) -> ARLogNormalBandwidth:
    # interval=0.3 is not a binary fraction: boundaries only agree if
    # they are accumulated exactly as the eager process slept them.
    return ARLogNormalBandwidth(1.5e6, sigma=0.5, rng=_generator(seed, 0), rho=0.7, interval=0.3)


def _markov(seed: int) -> MarkovBandwidth:
    return MarkovBandwidth([(2.0e6, 0.8), (4.0e5, 0.3), (1.0e6, 0.5)], rng=_generator(seed, 1))


def _trace(loop: bool) -> TraceBandwidth:
    return TraceBandwidth([(0.3, 1.0e6), (0.7, 2.0e5), (1.1, 3.0e6)], loop=loop)


#: name -> factory(seed) of a fresh bandwidth process; two calls with
#: one seed yield the same segment stream.
PROCESSES = {
    "constant": lambda seed: ConstantBandwidth(1.0e6),
    # Boundaries every accumulated 0.1 s: near, but mostly not on, the
    # schedules' 1/10 s instants.
    "constant-tenth": lambda seed: ConstantBandwidth(1.0e6, segment_duration=0.1),
    "ar": _ar,
    # A binary interval: boundaries land exactly on schedule instants.
    "ar-quarter": lambda seed: ARLogNormalBandwidth(
        1.5e6, sigma=0.8, rng=_generator(seed, 2), rho=0.3, interval=0.25
    ),
    "markov": _markov,
    "markov-chain": lambda seed: MarkovBandwidth(
        [(2.0e6, 0.4), (1.0e5, 0.2), (8.0e5, 0.6)],
        rng=_generator(seed, 3),
        transitions=[[0.0, 0.5, 0.5], [0.9, 0.0, 0.1], [0.3, 0.7, 0.0]],
        initial_state=1,
    ),
    "composite": lambda seed: CompositeBandwidth(_ar(seed), _markov(seed)),
    "composite-trace": lambda seed: CompositeBandwidth(_trace(loop=True), _ar(seed)),
    "trace": lambda seed: _trace(loop=False),
    "trace-looped": lambda seed: _trace(loop=True),
}

# -- schedules ---------------------------------------------------------------

#: Half the instants sit on a 1/10 s grid, so they coincide with the
#: 0.3 s / 1 s / trace boundaries all the time; the rest are arbitrary.
_times = st.one_of(
    st.integers(min_value=0, max_value=120).map(lambda tenth: tenth / 10.0),
    st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
)
_sizes = st.floats(min_value=2.0e3, max_value=4.0e6)
_caps = st.one_of(st.just(math.inf), st.floats(min_value=2.0e4, max_value=5.0e6))
_ramps = st.one_of(
    st.none(),
    st.tuples(
        st.floats(min_value=0.01, max_value=0.3),
        st.one_of(st.just(math.inf), st.floats(min_value=1.0e5, max_value=5.0e6)),
    ),
)
_ops = st.one_of(
    st.tuples(st.just("start"), _times, _sizes, _caps, _ramps),
    st.tuples(st.just("abort"), _times, st.integers(min_value=0, max_value=15)),
    st.tuples(st.just("cap"), _times, st.integers(min_value=0, max_value=15), _caps),
    st.tuples(st.just("down"), _times),
    st.tuples(st.just("up"), _times),
    st.tuples(st.just("reset"), _times),
    st.tuples(st.just("probe"), _times),
)
_schedules = st.lists(_ops, min_size=1, max_size=24).map(
    lambda ops: sorted(ops, key=lambda op: op[1])
)


def _apply(env, link, flows, log, op, read_rates):
    """Perform one schedule entry on ``link`` now and log what is visible.

    ``read_rates`` adds the link's capacity and the flows' allocated
    rates — the two things that depend on *which* segment the instant
    belongs to.
    """
    kind = op[0]
    if kind == "start":
        _kind, _when, size, cap, ramp = op
        ramp_rtt, ramp_limit = ramp if ramp is not None else (None, math.inf)
        index = len(flows)
        try:
            flow = link.start_flow(size, cap=cap, ramp_rtt=ramp_rtt, ramp_limit=ramp_limit)
        except LinkDownError:
            flows.append(None)
            log.append(("refused", index, env.now))
            return
        flows.append(flow)
        flow.done.callbacks.append(
            lambda event, index=index, flow=flow: log.append(
                ("done", index, env.now, event.ok, flow.finished_at, flow.bytes_delivered)
            )
        )
    elif kind in ("abort", "cap"):
        flow = flows[op[2] % len(flows)] if flows else None
        if flow is not None:
            if kind == "abort":
                flow.abort(NetworkError("test abort"))
            else:
                flow.set_cap(op[3])
    elif kind == "down":
        link.set_down(True)
    elif kind == "up":
        link.set_down(False)
    elif kind == "reset":
        link.reset_flows()
    live = [flow for flow in flows if flow is not None]
    state = (
        link.bytes_carried,
        link.active_flow_count,
        link.is_down,
        [(flow.remaining, flow.cap) for flow in live],
        (link.capacity, [flow.rate for flow in live]) if read_rates else None,
    )
    log.append(("state", kind, env.now, state))


def _replay(link_class, process, schedule, drive):
    """Run ``schedule`` against one link; return everything observable.

    ``drive="outside"`` stops the clock at each instant (every event up
    to and including it dispatched) and acts from outside the kernel.
    ``drive="callbacks"`` queues every entry up front on the fast lane,
    so entries run *before* any co-timed boundary or completion.  That
    is the one order in which the eager link, acting on a boundary
    instant, still allocates from the old segment's rate for the zero
    seconds until its boundary event fires (the lazy link has already
    stepped); no byte moves in zero seconds, so capacity and rates are
    read from outside only and everything else must still agree.
    """
    env = Environment()
    link = link_class(env, process, name="wlan0")
    flows: list = []
    log: list = []
    if drive == "outside":
        for op in schedule:
            env.run(until=op[1])
            _apply(env, link, flows, log, op, read_rates=True)
    else:
        for op in schedule:
            env.call_at(op[1], lambda op=op: _apply(env, link, flows, log, op, False))
    env.run(until=schedule[-1][1] + 90.0)
    log.append(("end", link.bytes_carried, link.active_flow_count, link.capacity))
    return log


@pytest.mark.parametrize("drive", ["outside", "callbacks"])
@pytest.mark.parametrize("process", sorted(PROCESSES))
@settings(max_examples=40, deadline=None)
@given(schedule=_schedules, seed=st.integers(min_value=0, max_value=2**20))
def test_lazy_link_equals_the_eager_oracle(process, drive, schedule, seed):
    make = PROCESSES[process]
    lazy = _replay(Link, make(seed), schedule, drive)
    eager = _replay(EagerLink, make(seed), schedule, drive)
    assert lazy == eager


# -- the points the design rests on -----------------------------------------------


class _RecordingEnvironment(Environment):
    """Records every ``call_at`` instant (the boundary lane) in ``calls``."""

    __slots__ = ("calls",)

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[float] = []

    def call_at(self, when, callback):
        self.calls.append(when)
        super().call_at(when, callback)


class TestIdleLinksAreFree:
    @pytest.mark.parametrize("process", sorted(PROCESSES))
    def test_an_idle_link_schedules_nothing_for_an_hour(self, process):
        env = Environment()
        link = Link(env, PROCESSES[process](7))
        assert env.scheduled_count == 0
        env.run(until=3600.0)
        assert env.scheduled_count == 0
        assert env.peek() == math.inf
        assert link.capacity > 0.0

    def test_capacity_after_an_idle_hour_is_the_eager_one(self):
        lazy_env, eager_env = Environment(), Environment()
        lazy = Link(lazy_env, _ar(3))
        eager = EagerLink(eager_env, _ar(3))
        for until in (0.0, 0.3, 17.05, 3600.0):
            lazy_env.run(until=until)
            eager_env.run(until=until)
            assert lazy.capacity == eager.capacity
        assert lazy_env.scheduled_count == 0 < eager_env.scheduled_count

    def test_the_boundary_chain_stops_once_the_link_drains(self):
        env = Environment()
        link = Link(env, ConstantBandwidth(1.0e6))
        flow = link.start_flow(2.5e5)
        env.run(until=5.0)
        assert flow.finished_at == 0.25
        scheduled = env.scheduled_count
        env.run(until=3600.0)
        assert env.scheduled_count == scheduled

    def test_set_down_while_idle_schedules_nothing(self):
        env = Environment()
        link = Link(env, _ar(5))
        seen: list[bool] = []
        link.status_listeners.append(seen.append)
        env.run(until=2.0)
        link.set_down(True)
        assert seen == [True] and link.is_down
        with pytest.raises(LinkDownError):
            link.start_flow(1.0e4)
        env.run(until=40.0)
        link.set_down(False)
        assert seen == [True, False]
        assert env.scheduled_count == 0
        flow = link.start_flow(1.0e4)
        env.run(until=60.0)
        assert flow.finished_at is not None

    def test_capacity_is_read_only(self):
        link = Link(Environment(), ConstantBandwidth(1.0e6))
        with pytest.raises(AttributeError):
            link.capacity = 5.0  # type: ignore[misc]


class TestBoundaries:
    @pytest.mark.parametrize("drive", ["outside", "callbacks"])
    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: _ar(11), id="ar"),
            # The same boundaries with no rate change across them.
            pytest.param(lambda: ConstantBandwidth(1.5e6, segment_duration=0.3), id="constant"),
        ],
    )
    def test_a_flow_starting_exactly_on_a_boundary(self, make, drive):
        # 0.3 accumulated twelve times is the eager process's 12th
        # wake-up float: 3.599999999999999, neither 3.6 nor 12 * 0.3.
        boundary = 0.0
        for _ in range(12):
            boundary = boundary + 0.3
        assert boundary != 3.6 and boundary != 12 * 0.3
        schedule = [("start", boundary, 6.0e5, math.inf, None), ("probe", boundary + 0.45)]
        lazy = _replay(Link, make(), schedule, drive)
        eager = _replay(EagerLink, make(), schedule, drive)
        assert lazy == eager
        assert any(entry[0] == "done" for entry in lazy)

    def test_boundaries_are_absolute_accumulated_floats(self):
        env = _RecordingEnvironment()
        calls = env.calls
        link = Link(env, ConstantBandwidth(1.0e5, segment_duration=0.1))
        env.run(until=0.25)
        link.start_flow(1.0e5)
        env.run(until=0.95)
        expected, end = [], 0.0
        while end <= 0.95:
            end = end + 0.1
            if end > 0.25:
                expected.append(end)
        assert calls == expected
        assert 0.30000000000000004 in calls and 0.7999999999999999 in calls

    def test_the_boundary_is_scheduled_at_its_own_float_not_now_plus_delay(self):
        end, start = 3.599999999999999, 1.4407255710555906
        assert start + (end - start) != end  # what call_later would land on
        env = _RecordingEnvironment()
        calls = env.calls
        link = Link(env, ConstantBandwidth(1.0e5, segment_duration=end))
        env.run(until=start)
        link.start_flow(1.0e6)
        assert calls == [end]

    def test_drain_and_refill_inside_one_segment_keeps_one_chain(self):
        env = _RecordingEnvironment()
        calls = env.calls
        link = Link(env, ConstantBandwidth(1.0e6))
        first = link.start_flow(1.0e5)
        env.run(until=0.5)
        assert first.finished_at == 0.1 and link.active_flow_count == 0
        second = link.start_flow(1.0e5)
        env.run(until=0.9)
        assert second.finished_at == 0.6
        assert calls == [1.0]
        # The chain's one pending wake-up finds no flow and ends it...
        env.run(until=1.5)
        assert calls == [1.0]
        # ...and the next flow starts a new one at the *next* boundary.
        link.start_flow(1.0e5)
        assert calls == [1.0, 2.0]

    def test_an_unchanged_rate_boundary_still_settles(self):
        """Skipping a boundary whose rate does not change would move the
        rounding of ``remaining``: the eager link settled there."""
        lazy_env, eager_env = Environment(), Environment()
        lazy = Link(lazy_env, ConstantBandwidth(3.0e5, segment_duration=0.7))
        eager = EagerLink(eager_env, ConstantBandwidth(3.0e5, segment_duration=0.7))
        flows = [link.start_flow(1.0e6 / 3.0) for link in (lazy, eager)]
        for env in (lazy_env, eager_env):
            env.run(until=0.9)
        assert flows[0].remaining == flows[1].remaining
        assert lazy.bytes_carried == eager.bytes_carried
        for env in (lazy_env, eager_env):
            env.run(until=5.0)
        assert flows[0].finished_at == flows[1].finished_at
        assert lazy.bytes_carried == eager.bytes_carried

    def test_flows_stalled_on_a_down_link_keep_the_chain_alive(self):
        env = _RecordingEnvironment()
        calls = env.calls
        link = Link(env, ConstantBandwidth(1.0e6))
        flow = link.start_flow(1.0e6)
        env.run(until=0.5)
        link.set_down(True)
        env.run(until=3.5)
        assert calls == [1.0, 2.0, 3.0, 4.0] and flow.active
        link.set_down(False)
        env.run(until=10.0)
        assert flow.finished_at == 4.0
