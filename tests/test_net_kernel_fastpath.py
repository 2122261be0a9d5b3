"""Kernel fast paths: slotted events, clone-free resume, closed-form slow start.

These pin the microbehaviour the perf work must not change:

* the heap's total order: time, then priority (urgent first), then
  FIFO; ``+inf`` entries pend behind every finite one; ``run(until=)``
  dispatches the boundary instant and nothing after it;
* yielding an *already-processed* event resumes the process at the same
  timestamp with the event's original outcome (success and failure);
* ``run()``, stepwise ``run(until=<time>)`` and ``run(until=<event>)``
  dispatch drawn mixed-lane schedules exactly as the two-copy kernel
  kept in ``tests/two_copy_kernel/`` did;
* the link's analytic slow-start schedule reproduces the doubling
  timeline the per-exchange pacer process used to produce.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClockError, ConfigError, SimulationError
from repro.net.bandwidth import ConstantBandwidth
from repro.net.env import EmptySchedule, Environment
from repro.net.link import Link
from two_copy_kernel.env import Environment as TwoCopyEnvironment


class TestHeapOrdering:
    def test_empty_queue_peeks_inf_and_never_reaches_an_event(self, env):
        assert env.peek() == math.inf
        with pytest.raises(EmptySchedule):
            env.run(until=env.event())

    def test_same_time_priority_then_fifo(self, env):
        """At one instant, urgent entries (process starts) dispatch
        before normal ones, and each priority class in schedule order."""
        env.run(until=5.0)
        order = []

        def start(tag):
            order.append(tag)
            yield from ()

        for index in range(20):
            env.call_later(0.0, lambda index=index: order.append(("normal", index)))
        for index in range(20):
            env.process(start(("urgent", index)))
        env.run()
        assert order == [("urgent", i) for i in range(20)] + [("normal", i) for i in range(20)]
        assert env.now == 5.0

    def test_infinite_times_pend_behind_every_finite_entry(self, env):
        fired = []
        for index in range(3):
            env.timeout(math.inf).callbacks.append(lambda _e, index=index: fired.append(index))
        env.call_at(1.0, lambda: fired.append("soon"))
        assert env.peek() == 1.0
        env.run(until=1e300)
        assert fired == ["soon"] and env.peek() == math.inf
        env.run()
        assert fired == ["soon", 0, 1, 2]

    def test_run_until_dispatches_the_boundary_instant_only(self, env):
        order = []
        env.call_at(2.0, lambda: order.append(("at", env.now)))
        env.call_at(2.5, lambda: order.append(("after", env.now)))
        env.run(until=2.0)
        assert order == [("at", 2.0)] and env.now == 2.0
        # Scheduled after the boundary, due before the pending entry.
        env.call_later(0.25, lambda: order.append(("late", env.now)))
        env.run()
        assert order == [("at", 2.0), ("late", 2.25), ("after", 2.5)]

    def test_scheduled_count_counts_every_lane(self, env):
        early = env.timeout(1.0)  # event lane
        env.call_later(1.0, lambda: None)  # fast lane

        def late(env):
            yield env.pooled_timeout(2.0)  # pooled lane
            yield early  # processed: the direct-resume lane

        env.process(late(env))  # an urgent Initialize entry
        env.run()
        # + the resume entry and the process's own completion event
        assert env.scheduled_count == 6

    def test_far_future_entries_dispatch_in_time_order(self, env):
        times = [1000.0 + i * 7.0 for i in range(50)]
        fired = []
        for when in reversed(times):
            env.call_at(when, lambda: fired.append(env.now))
        env.run()
        assert fired == times

    def test_infinite_entries_drain_in_schedule_order(self, env):
        fired = []
        for index in range(5):
            env.timeout(math.inf).callbacks.append(lambda _e, index=index: fired.append(index))
        assert env.peek() == math.inf
        env.run()
        assert fired == [0, 1, 2, 3, 4]

    @settings(max_examples=100, deadline=None)
    @given(
        times=st.lists(
            st.one_of(
                st.sampled_from([0.0, 0.5, 1.0, 1.0, 999.0, math.inf]),
                st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
            ),
            max_size=60,
        )
    )
    def test_dispatch_is_a_stable_sort_by_time(self, times):
        env = Environment()
        order = []
        for index, when in enumerate(times):
            env.call_at(when, lambda index=index: order.append(index))
        env.run()
        assert order == sorted(range(len(times)), key=times.__getitem__)

    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("push"),
                    st.one_of(
                        st.sampled_from([0.0, 0.0, 1e-12, 0.5, 1.0, 1.0, 999.0, 1e6]),
                        st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
                    ),
                    st.sampled_from(["event", "callback"]),
                ),
                st.tuples(st.just("run")),
            ),
            min_size=1,
            max_size=120,
        )
    )
    def test_scheduling_while_dispatching_matches_a_sorted_reference(self, ops):
        """Entries pushed relative to the last dispatch (as a running
        environment pushes them), on the event and fast lanes, pop in
        ``(time, schedule order)`` — the order of a sorted list.  Each
        ``run`` op runs to the earliest pending time, which dispatches
        every entry due then and nothing later."""
        env = Environment()
        dispatched, expected, pending = [], [], []
        for op in ops:
            if op[0] == "push":
                _push, delay, lane = op
                token = len(pending) + len(expected)
                if lane == "event":
                    env.timeout(delay).callbacks.append(
                        lambda _e, token=token: dispatched.append(token)
                    )
                else:
                    env.call_at(env.now + delay, lambda token=token: dispatched.append(token))
                pending.append((env.now + delay, token))
            elif pending:
                pending.sort()
                when = pending[0][0]
                while pending and pending[0][0] == when:
                    expected.append(pending.pop(0)[1])
                env.run(until=when)
                assert env.now == when
        env.run()
        assert dispatched == expected + [token for _when, token in sorted(pending)]

    @settings(max_examples=50, deadline=None)
    @given(
        first=st.floats(min_value=0.0, max_value=10.0),
        far=st.floats(min_value=100.0, max_value=1e6),
        boundary=st.floats(min_value=10.0, max_value=99.0),
        late_delay=st.floats(min_value=0.0, max_value=500.0),
    )
    def test_entries_scheduled_after_a_run_boundary_keep_time_order(
        self, first, far, boundary, late_delay
    ):
        env = Environment()
        order = []
        env.call_at(first, lambda: order.append(("first", env.now)))
        env.call_at(far, lambda: order.append(("far", env.now)))
        env.call_at(far * 2.0, lambda: order.append(("farther", env.now)))
        env.run(until=boundary)
        assert order == [("first", first)] and env.now == boundary
        env.call_later(late_delay, lambda: order.append(("late", env.now)))
        env.run()
        expected = sorted(
            [
                (first, 0, "first"),
                (far, 1, "far"),
                (far * 2.0, 2, "farther"),
                (boundary + late_delay, 3, "late"),
            ]
        )
        assert order == [(name, when) for when, _index, name in expected]


class TestSlots:
    def test_event_types_reject_stray_attributes(self, env):
        event = env.event()
        timeout = env.timeout(1.0)

        def proc(env):
            yield env.timeout(0.0)

        process = env.process(proc(env))
        for obj in (event, timeout, process):
            with pytest.raises(AttributeError):
                obj.stray_attribute = 1
        env.run()

    def test_no_instance_dict(self, env):
        assert not hasattr(env.event(), "__dict__")
        assert not hasattr(env.timeout(1.0), "__dict__")


class TestProcessedTargetResume:
    def test_yielding_processed_event_delivers_value_same_time(self, env):
        early = env.timeout(1.0, value="payload")
        seen = []

        def late_waiter(env):
            yield env.timeout(2.0)
            value = yield early  # processed a full second ago
            seen.append((env.now, value))

        env.process(late_waiter(env))
        env.run()
        assert seen == [(2.0, "payload")]

    def test_yielding_processed_failure_raises_in_waiter(self, env):
        failed = env.event()
        failed.fail(ValueError("boom"))
        failed.defused = True  # nobody waits at its own dispatch

        def late_waiter(env):
            yield env.timeout(1.0)
            try:
                yield failed
            except ValueError as exc:
                return f"caught {exc}"

        process = env.process(late_waiter(env))
        env.run()
        assert process.value == "caught boom"

    def test_resume_ordering_is_fifo_among_urgent_events(self, env):
        """Two processes yielding processed events resume in the order
        they yielded, ahead of co-timed NORMAL events."""
        early = env.timeout(1.0, value="x")
        order = []

        def make_waiter(name):
            def waiter(env):
                yield env.timeout(2.0)
                yield early
                order.append(name)

            return waiter

        def normal_timer(env):
            yield env.timeout(2.0)
            yield env.timeout(0.0)  # NORMAL event at t=2
            order.append("timer")

        env.process(make_waiter("first")(env))
        env.process(make_waiter("second")(env))
        env.process(normal_timer(env))
        env.run()
        assert order == ["first", "second", "timer"]

class TestClosedFormSlowStart:
    def _link(self, env, rate=1e9):
        return Link(env, ConstantBandwidth(rate))

    def test_capped_flow_doubles_on_schedule(self, env):
        """cap₀=10 kB/s, RTT=1 s on an uncontended fat link: windows
        deliver 10k, 20k, 40k... bytes, so 61 440 bytes complete at
        2 + (61 440 − 30 000)/40 000 ≈ 2.786 s — the same timeline the
        pacer process produced."""
        link = self._link(env)
        flow = link.start_flow(61_440, cap=10_000.0, ramp_rtt=1.0, ramp_limit=1e12)
        env.run(until=flow.done)
        expected = 2.0 + (61_440 - 30_000) / 40_000
        assert env.now == pytest.approx(expected, rel=1e-9)

    def test_ramp_stops_at_limit(self, env):
        link = self._link(env, rate=1e9)
        flow = link.start_flow(300_000, cap=10_000.0, ramp_rtt=1.0, ramp_limit=40_000.0)
        env.run(until=flow.done)
        # Windows: 10k, 20k, then 40k/s forever: 300k total arrives at
        # 2 + (300k - 30k)/40k = 8.75 s.
        assert env.now == pytest.approx(2.0 + 270_000 / 40_000, rel=1e-9)
        assert flow.cap == pytest.approx(40_000.0)

    def test_unramped_flow_behaviour_unchanged(self, env):
        link = self._link(env, rate=1_000_000.0)
        flow = link.start_flow(500_000)
        env.run(until=flow.done)
        assert env.now == pytest.approx(0.5, rel=1e-9)

    def test_lone_ramp_only_wakes_while_cap_binds(self, env):
        """A lone ramping flow runs at its cap while the cap binds, and
        each doubling wakes the link.  At t=4 the cap doubles to
        160 kB/s, past the 100 kB/s link: the rate is the capacity from
        then on, and no later doubling schedules anything (the link's
        one segment outlasts the flow, so no boundary wakes it either)."""
        link = Link(env, ConstantBandwidth(100_000.0, segment_duration=100.0))
        flow = link.start_flow(1_000_000.0, cap=10_000.0, ramp_rtt=1.0, ramp_limit=1e9)
        env.run(until=3.0)
        # 10k + 20k + 40k: the cap bound for three whole seconds.
        assert flow.bytes_delivered == 70_000.0
        assert flow.rate == flow.cap == 80_000.0
        env.run(until=4.0)
        assert flow.bytes_delivered == 150_000.0
        assert flow.rate == 100_000.0 and flow.cap == 160_000.0
        scheduled = env.scheduled_count
        env.run(until=12.0)
        assert env.scheduled_count == scheduled
        # The remaining 850 kB at the link rate: 8.5 s after t=4.
        env.run(until=flow.done)
        assert flow.finished_at == 12.5
        assert link.bytes_carried == 1_000_000.0
        assert env.scheduled_count == scheduled + 1  # ``flow.done``

    def test_negative_ramp_rtt_rejected(self, env):
        link = self._link(env)
        with pytest.raises(ConfigError):
            link.start_flow(1000, cap=10.0, ramp_rtt=-1.0)


class TestCallbackFastLane:
    """`call_at` / `call_later`: bare callbacks, no Event machinery."""

    def test_call_later_fires_at_time(self, env):
        fired = []
        env.call_later(2.5, lambda: fired.append(env.now))
        env.run()
        assert fired == [2.5]

    def test_call_at_absolute(self, env):
        fired = []
        env.call_at(4.0, lambda: fired.append(env.now))
        env.call_at(1.0, lambda: fired.append(env.now))
        env.run()
        assert fired == [1.0, 4.0]

    def test_past_times_rejected(self, env):
        env.run(until=5.0)
        with pytest.raises(ClockError):
            env.call_at(4.9, lambda: None)
        with pytest.raises(ClockError):
            env.call_later(-0.1, lambda: None)
        # NaN compares false both ways, so each guard must fail it.
        with pytest.raises(ClockError):
            env.call_at(math.nan, lambda: None)
        with pytest.raises(ClockError):
            env.call_later(math.nan, lambda: None)
        with pytest.raises(ClockError):
            env.run(until=math.nan)
        with pytest.raises(ClockError):
            Environment(math.nan)
        with pytest.raises(ClockError):
            Environment(-1.0)
        assert env.now == 5.0 and env.peek() == math.inf

    def test_fifo_with_events_at_same_time(self, env):
        """Fast-lane entries share the one FIFO counter with events, so
        co-timed callbacks and timeouts dispatch in schedule order."""
        order = []
        env.timeout(1.0).callbacks.append(lambda _e: order.append("timeout-1"))
        env.call_at(1.0, lambda: order.append("callback-2"))
        env.timeout(1.0).callbacks.append(lambda _e: order.append("timeout-3"))
        env.call_later(1.0, lambda: order.append("callback-4"))
        env.run()
        assert order == ["timeout-1", "callback-2", "timeout-3", "callback-4"]

    def test_callback_may_schedule_more(self, env):
        fired = []

        def chain(depth):
            fired.append((depth, env.now))
            if depth < 3:
                env.call_later(1.0, lambda: chain(depth + 1))

        env.call_later(1.0, lambda: chain(0))
        env.run()
        assert fired == [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]

    def test_run_until_dispatches_callbacks(self, env):
        fired = []
        env.call_later(1.0, lambda: fired.append(env.now))
        env.run(until=1.0)
        assert fired == [1.0] and env.now == 1.0


class TestPooledTimers:
    """`pooled_timeout`: recycled events for the per-chunk hot path."""

    def test_behaves_like_timeout(self, env):
        def proc(env):
            yield env.pooled_timeout(1.5)
            return env.now

        process = env.process(proc(env))
        env.run()
        assert process.value == 1.5

    def test_value_delivery(self, env):
        def proc(env):
            got = yield env.pooled_timeout(1.0, value="payload")
            return got

        process = env.process(proc(env))
        env.run()
        assert process.value == "payload"

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ClockError):
            env.pooled_timeout(-1.0)
        with pytest.raises(ClockError):
            env.pooled_timeout(math.nan)
        assert env.peek() == math.inf

    def test_instances_recycle(self, env):
        """Back-to-back pooled timers run out of a bounded working set:
        the generator draws its next timer *during* the old one's
        dispatch (which recycles only afterwards), so a chain
        alternates between two instances — and never allocates a third,
        however long it runs."""
        seen = []

        def proc(env):
            for _ in range(50):
                timer = env.pooled_timeout(1.0)
                seen.append(id(timer))
                yield timer

        env.process(proc(env))
        env.run()
        assert len(set(seen)) == 2
        assert len(env._timer_pool) == 2  # both returned once the chain ends

    def test_sequential_processes_share_pool(self, env):
        def proc(env, count):
            for _ in range(count):
                yield env.pooled_timeout(0.5)

        env.process(proc(env, 30))
        env.process(proc(env, 30))
        env.run()
        # Two concurrent waiters keep at most two timers in flight plus
        # a small recycling margin — the pool never grows with the
        # number of exchanges.
        assert len(env._timer_pool) <= 3

    def test_counter_parity_with_plain_timeout(self):
        """One counter bump per pooled timer — the same schedule count a
        plain Timeout produces, so dispatch order never shifts."""
        from repro.net.env import Environment

        def run(pooled):
            env = Environment()

            def proc(env):
                for _ in range(5):
                    if pooled:
                        yield env.pooled_timeout(1.0)
                    else:
                        yield env.timeout(1.0)

            env.process(proc(env))
            env.run()
            return env.scheduled_count

        assert run(pooled=True) == run(pooled=False)


# -- the one-loop kernel against the two-copy kernel ----------------------
#
# A drawn schedule is built on a fresh environment of each kernel and run
# the same way; every callback and process step appends to a trace, so
# equal traces (times compared with ``==``) mean the same entries
# dispatched at the same instants in the same order.

_DELAYS = st.one_of(
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.5]),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
_STEPS = st.one_of(
    st.tuples(st.just("timeout"), _DELAYS),
    st.tuples(st.just("pooled"), _DELAYS),
    st.tuples(st.just("again")),
    st.tuples(st.just("shared"), st.integers(0, 7)),
    st.tuples(st.just("all_of"), st.lists(_DELAYS, max_size=3), st.booleans()),
    st.tuples(st.just("fail"), _DELAYS, st.booleans()),
    st.tuples(st.just("callback"), _DELAYS),
    st.tuples(st.just("spawn"), _DELAYS),
    st.tuples(st.just("succeed_later"), _DELAYS),
)
_SCHEDULES = st.lists(
    st.one_of(
        st.tuples(st.just("timeout"), _DELAYS),
        st.tuples(st.just("call_at"), _DELAYS),
        st.tuples(st.just("call_later"), _DELAYS),
        st.tuples(st.just("failing"), _DELAYS),
        st.tuples(st.just("process"), st.lists(_STEPS, max_size=6)),
    ),
    min_size=1,
    max_size=8,
)


def _plain(value):
    """A kernel-free copy of a delivered value (an AllOf's is a dict
    keyed by events)."""
    return sorted(value.values()) if isinstance(value, dict) else value


def _failing(env, delay, tag):
    yield env.timeout(delay)
    raise ValueError(tag)


def _child(env, trace, tag, delay):
    yield env.pooled_timeout(delay)
    trace.append(("child", tag, env.now))


def _process(env, trace, pid, steps, shared):
    last = None
    for index, step in enumerate(steps):
        kind, tag = step[0], (pid, index)
        if kind == "timeout":
            last = wait = env.timeout(step[1], value=tag)
        elif kind == "pooled":
            wait = env.pooled_timeout(step[1], value=tag)
        elif kind == "again":  # processed once waited on: the resume lane
            wait = last if last is not None else env.timeout(0.0, value=tag)
        elif kind == "shared":
            wait = shared[step[1] % len(shared)] if shared else env.timeout(0.0)
        elif kind == "all_of":
            members = [
                env.timeout(delay, value=(pid, index, k)) for k, delay in enumerate(step[1])
            ]
            if step[2]:
                members.append(env.process(_failing(env, 0.5, f"all_of {tag}")))
            last = wait = env.all_of(members)
        elif kind == "fail":
            child = env.process(_failing(env, step[1], f"fail {tag}"))
            if not step[2]:  # nobody waits: the failure surfaces from run
                continue
            last = wait = child
        elif kind == "callback":
            env.call_later(step[1], lambda tag=tag: trace.append(("cb", tag, env.now)))
            continue
        elif kind == "spawn":
            env.process(_child(env, trace, tag, step[1]))
            continue
        else:  # succeed_later: a plain event triggered from the fast lane
            last = wait = env.event()
            env.call_later(step[1], lambda event=wait, tag=tag: event.succeed(tag))
        try:
            value = yield wait
        except ValueError as exc:
            value = ("caught", str(exc))
        trace.append(("step", tag, env.now, _plain(value)))
    return ("done", pid)


def _build(env, schedule, trace):
    """Queue ``schedule`` on ``env``; returns the events it can run until."""
    shared = [
        env.timeout(item[1], value=("shared", index))
        for index, item in enumerate(schedule)
        if item[0] == "timeout"
    ]
    for event in shared:
        event.callbacks.append(lambda e: trace.append(("timeout", e.value, env.now)))
    targets = list(shared)
    for index, item in enumerate(schedule):
        kind = item[0]
        if kind == "call_at":
            env.call_at(item[1], lambda index=index: trace.append(("call_at", index, env.now)))
        elif kind == "call_later":
            env.call_later(item[1], lambda index=index: trace.append(("call_later", index, env.now)))
        elif kind == "failing":
            targets.append(env.process(_failing(env, item[1], f"failing {index}")))
        elif kind == "process":
            targets.append(env.process(_process(env, trace, index, item[1], shared)))
    return targets


def _drain(env, trace):
    while True:
        try:
            env.run()
            return
        except ValueError as exc:
            trace.append(("raised", str(exc), env.now, env.peek()))


def _run_stepwise(env, trace, checkpoints):
    for until in checkpoints:
        while True:
            try:
                env.run(until=until)
                break
            except ValueError as exc:
                trace.append(("raised", str(exc), env.now, env.peek()))
        trace.append(("at", until, env.now, env.peek(), env.scheduled_count))
    _drain(env, trace)


def _run_until_events(env, trace, targets, picks):
    for pick in picks:
        target = targets[pick % len(targets)]
        try:
            value = env.run(until=target)
            trace.append(("until", pick, env.now, _plain(value)))
        except ValueError as exc:
            trace.append(("until raised", pick, str(exc), env.now, env.peek()))
        except SimulationError as exc:  # EmptySchedule: each kernel has its own class
            trace.append(("until failed", pick, type(exc).__name__, env.now))
        trace.append(("count", env.scheduled_count))
    _drain(env, trace)


def _on_both_kernels(schedule, run):
    """``(trace, now, scheduled_count, peek)`` of ``run`` on each kernel."""
    outcomes = []
    for kernel in (Environment, TwoCopyEnvironment):
        env, trace = kernel(), []
        targets = _build(env, schedule, trace)
        run(env, trace, targets)
        outcomes.append((trace, env.now, env.scheduled_count, env.peek()))
    return outcomes


class TestOneLoopMatchesTwoCopyKernel:
    """The one dispatch loop against the kernel it replaced, kept
    verbatim in ``tests/two_copy_kernel/``: equal traces, clocks and
    counters on every drawn schedule, under each form of ``run``."""

    @settings(max_examples=200, deadline=None)
    @given(schedule=_SCHEDULES)
    def test_drain(self, schedule):
        one, two = _on_both_kernels(schedule, lambda env, trace, _targets: _drain(env, trace))
        assert one == two

    @settings(max_examples=200, deadline=None)
    @given(
        schedule=_SCHEDULES,
        checkpoints=st.lists(
            st.one_of(
                st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.5, 4.0]),
                st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
            ),
            max_size=8,
        ),
    )
    def test_stepwise_run_until_time(self, schedule, checkpoints):
        checkpoints = sorted(set(checkpoints))
        one, two = _on_both_kernels(
            schedule, lambda env, trace, _targets: _run_stepwise(env, trace, checkpoints)
        )
        assert one == two

    @settings(max_examples=200, deadline=None)
    @given(schedule=_SCHEDULES, picks=st.lists(st.integers(0, 15), max_size=6))
    def test_run_until_event(self, schedule, picks):
        one, two = _on_both_kernels(
            schedule,
            lambda env, trace, targets: _run_until_events(env, trace, targets, picks)
            if targets
            else _drain(env, trace),
        )
        assert one == two


class TestOneLoop:
    """What the one loop does at its edges, and what it no longer has."""

    def test_run_until_time_queues_no_counted_entry(self, env):
        env.run(until=3.0)
        assert env.now == 3.0 and env.scheduled_count == 0 and env.peek() == math.inf

    def test_run_until_event_leaves_co_timed_entries_queued(self, env):
        fired = []
        target = env.timeout(1.0, value="target")
        env.call_at(1.0, lambda: fired.append(env.now))
        assert env.run(until=target) == "target"
        assert fired == [] and env.now == 1.0 and env.peek() == 1.0
        env.run()
        assert fired == [1.0]

    def test_a_failure_before_the_deadline_leaves_no_stop_entry(self, env):
        def failing(env):
            yield env.timeout(1.0)
            raise ValueError("nobody listening")

        env.process(failing(env))
        env.call_at(2.0, lambda: None)
        with pytest.raises(ValueError, match="nobody listening"):
            env.run(until=5.0)
        assert env.now == 1.0 and env.peek() == 2.0
        env.run()
        assert env.now == 2.0 and env.peek() == math.inf

    def test_clock_moving_backwards_is_refused(self, env):
        env.run(until=2.0)
        env._heap.append((1.0, 1, 0, lambda: None))
        with pytest.raises(ClockError, match="moving backwards"):
            env.run()
        assert env.now == 2.0

    def test_cut_kernel_api_stays_gone(self):
        """No module under ``src/repro`` defines the machinery the one
        loop replaced or that nothing but the kernel's tests called."""
        import ast
        from pathlib import Path

        import repro

        cut = {
            "_dispatch",
            "step",
            "interrupt",
            "Interrupt",
            "AnyOf",
            "any_of",
            "_waiting_on",
            "_active_process",
            "SimClock",
        }
        package = Path(repro.__file__).parent
        assert not (package / "net" / "simclock.py").exists()
        defined = set()
        for path in package.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = node.name
                elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                    node.ctx, ast.Store
                ):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value  # a __slots__ entry, among other strings
                else:
                    continue
                if name in cut:
                    defined.add((path.relative_to(package).as_posix(), name))
        assert defined == set()
