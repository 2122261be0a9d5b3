"""Kernel fast paths: slotted events, clone-free resume, closed-form slow start.

These pin the microbehaviour the perf work must not change:

* the heap's total order: time, then priority (urgent first), then
  FIFO; ``+inf`` entries pend behind every finite one; ``run(until=)``
  dispatches the boundary instant and nothing after it;
* yielding an *already-processed* event resumes the process at the same
  timestamp with the event's original outcome (success and failure);
* an interrupt racing that fast-path resume loses the same way it lost
  against the old clone-event implementation: the resume runs first,
  the interrupt lands at the process's next wait point;
* the link's analytic slow-start schedule reproduces the doubling
  timeline the per-exchange pacer process used to produce.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClockError, ConfigError, Interrupt
from repro.net.bandwidth import ConstantBandwidth
from repro.net.env import EmptySchedule, Environment
from repro.net.link import Link


class TestHeapOrdering:
    def test_empty_queue_peeks_inf_and_refuses_to_step(self, env):
        assert env.peek() == math.inf
        with pytest.raises(EmptySchedule):
            env.step()

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
                st.tuples(st.just("step")),
            ),
            min_size=1,
            max_size=120,
        )
    )
    def test_scheduling_while_dispatching_matches_a_sorted_reference(self, ops):
        """Entries pushed relative to the last dispatch (as a running
        environment pushes them), on the event and fast lanes, pop in
        ``(time, schedule order)`` — the order of a sorted list."""
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
                expected.append(pending.pop(0)[1])
                env.step()
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

    def test_interrupt_vs_fastpath_resume_race(self, env):
        """An interrupt issued while a fast-path resume is pending is
        delivered *after* the resume, at the next wait point."""
        early = env.timeout(1.0, value="x")
        seen = []

        def victim(env):
            yield env.timeout(2.0)
            value = yield early  # pending fast-path resume at t=2
            seen.append(("resumed", env.now, value))
            try:
                yield env.timeout(10.0)
            except Interrupt as interrupt:
                seen.append(("interrupted", env.now, interrupt.cause))

        process = env.process(victim(env))

        def interrupter(env):
            yield env.timeout(2.0)
            process.interrupt("race")

        env.process(interrupter(env))
        env.run()
        assert seen == [("resumed", 2.0, "x"), ("interrupted", 2.0, "race")]

    def test_stale_direct_resume_dropped_after_interrupt(self, env):
        """A pending fast-path resume whose process was meanwhile moved
        on by an interrupt must be dropped, not delivered: the old
        clone-event path deregistered via callbacks.remove, and the
        direct entry needs the equivalent staleness guard."""
        e1 = env.timeout(0.5, value="one")
        e2 = env.timeout(0.5, value="two")
        # Both processes wake from the same event, so the attacker's
        # interrupt is issued inside the same callback cascade — after
        # the victim queued its fast-path resume, before it dispatched.
        shared = env.timeout(1.0)
        trace = []

        def victim(env):
            yield shared
            value = yield e1  # fast-path resume pending at t=1
            trace.append(("resumed", env.now, value))
            try:
                yield e2  # second fast-path entry, queued behind the interrupt
                trace.append(("not-reached", env.now))
            except Interrupt:
                trace.append(("interrupted", env.now))
                yield env.timeout(5.0)
                trace.append(("slept", env.now))

        process = env.process(victim(env))

        def attacker(env):
            yield shared
            process.interrupt()

        env.process(attacker(env))
        env.run()
        # Without the guard the stale e2 entry re-resumes the generator
        # at t=1, silently skipping the 5 s sleep.
        assert trace == [("resumed", 1.0, "one"), ("interrupted", 1.0), ("slept", 6.0)]

    def test_process_waiting_on_processed_event_is_interruptible(self, env):
        # The fast path must leave the process in an interruptible state
        # (waiting_on set): interrupt() here must not raise "process
        # cannot interrupt itself".
        early = env.timeout(0.5)

        def victim(env):
            yield env.timeout(1.0)
            try:
                yield early
                yield env.timeout(5.0)
            except Interrupt:
                return "interrupted"

        process = env.process(victim(env))

        def interrupter(env):
            yield env.timeout(1.0)
            assert process.is_alive
            process.interrupt()

        env.process(interrupter(env))
        env.run()
        assert process.value == "interrupted"


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

    def test_contended_ramp_only_wakes_while_cap_binds(self, env):
        """A ramping flow competing with an uncapped one: the capped
        flow's share is its cap while the cap binds; once doubled past
        the fair share, the allocation is an even split."""
        link = self._link(env, rate=100_000.0)
        capped = link.start_flow(1_000_000.0, cap=10_000.0, ramp_rtt=1.0, ramp_limit=1e9)
        open_flow = link.start_flow(1_000_000.0)
        env.run(until=2.0)
        # t in [0,1): capped 10k/s, open 90k/s; t in [1,2): 20k/80k.
        assert capped.bytes_delivered == pytest.approx(30_000.0, rel=1e-6)
        assert open_flow.bytes_delivered == pytest.approx(170_000.0, rel=1e-6)
        env.run(until=3.0)
        # t in [2,3): cap 40k < share? share is 50k -> capped at 40k.
        assert capped.bytes_delivered == pytest.approx(70_000.0, rel=1e-6)
        env.run(until=4.0)
        # cap hit 80k > 50k share: even split from t=3.
        assert capped.bytes_delivered == pytest.approx(120_000.0, rel=1e-6)

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

    def test_step_dispatches_callbacks(self, env):
        fired = []
        env.call_later(1.0, lambda: fired.append(env.now))
        env.step()
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

    def test_interrupt_while_on_pooled_timer(self, env):
        """An interrupted waiter deregisters; the timer still fires
        harmlessly, recycles, and serves the next request."""
        trace = []

        def sleeper(env):
            try:
                yield env.pooled_timeout(10.0)
                trace.append("slept")
            except Interrupt:
                trace.append(("interrupted", env.now))
                yield env.pooled_timeout(1.0)
                trace.append(("resumed", env.now))

        process = env.process(sleeper(env))

        def interrupter(env):
            yield env.timeout(2.0)
            process.interrupt("wake")

        env.process(interrupter(env))
        env.run()
        assert trace == [("interrupted", 2.0), ("resumed", 3.0)]

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
