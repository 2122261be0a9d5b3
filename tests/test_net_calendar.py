"""Scheduler equivalence wall: heapq vs calendar (vs compiled, if built).

The calendar queue's whole contract is *bit-identical dispatch*: for any
schedule — co-timed ties, urgent entries, fast-lane callbacks, stale
``_schedule_resume`` redeliveries, interrupts, far-future overflows —
every kernel must pop the exact same ``(time, priority, counter)``
sequence the seed heapq pops.  The hypothesis properties below drive
random schedules through the raw scheduler API and whole random process
programs through :class:`Environment`, comparing kernels pairwise.

The compiled core joins the comparison automatically when the
``repro.net._ckernel`` extension is built; otherwise the pure-python
pair still pins the contract.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClockError, ConfigError, Interrupt
from repro.net.calendar import (
    CalendarScheduler,
    HeapScheduler,
    make_scheduler,
    resolve_kernel,
    set_default_kernel,
)
from repro.net.env import Environment

from conftest import BUILT_KERNELS


# ---------------------------------------------------------------------------
# Selection machinery
# ---------------------------------------------------------------------------


class TestSelection:
    def test_default_is_heapq(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert resolve_kernel() == "heapq"
        assert Environment().kernel == "heapq"

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "calendar")
        assert resolve_kernel() == "calendar"
        assert isinstance(Environment()._scheduler, CalendarScheduler)

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "calendar")
        assert Environment(kernel="heapq").kernel == "heapq"

    def test_default_pin_beats_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "heapq")
        previous = set_default_kernel("calendar")
        try:
            assert resolve_kernel() == "calendar"
        finally:
            set_default_kernel(previous)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError):
            resolve_kernel("btree")
        with pytest.raises(ConfigError):
            Environment(kernel="btree")

    def test_case_and_whitespace_normalized(self):
        assert resolve_kernel(" HEAPQ ") == "heapq"

    def test_compiled_degrades_when_absent(self, monkeypatch):
        monkeypatch.setattr("repro.net.calendar.compiled_core", lambda: None)
        assert resolve_kernel("compiled") == "calendar"
        assert isinstance(make_scheduler("compiled"), CalendarScheduler)

    def test_make_scheduler_kinds(self):
        assert isinstance(make_scheduler("heapq"), HeapScheduler)
        assert isinstance(make_scheduler("calendar"), CalendarScheduler)
        for kernel in BUILT_KERNELS:
            assert make_scheduler(kernel).kernel == kernel


# ---------------------------------------------------------------------------
# Raw scheduler semantics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", BUILT_KERNELS)
class TestSchedulerBasics:
    def test_empty_peek_is_inf(self, kernel):
        assert make_scheduler(kernel).peek() == math.inf

    def test_empty_pop_raises(self, kernel):
        scheduler = make_scheduler(kernel)
        with pytest.raises(IndexError):
            scheduler.pop()

    def test_len_and_bool(self, kernel):
        scheduler = make_scheduler(kernel)
        assert len(scheduler) == 0 and not scheduler
        scheduler.schedule(1.0, 1, "x")
        assert len(scheduler) == 1 and scheduler
        scheduler.pop()
        assert len(scheduler) == 0 and not scheduler

    def test_counter_counts_every_lane(self, kernel):
        scheduler = make_scheduler(kernel)
        scheduler.schedule(1.0, 1, "a")
        scheduler.schedule_resume(1.0, 0, "b", "p")
        scheduler.schedule_callback(1.0, 1, "c")
        assert scheduler._counter == 3

    def test_entry_shapes(self, kernel):
        scheduler = make_scheduler(kernel)
        scheduler.schedule(1.0, 1, "event")
        scheduler.schedule_resume(2.0, 0, "event", "process")
        scheduler.schedule_callback(3.0, 1, "callback")
        assert scheduler.pop() == (1.0, 1, 1, "event", None)
        assert scheduler.pop() == (2.0, 0, 2, "event", "process")
        assert scheduler.pop() == (3.0, 1, 3, "callback")

    def test_infinite_times_pend_forever(self, kernel):
        scheduler = make_scheduler(kernel)
        scheduler.schedule(math.inf, 1, "never")
        scheduler.schedule(1.0, 1, "soon")
        assert scheduler.peek() == 1.0
        assert scheduler.pop()[3] == "soon"
        assert scheduler.peek() == math.inf
        assert scheduler.pop()[3] == "never"  # inf still pops last


# ---------------------------------------------------------------------------
# Property wall: identical dispatch on random schedules
# ---------------------------------------------------------------------------

#: Delays mixing dense co-timed ties, tiny/huge magnitudes, and +inf —
#: the far-overflow, rebase, and degenerate all-inf paths all get hit.
_DELAYS = st.one_of(
    st.sampled_from([0.0, 0.0, 1e-12, 0.5, 1.0, 1.0, 999.0, 1e6, math.inf]),
    st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
)

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            _DELAYS,
            st.sampled_from([0, 1]),
            st.sampled_from(["event", "resume", "callback"]),
        ),
        st.tuples(st.just("pop")),
    ),
    min_size=1,
    max_size=120,
)


def _drive(kernel: str, ops) -> list[tuple]:
    """Apply an op sequence to a fresh scheduler; return the dispatches.

    ``push`` delays are relative to the last popped time, so schedules
    interleave with dispatch exactly as a running environment's do (the
    regime where the cursor walk, clamping, and rebases all matter).
    """
    scheduler = make_scheduler(kernel)
    now = 0.0
    dispatched: list[tuple] = []
    token = 0
    for op in ops:
        if op[0] == "push":
            _, delay, priority, lane = op
            token += 1
            if lane == "event":
                scheduler.schedule(now + delay, priority, token)
            elif lane == "resume":
                scheduler.schedule_resume(now + delay, priority, token, -token)
            else:
                scheduler.schedule_callback(now + delay, priority, token)
        elif scheduler._n:
            entry = scheduler.pop()
            if entry[0] != math.inf:
                now = entry[0]
            dispatched.append(entry)
    while scheduler._n:
        dispatched.append(scheduler.pop())
    return dispatched


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_dispatch_order_identical_across_kernels(ops):
    reference = _drive("heapq", ops)
    for kernel in BUILT_KERNELS[1:]:
        assert _drive(kernel, ops) == reference, kernel


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    until=st.one_of(st.none(), st.floats(min_value=0.1, max_value=30.0)),
)
def test_random_process_programs_identical(seed, until):
    """Whole environments agree: timeouts, interrupts, conditions, and
    processed-target resumes produce the same trace on every kernel."""

    def run(kernel: str) -> list[tuple]:
        env = Environment(kernel=kernel)
        trace: list[tuple] = []
        rng = random.Random(seed)

        def worker(index: int, steps: list[float]):
            for number, delay in enumerate(steps):
                try:
                    yield env.timeout(delay)
                    trace.append(("step", index, number, env.now))
                except Interrupt as exc:
                    trace.append(("interrupt", index, number, env.now, str(exc)))

        def stale_resume(index: int, target):
            # Target is already processed by the time we yield it:
            # exercises the direct-resume (stale-entry-guard) lane.
            yield env.timeout(rng.uniform(5.0, 10.0))
            yield target
            trace.append(("stale", index, env.now))

        def interrupter(victims, delays):
            for delay in delays:
                yield env.timeout(delay)
                alive = [p for p in victims if p.is_alive]
                if alive:
                    alive[rng.randrange(len(alive))].interrupt("bang")
                    trace.append(("fired", env.now))

        workers = [
            env.process(
                worker(i, [round(rng.uniform(0.0, 4.0), 3) for _ in range(rng.randint(1, 5))])
            )
            for i in range(rng.randint(2, 6))
        ]
        early = env.timeout(rng.choice([0.0, 1.0]))
        env.process(stale_resume(99, early))
        env.process(interrupter(workers, [round(rng.uniform(0.5, 6.0), 3) for _ in range(3)]))
        env.process(interrupter(workers, [rng.uniform(0.5, 6.0)]))
        if until is None:
            env.run()
        else:
            env.run(until=until)
            env.run()  # drain the remainder after the boundary
        trace.append(("end", env.now))
        return trace

    reference = run("heapq")
    for kernel in BUILT_KERNELS[1:]:
        assert run(kernel) == reference, kernel


@settings(max_examples=50, deadline=None)
@given(
    first=st.floats(min_value=0.0, max_value=10.0),
    far=st.floats(min_value=100.0, max_value=1e6),
    boundary=st.floats(min_value=10.0, max_value=99.0),
    late_delay=st.floats(min_value=0.0, max_value=500.0),
)
def test_schedule_after_run_boundary_identical(first, far, boundary, late_delay):
    """Entries scheduled *behind* a rebased window (after ``run(until)``
    peeked past the boundary) still dispatch in heapq order."""

    def run(kernel: str) -> list[tuple]:
        env = Environment(kernel=kernel)
        order: list[tuple] = []
        env.call_at(first, lambda: order.append(("first", env.now)))
        env.call_at(far, lambda: order.append(("far", env.now)))
        env.call_at(far * 2.0, lambda: order.append(("farther", env.now)))
        env.run(until=boundary)
        env.call_later(late_delay, lambda: order.append(("late", env.now)))
        env.run()
        return order

    reference = run("heapq")
    for kernel in BUILT_KERNELS[1:]:
        assert run(kernel) == reference, kernel


# ---------------------------------------------------------------------------
# Targeted calendar internals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", [k for k in BUILT_KERNELS if k != "heapq"])
class TestCalendarInternals:
    def test_rebase_spreads_far_future(self, kernel):
        scheduler = make_scheduler(kernel)
        times = [1000.0 + i * 7.0 for i in range(50)]
        for when in reversed(times):
            scheduler.schedule(when, 1, when)
        assert [scheduler.pop()[0] for _ in range(50)] == sorted(times)

    def test_all_infinite_entries_drain(self, kernel):
        scheduler = make_scheduler(kernel)
        for index in range(5):
            scheduler.schedule(math.inf, 1, index)
        assert scheduler.peek() == math.inf
        assert [scheduler.pop()[3] for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_equal_times_fifo_within_priority(self, kernel):
        scheduler = make_scheduler(kernel)
        for index in range(20):
            scheduler.schedule(5.0, 1, ("normal", index))
        for index in range(20):
            scheduler.schedule(5.0, 0, ("urgent", index))
        popped = [scheduler.pop()[3] for _ in range(40)]
        assert popped[:20] == [("urgent", i) for i in range(20)]
        assert popped[20:] == [("normal", i) for i in range(20)]

    def test_width_must_be_positive(self, kernel):
        cls = type(make_scheduler(kernel))
        with pytest.raises((ConfigError, ValueError)):
            cls(width=0.0)
