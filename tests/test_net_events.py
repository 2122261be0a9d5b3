"""Discrete-event kernel semantics: events, processes, conditions."""

import math

import pytest

from repro.errors import ProcessError
from repro.net.env import EmptySchedule, Environment


class TestTimeouts:
    def test_timeout_advances_clock(self, env):
        def proc(env):
            yield env.timeout(2.5)

        env.process(proc(env))
        env.run()
        assert env.now == 2.5

    def test_timeout_value_delivered(self, env):
        seen = []

        def proc(env):
            value = yield env.timeout(1.0, value="hello")
            seen.append(value)

        env.process(proc(env))
        env.run()
        assert seen == ["hello"]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ProcessError):
            env.timeout(-1.0)
        with pytest.raises(ProcessError):
            env.timeout(math.nan)
        assert env.peek() == math.inf

    def test_zero_delay_fires_immediately(self, env):
        def proc(env):
            yield env.timeout(0.0)

        env.process(proc(env))
        env.run()
        assert env.now == 0.0


class TestProcesses:
    def test_return_value_becomes_process_value(self, env):
        def proc(env):
            yield env.timeout(1.0)
            return 42

        process = env.process(proc(env))
        env.run()
        assert process.value == 42

    def test_process_waits_on_process(self, env):
        def inner(env):
            yield env.timeout(1.0)
            return "inner-done"

        def outer(env):
            result = yield env.process(inner(env))
            return result

        process = env.process(outer(env))
        env.run()
        assert process.value == "inner-done"

    def test_exception_propagates_to_waiter(self, env):
        def failing(env):
            yield env.timeout(1.0)
            raise ValueError("boom")

        def outer(env):
            try:
                yield env.process(failing(env))
            except ValueError as exc:
                return f"caught {exc}"

        process = env.process(outer(env))
        env.run()
        assert process.value == "caught boom"

    def test_unhandled_failure_raises_at_run(self, env):
        def failing(env):
            yield env.timeout(1.0)
            raise ValueError("nobody listening")

        env.process(failing(env))
        with pytest.raises(ValueError, match="nobody listening"):
            env.run()

    def test_yielding_non_event_fails_process(self, env):
        def bad(env):
            yield 42

        def outer(env):
            with pytest.raises(ProcessError):
                yield env.process(bad(env))
            return "ok"

        process = env.process(outer(env))
        env.run()
        assert process.value == "ok"

    def test_non_generator_rejected(self, env):
        with pytest.raises(ProcessError):
            env.process(lambda: None)  # type: ignore[arg-type]


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        def proc(env):
            a = env.timeout(1.0, value="a")
            b = env.timeout(3.0, value="b")
            result = yield env.all_of([a, b])
            return sorted(result.values())

        process = env.process(proc(env))
        env.run()
        assert process.value == ["a", "b"]
        assert env.now >= 3.0

    def test_empty_all_of_fires_immediately(self, env):
        condition = env.all_of([])
        assert condition.triggered


class TestEnvironmentRun:
    def test_run_until_time_stops_clock_exactly(self, env):
        def proc(env):
            yield env.timeout(10.0)

        env.process(proc(env))
        env.run(until=4.0)
        assert env.now == 4.0

    def test_run_until_event_returns_value(self, env):
        event = env.event()

        def proc(env):
            yield env.timeout(2.0)
            event.succeed("payload")

        env.process(proc(env))
        assert env.run(until=event) == "payload"

    def test_run_until_unreachable_event_raises(self, env):
        event = env.event()
        with pytest.raises(EmptySchedule):
            env.run(until=event)

    def test_same_time_events_fifo(self, env):
        order = []

        def proc(env, tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(env, tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_double_trigger_rejected(self, env):
        event = env.event()
        event.succeed(1)
        with pytest.raises(ProcessError):
            event.succeed(2)

    def test_event_value_before_trigger_rejected(self, env):
        event = env.event()
        with pytest.raises(ProcessError):
            _ = event.value

    def test_determinism_two_runs_identical(self):
        def trace_run():
            env = Environment()
            trace = []

            def worker(env, tag, delay):
                yield env.timeout(delay)
                trace.append((tag, env.now))
                yield env.timeout(delay)
                trace.append((tag, env.now))

            for tag, delay in (("x", 0.5), ("y", 0.5), ("z", 0.25)):
                env.process(worker(env, tag, delay))
            env.run()
            return trace

        assert trace_run() == trace_run()
