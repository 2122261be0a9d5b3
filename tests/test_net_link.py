"""Fluid link: one flow at a time, caps, outages; the oracle's max-min allocator."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError, LinkDownError, NetworkError
from repro.net.bandwidth import ConstantBandwidth, TraceBandwidth
from repro.net.env import Environment
from repro.net.link import Link

from conftest import make_link
from eager_link import max_min_allocation


class TestMaxMinAllocation:
    def test_equal_split_uncapped(self):
        assert max_min_allocation(9.0, [math.inf] * 3) == [3.0, 3.0, 3.0]

    def test_capped_flow_frees_surplus(self):
        assert max_min_allocation(10.0, [2.0, math.inf]) == [2.0, 8.0]

    def test_all_capped_below_fair_share(self):
        assert max_min_allocation(100.0, [1.0, 2.0, 3.0]) == [1.0, 2.0, 3.0]

    def test_empty(self):
        assert max_min_allocation(5.0, []) == []

    def test_zero_capacity(self):
        assert max_min_allocation(0.0, [math.inf, 5.0]) == [0.0, 0.0]

    @given(
        st.floats(min_value=0.1, max_value=1e9),
        st.lists(st.floats(min_value=0.01, max_value=1e9), min_size=1, max_size=12),
    )
    def test_feasibility_and_cap_respect(self, capacity, caps):
        rates = max_min_allocation(capacity, caps)
        assert len(rates) == len(caps)
        assert sum(rates) <= capacity * (1 + 1e-9)
        for rate, cap in zip(rates, caps, strict=True):
            assert 0.0 <= rate <= cap * (1 + 1e-9)

    @given(
        st.floats(min_value=0.1, max_value=1e6),
        st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=2, max_size=8),
    )
    def test_work_conserving(self, capacity, caps):
        # Either the link is saturated or every flow is at its cap.
        rates = max_min_allocation(capacity, caps)
        saturated = sum(rates) >= capacity * (1 - 1e-9)
        all_capped = all(r >= c * (1 - 1e-9) for r, c in zip(rates, caps, strict=True))
        assert saturated or all_capped

    @staticmethod
    def _reference_allocation(capacity, caps):
        """The original O(n²) water-filling (sorted list + pop(0)),
        kept verbatim as the oracle for the linear-pass rewrite."""
        n = len(caps)
        if n == 0:
            return []
        rates = [0.0] * n
        remaining = capacity
        unsaturated = sorted(range(n), key=lambda i: caps[i])
        while unsaturated:
            share = remaining / len(unsaturated)
            lowest = unsaturated[0]
            if caps[lowest] <= share:
                rates[lowest] = caps[lowest]
                remaining -= caps[lowest]
                unsaturated.pop(0)
            else:
                for index in unsaturated:
                    rates[index] = share
                break
        return rates

    @given(
        st.floats(min_value=0.0, max_value=1e9),
        st.lists(
            st.one_of(
                st.floats(min_value=0.001, max_value=1e9),
                st.just(math.inf),
            ),
            min_size=0,
            max_size=16,
        ),
    )
    def test_linear_pass_matches_quadratic_reference(self, capacity, caps):
        # Bit-identical, not approximately equal: the linear pass
        # performs the same arithmetic in the same order, so simulation
        # results cannot drift from the rewrite.
        assert max_min_allocation(capacity, caps) == self._reference_allocation(
            capacity, caps
        )


class TestLinkTransfers:
    def test_single_flow_completion_time(self, env):
        link = make_link(env, mbps=8.0)  # 1e6 B/s
        flow = link.start_flow(2_000_000)
        env.run(flow.done)
        assert env.now == pytest.approx(2.0, rel=1e-6)

    def test_cap_limits_rate(self, env):
        link = Link(env, ConstantBandwidth(1e6))
        flow = link.start_flow(500_000, cap=250_000.0)
        env.run(flow.done)
        assert env.now == pytest.approx(2.0, rel=1e-6)

    def test_capacity_change_reshapes_completion(self, env):
        trace = TraceBandwidth([(1.0, 1e6), (100.0, 2e6)])
        link = Link(env, trace)
        flow = link.start_flow(2_000_000)
        env.run(flow.done)
        # 1 MB in the first second, 1 MB at 2 MB/s afterwards.
        assert env.now == pytest.approx(1.5, rel=1e-6)

    def test_bytes_carried_accounting(self, env):
        link = make_link(env, mbps=8.0)
        flow = link.start_flow(3_000_000)
        env.run(flow.done)
        assert link.bytes_carried == pytest.approx(3_000_000, rel=1e-9)

    def test_invalid_flow_sizes_rejected(self, env, link):
        with pytest.raises(Exception):
            link.start_flow(0)
        with pytest.raises(Exception):
            link.start_flow(100, cap=0.0)

    @pytest.mark.parametrize("nan", ["total_bytes", "cap", "ramp_rtt", "ramp_limit"])
    def test_nan_flow_parameters_rejected(self, env, link, nan):
        arguments = {"total_bytes": 1000.0, "cap": 5.0e5, "ramp_rtt": 0.02, "ramp_limit": 4.0e6}
        arguments[nan] = math.nan
        with pytest.raises(ConfigError):
            link.start_flow(**arguments)
        assert link.active_flow_count == 0 and env.scheduled_count == 0

    def test_an_infinite_flow_is_refused(self, env, link):
        # It would never complete, and its link would queue a boundary
        # wake every second for ever.
        with pytest.raises(ConfigError, match="finite"):
            link.start_flow(math.inf)
        assert link.active_flow_count == 0 and env.scheduled_count == 0


class TestOneFlowPerLink:
    """A link carries one flow; a second concurrent start is refused."""

    @staticmethod
    def _run(refuse_at, second_start):
        env = Environment()
        link = Link(env, TraceBandwidth([(0.3, 1.0e6), (0.7, 2.0e5), (1.1, 3.0e6)]), "wlan0")
        flow = link.start_flow(1.5e6, cap=1.0e5, ramp_rtt=0.07, ramp_limit=2.0e6)
        env.run(until=refuse_at)
        if second_start:
            with pytest.raises(ConfigError, match="wlan0"):
                link.start_flow(1.0e5)
            assert link.active_flow_count == 1 and flow.active
        env.run(until=30.0)
        return flow.finished_at, flow.bytes_delivered, link.bytes_carried, env.scheduled_count

    # 0.0: the first flow's own instant; 0.21: while its cap binds;
    # 0.3: on a segment boundary; 1.6: after the ramp has unbound.
    @pytest.mark.parametrize("refuse_at", [0.0, 0.21, 0.3, 1.6])
    def test_a_second_start_raises_and_changes_nothing(self, refuse_at):
        refused = self._run(refuse_at, second_start=True)
        assert refused == self._run(refuse_at, second_start=False)
        assert refused[0] is not None and refused[0] > refuse_at

    def test_a_busy_link_refuses_even_while_down(self, env):
        link = Link(env, ConstantBandwidth(1.0e6), "lte0")
        flow = link.start_flow(1.0e6)
        env.run(until=0.5)
        link.set_down(True)
        with pytest.raises(ConfigError, match="lte0"):
            link.start_flow(1.0e5)
        link.set_down(False)
        env.run(flow.done)
        assert flow.finished_at == 1.0

    @pytest.mark.parametrize("ending", ["complete", "abort", "reset"])
    def test_a_new_flow_starts_once_the_link_is_free(self, env, ending):
        link = Link(env, ConstantBandwidth(1.0e6))
        first = link.start_flow(2.5e5)
        if ending == "complete":
            env.run(first.done)
        else:
            env.run(until=0.1)
            if ending == "abort":
                first.abort()
            else:
                link.reset_flows()
        assert link.active_flow_count == 0 and not first.active
        started = env.now
        second = link.start_flow(5.0e5)
        assert link.active_flow_count == 1
        env.run(second.done)
        assert second.finished_at == started + 0.5
        assert link.active_flow_count == 0
        assert link.bytes_carried == pytest.approx(first.bytes_delivered + 5.0e5, rel=1e-12)


class TestLinkFailure:
    def test_start_flow_on_down_link_refused(self, env, link):
        link.set_down(True)
        with pytest.raises(LinkDownError):
            link.start_flow(1000)

    def test_flows_stall_while_down_and_resume(self, env):
        link = Link(env, ConstantBandwidth(1e6))
        flow = link.start_flow(1_000_000)

        def outage(env):
            yield env.timeout(0.5)
            link.set_down(True)
            yield env.timeout(2.0)
            link.set_down(False)

        env.process(outage(env))
        env.run(flow.done)
        # 0.5 s transfer + 2 s outage + 0.5 s remaining.
        assert env.now == pytest.approx(3.0, rel=1e-6)

    def test_reset_flows_fails_waiters(self, env):
        link = Link(env, ConstantBandwidth(1e6))
        flow = link.start_flow(10_000_000)

        def killer(env):
            yield env.timeout(0.1)
            link.reset_flows()

        def waiter(env):
            with pytest.raises(NetworkError):
                yield flow.done
            return "saw-reset"

        env.process(killer(env))
        process = env.process(waiter(env))
        env.run(process)
        assert process.value == "saw-reset"

    def test_abort_is_idempotent(self, env, link):
        flow = link.start_flow(1000)
        flow.abort()
        flow.abort()  # second abort is a no-op
        assert not flow.active

    def test_status_listeners_fire(self, env, link):
        seen = []
        link.status_listeners.append(seen.append)
        link.set_down(True)
        link.set_down(True)  # no duplicate event
        link.set_down(False)
        assert seen == [True, False]
