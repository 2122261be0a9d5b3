"""Fluid link: max-min allocation, sharing dynamics, outages."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import LinkDownError, NetworkError
from repro.net.bandwidth import ConstantBandwidth, TraceBandwidth
from repro.net.env import Environment
from repro.net.link import Link, max_min_allocation
from repro.units import mbit

from conftest import make_link


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

    def test_two_flows_share_equally(self, env):
        link = make_link(env, mbps=8.0)
        a = link.start_flow(1_000_000)
        b = link.start_flow(1_000_000)
        env.run(a.done & b.done)
        assert a.finished_at == pytest.approx(2.0, rel=1e-6)
        assert b.finished_at == pytest.approx(2.0, rel=1e-6)

    def test_staggered_arrival_processor_sharing(self, env):
        link = Link(env, ConstantBandwidth(1e6))
        first = link.start_flow(1_500_000)

        def later(env):
            yield env.timeout(1.0)
            second = link.start_flow(500_000)
            yield second.done
            return second

        process = env.process(later(env))
        env.run(first.done & process)
        # first: 1s alone (1e6 B) then shares 0.5e6 B/s for its last 0.5e6 B.
        assert first.finished_at == pytest.approx(2.0, rel=1e-6)
        assert process.value.finished_at == pytest.approx(2.0, rel=1e-6)

    def test_cap_limits_rate(self, env):
        link = Link(env, ConstantBandwidth(1e6))
        flow = link.start_flow(500_000, cap=250_000.0)
        env.run(flow.done)
        assert env.now == pytest.approx(2.0, rel=1e-6)

    def test_raising_cap_mid_flight_speeds_up(self, env):
        link = Link(env, ConstantBandwidth(1e6))
        flow = link.start_flow(1_000_000, cap=250_000.0)

        def raiser(env):
            yield env.timeout(1.0)
            flow.set_cap(math.inf)

        env.process(raiser(env))
        env.run(flow.done)
        # 1 s at 250 kB/s, then 750 kB at 1 MB/s.
        assert env.now == pytest.approx(1.75, rel=1e-6)

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

    def test_conservation_with_many_flows(self, env):
        link = Link(env, ConstantBandwidth(1e6))
        sizes = [100_000 * (i + 1) for i in range(6)]
        flows = [link.start_flow(size) for size in sizes]
        env.run(env.all_of([f.done for f in flows]))
        assert link.bytes_carried == pytest.approx(sum(sizes), rel=1e-9)
        # Total time can't beat capacity.
        assert env.now >= sum(sizes) / 1e6 * (1 - 1e-9)

    def test_twelve_flows_with_mixed_caps_share_by_the_scalar_allocator(self, env):
        # Twelve concurrent flows on one link: the scalar water-filling
        # sets every rate, bit for bit, whatever the flow count.  The
        # caps are not round, so an allocator that subtracts a running
        # sum of caps instead would round some shares differently.
        link = Link(env, ConstantBandwidth(1.1e6))
        caps = [math.inf, 40523.7, 160702.9, math.inf, 70978.6, 26030.4] * 2
        sizes = [1.0e5 * (i % 5 + 1) + 333.3 * i for i in range(12)]
        flows = [
            link.start_flow(size, cap=cap) for size, cap in zip(sizes, caps, strict=True)
        ]
        for until in (0.05, 0.4, 0.9, 1.7):
            env.run(until=until)
            active = [f for f in flows if f.active]
            assert active, until
            assert [f.rate for f in active] == max_min_allocation(
                link.capacity, [f.cap for f in active]
            )
        env.run(env.all_of([f.done for f in flows]))
        assert all(f.finished_at is not None and f.remaining == 0.0 for f in flows)
        assert link.bytes_carried == pytest.approx(
            sum(f.bytes_delivered for f in flows), rel=1e-12
        )
        assert link.active_flow_count == 0

    def test_invalid_flow_sizes_rejected(self, env, link):
        with pytest.raises(Exception):
            link.start_flow(0)
        with pytest.raises(Exception):
            link.start_flow(100, cap=0.0)


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
