"""TCP connection model: handshakes, request timing, slow start, resets."""

import math

import pytest

from repro.errors import ConfigError, ConnectionClosedError, LinkDownError, NetworkError
from repro.net.bandwidth import ConstantBandwidth
from repro.net.latency import ConstantLatency
from repro.net.link import Link
from repro.net.tcp import TCPConnection, TCPParams
from repro.net.tls import TLSParams
from repro.units import MB, mbit


def build(env, mbps=80.0, rtt=0.020, params=None):
    link = Link(env, ConstantBandwidth(mbit(mbps)))
    latency = ConstantLatency(rtt / 2.0)
    return TCPConnection(env, link, latency, params=params), link


def run_process(env, generator):
    process = env.process(generator)
    env.run(process)
    return process.value


class TestHandshakes:
    def test_connect_costs_one_rtt(self, env):
        conn, _ = build(env, rtt=0.030)

        def main(env):
            yield env.process(conn.connect())

        run_process(env, main(env))
        assert env.now == pytest.approx(0.030)
        assert conn.connected

    def test_tls_full_handshake_two_rtt_plus_deltas(self, env):
        conn, _ = build(env, rtt=0.030)
        tls = TLSParams(delta1=0.005, delta2=0.007)

        def main(env):
            yield env.process(conn.connect())
            yield env.process(conn.secure_handshake(tls))

        run_process(env, main(env))
        assert env.now == pytest.approx(0.030 + 2 * 0.030 + 0.012)
        assert conn.secure

    def test_tls_resumption_single_rtt(self, env):
        conn, _ = build(env, rtt=0.030)
        tls = TLSParams(delta1=0.005, delta2=0.007, resumption=True)

        def main(env):
            yield env.process(conn.connect())
            yield env.process(conn.secure_handshake(tls, resumed=True))

        run_process(env, main(env))
        assert env.now == pytest.approx(0.030 + 0.030 + 0.007)

    def test_request_before_connect_rejected(self, env):
        conn, _ = build(env)

        def main(env):
            with pytest.raises(ConnectionClosedError):
                yield env.process(conn.exchange(1000))

        run_process(env, main(env))


class TestExchange:
    def test_first_byte_after_one_rtt_plus_server_delay(self, env):
        conn, _ = build(env, rtt=0.020)

        def main(env):
            yield env.process(conn.connect())
            result = yield env.process(conn.exchange(100_000, server_delay=0.005))
            return result

        result = run_process(env, main(env))
        assert result.first_byte_at - result.requested_at == pytest.approx(0.025)
        assert result.completed_at > result.first_byte_at

    def test_throughput_definition_matches_paper(self, env):
        # w_i = S_i / T_i where T_i is request-to-completion (§3.3).
        conn, _ = build(env)

        def main(env):
            yield env.process(conn.connect())
            return (yield env.process(conn.exchange(1 * MB)))

        result = run_process(env, main(env))
        assert result.throughput == pytest.approx(result.num_bytes / result.duration)

    def test_slow_start_makes_small_transfers_slow(self, env):
        # Effective throughput of a small chunk is far below link rate;
        # a big chunk amortizes slow start.  This is the Fig. 3 effect.
        conn, _ = build(env, mbps=80.0, rtt=0.040)
        results = {}

        def main(env):
            yield env.process(conn.connect())
            small = yield env.process(conn.exchange(16 * 1024))
            # Idle long enough to force a window reset.
            yield env.timeout(5.0)
            big = yield env.process(conn.exchange(4 * MB))
            results["small"] = small
            results["big"] = big

        run_process(env, main(env))
        link_rate = mbit(80.0)
        assert results["small"].throughput < 0.25 * link_rate
        assert results["big"].throughput > 0.6 * link_rate

    def test_window_persists_across_back_to_back_requests(self, env):
        conn, _ = build(env, mbps=80.0, rtt=0.040)
        results = []

        def main(env):
            yield env.process(conn.connect())
            for _ in range(2):
                result = yield env.process(conn.exchange(512 * 1024))
                results.append(result)

        run_process(env, main(env))
        # Second transfer starts with the warmed window: faster.
        assert results[1].duration < results[0].duration

    def test_idle_reset_cools_the_window(self, env):
        params = TCPParams(idle_reset_after=0.5)
        conn, _ = build(env, mbps=80.0, rtt=0.040, params=params)
        results = []

        def main(env):
            yield env.process(conn.connect())
            results.append((yield env.process(conn.exchange(512 * 1024))))
            results.append((yield env.process(conn.exchange(512 * 1024))))
            yield env.timeout(3.0)  # OFF period > idle_reset_after
            results.append((yield env.process(conn.exchange(512 * 1024))))

        run_process(env, main(env))
        warm = results[1].duration
        cold = results[2].duration
        assert cold > warm  # the ON/OFF cycle pays a fresh ramp-up

    def test_concurrent_exchange_rejected(self, env):
        conn, _ = build(env)

        def second(env):
            yield env.timeout(0.025)
            with pytest.raises(ConnectionClosedError):
                yield env.process(conn.exchange(1000))

        def main(env):
            yield env.process(conn.connect())
            env.process(second(env))
            yield env.process(conn.exchange(10 * MB))

        run_process(env, main(env))

    def test_invalid_byte_count_rejected(self, env):
        conn, _ = build(env)

        def main(env):
            yield env.process(conn.connect())
            with pytest.raises(ConfigError):
                yield env.process(conn.exchange(0))

        run_process(env, main(env))



@pytest.mark.parametrize("field", ["mss", "initial_window", "idle_reset_after", "max_window"])
def test_nan_params_rejected(field):
    with pytest.raises(ConfigError):
        TCPParams(**{field: math.nan})

class TestFailures:
    def test_reset_mid_transfer_raises_in_waiter(self, env):
        conn, _ = build(env, mbps=1.0)

        def killer(env):
            yield env.timeout(0.5)
            conn.reset()

        def main(env):
            yield env.process(conn.connect())
            env.process(killer(env))
            with pytest.raises(NetworkError):
                yield env.process(conn.exchange(10 * MB))
            return "handled"

        assert run_process(env, main(env)) == "handled"

    def test_link_down_mid_transfer(self, env):
        conn, link = build(env, mbps=1.0)

        def outage(env):
            yield env.timeout(0.5)
            link.set_down(True)
            link.reset_flows(LinkDownError("walked away from AP"))

        def main(env):
            yield env.process(conn.connect())
            env.process(outage(env))
            with pytest.raises(NetworkError):
                yield env.process(conn.exchange(10 * MB))
            return "handled"

        assert run_process(env, main(env)) == "handled"

    def test_connect_on_down_link_rejected(self, env):
        conn, link = build(env)
        link.set_down(True)

        def main(env):
            with pytest.raises(LinkDownError):
                yield env.process(conn.connect())

        run_process(env, main(env))

    def test_close_is_idempotent(self, env):
        conn, _ = build(env)
        conn.close()
        conn.close()
        assert conn.closed

    def test_accounting(self, env):
        conn, _ = build(env)

        def main(env):
            yield env.process(conn.connect())
            yield env.process(conn.exchange(100_000))
            yield env.process(conn.exchange(200_000))

        run_process(env, main(env))
        assert conn.bytes_received == 300_000
        assert conn.request_count == 2
