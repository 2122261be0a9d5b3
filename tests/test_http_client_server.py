"""Simulated HTTP client + server glue over the network substrate."""

import pytest

from repro.errors import HTTPStatusError, NetworkError
from repro.http.client import SimHTTPClient
from repro.http.messages import Request, Response
from repro.http.server import SimHTTPServer
from repro.net.bandwidth import ConstantBandwidth
from repro.net.iface import NetworkInterface
from repro.net.latency import ConstantLatency
from repro.net.link import Link
from repro.net.tls import TLSParams
from repro.net.topology import Host, Network
from repro.units import mbit


def hello_app(request: Request, client_network: str) -> Response:
    if request.path == "/hello":
        return Response(200, body=f"hi {client_network}".encode())
    if request.path == "/big":
        return Response(200, body_size=1_000_000)
    if request.path == "/fail":
        return Response.error(503)
    return Response.error(404)


class World:
    """One client interface + one server host with hello_app."""

    def __init__(self, env, overload_threshold=None):
        self.env = env
        self.network = Network(env)
        link = Link(env, ConstantBandwidth(mbit(8)))
        self.iface = NetworkInterface(
            env, "wlan0", "wifi", link, ConstantLatency(0.010), "wifi-net", "10.0.0.2"
        )
        self.host = self.network.add_host(
            Host("server.example", tls=TLSParams(0.004, 0.004), network_id="wifi-net")
        )
        self.server = SimHTTPServer(
            self.host,
            hello_app,
            base_service_time=0.001,
            per_megabyte_service_time=0.0,
            overload_threshold=overload_threshold,
        )
        self.client = SimHTTPClient(env, self.network, self.iface)

    def get(self, target, expect=(200,)):
        def main(env):
            response, timing = yield env.process(
                self.client.get(
                    "server.example", Request.get(target, host="server.example"), expect=expect
                )
            )
            return response, timing

        process = self.env.process(main(self.env))
        self.env.run(process)
        return process.value


class TestRequestResponse:
    def test_basic_get(self, env):
        world = World(env)
        response, timing = world.get("/hello")
        assert response.body == b"hi wifi-net"
        assert timing.duration > 0

    def test_app_sees_client_network(self, env):
        world = World(env)
        response, _ = world.get("/hello")
        assert b"wifi-net" in response.body

    def test_status_check_raises(self, env):
        world = World(env)
        with pytest.raises(HTTPStatusError) as excinfo:
            world.get("/fail")
        assert excinfo.value.status == 503

    def test_unexpected_status_allowed_when_listed(self, env):
        world = World(env)
        response, _ = world.get("/fail", expect=(503,))
        assert response.status == 503

    def test_persistent_connection_reused(self, env):
        world = World(env)
        world.get("/hello")
        world.get("/hello")
        assert world.client.open_session_count == 1

    def test_handshake_charged_once(self, env):
        world = World(env)
        world.get("/hello")
        first_handshake = world.client.handshake_time
        world.get("/hello")
        assert world.client.handshake_time == first_handshake

    def test_virtual_body_transfer_takes_time(self, env):
        world = World(env)
        _, timing = world.get("/big")
        # 1 MB at 1 MB/s is at least a second on the wire.
        assert timing.duration > 0.9

    def test_server_request_counter(self, env):
        world = World(env)
        world.get("/hello")
        world.get("/hello")
        assert world.server.requests_served == 2

    def test_bytes_served_accounting(self, env):
        world = World(env)
        world.get("/big")
        assert world.host.bytes_served == 1_000_000


class TestFailureHandling:
    def test_host_failure_mid_request_evicts_session(self, env):
        world = World(env)
        world.get("/hello")

        def killer(env):
            yield env.timeout(0.05)
            world.host.fail()

        env.process(killer(env))

        def main(env):
            with pytest.raises(NetworkError):
                yield env.process(
                    world.client.get(
                        "server.example", Request.get("/big", host="server.example")
                    )
                )
            return world.client.open_session_count

        process = env.process(main(env))
        env.run(process)
        assert process.value == 0

    def test_reconnect_after_recovery(self, env):
        world = World(env)
        world.get("/hello")
        world.host.fail()
        world.host.recover()
        response, _ = world.get("/hello")
        assert response.status == 200

    def test_disconnect_all(self, env):
        world = World(env)
        world.get("/hello")
        world.client.disconnect_all()
        assert world.client.open_session_count == 0


class TestOverloadModel:
    def test_concurrent_requests_pay_penalty(self, env):
        world = World(env, overload_threshold=1)
        timings = []

        def one(env):
            response, timing = yield env.process(
                world.client.request(
                    "server.example", Request.get("/big", host="server.example")
                )
            )
            timings.append(timing)

        # Two concurrent transfers from two interfaces (a link carries
        # one flow): exceed the threshold so one pays the queueing
        # penalty, the server-side cost x2/x6/x8/x9 model.
        iface2 = NetworkInterface(
            env,
            "wlan1",
            "wifi",
            Link(env, ConstantBandwidth(mbit(8))),
            ConstantLatency(0.010),
            "wifi-net",
            "10.0.0.3",
        )
        client2 = SimHTTPClient(env, world.network, iface2)

        def two(env):
            response, timing = yield env.process(
                client2.request("server.example", Request.get("/big", host="server.example"))
            )
            timings.append(timing)

        p1 = env.process(one(env))
        p2 = env.process(two(env))
        env.run(env.all_of([p1, p2]))

        env2_world = World(type(env)(), overload_threshold=None)
        _, solo_timing = env2_world.get("/big")
        # The paths are disjoint, so the server is the only shared
        # resource: the request served while the other is in flight
        # takes a solo run plus exactly one penalty.
        penalty = world.server.overload_penalty
        assert sorted(t.duration for t in timings) == pytest.approx(
            [solo_timing.duration, solo_timing.duration + penalty], rel=1e-9
        )
