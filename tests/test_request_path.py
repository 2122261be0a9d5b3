"""One process per range request: the flat client against its process-chain
oracle, plus the event budgets that keep the chain from growing back.

``tests/process_chain_client.py`` keeps the old client, which spawned a
kernel ``Process`` for every sub-step of a request and waited on it on
the spot.  The product client delegates with ``yield from``.  Everything
a caller can observe must agree **bit for bit** — floats are compared
with ``==``, never ``approx`` — while the number of scheduled kernel
entries drops by exactly eight per warm request.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest

from repro.cdn.catalog import Catalog
from repro.cdn.tokens import TokenMint
from repro.cdn.videos import VideoMeta
from repro.cdn.videoserver import VideoServerApp
from repro.cdn.webproxy import stream_signature
from repro.core.buffer import BufferPhase
from repro.core.config import PlayerConfig
from repro.errors import HTTPStatusError, NetworkError
from repro.http.client import SimHTTPClient
from repro.http.messages import Request, Response
from repro.http.ranges import ByteRange
from repro.http.server import SimHTTPServer
from repro.net.bandwidth import ARLogNormalBandwidth, ConstantBandwidth
from repro.net.env import Environment
from repro.net.iface import NetworkInterface
from repro.net.latency import ConstantLatency
from repro.net.link import Link
from repro.net.tcp import TransferResult
from repro.net.tls import TLSParams
from repro.net.topology import Host, Network
from repro.sim.driver import MSPlayerDriver
from repro.sim.profiles import testbed_profile
from repro.sim.scenario import Scenario, ScenarioConfig
from repro.sim.singlepath import SinglePathDriver
from repro.units import mbit

from process_chain_client import ProcessChainClient

ADDRESS = "server.example"
OTHER = "other.example"
#: A token-checking video server, for ``fetch_range``.
VIDEO = "video.example"
VIDEO_ID = "plainVIDEO1"
STREAM_SECRET = b"stream-secret"


def app(request: Request, client_network: str) -> Response:
    if request.path == "/hello":
        return Response(200, body=b"hi")
    if request.path == "/big":
        return Response(200, body_size=1_000_000)
    if request.path == "/range":
        return Response.partial_content(ByteRange(0, 64 * 1024), 10_000_000, "video/mp4")
    if request.path == "/forbidden":
        return Response.error(403, "token rejected")
    if request.path == "/busy":
        return Response.error(503, "draining")
    return Response.error(404)


# -- what a script observes after each step (NamedTuples: ``==`` is tuple ``==``) --


class ConnectionState(NamedTuple):
    name: str
    request_count: int
    bytes_received: int
    cwnd: float
    connected_at: float | None
    secured_at: float | None

    @property
    def tls_time(self) -> float:
        return self.secured_at - self.connected_at


class Snapshot(NamedTuple):
    label: str
    now: float
    #: success: (status, body_size, requested_at, first_byte_at,
    #: completed_at, num_bytes) or ("session", connected_at, secured_at);
    #: failure: (exception class name, text, flow_bytes_delivered, status)
    outcome: tuple
    handshake_time: float
    open_sessions: int
    tickets: list[str]
    in_flight: int
    requests_served: int
    bytes_served: int
    host_connections: int
    bytes_carried: float
    connection: ConnectionState | None


# -- how a caller awaits a client generator ----------------------------------


def spawn(env, generator):
    """The parent's way: a Process per call, awaited on the spot."""
    return (yield env.process(generator))  # replint: disable=KER001


def delegate(env, generator):
    """The product's way: run the sub-step inside the caller."""
    return (yield from generator)


#: name -> (client class, how the script awaits it).  "parent" is the
#: old tree exactly; "product" the new one; the third is the flat client
#: still wrapped in ``env.process`` by a caller that wants a handle.
VARIANTS = {
    "parent": (ProcessChainClient, spawn),
    "product": (SimHTTPClient, delegate),
    "product-as-process": (SimHTTPClient, spawn),
}


class World:
    """Two server hosts and ``clients`` clients, each on its own
    interface and link (a link carries one flow); ``bandwidth`` makes
    each link's capacity process."""

    def __init__(self, client_cls, call, bandwidth=None, clients=1, overload=None):
        self.env = env = Environment()
        self.call = call
        self.network = Network(env)
        self.ifaces = [
            NetworkInterface(
                env,
                f"wlan{index}",
                "wifi",
                Link(env, bandwidth() if bandwidth else ConstantBandwidth(mbit(8))),
                ConstantLatency(0.010),
                "wifi-net",
                f"10.0.0.{index + 2}",
            )
            for index in range(clients)
        ]
        self.iface = self.ifaces[0]
        self.hosts, self.servers = {}, {}
        for address in (ADDRESS, OTHER):
            host = self.network.add_host(
                Host(address, tls=TLSParams(0.004, 0.003, resumption=True), network_id="wifi-net")
            )
            self.hosts[address] = host
            self.servers[address] = SimHTTPServer(
                host,
                app,
                base_service_time=0.001,
                per_megabyte_service_time=0.0005,
                overload_threshold=overload,
            )
        catalog = Catalog()
        catalog.add(VideoMeta(VIDEO_ID, "t", "a", 600.0, itags=(22,)))
        mint = TokenMint(secret=b"token-secret")
        self.video_app = VideoServerApp(
            catalog, mint, lambda: env.now, pool="wifi-net", signature_secret=STREAM_SECRET
        )
        host = self.network.add_host(
            Host(VIDEO, tls=TLSParams(0.004, 0.003, resumption=True), network_id="wifi-net")
        )
        self.hosts[VIDEO] = host
        self.servers[VIDEO] = SimHTTPServer(
            host,
            self.video_app,
            base_service_time=0.001,
            per_megabyte_service_time=0.0005,
            overload_threshold=overload,
        )
        self.token = mint.issue(0.0, VIDEO_ID, "10.0.0.2", pool="wifi-net")
        self.clients = [client_cls(env, self.network, iface) for iface in self.ifaces]
        self.client = self.clients[0]
        self.log: list[Snapshot] = []

    # -- scripted steps (each a generator run inside the script's process) ----

    def get(self, target, expect=(200, 206), client=None, address=ADDRESS, label=None):
        client = client or self.client
        outcome = yield from self._attempt(
            client.get(address, Request.get(target, host=address), expect=expect)
        )
        self.snapshot(label or target, outcome, client, address)
        return outcome

    def fetch(self, byte_range, sig=None, label="fetch"):
        """A range request to the video server: ``fetch_range`` on the
        product, the ``Request`` it replaced on the oracle."""
        client = self.client
        sig = stream_signature(VIDEO_ID, 22, STREAM_SECRET) if sig is None else sig
        if isinstance(client, ProcessChainClient):
            target = f"/videoplayback?v={VIDEO_ID}&itag=22&token={self.token}&sig={sig}"
            request = Request.get(target, host=VIDEO, byte_range=byte_range)
            generator = client.get(VIDEO, request, expect=(206,))
        else:
            generator = client.fetch_range(VIDEO, VIDEO_ID, 22, self.token, sig, byte_range)
        outcome = yield from self._attempt(generator)
        # Status and timing; the body size is in the snapshot's bytes_served.
        if isinstance(outcome, TransferResult):
            outcome = (206, *_timing(outcome))
        elif isinstance(outcome[0], int):
            outcome = (outcome[0], *outcome[2:])
        self.snapshot(label, outcome, client, VIDEO)

    def connect(self, client=None, address=ADDRESS):
        client = client or self.client
        outcome = yield from self._attempt(client.connect(address))
        if not isinstance(outcome, tuple):
            outcome = ("session", outcome.connected_at, outcome.secured_at)
        self.snapshot("connect", outcome, client, address)

    def _attempt(self, generator):
        try:
            result = yield from self.call(self.env, generator)
        except (NetworkError, HTTPStatusError) as exc:
            return (
                type(exc).__name__,
                str(exc),
                getattr(exc, "flow_bytes_delivered", None),
                getattr(exc, "status", None),
            )
        if isinstance(result, tuple):
            response, timing = result
            return (response.status, response.body_size, *_timing(timing))
        return result

    def sleep_until(self, when):
        yield self.env.timeout(when - self.env.now)

    def snapshot(self, label, outcome, client, address):
        session = client._sessions.get(address)
        connection = session.connection if session is not None else None
        host, server = self.hosts[address], self.servers[address]
        self.log.append(
            Snapshot(
                label,
                self.env.now,
                outcome,
                client.handshake_time,
                client.open_session_count,
                sorted(client._tickets),
                server.in_flight,
                server.requests_served,
                host.bytes_served,
                len(host._connections),
                client.iface.link.bytes_carried,
                None
                if connection is None
                else ConnectionState(
                    connection.name,
                    connection.request_count,
                    connection.bytes_received,
                    connection.cwnd,
                    session.connected_at,
                    session.secured_at,
                ),
            )
        )

    def run(self, *scripts):
        processes = [self.env.process(script(self)) for script in scripts]
        self.env.run(self.env.all_of(processes))
        self.env.run()  # drain link wake-ups so the counts are final
        return self.log, self.env.now, self.env.scheduled_count


def _timing(timing):
    return timing.requested_at, timing.first_byte_at, timing.completed_at, timing.num_bytes


def run_everywhere(*scripts, disturb=None, **world_kwargs):
    """Run ``scripts`` on every variant; the logs and clocks must be equal.

    Returns ``(log, scheduled counts by variant)`` of the agreed run.
    """
    runs = {}
    for name, (client_cls, call) in VARIANTS.items():
        world = World(client_cls, call, **world_kwargs)
        if disturb is not None:
            disturb(world)
        runs[name] = world.run(*scripts)
    parent_log, parent_now, parent_count = runs["parent"]
    assert parent_log, "the script observed nothing"
    counts = {"parent": parent_count}
    for name in ("product", "product-as-process"):
        log, now, counts[name] = runs[name]
        assert log == parent_log, name
        assert now == parent_now, name
    assert counts["product"] <= counts["product-as-process"] <= counts["parent"]
    return parent_log, counts


def outcomes(log):
    return [entry.outcome for entry in log]


def _variable_link():
    rng = np.random.Generator(np.random.PCG64([2014, 9]))
    return ARLogNormalBandwidth(mbit(8), sigma=0.5, rng=rng, rho=0.7, interval=0.3)


#: The links every single-client script runs on: the constant 8 Mbit/s
#: one, and one of the same mean whose rate changes every 0.3 s, so
#: segment boundaries fall inside requests and handshakes.
LINKS = {
    "constant": lambda: ConstantBandwidth(mbit(8)),
    "variable": _variable_link,
}


class TestFlatClientEqualsProcessChain:
    @pytest.fixture(params=sorted(LINKS))
    def link(self, request):
        return LINKS[request.param]

    def test_cold_then_warm(self, link):
        def script(world):
            yield from world.get("/hello")
            yield from world.get("/range")
            yield from world.get("/big")
            yield from world.get("/range")

        log, counts = run_everywhere(script, bandwidth=link)
        assert [o[0] for o in outcomes(log)] == [200, 206, 200, 206]
        assert log[-1].open_sessions == 1 and log[-1].in_flight == 0
        assert log[-1].connection.request_count == 4  # all on the one connection
        # Two events per spawn-and-wait.  Cold get: get, request, connect,
        # TCP, TLS, exchange; each warm get: get, request, connect, exchange.
        assert counts["parent"] - counts["product"] == 2 * 6 + 3 * 2 * 4

    def test_explicit_warm_connect_then_get(self, link):
        def script(world):
            yield from world.connect()
            yield from world.connect()  # already usable: returns at once
            yield from world.get("/range")

        log, _ = run_everywhere(script, bandwidth=link)
        assert log[0].now == log[1].now  # the second connect cost no time
        assert log[0].handshake_time == log[2].handshake_time > 0.0  # charged once

    def test_tls_resumption_after_disconnect(self, link):
        def script(world):
            yield from world.get("/hello")
            world.client.disconnect(ADDRESS)
            yield from world.get("/hello", label="redial")
            world.client.disconnect_all()
            yield from world.get("/hello", address=OTHER, label="other-host")

        log, _ = run_everywhere(script, bandwidth=link)
        full, resumed, other = (entry.connection for entry in log)
        assert resumed.tls_time < full.tls_time  # abbreviated handshake
        assert other.tls_time == pytest.approx(full.tls_time)  # no ticket for that host
        assert log[-1].tickets == [OTHER, ADDRESS]

    @pytest.mark.parametrize(
        "down_at, message",
        [
            (0.010, "during handshake"),  # inside the 20 ms 3WHS
            (0.035, "during TLS handshake"),
        ],
    )
    def test_link_down_during_handshakes(self, link, down_at, message):
        def disturb(world):
            world.env.call_at(down_at, lambda: world.iface.set_up(False))
            world.env.call_at(0.5, lambda: world.iface.set_up(True))

        def script(world):
            yield from world.get("/hello", label="dial-into-outage")
            yield from world.get("/hello", label="still-down")
            yield from world.sleep_until(0.6)
            yield from world.get("/hello", label="redial")

        log, _ = run_everywhere(script, disturb=disturb, bandwidth=link)
        first, second, third = outcomes(log)
        assert first[0] == "LinkDownError" and message in first[1]
        assert second[0] == "LinkDownError"  # refused synchronously, same instant
        assert log[0].now == log[1].now
        assert third[0] == 200
        # No session, no handshake time charged, and no ticket from a
        # handshake that never finished.
        assert log[0].open_sessions == 0 and log[0].handshake_time == 0.0
        assert log[0].tickets == []

    def test_link_down_at_first_byte(self, link):
        def disturb(world):
            world.env.call_at(1.010, lambda: world.iface.set_up(False))
            world.env.call_at(1.015, lambda: world.iface.link.set_down(False))
            world.env.call_at(2.010, lambda: world.iface.link.set_down(True))

        def script(world):
            yield from world.connect()
            yield from world.sleep_until(1.0)
            # Down and up again inside the request RTT: nothing notices.
            yield from world.get("/range", label="blip")
            yield from world.sleep_until(2.0)
            yield from world.get("/range", label="down-at-first-byte")
            world.iface.link.set_down(False)
            yield from world.get("/range", label="redial")

        log, _ = run_everywhere(script, disturb=disturb, bandwidth=link)
        blip, down, redial = outcomes(log)[1:]
        assert blip[0] == 206
        assert down[0] == "LinkDownError" and "first byte" in down[1]
        assert log[2].open_sessions == 0 and log[2].in_flight == 0  # evicted, released
        assert redial[0] == 206
        assert log[3].connection.name != log[1].connection.name  # a fresh connection

    def test_link_down_mid_transfer_reports_delivered_bytes(self, link):
        def disturb(world):
            world.env.call_at(1.5, lambda: world.iface.set_up(False))
            world.env.call_at(3.0, lambda: world.iface.set_up(True))

        def script(world):
            yield from world.connect()
            yield from world.sleep_until(1.0)
            yield from world.get("/big", label="cut")
            yield from world.sleep_until(3.5)
            yield from world.get("/big", label="again")

        log, _ = run_everywhere(script, disturb=disturb, bandwidth=link)
        cut, again = outcomes(log)[1:]
        assert cut[0] == "LinkDownError"
        assert 0 < cut[2] < 1_000_000  # flow_bytes_delivered rides the error
        assert log[1].now == 1.5
        assert log[1].bytes_served == 0  # only completed responses count
        assert again[0] == 200 and log[2].bytes_served == 1_000_000

    def test_host_down_then_redial(self, link):
        def disturb(world):
            world.env.call_at(1.2, lambda: world.hosts[ADDRESS].fail())
            world.env.call_at(2.0, lambda: world.hosts[ADDRESS].recover())

        def script(world):
            yield from world.connect()
            yield from world.sleep_until(1.0)
            yield from world.get("/big", label="server-dies")
            yield from world.get("/hello", label="refused")
            yield from world.get("/hello", address=OTHER, label="failover")
            yield from world.sleep_until(2.5)
            yield from world.get("/hello", label="recovered")

        log, _ = run_everywhere(script, disturb=disturb, bandwidth=link)
        died, refused, failover, recovered = outcomes(log)[1:]
        assert died[0] == "ServerUnavailableError" and died[2] > 0
        assert refused[0] == "ServerUnavailableError" and "refused" in refused[1]
        assert failover[0] == 200 and recovered[0] == 200
        assert log[1].host_connections == 0  # the dead host tracks none

    def test_host_down_during_request_rtt(self, link):
        def disturb(world):
            world.env.call_at(1.005, lambda: world.hosts[ADDRESS].fail())

        def script(world):
            yield from world.connect()
            yield from world.sleep_until(1.0)
            yield from world.get("/range")

        log, _ = run_everywhere(script, disturb=disturb, bandwidth=link)
        assert outcomes(log)[1][:2] == ("ConnectionClosedError", "wlan0#1 closed while waiting")
        assert log[1].in_flight == 0

    def test_403_and_503_keep_the_session(self, link):
        def script(world):
            yield from world.get("/forbidden")
            yield from world.get("/busy")
            yield from world.get("/busy", expect=(503,), label="expected-503")
            yield from world.get("/range")

        log, _ = run_everywhere(script, bandwidth=link)
        forbidden, busy, expected, served = outcomes(log)
        assert forbidden[0] == "HTTPStatusError" and forbidden[3] == 403
        assert busy[0] == "HTTPStatusError" and busy[3] == 503
        assert expected[0] == 503 and served[0] == 206
        assert [entry.open_sessions for entry in log] == [1, 1, 1, 1]
        assert [entry.in_flight for entry in log] == [0, 0, 0, 0]  # always released
        assert log[-1].requests_served == 4  # the replies were real, paid-for responses

    def test_fetch_range_against_the_chain_clients_get(self, link):
        def disturb(world):
            world.env.call_at(3.0, lambda: world.iface.set_up(False))
            world.env.call_at(4.0, lambda: world.iface.set_up(True))

        def script(world):
            yield from world.fetch(ByteRange(0, 64 * 1024), label="cold")
            yield from world.fetch(ByteRange(64 * 1024, 128 * 1024), label="warm")
            yield from world.fetch(ByteRange(0, 1024), sig="forged", label="403")
            world.video_app.draining = True
            yield from world.fetch(ByteRange(0, 1024), label="503")
            world.video_app.draining = False
            yield from world.sleep_until(2.5)
            yield from world.fetch(ByteRange(0, 4_000_000), label="cut")
            yield from world.sleep_until(4.5)
            yield from world.fetch(ByteRange(0, 64 * 1024), label="redial")

        log, counts = run_everywhere(script, disturb=disturb, bandwidth=link)
        cold, warm, forbidden, busy, cut, redial = outcomes(log)
        assert cold[0] == warm[0] == redial[0] == 206
        assert forbidden[0] == "HTTPStatusError" and forbidden[3] == 403
        assert busy[0] == "HTTPStatusError" and busy[3] == 503
        assert cut[0] == "LinkDownError" and 0 < cut[2] < 4_000_000
        served = [entry.bytes_served for entry in log]
        assert served[:2] == [65_536, 131_072]
        assert served[4] == served[3]  # the cut reply never completed
        assert served[5] - served[4] == 65_536
        assert [entry.requests_served for entry in log] == [1, 2, 3, 4, 5, 6]
        assert [entry.in_flight for entry in log] == [0] * 6
        assert log[1].connection.name == log[3].connection.name  # 403/503 keep the session
        assert log[5].connection.name != log[3].connection.name  # the cut evicted it
        assert counts["product"] < counts["parent"]

    def test_pipelined_exchange_guard(self, link):
        # Two processes push requests down one warm connection at the
        # same instant: the second trips the guard, which evicts the
        # session and so kills the first while it waits out its RTT.
        def first(world):
            yield from world.sleep_until(1.0)
            yield from world.get("/range", label="first")

        def second(world):
            yield from world.sleep_until(1.0)
            yield from world.get("/range", label="second")
            yield from world.get("/range", label="second-redials")

        def warm(world):
            yield from world.connect()

        log, _ = run_everywhere(warm, first, second, bandwidth=link)
        by_label = {entry.label: entry for entry in log}
        assert "pipelined" in by_label["second"].outcome[1]
        assert by_label["second"].now == 1.0
        assert by_label["first"].outcome[0] == "ConnectionClosedError"
        assert by_label["second-redials"].outcome[0] == 206
        assert [entry.label for entry in log] == ["connect", "second", "first", "second-redials"]

    def test_two_clients_on_two_links(self):
        def bandwidth():
            rng = np.random.Generator(np.random.PCG64([2014, 7]))
            return ARLogNormalBandwidth(1.0e6, sigma=0.5, rng=rng, rho=0.7, interval=0.3)

        def one(world):
            for index in range(4):
                yield from world.get("/big", client=world.clients[0], label=f"a{index}")

        def two(world):
            yield from world.sleep_until(0.37)
            for index in range(6):
                yield from world.get(
                    "/range", client=world.clients[1], address=OTHER, label=f"b{index}"
                )
            yield from world.get("/big", client=world.clients[1], label="b-big")

        log, counts = run_everywhere(one, two, bandwidth=bandwidth, clients=2, overload=1)
        assert all(isinstance(outcome[0], int) for outcome in outcomes(log))
        assert len(log) == 11
        # Each snapshot reads its own client's link: both carried bytes.
        last_carried = {entry.label[0]: entry.bytes_carried for entry in log}
        assert last_carried["a"] > 0.0 and last_carried["b"] > 0.0
        assert last_carried["a"] != last_carried["b"]
        assert counts["product"] < counts["parent"]


# -- event budgets -------------------------------------------------------------


def test_warm_get_inside_one_process_schedules_four_entries():
    """The RTT timer, then for the body the link's two wakes (one
    slow-start doubling — the remembered window sits a hair under the
    link rate — and the completion) and ``flow.done``."""
    world = World(SimHTTPClient, delegate)
    counts = []

    def script(world):
        yield from world.get("/range")  # cold: pays the handshakes
        for _ in range(3):
            before = world.env.scheduled_count
            yield from world.get("/range")
            counts.append(world.env.scheduled_count - before)

    world.run(script)
    assert counts == [4, 4, 4]

    # The same request through the process chain bought eight more.
    chain = World(ProcessChainClient, spawn)
    counts.clear()
    chain.run(script)
    assert counts == [12, 12, 12]


def test_warm_fetch_range_run_event_budget():
    """300 warm ``fetch_range`` calls of 64 KB against a token-checking
    video server on an 80 Mbit/s, 20 ms path, delegated with
    ``yield from`` as the simulated players do: 1237 scheduled entries.
    Per request that is the RTT timer, ``flow.done`` and the link's
    wakes for the body (the completion, a slow-start doubling while the
    window still binds, a share of the once-per-second segment
    boundary).  Through the five-deep process chain this replaced,
    every request bought eight more (DESIGN.md "Request path")."""
    requests = 300
    env = Environment()
    network = Network(env)
    iface = NetworkInterface(
        env,
        "wlan0",
        "wifi",
        Link(env, ConstantBandwidth(mbit(80.0))),
        ConstantLatency(0.020),
        "wifi-net",
        "10.0.0.2",
    )
    catalog = Catalog()
    catalog.add(
        VideoMeta(video_id="benchVIDEO1", title="t", author="a", duration_s=600.0, itags=(22,))
    )
    mint = TokenMint(secret=b"bench-token-secret")
    host = network.add_host(Host("v1.example", network_id="wifi-net"))
    SimHTTPServer(
        host,
        VideoServerApp(
            catalog, mint, clock=lambda: env.now, pool="wifi-net", signature_secret=b"sig"
        ),
    )
    token = mint.issue(0.0, "benchVIDEO1", "10.0.0.2", pool="wifi-net")
    signature = stream_signature("benchVIDEO1", 22, b"sig")
    client = SimHTTPClient(env, network, iface)

    def main(env):
        yield from client.connect("v1.example")
        before = env.scheduled_count
        for index in range(requests):
            byte_range = ByteRange(index * 64 * 1024, (index + 1) * 64 * 1024)
            yield from client.fetch_range(
                "v1.example", "benchVIDEO1", 22, token, signature, byte_range
            )
        return env.scheduled_count - before

    assert env.run(until=env.process(main(env))) == 1237
    assert host.bytes_served == requests * 64 * 1024


def test_single_path_world_event_budget():
    """310 range requests: 5184 scheduled entries through the process
    chain, 2684 with a ticker and OFF-period polls, 1286 on the playout
    clock (same ``finished_at``)."""
    driver = SinglePathDriver(
        Scenario(testbed_profile(), seed=7),
        iface_index=0,
        chunk_bytes=64 * 1024,
        stop="cycles",
        target_cycles=3,
    )
    outcome = driver.run()
    assert sum(outcome.requests_by_path.values()) == 310
    assert outcome.finished_at == 88.52255411505418
    assert driver.scenario.env.scheduled_count == 1286


def test_two_path_msplayer_session_event_budget():
    """MSPlayer spawns one process per fetch (the session races paths);
    everything under it delegates.  Pinned so a new spawn-and-wait link
    anywhere on the request path shows up as a count, not as a slowdown
    three PRs later.  With the playback ticker it took 2121 entries; the
    playout clock wakes only around threshold crossings."""
    driver = MSPlayerDriver(
        Scenario(testbed_profile(), seed=7),
        PlayerConfig(scheduler="ratio", base_chunk_bytes=64 * 1024),
        stop="cycles",
        target_cycles=2,
    )
    outcome = driver.run()
    assert outcome.requests_by_path == {0: 116, 1: 110}
    assert outcome.finished_at == 65.55653360861271
    assert driver.scenario.env.scheduled_count == 1472  # 2121 ticking, 3974 chained


def test_idle_steady_session_schedules_nothing():
    """A minute of STEADY playback with fetching OFF costs no kernel
    entry (a ticker spent 300 per 30 s): the clock's one wake sits just
    before the low-watermark crossing, ~80 s on."""
    config = PlayerConfig(prebuffer_s=80.0)

    def world():
        return MSPlayerDriver(
            Scenario(testbed_profile(), seed=7, config=ScenarioConfig(video_duration_s=300.0)),
            config,
            stop="cycles",
            target_cycles=1,
        )

    first = world()
    first.run()
    (steady_at, phase), (rebuffer_at, _) = first.session.buffer.transitions[:2]
    assert phase is BufferPhase.STEADY and rebuffer_at - steady_at > 100.0

    driver = world()
    driver.launch()
    env = driver.scenario.env
    counts = []
    for offset in (1.0, 31.0, 61.0):
        env.run(until=steady_at + offset)
        counts.append(env.scheduled_count)
    assert driver.session.buffer.phase is BufferPhase.STEADY
    assert counts[0] == counts[1] == counts[2]
