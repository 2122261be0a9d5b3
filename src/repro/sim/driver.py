"""Runs a PlayerSession against a simulated scenario.

The driver is the IO half of MSPlayer: it executes the sans-IO
session's commands as simulated network activity —

* ``StartBootstrap`` → DNS lookup, HTTPS to the web proxy, JSON parse,
  the signature-decoder detour for copyrighted videos (footnote 1),
  then a warm HTTPS connection to the selected video server.  Each
  path bootstraps in its *own* process, so the fast path starts
  fetching video while the slow path is still shaking hands — the
  π₂−π₁ head start of §3.2 emerges rather than being scripted;
* ``FetchChunk`` → an HTTP range request on the path's persistent
  connection, feeding the completion (or failure) back in;
* playback runs on a :class:`~repro.sim.playout.PlayoutClock`: no
  ticker process — the clock replays the ``tick_s`` grid lazily at each
  look (each handler that feeds the session chunk data looks first) and
  wakes only for the tick that changes a phase or ends playback, where
  it calls ``on_tick`` exactly as a ticker would have.

Stop conditions support the experiments: ``"prebuffer"`` ends the run
at playback start (Figs. 2–4), ``"cycles"`` after N completed
re-buffering cycles (Fig. 5, Table 1), ``"full"`` at end of playback.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cdn.deployment import PROXY_DNS_NAME
from ..cdn.jsonapi import VideoInfo, parse_video_info
from ..cdn.signature import decipher
from ..cdn.webproxy import parse_decoder_page
from ..core.config import PlayerConfig
from ..core.metrics import QoEMetrics
from ..core.session import (
    Command,
    FetchChunk,
    PathDead,
    PlayerSession,
    SessionDone,
    StartBootstrap,
    StartPlayback,
    StreamDetails,
)
from ..errors import CDNError, HTTPError, NetworkError
from ..http.client import SimHTTPClient
from ..http.messages import Request
from .playout import PlayoutClock
from .scenario import Scenario


@dataclass
class PathRuntime:
    """Driver-side state for one path."""

    client: SimHTTPClient
    info: VideoInfo | None = None
    signature: str = ""
    decoder_program: list[tuple[str, int]] | None = None
    details: StreamDetails | None = None


@dataclass
class SessionOutcome:
    """Everything a trial reports."""

    metrics: QoEMetrics
    finished_at: float
    stop_reason: str
    peak_out_of_order: int
    #: Per-path measured bootstrap milestones (Fig. 1 reproduction).
    path_json_delay: dict[int, float] = field(default_factory=dict)
    path_first_video_delay: dict[int, float] = field(default_factory=dict)
    #: Bytes served per video server (source-diversity accounting).
    server_bytes: dict[str, int] = field(default_factory=dict)
    requests_by_path: dict[int, int] = field(default_factory=dict)

    @property
    def startup_delay(self) -> float | None:
        return self.metrics.startup_delay


def fetch_video_info(scenario: Scenario, client: SimHTTPClient, network_id: str):
    """Generator: resolve the web proxy and fetch the video's JSON (§3.1);
    returns ``(proxy, info)``.  Drive with ``yield from``."""
    addresses = yield from scenario.resolver.resolve(PROXY_DNS_NAME, network_id)
    proxy = addresses[0]
    response, _ = yield from client.get(
        proxy,
        Request.get(f"/videoinfo?v={scenario.video.video_id}", host=proxy),
        expect=(200,),
    )
    return proxy, parse_video_info(response.parsed_json())


def fetch_decoder(client: SimHTTPClient, proxy: str, info: VideoInfo):
    """Generator: the signature-decoder program of footnote 1."""
    page, _ = yield from client.get(
        proxy, Request.get(info.decoder_path, host=proxy), expect=(200,)
    )
    return parse_decoder_page(page.body)


class MSPlayerDriver:
    """Simulated-IO executor for one MSPlayer session."""

    def __init__(
        self,
        scenario: Scenario,
        config: PlayerConfig | None = None,
        stop: str = "full",
        target_cycles: int = 3,
        max_sim_time: float = 1800.0,
    ) -> None:
        self.scenario = scenario
        self.config = config or PlayerConfig()
        self.session = PlayerSession(self.config, scenario.path_specs(self.config.max_paths))
        env = scenario.env
        self._clock = PlayoutClock(
            env,
            self.session.metrics,
            self.config.tick_s,
            stop=stop,
            target_cycles=target_cycles,
            max_sim_time=max_sim_time,
            on_tick=self._tick,
        )
        self._runtimes: dict[int, PathRuntime] = {}
        for path_id in self.session.paths:
            iface = scenario.iface_for(path_id)
            self._runtimes[path_id] = PathRuntime(
                client=SimHTTPClient(env, scenario.network, iface)
            )
            iface.status_listeners.append(
                lambda down, path_id=path_id: self._on_iface_status(path_id, down)
            )

    # -- public -------------------------------------------------------------

    def run(self) -> SessionOutcome:
        self.launch()
        self.scenario.env.run(until=self.finished)
        return self.collect()

    def launch(self) -> None:
        """Start the session without running the event loop.

        Lets several drivers (multi-client experiments) share one
        environment: launch each, then run the environment until all
        of their ``finished`` events have fired.
        """
        env = self.scenario.env
        result = self.session.start(env.now)
        self._execute(result.commands)
        self._clock.launch()

    @property
    def finished(self):
        """Event fired when the driver's stop condition is met."""
        return self._clock.finished

    def collect(self) -> SessionOutcome:
        return self._collect()

    # -- command execution ------------------------------------------------------

    def _execute(self, commands: list[Command]) -> None:
        env = self.scenario.env
        clock = self._clock
        for command in commands:
            if isinstance(command, StartBootstrap):
                env.process(self._bootstrap(command.path_id, command.server))
            elif isinstance(command, FetchChunk):
                env.process(self._fetch(command))
            elif isinstance(command, StartPlayback):
                clock.started()
            elif isinstance(command, SessionDone):
                clock.finish_once(command.reason)
            elif isinstance(command, PathDead):
                pass  # informational; metrics carry the details
        clock.check_cycles()
        clock.rearm()

    # -- bootstrap -----------------------------------------------------------------

    def _bootstrap(self, path_id: int, server: str | None):
        """Process: full proxy bootstrap, or a failover redial to ``server``."""
        env = self.scenario.env
        runtime = self._runtimes[path_id]
        try:
            if server is not None and runtime.details is not None:
                # Failover within the network: token and signature stay
                # valid, only the data connection moves (§2).
                yield from runtime.client.connect(server)
                details = runtime.details
            else:
                details = yield from self._full_bootstrap(path_id, runtime)
        except (NetworkError, CDNError, HTTPError) as exc:
            iface = self.scenario.iface_for(path_id)
            self._clock.look()
            result = self.session.on_chunk_failed(
                path_id,
                bytes_delivered=0,
                now=env.now,
                reason=f"bootstrap: {exc}",
                interface_down=not iface.is_up,
            )
            self._execute(result.commands)
            return
        self._clock.look()
        result = self.session.on_path_ready(path_id, details, env.now)
        self._clock.buffer = self.session.buffer
        self._execute(result.commands)

    def _full_bootstrap(self, path_id: int, runtime: PathRuntime):
        """The §3.1/§4 sequence against the web proxy, then the video server."""
        env = self.scenario.env
        network_id = self.session.paths[path_id].network_id
        proxy, info = yield from fetch_video_info(self.scenario, runtime.client, network_id)
        json_completed_at = env.now
        runtime.info = info
        stream = info.stream(self.config.itag)

        if stream.needs_decipher:
            if runtime.decoder_program is None:
                runtime.decoder_program = yield from fetch_decoder(runtime.client, proxy, info)
            runtime.signature = decipher(
                stream.enciphered_signature, runtime.decoder_program
            )
        else:
            runtime.signature = stream.signature

        # Warm the data-plane connection (TCP + TLS) to the primary
        # video server so the first range request pays only its RTT.
        yield from runtime.client.connect(stream.hosts[0])
        details = StreamDetails(
            total_bytes=stream.size_bytes,
            bitrate_bytes_per_s=stream.size_bytes / info.duration_s,
            duration_s=info.duration_s,
            video_servers=tuple(stream.hosts),
            json_completed_at=json_completed_at,
        )
        runtime.details = details
        return details

    # -- chunk fetching ---------------------------------------------------------------

    def _fetch(self, command: FetchChunk):
        env = self.scenario.env
        runtime = self._runtimes[command.path_id]
        info = runtime.info
        if info is None:
            raise CDNError(f"path {command.path_id} fetching before bootstrap")
        try:
            timing = yield from runtime.client.fetch_range(
                command.server,
                info.video_id,
                self.config.itag,
                info.token,
                runtime.signature,
                command.byte_range,
            )
        except (NetworkError, CDNError, HTTPError) as exc:
            iface = self.scenario.iface_for(command.path_id)
            # Keep the in-order body prefix that made it before the
            # failure (minus a conservative header allowance), so the
            # survivor refetches only the missing suffix.
            wire_delivered = int(getattr(exc, "flow_bytes_delivered", 0))
            delivered = max(0, min(wire_delivered - 512, command.byte_range.length))
            self._clock.look()
            result = self.session.on_chunk_failed(
                command.path_id,
                bytes_delivered=delivered,
                now=env.now,
                reason=str(exc),
                interface_down=not iface.is_up,
            )
            self._execute(result.commands)
            return
        self._clock.look()
        result = self.session.on_chunk_complete(
            command.path_id,
            num_bytes=command.byte_range.length,
            duration=timing.duration,
            now=env.now,
            first_byte_at=timing.first_byte_at,
        )
        self._execute(result.commands)

    # -- clock and interface events --------------------------------------------------------

    def _tick(self, dt: float, now: float) -> None:
        """The clock's tick body: one playback step through the session."""
        self._execute(self.session.on_tick(dt, now).commands)

    def _on_iface_status(self, path_id: int, down: bool) -> None:
        if down:
            return  # in-flight flows abort; the fetch process reports it
        result = self.session.on_interface_up(path_id, self.scenario.env.now)
        self._execute(result.commands)

    # -- reporting -------------------------------------------------------------------------

    def _collect(self) -> SessionOutcome:
        metrics = self.session.metrics
        outcome = SessionOutcome(
            metrics=metrics,
            finished_at=self.scenario.env.now,
            stop_reason=self._clock.stop_reason,
            peak_out_of_order=(
                self.session.ledger.peak_out_of_order if self.session.ledger else 0
            ),
            server_bytes=self.scenario.deployment.total_bytes_served(),
            requests_by_path=dict(metrics.requests_by_path),
        )
        for path_id, path in self.session.paths.items():
            json_delay = path.bootstrap_duration()
            first_video = path.first_packet_delay()
            if json_delay is not None:
                outcome.path_json_delay[path_id] = json_delay
            if first_video is not None:
                outcome.path_first_video_delay[path_id] = first_video
        return outcome
