"""The ticking drivers, kept verbatim as oracles for the playout clock.

``MSPlayerDriver``, ``SinglePathDriver`` and ``AdaptiveSimDriver`` as
they were before :class:`repro.sim.playout.PlayoutClock` replaced their
0.1-s playback tickers, OFF-period polls, watchdog processes and
per-driver ``_finish_once``/``_note_transitions``: one kernel wake per
tick per session.  Only the imports changed (absolute instead of
relative).  ``tests/test_playout_clock.py`` runs every scenario through
these and through the product drivers and compares every outcome float
with ``==``.
"""

from __future__ import annotations

from repro.cdn.deployment import PROXY_DNS_NAME
from repro.cdn.jsonapi import VideoInfo, parse_video_info
from repro.cdn.signature import decipher
from repro.cdn.videos import FORMATS
from repro.cdn.webproxy import parse_decoder_page
from repro.core.buffer import BufferPhase, PlayoutBuffer
from repro.core.config import PlayerConfig
from repro.core.estimators import HarmonicMeanEstimator
from repro.core.metrics import QoEMetrics
from repro.core.session import (
    Command,
    FetchChunk,
    PathDead,
    PlayerSession,
    SessionDone,
    StartBootstrap,
    StartPlayback,
    StreamDetails,
)
from repro.errors import CDNError, ConfigError, HTTPError, NetworkError
from repro.ext.adaptive import AdaptiveOutcome, BitrateController, _AdaptivePath
from repro.http.client import SimHTTPClient
from repro.http.messages import Request
from repro.http.ranges import ByteRange
from repro.sim.driver import PathRuntime, SessionOutcome
from repro.sim.scenario import Scenario
from repro.sim.singlepath import HTML5_CHUNK


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
        if stop not in ("prebuffer", "cycles", "full"):
            raise ValueError(f"unknown stop condition {stop!r}")
        self.scenario = scenario
        self.config = config or PlayerConfig()
        self.stop = stop
        self.target_cycles = target_cycles
        self.max_sim_time = max_sim_time
        self.session = PlayerSession(self.config, scenario.path_specs(self.config.max_paths))
        env = scenario.env
        self._finish = env.event()
        self._stop_reason = "unknown"
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
        env.process(self._ticker())
        env.process(self._watchdog())

    @property
    def finished(self):
        """Event fired when the driver's stop condition is met."""
        return self._finish

    def collect(self) -> SessionOutcome:
        return self._collect()

    # -- command execution ------------------------------------------------------

    def _execute(self, commands: list[Command]) -> None:
        env = self.scenario.env
        for command in commands:
            if isinstance(command, StartBootstrap):
                env.process(self._bootstrap(command.path_id, command.server))
            elif isinstance(command, FetchChunk):
                env.process(self._fetch(command))
            elif isinstance(command, StartPlayback):
                if self.stop == "prebuffer":
                    self._finish_once("prebuffer-complete")
            elif isinstance(command, SessionDone):
                self._finish_once(command.reason)
            elif isinstance(command, PathDead):
                pass  # informational; metrics carry the details
        if (
            self.stop == "cycles"
            and len(self.session.metrics.completed_cycle_durations()) >= self.target_cycles
        ):
            self._finish_once("cycles-complete")

    def _finish_once(self, reason: str) -> None:
        if not self._finish.triggered:
            self._stop_reason = reason
            self._finish.succeed(reason)

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
            result = self.session.on_chunk_failed(
                path_id,
                bytes_delivered=0,
                now=env.now,
                reason=f"bootstrap: {exc}",
                interface_down=not iface.is_up,
            )
            self._execute(result.commands)
            return
        result = self.session.on_path_ready(path_id, details, env.now)
        self._execute(result.commands)

    def _full_bootstrap(self, path_id: int, runtime: PathRuntime):
        """The §3.1/§4 sequence against the web proxy, then the video server."""
        env = self.scenario.env
        network_id = self.session.paths[path_id].network_id
        addresses = yield from self.scenario.resolver.resolve(PROXY_DNS_NAME, network_id)
        proxy = addresses[0]
        response, _timing = yield from runtime.client.get(
            proxy,
            Request.get(f"/videoinfo?v={self.scenario.video.video_id}", host=proxy),
            expect=(200,),
        )
        info = parse_video_info(response.parsed_json())
        json_completed_at = env.now
        runtime.info = info
        stream = info.stream(self.config.itag)

        if stream.needs_decipher:
            if runtime.decoder_program is None:
                page, _ = yield from runtime.client.get(
                    proxy, Request.get(info.decoder_path, host=proxy), expect=(200,)
                )
                runtime.decoder_program = parse_decoder_page(page.body)
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
        target = info.playback_target(self.config.itag, runtime.signature)
        request = Request.get(target, host=command.server, byte_range=command.byte_range)
        try:
            _response, timing = yield from runtime.client.get(
                command.server, request, expect=(206,)
            )
        except (NetworkError, CDNError, HTTPError) as exc:
            iface = self.scenario.iface_for(command.path_id)
            # Keep the in-order body prefix that made it before the
            # failure (minus a conservative header allowance), so the
            # survivor refetches only the missing suffix.
            wire_delivered = int(getattr(exc, "flow_bytes_delivered", 0))
            delivered = max(0, min(wire_delivered - 512, command.byte_range.length))
            result = self.session.on_chunk_failed(
                command.path_id,
                bytes_delivered=delivered,
                now=env.now,
                reason=str(exc),
                interface_down=not iface.is_up,
            )
            self._execute(result.commands)
            return
        result = self.session.on_chunk_complete(
            command.path_id,
            num_bytes=command.byte_range.length,
            duration=timing.duration,
            now=env.now,
            first_byte_at=timing.first_byte_at,
        )
        self._execute(result.commands)

    # -- background processes ------------------------------------------------------------

    def _ticker(self):
        env = self.scenario.env
        tick = self.config.tick_s
        while not self._finish.triggered:
            yield env.pooled_timeout(tick)
            result = self.session.on_tick(tick, env.now)
            self._execute(result.commands)

    def _watchdog(self):
        env = self.scenario.env
        yield env.pooled_timeout(self.max_sim_time)
        self._finish_once("timeout")

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
            stop_reason=self._stop_reason,
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


class SinglePathDriver:
    """One-interface, one-server, fixed-chunk player."""

    def __init__(
        self,
        scenario: Scenario,
        iface_index: int,
        chunk_bytes: int = HTML5_CHUNK,
        config: PlayerConfig | None = None,
        stop: str = "full",
        target_cycles: int = 3,
        max_sim_time: float = 1800.0,
    ) -> None:
        if stop not in ("prebuffer", "cycles", "full"):
            raise ValueError(f"unknown stop condition {stop!r}")
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        self.scenario = scenario
        self.iface = scenario.iface_for(iface_index)
        self.iface_index = iface_index
        self.chunk_bytes = chunk_bytes
        self.config = config or PlayerConfig()
        self.stop = stop
        self.target_cycles = target_cycles
        self.max_sim_time = max_sim_time
        self.metrics = QoEMetrics()
        self.buffer: PlayoutBuffer | None = None
        self._client = SimHTTPClient(scenario.env, scenario.network, self.iface)
        self._finish = scenario.env.event()
        self._stop_reason = "unknown"
        self._info: VideoInfo | None = None
        self._signature = ""
        self._server = ""
        self._total_bytes = 0
        self._bitrate = 0.0
        self._frontier = 0
        self._playback_announced = False

    # -- public -----------------------------------------------------------------

    def run(self) -> SessionOutcome:
        env = self.scenario.env
        self.metrics.session_started_at = env.now
        env.process(self._main())
        env.process(self._ticker())
        env.process(self._watchdog())
        env.run(until=self._finish)
        return SessionOutcome(
            metrics=self.metrics,
            finished_at=env.now,
            stop_reason=self._stop_reason,
            peak_out_of_order=0,
            server_bytes=self.scenario.deployment.total_bytes_served(),
            requests_by_path=dict(self.metrics.requests_by_path),
        )

    # -- the player loop ------------------------------------------------------------

    def _main(self):
        env = self.scenario.env
        try:
            yield from self._bootstrap()
            yield from self._prebuffer()
            while not self._finish.triggered and self._frontier < self._total_bytes:
                # OFF period: wait until the buffer opens an ON cycle.
                while not self._buffer().fetch_on:
                    if self._finish.triggered or self._buffer().playback_finished:
                        return
                    yield env.pooled_timeout(self.config.tick_s)
                yield from self._fetch_cycle()
                self._check_cycles_stop()
            if self.buffer is not None and self._frontier >= self._total_bytes:
                self.buffer.mark_download_complete(env.now)
        except (NetworkError, CDNError, HTTPError) as exc:
            # Single path, no failover: the baseline simply dies —
            # exactly the §2 robustness gap MSPlayer exists to close.
            self._finish_once(f"failed: {exc}")

    def _bootstrap(self):
        env = self.scenario.env
        addresses = yield from self.scenario.resolver.resolve(
            PROXY_DNS_NAME, self.iface.network_id
        )
        proxy = addresses[0]
        response, _ = yield from self._client.get(
            proxy,
            Request.get(f"/videoinfo?v={self.scenario.video.video_id}", host=proxy),
            expect=(200,),
        )
        info = parse_video_info(response.parsed_json())
        self._info = info
        stream = info.stream(self.config.itag)
        if stream.needs_decipher:
            page, _ = yield from self._client.get(
                proxy, Request.get(info.decoder_path, host=proxy), expect=(200,)
            )
            self._signature = decipher(
                stream.enciphered_signature, parse_decoder_page(page.body)
            )
        else:
            self._signature = stream.signature
        self._server = stream.hosts[0]
        self._total_bytes = stream.size_bytes
        self._bitrate = stream.size_bytes / info.duration_s
        self.buffer = PlayoutBuffer(self.config, info.duration_s)
        self.buffer.phase_entered_at = env.now
        yield from self._client.connect(self._server)

    def _prebuffer(self):
        """One large range covering the pre-buffer amount (§6)."""
        amount = min(
            int(self.config.prebuffer_s * self._bitrate), self._total_bytes
        )
        yield from self._fetch_range(ByteRange(0, amount), prebuffering=True)

    def _fetch_cycle(self):
        """One ON cycle of fixed-size chunks (re-buffering phase)."""
        buffer = self._buffer()
        while buffer.fetch_on and self._frontier < self._total_bytes:
            stop = min(self._frontier + self.chunk_bytes, self._total_bytes)
            yield from self._fetch_range(ByteRange(self._frontier, stop), prebuffering=False)
        if self._frontier >= self._total_bytes:
            buffer.mark_download_complete(self.scenario.env.now)

    def _fetch_range(self, byte_range: ByteRange, prebuffering: bool):
        env = self.scenario.env
        assert self._info is not None
        target = self._info.playback_target(self.config.itag, self._signature)
        request = Request.get(target, host=self._server, byte_range=byte_range)
        _response, timing = yield from self._client.get(self._server, request, expect=(206,))
        self._frontier = byte_range.stop
        self.metrics.record_chunk(
            self.iface_index, byte_range.length, prebuffering, duration=timing.duration
        )
        buffer = self._buffer()
        previous = buffer.phase
        before_level = buffer.level_s
        before_cycle = buffer.cycle_fetched_s
        advanced_s = byte_range.length / self._bitrate
        buffer.on_data(advanced_s, env.now)
        # Credit threshold crossings at the in-transfer instant the
        # crossing bytes arrived (same interpolation as PlayerSession).
        credit = env.now
        if previous is BufferPhase.PREBUFFERING:
            needed = self.config.prebuffer_s - before_level
        elif previous in (BufferPhase.REBUFFERING, BufferPhase.STALLED):
            needed = self.config.rebuffer_fetch_s - before_cycle
        else:
            needed = -1.0
        if 0 < needed < advanced_s and timing.first_byte_at < env.now:
            fraction = needed / advanced_s
            credit = timing.first_byte_at + fraction * (env.now - timing.first_byte_at)
        self._note_transitions(previous, credit)

    # -- buffer bookkeeping -------------------------------------------------------------

    def _ticker(self):
        env = self.scenario.env
        tick = self.config.tick_s
        while not self._finish.triggered:
            yield env.pooled_timeout(tick)
            if self.buffer is None:
                continue
            previous = self.buffer.phase
            self.buffer.on_tick(tick, env.now)
            self._note_transitions(previous, env.now)
            if self.buffer.playback_finished:
                if self.metrics.playback_finished_at is None:
                    self.metrics.playback_finished_at = env.now
                self._finish_once("playback-finished")

    def _note_transitions(self, previous: BufferPhase, now: float) -> None:
        buffer = self._buffer()
        current = buffer.phase
        if current is previous:
            return
        if previous is BufferPhase.PREBUFFERING and not self._playback_announced:
            self._playback_announced = True
            self.metrics.prebuffer_completed_at = now
            self.metrics.playback_started_at = now
            if self.stop == "prebuffer":
                self._finish_once("prebuffer-complete")
        if current is BufferPhase.REBUFFERING and previous is BufferPhase.STEADY:
            self.metrics.begin_rebuffer_cycle(now, buffer.level_s)
        if previous in (BufferPhase.REBUFFERING, BufferPhase.STALLED) and current in (
            BufferPhase.STEADY,
            BufferPhase.FINISHED,
        ):
            self.metrics.end_rebuffer_cycle(now)
        if current is BufferPhase.STALLED:
            self.metrics.begin_stall(now)
        if previous is BufferPhase.STALLED:
            self.metrics.end_stall(now)
        self._check_cycles_stop()

    def _check_cycles_stop(self) -> None:
        if (
            self.stop == "cycles"
            and len(self.metrics.completed_cycle_durations()) >= self.target_cycles
        ):
            self._finish_once("cycles-complete")

    def _watchdog(self):
        yield self.scenario.env.pooled_timeout(self.max_sim_time)
        self._finish_once("timeout")

    def _finish_once(self, reason: str) -> None:
        if not self._finish.triggered:
            self._stop_reason = reason
            self._finish.succeed(reason)

    def _buffer(self) -> PlayoutBuffer:
        if self.buffer is None:
            raise CDNError("buffer not initialised (bootstrap incomplete)")
        return self.buffer


class AdaptiveSimDriver:
    """Segment-based adaptive player over the simulated substrate."""

    def __init__(
        self,
        scenario: Scenario,
        controller: BitrateController,
        config: PlayerConfig | None = None,
        segment_s: float = 4.0,
        stop: str = "full",
        max_sim_time: float = 1800.0,
    ) -> None:
        if segment_s <= 0:
            raise ConfigError("segment_s must be positive")
        if stop not in ("prebuffer", "full"):
            raise ValueError(f"unknown stop condition {stop!r}")
        self.scenario = scenario
        self.controller = controller
        self.config = config or PlayerConfig()
        self.segment_s = segment_s
        self.stop = stop
        self.max_sim_time = max_sim_time
        self.metrics = QoEMetrics()
        self.itag_history: list[int] = []
        env = scenario.env
        self._finish = env.event()
        self._stop_reason = "unknown"
        self._paths = {
            i: _AdaptivePath(client=SimHTTPClient(env, scenario.network, scenario.iface_for(i)))
            for i in range(self.config.max_paths)
        }
        self._ladder = sorted(
            scenario.video.itags, key=lambda i: FORMATS[i].total_bitrate_bytes_per_s
        )
        duration = scenario.video.duration_s
        self._segment_count = max(int(duration // segment_s) + (duration % segment_s > 0), 1)
        self.buffer = PlayoutBuffer(self.config, duration)
        self._next_to_schedule = 0
        self._arrived: set[int] = set()
        self._playable_frontier = 0  # segments contiguously received
        # One estimator per path; the controller sees their *sum* — a
        # multipath player's sustainable rate is the aggregate pipe
        # (segments ride one path each, but consecutive segments ride
        # both paths concurrently).
        self._estimators = {i: HarmonicMeanEstimator() for i in self._paths}
        self._current_itag = self._ladder[0]
        self._playback_announced = False

    # -- public -----------------------------------------------------------------

    def run(self) -> AdaptiveOutcome:
        self.launch()
        self.scenario.env.run(until=self._finish)
        return self.collect()

    def launch(self) -> None:
        """Start the session without running the event loop.

        The same split :class:`~repro.sim.driver.MSPlayerDriver` offers:
        shared-environment populations launch many drivers, then run
        the environment until every ``finished`` event has fired.
        """
        env = self.scenario.env
        self.metrics.session_started_at = env.now
        for path_id in self._paths:
            env.process(self._path_loop(path_id))
        env.process(self._ticker())
        env.process(self._watchdog())

    @property
    def finished(self):
        """Event fired when the driver's stop condition is met."""
        return self._finish

    def collect(self) -> AdaptiveOutcome:
        return AdaptiveOutcome(
            metrics=self.metrics,
            stop_reason=self._stop_reason,
            finished_at=self.scenario.env.now,
            itag_history=list(self.itag_history),
        )

    # -- per-path fetch loop --------------------------------------------------------

    def _path_loop(self, path_id: int):
        env = self.scenario.env
        try:
            yield from self._bootstrap(path_id)
        except (NetworkError, CDNError, HTTPError):
            # Single-shot bootstrap per path; a dead path just idles
            # (robust failover is exercised by the core player).
            return
        while not self._finish.triggered and not self._download_complete():
            if not self.buffer.fetch_on or self._next_to_schedule >= self._segment_count:
                yield env.pooled_timeout(self.config.tick_s)
                continue
            index = self._next_to_schedule
            self._next_to_schedule += 1
            itag = self._choose_itag()
            try:
                yield from self._fetch_segment(path_id, index, itag)
            except (NetworkError, CDNError, HTTPError):
                # Requeue the segment for the other path and retire.
                self._next_to_schedule = min(self._next_to_schedule, index)
                return

    def _aggregate_estimate(self) -> float | None:
        estimates = [
            e.estimate for e in self._estimators.values() if e.estimate is not None
        ]
        return sum(estimates) if estimates else None

    def _choose_itag(self) -> int:
        itag = self.controller.select(
            self._ladder,
            self.buffer.level_s,
            self._aggregate_estimate(),
            self._current_itag,
        )
        self._current_itag = itag
        return itag

    # -- IO ------------------------------------------------------------------------

    def _bootstrap(self, path_id: int):
        path = self._paths[path_id]
        network_id = self.scenario.iface_for(path_id).network_id
        addresses = yield from self.scenario.resolver.resolve(PROXY_DNS_NAME, network_id)
        proxy = addresses[0]
        response, _ = yield from path.client.get(
            proxy,
            Request.get(f"/videoinfo?v={self.scenario.video.video_id}", host=proxy),
            expect=(200,),
        )
        info = parse_video_info(response.parsed_json())
        path.info = info
        decoder_program = None
        for itag in self._ladder:
            stream = info.stream(itag)
            if stream.needs_decipher:
                if decoder_program is None:
                    page, _ = yield from path.client.get(
                        proxy, Request.get(info.decoder_path, host=proxy), expect=(200,)
                    )
                    decoder_program = parse_decoder_page(page.body)
                path.signatures[itag] = decipher(
                    stream.enciphered_signature, decoder_program
                )
            else:
                path.signatures[itag] = stream.signature
        path.server = info.stream(self._ladder[0]).hosts[0]
        yield from path.client.connect(path.server)

    def _segment_range(self, info: VideoInfo, index: int, itag: int) -> ByteRange:
        size = info.stream(itag).size_bytes
        rate = FORMATS[itag].total_bitrate_bytes_per_s
        start = int(index * self.segment_s * rate)
        stop = min(int((index + 1) * self.segment_s * rate), size)
        return ByteRange(min(start, size - 1), max(stop, min(start, size - 1) + 1))

    def _fetch_segment(self, path_id: int, index: int, itag: int):
        env = self.scenario.env
        path = self._paths[path_id]
        assert path.info is not None
        byte_range = self._segment_range(path.info, index, itag)
        target = path.info.playback_target(itag, path.signatures[itag])
        request = Request.get(target, host=path.server, byte_range=byte_range)
        _response, timing = yield from path.client.get(path.server, request, expect=(206,))
        self._estimators[path_id].update(byte_range.length / timing.duration)
        prebuffering = self.buffer.phase is BufferPhase.PREBUFFERING
        self.metrics.record_chunk(
            path_id, byte_range.length, prebuffering, duration=timing.duration
        )
        self._on_segment_arrived(index, itag, env.now)

    # -- reassembly + buffer ----------------------------------------------------------

    def _on_segment_arrived(self, index: int, itag: int, now: float) -> None:
        self._arrived.add(index)
        while len(self.itag_history) <= index:
            self.itag_history.append(itag)
        self.itag_history[index] = itag
        advanced = 0
        while self._playable_frontier in self._arrived:
            self._playable_frontier += 1
            advanced += 1
        if advanced:
            previous = self.buffer.phase
            seconds = min(
                advanced * self.segment_s,
                self.buffer.video_duration_s
                - (self.buffer.playhead_s + self.buffer.level_s),
            )
            self.buffer.on_data(max(seconds, 0.0), now)
            self._note_transitions(previous, now)
        if self._download_complete():
            self.buffer.mark_download_complete(now)

    def _download_complete(self) -> bool:
        return self._playable_frontier >= self._segment_count

    # -- playback clock ------------------------------------------------------------------

    def _ticker(self):
        env = self.scenario.env
        tick = self.config.tick_s
        while not self._finish.triggered:
            yield env.pooled_timeout(tick)
            previous = self.buffer.phase
            self.buffer.on_tick(tick, env.now)
            self._note_transitions(previous, env.now)
            if self.buffer.playback_finished:
                if self.metrics.playback_finished_at is None:
                    self.metrics.playback_finished_at = env.now
                self._finish_once("playback-finished")

    def _note_transitions(self, previous: BufferPhase, now: float) -> None:
        current = self.buffer.phase
        if current is previous:
            return
        if previous is BufferPhase.PREBUFFERING and not self._playback_announced:
            self._playback_announced = True
            self.metrics.prebuffer_completed_at = now
            self.metrics.playback_started_at = now
            if self.stop == "prebuffer":
                self._finish_once("prebuffer-complete")
        if current is BufferPhase.REBUFFERING and previous is BufferPhase.STEADY:
            self.metrics.begin_rebuffer_cycle(now, self.buffer.level_s)
        if previous in (BufferPhase.REBUFFERING, BufferPhase.STALLED) and current in (
            BufferPhase.STEADY,
            BufferPhase.FINISHED,
        ):
            self.metrics.end_rebuffer_cycle(now)
        if current is BufferPhase.STALLED:
            self.metrics.begin_stall(now)
        if previous is BufferPhase.STALLED:
            self.metrics.end_stall(now)

    def _watchdog(self):
        yield self.scenario.env.pooled_timeout(self.max_sim_time)
        self._finish_once("timeout")

    def _finish_once(self, reason: str) -> None:
        if not self._finish.triggered:
            self._stop_reason = reason
            self._finish.succeed(reason)
