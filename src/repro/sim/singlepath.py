"""Single-path baseline player (the Figs. 2/4/5 comparators).

Emulates how the commercial YouTube players of 2014 behaved over one
interface, per the paper's description (§6) and [23]:

* **pre-buffering**: the specified amount of video is requested as
  *one large chunk* ("commercial players accumulate video data of a
  specified amount as one large chunk");
* **re-buffering**: periodic ON/OFF cycles issuing HTTP range requests
  of a *fixed* chunk size — 64 KB (Adobe Flash) or 256 KB (HTML5);
* a single path, a single video server, the same buffer thresholds as
  MSPlayer (the comparison isolates multi-source/multi-path + dynamic
  chunking).

The driver reuses the sans-IO :class:`~repro.core.buffer.PlayoutBuffer`
and :class:`~repro.core.metrics.QoEMetrics`, so the measured quantities
are identical in definition to MSPlayer's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..cdn.deployment import PROXY_DNS_NAME
from ..cdn.jsonapi import VideoInfo, parse_video_info
from ..cdn.signature import decipher
from ..cdn.webproxy import parse_decoder_page
from ..core.buffer import BufferPhase, PlayoutBuffer
from ..core.config import PlayerConfig
from ..core.metrics import QoEMetrics
from ..errors import CDNError, HTTPError, NetworkError
from ..http.client import SimHTTPClient
from ..http.messages import Request
from ..http.ranges import ByteRange
from ..units import KB
from .driver import SessionOutcome
from .scenario import Scenario

#: Chunk sizes of the commercial comparators [23].
FLASH_CHUNK = 64 * KB
HTML5_CHUNK = 256 * KB


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


if TYPE_CHECKING:  # pragma: no cover - static conformance declaration

    def _declares_session_driver(driver: SinglePathDriver) -> "SessionDriver":
        return driver

    from .execution import SessionDriver
