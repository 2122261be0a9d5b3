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

The driver reuses the sans-IO :class:`~repro.core.buffer.PlayoutBuffer`,
:class:`~repro.core.metrics.QoEMetrics` and MSPlayer's
:class:`~repro.sim.playout.PlayoutClock`, so the measured quantities
are identical in definition to MSPlayer's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..cdn.jsonapi import VideoInfo
from ..cdn.signature import decipher
from ..core.buffer import PlayoutBuffer
from ..core.config import PlayerConfig
from ..core.metrics import QoEMetrics
from ..errors import CDNError, HTTPError, NetworkError
from ..http.client import SimHTTPClient
from ..http.ranges import ByteRange
from ..units import KB
from .driver import SessionOutcome, fetch_decoder, fetch_video_info
from .playout import PlayoutClock
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
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        self.scenario = scenario
        self.iface = scenario.iface_for(iface_index)
        self.iface_index = iface_index
        self.chunk_bytes = chunk_bytes
        self.config = config or PlayerConfig()
        self.metrics = QoEMetrics()
        self.buffer: PlayoutBuffer | None = None
        self._client = SimHTTPClient(scenario.env, scenario.network, self.iface)
        self._clock = PlayoutClock(
            scenario.env,
            self.metrics,
            self.config.tick_s,
            stop=stop,
            target_cycles=target_cycles,
            max_sim_time=max_sim_time,
        )
        self._info: VideoInfo | None = None
        self._signature = ""
        self._server = ""
        self._total_bytes = 0
        self._bitrate = 0.0
        self._frontier = 0

    # -- public -----------------------------------------------------------------

    def run(self) -> SessionOutcome:
        env = self.scenario.env
        self.metrics.session_started_at = env.now
        env.process(self._main())
        self._clock.launch()
        env.run(until=self._clock.finished)
        return SessionOutcome(
            metrics=self.metrics,
            finished_at=env.now,
            stop_reason=self._clock.stop_reason,
            peak_out_of_order=0,
            server_bytes=self.scenario.deployment.total_bytes_served(),
            requests_by_path=dict(self.metrics.requests_by_path),
        )

    # -- the player loop ------------------------------------------------------------

    def _main(self):
        clock = self._clock
        try:
            yield from self._bootstrap()
            yield from self._prebuffer()
            while not clock.finished.triggered and self._frontier < self._total_bytes:
                # OFF period: parked until the buffer may open an ON cycle.
                while not self._buffer().fetch_on:
                    if clock.finished.triggered or self._buffer().playback_finished:
                        return
                    yield clock.park()
                yield from self._fetch_cycle()
                clock.check_cycles()
            if self.buffer is not None and self._frontier >= self._total_bytes:
                self._download_complete()
        except (NetworkError, CDNError, HTTPError) as exc:
            # Single path, no failover: the baseline simply dies —
            # exactly the §2 robustness gap MSPlayer exists to close.
            clock.look()
            clock.finish_once(f"failed: {exc}")

    def _bootstrap(self):
        env = self.scenario.env
        proxy, info = yield from fetch_video_info(
            self.scenario, self._client, self.iface.network_id
        )
        self._info = info
        stream = info.stream(self.config.itag)
        if stream.needs_decipher:
            program = yield from fetch_decoder(self._client, proxy, info)
            self._signature = decipher(stream.enciphered_signature, program)
        else:
            self._signature = stream.signature
        self._server = stream.hosts[0]
        self._total_bytes = stream.size_bytes
        self._bitrate = stream.size_bytes / info.duration_s
        self.buffer = PlayoutBuffer(self.config, info.duration_s)
        self.buffer.phase_entered_at = env.now
        self._clock.buffer = self.buffer
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
            self._download_complete()

    def _download_complete(self) -> None:
        self._clock.look()
        self._buffer().mark_download_complete(self.scenario.env.now)
        self._clock.rearm()

    def _fetch_range(self, byte_range: ByteRange, prebuffering: bool):
        env = self.scenario.env
        info = self._info
        assert info is not None
        timing = yield from self._client.fetch_range(
            self._server, info.video_id, self.config.itag, info.token, self._signature, byte_range
        )
        self._clock.look()
        self._frontier = byte_range.stop
        self.metrics.record_chunk(
            self.iface_index, byte_range.length, prebuffering, duration=timing.duration
        )
        buffer = self._buffer()
        previous = buffer.phase
        credit = buffer.receive(byte_range.length / self._bitrate, env.now, timing.first_byte_at)
        self._clock.note(previous, credit)
        self._clock.rearm()

    def _buffer(self) -> PlayoutBuffer:
        if self.buffer is None:
            raise CDNError("buffer not initialised (bootstrap incomplete)")
        return self.buffer


if TYPE_CHECKING:  # pragma: no cover - static conformance declaration

    def _declares_session_driver(driver: SinglePathDriver) -> "SessionDriver":
        return driver

    from .execution import SessionDriver
