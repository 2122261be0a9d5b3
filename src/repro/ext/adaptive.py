"""DASH-style rate adaptation on top of multi-source multi-path (§7).

    "As dynamic adaptive streaming over HTTP (DASH) is now widely used,
    exploring how rate adaption can be integrated with MSPlayer [is]
    also our future work."

This module is that exploration: a segment-based adaptive player that
keeps MSPlayer's transport (two paths, two sources, range requests,
just-in-time buffering) and adds per-segment bitrate selection.

Model:

* the video exists in every itag of its ladder (the CDN already serves
  all of them); a *segment* is ``segment_s`` seconds of one itag —
  a byte range of that itag's CBR stream, so the unmodified
  :class:`~repro.cdn.videoserver.VideoServerApp` serves it;
* segments are fetched in playback order, at most one in flight per
  path; a completed segment adds ``segment_s`` seconds to the buffer
  once all earlier segments have arrived;
* a pluggable :class:`BitrateController` picks each segment's itag.

Controllers provided:

* :class:`FixedBitrateController` — the paper's constant-bitrate mode;
* :class:`BufferBasedController` — BBA-style: map the buffer level
  linearly onto the ladder between a reservoir and a cushion;
* :class:`ThroughputController` — FESTIVE-style: highest bitrate under
  a safety fraction of the harmonic-mean aggregate throughput [19].
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cdn.jsonapi import VideoInfo
from ..cdn.signature import decipher
from ..cdn.videos import FORMATS
from ..core.buffer import BufferPhase, PlayoutBuffer
from ..core.config import PlayerConfig
from ..core.estimators import HarmonicMeanEstimator
from ..core.metrics import QoEMetrics
from ..errors import CDNError, ConfigError, HTTPError, NetworkError
from ..http.client import SimHTTPClient
from ..http.ranges import ByteRange
from ..sim.driver import fetch_decoder, fetch_video_info
from ..sim.playout import PlayoutClock
from ..sim.scenario import Scenario


# ---------------------------------------------------------------------------
# Controllers
# ---------------------------------------------------------------------------


class BitrateController:
    """Interface: choose the itag for the next segment."""

    name = "abstract"

    def select(
        self,
        ladder: list[int],
        buffer_level_s: float,
        throughput_estimate: float | None,
        current_itag: int,
    ) -> int:
        """Return the itag (from ``ladder``, sorted ascending by rate)."""
        raise NotImplementedError


class FixedBitrateController(BitrateController):
    """The paper's mode: one constant bitrate, no adaptation (§2)."""

    name = "fixed"

    def __init__(self, itag: int) -> None:
        self.itag = itag

    def select(self, ladder, buffer_level_s, throughput_estimate, current_itag) -> int:
        if self.itag not in ladder:
            raise ConfigError(f"fixed itag {self.itag} not in ladder {ladder}")
        return self.itag


class BufferBasedController(BitrateController):
    """BBA-0-style: bitrate as a function of buffer occupancy.

    Below ``reservoir_s`` → lowest rate; above ``cushion_s`` → highest;
    linear ladder mapping in between.  Uses no throughput estimate at
    all, which makes it immune to estimate noise but slow off the mark.
    """

    name = "buffer"

    def __init__(self, reservoir_s: float = 8.0, cushion_s: float = 25.0) -> None:
        if not 0 < reservoir_s < cushion_s:
            raise ConfigError("need 0 < reservoir < cushion")
        self.reservoir_s = reservoir_s
        self.cushion_s = cushion_s

    def select(self, ladder, buffer_level_s, throughput_estimate, current_itag) -> int:
        if buffer_level_s <= self.reservoir_s:
            return ladder[0]
        if buffer_level_s >= self.cushion_s:
            return ladder[-1]
        fraction = (buffer_level_s - self.reservoir_s) / (self.cushion_s - self.reservoir_s)
        index = min(int(fraction * len(ladder)), len(ladder) - 1)
        return ladder[index]


class ThroughputController(BitrateController):
    """Highest bitrate sustainable under a safety-factored estimate.

    The estimate is the harmonic mean of recent segment throughputs —
    the same outlier-resistant statistic MSPlayer's scheduler uses
    (§3.3, [19]).  Falls back to the lowest rate until an estimate
    exists.
    """

    name = "throughput"

    def __init__(self, safety: float = 0.7) -> None:
        if not 0.0 < safety <= 1.0:
            raise ConfigError(f"safety must be in (0, 1], got {safety}")
        self.safety = safety

    def select(self, ladder, buffer_level_s, throughput_estimate, current_itag) -> int:
        if throughput_estimate is None:
            return ladder[0]
        budget = self.safety * throughput_estimate
        viable = [
            itag
            for itag in ladder
            if FORMATS[itag].total_bitrate_bytes_per_s <= budget
        ]
        return viable[-1] if viable else ladder[0]


# ---------------------------------------------------------------------------
# Outcome record
# ---------------------------------------------------------------------------


@dataclass
class AdaptiveOutcome:
    metrics: QoEMetrics
    stop_reason: str
    finished_at: float
    #: itag fetched for each segment index, in order.
    itag_history: list[int] = field(default_factory=list)

    @property
    def switches(self) -> int:
        return sum(1 for a, b in zip(self.itag_history, self.itag_history[1:], strict=False) if a != b)

    @property
    def mean_bitrate_bps(self) -> float:
        if not self.itag_history:
            return 0.0
        rates = [FORMATS[i].total_bitrate_bytes_per_s * 8 for i in self.itag_history]
        return sum(rates) / len(rates)

    def time_at_itag(self, itag: int) -> float:
        """Fraction of segments fetched at ``itag``."""
        if not self.itag_history:
            return 0.0
        return self.itag_history.count(itag) / len(self.itag_history)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


@dataclass
class _AdaptivePath:
    client: SimHTTPClient
    info: VideoInfo | None = None
    signatures: dict[int, str] = field(default_factory=dict)
    busy: bool = False
    server: str = ""


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
        self.metrics = QoEMetrics()
        self.itag_history: list[int] = []
        env = scenario.env
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
        self._clock = PlayoutClock(
            env, self.metrics, self.config.tick_s, stop=stop, max_sim_time=max_sim_time
        )
        self._clock.buffer = self.buffer
        self._next_to_schedule = 0
        self._arrived: set[int] = set()
        self._playable_frontier = 0  # segments contiguously received
        # One estimator per path; the controller sees their *sum* — a
        # multipath player's sustainable rate is the aggregate pipe
        # (segments ride one path each, but consecutive segments ride
        # both paths concurrently).
        self._estimators = {i: HarmonicMeanEstimator() for i in self._paths}
        self._current_itag = self._ladder[0]

    # -- public -----------------------------------------------------------------

    def run(self) -> AdaptiveOutcome:
        self.launch()
        self.scenario.env.run(until=self._clock.finished)
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
        self._clock.launch()

    @property
    def finished(self):
        """Event fired when the driver's stop condition is met."""
        return self._clock.finished

    def collect(self) -> AdaptiveOutcome:
        return AdaptiveOutcome(
            metrics=self.metrics,
            stop_reason=self._clock.stop_reason,
            finished_at=self.scenario.env.now,
            itag_history=list(self.itag_history),
        )

    # -- per-path fetch loop --------------------------------------------------------

    def _path_loop(self, path_id: int):
        clock = self._clock
        try:
            yield from self._bootstrap(path_id)
        except (NetworkError, CDNError, HTTPError):
            # Single-shot bootstrap per path; a dead path just idles
            # (robust failover is exercised by the core player).
            return
        while not clock.finished.triggered and not self._download_complete():
            if not self.buffer.fetch_on or self._next_to_schedule >= self._segment_count:
                yield clock.park()
                continue
            index = self._next_to_schedule
            self._next_to_schedule += 1
            itag = self._choose_itag()
            try:
                yield from self._fetch_segment(path_id, index, itag)
            except (NetworkError, CDNError, HTTPError):
                # Requeue the segment for the other path and retire.
                self._next_to_schedule = min(self._next_to_schedule, index)
                clock.open_gates()
                return

    def _aggregate_estimate(self) -> float | None:
        estimates = [
            e.estimate for e in self._estimators.values() if e.estimate is not None
        ]
        return sum(estimates) if estimates else None

    def _choose_itag(self) -> int:
        self._clock.look()
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
        proxy, info = yield from fetch_video_info(self.scenario, path.client, network_id)
        path.info = info
        decoder_program = None
        for itag in self._ladder:
            stream = info.stream(itag)
            if stream.needs_decipher:
                if decoder_program is None:
                    decoder_program = yield from fetch_decoder(path.client, proxy, info)
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
        info = path.info
        assert info is not None
        byte_range = self._segment_range(info, index, itag)
        timing = yield from path.client.fetch_range(
            path.server, info.video_id, itag, info.token, path.signatures[itag], byte_range
        )
        self._estimators[path_id].update(byte_range.length / timing.duration)
        prebuffering = self.buffer.phase is BufferPhase.PREBUFFERING
        self.metrics.record_chunk(
            path_id, byte_range.length, prebuffering, duration=timing.duration
        )
        self._on_segment_arrived(index, itag, env.now)

    # -- reassembly + buffer ----------------------------------------------------------

    def _on_segment_arrived(self, index: int, itag: int, now: float) -> None:
        self._clock.look()
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
            self._clock.note(previous, now)
        if self._download_complete():
            self.buffer.mark_download_complete(now)
            self._clock.open_gates()
        self._clock.rearm()

    def _download_complete(self) -> bool:
        return self._playable_frontier >= self._segment_count
