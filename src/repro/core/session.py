"""The MSPlayer session: sans-IO orchestration of paths, chunks, buffer.

Drivers (:mod:`repro.sim`, :mod:`repro.live`) feed *events* in and
execute the *commands* that come back:

events in                          commands out
------------------------------     ---------------------------------
start(now)                     →   StartBootstrap(path) per path
on_path_ready(path, info, now) →   FetchChunk(path, server, range)
on_chunk_complete(...)         →   FetchChunk | StartPlayback | SessionDone
on_chunk_failed(...)           →   StartBootstrap (failover) | PathDead
on_tick(now)                   →   FetchChunk (ON cycle begins) | SessionDone
on_interface_down/up(...)      →   PathDead | StartBootstrap

The session owns the paper's control loop: per-path bootstrap with the
fast path starting to fetch as soon as *its* JSON is decoded (§3.2 —
no waiting for the slow path), chunk sizing via the configured
scheduler (§3.3), just-in-time ON/OFF buffering (§4), and server
failover within a network (§2).  It never touches a socket or a clock,
which is what lets one implementation drive both a discrete-event
simulator and real asyncio sockets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PlayerError
from ..http.ranges import ByteRange
from .buffer import BufferPhase, PlayoutBuffer
from .chunks import ChunkLedger
from .config import PlayerConfig
from .metrics import QoEMetrics
from .paths import PathPhase, PathState
from .schedulers import ChunkScheduler, make_scheduler
from .sources import SourceManager


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


class Command:
    """Marker base class for driver instructions."""


@dataclass(frozen=True)
class StartBootstrap(Command):
    """(Re-)bootstrap a path: proxy handshake, JSON, video-server connect."""

    path_id: int
    #: When set, skip the proxy and connect straight to this video
    #: server (failover within a network reuses the valid token).
    server: str | None = None


@dataclass(frozen=True)
class FetchChunk(Command):
    """Issue a range request for ``byte_range`` on ``path_id``."""

    path_id: int
    server: str
    byte_range: ByteRange


@dataclass(frozen=True)
class StartPlayback(Command):
    """Pre-buffering target reached; the playhead may start moving."""

    at: float


@dataclass(frozen=True)
class PathDead(Command):
    """A path is out of service (interface down or sources exhausted)."""

    path_id: int
    reason: str


@dataclass(frozen=True)
class SessionDone(Command):
    """Playback (or the configured stop condition) completed."""

    at: float
    reason: str = "playback-finished"


@dataclass
class SessionEventResult:
    """What an event handler hands back to the driver."""

    commands: list[Command] = field(default_factory=list)


@dataclass(frozen=True)
class StreamDetails:
    """What a path learns from its bootstrap (subset of the JSON)."""

    total_bytes: int
    bitrate_bytes_per_s: float
    duration_s: float
    video_servers: tuple[str, ...]
    #: When the path finished decoding the proxy's JSON — the ψ
    #: milestone of Fig. 1; the path only becomes READY later, after
    #: the video-server handshake.
    json_completed_at: float | None = None


# --------------------------------------------------------------------------
# Session
# --------------------------------------------------------------------------


class PlayerSession:
    """One video playback, orchestrated sans-IO."""

    def __init__(self, config: PlayerConfig, path_specs: list[tuple[str, str]]) -> None:
        """``path_specs``: ordered ``(iface_name, network_id)`` per path."""
        if not 1 <= len(path_specs) <= config.max_paths:
            raise PlayerError(
                f"need 1..{config.max_paths} paths, got {len(path_specs)}"
            )
        self.config = config
        self.scheduler: ChunkScheduler = make_scheduler(config)
        self.paths: dict[int, PathState] = {}
        for path_id, (iface_name, network_id) in enumerate(path_specs):
            self.paths[path_id] = PathState(
                path_id=path_id,
                iface_name=iface_name,
                network_id=network_id,
                sources=SourceManager(network_id),
            )
            self.scheduler.register_path(path_id)
        self.metrics = QoEMetrics()
        # Created once the first bootstrap reveals the stream size.
        self.ledger: ChunkLedger | None = None
        self.buffer: PlayoutBuffer | None = None
        self._bitrate: float | None = None
        self._started = False
        self._done = False

    # -- event: session start ------------------------------------------------

    def start(self, now: float) -> SessionEventResult:
        """Kick off bootstrap on every path simultaneously (§3.2)."""
        if self._started:
            raise PlayerError("session already started")
        self._started = True
        self.metrics.session_started_at = now
        commands: list[Command] = []
        for path in self.paths.values():
            path.begin_bootstrap(now)
            commands.append(StartBootstrap(path.path_id))
        return SessionEventResult(commands)

    # -- event: a path finished bootstrapping ------------------------------------

    def on_path_ready(
        self, path_id: int, details: StreamDetails, now: float
    ) -> SessionEventResult:
        """The path decoded its JSON and its video connection is warm.

        The first path to arrive creates the ledger/buffer and starts
        fetching immediately — the paper's fast-path head start; the
        second path just joins the fetch rotation when it lands.
        """
        path = self._path(path_id)
        path.sources.set_candidates(list(details.video_servers))
        path.bootstrap_complete(now, json_completed_at=details.json_completed_at)

        if self.ledger is None:
            self.ledger = ChunkLedger(details.total_bytes)
            self.buffer = PlayoutBuffer(self.config, details.duration_s)
            self.buffer.phase_entered_at = now
            self._bitrate = details.bitrate_bytes_per_s
        elif self.ledger.total_bytes != details.total_bytes:
            raise PlayerError(
                f"paths disagree on stream size: {self.ledger.total_bytes} "
                f"vs {details.total_bytes}"
            )
        return SessionEventResult(self._dispatch_fetches(now))

    # -- event: chunk completed ------------------------------------------------------

    def on_chunk_complete(
        self,
        path_id: int,
        num_bytes: int,
        duration: float,
        now: float,
        first_byte_at: float | None = None,
    ) -> SessionEventResult:
        """A range request finished; returns follow-up work.

        ``first_byte_at`` (when the driver knows it) lets threshold
        crossings be credited at the moment the crossing *bytes*
        actually arrived: response bodies stream in progressively, so a
        buffer target reached mid-chunk should not be charged the whole
        chunk's completion time.  Without it, large chunks would
        penalize MSPlayer by up to one chunk duration of pure
        measurement granularity.
        """
        path = self._path(path_id)
        ledger, buffer = self._require_stream()
        prebuffering = buffer.phase is BufferPhase.PREBUFFERING

        before = ledger.contiguous_frontier
        ledger.complete_assignment(path_id)
        path.chunk_finished(now, first_byte_at=first_byte_at)
        if path.t_first_video_byte is not None and path_id in self.paths:
            started = path.t_bootstrap_started or now
            self.metrics.path_bootstrap.setdefault(path_id, (started, now))
        self.scheduler.record(path_id, num_bytes, duration)
        self.metrics.record_chunk(path_id, num_bytes, prebuffering, duration=duration)
        self.metrics.peak_out_of_order = max(
            self.metrics.peak_out_of_order, ledger.peak_out_of_order
        )

        commands: list[Command] = []
        advanced = ledger.contiguous_frontier - before
        if advanced > 0:
            previous_phase = buffer.phase
            credit_time = buffer.receive(advanced / self._bitrate_(), now, first_byte_at)
            commands.extend(self._phase_change_commands(previous_phase, credit_time))

        if ledger.complete:
            # A short video can complete its download before the buffer
            # ever reaches the pre-buffer target (PREBUFFERING →
            # FINISHED directly); playback still begins at that moment
            # and must be announced, or start-up delay is never
            # recorded.
            pre_complete_phase = buffer.phase
            buffer.mark_download_complete(now)
            self.metrics.download_completed_at = now
            if pre_complete_phase is BufferPhase.PREBUFFERING:
                commands.extend(self._phase_change_commands(pre_complete_phase, now))

        commands.extend(self._dispatch_fetches(now))
        return SessionEventResult(commands)

    # -- event: chunk / path failure -----------------------------------------------------

    def on_chunk_failed(
        self,
        path_id: int,
        bytes_delivered: int,
        now: float,
        reason: str = "network-error",
        interface_down: bool = False,
    ) -> SessionEventResult:
        """The in-flight chunk died; requeue and fail over (§2)."""
        path = self._path(path_id)
        ledger = self.ledger
        commands: list[Command] = []
        if ledger is not None and ledger.in_flight_for(path_id) is not None:
            before = ledger.contiguous_frontier
            ledger.fail_assignment(path_id, bytes_delivered)
            advanced = ledger.contiguous_frontier - before
            if advanced > 0 and self.buffer is not None:
                # The delivered prefix is playable video: credit it, or
                # those seconds would be lost to the buffer accounting
                # and playback could never drain to the end.
                previous_phase = self.buffer.phase
                self.buffer.on_data(advanced / self._bitrate_(), now)
                commands.extend(self._phase_change_commands(previous_phase, now))
            if ledger.complete and self.buffer is not None:
                pre_complete_phase = self.buffer.phase
                self.buffer.mark_download_complete(now)
                self.metrics.download_completed_at = now
                if pre_complete_phase is BufferPhase.PREBUFFERING:
                    commands.extend(
                        self._phase_change_commands(pre_complete_phase, now)
                    )
        path.mark_broken(now)

        if interface_down:
            path.mark_dead(now)
            commands.append(PathDead(path_id, reason="interface-down"))
        else:
            replacement = path.sources.report_failure(now)
            if replacement is None:
                path.mark_dead(now)
                commands.append(PathDead(path_id, reason="sources-exhausted"))
            else:
                self.metrics.failovers += 1
                self.scheduler.reset_path(path_id)
                path.begin_bootstrap(now)
                commands.append(StartBootstrap(path_id, server=replacement))

        if not any(p.alive for p in self.paths.values()):
            self._done = True
            commands.append(SessionDone(now, reason="all-paths-dead"))
            return SessionEventResult(commands)

        # The survivor picks up requeued work immediately.
        commands.extend(self._dispatch_fetches(now))
        return SessionEventResult(commands)

    # -- event: interface recovery ----------------------------------------------------------

    def on_interface_up(self, path_id: int, now: float) -> SessionEventResult:
        """Mobility: the interface returned; re-bootstrap the path."""
        path = self._path(path_id)
        if path.phase is not PathPhase.DEAD:
            return SessionEventResult([])
        path.revive(now)
        path.begin_bootstrap(now)
        return SessionEventResult([StartBootstrap(path_id)])

    # -- event: playback clock tick ------------------------------------------------------------

    def on_tick(self, dt: float, now: float) -> SessionEventResult:
        """Advance playback; may open an ON cycle or finish the session."""
        if self.buffer is None or self._done:
            return SessionEventResult([])
        buffer = self.buffer
        previous_phase = buffer.phase
        buffer.on_tick(dt, now)
        commands = self._phase_change_commands(previous_phase, now)
        commands.extend(self._dispatch_fetches(now))
        if buffer.playback_finished and not self._done:
            self._done = True
            if self.metrics.playback_finished_at is None:
                self.metrics.playback_finished_at = now
            commands.append(SessionDone(now))
        return SessionEventResult(commands)

    # -- queries -----------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._done

    @property
    def playback_started(self) -> bool:
        return self.metrics.playback_started_at is not None

    def path_phase(self, path_id: int) -> PathPhase:
        return self._path(path_id).phase

    # -- internals ------------------------------------------------------------------

    def _dispatch_fetches(self, now: float) -> list[Command]:
        """Hand new chunks to every idle path while fetching is ON."""
        if self.ledger is None or self.buffer is None:
            return []
        if not self.buffer.fetch_on:
            return []
        commands: list[Command] = []
        for path in self.paths.values():
            if not path.can_fetch:
                continue
            if self.ledger.in_flight_for(path.path_id) is not None:
                continue
            # §2 "Chunk Scheduler": at most `max_out_of_order` chunks may
            # sit completed-but-gapped.  A path wanting a beyond-frontier
            # chunk while the budget is spent idles until the gap fills
            # (the frontier chunk is in flight on the other path or in
            # the requeue, so progress is guaranteed).
            if self.ledger.out_of_order_count >= self.config.max_out_of_order:
                next_start = self.ledger.peek_next_start()
                if next_start is None or next_start > self.ledger.contiguous_frontier:
                    continue
            size = self.scheduler.chunk_size(path.path_id)
            assignment = self.ledger.assign(path.path_id, size)
            if assignment is None:
                break
            path.chunk_started(now)
            commands.append(
                FetchChunk(path.path_id, path.sources.active, assignment.byte_range)
            )
        return commands

    def _phase_change_commands(self, previous: BufferPhase, now: float) -> list[Command]:
        """Translate buffer transitions into metrics and commands."""
        buffer = self.buffer
        assert buffer is not None
        if self.metrics.note_phase_change(previous, buffer.phase, now, buffer.level_s):
            return [StartPlayback(at=now)]
        return []

    def _path(self, path_id: int) -> PathState:
        try:
            return self.paths[path_id]
        except KeyError:
            raise PlayerError(f"unknown path {path_id}") from None

    def _require_stream(self) -> tuple[ChunkLedger, PlayoutBuffer]:
        if self.ledger is None or self.buffer is None:
            raise PlayerError("no path has completed bootstrap yet")
        return self.ledger, self.buffer

    def _bitrate_(self) -> float:
        if self._bitrate is None:
            raise PlayerError("bitrate unknown before bootstrap")
        return self._bitrate
