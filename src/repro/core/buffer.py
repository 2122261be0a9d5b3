"""Just-in-time playout buffer: pre-buffering then ON/OFF re-buffering.

The streaming strategy of §4, verbatim:

    "MSPlayer leaves the pre-buffering phase when more than 40-second
    video data is received.  It then consumes the video data until the
    playout buffer contains less than 10-second video.  MSPlayer
    resumes requesting chunks from both YouTube servers and refills the
    playout buffer until 20 seconds of video data are retrieved."

So there are two regimes:

* **PREBUFFERING** — fetch ON, playback not started; ends (and playback
  starts) once the buffer holds ``prebuffer_s`` of video;
* **steady state** — playback consumes the buffer; fetch toggles ON
  when the level drops below ``low_watermark_s`` and OFF again once
  ``rebuffer_fetch_s`` seconds' worth of data has been *retrieved in
  this ON cycle* (amount-based, matching the paper's wording and the
  re-buffering sizes swept in Fig. 5);
* **STALLED** — the buffer ran dry mid-playback (level 0): playback
  pauses, fetch is forced ON, and play resumes when the current ON
  cycle completes.  The paper's evaluation never stalls on its links,
  but a library must define the behaviour.

The buffer accounts *seconds of video*; the session converts bytes via
the asset's constant bitrate.  All methods take ``now`` explicitly —
sans-IO, no clock dependency.
"""

from __future__ import annotations

import enum

from ..errors import BufferError_, ConfigError
from .config import PlayerConfig


class BufferPhase(enum.Enum):
    PREBUFFERING = "prebuffering"
    STEADY = "steady"  # playing, fetch OFF
    REBUFFERING = "rebuffering"  # playing, fetch ON
    STALLED = "stalled"  # playback paused, fetch ON
    FINISHED = "finished"  # all video fetched; draining or done


class PlayoutBuffer:
    """Buffer state machine; emits fetch-ON/OFF decisions."""

    __slots__ = (
        "config",
        "video_duration_s",
        "level_s",
        "playhead_s",
        "phase",
        "cycle_fetched_s",
        "download_complete",
        "phase_entered_at",
        "transitions",
    )

    def __init__(self, config: PlayerConfig, video_duration_s: float) -> None:
        if video_duration_s <= 0:
            raise ConfigError("video duration must be positive")
        self.config = config
        self.video_duration_s = video_duration_s
        #: Seconds of contiguous video buffered ahead of the playhead.
        self.level_s = 0.0
        #: Playback position in seconds.
        self.playhead_s = 0.0
        self.phase = BufferPhase.PREBUFFERING
        #: Seconds of video retrieved during the current ON cycle.
        self.cycle_fetched_s = 0.0
        #: Set once every byte of the video has been received.
        self.download_complete = False
        #: Timestamps of phase entries, for metrics.
        self.phase_entered_at: float = 0.0
        # History of (time, phase) transitions.
        self.transitions: list[tuple[float, BufferPhase]] = []

    # -- queries ---------------------------------------------------------------

    @property
    def fetch_on(self) -> bool:
        """Should paths be requesting chunks right now?"""
        if self.download_complete:
            return False
        return self.phase in (
            BufferPhase.PREBUFFERING,
            BufferPhase.REBUFFERING,
            BufferPhase.STALLED,
        )

    @property
    def playing(self) -> bool:
        return self.phase in (BufferPhase.STEADY, BufferPhase.REBUFFERING) or (
            self.phase == BufferPhase.FINISHED and self.playhead_s < self.video_duration_s
        )

    @property
    def playback_finished(self) -> bool:
        return self.playhead_s >= self.video_duration_s - 1e-9

    # -- events -------------------------------------------------------------------

    def on_data(self, seconds_received: float, now: float) -> None:
        """Contiguous video extended by ``seconds_received`` seconds."""
        if seconds_received < 0:
            raise BufferError_(f"negative data increment {seconds_received}")
        self.level_s += seconds_received
        if self.fetch_on:
            self.cycle_fetched_s += seconds_received
        self._maybe_transition(now)

    def receive(self, seconds: float, now: float, first_byte_at: float | None = None) -> float:
        """``on_data`` for bytes that streamed in over ``[first_byte_at, now]``;
        returns when the threshold they crossed was actually crossed.

        Bytes arrive (to first order) linearly over a transfer, so a
        pre-buffer or ON-cycle target reached mid-chunk is credited at the
        proportional instant, not at completion — otherwise large chunks
        would cost up to one chunk duration of pure measurement granularity.
        """
        if self.phase is BufferPhase.PREBUFFERING:
            needed = self.config.prebuffer_s - self.level_s
        elif self.phase in (BufferPhase.REBUFFERING, BufferPhase.STALLED):
            needed = self.config.rebuffer_fetch_s - self.cycle_fetched_s
        else:
            needed = 0.0
        self.on_data(seconds, now)
        if first_byte_at is None or first_byte_at >= now or not 0.0 < needed < seconds:
            return now
        return first_byte_at + needed / seconds * (now - first_byte_at)

    def mark_download_complete(self, now: float) -> None:
        self.download_complete = True
        if self.phase is not BufferPhase.FINISHED:
            self._enter(BufferPhase.FINISHED, now)

    def on_tick(self, dt: float, now: float) -> float:
        """Advance playback by up to ``dt`` seconds; returns seconds played."""
        if dt < 0:
            raise BufferError_(f"negative tick {dt}")
        if not self.playing or dt <= 0.0:
            return 0.0
        played = min(dt, self.level_s, self.video_duration_s - self.playhead_s)
        self.playhead_s += played
        self.level_s -= played
        self._maybe_transition(now)
        return played

    # -- lazy playback (repro.sim.playout) ------------------------------------------
    #
    # Between data arrivals the buffer is a straight line: a driver can
    # replay the ticks a look has passed and wake only for the tick that
    # changes something.  Both walk the grid ``t = t + dt`` with the very
    # floats ``on_tick`` produces.

    def replay_ticks(self, t: float, until: float, dt: float) -> float:
        """Apply the ticks at ``t, t + dt, …`` strictly before ``until``, bit
        for bit as ``on_tick`` would; returns the first instant not applied.

        The ticks must change no phase and not finish playback (level only
        falls and the playhead only rises, so checking the end suffices).
        """
        if dt <= 0.0:
            raise BufferError_(f"non-positive tick {dt}")
        level, playhead, duration = self.level_s, self.playhead_s, self.video_duration_s
        playing = self.playing
        while t < until:
            if playing:
                played = min(dt, level, duration - playhead)
                playhead += played
                level -= played
            t = t + dt
        self.level_s, self.playhead_s = level, playhead
        if self._crossed(level, playhead):
            raise BufferError_(f"replayed ticks past a phase change before {until}")
        return t

    def next_change_at(self, t: float, dt: float) -> float | None:
        """The first grid instant from ``t`` on whose tick would change phase
        or finish playback if no data arrives; ``None`` while not playing or
        once playback cannot move (drained short of the end)."""
        if dt <= 0.0:
            raise BufferError_(f"non-positive tick {dt}")
        if not self.playing:
            return None
        level, playhead, duration = self.level_s, self.playhead_s, self.video_duration_s
        while True:
            played = min(dt, level, duration - playhead)
            playhead += played
            level -= played
            if self._crossed(level, playhead):
                return t
            if played <= 0.0:
                return None
            t = t + dt

    def safe_ticks(self, dt: float) -> int | None:
        """A closed-form lower bound: this many coming ticks cannot change
        phase or finish playback (``None`` while not playing).  Each tick
        plays at most ``dt``; one tick and 1e-9 relative absorb rounding."""
        if not self.playing:
            return None
        gap = self.video_duration_s - 1e-9 - self.playhead_s
        if self.phase is BufferPhase.STEADY:
            gap = min(gap, self.level_s - self.config.low_watermark_s)
        elif self.phase is BufferPhase.REBUFFERING:
            gap = min(gap, self.level_s - 1e-9)
        return max(int(gap / dt * (1.0 - 1e-9)) - 1, 0)

    def _crossed(self, level: float, playhead: float) -> bool:
        """Would a tick ending at ``level``/``playhead`` change phase or finish?"""
        if playhead >= self.video_duration_s - 1e-9:
            return True
        if self.phase is BufferPhase.STEADY:
            return level < self.config.low_watermark_s
        return self.phase is BufferPhase.REBUFFERING and level <= 1e-9

    # -- state machine ----------------------------------------------------------------

    def _maybe_transition(self, now: float) -> None:
        # A single event can warrant a cascade (e.g. one long tick takes
        # STEADY below the watermark *and* dry: STEADY → REBUFFERING →
        # STALLED), so re-evaluate until the phase stabilizes.
        while True:
            before = self.phase
            self._transition_step(now)
            if self.phase is before:
                return

    def _transition_step(self, now: float) -> None:
        if self.phase == BufferPhase.PREBUFFERING:
            if self.level_s >= self.config.prebuffer_s or self.download_complete:
                self._enter(BufferPhase.STEADY, now)
        elif self.phase == BufferPhase.STEADY:
            if self.download_complete:
                self._enter(BufferPhase.FINISHED, now)
            elif self.level_s < self.config.low_watermark_s:
                self.cycle_fetched_s = 0.0
                self._enter(BufferPhase.REBUFFERING, now)
        elif self.phase == BufferPhase.REBUFFERING:
            if self.download_complete:
                self._enter(BufferPhase.FINISHED, now)
            elif self.level_s <= 1e-9:
                self._enter(BufferPhase.STALLED, now)
            elif self.cycle_fetched_s >= self.config.rebuffer_fetch_s:
                self._enter(BufferPhase.STEADY, now)
        elif self.phase == BufferPhase.STALLED:
            if self.download_complete:
                self._enter(BufferPhase.FINISHED, now)
            elif self.cycle_fetched_s >= self.config.rebuffer_fetch_s:
                self._enter(BufferPhase.STEADY, now)

    def _enter(self, phase: BufferPhase, now: float) -> None:
        if phase is self.phase:
            return
        self.phase = phase
        self.phase_entered_at = now
        self.transitions.append((now, phase))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PlayoutBuffer {self.phase.value} level={self.level_s:.1f}s "
            f"playhead={self.playhead_s:.1f}s>"
        )
