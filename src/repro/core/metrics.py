"""QoE and transport metrics collected during a session.

Everything the paper's evaluation reports comes out of this object:

* **start-up delay / pre-buffering download time** (Figs. 2–4): from
  session start to playback start;
* **re-buffering cycle durations** (Fig. 5): each ON cycle's
  fetch-start → target-reached time;
* **per-path traffic fractions** (Table 1), split by phase — the paper
  reports WiFi's share separately for pre- and re-buffering;
* stalls (count and duration), request counts, handshake overhead,
  failover events — the robustness extras (EXP-X1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .buffer import BufferPhase


@dataclass
class StallEvent:
    started_at: float
    ended_at: float | None = None

    @property
    def duration(self) -> float:
        if self.ended_at is None:
            raise ValueError("stall still in progress")
        return self.ended_at - self.started_at


@dataclass
class RebufferCycle:
    started_at: float
    ended_at: float | None = None
    level_at_start_s: float = 0.0

    @property
    def duration(self) -> float:
        if self.ended_at is None:
            raise ValueError("re-buffering cycle still in progress")
        return self.ended_at - self.started_at


@dataclass
class QoEMetrics:
    """Accumulated session metrics."""

    session_started_at: float = 0.0
    playback_started_at: float | None = None
    prebuffer_completed_at: float | None = None
    playback_finished_at: float | None = None
    download_completed_at: float | None = None

    #: path_id -> video bytes delivered in the pre-buffering phase.
    prebuffer_bytes_by_path: dict[int, int] = field(default_factory=dict)
    #: path_id -> video bytes delivered after pre-buffering.
    rebuffer_bytes_by_path: dict[int, int] = field(default_factory=dict)
    #: path_id -> range request count.
    requests_by_path: dict[int, int] = field(default_factory=dict)
    #: path_id -> seconds the path's radio spent actively transferring
    #: (request-to-completion time summed over chunks) — the input to
    #: the energy model (repro.ext.energy).
    active_time_by_path: dict[int, float] = field(default_factory=dict)
    #: path_id -> (bootstrap_started, first_video_byte) timestamps.
    path_bootstrap: dict[int, tuple[float, float]] = field(default_factory=dict)

    stalls: list[StallEvent] = field(default_factory=list)
    rebuffer_cycles: list[RebufferCycle] = field(default_factory=list)
    failovers: int = 0
    peak_out_of_order: int = 0

    # -- recording -------------------------------------------------------------

    def record_chunk(
        self, path_id: int, num_bytes: int, prebuffering: bool, duration: float = 0.0
    ) -> None:
        target = self.prebuffer_bytes_by_path if prebuffering else self.rebuffer_bytes_by_path
        target[path_id] = target.get(path_id, 0) + num_bytes
        self.requests_by_path[path_id] = self.requests_by_path.get(path_id, 0) + 1
        if duration > 0:
            self.active_time_by_path[path_id] = (
                self.active_time_by_path.get(path_id, 0.0) + duration
            )

    def begin_stall(self, now: float) -> None:
        self.stalls.append(StallEvent(started_at=now))

    def end_stall(self, now: float) -> None:
        if self.stalls and self.stalls[-1].ended_at is None:
            # Interpolated credit times can predate the stall's start
            # (the crossing bytes arrived before the buffer ran dry);
            # a stall can never have negative duration.
            self.stalls[-1].ended_at = max(now, self.stalls[-1].started_at)

    def begin_rebuffer_cycle(self, now: float, level_s: float) -> None:
        self.rebuffer_cycles.append(RebufferCycle(started_at=now, level_at_start_s=level_s))

    def end_rebuffer_cycle(self, now: float) -> None:
        if self.rebuffer_cycles and self.rebuffer_cycles[-1].ended_at is None:
            cycle = self.rebuffer_cycles[-1]
            cycle.ended_at = max(now, cycle.started_at)

    def note_phase_change(
        self, previous: BufferPhase, current: BufferPhase, now: float, level_s: float
    ) -> bool:
        """Record the buffer's ``previous → current`` transition at ``now``.

        The one translation of buffer phases into QoE every driver
        shares.  Returns True when the transition starts playback (the
        first exit from pre-buffering), which the caller announces.
        """
        if current is previous:
            return False
        started = previous is BufferPhase.PREBUFFERING and self.playback_started_at is None
        if started:
            self.prebuffer_completed_at = now
            self.playback_started_at = now
        if current is BufferPhase.REBUFFERING and previous is BufferPhase.STEADY:
            self.begin_rebuffer_cycle(now, level_s)
        if previous in (BufferPhase.REBUFFERING, BufferPhase.STALLED) and current in (
            BufferPhase.STEADY,
            BufferPhase.FINISHED,
        ):
            self.end_rebuffer_cycle(now)
        if current is BufferPhase.STALLED:
            self.begin_stall(now)
        if previous is BufferPhase.STALLED:
            self.end_stall(now)
        return started

    # -- derived results -----------------------------------------------------------

    @property
    def startup_delay(self) -> float | None:
        """Figs. 2/4's "download time": session start → playback start."""
        if self.playback_started_at is None:
            return None
        return self.playback_started_at - self.session_started_at

    @property
    def total_stall_time(self) -> float:
        return sum(s.duration for s in self.stalls if s.ended_at is not None)

    def completed_cycle_durations(self) -> list[float]:
        """Fig. 5's refill times."""
        return [c.duration for c in self.rebuffer_cycles if c.ended_at is not None]

    def traffic_fraction(self, path_id: int, phase: str = "all") -> float:
        """Share of video bytes carried by ``path_id`` (Table 1).

        ``phase`` is "prebuffer", "rebuffer", or "all".
        """
        if phase == "prebuffer":
            counts = self.prebuffer_bytes_by_path
        elif phase == "rebuffer":
            counts = self.rebuffer_bytes_by_path
        elif phase == "all":
            counts = {
                k: self.prebuffer_bytes_by_path.get(k, 0)
                + self.rebuffer_bytes_by_path.get(k, 0)
                for k in sorted(
                    set(self.prebuffer_bytes_by_path) | set(self.rebuffer_bytes_by_path)
                )
            }
        else:
            raise ValueError(f"unknown phase {phase!r}")
        total = sum(counts.values())
        return counts.get(path_id, 0) / total if total else 0.0

    def first_video_byte_delay(self, path_id: int) -> float | None:
        """Bootstrap start → first video byte on a path (Fig. 1's π)."""
        timestamps = self.path_bootstrap.get(path_id)
        if timestamps is None:
            return None
        started, first_byte = timestamps
        return first_byte - started

    def summary(self) -> dict[str, object]:
        """A flat dict for tables and JSON dumps."""
        return {
            "startup_delay_s": self.startup_delay,
            "stall_count": len(self.stalls),
            "total_stall_s": self.total_stall_time,
            "rebuffer_cycles": len(self.completed_cycle_durations()),
            "mean_cycle_s": (
                sum(self.completed_cycle_durations()) / len(self.completed_cycle_durations())
                if self.completed_cycle_durations()
                else None
            ),
            "requests_by_path": dict(self.requests_by_path),
            "prebuffer_fraction_path0": self.traffic_fraction(0, "prebuffer"),
            "rebuffer_fraction_path0": self.traffic_fraction(0, "rebuffer"),
            "failovers": self.failovers,
            "peak_out_of_order": self.peak_out_of_order,
        }
