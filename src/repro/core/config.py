"""Player configuration.

Defaults follow the paper exactly:

* pre-buffering target 40 s (YouTube's Flash default, §5.1), with 20 s
  and 60 s used in sweeps;
* re-buffering: resume fetching below 10 s of buffered video, fetch
  20 s worth per ON cycle (§4);
* scheduler: harmonic-mean DCSA with initial chunk 256 KB (§5.2's
  conclusion), δ = 5 %, EWMA weight α = 0.9, 16 KB chunk floor (Alg. 1);
* format: itag 22 — MP4 720p (§5).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ConfigError
from ..units import KB, MB, parse_size


@dataclass(frozen=True)
class PlayerConfig:
    """All tunables of an MSPlayer instance."""

    # -- buffering (§4) -----------------------------------------------------
    prebuffer_s: float = 40.0
    low_watermark_s: float = 10.0
    rebuffer_fetch_s: float = 20.0

    # -- scheduling (§3.3) ----------------------------------------------------
    scheduler: str = "harmonic"
    base_chunk_bytes: int = 256 * KB
    min_chunk_bytes: int = 16 * KB
    #: Safety clamp; the paper never needs one on its links, but an
    #: unbounded doubling rule deserves a ceiling in a library.
    max_chunk_bytes: int = 8 * MB
    delta: float = 0.05
    alpha: float = 0.9
    #: Sliding-window length for the extension estimator.
    window: int = 8

    # -- stream selection -------------------------------------------------------
    itag: int = 22

    # -- paths ---------------------------------------------------------------------
    #: The paper limits MSPlayer to two paths to stay TCP-friendly (§2).
    max_paths: int = 2
    #: Playback tick granularity used by drivers (seconds).
    tick_s: float = 0.1
    #: Maximum out-of-order chunks the design tolerates (§2: one).
    max_out_of_order: int = 1

    def __post_init__(self) -> None:
        # Every check is written so that NaN fails it: ``nan <= 0`` is
        # False, ``not nan > 0`` is True.
        if not self.prebuffer_s > 0:
            raise ConfigError("prebuffer_s must be positive")
        if not 0 <= self.low_watermark_s < self.prebuffer_s:
            raise ConfigError("low watermark must sit below the pre-buffer target")
        if not self.rebuffer_fetch_s > 0:
            raise ConfigError("rebuffer_fetch_s must be positive")
        if not self.min_chunk_bytes > 0:
            raise ConfigError("min_chunk_bytes must be positive")
        if not self.base_chunk_bytes >= self.min_chunk_bytes:
            raise ConfigError("base chunk below the minimum chunk")
        if not self.max_chunk_bytes >= self.base_chunk_bytes:
            raise ConfigError("max chunk below the base chunk")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must be in (0, 1), got {self.delta}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.max_paths not in (1, 2):
            raise ConfigError("MSPlayer supports one or two paths (§2)")
        if not self.tick_s > 0:
            raise ConfigError("tick_s must be positive")
        if self.max_out_of_order < 1:
            raise ConfigError("max_out_of_order must be at least 1")

    # -- conveniences --------------------------------------------------------------

    def with_(self, **changes: object) -> "PlayerConfig":
        """A modified copy (frozen dataclass idiom)."""
        return replace(self, **changes)  # type: ignore[arg-type]

    @classmethod
    def paper_default(cls) -> "PlayerConfig":
        """The configuration §6 evaluates with."""
        return cls()

    @classmethod
    def from_strings(cls, **kwargs: str) -> "PlayerConfig":
        """Build from CLI-ish strings, parsing sizes like ``"256KB"``."""
        parsed: dict[str, object] = {}
        for key, value in kwargs.items():
            if key.endswith("_bytes"):
                parsed[key] = parse_size(value)
            elif key in ("scheduler",):
                parsed[key] = value
            elif key in ("itag", "max_paths", "window", "max_out_of_order"):
                parsed[key] = int(value)
            else:
                parsed[key] = float(value)
        return cls(**parsed)  # type: ignore[arg-type]
