"""Video catalog and synthetic population.

The catalog is shared by every web proxy and video server in a
deployment (in reality the CDN replicates content everywhere the paper
cares about — popular videos are "replicated at different sites", §1).
A synthetic population generator produces realistic catalogs for
workload studies: Zipf-ish popularity, duration mix skewed toward short
clips with a long-video tail.
"""

from __future__ import annotations

import string

import numpy as np

from ..errors import ConfigError, VideoNotFoundError
from .videos import DEFAULT_ITAG, VideoAsset, VideoMeta

#: The alphabet YouTube draws video ids from (base64-url).
_ID_ALPHABET = string.ascii_letters + string.digits + "-_"


def make_video_id(rng: np.random.Generator) -> str:
    """Draw an 11-literal video id like ``qjT4T2gU9sM`` (§3.1)."""
    indices = rng.integers(0, len(_ID_ALPHABET), size=11)
    return "".join(_ID_ALPHABET[i] for i in indices)


class Catalog:
    """All videos a deployment can serve."""

    def __init__(self) -> None:
        self._videos: dict[str, VideoMeta] = {}
        self._assets: dict[tuple[str, int], VideoAsset] = {}  # VideoMeta is frozen: never stale

    def add(self, meta: VideoMeta) -> VideoMeta:
        if meta.video_id in self._videos:
            raise ConfigError(f"duplicate video id {meta.video_id}")
        self._videos[meta.video_id] = meta
        return meta

    def get(self, video_id: str) -> VideoMeta:
        try:
            return self._videos[video_id]
        except KeyError:
            raise VideoNotFoundError(f"no such video: {video_id!r}") from None

    def asset(self, video_id: str, itag: int = DEFAULT_ITAG) -> VideoAsset:
        if (video_id, itag) not in self._assets:
            self._assets[video_id, itag] = VideoAsset(self.get(video_id), itag)
        return self._assets[video_id, itag]

    def __contains__(self, video_id: str) -> bool:
        return video_id in self._videos

    def __len__(self) -> int:
        return len(self._videos)

    def ids(self) -> list[str]:
        return list(self._videos)

    # -- synthetic population -------------------------------------------------

    @classmethod
    def synthetic(
        cls,
        rng: np.random.Generator,
        count: int = 50,
        copyrighted_fraction: float = 0.2,
        mean_duration_s: float = 240.0,
    ) -> "Catalog":
        """Generate a catalog of ``count`` videos.

        Durations are lognormal around ``mean_duration_s`` (most clips a
        few minutes, a fat tail of long ones); a fraction are flagged
        copyrighted so bootstrap paths exercise the signature-decoder
        detour of footnote 1.
        """
        if count <= 0:
            raise ConfigError("count must be positive")
        if not 0.0 <= copyrighted_fraction <= 1.0:
            raise ConfigError("copyrighted_fraction must be within [0, 1]")
        catalog = cls()
        sigma = 0.6
        mu = np.log(mean_duration_s) - 0.5 * sigma**2
        for index in range(count):
            video_id = make_video_id(rng)
            while video_id in catalog:  # pragma: no cover - astronomically rare
                video_id = make_video_id(rng)
            duration = float(np.clip(rng.lognormal(mu, sigma), 30.0, 3600.0))
            catalog.add(
                VideoMeta(
                    video_id=video_id,
                    title=f"Synthetic clip #{index}",
                    author=f"channel-{index % 7}",
                    duration_s=duration,
                    copyrighted=bool(rng.random() < copyrighted_fraction),
                )
            )
        return catalog

    def popularity_weights(
        self, rng: np.random.Generator, zipf_s: float = 1.1
    ) -> dict[str, float]:
        """Zipf popularity over the catalog (heavier head for larger ``s``).

        Returned weights sum to 1 and are suitable for
        ``rng.choice(ids, p=weights)`` in workload generators.
        """
        if zipf_s <= 0:
            raise ConfigError("zipf_s must be positive")
        ids = self.ids()
        order = rng.permutation(len(ids))
        ranks = np.empty(len(ids))
        ranks[order] = np.arange(1, len(ids) + 1)
        weights = ranks ** (-zipf_s)
        weights /= weights.sum()
        return dict(zip(ids, weights.tolist(), strict=True))
