"""Exception hierarchy contracts and PlayerConfig validation."""

import math

import pytest

from repro import errors
from repro.core.config import PlayerConfig
from repro.units import KB, MB


class TestHierarchy:
    def test_everything_is_reproerror(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if (
                isinstance(obj, type)
                and issubclass(obj, Exception)
                and obj.__module__ == "repro.errors"
            ):
                if obj in (errors.ReproError,):
                    continue
                assert issubclass(obj, errors.ReproError), name

    def test_server_unavailable_is_both_cdn_and_network(self):
        # Transport-level handlers must catch crashed servers (see
        # errors.py docstring).
        assert issubclass(errors.ServerUnavailableError, errors.CDNError)
        assert issubclass(errors.ServerUnavailableError, errors.NetworkError)

    def test_http_status_error_carries_status(self):
        error = errors.HTTPStatusError(503, "Service Unavailable")
        assert error.status == 503
        assert "503" in str(error)

    def test_unit_parse_is_config_error(self):
        assert issubclass(errors.UnitParseError, errors.ConfigError)

    def test_sources_exhausted_is_player_error(self):
        assert issubclass(errors.SourcesExhaustedError, errors.PlayerError)

    def test_one_base_catches_all_at_api_boundary(self):
        for exc in (
            errors.DNSError("x"),
            errors.RangeError("x"),
            errors.TokenError("x"),
            errors.BufferError_("x"),
            errors.ClockError("x"),
        ):
            assert isinstance(exc, errors.ReproError)


class TestPlayerConfig:
    def test_paper_defaults(self):
        config = PlayerConfig.paper_default()
        assert config.prebuffer_s == 40.0
        assert config.low_watermark_s == 10.0
        assert config.rebuffer_fetch_s == 20.0
        assert config.scheduler == "harmonic"
        assert config.base_chunk_bytes == 256 * KB
        assert config.min_chunk_bytes == 16 * KB
        assert config.delta == 0.05
        assert config.alpha == 0.9
        assert config.itag == 22
        assert config.max_paths == 2

    def test_with_modifies_a_copy(self):
        base = PlayerConfig()
        modified = base.with_(scheduler="ratio")
        assert modified.scheduler == "ratio"
        assert base.scheduler == "harmonic"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(prebuffer_s=0.0),
            dict(prebuffer_s=10.0, low_watermark_s=10.0),
            dict(low_watermark_s=-1.0),
            dict(rebuffer_fetch_s=0.0),
            dict(min_chunk_bytes=0),
            dict(base_chunk_bytes=8 * KB),  # below min chunk
            dict(max_chunk_bytes=128 * KB),  # below base chunk
            dict(delta=0.0),
            dict(delta=1.0),
            dict(alpha=1.0),
            dict(max_paths=3),
            dict(tick_s=0.0),
            dict(max_out_of_order=0),
            # NaN compares False both ways, so each check must fail it.
            dict(prebuffer_s=math.nan),
            dict(low_watermark_s=math.nan),
            dict(rebuffer_fetch_s=math.nan),
            dict(min_chunk_bytes=math.nan),
            dict(base_chunk_bytes=math.nan),
            dict(max_chunk_bytes=math.nan),
            dict(tick_s=math.nan),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(errors.ConfigError):
            PlayerConfig(**kwargs)

    def test_from_strings_parses_sizes(self):
        config = PlayerConfig.from_strings(
            base_chunk_bytes="1MB", prebuffer_s="20", scheduler="ewma", itag="18"
        )
        assert config.base_chunk_bytes == 1 * MB
        assert config.prebuffer_s == 20.0
        assert config.scheduler == "ewma"
        assert config.itag == 18

    def test_frozen(self):
        with pytest.raises(Exception):
            PlayerConfig().prebuffer_s = 99.0  # type: ignore[misc]
