"""Web proxy + video server applications and JSON API."""

import numpy as np
import pytest

from repro.cdn.catalog import Catalog
from repro.cdn.jsonapi import build_video_info, parse_video_info
from repro.cdn.selection import ServerSelection
from repro.cdn.signature import SignatureCipher, decipher
from repro.cdn.tokens import TokenMint
from repro.cdn.videos import VideoAsset, VideoMeta
from repro.cdn.videoserver import VideoServerApp
from repro.cdn.webproxy import WebProxyApp, parse_decoder_page, stream_signature
from repro.errors import CDNError, ConfigError, ServerUnavailableError
from repro.http.messages import Request
from repro.http.ranges import ByteRange, format_range_header
from repro.net.topology import Host


@pytest.fixture
def world(rng):
    catalog = Catalog()
    catalog.add(
        VideoMeta(
            video_id="plainVIDEO1",
            title="open",
            author="a",
            duration_s=60.0,
            itags=(18, 22),
        )
    )
    catalog.add(
        VideoMeta(
            video_id="cryptVIDEO1",
            title="protected",
            author="a",
            duration_s=60.0,
            itags=(22,),
            copyrighted=True,
        )
    )
    mint = TokenMint(secret=b"secret")
    cipher = SignatureCipher.random(rng)
    clock_value = [1000.0]
    proxy = WebProxyApp(
        catalog,
        mint,
        select_hosts=lambda network: [f"v1.{network}.example", f"v2.{network}.example"],
        clock=lambda: clock_value[0],
        cipher=cipher,
        signature_secret=b"stream-secret",
    )
    video = VideoServerApp(
        catalog,
        mint,
        clock=lambda: clock_value[0],
        pool="wifi-net",
        signature_secret=b"stream-secret",
    )
    return dict(
        catalog=catalog, mint=mint, cipher=cipher, proxy=proxy, video=video, clock=clock_value
    )


def video_info(world, video_id="plainVIDEO1", network="wifi-net"):
    response = world["proxy"](Request.get(f"/videoinfo?v={video_id}", host="p"), network)
    assert response.status == 200, response.body
    return parse_video_info(response.parsed_json())


def playback_request(world, info, itag=22, byte_range=ByteRange(0, 1024), sig=None):
    stream = info.stream(itag)
    signature = sig if sig is not None else stream.signature
    target = info.playback_target(itag, signature)
    request = Request.get(target, host="v1")
    if byte_range is not None:
        request.headers.set("Range", format_range_header(byte_range))
    return request


class TestWebProxy:
    def test_videoinfo_carries_token_and_hosts(self, world):
        info = video_info(world)
        assert info.pool == "wifi-net"
        assert info.stream(22).hosts == ("v1.wifi-net.example", "v2.wifi-net.example")
        assert info.token
        assert info.token_expires_in_s == pytest.approx(3600.0)

    def test_sizes_match_assets(self, world):
        info = video_info(world)
        expected = VideoAsset(world["catalog"].get("plainVIDEO1"), 22).size_bytes
        assert info.stream(22).size_bytes == expected

    def test_per_network_pools_differ(self, world):
        wifi = video_info(world, network="wifi-net")
        lte = video_info(world, network="lte-net")
        assert wifi.stream(22).hosts != lte.stream(22).hosts

    def test_unknown_video_404(self, world):
        response = world["proxy"](Request.get("/videoinfo?v=missingVID1", host="p"), "wifi-net")
        assert response.status == 404

    def test_missing_parameter_400(self, world):
        response = world["proxy"](Request.get("/videoinfo", host="p"), "wifi-net")
        assert response.status == 400

    def test_no_pool_503(self, rng, world):
        proxy = WebProxyApp(
            world["catalog"],
            world["mint"],
            select_hosts=lambda network: (_ for _ in ()).throw(
                ServerUnavailableError("dark")
            ),
            clock=lambda: 0.0,
            cipher=world["cipher"],
            signature_secret=b"stream-secret",
        )
        response = proxy(Request.get("/videoinfo?v=plainVIDEO1", host="p"), "wifi-net")
        assert response.status == 503

    def test_api_key_enforcement(self, world, rng):
        proxy = WebProxyApp(
            world["catalog"],
            world["mint"],
            select_hosts=lambda network: ["v1"],
            clock=lambda: 0.0,
            cipher=world["cipher"],
            signature_secret=b"s",
            api_key="devkey123",
        )
        denied = proxy(Request.get("/videoinfo?v=plainVIDEO1", host="p"), "n")
        assert denied.status == 401
        granted = proxy(
            Request.get("/videoinfo?v=plainVIDEO1", host="p", Authorization="Bearer devkey123"),
            "n",
        )
        assert granted.status == 200

    def test_copyrighted_video_gets_enciphered_signature(self, world):
        info = video_info(world, video_id="cryptVIDEO1")
        stream = info.stream(22)
        assert stream.needs_decipher
        assert not stream.signature
        plain = stream_signature("cryptVIDEO1", 22, b"stream-secret")
        assert stream.enciphered_signature != plain

    def test_decoder_page_roundtrip(self, world):
        response = world["proxy"](Request.get("/player.js", host="p"), "wifi-net")
        assert response.status == 200
        program = parse_decoder_page(response.body)
        info = video_info(world, video_id="cryptVIDEO1")
        recovered = decipher(info.stream(22).enciphered_signature, program)
        assert recovered == stream_signature("cryptVIDEO1", 22, b"stream-secret")

    def test_decoder_page_is_page_sized(self, world):
        response = world["proxy"](Request.get("/player.js", host="p"), "wifi-net")
        assert response.body_size >= 64 * 1024

    def test_unknown_path_404(self, world):
        assert world["proxy"](Request.get("/elsewhere", host="p"), "n").status == 404

    def test_post_rejected(self, world):
        assert world["proxy"](Request("POST", "/videoinfo"), "n").status == 405


class TestJsonApi:
    def test_parse_rejects_wrong_schema(self, world):
        payload = {"schema": 999}
        with pytest.raises(CDNError):
            parse_video_info(payload)

    def test_parse_rejects_non_object(self):
        with pytest.raises(CDNError):
            parse_video_info([1, 2, 3])

    def test_parse_rejects_streams_without_hosts(self, world):
        meta = world["catalog"].get("plainVIDEO1")
        payload = build_video_info(
            meta,
            sizes={18: 1, 22: 1},
            client_address="c",
            token="t",
            ttl_s=10.0,
            pool="p",
            hosts=[],
            signatures={18: "s", 22: "s"},
            enciphered=False,
        )
        with pytest.raises(CDNError, match="hosts"):
            parse_video_info(payload)

    def test_playback_target_contains_credentials(self, world):
        info = video_info(world)
        target = info.playback_target(22, "SIGVALUE")
        assert "token=" in target and "sig=SIGVALUE" in target and "v=plainVIDEO1" in target


class TestVideoServer:
    def test_range_request_served(self, world):
        info = video_info(world)
        response = world["video"](playback_request(world, info), "wifi-net")
        assert response.status == 206
        assert response.body_size == 1024
        assert "bytes 0-1023/" in response.headers["Content-Range"]

    def test_whole_file_get(self, world):
        info = video_info(world)
        request = playback_request(world, info, byte_range=None)
        request.headers.remove("Range")
        response = world["video"](request, "wifi-net")
        assert response.status == 200
        assert response.body_size == info.stream(22).size_bytes

    def test_missing_token_401(self, world):
        request = Request.get("/videoplayback?v=plainVIDEO1&itag=22&sig=x", host="v")
        assert world["video"](request, "wifi-net").status == 401

    def test_expired_token_403(self, world):
        info = video_info(world)
        world["clock"][0] += 7200.0  # two hours later
        response = world["video"](playback_request(world, info), "wifi-net")
        assert response.status == 403

    def test_wrong_pool_token_403(self, world):
        info = video_info(world, network="lte-net")  # token bound to lte pool
        response = world["video"](playback_request(world, info), "lte-net")
        assert response.status == 403

    def test_non_ascii_token_mac_403(self, world):
        # Used to raise TypeError out of __call__ (and so out of env.run).
        info = video_info(world)
        request = playback_request(world, info)
        forged = Request.get(
            request.target.replace(info.token, info.token[:-1] + "é"),
            host="v1",
            byte_range=ByteRange(0, 1024),
        )
        response = world["video"](forged, "wifi-net")
        assert response.status == 403
        assert b"token rejected" in response.body
        assert world["video"](request, "wifi-net").status == 206

    def test_stream_signature_memo_is_bounded_and_keyed_on_the_secret(self, world):
        maxsize = stream_signature.cache_info().maxsize
        assert maxsize is not None
        for index in range(2 * maxsize):
            stream_signature(f"hostile{index}", 22, b"stream-secret")
        assert stream_signature.cache_info().currsize == maxsize
        assert stream_signature("plainVIDEO1", 22, b"stream-secret") != stream_signature(
            "plainVIDEO1", 22, b"other-secret"
        )

    def test_bad_signature_403(self, world):
        info = video_info(world)
        response = world["video"](
            playback_request(world, info, sig="forged"), "wifi-net"
        )
        assert response.status == 403

    def test_unsatisfiable_range_416(self, world):
        info = video_info(world)
        size = info.stream(22).size_bytes
        response = world["video"](
            playback_request(world, info, byte_range=ByteRange(size + 10, size + 20)),
            "wifi-net",
        )
        assert response.status == 416

    @pytest.mark.parametrize(
        "value",
        ["bytes=" + "1" * 5000 + "-", "bytes=0-" + "1" * 5000, "bytes=-" + "1" * 5000],
        ids=["first", "last", "suffix"],
    )
    def test_unparseable_range_number_416(self, world, value):
        # An over-long number used to raise ValueError out of __call__.
        request = playback_request(world, video_info(world))
        request.headers.set("Range", value)
        assert world["video"](request, "wifi-net").status == 416

    def test_range_clamped_to_file(self, world):
        info = video_info(world)
        size = info.stream(22).size_bytes
        response = world["video"](
            playback_request(world, info, byte_range=ByteRange(size - 100, size + 100)),
            "wifi-net",
        )
        assert response.status == 206
        assert response.body_size == 100

    def test_draining_503(self, world):
        info = video_info(world)
        world["video"].draining = True
        response = world["video"](playback_request(world, info), "wifi-net")
        assert response.status == 503

    def test_unknown_video_404(self, world):
        request = Request.get("/videoplayback?v=missingVID1&itag=22&token=t&sig=s", host="v")
        assert world["video"](request, "wifi-net").status == 404

    def test_malformed_itag_400(self, world):
        request = Request.get("/videoplayback?v=plainVIDEO1&itag=HD&token=t&sig=s", host="v")
        assert world["video"](request, "wifi-net").status == 400

    def test_unknown_itag_400(self, world):
        request = Request.get("/videoplayback?v=plainVIDEO1&itag=37&token=t&sig=s", host="v")
        response = world["video"](request, "wifi-net")
        assert response.status == 400
        assert b"has no itag 37" in response.body

    def test_asset_lookup_defect_is_not_a_400(self, world, monkeypatch):
        # Only the lookup's "no such itag" is a client error; anything
        # else raised there is a defect and must surface.
        def broken(video_id, itag):
            raise ZeroDivisionError("defect")

        monkeypatch.setattr(world["catalog"], "asset", broken)
        request = Request.get("/videoplayback?v=plainVIDEO1&itag=22&token=t&sig=s", host="v")
        with pytest.raises(ZeroDivisionError):
            world["video"](request, "wifi-net")

    def test_accounting(self, world):
        info = video_info(world)
        world["video"](playback_request(world, info), "wifi-net")
        world["video"](playback_request(world, info, byte_range=ByteRange(1024, 3072)), "wifi-net")
        assert world["video"].range_requests == 2
        assert world["video"].bytes_requested == 1024 + 2048


class TestServerSelection:
    def make_hosts(self, n, network="wifi-net"):
        return [Host(f"v{i}.example", network_id=network) for i in range(n)]

    def test_static_order(self):
        selection = ServerSelection("static")
        hosts = self.make_hosts(3)
        selection.add_pool("wifi-net", hosts)
        assert selection.select("wifi-net") == [h.address for h in hosts]

    def test_down_hosts_skipped(self):
        selection = ServerSelection("static")
        hosts = self.make_hosts(3)
        selection.add_pool("wifi-net", hosts)
        hosts[0].fail()
        assert selection.select("wifi-net") == [hosts[1].address, hosts[2].address]

    def test_all_down_raises(self):
        selection = ServerSelection("static")
        hosts = self.make_hosts(2)
        selection.add_pool("wifi-net", hosts)
        for host in hosts:
            host.fail()
        with pytest.raises(ServerUnavailableError):
            selection.select("wifi-net")

    def test_unknown_network_raises(self):
        with pytest.raises(ServerUnavailableError):
            ServerSelection().select("moon-net")

    def test_rotate_cycles_primary(self):
        selection = ServerSelection("rotate")
        hosts = self.make_hosts(3)
        selection.add_pool("wifi-net", hosts)
        primaries = [selection.select("wifi-net")[0] for _ in range(4)]
        assert primaries == ["v0.example", "v1.example", "v2.example", "v0.example"]

    def test_least_loaded_prefers_idle(self):
        selection = ServerSelection("least_loaded")
        hosts = self.make_hosts(2)
        selection.add_pool("wifi-net", hosts)
        hosts[0].bytes_served = 10_000_000
        assert selection.select("wifi-net")[0] == hosts[1].address

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            ServerSelection("coin-flip")

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigError):
            ServerSelection().add_pool("wifi-net", [])
