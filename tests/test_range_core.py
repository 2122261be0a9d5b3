"""The range-request core: the simulator's value call against the HTTP adapter.

Every simulated chunk fetch runs ``VideoServerApp.serve_range`` — the
request and the reply as values, no message built.  The live server and
the ``Request``-speaking callers go through ``VideoServerApp.__call__``,
which parses the message into the same values and renders a real
``Response``.  Both run ``admit`` then ``slice``.  Two walls hold them
together:

* header bytes ride the fluid link, so the value call's
  ``header_wire_size`` must be the rendered reply's header bytes, byte
  for byte — for 206 across the digit widths of start, last, size and
  length and every container in ``FORMATS``, and for every error status
  the core returns;
* through ``SimHTTPServer`` the value call and ``handle(Request.get(
  playback_target(...)))`` must agree with ``==`` on status, body size,
  wire size, think time and every counter.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cdn.catalog import Catalog
from repro.cdn.jsonapi import VideoInfo
from repro.cdn.tokens import TokenMint
from repro.cdn.videos import FORMATS, VideoMeta
from repro.cdn.videoserver import VideoServerApp
from repro.cdn.webproxy import stream_signature
from repro.http.messages import Request
from repro.http.ranges import ByteRange
from repro.http.server import SimHTTPServer
from repro.net.topology import Host

VIDEO_ID = "plainVIDEO1"
POOL = "wifi-net"
STREAM_SECRET = b"stream-secret"
TOKEN_SECRET = b"token-secret"
#: When the honest requests are made; tokens are issued at 0 for an hour.
NOW = 1000.0
#: An itag the video does not offer (and no format has).
NO_SUCH_ITAG = 99


def spread(low: int, high: int):
    """Integers in ``[low, high]``, spread evenly over their decimal widths."""

    def of_width(width: int):
        smallest = 10 ** (width - 1) if width > 1 else 0
        return st.integers(max(low, smallest), min(high, 10**width - 1))

    return st.integers(len(str(low)), len(str(high))).flatmap(of_width)


#: Video durations from a tenth of a millisecond to three centuries, so
#: file sizes run from one digit to sixteen.
durations = st.integers(-4, 9).flatmap(lambda e: st.floats(10.0**e, 10.0 ** (e + 1)))


class World:
    """One video server: catalog, mint, clock, app and its SimHTTPServer."""

    def __init__(self, duration_s: float = 600.0, overload_threshold: int | None = None) -> None:
        self.catalog = Catalog()
        self.catalog.add(VideoMeta(VIDEO_ID, "t", "a", duration_s, itags=tuple(sorted(FORMATS))))
        self.mint = TokenMint(secret=TOKEN_SECRET)
        self.now = NOW
        self.app = VideoServerApp(
            self.catalog,
            self.mint,
            clock=lambda: self.now,
            pool=POOL,
            signature_secret=STREAM_SECRET,
        )
        self.server = SimHTTPServer(
            Host("v1.example", network_id=POOL),
            self.app,
            base_service_time=0.002,
            per_megabyte_service_time=0.001,
            overload_threshold=overload_threshold,
        )

    def size(self, itag: int) -> int:
        return self.catalog.asset(VIDEO_ID, itag).size_bytes

    def counters(self) -> tuple[int, int, int]:
        return self.app.range_requests, self.app.bytes_requested, self.server.requests_served


def as_request(video_id: str, itag: int, token: str, sig: str, byte_range: ByteRange) -> Request:
    """The message the same request used to be, built as the players built it."""
    info = VideoInfo(
        video_id=video_id,
        title="t",
        author="a",
        duration_s=1.0,
        client_address="c",
        token=token,
        token_expires_in_s=3600.0,
        pool=POOL,
    )
    return Request.get(info.playback_target(itag, sig), host="v1.example", byte_range=byte_range)


def honest_token(mint: TokenMint, video_id: str = VIDEO_ID, pool: str = POOL) -> str:
    return mint.issue(0.0, video_id, "client.wifi-net", pool=pool)


def spoiled(world: World, case: str, itag: int, byte_range: ByteRange):
    """``(video_id, itag, token, sig, byte_range)`` for ``case``; may set
    the world draining or move its clock."""
    token = honest_token(world.mint)
    sig = stream_signature(VIDEO_ID, itag, STREAM_SECRET)
    video_id = VIDEO_ID
    if case == "draining":
        world.app.draining = True
    elif case == "unknown-video":
        video_id = "missingVID1"
    elif case == "no-such-itag":
        itag = NO_SUCH_ITAG
    elif case == "no-token":
        token = ""
    elif case == "expired":
        world.now = 3600.0 + 1.5 * NOW
    elif case == "forged":
        token = token[:-1] + ("0" if token[-1] != "0" else "1")
    elif case == "non-ascii-mac":
        token = token[:-1] + "é"
    elif case == "malformed-token":
        token = "not-a-token"
    elif case == "wrong-pool":
        token = honest_token(world.mint, pool="lte-net")
    elif case == "wrong-video":
        token = honest_token(world.mint, video_id="otherVIDEO1")
    elif case == "wrong-sig":
        sig = stream_signature(VIDEO_ID, itag, b"other-secret")
    elif case == "empty-sig":
        sig = ""
    elif case == "unsatisfiable":
        size = world.size(itag)
        byte_range = ByteRange(size + byte_range.start, size + byte_range.stop)
    else:
        assert case in ("in-bounds", "clamped"), case
    return video_id, itag, token, sig, byte_range


#: case -> status the core answers.  "in-bounds" and "clamped" differ in
#: the range drawn, not in the request.
CASES = {
    "in-bounds": 206,
    "clamped": 206,
    "draining": 503,
    "unknown-video": 404,
    "no-such-itag": 400,
    "no-token": 401,
    "expired": 403,
    "forged": 403,
    "non-ascii-mac": 403,
    "malformed-token": 403,
    "wrong-pool": 403,
    "wrong-video": 403,
    "wrong-sig": 403,
    "empty-sig": 403,
    "unsatisfiable": 416,
}


@st.composite
def ranges_for(draw, size: int, case: str) -> ByteRange:
    """A range of the kind ``case`` asks for, within a ``size``-byte file
    (or, for "clamped", running past its end)."""
    start = draw(spread(0, size - 1))
    if case == "clamped":
        return ByteRange(start, draw(spread(size + 1, 2 * size)))
    return ByteRange(start, draw(spread(start + 1, size)))


# -- (a) the header bytes the link carries are the bytes rendered ------------


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=60, deadline=None)
@given(itag=st.sampled_from(sorted(FORMATS)), duration_s=durations, data=st.data())
def test_header_wire_size_is_the_rendered_header(case, itag, duration_s, data):
    values, message = World(duration_s), World(duration_s)
    byte_range = data.draw(ranges_for(values.size(itag), case))
    request = spoiled(values, case, itag, byte_range)
    assert spoiled(message, case, itag, byte_range) == request

    status, body_size, header_size = values.app.serve_range(*request)
    rendered = message.app(as_request(*request), POOL)
    assert status == rendered.status == CASES[case]
    assert body_size == rendered.body_size
    # A virtual 206 body encodes as nothing; an error body is real bytes.
    assert header_size == len(rendered.encode()) - len(rendered.body)


# -- (b) the value call is the message call ---------------------------------


@settings(max_examples=200, deadline=None)
@given(
    duration_s=durations,
    overload_threshold=st.none() | st.integers(0, 2),
    data=st.data(),
)
def test_value_call_equals_message_call(duration_s, overload_threshold, data):
    """A few requests against one server, each a case, an itag, a range
    and a number of other requests in flight meanwhile."""
    values = World(duration_s, overload_threshold)
    message = World(duration_s, overload_threshold)
    for _ in range(data.draw(st.integers(1, 6))):
        case = data.draw(st.sampled_from(sorted(CASES)))
        itag = data.draw(st.sampled_from(sorted(FORMATS)))
        byte_range = data.draw(ranges_for(values.size(itag), case))
        in_flight = data.draw(st.integers(0, 3))
        for world in (values, message):
            world.app.draining = False
            world.now = NOW
        request = spoiled(values, case, itag, byte_range)
        assert spoiled(message, case, itag, byte_range) == request
        for _ in range(in_flight):
            values.server.begin_request()
            message.server.begin_request()

        status, wire_size, body_size, think = values.server.serve_range(*request)
        response, message_think = message.server.handle(as_request(*request), POOL)

        assert (status, body_size, wire_size, think) == (
            response.status,
            response.body_size,
            response.wire_size(),
            message_think,
        )
        assert status == CASES[case]
        assert values.counters() == message.counters()
        for _ in range(in_flight):
            values.server.end_request()
            message.server.end_request()
