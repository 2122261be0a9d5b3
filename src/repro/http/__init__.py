"""HTTP/1.1 substrate.

MSPlayer's data plane is plain HTTPS range requests over persistent
connections (§2, §4) — the whole point is that ordinary HTTP passes
middleboxes that break MPTCP.  This package supplies:

* message model and serialization (:mod:`repro.http.messages`),
  case-insensitive headers (:mod:`repro.http.headers`), status codes
  (:mod:`repro.http.status`);
* RFC 7233 byte-range parsing/formatting (:mod:`repro.http.ranges`) —
  the request primitive the chunk scheduler emits;
* an incremental, sans-IO HTTP/1.1 parser (:mod:`repro.http.h1`) used
  verbatim by the real asyncio backend (:mod:`repro.live`);
* simulated client/server glue (:mod:`repro.http.client`,
  :mod:`repro.http.server`) that charges realistic wire sizes and
  latencies on the :mod:`repro.net` substrate.
"""

from .headers import Headers
from .messages import Request, Response
from .ranges import (
    ByteRange,
    format_content_range,
    format_range_header,
    parse_content_range,
    parse_range_header,
)
from .status import STATUS_REASONS, status_reason
from .h1 import H1Parser, ParsedMessage
from .client import SimHTTPClient
from .server import SimHTTPServer

__all__ = [
    "Headers",
    "Request",
    "Response",
    "ByteRange",
    "parse_range_header",
    "format_range_header",
    "parse_content_range",
    "format_content_range",
    "STATUS_REASONS",
    "status_reason",
    "H1Parser",
    "ParsedMessage",
    "SimHTTPClient",
    "SimHTTPServer",
]
