"""RFC 7233 byte ranges — the chunk scheduler's request primitive.

MSPlayer "relies on range requests to retrieve video chunks over
different paths" (§2).  A chunk assignment produced by the scheduler is
exactly a half-open byte interval ``[start, stop)`` of the video file,
serialized as the *inclusive* ``bytes=start-end`` wire form.  We keep
the half-open convention internally (it composes: adjacent chunks share
an endpoint) and convert at the wire boundary, with property tests
guaranteeing the round trip.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import RangeError


@dataclass(frozen=True, order=True)
class ByteRange:
    """A half-open byte interval ``[start, stop)`` within a resource."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise RangeError(f"range start must be non-negative, got {self.start}")
        if self.stop <= self.start:
            raise RangeError(f"empty or inverted range [{self.start}, {self.stop})")

    @property
    def length(self) -> int:
        return self.stop - self.start

    @property
    def last(self) -> int:
        """Inclusive last byte offset (the wire form's ``end``)."""
        return self.stop - 1

    def contains(self, offset: int) -> bool:
        return self.start <= offset < self.stop

    def overlaps(self, other: "ByteRange") -> bool:
        return self.start < other.stop and other.start < self.stop

    def adjacent_to(self, other: "ByteRange") -> bool:
        """True if the two ranges tile with no gap (either order)."""
        return self.stop == other.start or other.stop == self.start

    def split_at(self, offset: int) -> tuple["ByteRange", "ByteRange"]:
        """Split into two ranges at an interior offset."""
        if not (self.start < offset < self.stop):
            raise RangeError(f"split offset {offset} outside ({self.start}, {self.stop})")
        return ByteRange(self.start, offset), ByteRange(offset, self.stop)

    def clamp(self, resource_size: int) -> "ByteRange":
        """Clip to a resource of ``resource_size`` bytes (RFC 7233 §2.1).

        Raises :class:`~repro.errors.RangeError` if nothing remains
        (start beyond end of resource → 416).
        """
        if self.start >= resource_size:
            raise RangeError(
                f"range [{self.start}, {self.stop}) unsatisfiable for size {resource_size}"
            )
        return ByteRange(self.start, min(self.stop, resource_size))

    def __str__(self) -> str:
        return f"[{self.start}, {self.stop})"


# ASCII digits only: ``\d`` also matches other scripts' digits.
_RANGE_HEADER_RE = re.compile(r"^bytes=([0-9]*)-([0-9]*)$")


def _offset(digits: str, value: str) -> int:
    """A matched digit run as an int.  A run past ``int()``'s digit
    limit makes the header malformed (416), not a ``ValueError``."""
    try:
        return int(digits)
    except ValueError:
        raise RangeError(f"unparseable number in {value[:64]!r}") from None


def format_range_header(byte_range: ByteRange) -> str:
    """Render the ``Range`` request header value.

    >>> format_range_header(ByteRange(0, 1024))
    'bytes=0-1023'
    """
    return f"bytes={byte_range.start}-{byte_range.last}"


def parse_range_header(value: str, resource_size: int | None = None) -> ByteRange:
    """Parse a single-range ``Range`` header value.

    Supports the three RFC forms: ``bytes=a-b``, ``bytes=a-`` (open
    ended; needs ``resource_size``), and ``bytes=-n`` (suffix; needs
    ``resource_size``).  Multi-range requests are rejected — real video
    players never issue them and the servers here answer 416.

    >>> parse_range_header("bytes=0-1023")
    ByteRange(start=0, stop=1024)
    >>> parse_range_header("bytes=-500", resource_size=2000)
    ByteRange(start=1500, stop=2000)
    """
    if "," in value:
        raise RangeError(f"multi-range requests not supported: {value!r}")
    match = _RANGE_HEADER_RE.match(value.strip())
    if match is None:
        raise RangeError(f"malformed Range header: {value!r}")
    first, last = match.group(1), match.group(2)
    if first and last:
        start, end = _offset(first, value), _offset(last, value)
        if end < start:
            raise RangeError(f"inverted range in {value!r}")
        return ByteRange(start, end + 1)
    if first:
        if resource_size is None:
            raise RangeError(f"open-ended range {value!r} needs the resource size")
        return ByteRange(_offset(first, value), resource_size).clamp(resource_size)
    if last:
        if resource_size is None:
            raise RangeError(f"suffix range {value!r} needs the resource size")
        suffix = _offset(last, value)
        if suffix == 0:
            raise RangeError("zero-length suffix range")
        start = max(resource_size - suffix, 0)
        return ByteRange(start, resource_size)
    raise RangeError(f"malformed Range header: {value!r}")


_CONTENT_RANGE_RE = re.compile(r"^bytes ([0-9]+)-([0-9]+)/([0-9]+|\*)$")


def format_content_range(byte_range: ByteRange, resource_size: int | None) -> str:
    """Render the ``Content-Range`` response header value.

    >>> format_content_range(ByteRange(0, 1024), 4096)
    'bytes 0-1023/4096'
    """
    total = str(resource_size) if resource_size is not None else "*"
    return f"bytes {byte_range.start}-{byte_range.last}/{total}"


def parse_content_range(value: str) -> tuple[ByteRange, int | None]:
    """Parse ``Content-Range``, returning the range and total size (or None).

    >>> parse_content_range("bytes 0-1023/4096")
    (ByteRange(start=0, stop=1024), 4096)
    """
    match = _CONTENT_RANGE_RE.match(value.strip())
    if match is None:
        raise RangeError(f"malformed Content-Range: {value!r}")
    start, last, total = match.groups()
    byte_range = ByteRange(_offset(start, value), _offset(last, value) + 1)
    return byte_range, (None if total == "*" else _offset(total, value))


def coalesce(ranges: list[ByteRange]) -> list[ByteRange]:
    """Merge overlapping/adjacent ranges into a minimal sorted cover.

    Used by the chunk ledger to track which parts of the video have
    been received, independent of chunk arrival order.

    >>> coalesce([ByteRange(10, 20), ByteRange(0, 10), ByteRange(30, 40)])
    [ByteRange(start=0, stop=20), ByteRange(start=30, stop=40)]
    """
    if not ranges:
        return []
    merged: list[ByteRange] = []
    for current in sorted(ranges, key=lambda r: (r.start, r.stop)):
        if merged and current.start <= merged[-1].stop:
            previous = merged.pop()
            merged.append(ByteRange(previous.start, max(previous.stop, current.stop)))
        else:
            merged.append(current)
    return merged
