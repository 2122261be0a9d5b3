"""Case-insensitive HTTP header multimap.

Field names are case-insensitive per RFC 9110 §5.1; insertion order and
original spelling are preserved for faithful serialization.  Multiple
values for one field are supported (``Set-Cookie`` style), though the
video service only needs single values.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache

from ..errors import HTTPParseError

_ILLEGAL_NAME_CHARS = set(" \t\r\n:")


# Validity is a pure function of the name and every message carries the
# same dozen names, so the verdict is remembered.  ``lru_cache`` never
# stores a call that raised: an illegal name is re-examined, and
# rejected, on every call; the bound caps what hostile input can pin.
@lru_cache(maxsize=256)
def _validate_name(name: str) -> None:
    if not name or any(ch in _ILLEGAL_NAME_CHARS for ch in name):
        raise HTTPParseError(f"illegal header name {name!r}")
    if not name.isascii():
        raise HTTPParseError(f"header names are ASCII tokens, got {name!r}")


def parse_digits(text: str, what: str) -> int:
    """``text`` as a ``1*DIGIT`` number: ASCII digits and nothing else.

    ``int()`` alone also takes a sign, ``_`` separators, surrounding
    spaces and other scripts' digits; lenient ``Content-Length``
    framing is a request-smuggling hazard.
    """
    if not (text.isascii() and text.isdigit()):
        raise HTTPParseError(f"non-numeric {what}: {text[:64]!r}")
    try:
        return int(text)
    except ValueError:  # past int()'s digit limit
        raise HTTPParseError(f"oversized {what}: {text[:64]!r}") from None


def _validate_value(value: str) -> None:
    if "\r" in value or "\n" in value:
        raise HTTPParseError(f"illegal header value {value!r} (CR/LF injection)")
    if value.isascii():
        return  # ASCII is a subset of latin-1: nothing left to prove
    try:
        value.encode("latin-1")
    except UnicodeEncodeError:
        raise HTTPParseError(f"header value not latin-1 encodable: {value!r}") from None


class Headers:
    """Ordered, case-insensitive multimap of header fields.

    >>> headers = Headers([("Content-Type", "video/mp4")])
    >>> headers["content-type"]
    'video/mp4'
    >>> headers.get("missing", "-")
    '-'
    """

    def __init__(self, items: Iterable[tuple[str, str]] | dict[str, str] | None = None) -> None:
        self._items: list[tuple[str, str]] = []
        if items:
            pairs = items.items() if isinstance(items, dict) else items
            for name, value in pairs:
                self.add(name, str(value))

    # -- mutation -------------------------------------------------------------

    def add(self, name: str, value: str) -> None:
        """Append a field, keeping any existing fields of the same name."""
        _validate_name(name)
        _validate_value(value)
        self._items.append((name, value))

    def set(self, name: str, value: str) -> None:
        """Replace all fields named ``name`` with a single one."""
        _validate_name(name)
        _validate_value(value)
        lowered = name.lower()
        self._items = [(n, v) for n, v in self._items if n.lower() != lowered]
        self._items.append((name, value))

    def remove(self, name: str) -> None:
        lowered = name.lower()
        self._items = [(n, v) for n, v in self._items if n.lower() != lowered]

    # -- access -----------------------------------------------------------------

    def get(self, name: str, default: str | None = None) -> str | None:
        lowered = name.lower()
        for candidate, value in self._items:
            if candidate.lower() == lowered:
                return value
        return default

    def get_all(self, name: str) -> list[str]:
        lowered = name.lower()
        return [v for n, v in self._items if n.lower() == lowered]

    def get_int(self, name: str) -> int | None:
        """Parse a ``1*DIGIT`` field (RFC 9110), raising on anything else."""
        raw = self.get(name)
        if raw is None:
            return None
        return parse_digits(raw.strip(), name)

    def __getitem__(self, name: str) -> str:
        value = self.get(name)
        if value is None:
            raise KeyError(name)
        return value

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Headers):
            return NotImplemented
        mine = [(n.lower(), v) for n, v in self._items]
        theirs = [(n.lower(), v) for n, v in other._items]
        return mine == theirs

    def copy(self) -> "Headers":
        return Headers(list(self._items))

    # -- wire format ---------------------------------------------------------------

    def encode(self) -> bytes:
        """Serialize as ``Name: value\\r\\n`` lines (no terminating blank line)."""
        return b"".join(f"{n}: {v}\r\n".encode("latin-1") for n, v in self._items)

    def wire_size(self) -> int:
        """Bytes this header block occupies on the wire."""
        return sum(len(n) + len(v) + 4 for n, v in self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Headers({self._items!r})"
