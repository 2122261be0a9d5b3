"""Case-insensitive header multimap."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import HTTPParseError
from repro.http.headers import Headers, _validate_name

header_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-",
    min_size=1,
    max_size=24,
)
header_values = st.text(
    alphabet=st.characters(blacklist_characters="\r\n", min_codepoint=32, max_codepoint=126),
    max_size=64,
)


class TestBasics:
    def test_case_insensitive_get(self):
        headers = Headers([("Content-Type", "video/mp4")])
        assert headers["CONTENT-TYPE"] == "video/mp4"
        assert headers.get("content-type") == "video/mp4"

    def test_original_spelling_preserved(self):
        headers = Headers([("X-WeIrD", "v")])
        assert list(headers) == [("X-WeIrD", "v")]

    def test_get_default(self):
        assert Headers().get("missing", "-") == "-"

    def test_getitem_keyerror(self):
        with pytest.raises(KeyError):
            Headers()["nope"]

    def test_add_keeps_duplicates(self):
        headers = Headers()
        headers.add("Set-Cookie", "a=1")
        headers.add("Set-Cookie", "b=2")
        assert headers.get_all("set-cookie") == ["a=1", "b=2"]

    def test_set_replaces_all(self):
        headers = Headers([("X", "1"), ("x", "2")])
        headers.set("X", "3")
        assert headers.get_all("x") == ["3"]

    def test_remove(self):
        headers = Headers([("A", "1"), ("B", "2")])
        headers.remove("a")
        assert "A" not in headers and "B" in headers

    def test_contains_and_len(self):
        headers = Headers([("A", "1")])
        assert "a" in headers and len(headers) == 1

    def test_get_int(self):
        assert Headers([("Content-Length", " 42 ")]).get_int("content-length") == 42

    def test_get_int_missing_is_none(self):
        assert Headers().get_int("content-length") is None

    def test_get_int_garbage_raises(self):
        with pytest.raises(HTTPParseError):
            Headers([("Content-Length", "many")]).get_int("content-length")

    def test_equality_case_insensitive_names(self):
        assert Headers([("A", "1")]) == Headers([("a", "1")])
        assert Headers([("A", "1")]) != Headers([("A", "2")])

    def test_copy_is_independent(self):
        original = Headers([("A", "1")])
        clone = original.copy()
        clone.set("A", "2")
        assert original["A"] == "1"


class TestValidation:
    def test_crlf_injection_rejected(self):
        with pytest.raises(HTTPParseError):
            Headers([("X", "evil\r\nInjected: yes")])

    def test_empty_name_rejected(self):
        with pytest.raises(HTTPParseError):
            Headers([("", "v")])

    def test_colon_in_name_rejected(self):
        with pytest.raises(HTTPParseError):
            Headers([("a:b", "v")])

    def test_space_in_name_rejected(self):
        with pytest.raises(HTTPParseError):
            Headers([("a b", "v")])


class TestWire:
    def test_encode_format(self):
        headers = Headers([("Host", "example"), ("Range", "bytes=0-1")])
        assert headers.encode() == b"Host: example\r\nRange: bytes=0-1\r\n"

    def test_wire_size_matches_encode(self):
        headers = Headers([("Host", "example"), ("A", ""), ("Long-Header", "x" * 50)])
        assert headers.wire_size() == len(headers.encode())

    @given(st.lists(st.tuples(header_names, header_values), max_size=8))
    def test_wire_size_always_matches_encode(self, items):
        headers = Headers(items)
        assert headers.wire_size() == len(headers.encode())


class TestValidationMemo:
    """Name verdicts are remembered; rejections never are; values keep every check."""

    @pytest.mark.parametrize(
        "name", ["", "Bad Name", "Bad:Name", "X\r\nEvil", "Tab\tbed", "Naïve"]
    )
    def test_invalid_name_raises_on_every_call(self, name):
        before = _validate_name.cache_info().currsize
        for _ in range(3):
            with pytest.raises(HTTPParseError):
                Headers().add(name, "v")
            with pytest.raises(HTTPParseError):
                Headers().set(name, "v")
        assert _validate_name.cache_info().currsize == before

    def test_valid_name_is_answered_from_the_memo(self):
        Headers().add("X-Memo-Probe", "1")
        hits = _validate_name.cache_info().hits
        Headers([("X-Memo-Probe", "2")]).set("X-Memo-Probe", "3")
        assert _validate_name.cache_info().hits == hits + 2

    def test_hostile_names_leave_the_cache_at_its_bound(self):
        maxsize = _validate_name.cache_info().maxsize
        assert maxsize is not None and maxsize <= 1024
        headers = Headers()
        for index in range(10_000):
            headers.add(f"X-Hostile-{index}", "v")  # distinct, all legal
            with pytest.raises(HTTPParseError):
                headers.add(f"X Hostile {index}", "v")  # distinct, all illegal
        assert _validate_name.cache_info().currsize == maxsize
        assert len(headers) == 10_000
        with pytest.raises(HTTPParseError):
            headers.add("X Hostile 0", "v")

    def test_value_checks_survive_the_ascii_fast_path(self):
        headers = Headers()
        for bad in ("a\rb", "a\nb", "café\r\n", "€\n"):
            with pytest.raises(HTTPParseError, match="CR/LF"):
                headers.add("X", bad)
        with pytest.raises(HTTPParseError, match="latin-1"):
            headers.add("X", "price €")
        headers.add("X", "plain ascii")
        headers.add("X", "café")  # latin-1, not ASCII: the slow path accepts it
        assert headers.get_all("x") == ["plain ascii", "café"]
