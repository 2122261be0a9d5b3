"""RFC 7233 byte ranges: parsing, formatting, algebra."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import RangeError
from repro.http.ranges import (
    ByteRange,
    coalesce,
    format_content_range,
    format_range_header,
    parse_content_range,
    parse_range_header,
)


class TestByteRange:
    def test_basic_properties(self):
        byte_range = ByteRange(0, 1024)
        assert byte_range.length == 1024
        assert byte_range.last == 1023

    def test_empty_rejected(self):
        with pytest.raises(RangeError):
            ByteRange(5, 5)

    def test_inverted_rejected(self):
        with pytest.raises(RangeError):
            ByteRange(10, 5)

    def test_negative_rejected(self):
        with pytest.raises(RangeError):
            ByteRange(-1, 5)

    def test_contains(self):
        byte_range = ByteRange(10, 20)
        assert byte_range.contains(10)
        assert byte_range.contains(19)
        assert not byte_range.contains(20)

    def test_overlaps(self):
        assert ByteRange(0, 10).overlaps(ByteRange(5, 15))
        assert not ByteRange(0, 10).overlaps(ByteRange(10, 20))

    def test_adjacency(self):
        assert ByteRange(0, 10).adjacent_to(ByteRange(10, 20))
        assert ByteRange(10, 20).adjacent_to(ByteRange(0, 10))
        assert not ByteRange(0, 10).adjacent_to(ByteRange(11, 20))

    def test_split(self):
        head, tail = ByteRange(0, 10).split_at(4)
        assert (head.start, head.stop, tail.start, tail.stop) == (0, 4, 4, 10)

    def test_split_at_boundary_rejected(self):
        with pytest.raises(RangeError):
            ByteRange(0, 10).split_at(0)

    def test_clamp(self):
        assert ByteRange(0, 100).clamp(50) == ByteRange(0, 50)

    def test_clamp_unsatisfiable(self):
        with pytest.raises(RangeError):
            ByteRange(100, 200).clamp(50)


class TestRangeHeader:
    def test_format(self):
        assert format_range_header(ByteRange(0, 65536)) == "bytes=0-65535"

    def test_parse_closed_form(self):
        assert parse_range_header("bytes=0-1023") == ByteRange(0, 1024)

    def test_parse_open_ended(self):
        assert parse_range_header("bytes=100-", resource_size=200) == ByteRange(100, 200)

    def test_parse_suffix(self):
        assert parse_range_header("bytes=-500", resource_size=2000) == ByteRange(1500, 2000)

    def test_suffix_bigger_than_resource(self):
        assert parse_range_header("bytes=-5000", resource_size=2000) == ByteRange(0, 2000)

    def test_open_ended_needs_size(self):
        with pytest.raises(RangeError):
            parse_range_header("bytes=100-")

    def test_multi_range_rejected(self):
        with pytest.raises(RangeError):
            parse_range_header("bytes=0-1,5-9")

    def test_inverted_rejected(self):
        with pytest.raises(RangeError):
            parse_range_header("bytes=10-5")

    def test_garbage_rejected(self):
        # "١" is ARABIC-INDIC DIGIT ONE: int() takes it, the RFC does not.
        for bad in ("bytes", "octets=0-5", "bytes=a-b", "bytes=-", "bytes=١-٢"):
            with pytest.raises(RangeError):
                parse_range_header(bad)

    @pytest.mark.parametrize(
        "value",
        ["bytes=" + "1" * 5000 + "-", "bytes=0-" + "1" * 5000, "bytes=-" + "1" * 5000],
        ids=["first", "last", "suffix"],
    )
    def test_over_long_number_is_a_range_error(self, value):
        # Past int()'s 4300-digit limit: a malformed header, not ValueError.
        with pytest.raises(RangeError):
            parse_range_header(value, resource_size=10**6)

    def test_zero_suffix_rejected(self):
        with pytest.raises(RangeError):
            parse_range_header("bytes=-0", resource_size=100)

    @given(st.integers(min_value=0, max_value=2**40), st.integers(min_value=1, max_value=2**30))
    def test_format_parse_roundtrip(self, start, length):
        byte_range = ByteRange(start, start + length)
        assert parse_range_header(format_range_header(byte_range)) == byte_range


class TestContentRange:
    def test_format(self):
        assert format_content_range(ByteRange(0, 1024), 4096) == "bytes 0-1023/4096"

    def test_format_unknown_total(self):
        assert format_content_range(ByteRange(0, 10), None) == "bytes 0-9/*"

    def test_parse(self):
        assert parse_content_range("bytes 0-1023/4096") == (ByteRange(0, 1024), 4096)

    def test_parse_star_total(self):
        assert parse_content_range("bytes 5-9/*") == (ByteRange(5, 10), None)

    def test_garbage_rejected(self):
        for bad in (
            "bytes zero-ten/100",
            "bytes ١-٢/٣",
            "bytes 0-1/" + "1" * 5000,
            "bytes " + "1" * 5000 + "-1/*",
        ):
            with pytest.raises(RangeError):
                parse_content_range(bad)

    @given(st.integers(min_value=0, max_value=2**40), st.integers(min_value=1, max_value=2**30))
    def test_roundtrip(self, start, length):
        byte_range = ByteRange(start, start + length)
        total = start + length + 17
        assert parse_content_range(format_content_range(byte_range, total)) == (
            byte_range,
            total,
        )


ranges_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=500),
    ).map(lambda pair: ByteRange(pair[0], pair[0] + pair[1])),
    max_size=30,
)


class TestCoalesce:
    def test_merges_adjacent_and_overlapping(self):
        merged = coalesce([ByteRange(10, 20), ByteRange(0, 10), ByteRange(15, 30)])
        assert merged == [ByteRange(0, 30)]

    def test_keeps_gaps(self):
        merged = coalesce([ByteRange(0, 10), ByteRange(20, 30)])
        assert merged == [ByteRange(0, 10), ByteRange(20, 30)]

    def test_empty(self):
        assert coalesce([]) == []

    @given(ranges_strategy)
    def test_invariants(self, ranges):
        merged = coalesce(ranges)
        # Sorted, disjoint, non-adjacent.
        for left, right in zip(merged, merged[1:], strict=False):
            assert left.stop < right.start
        # Same byte coverage.
        covered = set()
        for byte_range in ranges:
            covered.update(range(byte_range.start, byte_range.stop))
        merged_covered = set()
        for byte_range in merged:
            merged_covered.update(range(byte_range.start, byte_range.stop))
        assert covered == merged_covered
