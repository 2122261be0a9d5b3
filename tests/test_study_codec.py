"""The in-memory archive codec: property, oracle and corruption walls.

``dump_study`` / ``parse_study`` are the one encoder and decoder of the
study archive; ``save_study`` / ``load_study``, the cache and the study
service all go through them.  This file pins the codec against the
writer and reader it replaced — the explicit ``zipfile`` +
``np.lib.format.write_array`` writer and ``np.load(allow_pickle=False)``
— which live on here as the reference oracle, and fuzzes the ``struct``
zip reader against the ``zipfile`` one it replaced
(``tests/zipfile_npz.py``).
"""

import hashlib
import io
import json
import pathlib
import re
import struct
import sys
import time
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.experiments import ExperimentResult
from repro.errors import ConfigError
from repro.study import Study, StudyCache, StudyResult, get_experiment
from repro.study import archive
from repro.study.archive import dump_study, load_study, parse_study, save_study
from repro.study.registry import experiment_ids
from repro.study.study import StudyCell
from zipfile_npz import _read_npz as zipfile_read_npz

# ---------------------------------------------------------------------------
# The reference oracle: the pre-codec writer and reader, verbatim
# ---------------------------------------------------------------------------


def reference_write_npz(path, arrays):
    """The explicit zip writer ``save_study`` used before the codec."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for name, array in arrays.items():
            buffer = io.BytesIO()
            np.lib.format.write_array(buffer, np.asanyarray(array), allow_pickle=False)
            member = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            member.compress_type = zipfile.ZIP_STORED
            archive.writestr(member, buffer.getvalue())


def reference_read_npz(path):
    """The reader ``load_study`` used before the codec."""
    with open(path, "rb") as stream:
        with np.load(stream, allow_pickle=False) as payload:
            return {key: payload[key] for key in payload.files}


def result_arrays(result):
    """``{npz key: column}`` exactly as ``dump_study`` names them."""
    return {
        f"{cell.index}::{label}::{name}": column
        for cell in result.cells
        for label, columns in cell.columns.items()
        for name, column in columns.items()
    }


def synthetic_result(columns, label="label"):
    """A one-cell fig2 result carrying arbitrary dense ``columns``."""
    definition = get_experiment("fig2")
    params = definition.schema.resolve({})
    cell = StudyCell(
        index=0,
        overrides={},
        params=params,
        result=ExperimentResult("fig2", "rendered", {}),
        columns={label: dict(columns)},
    )
    return StudyResult("fig2", definition.kind, params, {}, [cell])


def assert_same_array(actual, expected):
    assert actual.dtype.str == expected.dtype.str
    assert actual.shape == expected.shape
    assert actual.tobytes() == np.ascontiguousarray(expected).tobytes()


# ---------------------------------------------------------------------------
# Property: round trip over dtypes, shapes and payloads
# ---------------------------------------------------------------------------

DTYPES = ["<f8", "<i8", "?", "<U5", "<U18", ">f8", ">i4"]
SHAPES = [(), (0,), (1,), (7,), (3, 4), (0, 3), (2, 0)]

column_strategy = st.tuples(st.sampled_from(DTYPES), st.sampled_from(SHAPES)).flatmap(
    lambda pair: hnp.arrays(np.dtype(pair[0]), pair[1])
)


class TestRoundTripProperty:
    @settings(max_examples=120, deadline=None)
    @given(columns=st.lists(column_strategy, min_size=1, max_size=4))
    def test_dtype_shape_bytes_identical_and_writable(self, columns):
        named = {f"c{index}": column for index, column in enumerate(columns)}
        manifest_text, npz_bytes = dump_study(synthetic_result(named))
        decoded = parse_study(manifest_text, npz_bytes).only().columns["label"]
        assert list(decoded) == list(named)
        for name, column in named.items():
            loaded = decoded[name]
            assert_same_array(loaded, column)
            assert loaded.flags.c_contiguous
            assert loaded.flags.writeable
            assert loaded.flags.owndata
        # The decoder's output re-encodes to the same bytes.
        again = synthetic_result(decoded)
        assert dump_study(again) == (manifest_text, npz_bytes)

    @settings(max_examples=120, deadline=None)
    @given(
        columns=st.lists(column_strategy, min_size=0, max_size=4),
        # Non-ASCII names set the zip UTF-8 flag; "/" nests the member path.
        label=st.sampled_from(["label", "Wi-Fi→LTE", "harmonic/64KB/20s", "débit µ"]),
    )
    def test_writer_matches_reference_and_reader_matches_np_load(
        self, columns, label, tmp_path_factory
    ):
        tmp_path = tmp_path_factory.mktemp("codec")
        result = synthetic_result(
            {f"c{index}": column for index, column in enumerate(columns)}, label
        )
        manifest_text, npz_bytes = dump_study(result)
        reference_write_npz(tmp_path / "ref.npz", result_arrays(result))
        assert npz_bytes == (tmp_path / "ref.npz").read_bytes()
        decoded = parse_study(manifest_text, npz_bytes).only().columns[label]
        expected = reference_read_npz(tmp_path / "ref.npz")
        assert len(decoded) == len(expected) == len(columns)
        for key, column in expected.items():
            assert_same_array(decoded[key.rsplit("::", 1)[1]], column)

    def test_nan_payload_bits_survive(self):
        quiet, signalling = np.float64("nan"), np.frombuffer(
            b"\x01\x00\x00\x00\x00\x00\xf0\x7f", dtype="<f8"
        )[0]
        column = np.array([quiet, signalling, -0.0, np.inf], dtype="<f8")
        pair = dump_study(synthetic_result({"c": column}))
        loaded = parse_study(*pair).only().columns["label"]["c"]
        assert loaded.tobytes() == column.tobytes()

    @pytest.mark.parametrize(
        "column",
        [
            np.asfortranarray(np.arange(12.0).reshape(3, 4)),
            np.arange(20, dtype="<i8")[::2],
            np.arange(12.0).reshape(3, 4)[:, 1:3],
        ],
        ids=["fortran", "strided", "sliced-2d"],
    )
    def test_non_c_contiguous_input(self, column, tmp_path):
        result = synthetic_result({"c": column})
        manifest_text, npz_bytes = dump_study(result)
        reference_write_npz(tmp_path / "ref.npz", result_arrays(result))
        assert npz_bytes == (tmp_path / "ref.npz").read_bytes()
        loaded = parse_study(manifest_text, npz_bytes).only().columns["label"]["c"]
        assert loaded.flags.c_contiguous and loaded.flags.owndata
        np.testing.assert_array_equal(loaded, column)

    def test_object_column_cannot_be_archived(self):
        column = np.array([{"a": 1}, None], dtype=object)
        with pytest.raises(ConfigError, match="object dtype"):
            dump_study(synthetic_result({"c": column}))


# ---------------------------------------------------------------------------
# Oracle: every registered experiment, writer and reader
# ---------------------------------------------------------------------------


class TestOracleOverTheRegistry:
    @pytest.mark.parametrize("experiment_id", experiment_ids())
    def test_codec_equals_reference_writer_and_np_load(self, experiment_id, tmp_path):
        definition = get_experiment(experiment_id)
        result = Study(experiment_id, **definition.smoke_params).run()
        manifest_text, npz_bytes = dump_study(result)
        json_path, npz_path = save_study(result, tmp_path / "saved")
        assert pathlib.Path(json_path).read_text(encoding="utf-8") == manifest_text
        assert pathlib.Path(npz_path).read_bytes() == npz_bytes

        reference_write_npz(tmp_path / "ref.npz", result_arrays(result))
        assert npz_bytes == (tmp_path / "ref.npz").read_bytes()

        expected = reference_read_npz(npz_path)
        decoded = result_arrays(parse_study(manifest_text, npz_bytes))
        assert sorted(decoded) == sorted(expected)
        for key, column in expected.items():
            assert_same_array(decoded[key], column)
        assert result.column_mismatches(load_study(json_path)) == []


class TestNumpyInterop:
    @pytest.fixture()
    def saved(self, tmp_path):
        result = Study("fig2", trials=1).run()
        json_path, npz_path = save_study(result, tmp_path / "fig2")
        return result, pathlib.Path(json_path), pathlib.Path(npz_path)

    def test_np_load_opens_what_save_study_wrote(self, saved):
        result, _json_path, npz_path = saved
        with np.load(npz_path) as payload:
            loaded = {key: payload[key] for key in payload.files}
        arrays = result_arrays(result)
        assert sorted(loaded) == sorted(arrays)
        for key, column in arrays.items():
            assert_same_array(loaded[key], column)

    @pytest.mark.parametrize("savez", [np.savez, np.savez_compressed])
    def test_load_study_opens_what_numpy_wrote(self, saved, savez):
        result, json_path, npz_path = saved
        savez(npz_path, **result_arrays(result))
        assert result.column_mismatches(load_study(json_path)) == []


# ---------------------------------------------------------------------------
# The struct zip writer: bytes pinned, and equal to zipfile's at its limits
# ---------------------------------------------------------------------------

#: One fixed result: float, int and string columns, a 0-d and an empty
#: column, under a non-ASCII label (so the members carry the UTF-8 flag).
PINNED_COLUMNS = {
    "rate": np.array([1.5, -0.0, np.nan, np.inf], dtype="<f8"),
    "count": np.arange(-2, 3, dtype="<i8"),
    "path": np.array(["wifi", "lte", "wifi+lte"], dtype="<U18"),
    "scalar": np.array(7.25),
    "empty": np.zeros((0, 3)),
}
PINNED_LABEL = "Wi-Fi→LTE"
#: blake2b-128 of that result's npz payload, as zipfile 3.10-3.13 wrote it.
PINNED_PAYLOAD = "af58f15ec545406041721694b7b92abf"


def reference_payload(arrays):
    buffer = io.BytesIO()
    reference_write_npz(buffer, arrays)
    return buffer.getvalue()


class TestZipWriter:
    def test_payload_bytes_are_pinned(self):
        result = synthetic_result(PINNED_COLUMNS, PINNED_LABEL)
        _manifest_text, npz_bytes = dump_study(result)
        assert hashlib.blake2b(npz_bytes, digest_size=16).hexdigest() == PINNED_PAYLOAD
        assert npz_bytes == reference_payload(result_arrays(result))

    def test_65536_members_take_zipfiles_zip64_end_record(self):
        arrays = dict.fromkeys((f"c{index}" for index in range(1 << 16)), np.zeros(0))
        npz_bytes = archive._write_npz(arrays)
        assert npz_bytes == reference_payload(arrays)
        assert b"PK\x06\x06" in npz_bytes[-98:]  # the zip64 end record and locator
        decoded = archive._read_npz(npz_bytes)
        assert list(decoded) == list(arrays)

    def test_zip64_fields_past_a_lowered_limit(self, monkeypatch):
        # Past zipfile's 2 GiB limit a member gets zip64 headers and the
        # directory zip64 extras; lowering the limit on both writers
        # exercises those branches with small arrays.
        monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 600)
        monkeypatch.setattr(archive, "_ZIP64_LIMIT", 600)
        arrays = {
            "small": np.arange(4.0),  # 160 bytes: plain
            "large": np.arange(80, dtype="<i8"),  # 768 bytes: zip64 sizes everywhere
            "late": np.arange(3.0),  # its header offset is past the limit
        }
        if sys.version_info >= (3, 11):
            # 576 bytes: 576 x 1.05 > 600 gives a zip64 local header, whose
            # sizes zipfile 3.10 left unsaturated (at version 2.0).
            arrays["near"] = np.arange(56.0)
        npz_bytes = archive._write_npz(arrays)
        assert npz_bytes == reference_payload(arrays)
        decoded = archive._read_npz(npz_bytes)
        expected = zipfile_read_npz(npz_bytes)
        assert list(decoded) == list(expected) == list(arrays)
        for key, column in arrays.items():
            assert_same_array(decoded[key], column)

    def test_nul_in_a_column_name_cannot_be_archived(self):
        with pytest.raises(ConfigError, match="NUL"):
            dump_study(synthetic_result({"c\0d": np.zeros(1)}))

    def test_zipfile_is_not_imported_under_src(self):
        sources = pathlib.Path(archive.__file__).parents[1].rglob("*.py")
        importers = [
            path.name
            for path in sources
            if re.search(r"^\s*(import|from)\s+zipfile\b", path.read_text(), re.M)
        ]
        assert importers == []


# ---------------------------------------------------------------------------
# Corruption matrix, on both entry points and through the cache
# ---------------------------------------------------------------------------


def npz_members(npz_bytes):
    with zipfile.ZipFile(io.BytesIO(npz_bytes)) as archive:
        return [(info.filename, archive.read(info)) for info in archive.infolist()]


def rezip(members):
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as archive:
        for name, data in members:
            archive.writestr(zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0)), data)
    return buffer.getvalue()


def npy_bytes(array, allow_pickle=False):
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, allow_pickle=allow_pickle)
    return buffer.getvalue()


def replace_first(npz_bytes, make):
    members = npz_members(npz_bytes)
    name, data = members[0]
    return rezip([(name, make(data))] + members[1:])


def truncated_member(npz_bytes):
    # A shorter data section under a *valid* CRC: only the
    # ``count x itemsize`` check can catch it.
    return replace_first(npz_bytes, lambda data: data[:-3])


def flipped_data_byte(npz_bytes):
    name, data = npz_members(npz_bytes)[0]
    at = npz_bytes.index(data) + len(data) - 1
    return npz_bytes[:at] + bytes([npz_bytes[at] ^ 0xFF]) + npz_bytes[at + 1 :]


def dtype_drift(npz_bytes):
    def narrow(data):
        array = np.lib.format.read_array(io.BytesIO(data))
        return npy_bytes(array.astype("<f4" if array.dtype.kind == "f" else "<i2"))

    return replace_first(npz_bytes, narrow)


def shape_drift(npz_bytes):
    def grow(data):
        array = np.lib.format.read_array(io.BytesIO(data))
        return npy_bytes(np.concatenate([array.reshape(-1), array.reshape(-1)]))

    return replace_first(npz_bytes, grow)


def object_member(npz_bytes):
    return replace_first(
        npz_bytes, lambda _data: npy_bytes(np.array([{"x": 1}], dtype=object), True)
    )


def non_npy_member(npz_bytes):
    return rezip(npz_members(npz_bytes) + [("README.txt", b"hello")])


def duplicate_member(npz_bytes):
    members = npz_members(npz_bytes)
    with pytest.warns(UserWarning, match="Duplicate name"):
        return rezip(members + [members[0]])


def empty_payload(_npz_bytes):
    return b""


def patched_headers(npz_bytes, local_at, central_at, value):
    """The first member's local header and directory entry, each with the
    byte at a field offset set to ``value``; data and CRC untouched."""
    directory = struct.unpack_from("<L", npz_bytes, len(npz_bytes) - 6)[0]
    patched = bytearray(npz_bytes)
    patched[local_at] = patched[directory + central_at] = value
    return bytes(patched)


def unsupported_method(npz_bytes):
    return patched_headers(npz_bytes, 8, 10, 99)  # compression method 99


def future_zip_version(npz_bytes):
    return patched_headers(npz_bytes, 4, 6, 64)  # version needed: 6.4


def encrypted_member(npz_bytes):
    return patched_headers(npz_bytes, 6, 8, 0x01)  # flag bit 0: encrypted


CORRUPTIONS = {
    "truncated-member": (truncated_member, "array data is"),
    "flipped-data-byte": (flipped_data_byte, "Bad CRC-32"),
    "header-dtype-drift": (dtype_drift, "has dtype"),
    "header-shape-drift": (shape_drift, "has shape"),
    "object-dtype-member": (object_member, "object arrays"),
    "non-npy-member": (non_npy_member, "not a .npy array"),
    "duplicate-member": (duplicate_member, "duplicate member"),
    "empty-payload": (empty_payload, "not a readable npz"),
    # zipfile raised NotImplementedError / RuntimeError for these three.
    "unsupported-method": (unsupported_method, "compression method 99"),
    "future-zip-version": (future_zip_version, "zip version 6.4"),
    "encrypted-member": (encrypted_member, "is encrypted"),
}


@pytest.fixture(scope="module")
def fig2_cell():
    return Study("fig2", trials=2, seed=2014).run()


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
class TestCorruptionMatrix:
    def test_parse_study_names_the_archive(self, fig2_cell, corruption):
        corrupt, message = CORRUPTIONS[corruption]
        manifest_text, npz_bytes = dump_study(fig2_cell)
        with pytest.raises(ConfigError, match=message) as raised:
            parse_study(manifest_text, corrupt(npz_bytes), "wire-archive-7")
        assert "wire-archive-7" in str(raised.value)

    def test_load_study_names_the_archive(self, fig2_cell, corruption, tmp_path):
        corrupt, message = CORRUPTIONS[corruption]
        json_path, npz_path = save_study(fig2_cell, tmp_path / "victim")
        payload = pathlib.Path(npz_path)
        payload.write_bytes(corrupt(payload.read_bytes()))
        with pytest.raises(ConfigError, match=message) as raised:
            load_study(json_path)
        assert json_path in str(raised.value)

    def test_cache_entry_is_quarantined_never_served(self, fig2_cell, corruption, tmp_path):
        corrupt, _message = CORRUPTIONS[corruption]
        cache = StudyCache(tmp_path / "cache")
        definition = get_experiment("fig2")
        cell = fig2_cell.only()
        cache.store(definition, cell.params, cell)
        entry = cache.entries()[0]
        entry.npz_path.write_bytes(corrupt(entry.npz_path.read_bytes()))
        assert cache.lookup_archive(definition, cell.params) is None
        assert cache.lookup(definition, cell.params) is None
        assert not entry.npz_path.exists()
        assert (cache.quarantine_dir / entry.npz_path.name).exists()


# ---------------------------------------------------------------------------
# Differential fuzz: the struct reader against the zipfile reader
# ---------------------------------------------------------------------------

#: What the struct reader rejects although Python 3.11's zipfile reads
#: it (DESIGN.md, "Result archives").  Every rejection the fuzz finds on
#: a payload zipfile accepts must carry one of these messages.
NARROWED = (
    # A member whose compressed size runs into the next header or the
    # directory (Python 3.13's zipfile rejects it as "Overlapped entries").
    "overlaps the next entry",
    # A deflated member that does not end at exactly its declared size.
    "does not inflate",
    # bzip2 and LZMA members.
    "compression method 12",
    "compression method 14",
    # Python 3.12+'s unicode path extra field.
    "unicode path extra field",
    # A zip64 locator whose record is missing or disagrees with it
    # (zipfile 3.11 falls back to the plain end record, or ignores it).
    "zip64 end of central directory record",
)


def zip_layout(npz_bytes):
    """``(header byte positions, directory entries, directory start)``."""
    with zipfile.ZipFile(io.BytesIO(npz_bytes)) as reader:
        infos, start = reader.infolist(), reader.start_dir
    headers = [
        at
        for info in infos
        for at in range(info.header_offset, info.header_offset + 30 + len(info.filename))
    ]
    headers += range(start, len(npz_bytes))
    entries, at = [], start
    for info in infos:
        size = 46 + len(info.filename.encode()) + len(info.extra) + len(info.comment)
        entries.append(npz_bytes[at : at + size])
        at += size
    return headers, entries, start


def spliced(npz_bytes, layout, operation, first, second, fix_end):
    """Rewrite the central directory: drop, duplicate, swap or replace
    entries, or move the end to zip64 records; ``fix_end`` re-counts the
    end record, else the old one stays."""
    _headers, entries, start = layout
    entries = list(entries)
    first, second = first % len(entries), second % len(entries)
    if operation == "drop":
        del entries[first]
    elif operation == "duplicate":
        entries.append(entries[first])
    elif operation == "swap":
        entries[first], entries[second] = entries[second], entries[first]
    elif operation == "replace":
        entries[first] = entries[second]
    directory = b"".join(entries)
    count, size = len(entries), len(directory)
    end = npz_bytes[-22:]
    if fix_end:
        end = struct.pack("<4s4H2LH", b"PK\x05\x06", 0, 0, count, count, size, start, 0)
    if operation == "zip64":
        end = (
            struct.pack("<4sQ2H2L4Q", b"PK\x06\x06", 44, 45, 45, 0, 0, count, count, size, start)
            + struct.pack("<4sLQL", b"PK\x06\x07", 0, start + size, 1)
            + end
        )
    return npz_bytes[:start] + directory + end


edit_strategy = st.one_of(
    # A byte XORed: anywhere, or (biased) inside a header.
    st.tuples(st.just("flip"), st.integers(0, 1 << 20), st.integers(1, 255), st.booleans()),
    # The tail (or the head) cut off.
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20), st.just(0), st.booleans()),
)
splice_strategy = st.none() | st.tuples(
    st.sampled_from(["drop", "duplicate", "swap", "replace", "zip64"]),
    st.integers(0, 1 << 10),
    st.integers(0, 1 << 10),
    st.booleans(),
)


def mutated(npz_bytes, layout, splice, edits):
    data = bytearray(spliced(npz_bytes, layout, *splice) if splice else npz_bytes)
    headers = layout[0]
    for kind, at, value, flag in edits:
        if kind == "flip" and data:
            at = (headers[at % len(headers)] if flag else at) % len(data)
            data[at] ^= value
        elif kind == "truncate":
            at %= len(data) + 1
            data = data[at:] if flag else data[:at]
    return bytes(data)


@pytest.fixture(scope="module")
def fuzz_target(fig2_cell):
    manifest_text, npz_bytes = dump_study(fig2_cell)
    return manifest_text, npz_bytes, zip_layout(npz_bytes)


class TestReaderAgainstZipfile:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(splice=splice_strategy, edits=st.lists(edit_strategy, max_size=3))
    def test_struct_reader_never_accepts_more_and_agrees_bit_for_bit(
        self, fuzz_target, splice, edits
    ):
        manifest_text, npz_bytes, layout = fuzz_target
        payload = mutated(npz_bytes, layout, splice, edits)
        try:
            expected = zipfile_read_npz(payload)
        except Exception:  # any zipfile failure is a rejection
            expected = None
        try:
            actual, error = archive._read_npz(payload), None
        except ValueError as exc:
            actual, error = None, exc
        if expected is None:
            assert actual is None, "the struct reader accepted what zipfile rejects"
        elif actual is None:
            assert any(reason in str(error) for reason in NARROWED), error
        else:
            assert list(actual) == list(expected)
            for key, column in expected.items():
                assert_same_array(actual[key], column)
        try:
            parse_study(manifest_text, payload, "fuzzed")
        except ConfigError as exc:
            assert "fuzzed" in str(exc)

    def test_the_fuzz_reaches_every_verdict(self, fuzz_target):
        # The wall means something only if mutations land on both sides.
        manifest_text, npz_bytes, layout = fuzz_target
        dropped = mutated(npz_bytes, layout, ("drop", 0, 0, True), [])
        assert list(archive._read_npz(dropped)) == list(zipfile_read_npz(dropped))
        spread = mutated(npz_bytes, layout, ("zip64", 0, 0, True), [])
        assert list(archive._read_npz(spread)) == list(zipfile_read_npz(spread))
        # A stored member's compressed size raised past its data: zipfile
        # 3.11 reads it (it stops at the declared size), this reader does not.
        directory = layout[2]
        grown = bytearray(npz_bytes)
        struct.pack_into("<L", grown, directory + 20, len(npz_bytes))
        zipfile_read_npz(bytes(grown))
        with pytest.raises(ValueError, match="overlaps the next entry"):
            archive._read_npz(bytes(grown))


# ---------------------------------------------------------------------------
# The payload half scales with the cell count
# ---------------------------------------------------------------------------


def many_cell_pair(count):
    """An archive pair of ``count`` cells holding one column each."""
    definition = get_experiment("fig2")
    params = definition.schema.resolve({})
    cells = [
        StudyCell(
            index=index,
            overrides={},
            params=params,
            result=ExperimentResult("fig2", "", {}),
            columns={"label": {"c": np.zeros(1)}},
        )
        for index in range(count)
    ]
    return dump_study(StudyResult("fig2", definition.kind, params, {}, cells))


def test_parse_is_linear_in_the_cell_count():
    # Each cell used to scan every column key: x8 cells cost x47.
    small, large = many_cell_pair(500), many_cell_pair(4000)

    def best(pair):
        timings = []
        for _ in range(3):
            began = time.perf_counter()
            parse_study(*pair)
            timings.append(time.perf_counter() - began)
        return min(timings)

    assert best(large) < 20 * best(small)


# ---------------------------------------------------------------------------
# Malformed manifests: every one a ConfigError, never a TypeError
# ---------------------------------------------------------------------------


def mutated_manifest(manifest_text, mutate):
    manifest = json.loads(manifest_text)
    mutate(manifest)
    return json.dumps(manifest)


MALFORMED_MANIFESTS = {
    "columns-mixed-types": lambda m: m.update(columns=[1, "a"]),
    "labels-nested-list": lambda m: m["cells"][0].update(labels=[[1]]),
    "axes-scalar": lambda m: m.update(axes={"seed": 5}),
    "column-key-without-label": lambda m: (
        m["columns"].append("0::orphan"),
        m["column_meta"].update({"0::orphan": {"dtype": "<f8", "shape": [0]}}),
    ),
    "cell-not-an-object": lambda m: m.update(cells=[3]),
    "override-unknown-param": lambda m: m["cells"][0].update(overrides={"nope": 1}),
    "axis-value-wrong-type": lambda m: m.update(axes={"seed": [[1]]}),
}


class TestMalformedManifests:
    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_malformed_manifest_is_a_config_error(self, fig2_cell, case):
        manifest_text, npz_bytes = dump_study(fig2_cell)
        broken = mutated_manifest(manifest_text, MALFORMED_MANIFESTS[case])
        with pytest.raises(ConfigError):
            parse_study(broken, npz_bytes)

    def test_non_utf8_manifest_file_is_a_config_error(self, fig2_cell, tmp_path):
        json_path, _npz_path = save_study(fig2_cell, tmp_path / "victim")
        pathlib.Path(json_path).write_bytes(b"\xff\xfe\x00garbage")
        with pytest.raises(ConfigError, match="UTF-8"):
            load_study(json_path)
