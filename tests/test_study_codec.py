"""The in-memory archive codec: property, oracle and corruption walls.

``dump_study`` / ``parse_study`` are the one encoder and decoder of the
study archive; ``save_study`` / ``load_study``, the cache and the study
service all go through them.  This file pins the codec against the
writer and reader it replaced — the explicit ``zipfile`` +
``np.lib.format.write_array`` writer and ``np.load(allow_pickle=False)``
— which live on here as the reference oracle.
"""

import io
import json
import pathlib
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.experiments import ExperimentResult
from repro.errors import ConfigError
from repro.study import Study, StudyCache, StudyResult, get_experiment
from repro.study.archive import dump_study, load_study, parse_study, save_study
from repro.study.registry import experiment_ids
from repro.study.study import StudyCell

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


def synthetic_result(columns):
    """A one-cell fig2 result carrying arbitrary dense ``columns``."""
    definition = get_experiment("fig2")
    params = definition.schema.resolve({})
    cell = StudyCell(
        index=0,
        overrides={},
        params=params,
        result=ExperimentResult("fig2", "rendered", {}),
        columns={"label": dict(columns)},
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
    @given(columns=st.lists(column_strategy, min_size=1, max_size=4))
    def test_writer_matches_reference_and_reader_matches_np_load(
        self, columns, tmp_path_factory
    ):
        tmp_path = tmp_path_factory.mktemp("codec")
        result = synthetic_result(
            {f"c{index}": column for index, column in enumerate(columns)}
        )
        manifest_text, npz_bytes = dump_study(result)
        reference_write_npz(tmp_path / "ref.npz", result_arrays(result))
        assert npz_bytes == (tmp_path / "ref.npz").read_bytes()
        decoded = parse_study(manifest_text, npz_bytes).only().columns["label"]
        for key, expected in reference_read_npz(tmp_path / "ref.npz").items():
            assert_same_array(decoded[key.rsplit("::", 1)[1]], expected)

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


CORRUPTIONS = {
    "truncated-member": (truncated_member, "array data is"),
    "flipped-data-byte": (flipped_data_byte, "Bad CRC-32"),
    "header-dtype-drift": (dtype_drift, "has dtype"),
    "header-shape-drift": (shape_drift, "has shape"),
    "object-dtype-member": (object_member, "object arrays"),
    "non-npy-member": (non_npy_member, "not a .npy array"),
    "duplicate-member": (duplicate_member, "duplicate member"),
    "empty-payload": (empty_payload, "not a readable npz"),
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
