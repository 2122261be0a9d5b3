"""Versioned, schema-checked archives for :class:`StudyResult`.

One format for everything that used to be an in-memory return value:
figures regenerated locally, benchmark records, and CI workflow
artifacts all write the same pair of files —

* ``<path>.json`` — the manifest: format tag, schema version,
  experiment id/kind, resolved params, grid axes, and every cell's
  overrides, rendered panel, raw numbers, and label list;
* ``<path>.npz`` — the dense payload: every cell's per-label batch
  columns (``OutcomeBatch`` / ``PopulationBatch`` / ``EstimatorBatch``
  ndarrays), stored uncompressed so the float64/int64 bits the workers
  produced are the bits a later session reads back.

The loader is strict: a missing key, a wrong type, or a schema-version
bump is a :class:`~repro.errors.ConfigError` naming the problem — not
a half-loaded object.  Versioning policy: ``SCHEMA_VERSION`` bumps on
any incompatible manifest change, and loads reject any other version
outright (re-running an experiment is cheap and exact; migrating stale
archives is not worth the code).

Write guarantees:

* **atomic** — both files are written to temp names in the target
  directory and committed with ``os.replace`` (payload first, manifest
  second), so a crash mid-save never leaves a manifest whose payload is
  missing or half-written; a manifest-without-payload pair can only
  come from outside interference and loads as a distinct torn-archive
  error;
* **byte-deterministic** — the npz payload is written through an
  explicit zip writer with pinned member metadata, so saving the same
  :class:`StudyResult` twice produces byte-identical files (the study
  cache's repeated-run acceptance check is a literal ``cmp``).

Round-trip guarantees (held by ``tests/test_study_archive.py``):

* dense columns are bit-identical after save → load (NaN included);
  the manifest records every column's dtype and shape
  (``column_meta``) and the loader checks the payload against it, so a
  truncated or hand-edited npz fails here instead of surfacing as a
  numpy broadcast error downstream;
* metadata survives modulo JSON's tuple→list collapse — params are
  re-coerced through the experiment's schema on load, which restores
  tuples for ``many`` params.

The format lives in one in-memory codec: :func:`dump_study` renders a
result to ``(manifest_text, npz_bytes)`` and :func:`parse_study` checks
and decodes such a pair.  :func:`save_study` / :func:`load_study` are
the codec plus an atomic file write / a file read; the study cache and
the study service move the same pair as bytes, so no archive is ever
written to disk just to be read back.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import zipfile
from contextlib import suppress
from functools import lru_cache
from pathlib import Path
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # import cycle: study.py imports this module lazily
    from .study import StudyResult

import numpy as np
from numpy.lib import format as npy_format

from ..errors import ConfigError
from .registry import get_experiment

__all__ = [
    "ARCHIVE_FORMAT",
    "SCHEMA_VERSION",
    "dump_study",
    "load_study",
    "parse_study",
    "read_study",
    "save_study",
]

#: Manifest format tag — rejects arbitrary JSON handed to ``load``.
ARCHIVE_FORMAT = "repro-study"

#: Bump on incompatible manifest changes; loads reject other versions.
#: v2 added ``column_meta`` (per-column dtype/shape the loader checks
#: the payload against).
SCHEMA_VERSION = 2

#: Separator for npz keys (``cell::label::column``).  ``/`` would turn
#: npz member names into nested zip paths; labels may contain ``/``
#: (fig3's ``harmonic/64KB/20s``), so the key is split from the right.
_KEY_SEP = "::"


def _jsonify(value: Any) -> Any:
    """Recursively convert a raw-results object to JSON-safe types.

    Numpy scalars/arrays and tuples appear throughout the experiments'
    ``raw`` dicts; collapse them to Python scalars and lists.  Dict keys
    become strings (JSON has no int keys).
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonify(element) for element in value.tolist()]
    if isinstance(value, Mapping):
        return {str(key): _jsonify(element) for key, element in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(element) for element in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigError(
        f"cannot archive value of type {type(value).__name__}: {value!r}"
    )


def _paths(path: str | Path) -> tuple[Path, Path]:
    """Resolve a base path to the (json, npz) file pair.

    Accepts a bare base (``results/fig2-grid``) or either member of the
    pair; the sibling is derived.  The suffixes are *appended* to a
    bare base (never substituted), so dotted bases like
    ``fig2.v1`` archive to ``fig2.v1.json`` instead of silently
    colliding on ``fig2.json``.
    """
    path = Path(path)
    if path.suffix in (".json", ".npz"):
        path = path.with_suffix("")
    return Path(f"{path}.json"), Path(f"{path}.npz")


#: Per-process counter for unique temp names (pid disambiguates across
#: processes, the counter across threads of one process).
_TMP_COUNTER = itertools.count()


def _tmp_path(path: Path) -> Path:
    return path.with_name(f"{path.name}.tmp-{os.getpid()}-{next(_TMP_COUNTER)}")


#: Distinct ``.npy`` headers kept parsed / rendered.  An archive holds a
#: handful of (dtype, shape) pairs repeated over every cell and label,
#: so a small bound covers a whole sweep.
_HEADER_MEMO = 512


@lru_cache(maxsize=_HEADER_MEMO)
def _npy_header(dtype: np.dtype[Any], fortran_order: bool, shape: tuple[int, ...]) -> bytes:
    """The ``.npy`` magic + header bytes numpy writes for an array of
    this dtype, order and shape (format 1.0, or 2.0 when the header
    outgrows 1.0's 16-bit length)."""
    meta: dict[str, Any] = {
        "descr": npy_format.dtype_to_descr(dtype),
        "fortran_order": fortran_order,
        "shape": shape,
    }
    buffer = io.BytesIO()
    try:
        npy_format.write_array_header_1_0(buffer, meta)
    except ValueError:
        buffer = io.BytesIO()
        npy_format.write_array_header_2_0(buffer, meta)
    return buffer.getvalue()


def _encode_npy(array: np.ndarray) -> bytes:
    """One array as ``.npy`` bytes, identical to ``np.lib.format.
    write_array(..., allow_pickle=False)``."""
    if array.dtype.hasobject:
        raise ConfigError(f"cannot archive a column of object dtype {array.dtype}")
    # Like numpy: Fortran-contiguous data is stored in Fortran order,
    # anything else (strided views included) as a C-order copy.
    fortran_order = array.flags.f_contiguous and not array.flags.c_contiguous
    header = _npy_header(array.dtype, fortran_order, array.shape)
    return header + (array.T if fortran_order else array).tobytes("C")


def _write_npz(arrays: Mapping[str, np.ndarray]) -> bytes:
    """Render an npz payload with byte-deterministic output.

    numpy's ``savez`` round-trips the array bits exactly, but its zip
    member metadata (timestamps) is numpy-version-dependent; writing
    the members explicitly with pinned ``ZipInfo`` fields makes the
    *file bytes* a pure function of the arrays, which is what lets the
    study cache assert "second run produced the identical archive" with
    a plain byte compare.  Uncompressed (``ZIP_STORED``) like ``savez``:
    the columns are small and loads skip decompression.
    """
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as archive:
        for name, array in arrays.items():
            member = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            member.compress_type = zipfile.ZIP_STORED
            archive.writestr(member, _encode_npy(np.asanyarray(array)))
    return buffer.getvalue()


def dump_study(result: StudyResult) -> tuple[str, bytes]:
    """Render ``result`` to its archive pair ``(manifest_text, npz_bytes)``.

    The pair is exactly what :func:`save_study` puts in ``<path>.json``
    and ``<path>.npz`` — a pure function of the result.
    """
    failed = [cell.index for cell in result.cells if cell.error is not None]
    if failed:
        # An archive is a durable claim of complete results; a partial
        # sweep (quarantined service cells) must be re-run, not saved.
        raise ConfigError(
            f"cannot archive a study with failed cells {failed}; see "
            "StudyResult.errors for the per-cell reasons and re-run them"
        )
    arrays: dict[str, np.ndarray] = {}
    cells = []
    for cell in result.cells:
        labels = list(cell.columns)
        for label, columns in cell.columns.items():
            for name, column in columns.items():
                arrays[f"{cell.index}{_KEY_SEP}{label}{_KEY_SEP}{name}"] = column
        cells.append(
            {
                "overrides": _jsonify(cell.overrides),
                "params": _jsonify(cell.params),
                "labels": labels,
                "rendered": cell.result.rendered,
                "raw": _jsonify(cell.result.raw),
            }
        )
    manifest = {
        "format": ARCHIVE_FORMAT,
        "schema_version": SCHEMA_VERSION,
        "experiment": result.experiment_id,
        "kind": result.kind,
        "params": _jsonify(result.params),
        "axes": _jsonify(result.axes),
        "cells": cells,
        "columns": sorted(arrays),
        "column_meta": {
            key: {"dtype": column.dtype.str, "shape": list(column.shape)}
            for key, column in sorted(arrays.items())
        },
    }
    return json.dumps(manifest, indent=2) + "\n", _write_npz(arrays)


def save_study(result: StudyResult, path: str | Path) -> tuple[str, str]:
    """Write ``result`` to ``<path>.json`` + ``<path>.npz`` atomically.

    Both files land under temp names first and are committed with
    ``os.replace`` — payload before manifest, so no reader (or crash)
    can ever observe a manifest whose payload has not been fully
    written.  Concurrent saves of the same base are last-writer-wins
    with both files valid, which is exactly what a content-addressed
    cache directory needs (two processes storing the same key wrote the
    same bytes anyway).
    """
    manifest_text, npz_bytes = dump_study(result)
    json_path, npz_path = _paths(path)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_tmp, npz_tmp = _tmp_path(json_path), _tmp_path(npz_path)
    try:
        npz_tmp.write_bytes(npz_bytes)
        json_tmp.write_text(manifest_text, encoding="utf-8")
        os.replace(npz_tmp, npz_path)
        os.replace(json_tmp, json_path)
    finally:
        for leftover in (npz_tmp, json_tmp):
            with suppress(OSError):
                leftover.unlink()
    return str(json_path), str(npz_path)


_MANIFEST_TYPES = {
    "format": str,
    "schema_version": int,
    "experiment": str,
    "kind": str,
    "params": dict,
    "axes": dict,
    "cells": list,
    "columns": list,
    "column_meta": dict,
}

_CELL_TYPES = {
    "overrides": dict,
    "params": dict,
    "labels": list,
    "rendered": str,
    "raw": dict,
}


@lru_cache(maxsize=_HEADER_MEMO)
def _parse_npy_header(prefix: bytes) -> tuple[tuple[int, ...], bool, np.dtype[Any], int]:
    """``(shape, fortran_order, dtype, payload bytes)`` declared by the
    magic + header bytes of one ``.npy`` member.

    The parse is numpy's own (magic, version, ``literal_eval`` of the
    header dict, key/shape/descr checks); memoising it on the header
    bytes runs it once per distinct header instead of once per member.
    """
    stream = io.BytesIO(prefix)
    version = npy_format.read_magic(stream)
    if version == (1, 0):
        shape, fortran_order, dtype = npy_format.read_array_header_1_0(stream)
    elif version == (2, 0):
        shape, fortran_order, dtype = npy_format.read_array_header_2_0(stream)
    else:
        raise ValueError(f"unsupported .npy format version {version}")
    if stream.tell() != len(prefix):
        # _decode_npy sliced the prefix by its own reading of the length
        # field; the data offset is only right if numpy agrees.
        raise ValueError("array header length does not match its length field")
    if dtype.hasobject:
        raise ValueError("object arrays cannot be loaded from a study archive")
    return shape, fortran_order, dtype, math.prod(shape) * dtype.itemsize


def _decode_npy(raw: bytes) -> np.ndarray:
    """One ``.npy`` member's bytes as a fresh C-contiguous array."""
    # The header's own length field sits after magic (6) + version (2):
    # 2 bytes in format 1.0, 4 bytes otherwise.
    length_end = 10 if raw[6:7] == b"\x01" else 12
    offset = length_end + int.from_bytes(raw[8:length_end], "little")
    shape, fortran_order, dtype, nbytes = _parse_npy_header(raw[:offset])
    if len(raw) - offset != nbytes:
        raise ValueError(
            f"array data is {len(raw) - offset} bytes, header declares "
            f"{shape} x {dtype.str} = {nbytes}"
        )
    # np.ndarray, not np.empty: zero-width string dtypes survive it.
    array = np.ndarray(shape[::-1] if fortran_order else shape, dtype=dtype)
    if nbytes:
        array.reshape(-1).view(np.uint8)[:] = np.frombuffer(raw, np.uint8, nbytes, offset)
    return np.ascontiguousarray(array.T) if fortran_order else array


def _read_npz(data: bytes) -> dict[str, np.ndarray]:
    """Decode an npz payload held in memory, in one pass.

    Checks everything numpy's ``load(allow_pickle=False)`` checks: the
    zip structure and each member's CRC-32 (``zipfile``), the ``.npy``
    magic, version and header (numpy's own parser), no object dtypes,
    and a data section of exactly ``count x itemsize`` bytes.  Raises
    ``zipfile.BadZipFile`` / ``ValueError`` and friends; the caller
    names the archive.
    """
    arrays: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        for member in archive.infolist():
            name = member.filename
            if not name.endswith(".npy"):
                raise ValueError(f"member {name!r} is not a .npy array")
            key = name[: -len(".npy")]
            if key in arrays:
                raise ValueError(f"duplicate member {name!r}")
            arrays[key] = _decode_npy(archive.read(member))
    return arrays


def _check_column_meta(
    meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray], name: str
) -> None:
    """Validate payload arrays against the manifest's dtype/shape record.

    A truncated member, a hand-edited payload, or a dtype drift (e.g. an
    int64 column rewritten as int32) dies here with the offending column
    named, instead of as a numpy broadcast/astype error deep inside the
    analysis layer.
    """
    if sorted(meta) != sorted(arrays):
        raise ConfigError(
            f"study archive {name}: column_meta does not cover the "
            "manifest's columns"
        )
    for key, column in arrays.items():
        entry = meta[key]
        if not isinstance(entry, dict) or not isinstance(entry.get("dtype"), str) or not isinstance(
            entry.get("shape"), list
        ):
            raise ConfigError(
                f"study archive {name}: column_meta[{key!r}] must be an "
                "object with 'dtype' and 'shape'"
            )
        if column.dtype.str != entry["dtype"]:
            raise ConfigError(
                f"study archive {name}: column {key!r} has dtype "
                f"{column.dtype.str!r}, manifest says {entry['dtype']!r}"
            )
        if list(column.shape) != entry["shape"]:
            raise ConfigError(
                f"study archive {name}: column {key!r} has shape "
                f"{list(column.shape)}, manifest says {entry['shape']}"
            )


def _check(mapping: Mapping, types: Mapping[str, type], where: str) -> None:
    for key, expected in types.items():
        if key not in mapping:
            raise ConfigError(f"study archive {where}: missing key {key!r}")
        if not isinstance(mapping[key], expected):
            raise ConfigError(
                f"study archive {where}: {key!r} must be "
                f"{expected.__name__}, got {type(mapping[key]).__name__}"
            )


def _check_strings(values: list[Any], where: str, what: str) -> None:
    if not all(isinstance(value, str) for value in values):
        raise ConfigError(f"study archive {where}: {what!r} must be a list of strings")


def _parse_manifest(manifest_text: str, name: str) -> dict[str, Any]:
    """The manifest half of the decoder: JSON, keys, format, version,
    registered experiment and kind."""
    try:
        manifest = json.loads(manifest_text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"study archive {name} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ConfigError(f"study archive {name}: manifest must be an object")
    _check(manifest, _MANIFEST_TYPES, f"{name} manifest")
    if manifest["format"] != ARCHIVE_FORMAT:
        raise ConfigError(
            f"study archive {name}: format {manifest['format']!r} is not "
            f"{ARCHIVE_FORMAT!r}"
        )
    if manifest["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"study archive {name}: schema version "
            f"{manifest['schema_version']} is not the supported {SCHEMA_VERSION}"
        )
    kind = get_experiment(manifest["experiment"]).kind
    if manifest["kind"] != kind:
        raise ConfigError(
            f"study archive {name}: kind {manifest['kind']!r} does not "
            f"match the registered {kind!r}"
        )
    _check_strings(manifest["columns"], f"{name} manifest", "columns")
    return manifest


def _assemble(manifest: dict[str, Any], npz_bytes: bytes, name: str) -> StudyResult:
    """The payload half: decode the npz, check it against the manifest,
    and build the result."""
    from ..analysis.experiments import ExperimentResult
    from .study import StudyCell, StudyResult

    schema = get_experiment(manifest["experiment"]).schema
    try:
        arrays = _read_npz(npz_bytes)
    except (zipfile.BadZipFile, ValueError, OSError, EOFError, KeyError) as exc:
        raise ConfigError(
            f"study archive {name}: payload is not a readable npz archive "
            f"(truncated or corrupt): {exc}"
        ) from None
    if sorted(arrays) != sorted(manifest["columns"]):
        raise ConfigError(
            f"study archive {name}: npz columns do not match the manifest"
        )
    _check_column_meta(manifest["column_meta"], arrays, name)
    cells = []
    for index, cell in enumerate(manifest["cells"]):
        where = f"{name} cell {index}"
        if not isinstance(cell, dict):
            raise ConfigError(f"study archive {where}: must be an object")
        _check(cell, _CELL_TYPES, where)
        _check_strings(cell["labels"], where, "labels")
        columns: dict[str, dict[str, np.ndarray]] = {
            label: {} for label in cell["labels"]
        }
        prefix = f"{index}{_KEY_SEP}"
        for key, column in arrays.items():
            if not key.startswith(prefix):
                continue
            label, _sep, column_name = key[len(prefix) :].rpartition(_KEY_SEP)
            if label not in columns:
                raise ConfigError(
                    f"study archive {where}: column for unknown label "
                    f"{label!r}"
                )
            columns[label][column_name] = column
        overrides = {
            param: schema[param].coerce(value)
            for param, value in cell["overrides"].items()
        }
        cells.append(
            StudyCell(
                index=index,
                overrides=overrides,
                params=schema.resolve(cell["params"]),
                result=ExperimentResult(
                    manifest["experiment"], cell["rendered"], cell["raw"]
                ),
                columns=columns,
            )
        )
    axes = {}
    for param, values in manifest["axes"].items():
        if not isinstance(values, list):
            raise ConfigError(
                f"study archive {name}: axis {param!r} must be a list of values"
            )
        axes[param] = [schema[param].coerce(value) for value in values]
    return StudyResult(
        experiment_id=manifest["experiment"],
        kind=manifest["kind"],
        params=schema.resolve(manifest["params"]),
        axes=axes,
        cells=cells,
    )


def parse_study(
    manifest_text: str, npz_bytes: bytes, name: str = "<memory>"
) -> StudyResult:
    """Check and decode an archive pair produced by :func:`dump_study`.

    ``name`` labels the archive in error messages (the manifest path
    for :func:`load_study`).  Every malformed input — manifest or
    payload — is a :class:`~repro.errors.ConfigError`.
    """
    return _assemble(_parse_manifest(manifest_text, name), npz_bytes, name)


def _read_file(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"study archive {path} is not readable: {exc}") from None


def read_study(path: str | Path) -> tuple[StudyResult, str, bytes]:
    """Load an archive and return it with the pair it was decoded from:
    ``(result, manifest_text, npz_bytes)``.

    Each file is read once, so the returned bytes are exactly the bytes
    that passed validation — what the cache hands the study service to
    serve, with no second read that could see a different file.
    """
    json_path, npz_path = _paths(path)
    if not json_path.exists():
        raise ConfigError(f"study archive not found: {json_path}")
    name = str(json_path)
    try:
        manifest_text = _read_file(json_path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"study archive {name} is not UTF-8 text: {exc}") from None
    manifest = _parse_manifest(manifest_text, name)
    if not npz_path.exists():
        raise ConfigError(
            f"study archive payload not found: {npz_path} (torn archive: the "
            "manifest exists without its npz payload — the pair was partially "
            "copied or the payload deleted; saves are atomic, so re-run or "
            "re-copy the archive)"
        )
    npz_bytes = _read_file(npz_path)
    return _assemble(manifest, npz_bytes, name), manifest_text, npz_bytes


def load_study(path: str | Path) -> StudyResult:
    """Load a :class:`StudyResult` archived by :func:`save_study`."""
    return read_study(path)[0]
