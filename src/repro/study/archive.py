"""Versioned, schema-checked archives for :class:`StudyResult`.

One format for everything that used to be an in-memory return value:
figures regenerated locally, benchmark records, and CI workflow
artifacts all write the same pair of files —

* ``<path>.json`` — the manifest: format tag, schema version,
  experiment id/kind, resolved params, grid axes, and every cell's
  overrides, rendered panel, raw numbers, and label list;
* ``<path>.npz`` — the dense payload: every cell's per-label batch
  columns (the ndarray fields of the batch class its spec kind names —
  ``OutcomeBatch``, ``PopulationBatch`` or ``EstimatorBatch``), stored
  uncompressed so the float64/int64 bits the workers produced are the
  bits a later session reads back.

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
* **byte-deterministic** — the npz payload's zip headers are packed
  with ``struct`` from pinned member metadata, so saving the same
  :class:`StudyResult` twice produces byte-identical files (the study
  cache's repeated-run acceptance check is a literal ``cmp``), and the
  bytes do not depend on the interpreter's ``zipfile``.

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
import struct
import sys
import zlib
from contextlib import suppress
from functools import lru_cache
from pathlib import Path
from collections.abc import Mapping, Sequence
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


# The npz container, packed and parsed with ``struct``.  The layouts are
# the zip format's; the writer's field values are the ones ``zipfile``
# emits for a ``ZipInfo`` pinned to 1980-01-01 and stored (version 2.0,
# create-system 3, external attributes ``0o600 << 16``, the UTF-8 flag
# for a non-ASCII name, zip64 fields past zipfile's limits).
_LOCAL = struct.Struct("<4s2B4HL2L2H")  # local file header
_CENTRAL = struct.Struct("<4s4B4HL2L5H2L")  # central directory entry
_END = struct.Struct("<4s4H2LH")  # end of central directory record
_END64 = struct.Struct("<4sQ2H2L4Q")  # zip64 end of central directory record
_LOCATOR = struct.Struct("<4sLQL")  # zip64 end of central directory locator
_LOCAL_SIG, _CENTRAL_SIG = b"PK\x03\x04", b"PK\x01\x02"
_END_SIG, _END64_SIG, _LOCATOR_SIG = b"PK\x05\x06", b"PK\x06\x06", b"PK\x06\x07"
_STORED, _DEFLATED = 0, 8
_VERSION, _ZIP64_VERSION, _MAX_VERSION = 20, 45, 63
_UNIX, _RW = 3, 0o600 << 16  # create-system; external attributes (rw-------)
_DOS_DATE = 1 << 5 | 1  # 1980-01-01; the DOS time field is 0 (midnight)
_UTF8_NAME = 1 << 11
_PATCHED = 1 << 5
_ENCRYPTED = 1 << 0 | 1 << 6  # traditional or strong encryption
_SATURATED = 0xFFFFFFFF  # a 32-bit field whose value lives in a zip64 field
#: zipfile's limits: a size or offset past ``_ZIP64_LIMIT``, or a member
#: count past ``_COUNT_LIMIT``, moves to a zip64 field.
_ZIP64_LIMIT = (1 << 31) - 1
_COUNT_LIMIT = (1 << 16) - 1


def _zip64_extra(*values: int) -> bytes:
    return struct.pack(f"<HH{len(values)}Q", 1, 8 * len(values), *values)


def _write_npz(arrays: Mapping[str, np.ndarray]) -> bytes:
    """Render an npz payload with byte-deterministic output.

    numpy's ``savez`` round-trips the array bits exactly, but its zip
    member metadata (timestamps) is numpy-version-dependent; packing the
    members with pinned fields makes the *file bytes* a pure function of
    the arrays, which is what lets the study cache assert "second run
    produced the identical archive" with a plain byte compare.
    Uncompressed (stored) like ``savez``: the columns are small and
    loads skip decompression.
    """
    parts: list[bytes] = []
    directory: list[bytes] = []
    offset = 0
    for key, array in arrays.items():
        name = f"{key}.npy"
        if "\0" in name:  # zipfile cuts a name at its NUL: no column reads back
            raise ConfigError(f"cannot archive column {key!r}: its name holds a NUL byte")
        try:
            filename, flags = name.encode("ascii"), 0
        except UnicodeEncodeError:
            filename, flags = name.encode("utf-8"), _UTF8_NAME
        data = _encode_npy(np.asanyarray(array))
        size, crc = len(data), zlib.crc32(data)
        # zipfile's rules: a member that may outgrow the limit gets a
        # zip64 local header; a size or offset past it moves to a zip64
        # extra in the directory; either raises the version to 4.5.
        if size * 1.05 > _ZIP64_LIMIT:
            version, local_size, extra = _ZIP64_VERSION, _SATURATED, _zip64_extra(size, size)
        else:
            version, local_size, extra = _VERSION, size, b""
        parts += (
            _LOCAL.pack(
                _LOCAL_SIG, version, 0, flags, _STORED, 0, _DOS_DATE, crc,
                local_size, local_size, len(filename), len(extra),
            ),
            filename,
            extra,
            data,
        )
        header_offset, offset = offset, offset + _LOCAL.size + len(filename) + len(extra) + size
        wide = [size, size] if size > _ZIP64_LIMIT else []
        if header_offset > _ZIP64_LIMIT:
            wide.append(header_offset)
        extra = _zip64_extra(*wide) if wide else b""
        if wide:
            version = _ZIP64_VERSION
        listed = _SATURATED if size > _ZIP64_LIMIT else size
        directory += (
            _CENTRAL.pack(
                _CENTRAL_SIG, version, _UNIX, version, 0, flags, _STORED, 0, _DOS_DATE, crc,
                listed, listed, len(filename), len(extra), 0, 0, 0, _RW,
                _SATURATED if header_offset > _ZIP64_LIMIT else header_offset,
            ),
            filename,
            extra,
        )
    central = b"".join(directory)
    count, size = len(arrays), len(central)
    tail = b""
    if count > _COUNT_LIMIT or offset > _ZIP64_LIMIT or size > _ZIP64_LIMIT:
        tail = _END64.pack(
            _END64_SIG, 44, _ZIP64_VERSION, _ZIP64_VERSION, 0, 0, count, count, size, offset
        ) + _LOCATOR.pack(_LOCATOR_SIG, 0, offset + size, 1)
        count, size, offset = min(count, 0xFFFF), min(size, _SATURATED), min(offset, _SATURATED)
    end = _END.pack(_END_SIG, 0, 0, count, count, size, offset, 0)
    return b"".join(parts) + central + tail + end


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
    _replace_all([(npz_path, npz_bytes), (json_path, manifest_text.encode("utf-8"))])
    return str(json_path), str(npz_path)


def _replace_all(files: Sequence[tuple[Path, bytes]]) -> None:
    """Write each ``(path, data)`` to a temp name beside its path, then
    commit them with ``os.replace`` in the given order: a reader (or a
    crash) sees a file only once every file before it is in place."""
    temps = [_tmp_path(path) for path, _data in files]
    try:
        for temp, (_path, data) in zip(temps, files, strict=True):
            temp.write_bytes(data)
        for temp, (path, _data) in zip(temps, files, strict=True):
            os.replace(temp, path)
    finally:
        for leftover in temps:
            with suppress(OSError):
                leftover.unlink()


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


def _directory(data: bytes) -> tuple[int, int, int]:
    """``(start, size, shift)`` of the central directory, found the way
    ``zipfile`` finds it.

    The end record is the last 22 bytes when they hold no comment, else
    the last end signature in the final 64 KiB; a zip64 locator right
    before it, and a zip64 end record right before that, supply the
    directory's size.  The directory ends where those records begin, and
    ``shift`` is how far that is from its recorded offset — zipfile
    moves every member's header offset by it.
    """
    at = len(data) - _END.size
    if at < 0 or data[at : at + 4] != _END_SIG or data[-2:] != b"\0\0":
        at = data.rfind(_END_SIG, max(at - (1 << 16), 0))
        if at < 0 or at + _END.size > len(data):
            raise ValueError("File is not a zip file")
    size, offset = _END.unpack_from(data, at)[5:7]
    start = at - size
    locator = max(at - _LOCATOR.size, 0)
    if data[locator : locator + 4] == _LOCATOR_SIG:
        _sig, disk, recorded, disks = _LOCATOR.unpack_from(data, locator)
        if disk != 0 or disks > 1:
            raise ValueError("zipfiles that span multiple disks are not supported")
        # Stricter than zipfile 3.11, which falls back to the plain end
        # record: a locator must find its record right before it (no
        # extensible data), and the record must agree with it.
        record = locator - _END64.size
        if record < 0 or data[record : record + 4] != _END64_SIG:
            raise ValueError("zip64 end of central directory record not found")
        fields = _END64.unpack_from(data, record)
        size, offset = fields[8:10]
        if fields[1] != _END64.size - 12 or offset + size != recorded:
            raise ValueError("Corrupt zip64 end of central directory record")
        start = record - size
    if start < 0:
        raise ValueError("Bad offset for central directory")
    return start, size, start - offset


def _zip64_fields(extra: bytes, size: int, packed: int, offset: int) -> tuple[int, int, int]:
    """Walk a directory entry's extra field as ``zipfile`` does: every
    record must fit, and a zip64 record (id 1) supplies, in order, each
    of size, compressed size and header offset whose 32-bit field is
    saturated."""
    while len(extra) >= 4:
        kind, length = struct.unpack_from("<HH", extra)
        if length + 4 > len(extra):
            raise ValueError(f"Corrupt extra field {kind:04x} (size={length})")
        if kind == 0x7075:
            # Python 3.12+ renames the member from it; this reader does not.
            raise ValueError("unicode path extra field (0x7075) is not supported")
        if kind == 1:
            wide, fields = extra[4 : length + 4], [size, packed, offset]
            for index, value in enumerate(fields):
                if value == _SATURATED or index == 0 and value == (1 << 64) - 1:
                    if len(wide) < 8:
                        raise ValueError("Corrupt zip64 extra field")
                    fields[index] = int.from_bytes(wide[:8], "little")
                    wide = wide[8:]
            size, packed, offset = fields
        extra = extra[length + 4 :]
    return size, packed, offset


def _name(raw: bytes, flags: int) -> str:
    """A member name as zipfile decodes it: UTF-8 when flagged, else
    cp437 (which is ASCII on ASCII bytes)."""
    if flags & _UTF8_NAME:
        return raw.decode("utf-8")
    return raw.decode("ascii" if raw.isascii() else "cp437")


def _inflate(packed: bytes, size: int, name: str) -> bytes:
    """A raw-deflate member, inflated to at most one byte past ``size``:
    the stream must end and yield exactly ``size`` bytes."""
    inflater = zlib.decompressobj(-zlib.MAX_WBITS)
    try:
        raw = inflater.decompress(packed, min(size + 1, sys.maxsize))
    except zlib.error as exc:
        raise ValueError(f"member {name!r} does not inflate: {exc}") from None
    if len(raw) != size or not inflater.eof:
        raise ValueError(f"member {name!r} does not inflate to its declared {size} bytes")
    return raw


def _read_npz(data: bytes) -> dict[str, np.ndarray]:
    """Decode an npz payload held in memory, in one pass.

    Checks everything numpy's ``load(allow_pickle=False)`` checks: the
    zip structure as ``zipfile`` reads it (end record, central
    directory, each local header and its name), each member's CRC-32,
    the ``.npy`` magic, version and header (numpy's own parser), no
    object dtypes, and a data section of exactly ``count x itemsize``
    bytes.  Members are stored or deflated; anything else — another
    method, encryption, a zip version past 6.3, a member overlapping
    the next one or outside the payload — is rejected.  Raises
    ``ValueError``; the caller names the archive.
    """
    start, size, shift = _directory(data)
    directory = data[start : start + size]
    members: list[tuple[bytes, str, int, int, int, int, int, int]] = []
    at = 0
    while at < size:
        if at + _CENTRAL.size > size:
            raise ValueError("Truncated central directory")
        (sig, _made_by, _system, version, _reserved, flags, method, _time, _date, crc,
         packed, unpacked, name_length, extra_length, comment_length, _disk, _internal,
         _external, offset) = _CENTRAL.unpack_from(directory, at)
        if sig != _CENTRAL_SIG:
            raise ValueError("Bad magic number for central directory")
        at += _CENTRAL.size
        raw_name = directory[at : at + name_length]
        path = _name(raw_name, flags)
        if version > _MAX_VERSION:
            raise ValueError(f"member {path!r} needs zip version {version / 10:.1f}")
        extra = directory[at + name_length : at + name_length + extra_length]
        if extra:
            unpacked, packed, offset = _zip64_fields(extra, unpacked, packed, offset)
        at += name_length + extra_length + comment_length
        members.append((raw_name, path, flags, method, crc, packed, unpacked, offset + shift))
    # zipfile's overlap rule: a member's data ends by the next header (in
    # offset order) or, for the last one, by the directory.  In a payload
    # that reads, every such bound lies inside it.
    ends: dict[int, int] = {}
    end = start
    for index in sorted(range(len(members)), key=lambda i: members[i][7], reverse=True):
        ends[index], end = end, members[index][7]
    arrays: dict[str, np.ndarray] = {}
    for index, (raw_name, path, flags, method, crc, packed, unpacked, offset) in enumerate(
        members
    ):
        name = path.partition("\0")[0]  # zipfile's member name stops at a NUL
        if not name.endswith(".npy"):
            raise ValueError(f"member {name!r} is not a .npy array")
        key = name[: -len(".npy")]
        if key in arrays:
            raise ValueError(f"duplicate member {name!r}")
        if offset < 0 or offset + _LOCAL.size > len(data):
            raise ValueError(f"member {name!r}: header offset {offset} is outside the payload")
        (sig, _version, _reserved, local_flags, _method, _time, _date, _crc, _packed,
         _unpacked, name_length, extra_length) = _LOCAL.unpack_from(data, offset)
        if sig != _LOCAL_SIG:
            raise ValueError(f"member {name!r}: bad magic number for file header")
        if flags & _PATCHED:
            raise ValueError(f"member {name!r} holds compressed patched data")
        if flags & _ENCRYPTED:
            raise ValueError(f"member {name!r} is encrypted")
        if method not in (_STORED, _DEFLATED):
            raise ValueError(f"member {name!r} uses unsupported compression method {method}")
        begin = offset + _LOCAL.size
        local_name = data[begin : begin + name_length]
        if (local_name != raw_name or (local_flags ^ flags) & _UTF8_NAME) and _name(
            local_name, local_flags
        ) != path:
            raise ValueError(f"member {name!r}: file name in directory and header differ")
        begin += name_length + extra_length
        if begin + packed > ends[index]:
            raise ValueError(f"member {name!r} overlaps the next entry")
        # zipfile reads a stored member up to the smaller of its sizes
        # (a CRC over a short read fails).
        raw = data[begin : begin + (min(packed, unpacked) if method == _STORED else packed)]
        if method == _DEFLATED:
            raw = _inflate(raw, unpacked, name)
        if zlib.crc32(raw) != crc:
            raise ValueError(f"Bad CRC-32 for file {name!r}")
        arrays[key] = _decode_npy(raw)
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
    except ValueError as exc:
        raise ConfigError(
            f"study archive {name}: payload is not a readable npz archive "
            f"(truncated or corrupt): {exc}"
        ) from None
    if sorted(arrays) != sorted(manifest["columns"]):
        raise ConfigError(
            f"study archive {name}: npz columns do not match the manifest"
        )
    _check_column_meta(manifest["column_meta"], arrays, name)
    # Keys are ``cell::label::column``: one pass groups them by cell.
    by_cell: dict[str, list[tuple[str, np.ndarray]]] = {}
    for key, column in arrays.items():
        index_text, sep, rest = key.partition(_KEY_SEP)
        if sep:
            by_cell.setdefault(index_text, []).append((rest, column))
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
        for rest, column in by_cell.get(str(index), ()):
            label, _sep, column_name = rest.rpartition(_KEY_SEP)
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
