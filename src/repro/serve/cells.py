"""Cell-level execution and archive transport for the study service.

The service's unit of work is one grid cell, and its wire format for a
finished cell is the single-cell study archive pair ``(manifest_text,
npz_bytes)`` of :func:`~repro.study.archive.dump_study` — exactly the
bytes the content-addressed cache (:mod:`repro.study.cache`) stores.
That choice is what buys the byte-identity guarantee for free: the
codec is deterministic (pinned zip metadata, canonical JSON), and the
cache tests already pin that a cell rebuilt from such an archive is
bit-identical to a freshly computed one.  The broker, the workers, and
the client all speak this format; nothing else crosses the wire, and
nothing touches the file system on the way: workers encode with
:func:`cell_archive`, the broker and the client check and decode with
:func:`~repro.study.archive.parse_study`.

On the wire the pair travels as one raw frame (:func:`pack_frame`,
checked by :func:`unpack_frame`)::

    u32 big-endian manifest length | manifest UTF-8 | npz bytes

— the exact bytes, with no text encoding to inflate or to decode.
"""

from __future__ import annotations

import struct
from typing import Any

from ..errors import ConfigError
from ..sim.campaign import run_together
from ..study.archive import dump_study
from ..study.cache import single_cell_study
from ..study.registry import get_experiment
from ..study.study import StudyCell, _batch_columns

__all__ = ["cell_archive", "execute_cell", "pack_frame", "unpack_frame"]

_LENGTH = struct.Struct(">I")


def execute_cell(experiment_id: str, params: dict[str, Any], engine: Any = None) -> StudyCell:
    """Run one grid cell exactly as ``Study.run`` would.

    ``params`` is the cell's full param dict (any JSON-roundtripped
    spelling; the schema re-coerces), ``engine`` the worker's local
    execution backend (``None`` lets ``run_together`` resolve one, i.e.
    ``REPRO_JOBS`` semantics).  Determinism makes the engine choice
    irrelevant to the bytes produced.
    """
    definition = get_experiment(experiment_id)
    resolved = definition.schema.resolve(dict(params))
    plan = definition.build(resolved)
    results = run_together([plan.campaign], engine)[0]
    assert results is not None  # nothing was skipped
    return StudyCell(
        index=0,
        overrides={},
        params=resolved,
        result=plan.render(results),
        columns=_batch_columns(results),
    )


def cell_archive(experiment_id: str, cell: StudyCell) -> tuple[str, bytes]:
    """Serialize one finished cell to ``(manifest_text, npz_bytes)``.

    The pair is a complete single-cell study archive — the same bytes
    ``StudyCache.store`` would put on disk for this cell, rendered in
    memory by the same deterministic ``dump_study`` codec.  The
    receiving side checks and decodes it with
    :func:`~repro.study.archive.parse_study`.
    """
    return dump_study(single_cell_study(get_experiment(experiment_id), cell.params, cell))



def pack_frame(manifest_text: str, npz_bytes: bytes) -> bytes:
    """One cell archive as a wire frame: the manifest's length, the
    manifest, the npz payload."""
    manifest = manifest_text.encode()
    return _LENGTH.pack(len(manifest)) + manifest + npz_bytes


def unpack_frame(frame: bytes) -> tuple[str, bytes]:
    """``(manifest_text, npz_bytes)`` from a :func:`pack_frame` frame;
    a frame whose prefix or manifest does not check out raises
    :class:`~repro.errors.ConfigError`.  The payload itself is
    :func:`~repro.study.archive.parse_study`'s to check."""
    if len(frame) < _LENGTH.size:
        raise ConfigError(f"archive frame of {len(frame)} byte(s) has no length prefix")
    (length,) = _LENGTH.unpack_from(frame)
    end = _LENGTH.size + length
    if end > len(frame):
        raise ConfigError(
            f"archive frame's manifest length {length} runs past its {len(frame)} byte(s)"
        )
    try:
        manifest_text = frame[_LENGTH.size : end].decode()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"archive frame's manifest is not UTF-8: {exc}") from None
    return manifest_text, frame[end:]
