"""The npz reader ``repro.study.archive`` used before its ``struct`` parser.

Kept verbatim as the oracle the new reader is fuzzed against
(``tests/test_study_codec.py::TestReaderAgainstZipfile``): the zip
container is read by the interpreter's ``zipfile``, each member by the
archive's own ``_decode_npy``.  Raises whatever ``zipfile`` raises.
"""

import io
import zipfile

import numpy as np

from repro.study.archive import _decode_npy


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
