"""Content-addressed study cache: resumable, incremental grids.

Every grid cell's :class:`~repro.study.study.StudyCell` is a pure
function of (experiment id, schema-coerced params, archive schema, and
the code that computes it) — PR 5's versioned archives made the result
bit-exact and serializable, so cell results are cacheable *by
construction*.  This module keys each cell by a content hash of exactly
those inputs and stores the cell as a normal single-cell study
archive (the :func:`~repro.study.archive.dump_study` pair) plus a small
meta manifest:

    <root>/entries/<key>.json        one-cell StudyResult manifest
    <root>/entries/<key>.npz         dense batch columns (bit-exact)
    <root>/entries/<key>.meta.json   cache-level manifest (key, params,
                                     fingerprint, digest of the pair,
                                     creation time)
    <root>/quarantine/...            corrupt entries, moved aside

:meth:`Study.run(cache=DIR) <repro.study.study.Study.run>` (or the
``REPRO_CACHE`` env / CLI ``--cache``/``--resume DIR``) consults the
cache per cell: hits are rebuilt from their archives and merged
bit-identically into the :class:`StudyResult`; only misses are
submitted to the execution engine.  The study service serves a hit's
archive bytes as they are, without decoding them.  A repeated sweep
submits zero work units; a widened or interrupted one submits only the
delta cells.

Invalidation policy (strict, in the key — nothing is ever "updated in
place"):

* **params** — the full schema-resolved dict, canonically JSON-ified,
  so ``chunks="64KB"`` and ``chunks=65536`` share an entry and any
  actual value change (including the root ``seed``) is a new key;
* **code fingerprint** — a digest over every ``.py`` source in the
  ``repro`` package (:func:`code_fingerprint`).  Deliberately coarse:
  an edit anywhere in the package invalidates every entry, which
  trades redundant recomputation for a guarantee that a cache hit can
  never serve results a code change would have altered (the contex
  embedding-cache policy: strict invalidation beats clever dependency
  tracking that can be wrong);
* **archive schema + cache layout versions** — a format bump is a
  cold cache, never a migration.

A hit is checked, not decoded: the meta manifest must name the key it
was looked up under, and a blake2b digest of the archive bytes just
read must equal the one ``store`` recorded.  Corrupt entries (torn by a
pre-atomic writer, truncated by a full disk, hand-edited, renamed or
swapped) fail that check and are *quarantined* — moved into
``<root>/quarantine/`` and treated as a miss — so one bad file costs
one recompute, not a crashed sweep.  ``repro cache {ls,gc,verify}``
expose the same machinery from the command line.

Concurrency: entries are written atomically (temp + ``os.replace``;
payload, manifest, then the meta file last) and keys are
content-addressed, so concurrent ``Study.run`` calls against one cache
directory race only toward writing identical bytes — last writer wins
and every reader sees a complete entry or none.
"""

from __future__ import annotations

import json
import math
import operator
import os
import time
from contextlib import suppress
from dataclasses import dataclass
from hashlib import blake2b
from pathlib import Path
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any

from ..errors import ConfigError
from .archive import SCHEMA_VERSION, _jsonify, _replace_all, dump_study, parse_study, read_study
from .registry import ExperimentDef, get_experiment

if TYPE_CHECKING:  # import cycle: study.py imports this module lazily
    from .study import StudyCell, StudyResult

__all__ = [
    "CACHE_FORMAT",
    "CACHE_VERSION",
    "CacheEntry",
    "CacheInfo",
    "StudyCache",
    "code_fingerprint",
    "resolve_cache",
    "single_cell_study",
]

#: Meta-manifest format tag — rejects foreign JSON handed to the cache.
CACHE_FORMAT = "repro-study-cache"

#: Bump on incompatible cache layout/key changes; old entries then
#: simply never hit (their keys embed the old version) and ``gc``
#: collects them.  v2 added the meta manifest's ``digest``.
CACHE_VERSION = 2

_META_SUFFIX = ".meta.json"


# ---------------------------------------------------------------------------
# Code fingerprint
# ---------------------------------------------------------------------------

#: Memo per package root: (stat signature, digest).  The signature is
#: every source file's (relpath, mtime_ns, size), so an edit — the
#: monkeypatched-module test does exactly this — invalidates the memo
#: without re-hashing on every cell lookup of a sweep.
_FINGERPRINT_MEMO: dict[str, tuple[tuple[tuple[str, int, int], ...], str]] = {}


def _package_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def code_fingerprint(root: str | Path | None = None) -> str:
    """Digest of every ``.py`` source under ``root`` (default: the
    installed ``repro`` package).

    The "modules backing the ExperimentDef" are, transitively, most of
    the package (registry definitions build campaigns over sim/, net/,
    core/, cdn/ …), so the fingerprint covers the whole package rather
    than chasing an import graph that could silently under-approximate.
    Hashing is over (relative path, file bytes) pairs in sorted order —
    independent of mtimes, so a fresh checkout of identical code shares
    the cache.
    """
    base = Path(root) if root is not None else _package_root()
    files = sorted(path for path in base.rglob("*.py"))
    stats = [path.stat() for path in files]
    signature = tuple(
        (path.relative_to(base).as_posix(), stat.st_mtime_ns, stat.st_size)
        for path, stat in zip(files, stats, strict=True)
    )
    memo = _FINGERPRINT_MEMO.get(str(base))
    if memo is not None and memo[0] == signature:
        return memo[1]
    digest = blake2b(digest_size=20)
    for path in files:
        digest.update(path.relative_to(base).as_posix().encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    fingerprint = digest.hexdigest()
    _FINGERPRINT_MEMO[str(base)] = (signature, fingerprint)
    return fingerprint


def _entry_digest(manifest_bytes: bytes, npz_bytes: bytes) -> str:
    """The blake2b digest a cache entry's meta records of its archive
    pair.  Each part is prefixed with its length, so moving bytes
    across the manifest/payload boundary changes the digest too."""
    digest = blake2b(digest_size=32)
    for part in (manifest_bytes, npz_bytes):
        digest.update(len(part).to_bytes(8, "big"))
        digest.update(part)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Run accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CacheInfo:
    """One ``Study.run``'s cache accounting (``StudyResult.cache_info``)."""

    hits: int
    misses: int
    #: Engine work units actually submitted (0 on a fully-cached rerun).
    submitted_units: int


@dataclass(frozen=True)
class CacheEntry:
    """One cache entry as seen by ``ls``/``gc``/``verify``."""

    key: str
    json_path: Path
    npz_path: Path
    meta_path: Path
    meta: dict[str, Any]

    def size_bytes(self) -> int:
        total = 0
        for path in (self.json_path, self.npz_path, self.meta_path):
            if path.exists():
                total += path.stat().st_size
        return total

    def complete(self) -> bool:
        return all(
            path.exists() for path in (self.json_path, self.npz_path, self.meta_path)
        )


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------


def single_cell_study(
    definition: ExperimentDef, params: Mapping[str, Any], cell: "StudyCell"
) -> "StudyResult":
    """``cell`` as a gridless one-cell study: the canonical form of a
    cache entry and of a cell on the service wire (index 0, no
    overrides, no axes), so equal cells archive to equal bytes."""
    from .study import StudyCell, StudyResult

    return StudyResult(
        experiment_id=definition.experiment_id,
        kind=definition.kind,
        params=dict(params),
        axes={},
        cells=[
            StudyCell(
                index=0,
                overrides={},
                params=dict(params),
                result=cell.result,
                columns=cell.columns,
            )
        ],
    )


class StudyCache:
    """A content-addressed store of single-cell study archives."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    @property
    def entries_dir(self) -> Path:
        return self.root / "entries"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StudyCache({str(self.root)!r})"

    # -- keying -------------------------------------------------------------

    def cell_key(
        self,
        definition: ExperimentDef,
        params: Mapping[str, Any],
        fingerprint: str | None = None,
    ) -> str:
        """The content hash addressing one cell's archive.

        ``params`` must already be schema-resolved (``Study`` always
        passes the full resolved dict, root seed included), so
        equivalent spellings of a value collapse to one key.
        """
        if fingerprint is None:
            fingerprint = code_fingerprint()
        payload = {
            "format": CACHE_FORMAT,
            "cache_version": CACHE_VERSION,
            "archive_schema": SCHEMA_VERSION,
            "experiment": definition.experiment_id,
            "kind": definition.kind,
            "params": _jsonify(dict(params)),
            "fingerprint": fingerprint,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return blake2b(canonical.encode(), digest_size=20).hexdigest()

    def _entry_paths(self, key: str) -> tuple[Path, Path, Path]:
        base = self.entries_dir / key
        return (
            Path(f"{base}.json"),
            Path(f"{base}.npz"),
            Path(f"{base}{_META_SUFFIX}"),
        )

    # -- lookup / store -----------------------------------------------------

    def lookup(
        self,
        definition: ExperimentDef,
        params: Mapping[str, Any],
        fingerprint: str | None = None,
    ) -> "StudyCell | None":
        """The cached cell for (definition, params), or ``None``.

        A present-but-bad entry (truncated, flipped, swapped or renamed
        files, an archive that does not decode) is quarantined and
        reported as a miss — the cache never raises on a bad entry and
        never serves one either.
        """
        key = self.cell_key(definition, params, fingerprint)
        pair = self._read_entry(key)
        if pair is None:
            return None
        json_path, _npz_path, _meta_path = self._entry_paths(key)
        try:
            return parse_study(*pair, str(json_path)).only()
        except ConfigError:
            self._quarantine(key)
            return None

    def lookup_archive(
        self,
        definition: ExperimentDef,
        params: Mapping[str, Any],
        fingerprint: str | None = None,
    ) -> tuple[str, bytes] | None:
        """The cached cell's archive pair ``(manifest_text, npz_bytes)``,
        checked but not decoded, or ``None``.

        Each entry file is read once.  The pair is served only if the
        meta manifest names this key and its digest matches the bytes
        read, i.e. they are the bytes :meth:`store` rendered for this
        cell.  The study service serves hits from it (the entry is the
        wire format) — never from a second read of a file that may have
        changed.
        """
        return self._read_entry(self.cell_key(definition, params, fingerprint))

    def _read_entry(self, key: str) -> tuple[str, bytes] | None:
        """:meth:`lookup_archive` by key: a miss if the meta manifest is
        absent, the pair if it checks out, else quarantine and a miss."""
        json_path, npz_path, meta_path = self._entry_paths(key)
        try:
            meta_bytes = meta_path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            manifest_bytes = json_path.read_bytes()
            npz_bytes = npz_path.read_bytes()
            meta = json.loads(meta_bytes)
            if (
                isinstance(meta, dict)
                and meta.get("key") == key
                and meta.get("digest") == _entry_digest(manifest_bytes, npz_bytes)
            ):
                return manifest_bytes.decode("utf-8"), npz_bytes
        except (OSError, ValueError):  # ValueError: bad JSON or UTF-8
            pass
        self._quarantine(key)
        return None

    def store(
        self,
        definition: ExperimentDef,
        params: Mapping[str, Any],
        cell: "StudyCell",
        fingerprint: str | None = None,
    ) -> str:
        """Archive one finished cell under its content key; returns it.

        The archive pair is rendered once; its digest goes into the meta
        manifest, and the three files are committed atomically, meta
        last (temp + replace), so a complete meta file implies a
        complete entry — readers and ``gc`` treat anything else as
        incomplete.
        """
        if fingerprint is None:
            fingerprint = code_fingerprint()
        key = self.cell_key(definition, params, fingerprint)
        json_path, npz_path, meta_path = self._entry_paths(key)
        manifest_text, npz_bytes = dump_study(single_cell_study(definition, params, cell))
        manifest_bytes = manifest_text.encode("utf-8")
        meta = {
            "format": CACHE_FORMAT,
            "cache_version": CACHE_VERSION,
            "archive_schema": SCHEMA_VERSION,
            "key": key,
            "experiment": definition.experiment_id,
            "kind": definition.kind,
            "params": _jsonify(dict(params)),
            "fingerprint": fingerprint,
            "digest": _entry_digest(manifest_bytes, npz_bytes),
            "created_unix": int(time.time()),
        }
        self.entries_dir.mkdir(parents=True, exist_ok=True)
        _replace_all(
            [
                (npz_path, npz_bytes),
                (json_path, manifest_bytes),
                (meta_path, (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode()),
            ]
        )
        return key

    def _quarantine(self, key: str) -> None:
        """Move a bad entry's files aside so it costs one recompute."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        for path in self._entry_paths(key):
            # Another reader may be moving the same entry.
            with suppress(FileNotFoundError):
                os.replace(path, self.quarantine_dir / path.name)

    # -- maintenance (repro cache {ls,gc,verify}) ---------------------------

    def entries(self) -> list[CacheEntry]:
        """Every entry with a meta manifest, sorted by key.

        Unreadable meta files surface with ``{"error": ...}`` so ``ls``
        shows them instead of hiding what ``gc`` would collect.
        """
        found = []
        if not self.entries_dir.is_dir():
            return []
        for meta_path in sorted(self.entries_dir.glob(f"*{_META_SUFFIX}")):
            key = meta_path.name[: -len(_META_SUFFIX)]
            json_path, npz_path, meta_path = self._entry_paths(key)
            try:
                meta = json.loads(meta_path.read_text())
                if not isinstance(meta, dict):
                    meta = {"error": "meta manifest is not an object"}
            except (OSError, json.JSONDecodeError) as exc:
                meta = {"error": str(exc)}
            found.append(
                CacheEntry(
                    key=key,
                    json_path=json_path,
                    npz_path=npz_path,
                    meta_path=meta_path,
                    meta=meta,
                )
            )
        return found

    def manifest(self) -> dict[str, Any]:
        """A JSON-safe summary of the whole cache (``cache ls --json``)."""
        entries = self.entries()
        return {
            "format": CACHE_FORMAT,
            "cache_version": CACHE_VERSION,
            "root": str(self.root),
            "fingerprint": code_fingerprint(),
            "entries": [
                {
                    **entry.meta,
                    "key": entry.key,
                    "size_bytes": entry.size_bytes(),
                    "complete": entry.complete(),
                }
                for entry in entries
            ],
        }

    def verify(self) -> tuple[list[str], list[tuple[str, str]]]:
        """Fully load, re-key and re-digest every entry; returns (ok,
        bad) keys.

        ``bad`` carries (key, reason) pairs: unreadable archives,
        incomplete entries, entries whose recomputed content key (from
        the meta manifest's own params + fingerprint) does not match
        their filename — i.e. a hand-renamed or cross-copied entry that
        lookup would never have produced — and entries whose archive
        bytes no longer match the meta manifest's digest (a flip that
        still decodes).
        """
        ok: list[str] = []
        bad: list[tuple[str, str]] = []
        for entry in self.entries():
            if "error" in entry.meta and "format" not in entry.meta:
                bad.append((entry.key, f"unreadable meta: {entry.meta['error']}"))
                continue
            if not entry.complete():
                bad.append((entry.key, "incomplete entry (missing archive file)"))
                continue
            try:
                loaded, manifest_text, npz_bytes = read_study(entry.json_path)
                cell = loaded.only()
                definition = get_experiment(str(entry.meta.get("experiment")))
                resolved = definition.schema.resolve(entry.meta.get("params", {}))
                if cell.params != resolved:
                    raise ConfigError("archived params do not match the meta manifest")
                expected = self.cell_key(
                    definition, resolved, str(entry.meta.get("fingerprint"))
                )
                current = (
                    entry.meta.get("cache_version") == CACHE_VERSION
                    and entry.meta.get("archive_schema") == SCHEMA_VERSION
                )
                if current and expected != entry.key:
                    raise ConfigError(
                        f"content key mismatch (expected {expected})"
                    )
                if current and entry.meta.get("key") != entry.key:
                    raise ConfigError(
                        f"meta key mismatch (names {entry.meta.get('key')!r})"
                    )
                if current and entry.meta.get("digest") != _entry_digest(
                    manifest_text.encode("utf-8"), npz_bytes
                ):
                    raise ConfigError("archive bytes do not match the meta digest")
            except ConfigError as exc:
                bad.append((entry.key, str(exc)))
                continue
            ok.append(entry.key)
        return ok, bad

    def gc(
        self,
        everything: bool = False,
        max_bytes: int | None = None,
        max_age_days: float | None = None,
        now: float | None = None,
    ) -> tuple[int, int]:
        """Collect garbage; returns (entries removed, bytes freed).

        Always removes: quarantined files, leftover temp files,
        incomplete entries, entries from other cache/archive versions,
        and entries whose fingerprint no longer matches the current code
        (``everything=True`` drops every entry instead).

        Retention bounds tighten that further over the *surviving*
        (valid, current-code) entries:

        * ``max_age_days`` evicts entries whose meta ``created_unix``
          is older than the cutoff;
        * ``max_bytes`` then evicts oldest-first (by ``created_unix``,
          key as tiebreak for determinism) until the survivors' total
          size fits the budget.

        ``now`` overrides the wall clock (tests).
        """
        if max_age_days is not None and not 0 <= max_age_days < math.inf:  # NaN fails too
            raise ConfigError(
                f"max_age_days must be a finite number >= 0, got {max_age_days}"
            )
        if max_bytes is not None:
            try:
                max_bytes = operator.index(max_bytes)
            except TypeError:
                raise ConfigError(
                    f"max_bytes must be an integer, got {max_bytes!r}"
                ) from None
            if max_bytes < 0:
                raise ConfigError(f"max_bytes must be >= 0, got {max_bytes}")
        removed = 0
        freed = 0
        current = code_fingerprint()
        if now is None:
            now = time.time()

        def _unlink(path: Path) -> None:
            nonlocal freed
            if path.exists():
                freed += path.stat().st_size
                path.unlink()

        def _drop(entry: CacheEntry) -> None:
            nonlocal removed
            removed += 1
            for path in (entry.json_path, entry.npz_path, entry.meta_path):
                _unlink(path)

        if self.quarantine_dir.is_dir():
            for path in sorted(self.quarantine_dir.iterdir()):
                _unlink(path)
            self.quarantine_dir.rmdir()
        if self.entries_dir.is_dir():
            for path in sorted(self.entries_dir.glob("*.tmp-*")):
                _unlink(path)
        survivors: list[CacheEntry] = []
        for entry in self.entries():
            stale = (
                everything
                or not entry.complete()
                or "format" not in entry.meta
                or entry.meta.get("cache_version") != CACHE_VERSION
                or entry.meta.get("archive_schema") != SCHEMA_VERSION
                or entry.meta.get("fingerprint") != current
            )
            if stale:
                _drop(entry)
            else:
                survivors.append(entry)

        def _created(entry: CacheEntry) -> float:
            created = entry.meta.get("created_unix")
            # An unparseable timestamp sorts oldest, so a mangled meta
            # is first out the door under either bound.
            return float(created) if isinstance(created, (int, float)) else 0.0

        if max_age_days is not None:
            cutoff = now - max_age_days * 86400.0
            kept: list[CacheEntry] = []
            for entry in survivors:
                if _created(entry) < cutoff:
                    _drop(entry)
                else:
                    kept.append(entry)
            survivors = kept

        if max_bytes is not None:
            sized = [(entry, entry.size_bytes()) for entry in survivors]
            total = sum(size for _entry, size in sized)
            # Oldest first; content keys break created_unix ties so two
            # runs of the same gc evict the same entries.
            sized.sort(key=lambda pair: (_created(pair[0]), pair[0].key))
            for entry, size in sized:
                if total <= max_bytes:
                    break
                _drop(entry)
                total -= size
        return removed, freed


def resolve_cache(
    cache: str | Path | StudyCache | None = None,
) -> StudyCache | None:
    """Turn a ``--cache``/``REPRO_CACHE``-style value into a cache.

    ``None`` consults ``REPRO_CACHE``; an unset/empty variable means no
    caching (today's behavior).  A :class:`StudyCache` passes through.
    """
    if cache is None:
        env = os.environ.get("REPRO_CACHE", "").strip()
        if not env:
            return None
        cache = env
    if isinstance(cache, StudyCache):
        return cache
    return StudyCache(cache)
