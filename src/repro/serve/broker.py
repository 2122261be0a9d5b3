"""The sqlite-brokered study queue: leases, retries, quarantine.

One broker owns one sqlite database (WAL mode — readers never block the
writer, and the file survives restarts with in-flight leases intact).
A submission names a registered experiment plus schema params and grid
axes; the broker re-expands the grid through the same
:meth:`~repro.study.study.Study.cells` product the client computes, so
cell indices mean the same thing on both ends without any pickled state
crossing the wire.

Lease state machine (per cell)::

    pending ──lease()──▶ leased ──complete(valid)──▶ done
       ▲                   │
       │   expiry / fail / invalid archive
       └──────◀────────────┘          (attempts < max_attempts)
                           └────────▶ failed   (attempts >= max_attempts)

* ``lease`` hands the oldest pending cell to a worker and charges an
  attempt; the lease carries a deadline (``now + lease_timeout``).
* ``heartbeat`` pushes the deadline out; a worker that stops beating —
  killed, wedged, partitioned — is *lost*, and its cell requeues the
  next time any call scans for expiry (lazy, no background thread: the
  same pattern as ``BrokenProcessPool``'s evict-and-retry, generalized).
  A parked ``lease`` or ``status`` (see *Waiting*) also wakes at the
  earliest live deadline, so an expired lease requeues to a parked
  worker without anyone else calling in.
* A cell that keeps failing is **quarantined**: after ``max_attempts``
  charged attempts it parks in ``failed`` with its last error, which
  surfaces as a per-cell error in the client's ``StudyResult`` instead
  of poisoning the whole sweep.
* Completion is **first commit wins**: results are deterministic, so
  the first valid archive for a cell is *the* result; a late duplicate
  (a lost worker racing its requeued cell) is acknowledged and
  discarded.  A valid archive is accepted even without a live lease —
  including for an already-quarantined cell, which it rescues.

Cache integration: give the broker a
:class:`~repro.study.cache.StudyCache` and submissions consult it per
cell — hits are born ``done`` (served straight from the entry's archive
bytes, checked by digest but neither decoded nor planned: zero leases,
zero work units) and fresh completions are stored
back, so the farm's cache warms across tenants.  A completion is stored
*before* its cell turns ``done``, so whoever sees ``done`` finds the
entry, and under the fingerprint its submission was looked up with.

Waiting: ``lease(worker, wait=S)`` and ``status(job, wait=S, done=N)``
park on one condition over the broker's lock for up to ``S`` seconds.
Every transition that could answer them — submit, complete, fail,
requeue, quarantine — notifies it, so a waiter wakes on work, not on a
timer.  :meth:`Broker.close` wakes every waiter too, and each then
raises :class:`~repro.errors.ServiceError` instead of touching the
closed database.

Concurrency: one connection guarded by one lock.  Calls are short
(sqlite work plus at most one archive validation and one cache store);
the serialization point is the queue's correctness argument, not a
bottleneck at cell-sized work units.
"""

from __future__ import annotations

import json
import math
import operator
import os
import sqlite3
import threading
import time
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from ..errors import ConfigError, ServiceError
from ..study.archive import _jsonify, parse_study
from ..study.cache import StudyCache, code_fingerprint
from ..study.registry import get_experiment
from ..study.study import Study

__all__ = ["Broker"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS studies (
    job_id  TEXT PRIMARY KEY,
    experiment TEXT NOT NULL,
    payload TEXT NOT NULL,
    n_cells INTEGER NOT NULL,
    created REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS cells (
    job_id  TEXT NOT NULL REFERENCES studies(job_id),
    cell    INTEGER NOT NULL,
    experiment TEXT NOT NULL,
    params  TEXT NOT NULL,
    overrides TEXT NOT NULL,
    units   INTEGER NOT NULL,
    state   TEXT NOT NULL,
    attempts INTEGER NOT NULL DEFAULT 0,
    from_cache INTEGER NOT NULL DEFAULT 0,
    lease_id TEXT,
    worker  TEXT,
    deadline REAL,
    error   TEXT,
    manifest TEXT,
    npz     BLOB,
    PRIMARY KEY (job_id, cell)
);
CREATE INDEX IF NOT EXISTS idx_cells_state ON cells(state);
"""


class Broker:
    """A sqlite-backed study queue with lease/heartbeat/requeue semantics.

    ``clock`` is injectable (wall-clock seconds; the default is
    ``time.time`` so deadlines survive a broker restart) and ``log`` is
    an optional ``str -> None`` sink for queue transitions — the CI
    e2e job greps it for the requeue line.
    """

    def __init__(
        self,
        db_path: str | Path,
        cache: StudyCache | None = None,
        *,
        lease_timeout: float = 60.0,
        max_attempts: int = 3,
        clock: Callable[[], float] = time.time,
        log: Callable[[str], None] | None = None,
    ) -> None:
        # Written so NaN fails too (a NaN deadline never expires), and
        # bounded by the longest wait a thread can make: the workers'
        # heartbeat waits a third of it.
        if not 0 < lease_timeout <= threading.TIMEOUT_MAX:
            raise ConfigError(
                f"lease_timeout must be > 0 and <= {threading.TIMEOUT_MAX:.0f} s, "
                f"got {lease_timeout}"
            )
        try:
            attempts = operator.index(max_attempts)
        except TypeError:
            raise ConfigError(f"max_attempts must be an integer, got {max_attempts!r}") from None
        if attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {max_attempts}")
        self.db_path = str(db_path)
        self.cache = cache
        self.lease_timeout = float(lease_timeout)
        self.max_attempts = attempts
        self._clock = clock
        self._log = log
        self._changed = threading.Condition(threading.Lock())
        self._closed = False
        #: Each job's submit-time code fingerprint, for a job with a
        #: cache and a pending cell: its completions are stored under
        #: the key its lookups used.
        self._fingerprints: dict[str, str] = {}
        self._db = sqlite3.connect(self.db_path, check_same_thread=False)
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.execute("PRAGMA busy_timeout=10000")
        self._db.executescript(_SCHEMA)
        self._db.commit()

    def close(self) -> None:
        """Close the database and wake every parked call (idempotent)."""
        with self._changed:
            if not self._closed:
                self._closed = True
                self._db.close()
                self._changed.notify_all()

    @contextmanager
    def _open(self) -> Iterator[None]:
        """Hold the lock over a database that is still open."""
        with self._changed:
            if self._closed:
                raise ServiceError("broker is closed")
            yield

    def _park_locked(self, until: float, now: float) -> bool:
        """Wait for a transition, the earliest lease deadline or the
        monotonic time ``until``; ``False`` without waiting if ``until``
        has passed.  Raises if the broker closed meanwhile."""
        remaining = until - time.monotonic()
        if remaining <= 0:
            return False
        (deadline,) = self._db.execute(
            "SELECT MIN(deadline) FROM cells WHERE state='leased'"
        ).fetchone()
        if deadline is not None:
            # Past the deadline itself: expiry is ``deadline < now``.
            remaining = min(remaining, max(deadline - now, 0.0) + 1e-3)
        self._changed.wait(remaining)
        if self._closed:
            raise ServiceError("broker closed while a request waited")
        return True

    def _emit(self, message: str) -> None:
        if self._log is not None:
            self._log(message)

    # -- submission ---------------------------------------------------------

    def submit(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Accept a serialized study; returns the job summary.

        ``payload`` is ``{"experiment": id, "params": {...},
        "axes": {...}}`` — the declarative description, validated by
        re-expanding it through the registry exactly as the client did
        (schema errors die here, before anything queues).  Cells with a
        cache hit are created ``done``; only the rest ever lease.
        """
        if not isinstance(payload, Mapping):
            raise ConfigError("submission payload must be a JSON object")
        experiment = payload.get("experiment")
        params = payload.get("params") or {}
        axes = payload.get("axes") or {}
        if not isinstance(experiment, str):
            raise ConfigError("submission needs an 'experiment' id string")
        if not isinstance(params, Mapping) or not isinstance(axes, Mapping):
            raise ConfigError("'params' and 'axes' must be JSON objects")
        for name, values in axes.items():
            if not isinstance(values, list):
                raise ConfigError(
                    f"axis {name!r} must be a JSON array of values, got {type(values).__name__}"
                )
        study = Study(experiment, **dict(params))
        if axes:
            study = study.grid(**axes)
        definition = study.definition
        fingerprint = "" if self.cache is None else code_fingerprint()
        job_id = f"{experiment}-{os.urandom(6).hex()}"
        now = self._clock()
        rows = []
        cached = 0
        units = 0
        for index, overrides in enumerate(study.cells()):
            cell_params = dict(study.params)
            cell_params.update(overrides)
            hit = (
                None
                if self.cache is None
                else self.cache.lookup_archive(definition, cell_params, fingerprint)
            )
            if hit is None:
                # Building the plan validates a miss end to end and
                # sizes it (work units = campaign length) for the
                # accounting the client reports as CacheInfo.
                cell_units = len(definition.build(cell_params).campaign)
                units += cell_units
                state, from_cache = "pending", 0
                manifest: str | None = None
                npz: bytes | None = None
            else:
                # Born done from the very bytes lookup checked; a hit
                # charges no work, so it needs no plan.
                manifest, npz = hit
                cell_units = 0
                state, from_cache = "done", 1
                cached += 1
            rows.append(
                (
                    job_id,
                    index,
                    experiment,
                    json.dumps(_jsonify(cell_params), sort_keys=True),
                    json.dumps(_jsonify(overrides), sort_keys=True),
                    cell_units,
                    state,
                    from_cache,
                    manifest,
                    npz,
                )
            )
        with self._open():
            self._db.execute(
                "INSERT INTO studies (job_id, experiment, payload, n_cells, created)"
                " VALUES (?, ?, ?, ?, ?)",
                (job_id, experiment, json.dumps(_jsonify(dict(payload))), len(rows), now),
            )
            self._db.executemany(
                "INSERT INTO cells (job_id, cell, experiment, params, overrides,"
                " units, state, from_cache, manifest, npz)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
            self._db.commit()
            if self.cache is not None and cached < len(rows):
                # Only a completion reads it, to store under the key
                # the lookups used: a job with nothing pending has none.
                self._fingerprints[job_id] = fingerprint
            self._changed.notify_all()
        self._emit(
            f"[broker] job {job_id}: submitted {experiment} "
            f"({len(rows)} cell(s), {cached} cached, {units} work units)"
        )
        return {"job_id": job_id, "cells": len(rows), "cached": cached, "units": units}

    # -- leases -------------------------------------------------------------

    def lease(self, worker: str, wait: float | None = None) -> dict[str, Any] | None:
        """Hand the oldest pending cell to ``worker``, or ``None``.

        Charges an attempt and stamps a deadline; expired leases are
        requeued first, so a single polling worker eventually drains a
        queue other workers abandoned.  With ``wait`` it parks up to
        that many seconds for a cell before answering ``None``.
        """
        until = time.monotonic() + (wait or 0.0)
        with self._open():
            while True:
                now = self._clock()
                self._requeue_expired_locked(now)
                row = self._db.execute(
                    "SELECT job_id, cell, experiment, params, attempts FROM cells"
                    " WHERE state='pending' ORDER BY rowid LIMIT 1"
                ).fetchone()
                if row is not None:
                    break
                if not self._park_locked(until, now):
                    return None
            job_id, cell, experiment, params_text, attempts = row
            lease_id = os.urandom(8).hex()
            deadline = now + self.lease_timeout
            self._db.execute(
                "UPDATE cells SET state='leased', lease_id=?, worker=?, deadline=?,"
                " attempts=attempts+1 WHERE job_id=? AND cell=?",
                (lease_id, worker, deadline, job_id, cell),
            )
            self._db.commit()
        self._emit(
            f"[broker] job {job_id} cell {cell}: leased to {worker} "
            f"(attempt {attempts + 1}/{self.max_attempts})"
        )
        return {
            "job_id": job_id,
            "cell": cell,
            "experiment": experiment,
            "params": json.loads(params_text),
            "lease_id": lease_id,
            "lease_timeout": self.lease_timeout,
        }

    def heartbeat(self, lease_id: str) -> bool:
        """Extend a live lease's deadline; ``False`` if it is gone.

        A ``False`` return tells the worker its lease was lost (expired
        and requeued, or completed by someone else) — it should stop
        working on the cell.
        """
        with self._open():
            now = self._clock()
            self._requeue_expired_locked(now)
            cursor = self._db.execute(
                "UPDATE cells SET deadline=? WHERE lease_id=? AND state='leased'",
                (now + self.lease_timeout, lease_id),
            )
            self._db.commit()
            return cursor.rowcount == 1

    def requeue_expired(self) -> int:
        """Requeue every expired lease now; returns how many moved."""
        with self._open():
            return self._requeue_expired_locked(self._clock())

    def _requeue_expired_locked(self, now: float) -> int:
        rows = self._db.execute(
            "SELECT job_id, cell, attempts, worker FROM cells"
            " WHERE state='leased' AND deadline < ?",
            (now,),
        ).fetchall()
        for job_id, cell, attempts, worker in rows:
            self._attempt_failed_locked(
                job_id,
                cell,
                attempts,
                f"lease expired (worker {worker or '?'} lost)",
            )
        return len(rows)

    def _attempt_failed_locked(self, job_id: str, cell: int, attempts: int, error: str) -> bool:
        """One charged attempt went bad: requeue or quarantine.

        Returns ``True`` if the cell requeued, ``False`` if it hit the
        attempt bound and is now quarantined with ``error``.
        """
        if attempts >= self.max_attempts:
            self._db.execute(
                "UPDATE cells SET state='failed', lease_id=NULL, deadline=NULL,"
                " error=? WHERE job_id=? AND cell=?",
                (error, job_id, cell),
            )
            self._db.commit()
            self._changed.notify_all()
            self._emit(
                f"[broker] job {job_id} cell {cell}: quarantined after "
                f"{attempts} attempt(s): {error}"
            )
            return False
        self._db.execute(
            "UPDATE cells SET state='pending', lease_id=NULL, worker=NULL,"
            " deadline=NULL, error=? WHERE job_id=? AND cell=?",
            (error, job_id, cell),
        )
        self._db.commit()
        self._changed.notify_all()
        self._emit(
            f"[broker] job {job_id} cell {cell}: requeued "
            f"(attempt {attempts}/{self.max_attempts} failed: {error})"
        )
        return True

    # -- completion ---------------------------------------------------------

    def complete(
        self,
        job_id: str,
        cell: int,
        manifest_text: str,
        npz_bytes: bytes,
        lease_id: str | None = None,
        worker: str | None = None,
    ) -> dict[str, Any]:
        """Commit one cell's result archive (first commit wins).

        The archive is fully validated (strict ``parse_study`` of the
        request's bytes plus an experiment/params match against the
        queued cell) before any state changes; an invalid archive
        charges the attempt like a worker failure.  ``lease_id`` is
        advisory — determinism means any valid result is *the* result,
        so late completions from lost leases (or even for quarantined
        cells) are accepted whenever the cell is not already done.
        """
        del lease_id  # recorded nowhere: validity, not ownership, decides
        invalid: str | None = None
        loaded = None
        try:
            loaded = parse_study(manifest_text, npz_bytes, f"{job_id} cell {cell}")
            loaded_cell = loaded.only()
        except ConfigError as exc:
            invalid = str(exc)
        with self._open():
            row = self._db.execute(
                "SELECT state, attempts, experiment, params FROM cells"
                " WHERE job_id=? AND cell=?",
                (job_id, cell),
            ).fetchone()
            if row is None:
                raise ServiceError(f"unknown cell {job_id}/{cell}")
            state, attempts, experiment, params_text = row
            if state == "done":
                self._emit(
                    f"[broker] job {job_id} cell {cell}: duplicate completion "
                    f"from {worker or '?'} discarded (first commit wins)"
                )
                return {"accepted": False, "reason": "already-complete"}
            if invalid is None:
                assert loaded is not None
                definition = get_experiment(experiment)
                if loaded.experiment_id != experiment:
                    invalid = (
                        f"archive holds experiment {loaded.experiment_id!r}, "
                        f"expected {experiment!r}"
                    )
                elif loaded_cell.params != definition.schema.resolve(json.loads(params_text)):
                    invalid = "archive params do not match the queued cell"
            if invalid is not None:
                self._attempt_failed_locked(
                    job_id, cell, attempts, f"invalid result archive: {invalid}"
                )
                return {"accepted": False, "reason": f"invalid-archive: {invalid}"}
            if self.cache is not None:
                # Stored before the commit below: whoever sees ``done``
                # finds the entry.  A failed write costs only a future
                # hit, so the cell completes anyway.
                fingerprint = self._fingerprints.get(job_id)
                if fingerprint is None:  # submitted before this broker started
                    fingerprint = self._fingerprints[job_id] = code_fingerprint()
                try:
                    self.cache.store(definition, loaded_cell.params, loaded_cell, fingerprint)
                except OSError as exc:
                    self._emit(f"[broker] job {job_id} cell {cell}: cache store failed: {exc}")
            self._db.execute(
                "UPDATE cells SET state='done', lease_id=NULL, deadline=NULL,"
                " error=NULL, worker=?, manifest=?, npz=? WHERE job_id=? AND cell=?",
                (worker, manifest_text, npz_bytes, job_id, cell),
            )
            self._db.commit()
            self._changed.notify_all()
        self._emit(f"[broker] job {job_id} cell {cell}: completed by {worker or '?'}")
        return {"accepted": True, "reason": "stored"}

    def fail(self, lease_id: str, error: str) -> dict[str, Any]:
        """A worker reports its leased cell failed; requeue or quarantine."""
        with self._open():
            row = self._db.execute(
                "SELECT job_id, cell, attempts FROM cells"
                " WHERE lease_id=? AND state='leased'",
                (lease_id,),
            ).fetchone()
            if row is None:
                return {"accepted": False, "requeued": False, "reason": "unknown-lease"}
            job_id, cell, attempts = row
            requeued = self._attempt_failed_locked(job_id, cell, attempts, error)
            return {
                "accepted": True,
                "requeued": requeued,
                "reason": "requeued" if requeued else "quarantined",
            }

    # -- status / results ---------------------------------------------------

    def status(
        self, job_id: str, wait: float | None = None, done: int | None = None
    ) -> dict[str, Any]:
        """The job's cell states (expiry-scanned first).

        ``state`` is ``running`` until no cell is pending or leased,
        then ``failed`` if any cell quarantined, else ``done``.  With
        ``wait`` it parks up to that many seconds while the job is
        running and its finished (done + failed) cell count is still
        ``done`` — the long-poll behind streamed progress.
        """
        until = time.monotonic() + (wait or 0.0)
        seen = -1 if done is None else done
        with self._open():
            while True:
                now = self._clock()
                self._requeue_expired_locked(now)
                study_row = self._db.execute(
                    "SELECT experiment, n_cells FROM studies WHERE job_id=?", (job_id,)
                ).fetchone()
                if study_row is None:
                    raise ServiceError(f"unknown job {job_id!r}")
                experiment, n_cells = study_row
                cell_rows = self._db.execute(
                    "SELECT cell, state, attempts, units, from_cache, error, worker"
                    " FROM cells WHERE job_id=? ORDER BY cell",
                    (job_id,),
                ).fetchall()
                counts: dict[str, int] = {}
                for row in cell_rows:
                    counts[row[1]] = counts.get(row[1], 0) + 1
                if counts.get("pending", 0) or counts.get("leased", 0):
                    state = "running"
                elif counts.get("failed", 0):
                    state = "failed"
                else:
                    state = "done"
                finished = counts.get("done", 0) + counts.get("failed", 0)
                if finished != seen or state != "running" or not self._park_locked(until, now):
                    break
        cells = [
            {
                "cell": cell,
                "state": cell_state,
                "attempts": attempts,
                "units": units,
                "from_cache": bool(from_cache),
                "error": error,
                "worker": worker,
            }
            for cell, cell_state, attempts, units, from_cache, error, worker in cell_rows
        ]
        return {
            "job_id": job_id,
            "experiment": experiment,
            "n_cells": n_cells,
            "state": state,
            "counts": counts,
            "cells": cells,
        }

    def result(self, job_id: str, cell: int) -> tuple[str, bytes]:
        """One done cell's ``(manifest_text, npz_bytes)`` archive."""
        with self._open():
            row = self._db.execute(
                "SELECT state, manifest, npz FROM cells WHERE job_id=? AND cell=?",
                (job_id, cell),
            ).fetchone()
        if row is None:
            raise ServiceError(f"unknown cell {job_id}/{cell}")
        state, manifest, npz = row
        if state == "done" and (manifest is None or npz is None):
            raise ServiceError(
                f"cell {job_id}/{cell} has no result (state={state}): "
                "its blobs were purged by broker gc"
            )
        if state != "done" or manifest is None or npz is None:
            raise ServiceError(f"cell {job_id}/{cell} has no result (state={state})")
        return manifest, bytes(npz)

    # -- maintenance --------------------------------------------------------

    def gc(self, keep_days: float = 7.0) -> dict[str, int]:
        """Purge result blobs of completed studies older than the cutoff.

        A study is *completed* when none of its cells are pending,
        leased, or failed — in-flight and quarantined studies keep their
        bytes so workers and post-mortems are never pulled out from
        under.  Purging NULLs the ``manifest``/``npz`` payloads but
        keeps the study and cell rows: ``status`` stays answerable
        forever, only ``result`` reports the blobs gone.  Returns
        ``{"studies", "cells", "bytes"}`` purge accounting.
        """
        if not 0 <= keep_days < math.inf:  # NaN fails too
            raise ConfigError(f"keep_days must be a finite number >= 0, got {keep_days}")
        cutoff = self._clock() - keep_days * 86400.0
        with self._open():
            rows = self._db.execute(
                "SELECT s.job_id FROM studies s WHERE s.created < ?"
                " AND NOT EXISTS (SELECT 1 FROM cells c"
                "   WHERE c.job_id = s.job_id AND c.state != 'done')"
                " ORDER BY s.created",
                (cutoff,),
            ).fetchall()
            purged_studies = 0
            purged_cells = 0
            freed = 0
            for (job_id,) in rows:
                size, count = self._db.execute(
                    "SELECT COALESCE(SUM(LENGTH(npz)), 0)"
                    " + COALESCE(SUM(LENGTH(manifest)), 0), COUNT(*)"
                    " FROM cells WHERE job_id=? AND npz IS NOT NULL",
                    (job_id,),
                ).fetchone()
                if count == 0:
                    continue  # already purged on an earlier pass
                self._db.execute(
                    "UPDATE cells SET manifest=NULL, npz=NULL WHERE job_id=?",
                    (job_id,),
                )
                self._fingerprints.pop(job_id, None)
                purged_studies += 1
                purged_cells += count
                freed += size
            self._db.commit()
            if purged_cells:
                # Reclaim the file space the NULLed blobs occupied.
                self._db.execute("VACUUM")
        if purged_studies:
            self._emit(
                f"[gc] purged {purged_cells} cell blob(s) across "
                f"{purged_studies} completed study(ies), {freed} bytes"
            )
        return {"studies": purged_studies, "cells": purged_cells, "bytes": freed}
