"""The pull worker: lease, execute, heartbeat, post back.

``repro worker URL`` runs this loop against a broker.  Workers are
stateless and interchangeable — determinism means any worker's result
for a cell is *the* result — so a fleet scales by just starting more of
them, and losing one costs at most a lease timeout (the broker requeues
the cell; see :mod:`repro.serve.broker`).

Per leased cell the worker:

1. starts a daemon heartbeat thread at a third of the lease timeout, so
   a long cell stays leased while a dead worker's lease expires in one
   timeout;
2. executes the cell with its *local* engine (``--jobs`` semantics —
   a beefy worker can parallelize within a cell) via
   :func:`~repro.serve.cells.execute_cell`;
3. posts the deterministic archive back with ``complete`` — or reports
   ``fail`` with the error, letting the broker decide between requeue
   and quarantine.

An idle worker does not sleep: each lease request parks at the broker
for up to ``poll`` seconds and returns the moment a cell is submitted
or requeued, so ``poll`` bounds only how long the worker takes to
notice its ``stop`` switch.

Broker unreachability is survivable by design: the loop logs once and
retries every ``poll`` seconds, so workers ride out a broker restart
(whose sqlite queue also survives, leases included).
"""

from __future__ import annotations

import os
import socket
import threading
from contextlib import suppress
from collections.abc import Callable
from typing import Any

from ..errors import ConfigError, ServiceError
from ..sim.execution import resolve_engine
from .cells import cell_archive, execute_cell
from .client import BrokerClient

__all__ = ["default_worker_id", "run_worker"]


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class _Heartbeat(threading.Thread):
    """Extends one lease until stopped; flags a lost lease instead of
    crashing (transient broker unreachability is ignored — the final
    ``complete`` decides)."""

    def __init__(self, client: Any, lease_id: str, interval: float) -> None:
        super().__init__(daemon=True, name=f"heartbeat-{lease_id[:8]}")
        self._client = client
        self._lease_id = lease_id
        self._interval = interval
        self._stopped = threading.Event()
        self.lost = False

    def run(self) -> None:
        try:
            while not self._stopped.wait(self._interval):
                with suppress(ServiceError):
                    if not self._client.heartbeat(self._lease_id):
                        self.lost = True
                        return
        finally:
            # This thread's own connection to the broker ends with it.
            if isinstance(self._client, BrokerClient):
                self._client.release()

    def stop(self) -> None:
        self._stopped.set()
        self.join(timeout=5.0)


def run_worker(
    broker: Any,
    *,
    jobs: int | str | None = None,
    poll: float = 0.1,
    max_cells: int | None = None,
    once: bool = False,
    worker_id: str | None = None,
    stop: threading.Event | None = None,
    log: Callable[[str], None] | None = None,
) -> int:
    """Pull and execute cells until stopped; returns cells processed.

    ``broker`` is a URL, a :class:`~repro.serve.client.BrokerClient`,
    or a :class:`~repro.serve.broker.Broker` (the surfaces match).
    ``poll`` is how long an idle lease request parks at the broker;
    ``once`` parks not at all and exits at the first empty answer
    (drain-and-quit semantics); ``max_cells`` bounds the leases taken;
    ``stop`` is an external kill switch the loop checks between
    requests.  After a *failed* request the worker backs off ``poll``
    seconds.  Failed cells count as processed — the broker owns retry
    policy, not the worker.
    """
    # Written so NaN fails too: a NaN, negative or zero poll would
    # retry every failed request at once, and one past the longest wait
    # a thread can make crashes ``stop.wait``.
    if not 0 < poll <= threading.TIMEOUT_MAX:
        raise ConfigError(
            f"poll must be > 0 and <= {threading.TIMEOUT_MAX:.0f} s, got {poll}"
        )
    client = BrokerClient(broker) if isinstance(broker, str) else broker
    name = worker_id or default_worker_id()
    engine = resolve_engine(jobs)
    stop = stop or threading.Event()

    def _emit(message: str) -> None:
        if log is not None:
            log(message)

    unreachable = False
    processed = 0
    try:
        while not stop.is_set():
            if max_cells is not None and processed >= max_cells:
                break
            try:
                lease = client.lease(name, wait=0.0 if once else poll)
            except ServiceError as exc:
                if once:
                    raise
                if not unreachable:
                    _emit(f"[worker {name}] broker unreachable, retrying: {exc}")
                    unreachable = True
                stop.wait(poll)
                continue
            if unreachable:
                _emit(f"[worker {name}] broker reachable again")
                unreachable = False
            if lease is None:
                if once:
                    break
                continue
            job_id, cell = lease["job_id"], lease["cell"]
            _emit(f"[worker {name}] leased job {job_id} cell {cell}")
            beat = _Heartbeat(
                client,
                lease["lease_id"],
                max(0.05, float(lease.get("lease_timeout", 60.0)) / 3.0),
            )
            beat.start()
            try:
                result = execute_cell(lease["experiment"], lease["params"], engine=engine)
                manifest_text, npz_bytes = cell_archive(lease["experiment"], result)
            except Exception as exc:  # a cell failure must not kill the worker
                beat.stop()
                error = f"{type(exc).__name__}: {exc}"
                _emit(f"[worker {name}] job {job_id} cell {cell} failed: {error}")
                with suppress(ServiceError):
                    client.fail(lease["lease_id"], error)
                processed += 1
                continue
            beat.stop()
            try:
                response = client.complete(
                    job_id,
                    cell,
                    manifest_text,
                    npz_bytes,
                    lease_id=lease["lease_id"],
                    worker=name,
                )
            except ServiceError as exc:
                _emit(f"[worker {name}] job {job_id} cell {cell} commit failed: {exc}")
                processed += 1
                continue
            verdict = (
                "completed" if response.get("accepted") else f"discarded ({response.get('reason')})"
            )
            _emit(f"[worker {name}] job {job_id} cell {cell} {verdict}")
            processed += 1
    finally:
        if client is not broker:  # a client made here is closed here
            client.close()
    return processed
