"""``ServiceEngine``: the distributed third backend for ``Study.run``.

``Study.run(jobs="service")`` (or ``--backend service --broker URL``,
or ``REPRO_JOBS=service`` + ``REPRO_BROKER``) resolves to this engine.
Instead of collecting work specs locally it ships the *declarative* study
to a broker, streams progress while the worker fleet executes (each
status request long-polls, parked in the broker until a cell finishes,
so progress arrives as it happens and nothing sleeps between requests),
and reassembles an ordinary :class:`~repro.study.study.StudyResult` from
the per-cell archives — byte-identical to a serial in-process run,
because the archives themselves are (see :mod:`repro.serve.cells`).

Quarantined cells come back as per-cell errors
(:attr:`StudyCell.error` / :attr:`StudyResult.errors`) rather than an
exception, so one poisoned cell does not cost a 999-cell sweep its
results.  Broker-side cache accounting lands in
``StudyResult.cache_info`` exactly like a local ``--cache`` run: a
fully cached resubmission reports zero submitted work units.
"""

from __future__ import annotations

import os
import sys
import time
from collections.abc import Callable, Sequence
from typing import Any, NoReturn

from ..errors import ConfigError, ServiceError
from ..study.archive import parse_study
from ..study.cache import CacheInfo
from ..study.study import Study, StudyCell, StudyResult
from .client import BrokerClient

__all__ = ["ServiceEngine", "resolve_broker"]


def resolve_broker(broker: str | BrokerClient | None = None) -> BrokerClient:
    """Turn a ``--broker`` / ``REPRO_BROKER``-style value into a client."""
    if isinstance(broker, BrokerClient):
        return broker
    if broker is None:
        broker = os.environ.get("REPRO_BROKER", "").strip() or None
    if not broker:
        raise ConfigError(
            "the service backend needs a broker URL: pass --broker URL "
            "(Study.run: ServiceEngine(url)) or set REPRO_BROKER"
        )
    return BrokerClient(broker)


class ServiceEngine:
    """Runs whole studies against a remote broker (``name="service"``).

    Satisfies the :class:`~repro.sim.execution.ExecutionEngine`
    protocol so engine plumbing treats it uniformly, but its real
    surface is :meth:`run_study` — ``Study.run`` delegates whole
    studies to it, and raw spec batches are a usage error (cells, not
    specs, are the service's unit of work).
    """

    name = "service"
    jobs = 0

    def __init__(
        self,
        broker: str | BrokerClient | None = None,
        *,
        timeout: float | None = None,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        # Written so NaN fails too: a NaN deadline never passes.
        if timeout is not None and not timeout >= 0:
            raise ConfigError(f"timeout must be >= 0 s or None, got {timeout}")
        self.client = resolve_broker(broker)
        #: Whether ``client`` was made here, and so is closed here.
        self._owns_client = self.client is not broker
        #: Overall wall-clock budget for one run (None = wait forever).
        self.timeout = timeout
        self._progress = progress

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServiceEngine({self.client.url!r})"

    def _emit(self, message: str) -> None:
        if self._progress is not None:
            self._progress(message)
        else:
            print(message, file=sys.stderr)

    def collect(self, specs: Sequence[Any]) -> NoReturn:
        raise ConfigError(
            "the service backend executes whole studies, not raw spec batches; "
            "go through Study.run / repro experiment --backend service"
        )

    def run_study(self, study: Study) -> StudyResult:
        """Submit, stream progress, reassemble the StudyResult; a client
        made from a URL is closed when the run ends."""
        try:
            return self._run_study(study)
        finally:
            if self._owns_client:
                self.client.close()

    def _run_study(self, study: Study) -> StudyResult:
        axes = {name: list(values) for name, values in study.axes.items()}
        submitted = self.client.submit(
            {
                "experiment": study.experiment_id,
                "params": dict(study.params),
                "axes": axes,
            }
        )
        job_id = submitted["job_id"]
        cell_overrides = study.cells()
        if submitted.get("cells") != len(cell_overrides):
            raise ServiceError(
                f"broker expanded {submitted.get('cells')} cell(s), this client "
                f"expects {len(cell_overrides)} — client/broker version skew?"
            )
        self._emit(
            f"[service] job {job_id}: {submitted['cells']} cell(s) submitted "
            f"({submitted.get('cached', 0)} cached, "
            f"{submitted.get('units', 0)} work units)"
        )
        status = self._wait(job_id, len(cell_overrides))
        by_index = {info["cell"]: info for info in status["cells"]}
        cells = []
        for index, overrides in enumerate(cell_overrides):
            params = dict(study.params)
            params.update(overrides)
            info = by_index[index]
            if info["state"] == "done":
                manifest_text, npz_bytes = self.client.result(job_id, index)
                loaded = parse_study(
                    manifest_text, npz_bytes, f"{job_id} cell {index}"
                ).only()
                cells.append(
                    StudyCell(
                        index=index,
                        overrides=overrides,
                        params=params,
                        result=loaded.result,
                        columns=loaded.columns,
                    )
                )
            else:
                cells.append(
                    StudyCell(
                        index=index,
                        overrides=overrides,
                        params=params,
                        result=None,
                        columns={},
                        error=info.get("error") or f"cell state {info['state']!r}",
                    )
                )
        result = StudyResult(
            experiment_id=study.experiment_id,
            kind=study.definition.kind,
            params=dict(study.params),
            axes=axes,
            cells=cells,
        )
        result.cache_info = CacheInfo(
            hits=submitted.get("cached", 0),
            misses=len(cells) - submitted.get("cached", 0),
            submitted_units=submitted.get("units", 0),
        )
        return result

    def _wait(self, job_id: str, n_cells: int) -> dict[str, Any]:
        """Long-poll status until the job leaves ``running``."""
        deadline = None if self.timeout is None else time.monotonic() + self.timeout
        finished = -1
        while True:
            status = self.client.status(job_id, wait=2.0, done=finished)
            counts = status["counts"]
            now_finished = counts.get("done", 0) + counts.get("failed", 0)
            if now_finished != finished:
                finished = now_finished
                self._emit(f"[service] job {job_id}: {finished}/{n_cells} finished")
            if status["state"] != "running":
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"service run timed out after {self.timeout}s (job {job_id}; "
                    "the queue keeps the job — resubmitting reuses its cache)"
                )
