"""The study service: distributed campaigns over a brokered job queue.

Everything under :mod:`repro.serve` carries a :class:`~repro.study.
study.Study` across process and machine boundaries while preserving the
repo's core invariant — results byte-identical to a local serial run:

* :mod:`repro.serve.broker` — a sqlite-backed (WAL) job queue.  A
  submission is the *declarative* study description (experiment id +
  schema params + grid axes; the registry makes it serializable), which
  the broker re-expands into per-cell work items with the same product
  order the client computes.  Cells are handed out as leases with
  heartbeat/timeout/requeue semantics — the ``BrokenProcessPool``
  evict-and-retry generalized to lost workers — with a bounded attempt
  count and poisoned-cell quarantine.  The PR 8
  :class:`~repro.study.cache.StudyCache` plugs in broker-side, so a
  resubmitted cell is served from disk and never leased at all.
* :mod:`repro.serve.httpd` — the stdlib ``http.server`` front end
  (what ``repro serve`` runs and the tests exercise), dependency-free.
* :mod:`repro.serve.worker` — the pull worker behind ``repro worker
  URL``: lease, execute the cell with a local engine, post the result
  archive back, heartbeating all the while.
* :mod:`repro.serve.engine` — :class:`ServiceEngine`, the third
  execution backend (``--backend service --broker URL`` /
  ``REPRO_JOBS=service``): ``Study.run()`` ships the study to the
  broker, streams progress, and reassembles an ordinary
  :class:`~repro.study.study.StudyResult`.

Results move as single-cell study archives — the ``(manifest text, npz
bytes)`` pair of :func:`~repro.study.archive.dump_study`, encoded and
decoded in memory — the byte-deterministic format the cache already
round-trips bit-exactly, which is what makes service-backed archives
``cmp``-identical to in-process ones.
"""

from ..errors import ServiceError
from .broker import Broker
from .client import BrokerClient
from .engine import ServiceEngine
from .worker import run_worker

__all__ = [
    "Broker",
    "BrokerClient",
    "ServiceEngine",
    "ServiceError",
    "run_worker",
]
