"""The sqlite study broker: leases, retries, quarantine, cache, restart.

Direct (HTTP-free) tests of :class:`repro.serve.broker.Broker` — the
queue's correctness argument lives here: lease expiry requeues, bounded
retries quarantine, completion is first-commit-wins with full archive
validation, the sqlite file survives a broker restart with in-flight
leases intact, and a warm cache turns a resubmission into zero work.
"""

import dataclasses
import math
import threading
import time
from contextlib import suppress

import pytest

from repro.errors import ConfigError, ServiceError
from repro.serve.broker import Broker
from repro.serve.cells import cell_archive, execute_cell
from repro.serve.worker import run_worker
from repro.sim.execution import SerialEngine
from repro.study import cache as cache_module
from repro.study import registry as registry_module
from repro.study.archive import parse_study
from repro.study.cache import StudyCache
from repro.serve import broker as broker_module


class Clock:
    """An injectable wall clock the tests advance by hand."""

    def __init__(self, t: float = 1_000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def grid_payload(trials: int = 1, seeds: tuple = (2014, 2015)) -> dict:
    return {
        "experiment": "fig2",
        "params": {"trials": trials},
        "axes": {"seed": list(seeds)},
    }


def single_payload(seed: int = 2014) -> dict:
    return {"experiment": "fig2", "params": {"trials": 1, "seed": seed}, "axes": {}}


@pytest.fixture(scope="module")
def archives() -> dict:
    """Real fig2 cell archives, one per seed, computed once per module."""
    out = {}
    for seed in (2014, 2015):
        cell = execute_cell("fig2", {"trials": 1, "seed": seed}, engine=SerialEngine())
        out[seed] = cell_archive("fig2", cell)
    return out


@pytest.fixture
def make_broker(tmp_path):
    brokers = []

    def factory(name: str = "queue.sqlite3", **kwargs) -> Broker:
        broker = Broker(tmp_path / name, **kwargs)
        brokers.append(broker)
        return broker

    yield factory
    for broker in brokers:
        with suppress(Exception):
            broker.close()


def complete_lease(broker: Broker, lease: dict, archives: dict, worker: str = "w"):
    """Commit the right canned archive for a fig2 lease."""
    manifest, npz = archives[lease["params"]["seed"]]
    return broker.complete(
        lease["job_id"],
        lease["cell"],
        manifest,
        npz,
        lease_id=lease["lease_id"],
        worker=worker,
    )


class Parked(threading.Thread):
    """Runs one (possibly parking) broker call; records how it ended
    and how long it took."""

    def __init__(self, call) -> None:
        super().__init__(daemon=True)
        self._call = call
        self.value = None
        self.error: Exception | None = None
        self.elapsed = 0.0

    def run(self) -> None:
        start = time.monotonic()
        try:
            self.value = self._call()
        except Exception as exc:  # noqa: BLE001 - the test inspects it
            self.error = exc
        self.elapsed = time.monotonic() - start

    def finish(self, timeout: float = 10.0) -> "Parked":
        self.join(timeout)
        assert not self.is_alive(), "the parked call never returned"
        return self


def park(call) -> Parked:
    """Start ``call`` and give it time to reach the broker's condition."""
    parked = Parked(call)
    parked.start()
    time.sleep(0.1)
    assert parked.is_alive(), "the call answered instead of parking"
    return parked


class TestSubmit:
    def test_expands_grid_into_pending_cells(self, make_broker):
        broker = make_broker()
        summary = broker.submit(grid_payload())
        assert summary["cells"] == 2
        assert summary["cached"] == 0
        assert summary["units"] > 0
        status = broker.status(summary["job_id"])
        assert status["state"] == "running"
        assert status["counts"] == {"pending": 2}
        assert [info["cell"] for info in status["cells"]] == [0, 1]
        # The broker re-expanded the grid itself: each cell carries its
        # fully resolved params, product order.
        lease = broker.lease("w0")
        assert lease["cell"] == 0
        assert lease["params"]["seed"] == 2014
        assert lease["params"]["trials"] == 1

    def test_rejects_malformed_submissions(self, make_broker):
        broker = make_broker()
        with pytest.raises(ConfigError):
            broker.submit({"params": {}})  # no experiment id
        with pytest.raises(ConfigError):
            broker.submit({"experiment": "no-such-experiment"})
        with pytest.raises(ConfigError):
            broker.submit({"experiment": "fig2", "params": {"bogus_knob": 1}})
        with pytest.raises(ConfigError):
            broker.submit({"experiment": "fig2", "params": [1, 2]})

    @pytest.mark.parametrize(
        "values", [5, "abc", {"2014": 1}, None], ids=["int", "string", "object", "null"]
    )
    def test_rejects_an_axis_that_is_not_a_list(self, make_broker, values):
        broker = make_broker()
        payload = {"experiment": "fig2", "params": {"trials": 1}, "axes": {"seed": values}}
        with pytest.raises(ConfigError, match="axis 'seed' must be a JSON array"):
            broker.submit(payload)
        assert broker.lease("w0") is None

    def test_validation_happens_before_anything_queues(self, make_broker):
        broker = make_broker()
        with pytest.raises(ConfigError):
            broker.submit({"experiment": "fig2", "params": {}, "axes": {"seed": []}})
        assert broker.lease("w0") is None


class TestMaxAttempts:
    """``max_attempts`` is a count: an integer of at least one."""

    # NaN raised a raw ValueError out of int(); 2.5 was stored as 2.
    @pytest.mark.parametrize(
        "attempts", [math.nan, 2.5, 3.0, "3", 0, -1], ids=["nan", "half", "float", "str", "0", "-1"]
    )
    def test_refused_unless_a_positive_integer(self, make_broker, attempts):
        with pytest.raises(ConfigError, match="max_attempts"):
            make_broker(max_attempts=attempts)

    def test_an_integer_is_kept(self, make_broker):
        assert make_broker(max_attempts=2).max_attempts == 2


class TestTimingValidation:
    """Every timing the broker or a worker waits on is refused at the
    door unless a thread can wait that long: NaN fails the check too."""

    # NaN stored a NULL deadline (the lease never expired); inf and
    # anything past TIMEOUT_MAX crashed the workers' heartbeat waits.
    @pytest.mark.parametrize(
        "timeout", [math.nan, math.inf, threading.TIMEOUT_MAX * 4], ids=["nan", "inf", "huge"]
    )
    def test_lease_timeout_refused(self, make_broker, timeout):
        with pytest.raises(ConfigError, match="lease_timeout"):
            make_broker(lease_timeout=timeout)

    @pytest.mark.parametrize("keep_days", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_keep_days_refused(self, make_broker, keep_days):
        with pytest.raises(ConfigError, match="keep_days"):
            make_broker().gc(keep_days=keep_days)

    class _DeadBroker:
        """A broker client whose every lease request fails, as an HTTP
        broker's 400 for a malformed ``wait`` does; it trips ``stop``
        after a bounded number of calls, so a spinning loop ends."""

        def __init__(self, stop: threading.Event, limit: int = 50) -> None:
            self.stop = stop
            self.limit = limit
            self.leases = 0

        def lease(self, worker: str, wait: float = 0.0):
            self.leases += 1
            if self.leases >= self.limit:
                self.stop.set()
            raise ServiceError(f"400: malformed wait {wait!r}")

    # NaN and negative polls retried every failed lease at once; inf
    # crashed ``stop.wait``.
    @pytest.mark.parametrize(
        "poll", [math.nan, -1.0, 0.0, math.inf], ids=["nan", "negative", "zero", "inf"]
    )
    def test_worker_poll_refused_before_any_lease(self, poll):
        stop = threading.Event()
        client = self._DeadBroker(stop)
        with pytest.raises(ConfigError, match="poll"):
            run_worker(client, jobs="serial", poll=poll, worker_id="w0", stop=stop)
        assert client.leases == 0


class TestLeaseLifecycle:
    def test_roundtrip_lease_complete_result(self, make_broker, archives):
        broker = make_broker(log=print)
        job = broker.submit(single_payload())["job_id"]
        lease = broker.lease("w0")
        assert lease["job_id"] == job
        assert lease["lease_timeout"] == broker.lease_timeout
        response = complete_lease(broker, lease, archives, worker="w0")
        assert response == {"accepted": True, "reason": "stored"}
        status = broker.status(job)
        assert status["state"] == "done"
        assert status["cells"][0]["worker"] == "w0"
        manifest, npz = broker.result(job, 0)
        assert (manifest, npz) == archives[2014]
        # The stored archive round-trips through strict validation.
        assert parse_study(manifest, npz).only().params["seed"] == 2014

    def test_empty_queue_leases_none(self, make_broker):
        assert make_broker().lease("w0") is None

    def test_heartbeat_extends_the_deadline(self, make_broker):
        clock = Clock()
        broker = make_broker(lease_timeout=10.0, clock=clock)
        broker.submit(single_payload())
        lease = broker.lease("w0")
        clock.advance(8.0)
        assert broker.heartbeat(lease["lease_id"]) is True
        clock.advance(8.0)  # past the original deadline, not the extended one
        assert broker.requeue_expired() == 0
        clock.advance(3.0)
        assert broker.requeue_expired() == 1
        assert broker.heartbeat(lease["lease_id"]) is False

    def test_expired_lease_requeues_and_releases(self, make_broker):
        clock = Clock()
        log: list[str] = []
        broker = make_broker(lease_timeout=5.0, clock=clock, log=log.append)
        broker.submit(single_payload())
        first = broker.lease("w0")
        clock.advance(6.0)
        second = broker.lease("w1")  # expiry scan runs lazily in lease()
        assert second is not None
        assert second["cell"] == first["cell"]
        assert second["lease_id"] != first["lease_id"]
        assert any("requeued" in line and "lease expired" in line for line in log)
        status = broker.status(second["job_id"])
        assert status["cells"][0]["attempts"] == 2

    def test_quarantine_after_max_attempts(self, make_broker):
        clock = Clock()
        log: list[str] = []
        broker = make_broker(lease_timeout=5.0, max_attempts=2, clock=clock, log=log.append)
        job = broker.submit(single_payload())["job_id"]
        for _ in range(2):
            assert broker.lease("w0") is not None
            clock.advance(6.0)
        assert broker.lease("w0") is None  # quarantined, not re-leased
        status = broker.status(job)
        assert status["state"] == "failed"
        assert "lease expired" in status["cells"][0]["error"]
        assert any("quarantined" in line for line in log)
        with pytest.raises(ServiceError):
            broker.result(job, 0)


class TestWaiting:
    """``lease`` and ``status`` park on the broker's condition and wake
    on the transition they wait for, not on a timer."""

    def test_parked_lease_returns_a_cell_submitted_meanwhile(self, make_broker):
        broker = make_broker()
        parked = park(lambda: broker.lease("w0", wait=5.0))
        broker.submit(single_payload())
        parked.finish()
        assert parked.error is None
        assert parked.value is not None and parked.value["cell"] == 0
        assert parked.elapsed < 1.0

    def test_parked_lease_times_out_to_none(self, make_broker):
        broker = make_broker()
        start = time.monotonic()
        assert broker.lease("w0", wait=0.2) is None
        assert 0.2 <= time.monotonic() - start < 1.0

    def test_parked_lease_wakes_at_the_expired_deadline(self, make_broker):
        # A leases and goes silent; nobody else calls in, yet B gets the
        # cell when A's lease expires, long before its own wait ends.
        broker = make_broker(lease_timeout=0.3)
        broker.submit(single_payload())
        silent = broker.lease("a")
        parked = park(lambda: broker.lease("b", wait=5.0))
        parked.finish()
        assert parked.error is None
        assert parked.value is not None
        assert parked.value["cell"] == silent["cell"]
        assert parked.elapsed < 1.0

    def test_parked_status_wakes_on_completion(self, make_broker, archives):
        broker = make_broker()
        job = broker.submit(single_payload())["job_id"]
        lease = broker.lease("w0")
        parked = park(lambda: broker.status(job, wait=5.0, done=0))
        complete_lease(broker, lease, archives)
        parked.finish()
        assert parked.error is None
        assert parked.value["state"] == "done"
        assert parked.elapsed < 1.0

    def test_close_wakes_every_parked_call(self, make_broker):
        broker = make_broker()
        job = broker.submit(single_payload())["job_id"]
        broker.lease("w0")
        parked = [
            park(lambda: broker.lease("w1", wait=5.0)),
            park(lambda: broker.status(job, wait=5.0, done=0)),
        ]
        broker.close()
        for call in parked:
            call.finish()
            # ServiceError, not sqlite3.ProgrammingError from the closed db.
            assert isinstance(call.error, ServiceError), call.error
            assert call.elapsed < 1.0
        with pytest.raises(ServiceError, match="closed"):
            broker.lease("w2")
        broker.close()  # idempotent


class TestCompletion:
    def test_duplicate_completion_first_commit_wins(self, make_broker, archives):
        broker = make_broker()
        job = broker.submit(single_payload())["job_id"]
        lease = broker.lease("w0")
        assert complete_lease(broker, lease, archives, worker="w0")["accepted"]
        duplicate = complete_lease(broker, lease, archives, worker="w1")
        assert duplicate == {"accepted": False, "reason": "already-complete"}
        assert broker.status(job)["cells"][0]["worker"] == "w0"

    def test_invalid_archive_charges_the_attempt(self, make_broker):
        broker = make_broker(max_attempts=1)
        job = broker.submit(single_payload())["job_id"]
        lease = broker.lease("w0")
        response = broker.complete(job, lease["cell"], "not a manifest", b"junk", worker="w0")
        assert response["accepted"] is False
        assert response["reason"].startswith("invalid-archive")
        status = broker.status(job)
        assert status["state"] == "failed"  # max_attempts=1: straight to jail
        assert "invalid result archive" in status["cells"][0]["error"]

    def test_archive_for_the_wrong_cell_is_rejected(self, make_broker, archives):
        broker = make_broker()
        job = broker.submit(single_payload(seed=2014))["job_id"]
        broker.lease("w0")
        manifest, npz = archives[2015]  # valid archive, wrong params
        response = broker.complete(job, 0, manifest, npz, worker="w0")
        assert response["accepted"] is False
        assert "do not match" in response["reason"]

    def test_completion_without_a_lease_rescues_quarantine(self, make_broker, archives):
        broker = make_broker(max_attempts=1)
        job = broker.submit(single_payload())["job_id"]
        lease = broker.lease("w0")
        broker.fail(lease["lease_id"], "controlled crash")
        assert broker.status(job)["state"] == "failed"
        # Determinism: a valid archive is THE result, lease or no lease.
        manifest, npz = archives[2014]
        assert broker.complete(job, 0, manifest, npz, worker="late")["accepted"]
        assert broker.status(job)["state"] == "done"

    def test_unknown_cell_raises(self, make_broker, archives):
        broker = make_broker()
        manifest, npz = archives[2014]
        with pytest.raises(ServiceError):
            broker.complete("nope", 0, manifest, npz)


class TestFail:
    def test_fail_requeues_then_quarantines(self, make_broker):
        broker = make_broker(max_attempts=2)
        job = broker.submit(single_payload())["job_id"]
        first = broker.fail(broker.lease("w0")["lease_id"], "crash 1")
        assert first == {"accepted": True, "requeued": True, "reason": "requeued"}
        second = broker.fail(broker.lease("w0")["lease_id"], "crash 2")
        assert second == {
            "accepted": True,
            "requeued": False,
            "reason": "quarantined",
        }
        assert broker.status(job)["cells"][0]["error"] == "crash 2"

    def test_unknown_lease_is_refused(self, make_broker):
        response = make_broker().fail("deadbeef", "whatever")
        assert response["accepted"] is False
        assert response["reason"] == "unknown-lease"


class TestStatusAndResult:
    def test_unknown_job_raises(self, make_broker):
        with pytest.raises(ServiceError):
            make_broker().status("nope")

    def test_result_before_done_raises(self, make_broker):
        broker = make_broker()
        job = broker.submit(single_payload())["job_id"]
        with pytest.raises(ServiceError):
            broker.result(job, 0)
        with pytest.raises(ServiceError):
            broker.result(job, 99)


class TestRestart:
    def test_queue_and_leases_survive_a_broker_restart(self, make_broker, archives):
        clock = Clock()
        first = make_broker("shared.sqlite3", lease_timeout=5.0, clock=clock)
        job = first.submit(single_payload())["job_id"]
        stale = first.lease("w0")
        first.close()

        second = make_broker("shared.sqlite3", lease_timeout=5.0, clock=clock)
        assert second.status(job)["cells"][0]["state"] == "leased"
        clock.advance(6.0)
        release = second.lease("w1")
        assert release is not None and release["cell"] == 0
        # The pre-restart worker finally reports in: its lease is stale
        # but its archive is valid, so first-commit-wins accepts it.
        assert complete_lease(second, stale, archives, worker="w0")["accepted"]
        assert second.status(job)["state"] == "done"


class TestCacheIntegration:
    def test_warm_cache_submits_zero_work_units(self, tmp_path, archives):
        cache = StudyCache(tmp_path / "cache")
        first = Broker(tmp_path / "a.sqlite3", cache=cache)
        try:
            job = first.submit(grid_payload())["job_id"]
            # Drain with the real worker loop, HTTP-free (the broker and
            # the client expose the same surface by design).
            drained = run_worker(first, jobs="serial", once=True, poll=0.01, worker_id="w0")
            assert drained == 2
            assert first.status(job)["state"] == "done"
            first_bytes = [first.result(job, cell) for cell in (0, 1)]
        finally:
            first.close()

        # A fresh broker (new queue db) sharing only the cache: the same
        # submission is born done — zero leases, zero work units — and
        # serves byte-identical archives.
        second = Broker(tmp_path / "b.sqlite3", cache=cache)
        try:
            summary = second.submit(grid_payload())
            assert summary["cached"] == 2
            assert summary["units"] == 0
            status = second.status(summary["job_id"])
            assert status["state"] == "done"
            assert all(info["from_cache"] for info in status["cells"])
            assert second.lease("w0") is None
            second_bytes = [second.result(summary["job_id"], cell) for cell in (0, 1)]
            assert second_bytes == first_bytes
        finally:
            second.close()

    def test_a_cell_is_done_only_once_its_entry_is_on_disk(
        self, tmp_path, make_broker, archives, monkeypatch
    ):
        cache = StudyCache(tmp_path / "cache")
        broker = make_broker(cache=cache)
        real_store = cache.store

        def slow_store(*args, **kwargs):
            time.sleep(0.3)
            return real_store(*args, **kwargs)

        monkeypatch.setattr(cache, "store", slow_store)
        job = broker.submit(single_payload())["job_id"]
        lease = broker.lease("w0")
        torn: list[str] = []
        finished = threading.Event()

        def watch() -> None:
            while not finished.is_set():
                if broker.status(job)["state"] == "done":
                    if not cache.entries():
                        torn.append("done before its cache entry existed")
                    finished.set()

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        assert complete_lease(broker, lease, archives)["accepted"]
        watcher.join(timeout=10)
        finished.set()
        assert not watcher.is_alive()
        assert torn == []
        assert len(cache.entries()) == 1

    def test_fingerprint_once_per_submit_none_per_complete(
        self, tmp_path, make_broker, archives, monkeypatch
    ):
        calls: list[str] = []
        real = cache_module.code_fingerprint

        def counted(*args, **kwargs):
            calls.append("fingerprint")
            return real(*args, **kwargs)

        monkeypatch.setattr(cache_module, "code_fingerprint", counted)
        monkeypatch.setattr(broker_module, "code_fingerprint", counted)
        cache = StudyCache(tmp_path / "cache")
        broker = make_broker(cache=cache)
        job = broker.submit(grid_payload())["job_id"]
        assert len(calls) == 1
        while (lease := broker.lease("w0")) is not None:
            assert complete_lease(broker, lease, archives)["accepted"]
        assert len(calls) == 1
        assert broker.status(job)["state"] == "done"
        # Stored under the key the submission looked up with: a second
        # submission (one more fingerprint) hits both cells.
        assert broker.submit(grid_payload())["cached"] == 2
        assert len(calls) == 2

    def test_a_hit_builds_no_plan(self, tmp_path, make_broker, monkeypatch):
        definition = registry_module.get_experiment("fig2")
        builds: list[dict] = []

        def counted(params):
            builds.append(dict(params))
            return definition.build(params)

        monkeypatch.setitem(
            registry_module._REGISTRY, "fig2", dataclasses.replace(definition, build=counted)
        )
        broker = make_broker(cache=StudyCache(tmp_path / "cache"))
        cold = broker.submit(grid_payload())
        assert len(builds) == 2 and cold["units"] > 0
        run_worker(broker, jobs="serial", once=True, poll=0.01, worker_id="w0")
        builds.clear()
        warm = broker.submit(grid_payload())
        assert builds == []
        assert (warm["cached"], warm["units"]) == (2, 0)
        assert [cell["units"] for cell in broker.status(warm["job_id"])["cells"]] == [0, 0]

    def test_fingerprint_kept_only_for_a_job_with_pending_cells(
        self, tmp_path, make_broker, archives
    ):
        cacheless = make_broker("plain.sqlite3")
        cacheless.submit(grid_payload())
        assert cacheless._fingerprints == {}
        broker = make_broker(cache=StudyCache(tmp_path / "cache"))
        cold = broker.submit(grid_payload())["job_id"]
        assert list(broker._fingerprints) == [cold]
        while (lease := broker.lease("w0")) is not None:
            assert complete_lease(broker, lease, archives)["accepted"]
        warm = broker.submit(grid_payload())
        assert warm["cached"] == 2
        assert warm["job_id"] not in broker._fingerprints
        partial = broker.submit(grid_payload(seeds=(2014, 2016)))["job_id"]
        assert partial in broker._fingerprints

    def test_a_failed_cache_write_still_completes_the_cell(
        self, tmp_path, make_broker, archives, monkeypatch
    ):
        cache = StudyCache(tmp_path / "cache")
        log: list[str] = []
        broker = make_broker(cache=cache, log=log.append)

        def full_disk(*_args, **_kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache, "store", full_disk)
        job = broker.submit(single_payload())["job_id"]
        assert complete_lease(broker, broker.lease("w0"), archives)["accepted"]
        assert broker.status(job)["state"] == "done"
        assert any("cache store failed" in line for line in log)

    def test_worker_archives_match_locally_computed_bytes(self, make_broker, archives):
        broker = make_broker()
        job = broker.submit(grid_payload())["job_id"]
        run_worker(broker, jobs="serial", once=True, poll=0.01, worker_id="w0")
        for cell, seed in enumerate((2014, 2015)):
            assert broker.result(job, cell) == archives[seed]


class TestBrokerGC:
    """`repro serve --gc`: completed studies older than the cutoff lose
    their result blobs; everything in flight keeps its bytes."""

    def _finish_job(self, broker, archives, payload) -> str:
        job = broker.submit(payload)
        while True:
            lease = broker.lease("w0")
            if lease is None:
                break
            complete_lease(broker, lease, archives)
        assert broker.status(job["job_id"])["state"] == "done"
        return job["job_id"]

    def test_old_completed_study_is_purged(self, make_broker, archives):
        clock = Clock()
        broker = make_broker(clock=clock)
        job_id = self._finish_job(broker, archives, single_payload())
        clock.advance(8 * 86400.0)
        stats = broker.gc(keep_days=7.0)
        assert stats["studies"] == 1
        assert stats["cells"] == 1
        assert stats["bytes"] > 0
        # Status stays answerable; only the blobs are gone.
        assert broker.status(job_id)["state"] == "done"
        with pytest.raises(ServiceError, match="purged"):
            broker.result(job_id, 0)

    def test_recent_and_inflight_studies_survive(self, make_broker, archives):
        clock = Clock()
        broker = make_broker(clock=clock)
        old_done = self._finish_job(broker, archives, single_payload(seed=2014))
        clock.advance(8 * 86400.0)
        fresh_done = self._finish_job(broker, archives, single_payload(seed=2015))
        inflight = broker.submit(grid_payload())
        stats = broker.gc(keep_days=7.0)
        assert stats["studies"] == 1
        with pytest.raises(ServiceError, match="purged"):
            broker.result(old_done, 0)
        manifest, npz = broker.result(fresh_done, 0)
        assert manifest and npz
        assert broker.status(inflight["job_id"])["state"] == "running"

    def test_gc_is_idempotent(self, make_broker, archives):
        clock = Clock()
        broker = make_broker(clock=clock)
        self._finish_job(broker, archives, single_payload())
        clock.advance(8 * 86400.0)
        assert broker.gc(keep_days=7.0)["studies"] == 1
        again = broker.gc(keep_days=7.0)
        assert again == {"studies": 0, "cells": 0, "bytes": 0}

    def test_negative_keep_days_rejected(self, make_broker):
        with pytest.raises(ConfigError, match="keep_days"):
            make_broker().gc(keep_days=-1.0)

    def test_keep_days_zero_purges_all_completed(self, make_broker, archives):
        clock = Clock()
        broker = make_broker(clock=clock)
        self._finish_job(broker, archives, single_payload())
        clock.advance(1.0)
        assert broker.gc(keep_days=0.0)["studies"] == 1
