"""The study service end to end: HTTP broker, pull workers, ServiceEngine.

Real sockets, real threads: a stdlib :mod:`repro.serve.httpd` server in
front of a :class:`Broker`, ``run_worker`` loops pulling over HTTP, and
``Study.run`` going through :class:`ServiceEngine`.  The acceptance bar
is the ISSUE 9 one — the archive a service run saves is **byte
identical** to an in-process run, a killed worker's cell requeues and
the sweep completes, and a poisoned cell quarantines as a per-cell
error instead of sinking the study.
"""

import base64
import filecmp
import http.client
import json
import re
import socket
import struct
import tempfile
import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace
from urllib.parse import urlsplit

import pytest
from test_serve_broker import park

from repro.cli import main
from repro.errors import ConfigError, ServiceError
from repro.http.h1 import MAX_BODY
from repro.serve.broker import Broker
from repro.serve.cells import cell_archive, execute_cell
from repro.serve.client import BrokerClient
from repro.serve.engine import ServiceEngine, resolve_broker
from repro.serve.httpd import create_server, run_server
from repro.serve.worker import run_worker
from repro.study import Study, StudyCache
from repro.study.archive import dump_study, parse_study
from repro.study.params import Param, ParamSchema
from repro.study.registry import (
    _REGISTRY,
    ExperimentDef,
    ExperimentPlan,
    get_experiment,
    register,
)


@contextmanager
def service_stack(
    tmp_path,
    *,
    workers=1,
    lease_timeout=30.0,
    max_attempts=3,
    cache=None,
    start_workers=True,
):
    """A live broker + HTTP server + worker threads, torn down cleanly."""
    log: list[str] = []
    broker = Broker(
        tmp_path / "queue.sqlite3",
        cache=cache,
        lease_timeout=lease_timeout,
        max_attempts=max_attempts,
        log=log.append,
    )
    server = create_server(broker)
    url = f"http://127.0.0.1:{server.server_address[1]}"
    server_thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    server_thread.start()
    stop = threading.Event()
    threads: list[threading.Thread] = []

    def start_worker(worker_id: str) -> None:
        thread = threading.Thread(
            target=run_worker,
            args=(url,),
            kwargs={
                "jobs": "serial",
                "poll": 0.02,
                "stop": stop,
                "worker_id": worker_id,
                "log": log.append,
            },
            daemon=True,
        )
        thread.start()
        threads.append(thread)

    if start_workers:
        for index in range(workers):
            start_worker(f"w{index}")
    try:
        yield SimpleNamespace(
            broker=broker,
            url=url,
            log=log,
            stop=stop,
            start_worker=start_worker,
        )
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        server.shutdown()
        server_thread.join(timeout=10)
        server.server_close()
        broker.close()


@contextmanager
def injectable_fig2(experiment_id="svc_fig2_wrapped"):
    """A temporarily registered fig2 wrapper with failure/delay knobs.

    ``boom=True`` makes the cell's render raise (worker-side failure,
    submit-side validation untouched); ``delay`` stretches the cell past
    a short lease timeout to exercise heartbeats.
    """
    fig2 = get_experiment("fig2")

    def build(params):
        plan = fig2.build({"trials": params["trials"], "seed": params["seed"]})

        def render(results, _inner=plan.render, _params=dict(params)):
            if _params["delay"]:
                time.sleep(_params["delay"])
            if _params["boom"]:
                raise RuntimeError("boom: injected cell failure")
            return _inner(results)

        return ExperimentPlan(plan.campaign, render)

    definition = ExperimentDef(
        experiment_id=experiment_id,
        title="fig2 wrapper with injectable failure/delay (tests only)",
        kind="trials",
        schema=ParamSchema(
            (
                Param("trials", int, 1, minimum=1),
                Param("seed", int, 2014),
                Param("boom", bool, False),
                Param("delay", float, 0.0, minimum=0.0),
            )
        ),
        build=build,
    )
    register(definition)
    try:
        yield experiment_id
    finally:
        _REGISTRY.pop(experiment_id, None)


def wait_done(client: BrokerClient, job_id: str, deadline_s: float = 60.0) -> dict:
    deadline = time.monotonic() + deadline_s
    finished = -1
    while True:
        status = client.status(job_id, wait=1.0, done=finished)
        finished = status["counts"].get("done", 0) + status["counts"].get("failed", 0)
        if status["state"] != "running":
            return status
        assert time.monotonic() < deadline, f"job stuck: {status}"


class TestByteIdentity:
    def test_service_archive_identical_to_local_run(self, tmp_path):
        study = Study("fig2", trials=2).grid(seed=[2014, 2015])
        messages: list[str] = []
        with service_stack(tmp_path, workers=2) as stack:
            engine = ServiceEngine(stack.url, progress=messages.append)
            service_result = study.run(engine=engine)
        local_result = study.run(jobs="serial")

        assert service_result.errors == {}
        assert service_result.rendered == local_result.rendered
        assert service_result.column_mismatches(local_result) == []
        service_json, service_npz = service_result.save(tmp_path / "service-run")
        local_json, local_npz = local_result.save(tmp_path / "local-run")
        assert filecmp.cmp(service_json, local_json, shallow=False)
        assert filecmp.cmp(service_npz, local_npz, shallow=False)

        info = service_result.cache_info
        assert info is not None
        assert (info.hits, info.misses) == (0, 2)
        assert info.submitted_units > 0
        assert any("2/2 finished" in message for message in messages)

    def test_repro_jobs_service_env(self, tmp_path, monkeypatch, capsys):
        with service_stack(tmp_path) as stack:
            monkeypatch.setenv("REPRO_JOBS", "service")
            monkeypatch.setenv("REPRO_BROKER", stack.url)
            result = Study("fig2", trials=1).run()
        assert result.errors == {}
        assert "[service]" in capsys.readouterr().err

    def test_broker_side_cache_makes_resubmission_free(self, tmp_path):
        from repro.study.cache import StudyCache

        cache = StudyCache(tmp_path / "cache")
        study = Study("fig2", trials=1).grid(seed=[2014, 2015])
        with service_stack(tmp_path, cache=cache) as stack:
            engine = ServiceEngine(stack.url, progress=lambda _: None)
            first = study.run(engine=engine)
            second = study.run(engine=engine)
        from repro.study.cache import CacheInfo

        assert first.cache_info.misses == 2
        assert second.cache_info == CacheInfo(hits=2, misses=0, submitted_units=0)
        assert second.rendered == first.rendered
        assert second.column_mismatches(first) == []


class TestRawSpecBatches:
    """Cells, not specs, are the service's unit of work."""

    class _Untouched(BrokerClient):
        def _request(self, *args, **kwargs):
            raise AssertionError("a raw spec batch reached the broker")

    def test_a_campaign_on_the_service_engine_is_refused(self):
        from repro.analysis.ablation import EstimatorCampaign, EstimatorTraceSpec
        from repro.sim.execution import resolve_engine

        engine = ServiceEngine(self._Untouched("http://127.0.0.1:1"))
        assert resolve_engine(engine) is engine
        spec = EstimatorTraceSpec(label="a", trial=0, seed=0, estimator="ewma", samples=40)
        with pytest.raises(ConfigError, match="whole studies"):
            EstimatorCampaign().add([spec]).run(engine)
        assert not hasattr(engine, "map")


class TestInMemoryTransport:
    """Archives cross the service as bytes: no temp files, and a cache
    hit is served from the very bytes ``lookup`` validated."""

    PAYLOAD = {"experiment": "fig2", "params": {"trials": 1}, "axes": {"seed": [2014, 2015]}}

    def test_round_trip_and_cached_resubmission_touch_no_temp_files(
        self, tmp_path, monkeypatch
    ):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("the service path created a temp file")

        for name in ("TemporaryDirectory", "mkdtemp", "mkstemp", "NamedTemporaryFile"):
            monkeypatch.setattr(tempfile, name, forbidden)
        cache = StudyCache(tmp_path / "cache")
        with service_stack(tmp_path, cache=cache) as stack:
            client = BrokerClient(stack.url)
            # submit -> lease -> complete (the worker thread) -> fetch
            fresh = client.submit(self.PAYLOAD)
            assert fresh["cached"] == 0
            assert wait_done(client, fresh["job_id"])["state"] == "done"
            wire = [client.result(fresh["job_id"], index) for index in range(2)]
            # ... and again, served from the cache with zero leases.
            cached = client.submit(self.PAYLOAD)
            assert (cached["cached"], cached["units"]) == (2, 0)
            assert wait_done(client, cached["job_id"])["state"] == "done"
            rewire = [client.result(cached["job_id"], index) for index in range(2)]
        assert not any("temp file" in line for line in stack.log)
        definition = get_experiment("fig2")
        for (manifest_text, npz_bytes), again in zip(wire, rewire, strict=True):
            assert again == (manifest_text, npz_bytes)
            cell = parse_study(manifest_text, npz_bytes).only()
            key = cache.cell_key(definition, cell.params)
            assert (cache.entries_dir / f"{key}.json").read_text() == manifest_text
            assert (cache.entries_dir / f"{key}.npz").read_bytes() == npz_bytes
            assert dump_study(parse_study(manifest_text, npz_bytes)) == (
                manifest_text,
                npz_bytes,
            )

    def test_submit_serves_exactly_the_bytes_lookup_validated(self, tmp_path, monkeypatch):
        cache = StudyCache(tmp_path / "cache")
        payload = {"experiment": "fig2", "params": {"trials": 1}, "axes": {}}
        with service_stack(tmp_path, cache=cache) as stack:
            client = BrokerClient(stack.url)
            job = client.submit(payload)["job_id"]
            wait_done(client, job)
            good = client.result(job, 0)
            (entry,) = cache.entries()

            # The entry changes on disk right after lookup validated it:
            # a broker that re-read the files would serve the torn ones.
            real_lookup = cache.lookup_archive

            def lookup_then_tear(*args, **kwargs):
                hit = real_lookup(*args, **kwargs)
                assert hit is not None
                entry.npz_path.write_bytes(entry.npz_path.read_bytes()[:64])
                return hit

            monkeypatch.setattr(cache, "lookup_archive", lookup_then_tear)
            second = client.submit(payload)
            assert second["cached"] == 1
            assert client.result(second["job_id"], 0) == good
            monkeypatch.undo()

            # The next submission finds the truncated entry: quarantined,
            # recomputed by the worker, never served.
            third = client.submit(payload)
            assert third["cached"] == 0
            assert (cache.quarantine_dir / entry.npz_path.name).exists()
            status = wait_done(client, third["job_id"])
            assert status["cells"][0]["from_cache"] is False
            assert client.result(third["job_id"], 0) == good
            assert entry.npz_path.read_bytes() == good[1]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda manifest: manifest.update(columns=[1, "a"]),
            lambda manifest: manifest["cells"][0].update(labels=[[1]]),
            lambda manifest: manifest.update(axes={"seed": 5}),
        ],
        ids=["columns", "labels", "axes"],
    )
    def test_malformed_manifest_over_http_is_charged_and_requeued(self, tmp_path, mutate):
        with service_stack(tmp_path, start_workers=False) as stack:
            client = BrokerClient(stack.url)
            payload = {"experiment": "fig2", "params": {"trials": 1}, "axes": {}}
            job = client.submit(payload)["job_id"]
            lease = client.lease("sloppy")
            cell = execute_cell(lease["experiment"], lease["params"])
            manifest_text, npz_bytes = cell_archive(lease["experiment"], cell)
            manifest = json.loads(manifest_text)
            mutate(manifest)
            reply = client.complete(
                job, lease["cell"], json.dumps(manifest), npz_bytes, lease["lease_id"], "sloppy"
            )
            assert reply["accepted"] is False
            assert reply["reason"].startswith("invalid-archive")
            info = client.status(job)["cells"][0]
            assert (info["state"], info["attempts"]) == ("pending", 1)
            assert any("requeued" in line for line in stack.log)
            # The honest archive still lands.
            assert client.complete(job, lease["cell"], manifest_text, npz_bytes)["accepted"]


class TestWorkerFailure:
    def test_lost_worker_lease_requeues_and_sweep_completes(self, tmp_path):
        with service_stack(tmp_path, lease_timeout=0.5, start_workers=False) as stack:
            client = BrokerClient(stack.url)
            payload = {"experiment": "fig2", "params": {"trials": 1}, "axes": {}}
            job = client.submit(payload)["job_id"]
            # A "worker" that takes the lease and dies: no heartbeat, no
            # completion — exactly what kill -9 leaves behind.
            doomed = client.lease("doomed")
            assert doomed is not None
            stack.start_worker("survivor")
            status = wait_done(client, job)
        assert status["state"] == "done"
        assert status["cells"][0]["attempts"] == 2
        assert status["cells"][0]["worker"] == "survivor"
        assert any("requeued" in line and "lease expired" in line for line in stack.log)

    def test_poisoned_cell_quarantines_as_per_cell_error(self, tmp_path):
        with (
            injectable_fig2() as experiment_id,
            service_stack(tmp_path, max_attempts=2) as stack,
        ):
            engine = ServiceEngine(stack.url, progress=lambda _: None)
            study = Study(experiment_id, trials=1).grid(boom=[False, True])
            result = study.run(engine=engine)
            # The healthy cell survives the poisoned one.
            assert result.cells[0].error is None
            assert result.cells[0].result is not None
            assert "boom: injected cell failure" in result.cells[1].error
            assert set(result.errors) == {1}
            assert "cell 1 FAILED" in result.rendered
            # Both attempts were charged before quarantine.
            assert sum("quarantined" in line for line in stack.log) == 1
            with pytest.raises(ConfigError, match="failed cells"):
                result.save(tmp_path / "poisoned")

    def test_heartbeat_keeps_a_slow_cell_leased(self, tmp_path):
        with (
            injectable_fig2() as experiment_id,
            service_stack(tmp_path, lease_timeout=0.4) as stack,
        ):
            engine = ServiceEngine(stack.url, progress=lambda _: None)
            result = Study(experiment_id, trials=1, delay=1.5).run(engine=engine)
        assert result.errors == {}
        # One lease, no expiry: the heartbeat outran the 0.4 s timeout
        # across a 1.5 s cell.
        assert not any("requeued" in line for line in stack.log)
        assert sum("leased to" in line for line in stack.log) == 1

    def test_workers_ride_out_a_broker_restart(self, tmp_path):
        log: list[str] = []
        db = tmp_path / "queue.sqlite3"
        first = Broker(db, lease_timeout=30.0, log=log.append)
        server = create_server(first)
        port = server.server_address[1]
        url = f"http://127.0.0.1:{port}"
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        job = BrokerClient(url, timeout=5.0).submit(
            {
                "experiment": "fig2",
                "params": {"trials": 1},
                "axes": {"seed": [2014, 2015]},
            }
        )["job_id"]
        # Take the HTTP front end down before any worker exists; the
        # sqlite queue keeps the submitted job.
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
        first.close()

        stop = threading.Event()
        worker = threading.Thread(
            target=run_worker,
            args=(url,),
            kwargs={
                "jobs": "serial",
                "poll": 0.05,
                "stop": stop,
                "worker_id": "steady",
                "log": log.append,
            },
            daemon=True,
        )
        worker.start()
        second = None
        try:
            deadline = time.monotonic() + 10.0
            while not any("unreachable" in line for line in log):
                assert time.monotonic() < deadline, "worker never noticed"
                time.sleep(0.02)
            # Restart on the same database and the same port: the worker
            # that kept polling picks the queue back up and drains it.
            second = Broker(db, lease_timeout=30.0, log=log.append)
            server = create_server(second, port=port)
            thread = threading.Thread(
                target=server.serve_forever,
                kwargs={"poll_interval": 0.05},
                daemon=True,
            )
            thread.start()
            status = wait_done(BrokerClient(url, timeout=5.0), job)
        finally:
            stop.set()
            worker.join(timeout=30)
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
            if second is not None:
                second.close()
        assert status["state"] == "done"
        assert any("reachable again" in line for line in log)

    def test_a_parked_worker_rides_out_a_broker_restart(self, tmp_path):
        log: list[str] = []
        db = tmp_path / "queue.sqlite3"
        first = Broker(db, log=log.append)
        server = create_server(first)
        port = server.server_address[1]
        url = f"http://127.0.0.1:{port}"
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        stop = threading.Event()
        worker = threading.Thread(
            target=run_worker,
            args=(url,),
            kwargs={
                "jobs": "serial",
                "poll": 1.0,
                "stop": stop,
                "worker_id": "parked",
                "log": log.append,
            },
            daemon=True,
        )
        worker.start()
        second = None
        try:
            time.sleep(0.3)  # the worker's lease is parked at the broker
            # Down goes the broker under the parked lease: closing it
            # answers the parked request with an error, not a traceback.
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
            first.close()
            second = Broker(db, log=log.append)
            server = create_server(second, port=port)
            thread = threading.Thread(
                target=server.serve_forever,
                kwargs={"poll_interval": 0.05},
                daemon=True,
            )
            thread.start()
            client = BrokerClient(url, timeout=5.0)
            job = client.submit(
                {"experiment": "fig2", "params": {"trials": 1}, "axes": {"seed": [2014, 2015]}}
            )["job_id"]
            status = wait_done(client, job)
        finally:
            stop.set()
            worker.join(timeout=30)
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
            if second is not None:
                second.close()
        assert not worker.is_alive()
        assert status["state"] == "done"
        assert [cell["worker"] for cell in status["cells"]] == ["parked", "parked"]
        assert sum("unreachable" in line for line in log) == 1
        assert any("reachable again" in line for line in log)


class TestLongPoll:
    """Over HTTP nothing waits on a timer: a parked request returns when
    its answer exists."""

    PAYLOAD = {"experiment": "fig2", "params": {"trials": 1}, "axes": {}}

    def test_parked_lease_returns_a_cell_submitted_meanwhile(self, tmp_path):
        with service_stack(tmp_path, start_workers=False) as stack:
            client = BrokerClient(stack.url)
            parked = park(lambda: client.lease("w0", wait=5.0))
            client.submit(self.PAYLOAD)
            parked.finish()
        assert parked.error is None
        assert parked.value is not None and parked.value["cell"] == 0
        assert parked.elapsed < 1.0

    def test_expired_lease_reaches_a_parked_worker_at_its_deadline(self, tmp_path):
        with service_stack(tmp_path, lease_timeout=0.3, start_workers=False) as stack:
            client = BrokerClient(stack.url)
            client.submit(self.PAYLOAD)
            silent = client.lease("a")
            parked = park(lambda: client.lease("b", wait=5.0))
            parked.finish()
        assert parked.error is None
        assert parked.value is not None and parked.value["cell"] == silent["cell"]
        assert parked.elapsed < 1.0

    def test_a_client_gone_from_a_parked_lease_is_no_server_error(self, tmp_path, capsys):
        with service_stack(tmp_path, start_workers=False) as stack:
            parts = urlsplit(stack.url)
            body = json.dumps({"worker": "doomed", "wait": 0.3}).encode()
            with socket.create_connection((parts.hostname, parts.port), timeout=5) as sock:
                sock.sendall(
                    b"POST /api/v1/lease HTTP/1.0\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )
                time.sleep(0.1)  # parked; then the "worker" dies with a reset
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            time.sleep(0.5)  # the park ends and the reply meets the reset
            assert BrokerClient(stack.url).health() is True
        assert "Traceback" not in capsys.readouterr().err

    def test_worker_at_the_default_poll_stops_promptly(self, tmp_path):
        with service_stack(tmp_path, start_workers=False) as stack:
            stop = threading.Event()
            worker = threading.Thread(
                target=run_worker,
                args=(stack.url,),
                kwargs={"jobs": "serial", "stop": stop},
                daemon=True,
            )
            worker.start()
            time.sleep(0.3)  # parked at the broker by now
            stopped = time.monotonic()
            stop.set()
            worker.join(timeout=5)
            assert not worker.is_alive()
            assert time.monotonic() - stopped < 0.25


class TestHttpSurface:
    def test_health_and_errors(self, tmp_path):
        with service_stack(tmp_path, start_workers=False) as stack:
            client = BrokerClient(stack.url)
            assert client.health() is True
            with pytest.raises(ServiceError, match="unknown job"):
                client.status("nope")
            with pytest.raises(ServiceError, match="unknown path"):
                client._request("GET", "/api/v1/bogus")
            with pytest.raises(ConfigError, match="broker URL"):
                resolve_broker(None)

    def test_client_surfaces_unreachable_broker(self):
        client = BrokerClient("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(ServiceError, match="cannot reach broker"):
            client.health()

    def test_client_surfaces_a_connection_dropped_mid_reply(self):
        with dropping_server() as (url, requests):
            client = BrokerClient(url, timeout=5.0)
            with pytest.raises(ServiceError, match="cannot reach broker"):
                client.health()
            with pytest.raises(ServiceError, match="cannot reach broker"):
                client.lease("w1")
        assert requests == ["GET /api/v1/health", "POST /api/v1/lease"]

    def test_worker_outlives_a_connection_dropped_mid_reply(self):
        log: list[str] = []
        stop = threading.Event()
        with dropping_server() as (url, requests):
            timer = threading.Timer(0.5, stop.set)
            timer.start()
            try:
                processed = run_worker(
                    url, jobs="serial", poll=0.02, worker_id="w1", stop=stop, log=log.append
                )
            finally:
                timer.cancel()
        assert processed == 0
        assert sum("unreachable" in line for line in log) == 1
        assert len(requests) >= 2  # it kept asking after the first drop

    def test_run_server_binds_and_shuts_down(self, tmp_path):
        broker = Broker(tmp_path / "queue.sqlite3")
        ready = threading.Event()
        box: list = []
        thread = threading.Thread(
            target=run_server,
            args=(broker, "127.0.0.1", 0),
            kwargs={"ready": ready, "server_box": box},
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=10)
        url = f"http://127.0.0.1:{box[0].server_address[1]}"
        assert BrokerClient(url).health() is True
        box[0].shutdown()
        thread.join(timeout=10)
        broker.close()


@contextmanager
def dropping_server():
    """A socket that reads each request in full, then closes without a
    reply; yields ``(url, request lines seen)``."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    requests: list[str] = []
    done = threading.Event()

    def serve() -> None:
        while not done.is_set():
            try:
                connection, _address = listener.accept()
            except TimeoutError:
                continue
            with connection:
                connection.settimeout(5)
                head = b""
                while b"\r\n\r\n" not in head:
                    chunk = connection.recv(4096)
                    if not chunk:
                        break
                    head += chunk
                header, _sep, body = head.partition(b"\r\n\r\n")
                length = re.search(rb"(?im)^content-length:\s*(\d+)", header)
                while length and len(body) < int(length.group(1)):
                    body += connection.recv(4096)
                requests.append(b" ".join(header.split(b" ", 2)[:2]).decode())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}", requests
    finally:
        done.set()
        thread.join(timeout=10)
        listener.close()


def _raw_exchange(url, method, path, body=b"", headers=None):
    """One hand-made HTTP exchange → ``(status, decoded JSON body)``.

    Bypasses ``BrokerClient`` so a test can send what no client would.
    A handler that raises drops the connection (``RemoteDisconnected``)
    and one that hangs trips the socket timeout; both fail the test.
    """
    parts = urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestMalformedRequests:
    """Every malformed request gets a 400 with ``{"error": ...}``, fast."""

    @pytest.mark.parametrize(
        "query,field",
        [
            pytest.param("?wait=abc&done=0", "wait", id="wait-not-a-number"),
            pytest.param("?wait=1&done=x", "done", id="done-not-an-integer"),
            # A NaN deadline never passes: the request would hold a
            # server thread for as long as the job runs.
            pytest.param("?wait=nan&done=0", "wait", id="wait-nan"),
            pytest.param("?wait=inf&done=0", "wait", id="wait-inf"),
            pytest.param("?wait=-1&done=0", "wait", id="wait-negative"),
        ],
    )
    def test_status_query(self, tmp_path, query, field):
        with service_stack(tmp_path, start_workers=False) as stack:
            payload = {"experiment": "fig2", "params": {"trials": 1}, "axes": {}}
            job = BrokerClient(stack.url).submit(payload)["job_id"]
            status, reply = _raw_exchange(stack.url, "GET", f"/api/v1/studies/{job}{query}")
            assert status == 400
            assert field in reply["error"]
            assert stack.broker.status(job)["state"] == "running"

    @pytest.mark.parametrize(
        "path,body,field",
        [
            pytest.param("/api/v1/lease", ["w1"], "JSON object", id="lease-list-body"),
            # The lease long-poll's wait is checked like the status one's.
            *(
                pytest.param("/api/v1/lease", {"worker": "w1", "wait": wait}, "wait", id=name)
                for wait, name in [
                    (float("nan"), "lease-wait-nan"),
                    (float("inf"), "lease-wait-inf"),
                    (-1, "lease-wait-negative"),
                    ("abc", "lease-wait-not-a-number"),
                    # An int no float can hold: float() raised OverflowError.
                    (10**400, "lease-wait-400-digits"),
                ]
            ),
            # json reads NaN and Infinity; a study param must be finite,
            # or the broker queues cells that can only fail.
            pytest.param(
                "/api/v1/studies",
                {"experiment": "fig4", "params": {"prebuffers": [float("nan")]}, "axes": {}},
                "prebuffers",
                id="submit-nan-param",
            ),
            pytest.param(
                "/api/v1/studies",
                {"experiment": "fig1", "params": {"rtt_wifi": float("inf")}, "axes": {}},
                "rtt_wifi",
                id="submit-inf-param",
            ),
            pytest.param(
                "/api/v1/studies",
                {"experiment": "fig1", "params": {"rtt_wifi": 10**400}, "axes": {}},
                "rtt_wifi",
                id="submit-400-digit-param",
            ),
            pytest.param(
                "/api/v1/complete",
                {"job_id": "j", "cell": "x", "manifest_text": "", "npz_b64": ""},
                "cell",
                id="complete-cell-not-an-integer",
            ),
            pytest.param(
                "/api/v1/complete",
                {"job_id": "j", "cell": 0, "manifest_text": "", "npz_b64": "not base64!"},
                "npz_b64",
                id="complete-npz-not-base64",
            ),
            # Past sqlite's 64-bit integers: binding raised OverflowError.
            pytest.param(
                "/api/v1/complete",
                {"job_id": "j", "cell": 10**20, "manifest_text": "", "npz_b64": ""},
                "cell",
                id="complete-cell-past-64-bits",
            ),
            # Past int()'s digit limit: the JSON decoder raised ValueError.
            pytest.param(
                "/api/v1/complete",
                b'{"job_id": "j", "cell": ' + b"9" * 5000 + b"}",
                "JSON",
                id="complete-cell-5000-digits",
            ),
            # Past the decoder's recursion limit: RecursionError, not ValueError.
            pytest.param(
                "/api/v1/lease",
                b"[" * 100_000 + b"]" * 100_000,
                "JSON",
                id="lease-nested-100000-deep",
            ),
            # An axis is a list of values: an int was iterated (TypeError)
            # and a string split into characters.
            *(
                pytest.param(
                    "/api/v1/studies",
                    {"experiment": "fig2", "params": {"trials": 1}, "axes": {"seed": value}},
                    "axis 'seed' must be a JSON array",
                    id=name,
                )
                for value, name in [(5, "submit-axis-an-int"), ("abc", "submit-axis-a-string")]
            ),
        ],
    )
    def test_post_body(self, tmp_path, path, body, field):
        with service_stack(tmp_path, start_workers=False) as stack:
            status, reply = _raw_exchange(
                stack.url,
                "POST",
                path,
                body if isinstance(body, bytes) else json.dumps(body).encode(),
                {"Content-Type": "application/json"},
            )
            assert status == 400
            assert field in reply["error"]
            assert BrokerClient(stack.url).health() is True

    @pytest.mark.parametrize(
        "length",
        [
            "abc",
            "-1",
            # int() reads these as 5, 10 and 10**20: the first two framed
            # a body, the last raised out of the read.
            "+5",
            "1_0",
            "9" * 20,
            # Past the h1 parser's body limit, refused before the read:
            # reading raised OverflowError, MemoryError, or waited for
            # bytes that never came.
            "9223372036854775806",
            "100000000000",
            str(MAX_BODY + 1),
        ],
    )
    def test_content_length(self, tmp_path, length):
        # No body bytes: the server must answer from the header alone
        # (unread bytes at close would reset the connection).
        with service_stack(tmp_path, start_workers=False) as stack:
            status, reply = _raw_exchange(
                stack.url, "POST", "/api/v1/lease", b"", {"Content-Length": length}
            )
            assert status == 400
            assert "Content-Length" in reply["error"]

    def test_complete_with_an_unreadable_zip_is_refused_and_charged(self, tmp_path):
        # A compression method zipfile cannot read: its NotImplementedError
        # used to escape the handler and drop the connection.
        with service_stack(tmp_path, start_workers=False) as stack:
            client = BrokerClient(stack.url)
            payload = {"experiment": "fig2", "params": {"trials": 1}, "axes": {}}
            job = client.submit(payload)["job_id"]
            lease = client.lease("sloppy")
            manifest_text, npz_bytes = cell_archive(
                lease["experiment"], execute_cell(lease["experiment"], lease["params"])
            )
            directory = struct.unpack_from("<L", npz_bytes, len(npz_bytes) - 6)[0]
            patched = bytearray(npz_bytes)
            patched[8] = patched[directory + 10] = 99  # method 99, local and directory
            body = {
                "job_id": job,
                "cell": lease["cell"],
                "manifest_text": manifest_text,
                "npz_b64": base64.b64encode(bytes(patched)).decode(),
                "lease_id": lease["lease_id"],
                "worker": "sloppy",
            }
            status, reply = _raw_exchange(
                stack.url,
                "POST",
                "/api/v1/complete",
                json.dumps(body).encode(),
                {"Content-Type": "application/json"},
            )
            assert status == 200
            assert reply["accepted"] is False
            assert reply["reason"].startswith("invalid-archive: ")
            assert "compression method 99" in reply["reason"]
            info = client.status(job)["cells"][0]
            assert (info["state"], info["attempts"]) == ("pending", 1)

    @pytest.mark.parametrize(
        "cell",
        [
            pytest.param("9" * 20, id="past-64-bits"),
            pytest.param("9" * 5000, id="5000-digits"),
        ],
    )
    def test_result_cell(self, tmp_path, cell):
        with service_stack(tmp_path, start_workers=False) as stack:
            payload = {"experiment": "fig2", "params": {"trials": 1}, "axes": {}}
            job = BrokerClient(stack.url).submit(payload)["job_id"]
            status, reply = _raw_exchange(
                stack.url, "GET", f"/api/v1/studies/{job}/cells/{cell}/result"
            )
            assert status == 400
            assert "cell" in reply["error"]
            assert BrokerClient(stack.url).health() is True


class TestCli:
    def test_experiment_backend_service_end_to_end(self, tmp_path, capsys):
        with service_stack(tmp_path, workers=2) as stack:
            code = main(
                [
                    "experiment",
                    "fig2",
                    "--trials",
                    "1",
                    "--grid",
                    "seed=2014;2015",
                    "--backend",
                    "service",
                    "--broker",
                    stack.url,
                    "--save",
                    str(tmp_path / "cli-run"),
                ]
            )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert (tmp_path / "cli-run.json").exists()
        assert (tmp_path / "cli-run.npz").exists()
        assert "cache: 0 hit(s)" in captured.err

    def test_worker_command_drains_a_queue(self, tmp_path, capsys):
        with service_stack(tmp_path, start_workers=False) as stack:
            payload = {"experiment": "fig2", "params": {"trials": 1}, "axes": {}}
            job = BrokerClient(stack.url).submit(payload)["job_id"]
            code = main(["worker", stack.url, "--jobs", "serial", "--once", "--id", "cliw"])
            assert code == 0
            assert stack.broker.status(job)["state"] == "done"
        assert "processed 1 cell(s)" in capsys.readouterr().err

    def test_usage_errors_exit_2(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_BROKER", raising=False)
        assert main(["experiment", "fig2", "--backend", "service"]) == 2
        assert "broker URL" in capsys.readouterr().err
        assert main(["experiment", "fig2", "--broker", "http://x"]) == 2
        assert "--backend service" in capsys.readouterr().err
        assert (
            main(
                [
                    "experiment",
                    "fig2",
                    "--backend",
                    "service",
                    "--broker",
                    "http://x",
                    "--jobs",
                    "2",
                ]
            )
            == 2
        )
        assert "--jobs applies to the local backend" in capsys.readouterr().err
        assert main(["worker"]) == 2
        assert main(["serve", "--max-attempts", "0"]) == 2
