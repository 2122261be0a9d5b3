"""Single-layer micro measurements for the traced run.

Each probe drives one layer through its public API on a small fixed
input (or on the traced repetition's own outcomes) and returns
``{metric name: value}``.  They say how fast a layer is in isolation;
the sampler's ``*.self_share`` says how much of a workload it is — a
layer metric only predicts an end-to-end change through both.
"""

from __future__ import annotations

import pickle
import statistics
import threading
import time
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

from repro.http.h1 import H1Parser
from repro.http.messages import Request, Response
from repro.http.ranges import ByteRange
from repro.net.bandwidth import ConstantBandwidth
from repro.net.env import Environment
from repro.net.latency import ConstantLatency
from repro.net.link import Link
from repro.net.tcp import TCPConnection, TCPParams
from repro.rng import RngFactory
from repro.serve import Broker, BrokerClient
from repro.serve.cells import cell_archive, execute_cell
from repro.serve.httpd import create_server
from repro.sim.campaign import OutcomeBatch
from repro.sim.scenario import LTE_NET, WIFI_NET
from repro.sim.shm import OutcomeArena, encode_side
from repro.study import Study, StudyCache, StudyResult, code_fingerprint, get_experiment
from repro.units import KB, mbit

__all__ = ["broker", "cache", "collection", "fixed", "registry", "scenario_plan"]


def _timed(call: Callable[[], Any]) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def _median_ms(call: Callable[[], Any], repeats: int) -> float:
    return statistics.median(_timed(call) for _ in range(repeats)) * 1e3


# ---------------------------------------------------------------------------
# Workload-independent probes
# ---------------------------------------------------------------------------


class _Ticker:
    """A wake-up that re-arms itself on the bare-callback lane until its
    budget runs out: one push and one dispatch per event, no allocation."""

    __slots__ = ("call_later", "remaining")

    def __init__(self, call_later: Callable[..., None], remaining: int) -> None:
        self.call_later = call_later
        self.remaining = remaining

    def __call__(self) -> None:
        self.remaining -= 1
        if self.remaining:
            self.call_later(0.001, self)


def _callback_storm(chains: int = 50, depth: int = 1000) -> float:
    env = Environment()
    for _ in range(chains):
        env.call_later(0.001, _Ticker(env.call_later, depth))
    elapsed = _timed(env.run)
    return env.scheduled_count / elapsed


def _generator_storm(processes: int = 50, timeouts: int = 600) -> float:
    def worker(env: Environment) -> Any:
        for _ in range(timeouts):
            yield env.timeout(0.001)

    env = Environment()
    for _ in range(processes):
        env.process(worker(env))
    elapsed = _timed(env.run)
    return env.scheduled_count / elapsed


def _tcp_exchanges(exchanges: int = 1000) -> float:
    """64 KB exchanges per second, each from a fresh slow start."""
    env = Environment()
    link = Link(env, ConstantBandwidth(mbit(80.0)))
    connection = TCPConnection(env, link, ConstantLatency(0.020), TCPParams(idle_reset_after=0.05))

    def main(env: Environment) -> Any:
        yield env.process(connection.connect())
        for _ in range(exchanges):
            yield env.process(connection.exchange(64 * KB))
            yield env.timeout(0.2)

    process = env.process(main(env))
    return exchanges / _timed(lambda: env.run(until=process))


def _http_messages(pairs: int = 2000) -> float:
    """Range request / 206 response round trips through build, encode
    and ``H1Parser.feed`` per second (two messages per pair)."""
    body = b"\0" * 1024
    requests = H1Parser("request")
    responses = H1Parser("response")

    def run() -> None:
        for index in range(pairs):
            byte_range = ByteRange(index * 1024, (index + 1) * 1024)
            request = Request.get("/videoplayback?itag=22", "cdn.example", byte_range)
            if len(requests.feed(request.encode())) != 1:
                raise RuntimeError("request did not parse")
            response = Response.partial_content(byte_range, pairs * 1024, body=body)
            responses.expect_normal_response()
            if len(responses.feed(response.encode())) != 1:
                raise RuntimeError("response did not parse")

    return 2 * pairs / _timed(run)


def fixed() -> dict[str, float]:
    """The default kernel's two storms, the TCP exchange probe, the HTTP
    message probe and the memoized code fingerprint (median of three)."""
    code_fingerprint()
    return {
        "net.kernel.callback_events_per_s": statistics.median(_callback_storm() for _ in range(3)),
        "net.kernel.generator_events_per_s": statistics.median(
            _generator_storm() for _ in range(3)
        ),
        "net.tcp.exchanges_per_s": statistics.median(_tcp_exchanges() for _ in range(3)),
        "http.messages_per_s": statistics.median(_http_messages() for _ in range(3)),
        "study.cache.fingerprint_s": statistics.median(_timed(code_fingerprint) for _ in range(5)),
    }


def broker(scratch: Path, cells: int = 12) -> dict[str, float]:
    """Direct in-process calls on a scratch ``Broker`` (with cache), and
    ``BrokerClient.health`` round trips to it over loopback HTTP."""
    study = Study("fig2", trials=1).grid(seed=range(1, cells + 1))
    payload = {
        "experiment": study.experiment_id,
        "params": dict(study.params),
        "axes": study.axes,
    }
    queue = Broker(scratch / "probe-queue.db", StudyCache(scratch / "probe-queue-cache"))
    server = create_server(queue)
    serving = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    serving.start()
    try:
        start = time.perf_counter()
        job_id = queue.submit(payload)["job_id"]
        submit_s = time.perf_counter() - start
        lease_s, complete_s = [], []
        for _ in range(cells):
            start = time.perf_counter()
            lease = queue.lease("probe")
            lease_s.append(time.perf_counter() - start)
            cell = execute_cell(lease["experiment"], lease["params"])
            manifest_text, npz_bytes = cell_archive(lease["experiment"], cell)
            start = time.perf_counter()
            queue.complete(job_id, lease["cell"], manifest_text, npz_bytes, lease["lease_id"])
            complete_s.append(time.perf_counter() - start)
        client = BrokerClient(f"http://127.0.0.1:{server.server_address[1]}")
        return {
            "serve.broker.submit_ms_per_cell": submit_s / cells * 1e3,
            "serve.broker.lease_ms": statistics.median(lease_s) * 1e3,
            "serve.broker.complete_ms": statistics.median(complete_s) * 1e3,
            "serve.broker.status_ms": _median_ms(lambda: queue.status(job_id), 9),
            "serve.broker.result_ms": _median_ms(lambda: queue.result(job_id, 0), 9),
            "serve.httpd.roundtrip_ms": _median_ms(client.health, 31),
        }
    finally:
        server.shutdown()
        serving.join()
        server.server_close()
        queue.close()


# ---------------------------------------------------------------------------
# Probes on the traced repetition's own data
# ---------------------------------------------------------------------------


def collection(outcomes: Sequence[Any]) -> dict[str, float]:
    """The shm collection path and batch assembly, per outcome row, on
    (up to 512 of) the workload's own session outcomes."""
    outcomes = list(outcomes[:512])
    if not outcomes:
        return {
            "sim.shm.collect_us_per_row": 0.0,
            "sim.shm.side_bytes_per_row": 0.0,
            "sim.campaign.assemble_us_per_row": 0.0,
        }
    rows = len(outcomes)
    arena = OutcomeArena.create(rows)
    try:
        start = time.perf_counter()
        for row, outcome in enumerate(outcomes):
            arena.write(row, outcome)
        sides = [encode_side(outcome) for outcome in outcomes]
        dense = arena.read_columns()
        collect_s = time.perf_counter() - start
    finally:
        arena.destroy()
    assemble_s = _timed(lambda: OutcomeBatch.from_dense_and_sides(dense, sides))
    return {
        "sim.shm.collect_us_per_row": collect_s / rows * 1e6,
        "sim.shm.side_bytes_per_row": len(pickle.dumps(sides)) / rows,
        "sim.campaign.assemble_us_per_row": assemble_s / rows * 1e6,
    }


def cache(scratch: Path, results: Sequence[StudyResult]) -> dict[str, float]:
    """``StudyCache.store`` then ``lookup`` per cell, on (up to 16 of)
    the workload's own finished cells."""
    store = StudyCache(scratch / "probe-cells")
    fingerprint = code_fingerprint()
    cells = [
        (get_experiment(result.experiment_id), cell)
        for result in results
        for cell in result.cells
        if cell.result is not None
    ][:16]
    if not cells:
        return {"study.cache.store_ms_per_cell": 0.0, "study.cache.lookup_ms_per_cell": 0.0}

    def store_all() -> None:
        for definition, cell in cells:
            store.store(definition, cell.params, cell, fingerprint)

    store_s = _timed(store_all)
    hits: list[Any] = []
    lookup_s = _timed(
        lambda: hits.extend(
            store.lookup(definition, cell.params, fingerprint) for definition, cell in cells
        )
    )
    if any(hit is None for hit in hits):
        raise RuntimeError("a freshly stored cell missed the cache")
    return {
        "study.cache.store_ms_per_cell": store_s / len(cells) * 1e3,
        "study.cache.lookup_ms_per_cell": lookup_s / len(cells) * 1e3,
    }


def registry(studies: Sequence[Study]) -> dict[str, float]:
    """``ExperimentDef.build`` over every cell of the workload's studies."""
    specs = 0
    start = time.perf_counter()
    for study in studies:
        for overrides in study.cells():
            specs += len(study.definition.build({**study.params, **overrides}).campaign)
    return {
        "study.registry.build_s": time.perf_counter() - start,
        "study.registry.specs": float(specs),
    }


def scenario_plan(specs: Sequence[Any]) -> float:
    """Seconds to sample every scenario spec's plan: catalog, client
    mix, arrival times and churn timeline (0 without scenario specs)."""
    total = 0.0
    for spec in specs:
        if not hasattr(spec, "mix"):
            continue
        world = spec.profile_factory()

        def plan(spec: Any = spec, world: Any = world) -> None:
            factory = RngFactory(spec.seed)
            catalog = spec.mix.build_catalog(factory)
            spec.mix.assign(factory, spec.client_count, catalog)
            spec.arrivals.times(spec.seed, spec.client_count)
            spec.churn.timeline(
                spec.seed,
                networks=(WIFI_NET, LTE_NET),
                hosts_per_network=world.video_servers_per_network,
            )

        total += _timed(plan)
    return total
