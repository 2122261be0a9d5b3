"""BENCH-PERF-CORE — kernel and campaign throughput trajectory.

Unlike the figure benches (which assert paper *shapes*), this one
tracks *speed*: raw kernel event throughput, TCP exchange throughput
(the hot path the closed-form slow start optimizes), whole HTTP range
requests per second with the kernel events each one buys, end-to-end trial
throughput serial vs ``--jobs auto``, whole-sweep campaign submission
vs the per-configuration barrier path, and columnar (OutcomeBatch /
vectorized bootstrap) vs per-trial Python-loop aggregation.  Numbers
land in ``benchmarks/results/BENCH_perf_core.json`` so the perf
trajectory is populated run over run.

Determinism is asserted alongside speed: the parallel campaign must
reproduce the serial outcomes byte-for-byte.

Speedup assertions are scaled to the runner: the ≥3× parallel target
only applies with ≥4 CPUs (trials are embarrassingly parallel, so the
pool scales with cores); single-core CI still measures and archives.
``--smoke`` (CI) shrinks every workload and skips the speedup floors —
shared runners are too noisy to assert ratios on — while still
exercising each path and archiving what it measured.
"""

from __future__ import annotations

import json
import os
import pickle
import time

import numpy as np
import pytest
from conftest import RESULTS_DIR

from repro.analysis.stats import bootstrap_ci, summarize
from repro.cdn.catalog import Catalog
from repro.cdn.tokens import TokenMint
from repro.cdn.videos import VideoMeta
from repro.cdn.videoserver import VideoServerApp
from repro.cdn.webproxy import stream_signature
from repro.core.config import PlayerConfig
from repro.http.client import SimHTTPClient
from repro.http.ranges import ByteRange
from repro.http.server import SimHTTPServer
from repro.net.bandwidth import ConstantBandwidth
from repro.net.env import Environment
from repro.net.iface import NetworkInterface
from repro.net.latency import ConstantLatency
from repro.net.link import Link
from repro.net.tcp import TCPConnection, TCPParams
from repro.net.topology import Host, Network
from repro.sim.campaign import Campaign, OutcomeBatch
from repro.sim.execution import SerialEngine, resolve_engine
from repro.sim.profiles import testbed_profile
from repro.sim.runner import TrialRunner
from repro.sim.shm import OutcomeArena, encode_side
from repro.units import KB, mbit

RESULT_FILE = RESULTS_DIR / "BENCH_perf_core.json"

#: Trial count of the paper's campaigns (§5.2) — the parallel target.
CAMPAIGN_TRIALS = 20

#: The seed tree's archived ``kernel_events_per_sec`` (commit 89e28d2,
#: this machine): the monolithic heapq kernel driving the same periodic
#: wake-up storm through generator timeouts — the workload the fast
#: lane replaced.  The recorded ``kernel_speedup_vs_seed`` is the
#: kernel rewrite's headline ratio against this pinned number.
SEED_KERNEL_EVENTS_PER_SEC = 516_785


@pytest.fixture(scope="module")
def perf_record(smoke):
    record: dict[str, object] = {
        "schema": "perf_core/v3",
        "cpu_count": os.cpu_count(),
        "smoke": smoke,
    }
    yield record
    RESULTS_DIR.mkdir(exist_ok=True)
    RESULT_FILE.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


class _Ticker:
    """A periodic wake-up churner on the bare-callback fast lane — the
    link ``_arm_wake`` pattern distilled: each firing re-arms itself
    until its budget runs out, so every event is one fast-lane push and
    one dispatch with zero Event allocations."""

    __slots__ = ("call_later", "remaining")

    def __init__(self, call_later, remaining):
        self.call_later = call_later
        self.remaining = remaining

    def __call__(self):
        left = self.remaining - 1
        if left:
            self.remaining = left
            self.call_later(0.001, self)


def _callback_storm(chains: int, depth: int) -> float:
    """Fast-lane events per second: ``chains`` concurrent churners,
    ``depth`` wake-ups each — the same logical workload the seed
    baseline drove through generator timeouts."""
    env = Environment()
    for _ in range(chains):
        env.call_later(0.001, _Ticker(env.call_later, depth))
    start = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - start
    return env.scheduled_count / elapsed


def _generator_storm(procs: int, timeouts: int) -> float:
    """Generator-timeout events per second — the seed's exact workload
    (``kernel_events_per_sec`` in the archived baseline), kept so the
    classic lane's trajectory stays visible too."""

    def worker(env, n):
        for _ in range(n):
            yield env.timeout(0.001)

    env = Environment()
    for _ in range(procs):
        env.process(worker(env, timeouts))
    start = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - start
    return env.scheduled_count / elapsed


def test_kernel_event_throughput(perf_record, smoke):
    """Dispatch rate of the bare discrete-event kernel, per lane.  The
    headline ``kernel_events_per_sec`` is the fast lane — the
    production hot path — and ``kernel_speedup_vs_seed`` is its ratio
    against the pinned seed baseline (same machine, same logical
    workload); ``kernel_live_speedup`` is its live ratio against the
    generator-timeout lane."""
    chains, depth = (10, 300) if smoke else (50, 2000)
    repeats = 1 if smoke else 5
    fast = max(_callback_storm(chains, depth) for _ in range(repeats))
    classic = max(_generator_storm(chains, depth) for _ in range(repeats))
    assert fast > 10_000  # sanity floor, not a target
    perf_record["kernel_events_per_sec"] = round(fast)
    perf_record["kernel_generator_events_per_sec"] = round(classic)
    perf_record["kernel_speedup_vs_seed"] = round(fast / SEED_KERNEL_EVENTS_PER_SEC, 3)
    perf_record["kernel_live_speedup"] = round(fast / classic, 3)


def test_tcp_exchange_throughput(perf_record, smoke):
    """Slow-start exchanges per second — the path where the closed-form
    cap schedule replaced a pacer process and the pooled timers
    replaced per-exchange Timeout allocations."""
    exchanges = 300 if smoke else 2000
    repeats = 1 if smoke else 2

    def run() -> float:
        env = Environment()
        link = Link(env, ConstantBandwidth(mbit(80.0)))
        conn = TCPConnection(
            env, link, ConstantLatency(0.020), TCPParams(idle_reset_after=0.05)
        )

        def main(env):
            yield env.process(conn.connect())
            for _ in range(exchanges):
                yield env.process(conn.exchange(64 * KB))
                yield env.timeout(0.2)  # idle reset: fresh slow start each time

        proc = env.process(main(env))
        start = time.perf_counter()
        env.run(until=proc)
        return exchanges / (time.perf_counter() - start)

    rate = max(run() for _ in range(repeats))
    assert rate > 100  # sanity floor
    perf_record["tcp_exchanges_per_sec"] = round(rate)


#: requests -> kernel entries the whole warm run schedules when its
#: caller delegates to ``client.fetch_range`` with ``yield from``.  Per request:
#: the RTT timer, ``flow.done`` and the link's wakes for the body (the
#: completion, a slow-start doubling while the window still binds, a
#: share of the once-per-second segment boundary).  Through the
#: five-deep process chain this replaced, every request bought eight
#: more (DESIGN.md "Request path").  Exact.
RANGE_REQUEST_EVENTS = {300: 1237, 3000: 12368}


def test_http_range_request_throughput(perf_record, smoke):
    """Warm ``SimHTTPClient.fetch_range`` of 64 KB ranges against a
    token-checking ``VideoServerApp`` — MSPlayer's unit of work, whole,
    as the simulated players run it: token + signature check, range
    slicing, header size, think time, RTT, body flow.  No floor on the
    rate (it tracks the trajectory); the event count is exact and
    asserted."""
    requests = 300 if smoke else 3000
    repeats = 1 if smoke else 3

    def run() -> tuple[float, int]:
        env = Environment()
        network = Network(env)
        iface = NetworkInterface(
            env,
            "wlan0",
            "wifi",
            Link(env, ConstantBandwidth(mbit(80.0))),
            ConstantLatency(0.020),
            "wifi-net",
            "10.0.0.2",
        )
        catalog = Catalog()
        catalog.add(
            VideoMeta(video_id="benchVIDEO1", title="t", author="a", duration_s=600.0, itags=(22,))
        )
        mint = TokenMint(secret=b"bench-token-secret")
        host = network.add_host(Host("v1.example", network_id="wifi-net"))
        SimHTTPServer(
            host,
            VideoServerApp(
                catalog, mint, clock=lambda: env.now, pool="wifi-net", signature_secret=b"sig"
            ),
        )
        token = mint.issue(0.0, "benchVIDEO1", "10.0.0.2", pool="wifi-net")
        signature = stream_signature("benchVIDEO1", 22, b"sig")
        client = SimHTTPClient(env, network, iface)

        def main(env):
            yield from client.connect("v1.example")
            before = env.scheduled_count
            start = time.perf_counter()
            for index in range(requests):
                byte_range = ByteRange(index * 64 * KB, (index + 1) * 64 * KB)
                yield from client.fetch_range(
                    "v1.example", "benchVIDEO1", 22, token, signature, byte_range
                )
            rate = requests / (time.perf_counter() - start)
            assert host.bytes_served == requests * 64 * KB
            return rate, env.scheduled_count - before

        return env.run(until=env.process(main(env)))

    runs = [run() for _ in range(repeats)]
    assert {events for _, events in runs} == {RANGE_REQUEST_EVENTS[requests]}, runs
    perf_record["http_range_requests_per_sec"] = round(max(r for r, _ in runs))
    perf_record["kernel_events_per_range_request"] = round(
        RANGE_REQUEST_EVENTS[requests] / requests, 3
    )


def test_campaign_throughput_serial_vs_parallel(perf_record, smoke):
    """A 20-trial fig3-style configuration, serial vs ``jobs='auto'``."""
    config = PlayerConfig(scheduler="harmonic", base_chunk_bytes=64 * KB)
    trials = 6 if smoke else CAMPAIGN_TRIALS
    runner = TrialRunner(testbed_profile, trials=trials)

    def run(engine):
        start = time.perf_counter()
        campaign = Campaign().add_run(runner, "perf-core", runner.msplayer(config))
        result = campaign.run(engine)["perf-core"]
        return time.perf_counter() - start, result

    serial_s, serial = run(SerialEngine())
    parallel_s, parallel = run(resolve_engine("auto"))
    speedup = serial_s / parallel_s

    perf_record["campaign_trials"] = trials
    perf_record["campaign_serial_s"] = round(serial_s, 4)
    perf_record["campaign_auto_s"] = round(parallel_s, 4)
    perf_record["campaign_auto_speedup"] = round(speedup, 3)
    perf_record["campaign_trials_per_sec_serial"] = round(trials / serial_s, 2)
    perf_record["campaign_trials_per_sec_auto"] = round(trials / parallel_s, 2)

    # Determinism before speed: byte-identical outcomes.
    assert serial.startup_delays() == parallel.startup_delays()
    assert [o.finished_at for o in serial.outcomes] == [
        o.finished_at for o in parallel.outcomes
    ]

    # Measured and archived everywhere; gated only where a pool can win.
    # Twenty short trials cannot amortise forking a pool on 2 CPUs (the
    # parent process competes with both workers), so the floor starts at
    # 4 CPUs, as in test_campaign_vs_barrier_throughput.
    if not smoke and (os.cpu_count() or 1) >= 4:
        assert speedup >= 3.0, f"expected >=3x on {os.cpu_count()} CPUs, got {speedup:.2f}x"


def _sweep_configs() -> list[tuple[str, PlayerConfig]]:
    """A fig3-slice sweep: 6 configurations, heterogeneous durations."""
    configs = []
    for scheduler in ("harmonic", "ewma", "ratio"):
        for chunk in (64 * KB, 256 * KB):
            configs.append(
                (
                    f"{scheduler}-{chunk // KB}KB",
                    PlayerConfig(scheduler=scheduler, base_chunk_bytes=chunk),
                )
            )
    return configs


def test_campaign_vs_barrier_throughput(perf_record, smoke):
    """Whole-sweep campaign submission vs the per-configuration barrier
    path (one campaign per configuration, each run to completion before
    the next), both on ``jobs='auto'``.  The merged campaign feeds every
    configuration's trials to the pool at once, so workers never idle
    at configuration boundaries."""
    trials = 3 if smoke else 8
    engine = resolve_engine("auto")

    # Warm the shared pool outside both timed regions so neither path
    # pays the one-off fork cost (pools are cached by worker count —
    # whichever run went first would otherwise absorb it).
    warmup = TrialRunner(testbed_profile, trials=2)
    Campaign().add_run(warmup, "warmup", warmup.msplayer(PlayerConfig())).run(engine)

    def run_barrier():
        runner = TrialRunner(testbed_profile, trials=trials)
        start = time.perf_counter()
        results = {
            label: Campaign()
            .add_run(runner, label, runner.msplayer(config))
            .run(engine)[label]
            for label, config in _sweep_configs()
        }
        return time.perf_counter() - start, results

    def run_campaign():
        runner = TrialRunner(testbed_profile, trials=trials)
        campaign = Campaign()
        # Spec construction inside the timed region, symmetric with the
        # barrier path (which builds specs per configuration).
        start = time.perf_counter()
        for label, config in _sweep_configs():
            campaign.add_run(runner, label, runner.msplayer(config))
        results = campaign.run(engine)
        return time.perf_counter() - start, results

    barrier_s, barrier = run_barrier()
    campaign_s, campaign = run_campaign()
    speedup = barrier_s / campaign_s

    perf_record["sweep_configurations"] = len(_sweep_configs())
    perf_record["sweep_trials_per_config"] = trials
    perf_record["sweep_barrier_s"] = round(barrier_s, 4)
    perf_record["sweep_campaign_s"] = round(campaign_s, 4)
    perf_record["sweep_campaign_speedup"] = round(speedup, 3)

    # Determinism first: interleaving changes nothing per label.
    for label, _config in _sweep_configs():
        assert campaign[label].startup_delays() == barrier[label].startup_delays()
        assert [o.finished_at for o in campaign[label].outcomes] == [
            o.finished_at for o in barrier[label].outcomes
        ]

    # Barrier removal only shows with real workers to keep busy; the
    # serial fallback (1 CPU) runs the same trials either way.
    if not smoke and (os.cpu_count() or 1) >= 4:
        assert speedup >= 1.05, f"campaign slower than barrier path: {speedup:.2f}x"


def _columnar_batch(outcomes: list) -> OutcomeBatch:
    """The batch an in-process collection assembles: dense scalars
    through a private-memory arena, the remainder as side records."""
    arena = OutcomeArena.local(len(outcomes))
    for row, outcome in enumerate(outcomes):
        arena.write(row, outcome)
    sides = [encode_side(outcome) for outcome in outcomes]
    return OutcomeBatch.from_dense_and_sides(arena.read_columns(), sides)


def _seed_outcomes(label: str) -> list:
    """Four real one-cycle testbed sessions, for replicating into
    campaign-sized outcome lists."""
    runner = TrialRunner(testbed_profile, trials=4)
    driver = runner.msplayer(PlayerConfig(), stop="cycles", target_cycles=1)
    return Campaign().add_run(runner, label, driver).run()[label].outcomes


def test_columnar_aggregation_throughput(perf_record, smoke):
    """OutcomeBatch-vectorized analysis vs the retired per-trial
    Python-loop accessors, on a campaign-sized outcome list."""
    # Campaign-scale sample without campaign-scale simulation time:
    # replicate the real outcomes (aggregation cost is what's measured).
    outcomes = (_seed_outcomes("agg") * 500)[: (400 if smoke else 2000)]

    def python_loop_queries():
        """What the retired accessors did: every statistic re-walks the
        outcome objects (TrialResult.startup_delays / cycle_durations /
        traffic_fractions were each their own pass over the Python
        objects, and Table 1 alone made four of them)."""
        startups = [o.startup_delay for o in outcomes if o.startup_delay is not None]
        cycles: list[float] = []
        for outcome in outcomes:
            cycles.extend(outcome.metrics.completed_cycle_durations())
        values = [summarize(startups).median, summarize(cycles).median]
        for path_id in (0, 1):
            for phase in ("prebuffer", "rebuffer"):
                fractions = [
                    o.metrics.traffic_fraction(path_id, phase) for o in outcomes
                ]
                values.append(float(np.mean(fractions)))
                values.append(float(np.std(fractions)))
        return values

    batch = _columnar_batch(outcomes)

    def columnar_queries():
        """Vectorized queries on the cached batch — TrialResult builds
        its OutcomeBatch once and every accessor rides on it."""
        values = [
            summarize(batch.startup_delays()).median,
            summarize(batch.cycle_durations).median,
        ]
        for path_id in (0, 1):
            for phase in ("prebuffer", "rebuffer"):
                fractions = batch.traffic_fractions(path_id, phase)
                values.append(float(np.mean(fractions)))
                values.append(float(np.std(fractions)))
        return values

    assert python_loop_queries() == columnar_queries()

    def best_of(fn, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    extract_s = best_of(lambda: _columnar_batch(outcomes))
    loop_s = best_of(python_loop_queries)
    columnar_s = best_of(columnar_queries)
    query_speedup = loop_s / columnar_s
    # Including the one-off extraction pass (amortized across every
    # accessor call in real use — TrialResult caches the batch).
    total_speedup = loop_s / (extract_s + columnar_s)

    perf_record["aggregation_outcomes"] = len(outcomes)
    perf_record["aggregation_extract_ms"] = round(extract_s * 1000, 3)
    perf_record["aggregation_python_loop_ms"] = round(loop_s * 1000, 3)
    perf_record["aggregation_columnar_ms"] = round(columnar_s * 1000, 3)
    perf_record["aggregation_query_speedup"] = round(query_speedup, 3)
    perf_record["aggregation_total_speedup"] = round(total_speedup, 3)

    if not smoke:
        assert query_speedup > 2.0, (
            f"vectorized queries should beat per-trial walks, got {query_speedup:.2f}x"
        )


def test_shm_collection_throughput(perf_record, smoke):
    """The trial-result collection layer in isolation.

    The worker stores the dense scalars straight into the arena row and
    pickles only the flat ``SideRecord`` remainder through the pool
    pipe; the parent assembles the batch from the arena columns without
    materializing a single outcome object.  Simulation time is excluded
    on purpose — this measures collection alone.
    """
    n = 400 if smoke else 2000
    seed = _seed_outcomes("ipc")
    outcomes = (seed * (1 + n // len(seed)))[:n]

    def shm_collection() -> OutcomeBatch:
        arena = OutcomeArena.create(len(outcomes))
        try:
            for i, outcome in enumerate(outcomes):  # worker side, in place
                arena.write(i, outcome)
            sides = [
                pickle.loads(pickle.dumps(encode_side(o))) for o in outcomes
            ]  # the side channel through the pipe
            dense = arena.read_columns()
        finally:
            arena.destroy()
        return OutcomeBatch.from_dense_and_sides(dense, sides)

    # Determinism before speed: the batch collected through shared
    # memory and a pickled side channel is the in-process one, bit for
    # bit — every column the dataclass declares.
    assert shm_collection().column_mismatches(_columnar_batch(outcomes)) == []

    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        shm_collection()
        best = min(best, time.perf_counter() - start)

    perf_record["ipc_outcomes"] = n
    perf_record["ipc_side_record_bytes"] = len(pickle.dumps(encode_side(outcomes[0])))
    perf_record["ipc_shm_collection_ms"] = round(best * 1000, 3)


def test_bootstrap_vectorization_throughput(perf_record, smoke):
    """Vectorized bootstrap (one ``(resamples, n)`` draw) vs the
    retired 2000-``rng.choice``-calls implementation."""
    rng = np.random.Generator(np.random.PCG64(1))
    values = rng.normal(10.0, 2.0, size=200)

    def old_bootstrap():
        gen = np.random.Generator(np.random.PCG64(0))
        stats = np.empty(2000)
        for i in range(2000):
            stats[i] = np.median(gen.choice(values, size=values.size, replace=True))
        return float(np.quantile(stats, 0.025)), float(np.quantile(stats, 0.975))

    start = time.perf_counter()
    old_ci = old_bootstrap()
    old_s = time.perf_counter() - start

    start = time.perf_counter()
    new_ci = bootstrap_ci(values)
    new_s = time.perf_counter() - start
    speedup = old_s / new_s

    perf_record["bootstrap_loop_ms"] = round(old_s * 1000, 3)
    perf_record["bootstrap_vectorized_ms"] = round(new_s * 1000, 3)
    perf_record["bootstrap_speedup"] = round(speedup, 3)

    # Different resample draw, same distribution: intervals overlap.
    assert max(old_ci[0], new_ci[0]) < min(old_ci[1], new_ci[1])
    if not smoke:
        assert speedup > 2.0, f"vectorized bootstrap should win big, got {speedup:.2f}x"
