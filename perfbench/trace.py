"""Tracing for the traced run: spans, a stack sampler, an event counter.

Everything here lives on the benchmark's side of the public API — the
program under test is not edited.  Three instruments, all off during the
end-to-end measurement and on only in the separate traced repetition:

* :class:`Tracer` — spans (id, parent, name, start, end, attributes)
  around each public call at a layer boundary, kept in memory and
  written out once at the end;
* :class:`Sampler` — an interval timer whose handler every 5 ms
  attributes each thread's stack to the innermost frame under
  ``src/repro/`` (library time is charged to the calling layer) and
  classes the sample ``busy`` or ``wait``;
* :func:`counting_environments` — wraps ``Environment.__init__`` so the
  traced run can read every environment's public ``scheduled_count``.

:class:`TracingEngine` is a conforming serial ``ExecutionEngine`` that
replays ``TrialSpec.run`` as its three public steps so each gets a span.
"""

from __future__ import annotations

import functools
import itertools
import json
import signal
import sys
import threading
import time
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from contextlib import AbstractContextManager, contextmanager, nullcontext
from pathlib import Path
from typing import Any

import repro
from repro.net.env import Environment
from repro.serve import BrokerClient
from repro.sim.execution import TrialSpec
from repro.sim.scenario import Scenario

__all__ = [
    "LAYERS",
    "Sampler",
    "Tracer",
    "TracingEngine",
    "add_spans",
    "counting_environments",
    "layer_of_module",
]

_PACKAGE_ROOT = Path(repro.__file__).resolve().parent

#: Module path prefix (relative to ``src/repro``, no suffix) → layer; the
#: first match wins, so specific modules precede their package.
_LAYER_PREFIXES = (
    ("net/env", "net.kernel"),
    ("net/events", "net.kernel"),
    ("net/calendar", "net.kernel"),
    ("net/simclock", "net.kernel"),
    ("net/_ckernel", "net.kernel"),
    ("net/link", "net.link"),
    ("net/bandwidth", "net.bandwidth"),
    ("net/tcp", "net.tcp"),
    ("net/", "net.other"),
    ("http/", "http"),
    ("core/", "core"),
    ("cdn/", "cdn"),
    ("sim/scenario", "sim.scenario"),
    ("sim/profiles", "sim.scenario"),
    ("sim/driver", "sim.driver"),
    ("sim/singlepath", "sim.driver"),
    ("baselines/", "sim.driver"),
    ("sim/execution", "sim.execution"),
    ("sim/shm", "sim.collect"),
    ("sim/campaign", "sim.collect"),
    ("sim/runner", "study.registry"),
    ("scenarios/", "scenarios"),
    ("ext/", "scenarios"),
    ("study/archive", "study.archive"),
    ("study/cache", "study.cache"),
    ("study/", "study.registry"),
    ("analysis/", "analysis"),
    ("serve/broker", "serve.broker"),
    ("serve/httpd", "serve.httpd"),
    ("serve/client", "serve.httpd"),
    ("serve/worker", "serve.worker"),
    ("serve/engine", "serve.engine"),
    ("serve/", "serve.cells"),
)

#: Every layer a sample can land in: the table above, ``misc`` for the
#: rest of the package (rng, units, errors, cli, …) and ``lib`` for
#: stacks with no ``repro`` frame at all.  The ``*.self_share`` metrics
#: partition busy samples over exactly these names.
LAYERS = tuple(dict.fromkeys(layer for _prefix, layer in _LAYER_PREFIXES)) + ("misc", "lib")

#: Innermost-frame modules that mean "blocked, not computing" — the
#: fallback classification where per-thread on-CPU time is unreadable.
_WAIT_MODULES = (
    "threading",
    "selectors",
    "socket",
    "socketserver",
    "concurrent/futures",
    "multiprocessing",
)


def layer_of_module(filename: str) -> str | None:
    """The layer owning one source file, or ``None`` outside ``src/repro``."""
    try:
        relative = Path(filename).resolve().relative_to(_PACKAGE_ROOT).as_posix()
    except ValueError:
        return None
    for prefix, layer in _LAYER_PREFIXES:
        if relative.startswith(prefix):
            return layer
    return "misc"


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing.

    Parent links come from a per-thread stack of open spans, so spans of
    the service worker thread nest under that thread's own calls.
    """

    def __init__(self, workload: str, enabled: bool = True) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._open = threading.local()

    def span(self, name: str, **attrs: Any) -> AbstractContextManager[dict[str, Any] | None]:
        """Time one call; yields the span's attribute dict (or ``None``)."""
        return self._span(name, attrs) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str, attrs: dict[str, Any]) -> Iterator[dict[str, Any]]:
        stack = self._open.__dict__.setdefault("stack", [])
        record = {
            "id": next(self._ids),
            "parent": stack[-1] if stack else None,
            "workload": self.workload,
            "name": name,
            "thread": threading.current_thread().name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        stack.append(record["id"])
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def clear(self) -> None:
        self.spans.clear()

    def named(self, name: str) -> list[dict[str, Any]]:
        return [span for span in self.spans if span["name"] == name]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name`` (seconds)."""
        return sum(span["end"] - span["start"] for span in self.named(name))

    def write(self, path: Path) -> None:
        """One JSON object per line, in start order."""
        ordered = sorted(self.spans, key=lambda span: span["start"])
        path.write_text("".join(json.dumps(span, sort_keys=True) + "\n" for span in ordered))


OFF = Tracer("", enabled=False)


def add_spans(client: BrokerClient, tracer: Tracer, role: str) -> BrokerClient:
    """Make each endpoint call of ``client`` record a span.

    The span is named ``serve.<role>.<endpoint>`` and carries ``hit``:
    whether the call returned something (a lease poll that found no
    work returns ``None``).
    """

    def spanned(name: str, call: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(call)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(f"serve.{role}.{name}") as attrs:
                result = call(*args, **kwargs)
                attrs["hit"] = result is not None
                return result

        return wrapper

    for name in ("submit", "status", "lease", "heartbeat", "complete", "fail", "result"):
        setattr(client, name, spanned(name, getattr(client, name)))
    return client


# ---------------------------------------------------------------------------
# Counts
# ---------------------------------------------------------------------------


@contextmanager
def counting_environments() -> Iterator[list[Environment]]:
    """Collect every ``Environment`` built while the block runs.

    Installed for the traced repetition only and removed after it; the
    caller reads ``scheduled_count`` off the collected environments and
    clears the list as it goes, so worlds are not kept alive.
    """
    created: list[Environment] = []
    original = Environment.__init__

    @functools.wraps(original)
    def counted(self: Environment, *args: Any, **kwargs: Any) -> None:
        original(self, *args, **kwargs)
        created.append(self)

    Environment.__init__ = counted  # type: ignore[method-assign]
    try:
        yield created
    finally:
        Environment.__init__ = original  # type: ignore[method-assign]


class TracingEngine:
    """A serial ``ExecutionEngine`` that spans each work unit's steps.

    Trial specs are replayed as the three public steps ``TrialSpec.run``
    performs (``Scenario(...)``, ``spec.driver(scenario)``,
    ``driver.run()``); population specs run whole.  ``environments`` is
    the list :func:`counting_environments` fills.
    """

    name = "traced-serial"
    jobs = 1

    def __init__(self, tracer: Tracer, environments: list[Environment]) -> None:
        self.tracer = tracer
        self.environments = environments
        self.reset()

    def reset(self) -> None:
        self.specs: list[Any] = []
        self.outcomes: list[Any] = []
        self.events = 0
        self.sessions = 0

    def map(self, specs: Sequence[Any]) -> list:
        span = self.tracer.span
        results = []
        with span("sim.execution.collect", units=len(specs)):
            for spec in specs:
                if isinstance(spec, TrialSpec):
                    with span("sim.scenario.build"):
                        scenario = Scenario(
                            spec.profile_factory(), seed=spec.seed, config=spec.scenario_config
                        )
                        if spec.scenario_hook is not None:
                            spec.scenario_hook(scenario)
                    with span("sim.driver.build"):
                        driver = spec.driver(scenario)
                    with span("sim.driver.run"):
                        result = driver.run()
                    self.outcomes.append(result)
                    self.sessions += 1
                else:
                    with span("sim.driver.run", label=spec.label):
                        result = spec.run()
                    self.outcomes.extend(result.outcomes)
                    self.sessions += len(result.outcomes)
                self.events += sum(env.scheduled_count for env in self.environments)
                self.environments.clear()
                results.append(result)
        self.specs.extend(specs)
        return results


# ---------------------------------------------------------------------------
# The stack sampler
# ---------------------------------------------------------------------------


class Sampler:
    """Samples every thread's stack ``hz`` times a second while active.

    A wall-clock interval timer raises ``SIGALRM``; the handler runs in
    the main thread at its next bytecode boundary and reads every
    thread's current frame.  (A sampling *thread* cannot do this job:
    it gets the interpreter lock mostly where the program lets go of it
    voluntarily — inside numpy calls — and on ``paper_figures`` put 0.80
    of the samples in ``net.bandwidth`` where this sampler and cProfile
    both put 0.13.)  For the same reason the switch interval is lowered
    to 0.2 ms while sampling, which bounds how far a busy *non-main*
    thread can run on to its next voluntary release before the handler
    sees it; the main thread is sampled exactly where it was interrupted.

    ``counts[(layer, state)]`` accumulates samples; ``state`` is
    ``busy`` when the thread was on a CPU for at least half of the time
    since its previous sample (``/proc/self/task/<tid>/schedstat``), else
    ``wait``.  Where that file is unreadable the innermost frame's module
    decides instead (:data:`_WAIT_MODULES`).  Must be entered and left on
    the main thread.
    """

    def __init__(self, hz: float = 200.0) -> None:
        self.interval = 1.0 / hz
        self.counts: Counter[tuple[str, str]] = Counter()
        self.ticks = 0
        self._layers: dict[str, str | None] = {}
        self._on_cpu: dict[int, tuple[float, int]] = {}

    def __enter__(self) -> Sampler:
        self._switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(0.0002)
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        sys.setswitchinterval(self._switch_interval)

    def _sample(self, _signum: int, interrupted: Any) -> None:
        self.ticks += 1
        now = time.perf_counter()
        main = threading.get_ident()
        native_ids = {thread.ident: thread.native_id for thread in threading.enumerate()}
        for ident, frame in sys._current_frames().items():
            if ident == main:
                frame = interrupted  # not this handler's own frame
            busy = self._was_on_cpu(native_ids.get(ident), now)
            if busy is None:
                module = frame.f_code.co_filename
                busy = not any(f"/{name}" in module for name in _WAIT_MODULES)
            self.counts[(self._layer(frame), "busy" if busy else "wait")] += 1

    def _layer(self, frame: Any) -> str:
        while frame is not None:
            filename = frame.f_code.co_filename
            if filename not in self._layers:
                self._layers[filename] = layer_of_module(filename)
            layer = self._layers[filename]
            if layer is not None:
                return layer
            frame = frame.f_back
        return "lib"

    def _was_on_cpu(self, native_id: int | None, now: float) -> bool | None:
        """Whether the thread ran for most of the time since last seen."""
        if native_id is None:
            return None
        try:
            with open(f"/proc/self/task/{native_id}/schedstat") as stat:
                ran_ns = int(stat.read().split()[0])
        except (OSError, ValueError, IndexError):
            return None
        previous = self._on_cpu.get(native_id)
        self._on_cpu[native_id] = (now, ran_ns)
        if previous is None:
            return None
        seen_at, ran_before = previous
        return (ran_ns - ran_before) >= 0.5e9 * (now - seen_at)

    def shares(self) -> dict[str, float]:
        """Each layer's share of the busy samples (sums to 1)."""
        busy = {layer: self.counts[(layer, "busy")] for layer in LAYERS}
        total = sum(busy.values())
        return {layer: (count / total if total else 0.0) for layer, count in busy.items()}
