"""Event and process primitives for the discrete-event kernel.

The design follows the classic generator-based pattern (as in SimPy):

* an :class:`Event` is a one-shot container that is *triggered* with a
  value (success) or an exception (failure) and then runs callbacks;
* a :class:`Process` wraps a generator function; each value the
  generator ``yield``\\ s must be an event, and the process resumes when
  that event fires;
* :class:`Timeout` is an event triggered by the passage of simulated
  time;
* :class:`AnyOf` / :class:`AllOf` compose events.

Only the scheduling queue lives in :mod:`repro.net.env`; the state
machine for events and processes is entirely here so it can be unit
tested without a running loop.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterable
from typing import TYPE_CHECKING

from ..errors import Interrupt, ProcessError

if TYPE_CHECKING:  # pragma: no cover
    from .env import Environment

#: Sentinel distinguishing "not yet triggered" from "triggered with None".
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    Lifecycle: *pending* → (``succeed`` | ``fail``) → *triggered* →
    callbacks run by the environment → *processed*.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: object = _PENDING
        self._ok: bool | None = None
        #: Set when a failure's exception was delivered to at least one
        #: waiter (or explicitly defused); undelivered failures raise at
        #: the end of the run so errors never pass silently.
        self.defused = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value or an exception."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if not self.triggered:
            raise ProcessError("event value not yet available")
        return bool(self._ok)

    @property
    def value(self) -> object:
        """The success value or failure exception carried by the event."""
        if self._value is _PENDING:
            raise ProcessError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise ProcessError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if not isinstance(exception, BaseException):
            raise ProcessError(f"fail() needs an exception, got {exception!r}")
        if self.triggered:
            raise ProcessError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule_event(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Relay another event's outcome into this one (used by conditions)."""
        if event._ok:
            self.succeed(event._value)
        else:
            event.defused = True
            self.fail(event._value)  # type: ignore[arg-type]

    # -- composition ------------------------------------------------------

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after ``delay`` seconds of simulated time."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: object = None) -> None:
        if not delay >= 0:
            raise ProcessError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule_event(self, delay=delay)

    # A timeout is triggered at construction; the scheduled time just has
    # not arrived yet.  Override to reflect "will fire, cannot be failed".
    def succeed(self, value: object = None) -> "Event":  # pragma: no cover
        raise ProcessError("Timeout cannot be re-triggered")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise ProcessError("Timeout cannot fail")


class PooledTimeout(Timeout):
    """A recycled timeout for the kernel's pooled timer lane.

    Created and scheduled only by :meth:`Environment.pooled_timeout`;
    after dispatch the instance returns to the environment's free pool
    with its callback list cleared (never set to ``None``, so it never
    reads as *processed*).  Contract: yield it exactly once,
    immediately — never store, compose, or re-yield one.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: object = None) -> None:
        # Bypasses Timeout.__init__: the environment validates the delay
        # and schedules the entry itself, both on first construction and
        # on every reuse from the pool.
        Event.__init__(self, env)
        self.delay = delay
        self._ok = True
        self._value = value


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env._schedule_event(self, priority=_URGENT)


#: Scheduling priorities: urgent events (process init, interrupts) are
#: dispatched before normal events at the same timestamp.
_URGENT = 0
NORMAL = 1


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an event: it triggers with the generator's
    return value when the generator finishes, so processes can wait on
    each other (``yield env.process(...)`` or ``yield proc``).
    """

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise ProcessError(f"process target must be a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._waiting_on: Event | None = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`~repro.errors.Interrupt` into the process.

        The interrupt is delivered as an urgent event so that, like
        SimPy, interrupting a process at time *t* wakes it at time *t*.
        Interrupting a finished process is an error; interrupting a
        process that is about to resume anyway is allowed (the interrupt
        wins).
        """
        if self.triggered:
            raise ProcessError("cannot interrupt a finished process")
        if self._waiting_on is None:
            raise ProcessError("process cannot interrupt itself")
        exc = Interrupt(cause)
        event = Event(self.env)
        event._ok = False
        event._value = exc
        event.defused = True
        event.callbacks.append(self._resume)
        self.env._schedule_event(event, priority=_URGENT)

    # -- resumption machinery ----------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        self.env._active_process = self
        # Deregister from the event we were genuinely waiting on, in case
        # we are being resumed early by an interrupt.
        waited = self._waiting_on
        if waited is not None and waited is not event and waited.callbacks is not None:
            try:  # noqa: SIM105 — interrupt hot path; suppress() costs a frame
                waited.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._waiting_on = None

        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                event.defused = True
                target = self._generator.throw(event._value)  # type: ignore[arg-type]
        except StopIteration as stop:
            self.env._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.env._active_process = None
            self.fail(exc)
            return
        self.env._active_process = None

        if not isinstance(target, Event):
            error = ProcessError(
                f"process yielded {target!r}; processes must yield Event instances"
            )
            self._generator.close()
            self.fail(error)
            return
        if target.processed:
            # Already fired and dispatched: resume on the next urgent
            # tick.  The scheduler redelivers the target itself — no
            # clone event is allocated (_resume defuses failures when it
            # throws them into the generator).  The entry carries this
            # process so dispatch can drop it if an interrupt resumed
            # the process first (the moral equivalent of the clone
            # path's callbacks.remove deregistration).
            self.env._schedule_resume(self, target)
            self._waiting_on = target
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target


class _Condition(Event):
    """Shared machinery for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        for event in self.events:
            if event.env is not env:
                raise ProcessError("cannot mix events from different environments")
        self._count = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for event in self.events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self) -> dict[Event, object]:
        # Filter on *processed*, not triggered: a Timeout carries its
        # value from construction (triggered=True) but has not occurred
        # until the clock reaches it and its callbacks run.
        return {e: e._value for e in self.events if e.processed and e._ok}

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)  # type: ignore[arg-type]
            return
        self._count += 1
        if self._satisfied():
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires when the first of its events fires (or any fails)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


class AllOf(_Condition):
    """Fires when every one of its events has fired (or any fails)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= len(self.events)
