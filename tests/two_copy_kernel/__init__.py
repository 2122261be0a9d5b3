"""The two-copy event kernel, kept verbatim as an oracle.

``env.py``, ``events.py`` and ``simclock.py`` are the kernel as it was
before ``Environment.run`` became one dispatch loop: ``run()`` drained
the heap in an inlined loop while ``run(until=<time>)``,
``run(until=<event>)`` and ``step()`` called ``Environment._dispatch``
once per entry, the clock was a separate ``SimClock``, and processes
could be interrupted (``Interrupt`` lives in ``events.py`` here).  Only
the imports changed: the error classes come from ``repro.errors`` and
the three modules import each other relatively.

``tests/test_net_kernel_fastpath.py`` runs drawn schedules on this
kernel and on ``repro.net.env`` and compares the dispatch traces.
"""
