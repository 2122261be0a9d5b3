"""perfbench — the repo's one end-to-end + per-layer benchmark.

``python -m perfbench`` (from the repository root) runs five closed-loop
batch workloads against the program's public API, prints the end-to-end
metrics with their units, checks every result digest, and makes one
separate traced run per workload for the per-layer numbers.  See
``perfbench/README.md`` for the definitions; ``BENCHMARK.json`` at the
repository root is the machine-readable contract.

Module map:

* :mod:`perfbench.__main__` — the command: spawns the measuring
  interpreter, checks its digests, prints, writes the run record;
* :mod:`perfbench.round` — one fresh interpreter: set-up, warm-up, timed
  repetitions (or the traced repetition and the probes);
* :mod:`perfbench.workloads` — what each workload runs and how its
  result is digested;
* :mod:`perfbench.trace` — spans, the stack sampler, the event counter;
* :mod:`perfbench.probes` — single-layer micro measurements;
* :mod:`perfbench.compare` — verdicts between two run records.
"""
