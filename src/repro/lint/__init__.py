"""repro-lint: AST-based determinism & invariant analysis.

The simulator's hard guarantees — bit-identical results across the
serial and process backends, and across commits — are enforced at
runtime by expensive test walls.  This package encodes
the *static* half of those invariants as rule plugins over the python
AST, so a stray ``random.random()`` or an unsorted set feeding a demux
loop fails ``repro lint`` in milliseconds instead of a nightly sweep.

Public surface:

* :func:`repro.lint.engine.run_lint` — programmatic analysis;
* :class:`repro.lint.findings.Finding` — the result record;
* ``repro lint`` (see :mod:`repro.lint.cli`) — the CLI, with inline
  ``# replint: disable=RULE`` waivers and a checked-in baseline file
  for grandfathered findings.

Rule families: ``DET`` (determinism), ``WRK`` (worker pickle
protocol), ``KER`` (kernel API discipline), ``SLT`` (hot-path
``__slots__``).  ``repro lint --list-rules`` describes them.
"""

from . import rules  # noqa: F401  (importing registers the built-in rules)
from .base import ModuleContext, Rule, all_rules, rule, rule_ids
from .baseline import Baseline, load_baseline, write_baseline
from .engine import LintReport, iter_python_files, lint_file, run_lint
from .findings import JSON_SCHEMA_VERSION, Finding, render_json

__all__ = [
    "Baseline",
    "Finding",
    "JSON_SCHEMA_VERSION",
    "LintReport",
    "ModuleContext",
    "Rule",
    "all_rules",
    "iter_python_files",
    "lint_file",
    "load_baseline",
    "render_json",
    "rule",
    "rule_ids",
    "run_lint",
    "write_baseline",
]
