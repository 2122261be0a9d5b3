"""``python -m perfbench.compare A.json B.json`` — verdicts between runs.

``A`` is the base (the parent commit, or the first of two sets of runs
of one commit), ``B`` the change; both are run records written by
``python -m perfbench``.  For every workload and end-to-end metric the
table gives both medians with their quartiles, the ratio ``B/A``, and a
verdict against the metric's bound in ``BENCHMARK.json``:

* ``regressed`` — ``B`` is worse than ``A`` by more than the bound;
* ``improved`` — ``B`` is better by more than the run-to-run spread
  (the wider interquartile range of the two, as a share of its median);
* ``unchanged`` — neither, and the spread is within the bound;
* ``unresolved`` — the spread exceeds the bound, so the bound cannot be
  checked — unless every sample of ``B`` beats (or trails) every sample
  of ``A``, which decides it anyway.

Exits non-zero on any ``regressed``, when ``B`` failed a larger share of
its operations, when ``B`` lacks a workload ``A`` measured, or when the
two result digests of a workload differ at the same seed and sizes (a
change of results, to be explained, not a performance matter).  Two
records compare like-for-like only at the same ``--seed`` and sizes; the
tool says so when they differ.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from .round import ROOT


def verdict(base: dict[str, Any], change: dict[str, Any], better: str, bound: float) -> str:
    """One metric's verdict; ``base``/``change`` are sample summaries."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (change["median"] - base["median"]) / base["median"]
    if min(base["n"], change["n"]) < 2:
        # One sample a side (a process has one peak RSS) shows no spread:
        # only the bound can be checked.
        return "regressed" if worse_by > bound else "unchanged"
    spread = max((side["q3"] - side["q1"]) / side["median"] for side in (base, change))
    # Sorted so that "larger is worse" on both sides.
    base_runs = sorted(sign * value for value in base["samples"])
    change_runs = sorted(sign * value for value in change["samples"])
    all_better = change_runs[-1] < base_runs[0]
    all_worse = change_runs[0] > base_runs[-1]
    if worse_by > bound:
        return "regressed" if spread <= bound or all_worse else "unresolved"
    if spread > bound:
        return "improved" if all_better else "unresolved"
    return "improved" if -worse_by > spread and all_better else "unchanged"


def _cell(summary: dict[str, Any]) -> str:
    return f"{summary['median']:.5g} [{summary['q1']:.5g}, {summary['q3']:.5g}] n={summary['n']}"


def compare(base: dict[str, Any], change: dict[str, Any], declared: dict[str, Any]) -> int:
    """Print the table; return the process exit code."""
    same_inputs = True
    for key in ("seed", "smoke"):
        if base.get(key) != change.get(key):
            same_inputs = False
            print(f"note: {key} differs ({base.get(key)} vs {change.get(key)})")
    print(f"A = {base['commit']} (base)   B = {change['commit']}")
    print(f"{'workload':<14} {'metric':<15} {'A':<38} {'B':<38} {'B/A':>7}  verdict")
    failures = 0
    for workload in declared["workloads"]:
        name = workload["name"]
        sides = [record["workloads"].get(name, {}).get("measure") for record in (base, change)]
        if sides[0] is None:
            continue
        if sides[1] is None:
            failures += 1
            print(f"{name:<14} measured in A but missing from B: counted as a failure")
            continue
        base_side, change_side = sides
        same_size = base_side["size"] == change_side["size"]
        if not same_size:
            print(f"note: {name} sizes differ ({base_side['size']} vs {change_side['size']})")
        for metric in declared["end_to_end"]:
            ours = base_side["end_to_end"][metric["name"]]
            theirs = change_side["end_to_end"][metric["name"]]
            outcome = verdict(ours, theirs, metric["better"], metric["bound"])
            failures += outcome == "regressed"
            print(
                f"{name:<14} {metric['name']:<15} {_cell(ours):<38} {_cell(theirs):<38} "
                f"{theirs['median'] / ours['median']:>7.3f}  {outcome}"
            )
        shares = (base_side["failed_share"], change_side["failed_share"])
        worse = shares[1] > shares[0]
        failures += worse
        same = "same" if base_side["digest"] == change_side["digest"] else "DIFFERENT"
        failures += same == "DIFFERENT" and same_inputs and same_size
        print(
            f"{name:<14} {'failed_share':<15} {shares[0]:<38.6g} {shares[1]:<38.6g} "
            f"{'':>7}  {'regressed' if worse else 'unchanged'}; digests {same}"
        )
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.compare", description=__doc__)
    parser.add_argument("base", type=Path, help="run record A (the base)")
    parser.add_argument("change", type=Path, help="run record B")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(json.loads(args.base.read_text()), json.loads(args.change.read_text()), declared)


if __name__ == "__main__":
    sys.exit(main())
