"""The cross-commit digest wall.

Byte identity is checked everywhere *within* a commit (backends,
kernels, IPC modes, cache, service); this file checks it *across*
commits.  ``golden_digests.json`` holds one blake2b digest per entry of
``CASES`` — every registered experiment at its smoke size plus two
populations deep enough to share links — over the rendered text and
every dense column (``perfbench``'s ``result_digest`` recipe).  A change
that is meant to leave the science alone must not move one entry.

The digests were generated at the commit *before* the lazy link landed
(``net/`` untouched) and that change passed them unmodified.  A change
that moves results on purpose regenerates the file and says so::

    PYTHONPATH=src python tests/test_golden_digests.py

The test runs on whatever kernel ``REPRO_KERNEL`` selects, so the
``calendar`` and ``compiled`` CI legs hold the same digests as ``heapq``.
"""

from __future__ import annotations

import json
from hashlib import blake2b
from pathlib import Path

import numpy as np
import pytest

from repro.study import Study, StudyResult, experiment_ids, get_experiment

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

#: Case name -> (experiment id, parameters).  The registry's smoke sizes
#: keep x8/x9 at three clients; ``x8-city`` and ``x9-crowd`` are populations
#: whose clients actually contend for the access links and the CDN.
CASES: dict[str, tuple[str, dict]] = {
    **{
        experiment_id: (experiment_id, dict(get_experiment(experiment_id).smoke_params))
        for experiment_id in experiment_ids()
    },
    "x8-city": ("x8", {"replicates": 1, "clients": 30, "policies": ("rotate",)}),
    "x9-crowd": ("x9", {"replicates": 1, "clients": 30, "policies": ("least_loaded",)}),
}


def result_digest(result: StudyResult) -> str:
    """blake2b over every cell's rendered text and every dense column."""
    digest = blake2b(digest_size=16)
    digest.update(f"{result.experiment_id}\0{len(result.cells)}\0".encode())
    for cell in result.cells:
        rendered = cell.error if cell.result is None else cell.result.rendered
        digest.update(f"{cell.index}\0{rendered}\0".encode())
        for label in sorted(cell.columns):
            for name in sorted(cell.columns[label]):
                column = np.ascontiguousarray(cell.columns[label][name])
                digest.update(f"{label}\0{name}\0{column.dtype.str}{column.shape}\0".encode())
                digest.update(column.tobytes())
    return digest.hexdigest()


def case_digest(case: str) -> str:
    experiment_id, params = CASES[case]
    return result_digest(Study(experiment_id, **params).run(jobs="serial"))


def test_golden_file_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_result_digest_equals_the_golden_one(case):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert case_digest(case) == golden[case], (
        f"{case}: results differ from the golden digest; if the change is "
        f"meant to move them, regenerate {GOLDEN_PATH.name} and say so"
    )


if __name__ == "__main__":
    digests = {case: case_digest(case) for case in sorted(CASES)}
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
