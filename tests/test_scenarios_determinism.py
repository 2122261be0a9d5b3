"""Cross-backend determinism for x8/x9 scenarios.

Scenario populations carry more moving parts than any other work unit
— thinned arrivals, mixed driver kinds (VOD/live/adaptive) in one
environment, per-client profiles with session-relative outages, and a
churn timeline mutating the shared CDN — so this wall pins the whole
stack: rendered panel and raw SLO dicts byte-identical over
serial / process backends, plus a save/load + cache round trip.
Paper-scale populations (≥200 clients, the acceptance bar) run under
the ``slow`` marker.
"""

from __future__ import annotations

import pytest

from conftest import study_result
from repro.sim.execution import ProcessEngine
from repro.study import Study
from repro.study.archive import load_study, save_study
from repro.study.cache import StudyCache

_SMOKE = dict(replicates=1, clients=4, catalog=6)

PARALLEL_BACKENDS = [
    pytest.param(lambda: ProcessEngine(2), id="process-shm"),
    # Three workers cut the specs into other chunks than two do.
    pytest.param(lambda: ProcessEngine(3), id="process-shm-3"),
]


def _assert_identical(got, reference):
    assert got.experiment_id == reference.experiment_id
    assert got.rendered == reference.rendered
    assert got.raw == reference.raw


class TestScenarioCrossBackend:
    """x8/x9 byte-identical over serial / process-shm."""

    @pytest.mark.parametrize("make_jobs", PARALLEL_BACKENDS)
    def test_x8_matches_serial(self, make_jobs):
        reference = study_result("x8", "serial", **_SMOKE)
        _assert_identical(study_result("x8", make_jobs(), **_SMOKE), reference)

    @pytest.mark.parametrize("make_jobs", PARALLEL_BACKENDS)
    def test_x9_matches_serial(self, make_jobs):
        """x9 exercises churn (brownouts + crashes) across the process
        boundary: the fault timeline must be rebuilt identically from
        the pickled spec, not shipped as live sim state."""
        reference = study_result("x9", "serial", **_SMOKE)
        _assert_identical(study_result("x9", make_jobs(), **_SMOKE), reference)


class TestScenarioRoundTrips:
    def test_x8_archive_round_trip(self, tmp_path):
        study = Study("x8", **_SMOKE).run()
        save_study(study, tmp_path / "x8")
        loaded = load_study(tmp_path / "x8")
        cell = study.only()
        revived = loaded.only()
        assert revived.result.rendered == cell.result.rendered
        assert revived.result.raw == cell.result.raw

    def test_x9_cache_hit_is_byte_identical(self, tmp_path):
        cache = StudyCache(tmp_path / "cache")
        first = Study("x9", **_SMOKE).run(cache=cache)
        assert first.cache_info is not None
        assert first.cache_info.misses == 1
        second = Study("x9", **_SMOKE).run(cache=cache)
        assert second.cache_info is not None
        assert second.cache_info.hits == 1
        assert second.cache_info.submitted_units == 0
        assert second.only().result.rendered == first.only().result.rendered
        assert second.only().result.raw == first.only().result.raw


@pytest.mark.slow
class TestPaperScaleScenarios:
    """The acceptance bar: ≥200-client populations, same identities."""

    @pytest.mark.parametrize("make_jobs", PARALLEL_BACKENDS)
    def test_x8_population_scale(self, make_jobs):
        kwargs = dict(replicates=2, clients=200)
        reference = study_result("x8", "serial", **kwargs)
        got = study_result("x8", make_jobs(), **kwargs)
        _assert_identical(got, reference)
        for slo in reference.raw.values():
            assert slo["sessions"] == 400
            assert slo["completed"] > 200

    def test_x9_population_scale(self):
        kwargs = dict(replicates=1, clients=200)
        reference = study_result("x9", "serial", **kwargs)
        got = study_result("x9", "auto", **kwargs)
        _assert_identical(got, reference)

    def test_x9_lazy_links_equal_the_eager_oracle_at_100_clients(self, monkeypatch):
        """The benchmark's flash crowd (200 access links, most idle most
        of the time) with every link swapped for the pre-lazy reference
        in ``tests/eager_link.py``: same panel, same raw SLOs, same
        dense columns.  ``repro.sim.scenario`` is the one module that
        builds links; the count proves the oracle run really used them,
        so a link built anywhere else fails here instead of comparing
        lazy links with lazy links."""
        from eager_link import EagerLink

        kwargs = dict(replicates=1, clients=100, policies=("least_loaded",))
        lazy = Study("x9", **kwargs).run(jobs="serial")
        built: list[EagerLink] = []

        def eager_link(*args, **kwargs):
            built.append(EagerLink(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr("repro.sim.scenario.Link", eager_link)
        eager = Study("x9", **kwargs).run(jobs="serial")
        assert len(built) == 2 * 100
        assert lazy.rendered == eager.rendered
        assert lazy.only().result.raw == eager.only().result.raw
        assert lazy.column_mismatches(eager) == []
