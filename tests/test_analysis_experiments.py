"""Registered experiment definitions (quick-trial smoke + shape checks).

Benchmarks run these at paper scale; here we verify the machinery with
minimal trials so the unit suite stays fast.
"""

import pytest

from conftest import study_result


class TestFig1:
    def test_structure(self):
        result = study_result("fig1", thetas=(2.0,))
        assert result.experiment_id == "fig1"
        data = result.raw["theta=2.0"]
        assert set(data) == {"measured", "predicted"}
        assert "psi wifi" in result.rendered or "psi" in result.rendered

    def test_measured_close_to_predicted(self):
        result = study_result("fig1", thetas=(2.5,))
        data = result.raw["theta=2.5"]
        for key in ("psi_wifi", "pi_lte"):
            measured = data["measured"][key]
            predicted = data["predicted"][key]
            assert measured == pytest.approx(predicted, rel=0.2)


class TestFig2:
    def test_minimal_run(self):
        result = study_result("fig2", trials=2)
        assert set(result.raw["medians"]) == {"WiFi", "LTE", "MSPlayer"}
        assert "Fig. 2" in result.rendered

    def test_msplayer_wins_even_with_two_trials(self):
        result = study_result("fig2", trials=2)
        medians = result.raw["medians"]
        assert medians["MSPlayer"] < medians["LTE"]


class TestFig4:
    def test_minimal_run(self):
        result = study_result("fig4", trials=2, prebuffers=(20.0,))
        assert "20s" in result.raw
        assert "reduction" in result.raw["20s"]


class TestTable1:
    def test_minimal_run(self):
        result = study_result("table1", trials=2, durations=(20.0,))
        entry = result.raw["20s"]
        assert 0.0 < entry["prebuffer_mean"] < 1.0
        assert 0.0 <= entry["prebuffer_std"] < 0.5


class TestX3:
    def test_harmonic_wins(self):
        result = study_result("x3")
        assert result.raw["harmonic"] < min(
            result.raw["ewma"], result.raw["window"], result.raw["last"]
        )

    def test_deterministic(self):
        assert study_result("x3").raw == study_result("x3").raw
