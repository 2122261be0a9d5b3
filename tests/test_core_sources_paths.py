"""Source failover and path lifecycle."""

import pytest

from repro.core.paths import PathPhase, PathState
from repro.core.sources import SourceManager
from repro.errors import PlayerError, SourcesExhaustedError


class TestSourceManager:
    def make(self, n=3, max_strikes=2):
        manager = SourceManager("wifi-net", max_strikes=max_strikes)
        manager.set_candidates([f"v{i}.example" for i in range(n)])
        return manager

    def test_first_candidate_active(self):
        assert self.make().active == "v0.example"

    def test_failover_advances(self):
        manager = self.make()
        replacement = manager.report_failure(now=1.0)
        assert replacement == "v1.example"
        assert manager.active == "v1.example"

    def test_failover_wraps_around(self):
        manager = self.make(n=2, max_strikes=5)
        manager.report_failure(1.0)
        manager.report_failure(2.0)
        assert manager.active == "v0.example"

    def test_struck_out_server_skipped(self):
        manager = self.make(n=2, max_strikes=1)
        assert manager.report_failure(1.0) == "v1.example"
        # v0 is out; failing v1 exhausts the pool.
        assert manager.report_failure(2.0) is None
        assert manager.exhausted

    def test_exhausted_active_raises(self):
        manager = self.make(n=1, max_strikes=1)
        manager.report_failure(1.0)
        with pytest.raises(SourcesExhaustedError):
            _ = manager.active

    def test_candidates_merge_without_duplicates(self):
        manager = self.make(n=2)
        manager.set_candidates(["v1.example", "v9.example"])
        assert manager.addresses() == ["v0.example", "v1.example", "v9.example"]

    def test_empty_candidates_rejected(self):
        with pytest.raises(SourcesExhaustedError):
            SourceManager("n").set_candidates([])

    def test_failover_log(self):
        manager = self.make()
        manager.report_failure(5.0)
        assert manager.failover_log == [(5.0, "v0.example", "v1.example")]

    def test_single_server_retry_until_struck_out(self):
        manager = self.make(n=1, max_strikes=2)
        assert manager.report_failure(1.0) == "v0.example"  # retry once
        assert manager.report_failure(2.0) is None

    def test_failure_before_any_list_is_exhaustion_not_an_error(self):
        """A first bootstrap can be refused before the proxy's server
        list was installed; that must read as "this network is spent",
        not abort the caller."""
        manager = SourceManager("wifi-net")
        assert manager.report_failure(1.0) is None
        assert manager.exhausted
        assert manager.failover_log == []

    def test_failure_after_exhaustion_stays_exhausted(self):
        manager = self.make(n=1, max_strikes=1)
        assert manager.report_failure(1.0) is None
        assert manager.report_failure(2.0) is None
        assert manager.failover_log == [(1.0, "v0.example", None)]


class TestPathState:
    def make(self):
        sources = SourceManager("wifi-net")
        sources.set_candidates(["v0"])
        return PathState(0, "wlan0", "wifi-net", sources)

    def test_lifecycle_happy_path(self):
        path = self.make()
        path.begin_bootstrap(1.0)
        assert path.phase is PathPhase.BOOTSTRAPPING
        path.bootstrap_complete(2.0)
        assert path.phase is PathPhase.READY and path.can_fetch
        path.chunk_started(2.5)
        assert path.phase is PathPhase.FETCHING and not path.can_fetch
        path.chunk_finished(3.0)
        assert path.phase is PathPhase.READY
        assert path.chunks_completed == 1

    def test_bootstrap_timestamps(self):
        path = self.make()
        path.begin_bootstrap(1.0)
        path.bootstrap_complete(4.0, json_completed_at=3.0)
        assert path.bootstrap_duration() == pytest.approx(2.0)  # psi at JSON decode

    def test_first_video_byte_timestamp(self):
        path = self.make()
        path.begin_bootstrap(1.0)
        path.bootstrap_complete(2.0)
        path.chunk_started(2.5)
        path.chunk_finished(4.0, first_byte_at=3.0)
        assert path.first_packet_delay() == pytest.approx(2.0)  # pi at first byte

    def test_first_video_byte_kept_from_first_chunk(self):
        path = self.make()
        path.begin_bootstrap(0.0)
        path.bootstrap_complete(1.0)
        path.chunk_started(1.0)
        path.chunk_finished(2.0, first_byte_at=1.5)
        path.chunk_started(2.0)
        path.chunk_finished(3.0, first_byte_at=2.5)
        assert path.t_first_video_byte == 1.5

    def test_invalid_transition_rejected(self):
        path = self.make()
        with pytest.raises(PlayerError):
            path.chunk_started(0.0)  # not READY yet

    def test_broken_then_rebootstrap(self):
        path = self.make()
        path.begin_bootstrap(0.0)
        path.bootstrap_complete(1.0)
        path.chunk_started(1.0)
        path.mark_broken(2.0)
        assert path.phase is PathPhase.BROKEN
        assert path.consecutive_failures == 1
        path.begin_bootstrap(2.1)
        assert path.phase is PathPhase.BOOTSTRAPPING

    def test_dead_and_revive(self):
        path = self.make()
        path.begin_bootstrap(0.0)
        path.mark_broken(0.5)
        path.mark_dead(1.0)
        assert not path.alive
        path.revive(5.0)
        assert path.phase is PathPhase.INIT
        path.begin_bootstrap(5.0)

    def test_history_is_time_ordered(self):
        path = self.make()
        path.begin_bootstrap(0.0)
        path.bootstrap_complete(1.0)
        path.chunk_started(1.5)
        path.chunk_finished(2.0)
        times = [t for t, _ in path.history]
        assert times == sorted(times)

    def test_success_resets_failure_streak(self):
        path = self.make()
        path.begin_bootstrap(0.0)
        path.mark_broken(0.5)
        path.begin_bootstrap(0.6)
        path.bootstrap_complete(1.0)
        path.chunk_started(1.0)
        path.chunk_finished(2.0)
        assert path.consecutive_failures == 0
