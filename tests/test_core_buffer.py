"""Playout buffer: the §4 pre-buffering / ON-OFF re-buffering machine."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.buffer import BufferPhase, PlayoutBuffer
from repro.core.config import PlayerConfig
from repro.errors import BufferError_, ConfigError


def make_buffer(prebuffer=40.0, low=10.0, refill=20.0, duration=300.0):
    config = PlayerConfig(prebuffer_s=prebuffer, low_watermark_s=low, rebuffer_fetch_s=refill)
    return PlayoutBuffer(config, duration)


class TestPrebuffering:
    def test_starts_prebuffering_with_fetch_on(self):
        buffer = make_buffer()
        assert buffer.phase is BufferPhase.PREBUFFERING
        assert buffer.fetch_on
        assert not buffer.playing

    def test_no_playback_until_target(self):
        buffer = make_buffer()
        buffer.on_data(39.9, now=1.0)
        assert buffer.phase is BufferPhase.PREBUFFERING
        played = buffer.on_tick(1.0, now=2.0)
        assert played == 0.0

    def test_playback_starts_at_target(self):
        buffer = make_buffer()
        buffer.on_data(40.0, now=5.0)
        assert buffer.phase is BufferPhase.STEADY
        assert buffer.playing
        assert not buffer.fetch_on

    def test_the_paper_thresholds_are_defaults(self):
        config = PlayerConfig()
        assert config.prebuffer_s == 40.0
        assert config.low_watermark_s == 10.0
        assert config.rebuffer_fetch_s == 20.0


class TestSteadyAndRebuffering:
    def steady_buffer(self):
        buffer = make_buffer()
        buffer.on_data(40.0, now=0.0)
        return buffer

    def test_consumption_drains_level(self):
        buffer = self.steady_buffer()
        buffer.on_tick(5.0, now=5.0)
        assert buffer.level_s == pytest.approx(35.0)
        assert buffer.playhead_s == pytest.approx(5.0)

    def test_fetch_resumes_below_low_watermark(self):
        buffer = self.steady_buffer()
        buffer.on_tick(29.9, now=29.9)
        assert buffer.phase is BufferPhase.STEADY
        buffer.on_tick(0.2, now=30.1)
        assert buffer.phase is BufferPhase.REBUFFERING
        assert buffer.fetch_on

    def test_cycle_ends_after_fetching_target_amount(self):
        # "refills the playout buffer until 20 seconds of video data are
        # retrieved" — amount-based, not level-based (§4).
        buffer = self.steady_buffer()
        buffer.on_tick(30.5, now=30.5)
        assert buffer.phase is BufferPhase.REBUFFERING
        buffer.on_data(19.0, now=31.0)
        assert buffer.phase is BufferPhase.REBUFFERING
        buffer.on_data(1.5, now=31.5)
        assert buffer.phase is BufferPhase.STEADY
        assert not buffer.fetch_on

    def test_consumption_during_cycle_does_not_extend_it(self):
        buffer = self.steady_buffer()
        buffer.on_tick(30.5, now=30.5)
        buffer.on_data(10.0, now=31.0)
        buffer.on_tick(5.0, now=36.0)  # playing while refilling
        buffer.on_data(10.0, now=37.0)
        assert buffer.phase is BufferPhase.STEADY

    def test_playback_continues_while_rebuffering(self):
        buffer = self.steady_buffer()
        buffer.on_tick(30.5, now=30.5)
        played = buffer.on_tick(1.0, now=31.5)
        assert played == 1.0


class TestStalls:
    def test_stall_when_level_hits_zero(self):
        buffer = make_buffer()
        buffer.on_data(40.0, now=0.0)
        buffer.on_tick(40.0, now=40.0)  # drain everything, no refill
        assert buffer.phase is BufferPhase.STALLED
        assert buffer.fetch_on
        assert not buffer.playing

    def test_stall_recovers_after_cycle_target(self):
        buffer = make_buffer()
        buffer.on_data(40.0, now=0.0)
        buffer.on_tick(40.0, now=40.0)
        buffer.on_data(20.0, now=45.0)
        assert buffer.phase is BufferPhase.STEADY

    def test_no_playback_while_stalled(self):
        buffer = make_buffer()
        buffer.on_data(40.0, now=0.0)
        buffer.on_tick(40.0, now=40.0)
        assert buffer.on_tick(1.0, now=41.0) == 0.0


class TestCompletion:
    def test_download_complete_short_circuits_prebuffer(self):
        # A video shorter than the pre-buffer target must still play.
        buffer = make_buffer(duration=15.0)
        buffer.on_data(15.0, now=1.0)
        buffer.mark_download_complete(now=1.0)
        assert buffer.playing

    def test_finished_phase_stops_fetching(self):
        buffer = make_buffer()
        buffer.on_data(40.0, now=0.0)
        buffer.mark_download_complete(now=0.0)
        assert buffer.phase is BufferPhase.FINISHED
        assert not buffer.fetch_on

    def test_playback_finished_flag(self):
        buffer = make_buffer(duration=50.0)
        buffer.on_data(50.0, now=0.0)
        buffer.mark_download_complete(now=0.0)
        buffer.on_tick(50.0, now=50.0)
        assert buffer.playback_finished

    def test_playhead_never_exceeds_duration(self):
        buffer = make_buffer(duration=30.0)
        buffer.on_data(30.0, now=0.0)
        buffer.mark_download_complete(now=0.0)
        buffer.on_tick(100.0, now=100.0)
        assert buffer.playhead_s == pytest.approx(30.0)


class TestValidation:
    def test_negative_data_rejected(self):
        with pytest.raises(BufferError_):
            make_buffer().on_data(-1.0, now=0.0)

    def test_negative_tick_rejected(self):
        with pytest.raises(BufferError_):
            make_buffer().on_tick(-1.0, now=0.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigError):
            PlayoutBuffer(PlayerConfig(), 0.0)

    def test_watermark_below_prebuffer_enforced(self):
        with pytest.raises(ConfigError):
            PlayerConfig(prebuffer_s=10.0, low_watermark_s=10.0)


class TestInvariantsProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["data", "tick"]),
                st.floats(min_value=0.0, max_value=30.0),
            ),
            max_size=60,
        )
    )
    def test_level_never_negative_and_transitions_logged(self, operations):
        buffer = make_buffer()
        now = 0.0
        for kind, amount in operations:
            now += 0.1
            if kind == "data":
                buffer.on_data(amount, now)
            else:
                buffer.on_tick(amount, now)
            assert buffer.level_s >= 0.0
            assert 0.0 <= buffer.playhead_s <= buffer.video_duration_s
        # Transition log is time-ordered.
        times = [t for t, _ in buffer.transitions]
        assert times == sorted(times)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=0.1, max_value=15.0), min_size=1, max_size=40))
    def test_fetch_off_implies_enough_buffered(self, chunks):
        # Whenever the machine turns fetching OFF mid-stream, the level
        # is above the low watermark (hysteresis holds).
        buffer = make_buffer()
        now = 0.0
        for seconds in chunks:
            now += 0.5
            buffer.on_data(seconds, now)
            buffer.on_tick(0.4, now + 0.1)
            if not buffer.fetch_on and buffer.phase is BufferPhase.STEADY:
                assert buffer.level_s > buffer.config.low_watermark_s - 0.5


# -- lazy playback primitives ----------------------------------------------------
#
# ``ticked`` is the ticker: ``on_tick`` at every grid instant, data in
# between.  ``lazy`` is the playout clock's use of the primitives: real
# ``on_tick`` only at the instants ``next_change_at`` predicts, and
# ``replay_ticks`` over everything else.  Both must end bit for bit equal.


def _arrival_times(dt, arrivals):
    """``(tick_index, fraction, seconds)`` -> ``(time, seconds)``, time
    strictly between grid instants ``index`` and ``index + 1``."""
    grid, t = [0.0], 0.0
    for _ in range(max((index for index, _, _ in arrivals), default=0) + 1):
        t = t + dt
        grid.append(t)
    return sorted(
        (grid[index] + fraction * (grid[index + 1] - grid[index]), seconds)
        for index, fraction, seconds in arrivals
    )


def ticked(buffer, dt, arrivals, ticks, complete):
    """The reference: a tick at every grid instant."""
    pending = list(arrivals)
    changes = []
    t = 0.0
    for _ in range(ticks):
        t = t + dt
        while pending and pending[0][0] < t:
            time, seconds = pending.pop(0)
            buffer.on_data(seconds, time)
            if complete and not pending:
                buffer.mark_download_complete(time)
        previous = buffer.phase
        buffer.on_tick(dt, t)
        if buffer.phase is not previous or buffer.playback_finished:
            changes.append(t)
            if buffer.playback_finished:
                break
    return changes


def lazy(buffer, dt, arrivals, ticks, complete):
    """The primitives: replay to each arrival, tick only at predicted changes."""
    horizon = 0.0
    for _ in range(ticks):
        horizon = horizon + dt
    stops = list(arrivals) + [(math.nextafter(horizon, math.inf), None)]
    changes = []
    t = dt  # the next grid instant not yet applied
    for index, (time, seconds) in enumerate(stops):
        while True:
            safe = buffer.safe_ticks(dt)
            crossing = buffer.next_change_at(t, dt)
            if crossing is not None:
                assert safe is not None
                ahead, instant = 1, t
                while instant < crossing:
                    ahead, instant = ahead + 1, instant + dt
                assert instant == crossing  # the prediction sits on the grid
                assert ahead > safe  # the closed-form bound is a lower bound
            if crossing is None or crossing >= time:
                break
            t = buffer.replay_ticks(t, crossing, dt)
            assert t == crossing
            previous = buffer.phase
            buffer.on_tick(dt, crossing)
            assert buffer.phase is not previous or buffer.playback_finished
            changes.append(crossing)
            t = crossing + dt
            if buffer.playback_finished:
                return changes
        t = buffer.replay_ticks(t, time, dt)
        if seconds is not None:
            buffer.on_data(seconds, time)
            if complete and index == len(arrivals) - 1:
                buffer.mark_download_complete(time)
    return changes


def state(buffer):
    return (
        buffer.level_s,
        buffer.playhead_s,
        buffer.phase,
        buffer.cycle_fetched_s,
        buffer.download_complete,
        list(buffer.transitions),
    )


def assert_lazy_equals_ticked(make, dt, arrivals, ticks, complete=False):
    timed = _arrival_times(dt, arrivals)
    reference, product = make(), make()
    expected = ticked(reference, dt, timed, ticks, complete)
    assert lazy(product, dt, timed, ticks, complete) == expected
    assert state(product) == state(reference)
    return reference, expected


class TestLazyPlaybackPrimitives:
    @settings(max_examples=150, deadline=None)
    @given(
        prebuffer=st.floats(min_value=1.0, max_value=40.0),
        low_fraction=st.floats(min_value=0.0, max_value=0.95),
        refill=st.floats(min_value=0.5, max_value=30.0),
        duration=st.floats(min_value=5.0, max_value=90.0),
        dt=st.sampled_from([0.1, 0.05, 0.25, 0.5, 1.0 / 3.0, 0.7, 2.0]),
        arrivals=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=600),
                st.floats(min_value=0.05, max_value=0.95),
                st.floats(min_value=0.0, max_value=25.0),
            ),
            max_size=30,
        ),
        complete=st.booleans(),
    )
    def test_replay_and_prediction_equal_the_ticker(
        self, prebuffer, low_fraction, refill, duration, dt, arrivals, complete
    ):
        def make():
            return make_buffer(prebuffer, prebuffer * low_fraction, refill, duration)

        assert_lazy_equals_ticked(make, dt, arrivals, ticks=1200, complete=complete)

    def test_level_exactly_at_the_watermark_is_not_a_crossing(self):
        # 11.0 - 0.5 - 0.5 lands exactly on 10.0: STEADY holds there and
        # the crossing is the tick after.
        def make():
            return make_buffer(prebuffer=11.0, low=10.0, duration=60.0)

        reference, changes = assert_lazy_equals_ticked(make, 0.5, [(0, 0.5, 11.0)], ticks=4)
        assert changes == [1.5]
        assert reference.phase is BufferPhase.REBUFFERING
        assert reference.transitions[-1] == (1.5, BufferPhase.REBUFFERING)

    def test_tick_longer_than_the_level(self):
        # dt > level: the tick plays what is left and the buffer runs dry.
        def make():
            return make_buffer(prebuffer=3.0, low=2.5, refill=20.0, duration=60.0)

        reference, changes = assert_lazy_equals_ticked(
            make, 2.0, [(0, 0.5, 3.0)], ticks=4
        )
        assert [phase for _, phase in reference.transitions] == [
            BufferPhase.STEADY,
            BufferPhase.REBUFFERING,
            BufferPhase.STALLED,
        ]
        assert changes == [2.0, 4.0]

    def test_partial_tick_at_the_end_of_the_video(self):
        def make():
            return make_buffer(prebuffer=2.0, low=1.0, duration=1.05)

        reference, changes = assert_lazy_equals_ticked(
            make, 0.1, [(0, 0.5, 1.05)], ticks=30, complete=True
        )
        assert reference.playback_finished
        # Ten full ticks, then an eleventh that plays the last 0.05 s.
        assert len(changes) == 1 and round(changes[0] / 0.1) == 11

    def test_stall_threshold_is_one_nanosecond(self):
        # Exact binary fractions: a tick leaving 2**-30 (< 1e-9) stalls at
        # once; one leaving 2**-29 (> 1e-9) stalls a tick later, dry.
        for crumb, stall_at in ((2.0**-30, 0.25), (2.0**-29, 0.5)):

            def make(crumb=crumb):
                buffer = make_buffer(prebuffer=1.0, low=0.75, refill=30.0, duration=60.0)
                buffer.on_data(1.0, 0.0)
                buffer.on_tick(0.5, 0.0)
                assert buffer.phase is BufferPhase.REBUFFERING
                buffer.level_s = 0.25 + crumb
                return buffer

            reference, changes = assert_lazy_equals_ticked(make, 0.25, [], ticks=4)
            assert changes == [stall_at]
            assert reference.transitions[-1] == (stall_at, BufferPhase.STALLED)

    def test_replay_refuses_to_pass_a_phase_change(self):
        buffer = make_buffer(prebuffer=11.0, low=10.0, duration=60.0)
        buffer.on_data(11.0, 0.0)
        with pytest.raises(BufferError_):
            buffer.replay_ticks(0.5, 3.0, 0.5)

    def test_nothing_to_predict_while_not_playing_or_drained(self):
        buffer = make_buffer()
        assert buffer.next_change_at(0.1, 0.1) is None
        assert buffer.safe_ticks(0.1) is None
        # FINISHED with the level short of the end: playback stops moving.
        buffer = make_buffer(prebuffer=2.0, low=1.0, duration=10.0)
        buffer.on_data(2.0, 0.0)
        buffer.mark_download_complete(0.0)
        assert buffer.phase is BufferPhase.FINISHED
        assert buffer.next_change_at(0.1, 0.1) is None
