"""Tests for repro.utils.timing."""

import gc
import time

import pytest

from repro.utils.timing import Stopwatch, TimeBreakdown, gc_paused


class TestGcPaused:
    def test_pauses_and_restores_the_collector(self):
        assert gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_after_an_exception(self):
        with pytest.raises(RuntimeError):
            with gc_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_disabled(self):
        gc.disable()
        try:
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestStopwatch:
    def test_elapsed_increases(self):
        watch = Stopwatch()
        first = watch.elapsed()
        time.sleep(0.001)
        assert watch.elapsed() > first

    def test_reset_restarts(self):
        watch = Stopwatch()
        time.sleep(0.001)
        watch.reset()
        assert watch.elapsed() < 0.5


class TestTimeBreakdown:
    def test_measure_accumulates(self):
        breakdown = TimeBreakdown()
        with breakdown.measure("phase"):
            time.sleep(0.001)
        with breakdown.measure("phase"):
            time.sleep(0.001)
        assert breakdown.get("phase") > 0.0
        assert breakdown.total() == breakdown.get("phase")

    def test_add_and_get(self):
        breakdown = TimeBreakdown()
        breakdown.add("a", 1.0)
        breakdown.add("a", 0.5)
        breakdown.add("b", 2.0)
        assert breakdown.get("a") == 1.5
        assert breakdown.get("missing") == 0.0
        assert breakdown.total() == 3.5

    def test_merge(self):
        first = TimeBreakdown()
        first.add("a", 1.0)
        second = TimeBreakdown()
        second.add("a", 2.0)
        second.add("b", 3.0)
        first.merge(second)
        assert first.get("a") == 3.0
        assert first.get("b") == 3.0

    def test_as_dict_is_a_copy(self):
        breakdown = TimeBreakdown()
        breakdown.add("a", 1.0)
        snapshot = breakdown.as_dict()
        snapshot["a"] = 99.0
        assert breakdown.get("a") == 1.0

    def test_measure_records_even_on_exception(self):
        breakdown = TimeBreakdown()
        try:
            with breakdown.measure("phase"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert breakdown.get("phase") >= 0.0
        assert "phase" in breakdown.phases


class TestPhaseTimer:
    def test_round_summaries_do_not_double_count(self):
        from repro.utils.timing import PhaseTimer

        timer = PhaseTimer()
        timer.add("walk", 1.0)
        first = timer.finish_round()
        timer.add("walk", 0.25)
        second = timer.finish_round()
        # Reusing the same instance across rounds used to accumulate: the
        # second summary would have reported 1.25 instead of 0.25.
        assert first["walk"] == pytest.approx(1.0)
        assert second["walk"] == pytest.approx(0.25)
        assert timer.totals()["walk"] == pytest.approx(1.25)
        assert timer.rounds_finished == 2

    def test_measure_accumulates_into_current_round(self):
        from repro.utils.timing import PhaseTimer

        timer = PhaseTimer()
        with timer.measure("sampling"):
            pass
        with timer.measure("sampling"):
            pass
        summary = timer.round_so_far()
        assert summary["sampling"] >= 0.0
        finished = timer.finish_round()
        assert finished["sampling"] == pytest.approx(summary["sampling"])
        assert timer.round_so_far() == {}

    def test_totals_include_open_round(self):
        from repro.utils.timing import PhaseTimer

        timer = PhaseTimer()
        timer.add("a", 1.0)
        timer.finish_round()
        timer.add("a", 2.0)  # open round, not finished
        assert timer.totals()["a"] == pytest.approx(3.0)
        assert timer.total_seconds() == pytest.approx(3.0)

    def test_empty_round(self):
        from repro.utils.timing import PhaseTimer

        timer = PhaseTimer()
        assert timer.finish_round() == {}
        assert timer.total_seconds() == 0.0
