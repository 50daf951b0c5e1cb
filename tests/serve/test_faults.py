"""The chaos harness: fault plans, the injector, and replay determinism."""

import threading
import time

import pytest

from repro.errors import InjectedFault, ServeError
from repro.serve.faults import (
    FAULT_POINTS,
    FaultAction,
    FaultInjector,
    FaultPlan,
    chaos_points,
)


class TestFaultAction:
    def test_kinds_are_validated(self):
        with pytest.raises(ServeError, match="unknown fault action kind"):
            FaultAction(kind="explode")

    def test_delay_needs_positive_seconds(self):
        with pytest.raises(ServeError, match="positive delay_seconds"):
            FaultAction(kind="delay", delay_seconds=0.0)

    def test_kill_target_must_be_non_negative(self):
        with pytest.raises(ServeError, match="non-negative"):
            FaultAction(kind="kill_worker", worker=-1)


class TestFaultPlan:
    def test_builders_chain_and_register(self):
        plan = (
            FaultPlan()
            .fail("writer.apply", 1, message="poisoned")
            .delay("dispatcher.wave", 0, 0.01)
            .kill_worker("router.dispatch", 3, shard=1)
        )
        assert len(plan) == 3
        assert plan.get("writer.apply", 1).kind == "raise"
        assert plan.get("dispatcher.wave", 0).delay_seconds == 0.01
        assert plan.get("router.dispatch", 3).worker == 1
        assert plan.get("writer.apply", 0) is None

    @pytest.mark.parametrize("point", ["writer.nope", "worker.step"])
    def test_unknown_point_is_rejected(self, point):
        with pytest.raises(ServeError, match="unknown injection point"):
            FaultPlan().fail(point, 0)

    def test_negative_index_is_rejected(self):
        with pytest.raises(ServeError, match="non-negative"):
            FaultPlan().fail("writer.apply", -1)

    def test_entries_are_deterministically_ordered(self):
        plan = (
            FaultPlan()
            .fail("router.dispatch", 2)
            .fail("writer.apply", 5)
            .fail("writer.apply", 0)
        )
        assert [(p, i) for p, i, _ in plan.entries()] == [
            ("router.dispatch", 2),
            ("writer.apply", 0),
            ("writer.apply", 5),
        ]

    def test_sample_is_deterministic_in_the_seed(self):
        rates = {"writer.apply": 0.5, "http.handler": 0.3}
        first = FaultPlan.sample(11, rates, horizon=40)
        second = FaultPlan.sample(11, rates, horizon=40)
        other = FaultPlan.sample(12, rates, horizon=40)
        def key(plan):
            return [(p, i, a.kind) for p, i, a in plan.entries()]

        assert key(first) == key(second)
        assert key(first) != key(other)
        assert len(first) > 0

    def test_sample_rate_bounds_and_horizon(self):
        with pytest.raises(ServeError, match=r"\[0, 1\]"):
            FaultPlan.sample(1, {"writer.apply": 1.5}, horizon=5)
        with pytest.raises(ServeError, match="non-negative"):
            FaultPlan.sample(1, {"writer.apply": 0.5}, horizon=-1)
        assert len(FaultPlan.sample(1, {"writer.apply": 1.0}, horizon=0)) == 0

    def test_sample_with_delay_schedules_delays(self):
        plan = FaultPlan.sample(
            3, {"dispatcher.wave": 1.0}, horizon=2, delay_seconds=0.01
        )
        assert len(plan) == 2
        assert all(action.kind == "delay" for _, _, action in plan.entries())


class TestFaultInjector:
    def test_unscheduled_fire_is_a_noop(self):
        injector = FaultInjector(FaultPlan())
        for point in FAULT_POINTS:
            assert injector.fire(point) is None
        assert injector.history() == []
        assert injector.counters() == {point: 1 for point in FAULT_POINTS}

    def test_raise_actions_raise_at_their_occurrence(self):
        injector = FaultInjector(FaultPlan().fail("writer.apply", 1, message="boom"))
        assert injector.fire("writer.apply") is None
        with pytest.raises(InjectedFault, match="occurrence 1") as info:
            injector.fire("writer.apply")
        assert info.value.point == "writer.apply"
        assert info.value.index == 1
        assert injector.fire("writer.apply") is None
        assert injector.history() == [("writer.apply", 1, "raise")]

    def test_delay_actions_sleep_and_return_none(self):
        injector = FaultInjector(FaultPlan().delay("dispatcher.wave", 0, 0.05))
        started = time.monotonic()
        assert injector.fire("dispatcher.wave") is None
        assert time.monotonic() - started >= 0.04
        assert injector.history() == [("dispatcher.wave", 0, "delay")]

    def test_kill_actions_are_returned_to_the_call_site(self):
        injector = FaultInjector(
            FaultPlan().kill_worker("router.dispatch", 0, shard=2)
        )
        action = injector.fire("router.dispatch")
        assert action is not None
        assert action.kind == "kill_worker"
        assert action.worker == 2

    def test_unknown_point_is_rejected_at_fire_time(self):
        injector = FaultInjector()
        with pytest.raises(ServeError, match="unknown injection point"):
            injector.fire("writer.nope")

    def test_reset_zeroes_counters_and_history(self):
        injector = FaultInjector(FaultPlan().fail("writer.apply", 0))
        with pytest.raises(InjectedFault):
            injector.fire("writer.apply")
        injector.reset()
        assert injector.occurrences("writer.apply") == 0
        assert injector.history() == []
        with pytest.raises(InjectedFault):  # the plan survives the reset
            injector.fire("writer.apply")

    def test_concurrent_fires_count_every_occurrence_exactly_once(self):
        injector = FaultInjector(FaultPlan())
        threads = [
            threading.Thread(
                target=lambda: [injector.fire("http.handler") for _ in range(50)],
                name=f"fault-firer-{index}",
            )
            for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert injector.occurrences("http.handler") == 400

    def test_same_plan_replays_the_identical_history(self):
        plan = FaultPlan.sample(29, {"writer.apply": 0.4}, horizon=10)

        def run():
            injector = FaultInjector(plan)
            for _ in range(10):
                try:
                    injector.fire("writer.apply")
                except InjectedFault:
                    pass
            return injector.history()

        assert run() == run()


def test_chaos_points_labels():
    entries = [("writer.apply", 3, "raise"), ("router.dispatch", 0, "kill_worker")]
    assert chaos_points(entries) == [
        "writer.apply@3:raise",
        "router.dispatch@0:kill_worker",
    ]
