"""Tests for the discrete-event engine."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.events import FifoPolicy, PerturbedPolicy, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run_until_idle()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        log = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: log.append(n))
        sim.run_until_idle()
        assert log == ["a", "b", "c"]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(2.0, lambda: log.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run_until_idle()
        assert log == [("first", 1.0), ("second", 3.0)]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run_until_idle()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_delay_rejected(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)
        assert sim.pending == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_absolute_time_rejected(self, bad):
        # NaN in particular would silently corrupt heap ordering: every
        # comparison against it is False, so it must be refused up front.
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(bad, lambda: None)
        assert sim.pending == 0


class TestCancellation:
    def test_cancelled_event_never_fires(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(1.0, lambda: log.append("timer"))
        sim.schedule(2.0, lambda: log.append("after"))
        assert sim.cancel(handle) is True
        sim.run_until_idle()
        assert log == ["after"]

    def test_cancelled_events_do_not_count_as_run(self):
        sim = Simulator()
        handles = [sim.schedule(1.0, lambda: None) for _ in range(5)]
        for handle in handles[1:]:
            sim.cancel(handle)
        assert sim.run_until_idle() == 1
        assert sim.events_run == 1

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert sim.cancel(handle) is True
        assert sim.cancel(handle) is False
        assert sim.pending == 0
        sim.run_until_idle()

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run_until_idle()
        assert handle.live is False
        assert sim.cancel(handle) is False
        assert sim.pending == 0

    def test_cancel_from_inside_an_event(self):
        # A reply arriving at the same instant cancels its timeout guard
        # before the guard's turn in the tie-break order.
        sim = Simulator()
        log = []
        timeout = sim.schedule(1.0, lambda: log.append("timeout"))

        def reply():
            log.append("reply")
            sim.cancel(timeout)

        sim.schedule(0.5, reply)
        sim.run_until_idle()
        assert log == ["reply"]

    def test_cancel_frees_callback_immediately(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.cancel(handle)
        assert handle.callback is None  # captured state released at cancel

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        sim.cancel(drop)
        assert sim.pending == 1
        assert keep.live and not drop.live
        sim.run_until_idle()
        assert sim.pending == 0

    def test_cancel_and_rearm(self):
        # The RPC-timeout pattern: cancel the old guard, arm a new one.
        sim = Simulator()
        log = []
        first = sim.schedule(1.0, lambda: log.append("first"))
        sim.cancel(first)
        second = sim.schedule(2.0, lambda: log.append("second"))
        assert sim.pending == 1
        sim.run_until_idle()
        assert log == ["second"]
        assert not second.live

    def test_run_until_skips_cancelled_without_charging_budget(self):
        sim = Simulator()
        doomed = [sim.schedule(1.0, lambda: None) for _ in range(9)]
        sim.schedule(1.0, lambda: None)
        for handle in doomed:
            sim.cancel(handle)
        # Nine cancelled entries surface first; only the live one may
        # count against the bound.
        assert sim.run_until(2.0, max_events=1) == 1


class TestInlineSlot:
    def test_claim_refused_at_other_times(self):
        sim = Simulator()
        assert sim.claim_inline_slot(1.0) is False

    def test_claim_refused_when_equal_timestamp_event_queued(self):
        # A queued event at the same instant has an earlier sequence
        # number and must run first; inline execution would reorder.
        sim = Simulator()
        sim.schedule(0.0, lambda: None)
        assert sim.claim_inline_slot(0.0) is False
        sim.run_until_idle()
        assert sim.claim_inline_slot(sim.now) is True

    def test_claim_skips_cancelled_head(self):
        sim = Simulator()
        head = sim.schedule(0.0, lambda: None)
        sim.cancel(head)
        assert sim.claim_inline_slot(0.0) is True
        assert sim.pending == 0

    def test_claim_counts_as_executed_event(self):
        sim = Simulator()
        assert sim.claim_inline_slot(0.0) is True
        assert sim.events_run == 1


class TestRunning:
    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_run_until_idle_counts_events(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        assert sim.run_until_idle() == 5
        assert sim.events_run == 5

    def test_run_until_idle_event_bound(self):
        sim = Simulator()

        def rescheduling():
            sim.schedule(1.0, rescheduling)

        sim.schedule(1.0, rescheduling)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=100)

    def test_run_until_idle_bound_is_exact(self):
        """Regression: the bound used to fire only after running
        ``max_events + 1`` events; it must be exact — quiescing in
        exactly ``max_events`` succeeds, needing one more raises
        without executing the extra event."""
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        assert sim.run_until_idle(max_events=10) == 10

        sim = Simulator()
        log = []
        for i in range(11):
            sim.schedule(1.0, lambda i=i: log.append(i))
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=10)
        assert log == list(range(10))  # the 11th event never ran
        assert sim.events_run == 10

    def test_run_until_bound_is_exact(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        assert sim.run_until(2.0, max_events=10) == 10

        sim = Simulator()
        for _ in range(11):
            sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.run_until(2.0, max_events=10)
        assert sim.events_run == 10

    def test_run_until_advances_clock(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(5.0, lambda: log.append(5))
        sim.run_until(3.0)
        assert log == [1]
        assert sim.now == 3.0
        sim.run_until_idle()
        assert log == [1, 5]

    def test_run_until_does_not_rewind(self):
        sim = Simulator()
        sim.schedule(4.0, lambda: None)
        sim.run_until_idle()
        sim.run_until(2.0)
        assert sim.now == 4.0


#: One simulator factory per bucket representation: the default FIFO
#: deques, FifoPolicy's keyed heaps, and two perturbed orders.
SIMULATORS = {
    "default": lambda: Simulator(),
    "fifo-policy": lambda: Simulator(policy=FifoPolicy()),
    "perturbed-1": lambda: Simulator(policy=PerturbedPolicy(random.Random(1))),
    "perturbed-2": lambda: Simulator(policy=PerturbedPolicy(random.Random(2))),
}
POLICIES = sorted(SIMULATORS)


def _mixed_bucket(sim, log, at=1.0, bare=True):
    """Queue seven events at one timestamp — bare callbacks, live
    handles and handles that get cancelled, interleaved — and return
    the labels expected to fire, in scheduling order. With ``bare``
    false the would-be bare callbacks are queued as handles instead."""
    kinds = ["bare", "cancelled", "handle", "bare", "cancelled", "handle", "bare"]
    doomed = []
    for index, kind in enumerate(kinds):
        label = "%s%d" % (kind, index)
        callback = lambda label=label: log.append(label)  # noqa: E731
        if kind == "bare" and bare:
            sim.schedule_at_pooled(at, callback)
        else:
            handle = sim.schedule_at(at, callback)
            if kind == "cancelled":
                doomed.append(handle)
    for handle in doomed:
        sim.cancel(handle)
    return ["%s%d" % (kind, i) for i, kind in enumerate(kinds) if kind != "cancelled"]


class TestMixedBuckets:
    """Buckets that hold bare fire-and-forget callbacks, live handles
    and cancelled handles at one timestamp."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_dispatch_order_and_lazy_skipping(self, policy):
        sim = SIMULATORS[policy]()
        log = []
        live = _mixed_bucket(sim, log)
        assert sim.pending == len(live)
        assert sim.run_until_idle() == len(live)
        assert sim.events_run == len(live)
        assert sorted(log) == sorted(live)  # cancelled entries never fire
        assert sim.pending == 0
        if policy in ("default", "fifo-policy"):
            assert log == live  # ties break by scheduling order
        # Bare callbacks and handles take the same place in the order:
        # an all-handle bucket under the same policy fires identically.
        reference = SIMULATORS[policy]()
        order = []
        _mixed_bucket(reference, order, bare=False)
        reference.run_until_idle()
        assert order == log

    @pytest.mark.parametrize("policy", POLICIES)
    def test_pending_tracks_cancellation_and_firing(self, policy):
        sim = SIMULATORS[policy]()
        log = []
        handles = [sim.schedule(1.0, lambda: log.append("h")) for _ in range(2)]
        sim.schedule_pooled(1.0, lambda: log.append("b"))
        assert sim.pending == 3
        sim.cancel(handles[0])
        assert sim.pending == 2
        assert sim.step() is True
        assert sim.pending == 1
        assert sim.step() is True
        assert sim.pending == 0
        assert sim.step() is False
        assert sorted(log) == ["b", "h"]
        assert not handles[1].live  # fired

    @pytest.mark.parametrize("policy", POLICIES)
    def test_claim_clears_cancelled_head_before_a_bare_callback(self, policy):
        sim = SIMULATORS[policy]()
        log = []
        head = sim.schedule(0.0, lambda: log.append("cancelled"))
        sim.schedule_pooled(0.0, lambda: log.append("bare"))
        sim.cancel(head)
        if policy.startswith("perturbed"):
            # Only a cancelled head is housekeeping; find the order.
            heads = [entry for _key, entry in sorted(sim._buckets[0.0])]
            cancelled_first = heads[0] is head
        else:
            cancelled_first = True
        # A live bare callback is queued at this instant, so the claim
        # must be refused — after dropping a cancelled head, if any.
        assert sim.claim_inline_slot(0.0) is False
        assert sim.pending == 1
        assert sim._cancelled == (0 if cancelled_first else 1)
        assert sim.events_run == 0
        assert sim.run_until_idle() == 1
        assert log == ["bare"]
        assert sim._cancelled == 0
        assert sim.claim_inline_slot(0.0) is True

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("runner", ["run_until_idle", "run_until"])
    def test_max_events_bound_is_exact(self, policy, runner):
        def run(sim, bound):
            if runner == "run_until_idle":
                return sim.run_until_idle(max_events=bound)
            return sim.run_until(2.0, max_events=bound)

        sim = SIMULATORS[policy]()
        log = []
        live = _mixed_bucket(sim, log)
        assert run(sim, len(live)) == len(live)  # cancelled cost no slot

        sim = SIMULATORS[policy]()
        log = []
        live = _mixed_bucket(sim, log)
        with pytest.raises(SimulationError):
            run(sim, len(live) - 1)
        assert len(log) == len(live) - 1
        assert sim.events_run == len(live) - 1
        # The event the bound refused is still queued, and still live.
        assert sim.pending == 1
        assert sim.run_until_idle() == 1
        assert sorted(log) == sorted(live)
