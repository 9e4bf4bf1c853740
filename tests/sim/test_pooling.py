"""Object-pool lifecycle and ABA regression tests.

Two freelists keep the simulator hot path allocation-free in steady
state: the per-bus :class:`Envelope` pool and the opt-in
:class:`~repro.runtime.tokens.TokenPool`. Recycling a record that
something still references is the classic ABA hazard; these tests pin
the disciplines that prevent it — generation stamps (envelopes,
tokens) and extract-before-release (delivery paths) — plus the opt-in
same-edge coalescing built on the envelope stamps.
"""

import random

from repro.runtime.tokens import Token, TokenPool
from repro.sim.events import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.node import MessageBus, SimulatedProcess


class Recorder(SimulatedProcess):
    """Records every payload it is handed, in order."""

    def __init__(self):
        self.received = []

    def handle_message(self, message):
        self.received.append(message)


def make_bus(coalesce=False, service_time=0.0):
    sim = Simulator()
    bus = MessageBus(
        sim, ConstantLatency(1.0), service_time=service_time, coalesce=coalesce
    )
    receiver = Recorder()
    bus.register("a", receiver)
    return sim, bus, receiver


class TestEnvelopePool:
    def test_steady_state_reuses_one_envelope(self):
        sim, bus, receiver = make_bus()
        for index in range(50):
            bus.send("a", index)
            sim.run_until_idle()
        assert receiver.received == list(range(50))
        stats = bus.pool_stats()
        assert stats["created"] == 1
        assert stats["reused"] == 49
        assert stats["free"] == 1  # idle: the one record is home again

    def test_release_bumps_generation(self):
        sim, bus, _receiver = make_bus()
        bus.send("a", "m", on_undeliverable=lambda: None)
        sim.run_until_idle()
        (envelope,) = bus._envelope_pool  # released by its delivery
        assert envelope.generation == 1
        # Scrubbed on release: no payload or callback is retained.
        assert envelope.message is None
        assert envelope.on_undeliverable is None
        assert envelope.chained is None

    def test_reentrant_send_inside_handler_is_safe(self):
        """A handler that sends re-acquires the very envelope carrying
        the message being handled (extract-before-release): both
        deliveries must still be intact."""
        sim = Simulator()
        bus = MessageBus(sim, ConstantLatency(1.0))
        log = []

        class Chainer(SimulatedProcess):
            def handle_message(self, message):
                log.append(("a", message))
                if message == "first":
                    bus.send("b", "second")

        sink = Recorder()
        bus.register("a", Chainer())
        bus.register("b", sink)
        bus.send("a", "first")
        sim.run_until_idle()
        assert log == [("a", "first")]
        assert sink.received == ["second"]
        # One record served both legs.
        assert bus.pool_stats()["created"] == 1


class TestCoalescing:
    def test_same_edge_burst_delivers_in_send_order_with_fewer_events(self):
        plain_sim, plain_bus, plain_receiver = make_bus(coalesce=False)
        coal_sim, coal_bus, coal_receiver = make_bus(coalesce=True)
        for index in range(3):
            plain_bus.send("a", index)
            coal_bus.send("a", index)
        plain_sim.run_until_idle()
        coal_sim.run_until_idle()
        # Same deliveries, same order, same accounting...
        assert plain_receiver.received == coal_receiver.received == [0, 1, 2]
        assert plain_bus.messages_delivered == 3
        assert coal_bus.messages_delivered == 3
        # ...but the coalesced burst costs fewer events (one arrival
        # trampoline instead of three).
        assert coal_sim.events_run.get() < plain_sim.events_run.get()
        assert not coal_bus._parked_primaries  # nothing left parked

    def test_distinct_arrival_instants_never_coalesce(self):
        sim, bus, receiver = make_bus(coalesce=True)
        bus.send("a", "early")
        sim.run_until_idle()  # arrival consumed; clock at 1.0
        bus.send("a", "late")  # arrives at 2.0 — different key
        sim.run_until_idle()
        assert receiver.received == ["early", "late"]

    def test_stale_parked_entry_is_not_resurrected(self):
        """ABA regression: a parked-map entry whose envelope was
        released (and hence recycled — possibly into the very send now
        being processed) must not absorb new mail. The generation stamp
        detects the recycle even when the freelist hands back the same
        object."""
        sim, bus, receiver = make_bus(coalesce=True)
        # An envelope that lived and died: released records return to
        # the freelist with a bumped generation.
        bus.send("a", "old")
        sim.run_until_idle()
        (envelope,) = bus._envelope_pool
        stamp = envelope.generation - 1
        receiver.received.clear()
        # Plant the stale entry, simulating a missed unpark. The next
        # send re-acquires this exact record from the freelist, so
        # without the stamp check it would chain mail onto itself —
        # mail that nothing is scheduled to drain.
        bus._parked_primaries[("a", sim.now + 1.0)] = (envelope, stamp)
        bus.send("a", "fresh")
        sim.run_until_idle()
        assert receiver.received == ["fresh"]
        assert bus.messages_dropped == 0
        assert not bus._parked_primaries

    def test_chained_mail_guarded_by_live_stamp(self):
        """The normal path: a live parked primary absorbs same-edge
        same-instant sends and drains them in send order."""
        sim, bus, receiver = make_bus(coalesce=True)
        bus.send("a", "one")
        key = ("a", 1.0)
        primary, stamp = bus._parked_primaries[key]
        assert primary.generation == stamp  # live, stamp current
        bus.send("a", "two")
        bus.send("a", "three")
        assert [env.message for env in primary.chained] == ["two", "three"]
        sim.run_until_idle()
        assert receiver.received == ["one", "two", "three"]


class TestTokenPool:
    def test_acquire_resets_every_mutable_field(self):
        pool = TokenPool()
        token = pool.acquire(1, 2, 3.0)
        token.hops = 9
        token.reroutes = 4
        token.retired_at = 99.0
        token.exit_wire = 7
        token.value = 123
        token.owed = ("path", 0)
        pool.release(token)
        recycled = pool.acquire(10, 5, 50.0)
        assert recycled is token  # freelist handed the record back
        assert recycled.token_id == 10
        assert recycled.entry_wire == 5
        assert recycled.issued_at == 50.0
        assert recycled.hops == 0
        assert recycled.reroutes == 0
        assert recycled.retired_at is None
        assert recycled.exit_wire is None
        assert recycled.value is None
        assert recycled.owed is None

    def test_release_bumps_generation_for_stale_detection(self):
        pool = TokenPool()
        token = pool.acquire(1, 0, 0.0)
        held = token  # a reference retained past retirement
        stamp = held.generation
        pool.release(token)
        assert held.generation == stamp + 1  # stale retention detectable

    def test_stats_track_created_reused_free(self):
        pool = TokenPool()
        first = pool.acquire(1, 0, 0.0)
        second = pool.acquire(2, 0, 0.0)
        assert pool.stats() == {"created": 2, "reused": 0, "free": 0}
        pool.release(first)
        pool.release(second)
        assert pool.stats()["free"] == 2
        pool.acquire(3, 0, 0.0)
        assert pool.stats() == {"created": 2, "reused": 1, "free": 1}

    def test_fresh_token_generation_starts_at_zero(self):
        assert Token(1, 0, 0.0).generation == 0


class TestSystemRecycling:
    def test_recycled_tokens_flow_through_injection(self):
        from repro.runtime.system import AdaptiveCountingSystem

        system = AdaptiveCountingSystem(
            width=4, seed=7, initial_nodes=4, recycle_tokens=True
        )
        system.converge()
        for _ in range(20):
            system.inject_token()
            system.run_until_quiescent()
        stats = system.token_pool.stats()
        assert stats["reused"] > 0
        assert stats["created"] + stats["reused"] == 20
        system.verify()

    def test_publish_pool_stats_snapshots_both_pools(self):
        from repro.runtime.system import AdaptiveCountingSystem

        system = AdaptiveCountingSystem(
            width=4, seed=7, initial_nodes=4, recycle_tokens=True
        )
        system.converge()
        system.inject_token()
        system.run_until_quiescent()
        snapshot = system.publish_pool_stats()
        assert set(snapshot) == {"envelopes", "tokens"}
        for pool_stats in snapshot.values():
            assert set(pool_stats) == {"created", "reused", "free"}
        assert snapshot["envelopes"]["created"] > 0

    def test_snapshot_agrees_with_the_pools_own_accounting(self):
        from repro.runtime.system import AdaptiveCountingSystem

        system = AdaptiveCountingSystem(
            width=4, seed=3, initial_nodes=4, recycle_tokens=True
        )
        system.converge()
        for _ in range(10):
            system.inject_token()
        system.run_until_quiescent()
        snapshot = system.publish_pool_stats()
        assert snapshot["tokens"] == system.token_pool.stats()
        assert snapshot["envelopes"] == system.bus.pool_stats()
        # Every issued token came out of the pool, one way or the other.
        tokens = snapshot["tokens"]
        assert tokens["created"] + tokens["reused"] == 10
        # Quiescent: every recycled record is home on the freelist.
        assert tokens["free"] == tokens["created"]

    def test_publish_pool_stats_sets_recorder_gauges(self):
        from repro.obs.recorder import Recorder as ObsRecorder
        from repro.obs.recorder import recording
        from repro.runtime.system import AdaptiveCountingSystem

        system = AdaptiveCountingSystem(
            width=4, seed=3, initial_nodes=4, recycle_tokens=True
        )
        system.converge()
        with recording(ObsRecorder()) as recorder:
            system.inject_token()
            system.run_until_quiescent()
            snapshot = system.publish_pool_stats()
        metrics = recorder.metrics
        for name, stats in snapshot.items():
            assert metrics.gauge("pool.created", (name,)).value == stats["created"]
            assert metrics.gauge("pool.reused", (name,)).value == stats["reused"]
            assert metrics.gauge("pool.free", (name,)).value == stats["free"]
