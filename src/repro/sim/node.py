"""Simulated processes and the message bus.

A :class:`SimulatedProcess` is anything that handles messages (the
runtime's node hosts). The :class:`MessageBus` delivers messages between
processes with sampled network latency and models a single-server
processing queue per process: each message occupies its destination for
``service_time`` simulated units, so a node that receives the whole
token stream (e.g. the one hosting the root component, or a central
counter) becomes a measurable throughput bottleneck — the effect
Section 2's motivating example is about.

Delivery is driven by one slotted :class:`Envelope` record per message
(it replaced three nested per-message closures): the bus schedules the
envelope's ``arrive`` trampoline after network transit, and ``arrive``
either queues ``deliver`` behind the destination's service queue or —
when the destination is idle, costs no service time, and the delivery
would provably be the very next event anyway — runs it inline via
:meth:`Simulator.claim_inline_slot`, skipping the queue round-trip
without perturbing event order or accounting. ``deliver`` is also the
one drop path: an ``arrive`` that finds the destination gone calls it
directly, and it settles, counts and bounces the message. Both
trampolines go to the simulator as bare bound methods through its
fire-and-forget ``schedule_pooled``/``schedule_at_pooled``, so a hop
allocates no event handle.

Each message gets its own envelope, built by :meth:`MessageBus.send`
and never reused. A delivered envelope is simply dropped, so nothing
that reads one — including a handler that sends while its own message
is being delivered — can see it change under it. The one stale-reference
hazard left is an address that is unregistered and re-registered while
mail is in flight; the per-address epoch captured at send time guards it.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional

from repro.core.atomics import AtomicCounter, GuardedMap, TokenLedger
from repro.errors import SimulationError
from repro.obs import recorder as _obs
from repro.sim.events import Simulator
from repro.sim.latency import ConstantLatency, LatencyModel

class SimulatedProcess:
    """Base class for message handlers attached to the bus."""

    def handle_message(self, message) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class Envelope:
    """One in-flight message: destination, payload, and delivery state.

    A single slotted record carries everything the two delivery stages
    need; its bound methods ``arrive`` and ``deliver`` are the event
    callbacks (the *delivery trampoline*), so sending a message costs
    one envelope instead of three closures with captured cells.
    :meth:`MessageBus.send` builds one per message; it is garbage once
    ``deliver`` has run.
    """

    __slots__ = (
        "bus",
        "to_address",
        "message",
        "kind",
        "on_undeliverable",
        "sent_epoch",
    )

    def __init__(
        self,
        bus: "MessageBus",
        to_address: Hashable,
        message,
        kind: str,
        on_undeliverable: Optional[Callable[[], None]],
        sent_epoch: Optional[int],
    ):
        self.bus = bus
        self.to_address = to_address
        self.message = message
        self.kind = kind
        self.on_undeliverable = on_undeliverable
        self.sent_epoch = sent_epoch

    def arrive(self) -> None:
        """Network transit ended: enter the destination's service queue."""
        bus = self.bus
        simulator = bus.simulator
        now = simulator.now
        to_address = self.to_address
        sent_epoch = self.sent_epoch
        if to_address not in bus._processes or (
            sent_epoch is not None and bus._epoch_of(to_address) != sent_epoch
        ):
            # The destination is gone (or re-registered). Nothing runs
            # in between, so deliver() finds the same and drops it.
            self.deliver()
            return
        busy = bus._busy_of(to_address)
        finish = (busy if busy is not None and busy > now else now) + bus.service_time
        if finish != now:
            bus._busy_until.put(to_address, finish)
        # else: an idle destination with zero service cost stays "busy
        # until now", which any existing entry already implies — skipping
        # the write keeps the zero-service hot path free of map traffic.
        obs = _obs.ACTIVE
        if obs.enabled:
            obs.bus_queued(now, self.kind, finish - now)
        # Same-timestamp fast path: an idle destination with zero
        # service cost processes the message in this very event when the
        # simulator certifies that is order- and accounting-identical.
        if finish == now and simulator.claim_inline_slot(finish):
            self.deliver()
            return
        simulator.schedule_at_pooled(finish, self.deliver)

    def deliver(self) -> None:
        """Service slot reached: hand the payload to the process, or —
        when it is gone — drop the message and run ``on_undeliverable``."""
        bus = self.bus
        current = bus._processes.get(self.to_address)
        sent_epoch = self.sent_epoch
        if sent_epoch is not None and bus._epoch_of(self.to_address) != sent_epoch:
            current = None  # same address, different incarnation
        kind = self.kind
        in_flight = bus._in_flight_by_kind
        remaining = in_flight[kind] - 1
        if remaining:
            in_flight[kind] = remaining
        else:
            del in_flight[kind]
        obs = _obs.ACTIVE
        if current is None:
            bus.messages_dropped += 1
            if obs.enabled:
                obs.bus_dropped(bus.simulator.now, kind)
            if self.on_undeliverable is not None:
                self.on_undeliverable()
        else:
            bus.messages_delivered += 1
            if obs.enabled:
                obs.bus_delivered(bus.simulator.now, kind)
            current.handle_message(self.message)


class MessageBus:
    """Routes messages between registered processes.

    ``service_time`` is the per-message processing cost at the receiver
    (a single-server FIFO queue per process); ``latency`` is the network
    transit model. Both default to values that make unit tests
    deterministic.
    """

    def __init__(
        self,
        simulator: Simulator,
        latency: Optional[LatencyModel] = None,
        service_time: float = 0.0,
    ):
        if service_time < 0:
            raise SimulationError("service time cannot be negative")
        self.simulator = simulator
        self.latency = latency or ConstantLatency(1.0)
        self.service_time = service_time
        self._processes: Dict[Hashable, SimulatedProcess] = {}
        self._busy_until: GuardedMap[Hashable, float] = GuardedMap()  # repro: owned-by: shared
        #: Monotonic per-address registration count. A message captures
        #: the destination's epoch at send time; if the address was
        #: unregistered and re-registered while the message was in
        #: flight, the new incarnation must not receive mail addressed
        #: to the old one (the classic re-registration ABA hazard).
        self._epochs: TokenLedger[Hashable] = TokenLedger()  # repro: owned-by: shared
        #: Hoisted lock-free readers (C-level ``dict.get``) for the two
        #: per-message lookups; neither ledger is ever reset(), so the
        #: readers stay valid for the bus's lifetime.
        self._epoch_of = self._epochs.reader()
        self._busy_of = self._busy_until.reader()
        self.messages_sent = AtomicCounter()  # repro: owned-by: shared
        #: Outcome tallies, counted by ``Envelope.deliver``.
        self.messages_delivered = 0  # repro: owned-by: sim-loop-confined
        self.messages_dropped = 0  # repro: owned-by: sim-loop-confined
        #: Messages sent but not yet delivered or dropped, per kind
        #: (kinds with none in flight are absent). ``send`` posts,
        #: ``Envelope.deliver`` settles.
        self._in_flight_by_kind: Dict[str, int] = {}  # repro: owned-by: sim-loop-confined

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, address: Hashable, process: SimulatedProcess) -> None:
        if address in self._processes:
            raise SimulationError("address %r already registered" % (address,))
        self._processes[address] = process
        self._epochs.post(address)

    def unregister(self, address: Hashable) -> None:
        # The epoch entry deliberately survives: it must keep growing
        # across re-registrations of the same address.
        self._processes.pop(address, None)
        self._busy_until.take(address)

    def is_registered(self, address: Hashable) -> bool:
        return address in self._processes

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def in_flight(self, kind: str) -> int:
        """Messages of a given kind sent but not yet handled."""
        return self._in_flight_by_kind.get(kind, 0)

    def send(
        self,
        to_address: Hashable,
        message,
        kind: str = "message",
        on_undeliverable: Optional[Callable[[], None]] = None,
    ) -> None:
        """Deliver ``message`` to ``to_address`` after latency + queueing.

        If the destination is gone at delivery time (crash), the message
        is dropped and ``on_undeliverable`` (if given) runs instead —
        this is how neighbours notice lost components.
        """
        self.messages_sent.increment()
        in_flight = self._in_flight_by_kind
        in_flight[kind] = in_flight.get(kind, 0) + 1
        obs = _obs.ACTIVE
        if obs.enabled:
            obs.bus_sent(self.simulator.now, kind)
        # None when the destination is not registered yet: such mail may
        # be picked up by whoever registers first (existing semantics —
        # a registered address always has an epoch entry, so the hoisted
        # raw reader is equivalent to the ledger get here).
        sent_epoch = self._epoch_of(to_address) if to_address in self._processes else None
        envelope = Envelope(self, to_address, message, kind, on_undeliverable, sent_epoch)
        transit = self.latency.sample()
        # Schedule-perturbation sanitizer hook: an installed policy may
        # stretch network transit by bounded jitter (0.0 by default).
        simulator = self.simulator
        policy = simulator.policy
        if policy is not None:
            transit += policy.delivery_jitter()
        simulator.schedule_pooled(transit, envelope.arrive)
