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
directly, and it settles, counts, releases and bounces the message.
Both trampolines go to the simulator as bare bound methods through its
fire-and-forget ``schedule_pooled``/``schedule_at_pooled``, so a hop
allocates no event handle.

Envelope pooling
----------------
Envelopes are drawn from a per-bus freelist (inside :meth:`MessageBus.send`)
and recycled by ``deliver`` the moment their delivery (or drop)
completes, making the send→deliver hot path allocation-free in steady
state. Recycling is safe because ``deliver`` extracts every field it
needs into locals *before* releasing, so an envelope re-acquired by a
re-entrant send inside the message handler cannot corrupt the delivery
in progress. Each release bumps the envelope's ``generation`` stamp;
anything that holds an envelope reference across events (the coalescing
map below) captures the stamp at hold time and treats a mismatch as
"this is a different message now" — the same epoch-style ABA discipline
the bus already applies to re-registered addresses.

Same-edge coalescing
--------------------
With ``coalesce=True`` the bus merges same-destination messages that
would arrive at the same instant into one trampoline event: the first
send schedules its envelope's ``arrive`` normally and parks it in
``_parked_primaries`` keyed by ``(destination, arrival time)``; later
sends matching the key chain their envelopes onto the parked one
instead of scheduling anything, and the single ``arrive`` drains the
chain in send order. Per-message accounting (service queueing, in-flight
ledger, obs hooks) is unchanged — only the number of *events* shrinks —
but because event counts and interleaving with other same-timestamp
events do change, coalescing is opt-in and off everywhere the committed
golden fingerprints apply (the ``huge`` bench profile turns it on).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.core.atomics import AtomicCounter, GuardedMap, TokenLedger
from repro.errors import SimulationError
from repro.obs import recorder as _obs
from repro.sim.events import Simulator
from repro.sim.latency import ConstantLatency, LatencyModel

#: The coalescing park: (destination, arrival time) -> (primary
#: envelope, its generation stamp at parking time).
ParkedMap = Dict[Tuple[Hashable, float], Tuple["Envelope", int]]


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
    Envelopes are pool-owned: only :meth:`MessageBus.send` constructs
    one (the RSC307 lint flags construction outside this module), and
    ``generation`` counts how many times this record has been
    recycled — the ABA stamp for anything holding a reference across
    events.
    """

    __slots__ = (
        "bus",
        "to_address",
        "message",
        "kind",
        "on_undeliverable",
        "sent_epoch",
        "generation",
        "chained",
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
        self.generation = 0
        #: Same-edge envelopes coalesced behind this one (send order),
        #: or None. Only ever non-None on a parked primary envelope.
        self.chained: Optional[List["Envelope"]] = None

    def arrive(self) -> None:
        """Network transit ended: enter the destination's service queue.

        When coalescing is on, this is also where a parked primary
        unparks itself and drains its chained same-edge envelopes —
        one event, N message deliveries, identical per-message
        accounting.
        """
        bus = self.bus
        simulator = bus.simulator
        now = simulator.now
        if bus.coalesce:
            parked = bus._parked_primaries
            key = (self.to_address, now)
            # Unpark only our own entry: chained envelopes re-enter
            # arrive() below and must not unpark a newer primary.
            entry = parked.get(key)
            if entry is not None and entry[0] is self:
                del parked[key]
            chained = self.chained
            if chained is not None:
                self.chained = None
                self.arrive()
                for envelope in chained:
                    envelope.arrive()
                return
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
        when it is gone — drop the message and run ``on_undeliverable``.
        Either way the envelope goes back to the bus's freelist."""
        bus = self.bus
        current = bus._processes.get(self.to_address)
        sent_epoch = self.sent_epoch
        if sent_epoch is not None and bus._epoch_of(self.to_address) != sent_epoch:
            current = None  # same address, different incarnation
        # Extract everything before releasing: the released envelope may
        # be re-acquired by a send issued inside the handler below.
        kind = self.kind
        message = self.message
        on_undeliverable = self.on_undeliverable
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
        else:
            bus.messages_delivered += 1
            if obs.enabled:
                obs.bus_delivered(bus.simulator.now, kind)
        # Release: the generation bump invalidates any stamp captured
        # while the envelope was live (see ``_parked_primaries``).
        self.generation += 1
        self.message = None
        self.on_undeliverable = None
        self.chained = None
        bus._envelope_pool.append(self)
        if current is not None:
            current.handle_message(message)
        elif on_undeliverable is not None:
            on_undeliverable()


class MessageBus:
    """Routes messages between registered processes.

    ``service_time`` is the per-message processing cost at the receiver
    (a single-server FIFO queue per process); ``latency`` is the network
    transit model. Both default to values that make unit tests
    deterministic. ``coalesce`` turns on same-edge arrival coalescing
    (see the module docstring) — it changes event counts, so leave it
    off wherever bit-identical event order is pinned.
    """

    def __init__(
        self,
        simulator: Simulator,
        latency: Optional[LatencyModel] = None,
        service_time: float = 0.0,
        coalesce: bool = False,
    ):
        if service_time < 0:
            raise SimulationError("service time cannot be negative")
        self.simulator = simulator
        self.latency = latency or ConstantLatency(1.0)
        self.service_time = service_time
        self.coalesce = coalesce
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
        #: Envelope freelist and its traffic counters (sim-loop work
        #: only — acquire in send, release in ``Envelope.deliver``).
        self._envelope_pool: List[Envelope] = []  # repro: owned-by: single-writer
        self._envelopes_created = 0  # repro: owned-by: single-writer
        self._envelopes_reused = 0  # repro: owned-by: single-writer
        #: Parked primaries for same-edge coalescing:
        #: (destination, arrival time) -> (envelope, generation stamp).
        #: The stamp guards against a recycled envelope masquerading as
        #: the parked one. Only ``send`` writes; the primary's
        #: ``arrive`` unparks (pops) its own entry.
        self._parked_primaries: ParkedMap = {}  # repro: owned-by: single-writer

    # ------------------------------------------------------------------
    # envelope pool
    # ------------------------------------------------------------------
    def pool_stats(self) -> Dict[str, int]:
        """Envelope-freelist traffic: constructed, recycled, and idle."""
        return {
            "created": self._envelopes_created,
            "reused": self._envelopes_reused,
            "free": len(self._envelope_pool),
        }

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
        pool = self._envelope_pool
        if pool:
            envelope = pool.pop()
            envelope.to_address = to_address
            envelope.message = message
            envelope.kind = kind
            envelope.on_undeliverable = on_undeliverable
            envelope.sent_epoch = sent_epoch
            self._envelopes_reused += 1
        else:
            self._envelopes_created += 1
            envelope = Envelope(self, to_address, message, kind, on_undeliverable, sent_epoch)
        transit = self.latency.sample()
        # Schedule-perturbation sanitizer hook: an installed policy may
        # stretch network transit by bounded jitter (0.0 by default).
        simulator = self.simulator
        policy = simulator.policy
        if policy is not None:
            transit += policy.delivery_jitter()
        if self.coalesce:
            arrive_at = simulator.now + transit
            key = (to_address, arrive_at)
            entry = self._parked_primaries.get(key)
            if entry is not None:
                primary, stamp = entry
                # Generation check: a stale entry whose envelope was
                # recycled since parking must not absorb new mail.
                if primary.generation == stamp:
                    chained = primary.chained
                    if chained is None:
                        primary.chained = [envelope]
                    else:
                        chained.append(envelope)
                    return
            self._parked_primaries[key] = (envelope, envelope.generation)
            simulator.schedule_at_pooled(arrive_at, envelope.arrive)
            return
        simulator.schedule_pooled(transit, envelope.arrive)
