"""Tokens and token bookkeeping for the distributed runtime.

:class:`Token` and :class:`TokenMsg` are the hottest records in the
system — one of each per injection, and a ``TokenMsg`` per hop — so
both are hand-rolled ``__slots__`` classes rather than dataclasses:
no per-instance ``__dict__``, cheaper attribute access, and (for
``Token``) cheaper mutation of the hop/reroute counters en route.

:class:`TokenPool` is the freelist the system draws tokens from when
``recycle_tokens`` is enabled: a retired token is released back to the
pool after its retire-side bookkeeping completes and the next injection
reuses the record. Recycling is opt-in because anything that retains a
``Token`` reference past retirement (per-token experiment traces) would
observe the record mutate; the ``generation`` stamp makes such stale
retention detectable, exactly like envelope recycling on the bus.
Token construction outside this module is flagged by the RSC307 lint —
go through the pool (or the system's injection API) instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.atomics import AtomicCounter
from repro.obs import recorder as _obs


class Token:
    """One client token traversing the adaptive counting network."""

    __slots__ = (
        "token_id",
        "entry_wire",
        "issued_at",
        "hops",
        "reroutes",
        "retired_at",
        "exit_wire",
        "value",
        "owed",
        "generation",
    )

    def __init__(
        self,
        token_id: int,
        entry_wire: int,
        issued_at: float,
        hops: int = 0,
        reroutes: int = 0,
        retired_at: Optional[float] = None,
        exit_wire: Optional[int] = None,
        value: Optional[int] = None,
    ):
        self.token_id = token_id
        self.entry_wire = entry_wire
        self.issued_at = issued_at
        self.hops = hops
        self.reroutes = reroutes
        self.retired_at = retired_at
        self.exit_wire = exit_wire
        self.value = value
        #: Runtime bookkeeping: the (path, port) this token is currently
        #: owed to (emitted toward but not yet arrived at), or None.
        #: Crash recovery subtracts owed tokens when reconstructing a
        #: lost component's arrival counts.
        self.owed = None
        #: Recycle count (see :class:`TokenPool`): bumped on release, so
        #: a stale reference held past retirement is detectable.
        self.generation = 0

    @property
    def latency(self) -> Optional[float]:
        if self.retired_at is None:
            return None
        return self.retired_at - self.issued_at

    def __repr__(self):
        return "Token(id=%d, wire=%d, value=%r)" % (
            self.token_id,
            self.entry_wire,
            self.value,
        )


class TokenPool:
    """Freelist of :class:`Token` records for recycle-enabled runs.

    ``acquire`` either pops a retired record and resets *every* mutable
    field (a recycled token is indistinguishable from a fresh one except
    for its ``generation`` stamp) or constructs a new one. ``release``
    bumps the generation and returns the record to the freelist; callers
    must not touch the token afterwards. All traffic happens inside the
    simulation loop (injection and retirement are both events), so plain
    counters suffice.
    """

    def __init__(self) -> None:
        self._free: List[Token] = []  # repro: owned-by: single-writer
        self._acquired_fresh = 0  # repro: owned-by: single-writer
        self._acquired_recycled = 0  # repro: owned-by: single-writer

    def acquire(self, token_id: int, entry_wire: int, issued_at: float) -> Token:
        free = self._free
        if free:
            token = free.pop()
            token.token_id = token_id
            token.entry_wire = entry_wire
            token.issued_at = issued_at
            token.hops = 0
            token.reroutes = 0
            token.retired_at = None
            token.exit_wire = None
            token.value = None
            token.owed = None
            self._acquired_recycled += 1
            return token
        self._acquired_fresh += 1
        return Token(token_id, entry_wire, issued_at)

    def release(self, token: Token) -> None:
        token.generation += 1
        self._free.append(token)

    def stats(self) -> dict:
        """Pool traffic: constructed, recycled, and idle record counts."""
        return {
            "created": self._acquired_fresh,
            "reused": self._acquired_recycled,
            "free": len(self._free),
        }


class TokenMsg:
    """A token addressed to input ``port`` of the component at ``path``.

    The message doubles as its own bounce callback: the sending
    ``system`` passes it to the bus as ``on_undeliverable``, so a hop
    allocates no closure, and calling it hands the token back to the
    system for a retry (see :meth:`__call__`).
    """

    __slots__ = ("path", "port", "token", "system")

    def __init__(self, path: Tuple[int, ...], port: int, token: Token, system=None):
        self.path = path
        self.port = port
        self.token = token
        self.system = system

    def __call__(self) -> None:
        """The bus could not deliver this message (its destination
        crashed): hand the token back to the system for a retry."""
        self.system._bounce(self.path, ((self.port, self.token),))

    def __repr__(self):
        return "TokenMsg(path=%r, port=%d, token=%r)" % (
            self.path,
            self.port,
            self.token,
        )


@dataclass
class TokenStats:
    """Aggregate token-plane statistics for one run.

    ``dropped`` counts tokens that exhausted their reroute budget and
    gave up (only reachable with recovery disabled); every issued token
    either retires or drops, so ``retired + dropped == issued`` at
    quiescence.
    """

    # Each statistic is an AtomicCounter (thread-readiness contract);
    # the counters compare/add like the plain ints they replaced, and
    # `stats.issued += n` still works (one atomic add, same object).
    issued: AtomicCounter = field(default_factory=AtomicCounter)  # repro: owned-by: shared
    retired: AtomicCounter = field(default_factory=AtomicCounter)  # repro: owned-by: shared
    dropped: AtomicCounter = field(default_factory=AtomicCounter)  # repro: owned-by: shared
    total_hops: AtomicCounter = field(default_factory=AtomicCounter)  # repro: owned-by: shared
    total_reroutes: AtomicCounter = field(default_factory=AtomicCounter)  # repro: owned-by: shared
    latencies: list = field(default_factory=list)

    def record_retired(self, token: Token) -> None:
        self.retired.increment()
        self.total_hops.increment(token.hops)
        self.total_reroutes.increment(token.reroutes)
        self.latencies.append(token.latency)
        obs = _obs.ACTIVE
        if obs.enabled:
            obs.token_retired(token)

    def record_dropped(self, token: Token) -> None:
        self.dropped.increment()

    @property
    def mean_hops(self) -> float:
        retired = self.retired.get()
        return self.total_hops.get() / retired if retired else 0.0

    @property
    def mean_latency(self) -> float:
        valid = [latency for latency in self.latencies if latency is not None]
        return sum(valid) / len(valid) if valid else 0.0
