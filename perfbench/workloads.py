"""The benchmark's workloads, each driven through the public
:class:`~repro.runtime.system.AdaptiveCountingSystem` API.

A run builds its starting systems, then measures *rounds* until its
time is up. A round is a fixed piece of simulated-time schedule followed
by a quiesce and every output check; in ``reconfig`` a round is one pass
over a fixed list of independent episodes. The same seed gives the same
inputs and, the simulator being deterministic, the same simulated
results, so the first rounds of two runs of one seed must have equal
digests.

How long a converge() takes, and how deep tokens travel, depend on the
random ring layout. One layout per run would make those figures a
property of the seed, so the token workloads time the builds of
:data:`FLEET_BUILDS` independent starting systems and inject into
:data:`FLEET` of them in turn.

Host time is process CPU time, normalized for host speed by
:mod:`hostclock`; waiting for the processor while other processes run
does not count against the program. Every system is built
with default options (no coalescing, token recycling or combining).
Tokens are injected open-loop, on a fixed simulated-time schedule
whatever the network's state, so a token's latency runs from the
instant it was due.
"""

from __future__ import annotations

import gc
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import StepPropertyViolation, StructureError
from repro.runtime.system import AdaptiveCountingSystem
from repro.sim.failures import churn_trace
from repro.sim.latency import DiscreteLatency, UniformLatency

from hostclock import HostClock, TimedPhase
from stats import ValueLedger, percentile

#: Starting systems built per token-workload run, each from its own
#: seed; set-up time and converge() time are medians over them.
FLEET_BUILDS = 24
#: How many of them take traffic, one round each in turn.
FLEET = 4


@dataclass
class Round:
    """One measured round."""

    issued: int
    retired: int
    failed: int
    events: int
    messages: int
    cpu_s: float
    #: Simulated-time-only fingerprint of the round.
    digest: Tuple


@dataclass
class RunResult:
    """Everything one run measured and checked."""

    #: CPU seconds per build of the starting system (``reconfig``: per
    #: pass, summed over its episodes).
    setup_s: List[float]
    #: CPU seconds of each converge() call that returned.
    converge_s: List[float]
    rounds: List[Round]
    #: Simulated latency of every token retired in the first
    #: replayed rounds, ascending (a pure function of the seed).
    latencies: List[float]
    #: CPU seconds of each verify() call, all outside the timed phase.
    verify_s: List[float]
    #: Operations: tokens for steady and churn, episodes for reconfig.
    attempted: int = 0
    failed: int = 0
    #: failure kind -> count; failed episodes of the first pass, index
    #: -> what failed (reconfig only).
    failure_kinds: Dict[str, int] = field(default_factory=dict)
    failed_episodes: Dict[int, str] = field(default_factory=dict)
    #: Peak resident set size once the replayed rounds are done, so
    #: that it does not grow with the number of rounds a run fits in.
    peak_rss_mb: float = 0.0
    #: False if a repeated pass of reconfig gave another outcome than
    #: the first pass of the same episodes.
    repeats_agree: bool = True

    def digest(self, rounds: int) -> Tuple:
        head = [r.digest for r in self.rounds[:rounds]]
        return tuple(head) + (
            percentile(self.latencies, 50), percentile(self.latencies, 99)
        )


def failure_kind(error: BaseException) -> str:
    """The failure classes the reconfiguration defect shows up as."""
    if isinstance(error, StructureError):
        return "StructureError"
    if isinstance(error, StepPropertyViolation):
        return "StepPropertyViolation"
    return "other"


def _count(kinds: Dict[str, int], kind: str) -> None:
    kinds[kind] = kinds.get(kind, 0) + 1


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(part) for part in parts))


def _timed_build(build: Callable[[], AdaptiveCountingSystem], clock: HostClock):
    """Build and converge a starting system; returns (system, CPU
    seconds of the whole build, CPU seconds of its converge())."""
    gc.collect()
    start = clock()
    system = build()
    converge_start = clock()
    system.converge()
    end = clock()
    return system, end - start, end - converge_start


def check_quiesced(system: AdaptiveCountingSystem, ledger: ValueLedger,
                   issued_before: int, dropped_before: int, verify_s: List[float],
                   kinds: Dict[str, int], clock: HostClock) -> Tuple[int, str]:
    """Check a quiesced system; returns how many of the tokens issued
    since ``issued_before`` failed, and what failed ("" if nothing).

    All of them fail if verify() raises. Otherwise the failures are the
    tokens dropped since ``dropped_before``, those unaccounted for
    (issued != retired + dropped) and those retired with a value that
    breaks the gap-free rule. verify() accepts a drop, and skips its
    step-property check once anything was dropped, so a drop must be
    counted here.
    """
    stats = system.token_stats
    issued = stats.issued.get()
    new = issued - issued_before
    start = clock()
    try:
        system.verify()
    except Exception as error:  # a failed check is a result to count
        _count(kinds, failure_kind(error))
        return new, "%s: %s" % (type(error).__name__, error)
    finally:
        verify_s.append(clock() - start)
    retired = stats.retired.get()
    dropped = stats.dropped.get()
    wrong = ledger.add_up_to(issued)
    lost = abs(issued - retired - dropped)
    new_drops = dropped - dropped_before
    bad = wrong + lost + new_drops
    if not bad:
        return 0, ""
    _count(kinds, "other")
    return min(new, bad), "%d dropped, %d unaccounted, %d wrong values" % (
        new_drops, lost, wrong)


# ----------------------------------------------------------------------
# token workloads: a fleet of long-lived systems, rounds of injection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TokenWorkload:
    """A converged starting system and the schedule of one round."""

    name: str
    #: (seed, fleet index) -> an unconverged starting system
    build: Callable[[int, int], AdaptiveCountingSystem]
    #: (system, round rng) -> None: inject one round's schedule.
    drive: Callable[[AdaptiveCountingSystem, random.Random], None]
    #: Tokens one round injects.
    tokens: int
    #: Layers the workload exists to exercise.
    exercises: Tuple[str, ...]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_tokens(workload: TokenWorkload, seed: int, seconds: float,
               phase: TimedPhase, measure_setup: bool = True) -> RunResult:
    """Build the :data:`FLEET`, then measure rounds on its systems in
    turn until ``seconds`` of wall time have passed (at least one round
    each).

    With ``measure_setup``, each round is followed by a build of one
    more starting system, until all :data:`FLEET_BUILDS` have been built
    once. Spreading the builds over the run exposes them to the same
    drift in host speed as the rounds, instead of to the first second.

    A round that raises fails all of its tokens. Its system is then
    replaced by a fresh one, built untimed, so the run goes on.
    """
    result = RunResult(setup_s=[], converge_s=[], rounds=[], latencies=[], verify_s=[])

    def build(index: int) -> AdaptiveCountingSystem:
        system, setup_s, converge_s = _timed_build(
            lambda: workload.build(seed, index), phase.control)
        result.setup_s.append(setup_s)
        result.converge_s.append(converge_s)
        return system

    def listen(system: AdaptiveCountingSystem) -> Tuple[AdaptiveCountingSystem, ValueLedger]:
        ledger = ValueLedger()
        system.on_retire(lambda token, values=ledger.values: values.append(token.value))
        return system, ledger

    phase.calibrate()
    fleet = [listen(build(index)) for index in range(FLEET)]
    probes = FLEET_BUILDS - FLEET if measure_setup else 0
    phase.calibrate()  # the first round's calibration before
    started = time.perf_counter()
    while (len(result.rounds) < max(FLEET, probes)
           or time.perf_counter() - started < seconds):
        index = len(result.rounds)
        system, ledger = fleet[index % FLEET]
        stats = system.token_stats
        rng = _rng(workload.name, seed, index)
        issued_before = stats.issued.get()
        retired_before = stats.retired.get()
        dropped_before = stats.dropped.get()
        events_before = system.sim.events_run.get()
        messages_before = system.bus.messages_sent.get()
        latency_mark = len(stats.latencies)
        raw_before = phase.raw_s
        raised = None
        try:
            with phase:
                workload.drive(system, rng)
                system.run_until_quiescent()
        except Exception as error:  # a failed round is a result to count
            raised = failure_kind(error)
        phase.calibrate()
        cpu_s = phase.bracketed(phase.raw_s - raw_before)
        if raised is None:
            failed, _ = check_quiesced(
                system, ledger, issued_before, dropped_before, result.verify_s,
                result.failure_kinds, phase.control,
            )
            issued = stats.issued.get() - issued_before
        else:
            _count(result.failure_kinds, raised)
            failed = issued = workload.tokens
            fleet[index % FLEET] = listen(workload.build(seed, FLEET_BUILDS + index))
            fleet[index % FLEET][0].converge()
        latencies = stats.latencies[latency_mark:]
        if index < FLEET:
            result.latencies.extend(latencies)
        retired = stats.retired.get() - retired_before
        events = system.sim.events_run.get() - events_before
        messages = system.bus.messages_sent.get() - messages_before
        result.attempted += issued
        result.failed += failed
        result.rounds.append(Round(
            issued=issued,
            retired=retired,
            failed=failed,
            events=events,
            messages=messages,
            cpu_s=cpu_s,
            digest=(issued, retired, failed, events, messages, system.sim.now,
                    system.num_nodes, sum(latencies), raised),
        ))
        if index == FLEET - 1:
            result.peak_rss_mb = peak_rss_mb()
        if index < probes:
            build(FLEET + index)
    result.latencies.sort()
    return result


def _steady_build(seed: int, index: int) -> AdaptiveCountingSystem:
    rng = _rng("steady", seed, index)
    return AdaptiveCountingSystem(
        width=64,
        seed=rng.randrange(2 ** 31),
        initial_nodes=200,
        latency=DiscreteLatency((0.5, 1.0, 2.0), random.Random(rng.randrange(2 ** 31))),
    )


STEADY_BURST = 32
STEADY_INSTANTS = 100


def _steady_drive(system: AdaptiveCountingSystem, rng: random.Random) -> None:
    inject = system.inject_token
    advance = system.advance
    for _ in range(STEADY_INSTANTS):
        advance(1.0)
        for _ in range(STEADY_BURST):
            inject()


#: Width 64, 200 converged nodes, no membership change, 32 tokens at
#: each whole instant and three latency classes: deliveries pile into
#: shared timestamp buckets, and the topology and edge caches never
#: change, so the token plane, the bus and the event core do the work.
STEADY = TokenWorkload(
    "steady", _steady_build, _steady_drive, STEADY_BURST * STEADY_INSTANTS,
    exercises=("sim.events", "sim.node", "runtime.tokens", "runtime.lookup",
               "core.components", "core.atomics", "chord.lookup"),
)


def _churn_build(seed: int, index: int) -> AdaptiveCountingSystem:
    rng = _rng("churn", seed, index)
    return AdaptiveCountingSystem(
        width=32,
        seed=rng.randrange(2 ** 31),
        initial_nodes=100,
        latency=UniformLatency(0.5, 2.0, random.Random(rng.randrange(2 ** 31))),
    )


CHURN_TOKENS = 3000
CHURN_SPACING = 0.25
#: Joins and crashes per simulated time unit, each: about one
#: membership change per 25 tokens. A join is skipped above
#: CHURN_MAX_NODES and a crash below CHURN_MIN_NODES, so the ring stays
#: near 100 nodes.
CHURN_RATE = 0.02
CHURN_MIN_NODES = 80
CHURN_MAX_NODES = 120


def _churn_drive(system: AdaptiveCountingSystem, rng: random.Random) -> None:
    schedule = churn_trace(rng, CHURN_TOKENS * CHURN_SPACING, CHURN_RATE, 0.0, CHURN_RATE)
    inject = system.inject_token
    advance = system.advance
    position = 0
    for index in range(CHURN_TOKENS):
        advance(CHURN_SPACING)
        due = (index + 1) * CHURN_SPACING
        while position < len(schedule) and schedule[position].time <= due:
            if schedule[position].action == "join":
                if system.num_nodes < CHURN_MAX_NODES:
                    system.add_node()
            elif system.num_nodes > CHURN_MIN_NODES:
                system.crash_node()
            position += 1
        inject()


#: Width 32, about 100 nodes, one token per instant and uniform latency,
#: so nearly every event gets its own timestamp. Seeded Poisson joins
#: and crashes with recovery on: every membership change invalidates the
#: caches, and crashes drive recovery, reroutes and retries.
CHURN = TokenWorkload(
    "churn", _churn_build, _churn_drive, CHURN_TOKENS,
    exercises=("sim.events", "sim.node", "runtime.tokens", "runtime.lookup",
               "runtime.membership", "runtime.stabilization", "core.components",
               "core.wiring", "core.atomics", "chord.ring", "chord.lookup"),
)


# ----------------------------------------------------------------------
# reconfig: independent episodes that reconfigure with tokens in flight
# ----------------------------------------------------------------------
RECONFIG_EPISODES = 150
RECONFIG_CHANGE = 16
RECONFIG_BATCH = 50
#: Episodes between host-speed calibrations (a pass takes seconds).
CALIBRATE_EVERY = 10

RECONFIG_EXERCISES = (
    "sim.events", "sim.node", "runtime.tokens", "runtime.lookup",
    "runtime.membership", "runtime.reconfig", "runtime.rules", "core.components",
    "core.splitmerge", "core.wiring", "core.atomics", "chord.ring",
    "chord.estimation",
)


@dataclass
class Episode:
    """What one episode measured; ``failure`` is None if it passed."""

    setup_s: float = 0.0
    cpu_s: float = 0.0
    converge_s: Optional[float] = None
    issued: int = 0
    retired: int = 0
    events: int = 0
    messages: int = 0
    latencies: List[float] = field(default_factory=list)
    verify_s: List[float] = field(default_factory=list)
    failure: Optional[str] = None
    detail: str = ""


def episode_size(seed: int, index: int, episodes: int = RECONFIG_EPISODES) -> int:
    """The starting size of an episode: grow episodes (even indices)
    take 16–128 nodes and shrink episodes 17–128, so that a shrink
    leaves a node behind. Sizes are spread evenly over that range and
    dealt out in a seeded order: every seed sees the same mix of sizes,
    and only the order and the ring layouts vary with it."""
    grow = index % 2 == 0
    low = 16 if grow else RECONFIG_CHANGE + 1
    count = (episodes + (1 if grow else 0)) // 2
    grid = [low + (k * (128 - low)) // max(count - 1, 1) for k in range(count)]
    _rng("reconfig-sizes", seed, grow).shuffle(grid)
    return grid[index // 2]


def reconfig_episode(seed: int, index: int, phase: TimedPhase) -> Episode:
    """Build a converged, quiescent system of a seeded size; join or
    gracefully remove 16 nodes (alternating by episode); inject a batch
    of tokens; call converge() while they are in flight; quiesce; check.

    converge() is never preceded by a quiesce: overlapping the rules
    with traffic is what this workload measures.
    """
    rng = _rng("reconfig", seed, index)
    grow = index % 2 == 0
    size = episode_size(seed, index)
    system_seed = rng.randrange(2 ** 31)
    latency_seed = rng.randrange(2 ** 31)
    system, setup_s, _ = _timed_build(lambda: AdaptiveCountingSystem(
        width=32,
        seed=system_seed,
        initial_nodes=size,
        latency=UniformLatency(0.5, 2.0, random.Random(latency_seed)),
    ), phase.control)
    episode = Episode(setup_s=setup_s)
    ledger = ValueLedger()
    system.on_retire(lambda token: ledger.values.append(token.value))
    events_before = system.sim.events_run.get()
    messages_before = system.bus.messages_sent.get()
    cpu_before = phase.control_s
    try:
        with phase:
            for _ in range(RECONFIG_CHANGE):
                if grow:
                    system.add_node()
                else:
                    system.remove_node()
            for _ in range(RECONFIG_BATCH):
                system.inject_token()
            start = phase.control()
            system.converge()
            episode.converge_s = phase.control() - start
            system.run_until_quiescent()
        kinds: Dict[str, int] = {}
        failed, problem = check_quiesced(
            system, ledger, 0, 0, episode.verify_s, kinds, phase.control)
        if failed:
            episode.failure = next(iter(kinds))
            episode.detail = "output check failed: " + problem
    except Exception as error:  # one episode's failure must not end the run
        episode.failure = failure_kind(error)
        episode.detail = "%s: %s" % (type(error).__name__, error)
    episode.cpu_s = phase.control_s - cpu_before
    episode.issued = system.token_stats.issued.get()
    episode.retired = system.token_stats.retired.get()
    episode.events = system.sim.events_run.get() - events_before
    episode.messages = system.bus.messages_sent.get() - messages_before
    episode.latencies = [t for t in system.token_stats.latencies if t is not None]
    return episode


def run_reconfig(seed: int, seconds: float, phase: TimedPhase,
                 episode: Callable[[int, int, TimedPhase], Episode] = reconfig_episode,
                 episodes: int = RECONFIG_EPISODES) -> RunResult:
    """Passes over the same ``episodes`` episodes until ``seconds`` of
    wall time have passed (at least one). Set-up is measured in every
    pass.

    An operation is an episode, and the operations are the ``episodes``
    distinct episodes of the first pass: ``attempted``, ``failed`` and
    the failure kinds depend on the seed alone, not on how many passes
    fit in the run. Every later pass repeats the same episodes to time
    them again, and must give the first pass's outcome, episode by
    episode; otherwise ``repeats_agree`` is False.

    A fresh system per episode means one failure cannot cut the run
    short, so every commit attempts the same work.
    """
    result = RunResult(setup_s=[], converge_s=[], rounds=[], latencies=[], verify_s=[])
    started = time.perf_counter()
    while not result.rounds or time.perf_counter() - started < seconds:
        first = not result.rounds
        gc.collect()
        outcomes = []
        for index in range(episodes):
            if index % CALIBRATE_EVERY == 0:
                phase.calibrate()
            outcomes.append(episode(seed, index, phase))
        failed = 0
        for index, outcome in enumerate(outcomes):
            if outcome.converge_s is not None:
                result.converge_s.append(outcome.converge_s)
            result.verify_s.extend(outcome.verify_s)
            if outcome.failure is None:
                continue
            failed += 1
            if first:
                _count(result.failure_kinds, outcome.failure)
                result.failed_episodes[index] = outcome.detail
        if first:
            result.latencies = sorted(t for o in outcomes for t in o.latencies)
            result.peak_rss_mb = peak_rss_mb()
            result.attempted = episodes
            result.failed = failed
        result.setup_s.append(sum(o.setup_s for o in outcomes))
        result.rounds.append(Round(
            issued=sum(o.issued for o in outcomes),
            retired=sum(o.retired for o in outcomes),
            failed=failed,
            events=sum(o.events for o in outcomes),
            messages=sum(o.messages for o in outcomes),
            cpu_s=sum(o.cpu_s for o in outcomes),
            digest=tuple(
                (o.failure, o.issued, o.retired, o.events, o.messages, sum(o.latencies))
                for o in outcomes
            ),
        ))
        if result.rounds[-1].digest != result.rounds[0].digest:
            result.repeats_agree = False
    return result


#: name -> (run function, rounds a replay compares, layers it exercises).
#: A run function takes (seed, seconds, phase, measure_setup); reconfig
#: measures set-up in every pass and ignores the flag.
WORKLOADS: Dict[str, Tuple[Callable[..., RunResult], int, Tuple[str, ...]]] = {
    "steady": (lambda *args: run_tokens(STEADY, *args), FLEET, STEADY.exercises),
    "churn": (lambda *args: run_tokens(CHURN, *args), FLEET, CHURN.exercises),
    "reconfig": (lambda seed, seconds, phase, _measure_setup: run_reconfig(seed, seconds, phase),
                 1, RECONFIG_EXERCISES),
}
