"""Run one workload of the benchmark and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps each
layer's entry points and prints the per-layer metrics instead. Human
readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from statistics import median

import hostclock
import stats
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: (name, unit) of every end-to-end metric, printed by ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("tokens_per_cpu_s", "1/s"),
    ("latency_p50_sim", "sim_time"),
    ("latency_p99_sim", "sim_time"),
    ("peak_rss_mb", "MiB"),
)

#: (name, unit) of every per-layer metric, printed by ``--trace 1``.
PER_LAYER = (
    ("sim.events.self_share", "frac"),
    ("sim.events.events_per_token", "count/token"),
    ("sim.node.self_share", "frac"),
    ("sim.node.messages_per_token", "count/token"),
    ("runtime.tokens.self_share", "frac"),
    ("runtime.host.handle_message.calls", "count/round"),
    ("runtime.reroutes_per_token", "count/token"),
    ("runtime.lookup.self_share", "frac"),
    ("runtime.lookup.tries_per_lookup", "count/lookup"),
    ("chord.dht_hops_per_lookup", "count/lookup"),
    ("runtime.membership.self_share", "frac"),
    ("runtime.stabilization.self_share", "frac"),
    ("runtime.stabilization.calls", "count/round"),
    ("runtime.reconfig.self_share", "frac"),
    ("runtime.reconfig.split.calls", "count/round"),
    ("runtime.reconfig.merge.calls", "count/round"),
    ("runtime.reconfig.buffered_tokens", "count/round"),
    ("runtime.rules.self_share", "frac"),
    ("runtime.rules.act_ratio", "frac"),
    ("core.components.self_share", "frac"),
    ("core.splitmerge.self_share", "frac"),
    ("core.wiring.self_share", "frac"),
    ("core.atomics.self_share", "frac"),
    ("chord.ring.self_share", "frac"),
    ("chord.lookup.self_share", "frac"),
    ("chord.estimation.self_share", "frac"),
    ("runtime.verify_s", "s"),
    ("trace_overhead", "ratio"),
)


class BenchmarkError(Exception):
    """The benchmark itself cannot produce a trustworthy result."""


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(result) -> dict:
    """The end-to-end metrics of an untraced run."""
    count = len(result.latencies)
    if not stats.supports(count, 99):
        raise BenchmarkError("%d latency samples cannot support a p99" % count)
    return {
        "setup_s": median(result.setup_s),
        "tokens_per_cpu_s": median([r.retired / r.cpu_s for r in result.rounds]),
        "latency_p50_sim": stats.percentile(result.latencies, 50),
        "latency_p99_sim": stats.percentile(result.latencies, 99),
        "peak_rss_mb": result.peak_rss_mb,
    }


def per_layer(result, recorder, baseline, rounds: int, phase) -> dict:
    """The per-layer metrics of a traced run. ``baseline`` is an
    untraced run of the same seed; its first ``rounds`` rounds did the
    same work as the traced run's."""
    boundaries = recorder.boundaries
    self_time = recorder.layer_self_time()
    retired = sum(r.retired for r in result.rounds)
    count = len(result.rounds)

    def calls(name: str) -> int:
        return boundaries[name].calls if name in boundaries else 0

    def observed(name: str, key: str) -> int:
        return boundaries[name].counts.get(key, 0) if name in boundaries else 0

    metrics = {
        "%s.self_share" % layer: _ratio(self_time.get(layer, 0.0), phase.wall_s)
        for layer in tracing.LAYERS
    }
    lookups = calls("InputLookup.find")
    evaluations = calls("RulesEngine.evaluate")
    metrics.update({
        "sim.events.events_per_token": _ratio(sum(r.events for r in result.rounds), retired),
        "sim.node.messages_per_token": _ratio(sum(r.messages for r in result.rounds), retired),
        "runtime.host.handle_message.calls": calls("NodeHost.handle_message") / count,
        "runtime.reroutes_per_token": _ratio(
            calls("AdaptiveCountingSystem.reroute_token"), retired),
        "runtime.lookup.tries_per_lookup": _ratio(observed("InputLookup.find", "tries"), lookups),
        "chord.dht_hops_per_lookup": _ratio(observed("InputLookup.find", "dht_hops"), lookups),
        "runtime.stabilization.calls": calls("Stabilizer.stabilize") / count,
        "runtime.reconfig.split.calls": calls("Reconfigurator.split") / count,
        "runtime.reconfig.merge.calls": calls("Reconfigurator.merge") / count,
        "runtime.reconfig.buffered_tokens":
            observed("NodeHost.drain_buffer", "tokens") / count,
        "runtime.rules.act_ratio": _ratio(observed("RulesEngine.evaluate", "acted"), evaluations),
        "runtime.verify_s": median(result.verify_s),
        "trace_overhead": _ratio(
            sum(r.cpu_s for r in result.rounds[:rounds]),
            sum(r.cpu_s for r in baseline.rounds[:rounds]),
        ),
    })
    return metrics


def check_exercised(recorder, exercises) -> list:
    """Layers a workload exists to exercise that are present but saw no
    call in the timed phase: each is a benchmark error."""
    calls = recorder.layer_calls()
    return [layer for layer in exercises if layer in calls and calls[layer] == 0]


def describe(result, name: str, phase) -> list:
    """Human-readable lines beyond the JSON metrics."""
    lines = [
        "host calibration, median ms (nominal %.1f): token plane %.3f, control plane %.3f; "
        "host times are scaled by nominal/measured"
        % (1000.0 * hostclock.NOMINAL_S, 1000.0 * median(phase.plane.calibrations),
           1000.0 * median(phase.control.calibrations)),
        "rounds %d, tokens retired %d, timed cpu %.3f s"
        % (len(result.rounds), sum(r.retired for r in result.rounds),
           sum(r.cpu_s for r in result.rounds)),
        "ops_failed_frac = %.6f (%d failed of %d attempted)"
        % (stats.failed_share(result.attempted, result.failed), result.failed,
           result.attempted),
    ]
    best = stats.highest_supported(len(result.latencies))
    if best is not None:
        lines.append("latency samples %d; highest supported percentile p%g = %.4f sim_time"
                     % (len(result.latencies), best,
                        stats.percentile(result.latencies, best)))
    converges = sorted(result.converge_s)
    if converges:
        lines.append("converge_ms_p50 = %.4f ms over %d converge() calls"
                     % (1000.0 * median(converges), len(converges)))
    if stats.supports(len(converges), 90):
        lines.append("converge_ms_p90 = %.4f ms" % (1000.0 * stats.percentile(converges, 90)))
    if result.failure_kinds or name == "reconfig":
        kinds = ("StructureError", "StepPropertyViolation", "other")
        lines.append("failures by kind: " + " ".join(
            "%s=%d" % (kind, result.failure_kinds.get(kind, 0)) for kind in kinds))
    if name == "reconfig":
        lines.append("failed episodes (first pass): %s" % sorted(result.failed_episodes))
        lines.extend("  episode %d: %s" % item for item in sorted(result.failed_episodes.items()))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("steady", "churn", "reconfig"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: the repro package is not under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    run, replay_rounds, exercises = WORKLOADS[args.workload]
    error = None
    if args.trace:
        baseline = run(args.seed, 0, hostclock.TimedPhase(), False)
        recorder = tracing.SpanRecorder()
        installation = tracing.install(recorder)
        phase = hostclock.TimedPhase(recorder)
        result = run(args.seed, args.seconds, phase, False)
        reference = baseline
    else:
        phase = hostclock.TimedPhase()
        result = run(args.seed, args.seconds, phase, True)
        reference = run(args.seed, 0, hostclock.TimedPhase(), False)
    deterministic = (result.repeats_agree
                     and result.digest(replay_rounds) == reference.digest(replay_rounds))
    try:
        if args.trace:
            idle = check_exercised(recorder, exercises)
            if idle:
                raise BenchmarkError("no calls recorded on exercised layers: %s"
                                     % ", ".join(idle))
            metrics = per_layer(result, recorder, baseline, replay_rounds, phase)
            units = dict(PER_LAYER)
        else:
            metrics = end_to_end(result)
            units = dict(END_TO_END)
    except BenchmarkError as caught:
        error = str(caught)
        metrics, units = {}, {}

    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    for line in describe(result, args.workload, phase):
        print(line)
    if not deterministic:
        print("CHECK FAILED: simulated results differ between two runs or passes of seed %d"
              % args.seed)
    if args.trace:
        print("unattributed share %.4f (benchmark loop and unwrapped code)"
              % (1.0 - sum(v for k, v in metrics.items() if k.endswith(".self_share"))))
        for absent in installation.absent:
            print("absent boundary %s" % absent)
    for name, value in metrics.items():
        print("%s = %.6g %s" % (name, value, units[name]))
    if error:
        print("BENCHMARK ERROR: %s" % error, file=sys.stderr)
    failed = result.failed if deterministic else result.attempted
    print(json.dumps({
        "correct": deterministic and error is None,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if error else 0


if __name__ == "__main__":
    sys.exit(main())
