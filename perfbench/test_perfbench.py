"""Tests for the benchmark's own logic. Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import io
import json
import os
import sys
import types
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.errors import ProtocolError, StepPropertyViolation, StructureError  # noqa: E402
from repro.runtime.system import AdaptiveCountingSystem  # noqa: E402


# ----------------------------------------------------------------------
# self-time attribution
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_nested_call_tree():
    # a [0, 10] holds b [1, 4], which holds c [2, 3], then c [5, 7].
    clock = FakeClock()
    recorder = tracing.SpanRecorder(clock)
    a = recorder.stats_for("a", "top")
    b = recorder.stats_for("b", "mid")
    c = recorder.stats_for("c", "leaf")

    def at(time, action, *args):
        clock.now = time
        return action(*args)

    span_a = at(0, recorder.enter, a)
    span_b = at(1, recorder.enter, b)
    span_c = at(2, recorder.enter, c)
    at(3, recorder.exit, span_c)
    at(4, recorder.exit, span_b)
    span_c = at(5, recorder.enter, c)
    at(7, recorder.exit, span_c)
    at(10, recorder.exit, span_a)

    assert (a.calls, b.calls, c.calls) == (1, 1, 2)
    assert a.self_time == pytest.approx(10 - 3 - 2)
    assert b.self_time == pytest.approx(3 - 1)
    assert c.self_time == pytest.approx(1 + 2)
    assert recorder.layer_self_time() == pytest.approx({"top": 5, "mid": 2, "leaf": 3})


def test_spans_must_close_in_order():
    recorder = tracing.SpanRecorder(FakeClock())
    outer = recorder.enter(recorder.stats_for("outer", "x"))
    recorder.enter(recorder.stats_for("inner", "x"))
    with pytest.raises(RuntimeError):
        recorder.exit(outer)


# ----------------------------------------------------------------------
# wrappers: by-name imports, hoisted bound methods, absent boundaries
# ----------------------------------------------------------------------
@pytest.fixture
def toy_modules():
    lib = types.ModuleType("repro_toy_lib")
    user = types.ModuleType("repro_toy_user")
    exec(
        "def helper(x):\n"
        "    return x + 1\n"
        "class Widget:\n"
        "    def outer(self, x):\n"
        "        return self.inner(x) * 2\n"
        "    def inner(self, x):\n"
        "        return helper(x)\n",
        lib.__dict__,
    )
    user.helper = lib.helper  # as ``from repro_toy_lib import helper`` binds it
    sys.modules[lib.__name__] = lib
    sys.modules[user.__name__] = user
    yield lib, user
    del sys.modules[lib.__name__], sys.modules[user.__name__]


def test_install_patches_by_name_imports_and_reports_absent(toy_modules):
    lib, user = toy_modules
    original_helper = lib.helper
    recorder = tracing.SpanRecorder()
    boundaries = (
        ("toy.widget", "repro_toy_lib", ("Widget.*", "Widget.missing")),
        ("toy.helper", "repro_toy_lib", ("helper",)),
        ("toy.gone", "repro_toy_deleted", ("Anything.method",)),
    )
    installation = tracing.install(recorder, boundaries)
    try:
        widget = lib.Widget()
        hoisted = widget.outer  # bound after installation: goes through the wrapper
        assert hoisted(1) == 4  # recorder inactive: calls pass straight through
        assert recorder.boundaries["Widget.outer"].calls == 0
        recorder.active = True
        assert hoisted(1) == 4
        assert user.helper(1) == 2
        recorder.active = False
        calls = {name: s.calls for name, s in recorder.boundaries.items()}
        assert calls == {"Widget.outer": 1, "Widget.inner": 1, "helper": 2}
        assert user.helper is lib.helper is not original_helper
        assert installation.absent == [
            "repro_toy_lib:Widget.missing", "repro_toy_deleted:Anything.method",
        ]
    finally:
        installation.uninstall()
    assert lib.helper is original_helper and user.helper is original_helper


def test_every_boundary_of_the_program_exists():
    recorder = tracing.SpanRecorder()
    installation = tracing.install(recorder)
    try:
        assert installation.absent == []
        assert {"split_child_states", "merge_child_states", "lookup"} <= set(recorder.boundaries)
        from repro.runtime import lookup, reconfig

        assert reconfig.split_child_states.__wrapped__ is not None
        assert lookup.chord_lookup.__wrapped__ is not None
    finally:
        installation.uninstall()
    from repro.runtime import reconfig

    assert not hasattr(reconfig.split_child_states, "__wrapped__")


def test_a_present_layer_with_no_calls_is_reported():
    recorder = tracing.SpanRecorder()
    recorder.stats_for("Stabilizer.stabilize", "runtime.stabilization")
    recorder.stats_for("MessageBus.send", "sim.node").calls = 3
    idle = run.check_exercised(recorder, ("sim.node", "runtime.stabilization", "gone"))
    assert idle == ["runtime.stabilization"]


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------
def test_percentile_is_an_exact_sample():
    sample = list(range(1, 101))
    assert stats.percentile(sample, 50) == 50
    assert stats.percentile(sample, 99) == 99
    assert stats.percentile(sample, 100) == 100
    assert stats.percentile([7.5], 99) == 7.5


def test_a_percentile_needs_ten_samples_beyond_it():
    assert stats.supports(1000, 99)
    assert not stats.supports(999, 99)
    assert stats.supports(100, 90)
    assert not stats.supports(99, 90)
    assert stats.highest_supported(19) is None
    assert stats.highest_supported(20) == 50.0
    assert stats.highest_supported(99) == 50.0
    assert stats.highest_supported(100) == 90.0
    assert stats.highest_supported(10000) == 99.9


# ----------------------------------------------------------------------
# failure accounting
# ----------------------------------------------------------------------
def test_value_ledger_counts_duplicates_and_out_of_range():
    ledger = stats.ValueLedger()
    ledger.values.extend([0, 1, 2])
    assert ledger.add_up_to(3) == 0
    ledger.values.extend([3, 3, 9, None])
    assert ledger.add_up_to(5) == 3


def test_failure_kinds():
    assert workloads.failure_kind(StructureError("x")) == "StructureError"
    assert workloads.failure_kind(StepPropertyViolation([2, 0], 0, 1)) == "StepPropertyViolation"
    assert workloads.failure_kind(ProtocolError("x")) == "other"


def test_ops_failed_frac_counts_a_stubbed_failing_episode():
    def episode(seed, index, phase):
        failure = {1: "StructureError", 3: "StepPropertyViolation"}.get(index)
        return workloads.Episode(
            converge_s=None if failure else 0.01, issued=5, retired=5,
            latencies=[1.0] * 5, failure=failure,
        )

    result = workloads.run_reconfig(0, 0, workloads.TimedPhase(), episode=episode, episodes=4)
    assert (result.attempted, result.failed) == (4, 2)
    assert sorted(result.failed_episodes) == [1, 3]
    assert result.failure_kinds == {"StructureError": 1, "StepPropertyViolation": 1}
    assert stats.failed_share(result.attempted, result.failed) == 0.5


def _stub_episode(failures_by_pass):
    """An instant episode whose failure is looked up by (pass, index)."""
    seen = []

    def episode(seed, index, phase):
        seen.append(index)
        failure = failures_by_pass((len(seen) - 1) // 4, index)
        return workloads.Episode(
            converge_s=None if failure else 0.01, issued=5, retired=5,
            latencies=[1.0] * 5, failure=failure,
        )
    return episode


def test_repeated_passes_do_not_change_the_operation_count():
    episode = _stub_episode(lambda run, index: "StructureError" if index == 2 else None)
    result = workloads.run_reconfig(0, 0.05, workloads.TimedPhase(), episode=episode, episodes=4)
    assert len(result.rounds) > 1
    assert (result.attempted, result.failed) == (4, 1)
    assert result.failure_kinds == {"StructureError": 1}
    assert result.repeats_agree


def test_a_pass_that_differs_from_the_first_is_caught():
    episode = _stub_episode(lambda run, index: "StructureError" if run and index == 0 else None)
    result = workloads.run_reconfig(0, 0.05, workloads.TimedPhase(), episode=episode, episodes=4)
    assert len(result.rounds) > 1
    assert (result.attempted, result.failed) == (4, 0)
    assert not result.repeats_agree


def test_an_episode_that_raises_is_counted_not_fatal(monkeypatch):
    def broken_inject(self, *args, **kwargs):
        raise StructureError("stubbed failure")

    monkeypatch.setattr(AdaptiveCountingSystem, "inject_token", broken_inject)
    outcome = workloads.reconfig_episode(0, 0, workloads.TimedPhase())
    assert outcome.failure == "StructureError"
    assert "stubbed failure" in outcome.detail
    assert outcome.converge_s is None


class _Count:
    def __init__(self, value):
        self.value = value

    def get(self):
        return self.value


class _StubSystem:
    """Just what check_quiesced reads: token counters and verify()."""

    def __init__(self, issued, retired, dropped):
        self.token_stats = types.SimpleNamespace(
            issued=_Count(issued), retired=_Count(retired), dropped=_Count(dropped))

    def verify(self):  # accepts drops, as AdaptiveCountingSystem.verify does
        pass


def test_a_dropped_token_fails():
    ledger = stats.ValueLedger()
    ledger.values.extend(range(18))
    kinds = {}
    system = _StubSystem(issued=21, retired=18, dropped=3)  # one dropped earlier
    failed, problem = workloads.check_quiesced(
        system, ledger, 10, 1, [], kinds, workloads.TimedPhase().control)
    assert failed == 2
    assert problem.startswith("2 dropped")
    assert kinds == {"other": 1}


def test_a_dropped_token_fails_its_episode(monkeypatch):
    quiesce = AdaptiveCountingSystem.run_until_quiescent

    def drop_one(self):  # book the first retired token as dropped instead
        quiesce(self)
        stats = self.token_stats
        if stats.retired.get() and not stats.dropped.get():
            stats.retired.increment(-1)
            stats.dropped.increment()

    monkeypatch.setattr(AdaptiveCountingSystem, "run_until_quiescent", drop_one)
    monkeypatch.setattr(AdaptiveCountingSystem, "verify", lambda self: None)
    outcome = workloads.reconfig_episode(0, 0, workloads.TimedPhase())
    assert outcome.failure == "other"
    assert "1 dropped" in outcome.detail


def test_a_round_that_raises_fails_its_tokens_and_the_run_goes_on(monkeypatch):
    monkeypatch.setattr(workloads, "FLEET", 1)
    monkeypatch.setattr(workloads, "FLEET_BUILDS", 3)
    driven = []

    def drive(system, rng):
        driven.append(system)
        for _ in range(10):
            system.inject_token()
        if len(driven) == 1:
            raise StructureError("stubbed failure")

    toy = workloads.TokenWorkload(
        "toy", lambda seed, index: AdaptiveCountingSystem(width=4, seed=index, initial_nodes=4),
        drive, tokens=10, exercises=())
    result = workloads.run_tokens(toy, 0, 0, workloads.TimedPhase())
    assert len(result.rounds) == 2 and driven[0] is not driven[1]
    assert (result.attempted, result.failed) == (20, 10)
    assert result.failure_kinds == {"StructureError": 1}


# ----------------------------------------------------------------------
# the command and its metric tables
# ----------------------------------------------------------------------
def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_a_short_steady_run_prints_every_end_to_end_metric():
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "steady", "--seed", "3", "--seconds", "0"])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (workloads.FLEET_BUILDS - workloads.FLEET) * 3200
    assert [name for name, _unit in run.END_TO_END] == list(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
