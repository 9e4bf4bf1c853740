"""The split gate gives the verdicts of the public cut checks.

``check_split`` checks only its target: live, a tree node, not a leaf.
These tests rebuild each report from the public :func:`is_valid_cut`
and :func:`check_transition`, which also walk the live and post-split
sets, and require the same diagnostics, and the same error from
:func:`validate_split`.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decomposition import DecompositionTree
from repro.errors import InvalidTransitionError, StructureError
from repro.ext.periodic_adaptive import periodic_tree
from repro.staticcheck import check_transition, validate_split
from repro.staticcheck.cuts import check_split, is_valid_cut
from repro.staticcheck.diagnostics import Report


def reference_check_split(tree, live_paths, path):
    """``check_split`` from the public checks, one walk per call."""
    source = "split%r" % (tuple(path),)
    report = Report()
    live = frozenset(tuple(p) for p in live_paths)
    path = tuple(path)
    if path not in live:
        report.add("RSC206", "cannot split %r: not a live member" % (path,), source)
        return report
    try:
        spec = tree.node(path)
    except StructureError as exc:
        report.add("RSC202", "split target %r is not a component: %s" % (path, exc), source)
        return report
    if spec.is_leaf:
        report.add("RSC206", "cannot split the balancer %s" % (spec,), source)
        return report
    if is_valid_cut(tree, live):
        target = (live - {path}) | {child.path for child in spec.children()}
        report.extend(check_transition(tree, live, target, source))
    return report


def assert_same_gate(tree, live, path):
    expected = reference_check_split(tree, live, path)
    actual = check_split(tree, live, path)
    assert actual.ok == expected.ok
    assert actual.codes() == expected.codes()
    assert actual.diagnostics == expected.diagnostics
    if expected.ok:
        validate_split(tree, live, path)
        return
    with pytest.raises(InvalidTransitionError) as info:
        validate_split(tree, live, path)
    assert str(info.value) == str(InvalidTransitionError(expected))
    assert info.value.report.diagnostics == expected.diagnostics
    return expected


def all_cuts(spec):
    """Every valid cut of the subtree rooted at ``spec``."""
    yield [spec.path]
    if not spec.is_leaf:
        for parts in itertools.product(*(list(all_cuts(c)) for c in spec.children())):
            yield [path for part in parts for path in part]


def test_every_cut_of_t8_times_every_member():
    tree = DecompositionTree(8)
    cuts = list(all_cuts(tree.root))
    assert len(cuts) == 65
    checked = 0
    for cut in cuts:
        for member in cut:
            assert_same_gate(tree, cut, member)
            checked += 1
    assert checked == 961


def test_local_preconditions_and_a_crash_hole():
    tree = DecompositionTree(8)
    level1 = [child.path for child in tree.root.children()]
    # Crash hole: the live set is not a cut, so only the local checks run.
    holed = level1[1:]
    assert not is_valid_cut(tree, holed)
    assert assert_same_gate(tree, holed, (2,)) is None
    # A leaf (RSC206), a member that is not live (RSC206), a path that
    # does not exist (RSC202).
    leaves = [leaf.path for leaf in tree.iter_level(tree.max_level)]
    assert assert_same_gate(tree, leaves, leaves[0]).codes() == ["RSC206"]
    assert assert_same_gate(tree, level1, (0, 1)).codes() == ["RSC206"]
    assert assert_same_gate(tree, level1 + [(9, 9)], (9, 9)).codes() == ["RSC202"]


@pytest.mark.parametrize("seed", range(6))
def test_random_split_merge_hole_sequences_width32(seed):
    tree = DecompositionTree(32)
    rng = random.Random(seed)
    live = {()}
    cuts_seen = holes_seen = 0
    for _ in range(60):
        members = sorted(live)
        if is_valid_cut(tree, members):
            cuts_seen += 1
        else:
            holes_seen += 1
        # The gate on two live members, a non-member and a bogus path.
        for path in (rng.choice(members), rng.choice(members), (1,) * 3, (0,) * 5):
            assert_same_gate(tree, members, path)
        target = rng.choice(members)
        spec = tree.node(target)
        move = rng.random()
        if move < 0.55 and not spec.is_leaf:
            live.remove(target)
            live.update(child.path for child in spec.children())
        elif move < 0.8 and target:
            parent = target[:-1]
            live = {p for p in live if p[: len(parent)] != parent} | {parent}
        elif len(live) > 1:
            live.remove(target)  # a crash hole
    assert cuts_seen and holes_seen


#: Bitonic trees of widths 8-64 and a generic (periodic) recursive tree.
GATE_TREES = {
    "bitonic8": DecompositionTree(8),
    "bitonic16": DecompositionTree(16),
    "bitonic32": DecompositionTree(32),
    "bitonic64": DecompositionTree(64),
    "periodic16": periodic_tree(16),
}

#: A path no tree here has: the first index is out of range everywhere.
BOGUS = (9, 9)

moves = st.lists(
    st.tuples(st.sampled_from(("split", "merge", "hole")), st.integers(0, 2 ** 16)),
    max_size=24,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(GATE_TREES)), moves)
def test_generated_split_merge_hole_sequences(name, sequence):
    tree = GATE_TREES[name]
    live = {()}
    for move, pick in sequence:
        members = sorted(live)
        target = members[pick % len(members)]
        spec = tree.node(target)
        # The gate on a live member, a child and a parent that are not
        # live, and a bogus path, with and without the bogus path live.
        probes = [target, target + (0,), target[:-1], BOGUS]
        for path in probes:
            assert_same_gate(tree, members, path)
            assert_same_gate(tree, members + [BOGUS], path)
        if move == "split" and not spec.is_leaf:
            live.remove(target)
            live.update(child.path for child in spec.children())
        elif move == "merge" and target:
            parent = target[:-1]
            live = {p for p in live if p[: len(parent)] != parent} | {parent}
        elif move == "hole" and len(live) > 1:
            live.remove(target)
    members = sorted(live)
    for path in members:
        assert_same_gate(tree, members, path)
