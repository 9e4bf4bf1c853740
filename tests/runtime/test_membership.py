"""Tests for joins, leaves and crashes (paper Section 3.4)."""

import pytest

from repro.errors import MembershipError
from repro.runtime.system import AdaptiveCountingSystem


class TestJoin:
    def test_join_needs_no_network_change(self):
        """Section 3.4: joining changes placement only, never the cut."""
        system = AdaptiveCountingSystem(width=16, seed=1, initial_nodes=5)
        system.converge()
        cut_before = system.snapshot_cut()
        system.add_node()
        assert system.snapshot_cut() == cut_before
        system.directory.check_consistent()

    def test_join_moves_only_affected_components(self):
        system = AdaptiveCountingSystem(width=32, seed=2, initial_nodes=20)
        system.converge()
        owners_before = {
            p: system.directory.owner(p) for p in system.directory.live_paths()
        }
        newcomer = system.add_node()
        for path, old_owner in owners_before.items():
            new_owner = system.directory.owner(path)
            if new_owner != old_owner:
                assert new_owner == newcomer.node_id

    def test_counting_survives_join_handoff(self):
        system = AdaptiveCountingSystem(width=16, seed=3, initial_nodes=10)
        system.converge()
        values = [system.next_value() for _ in range(10)]
        for _ in range(10):
            system.add_node()
        values += [system.next_value() for _ in range(10)]
        assert sorted(values) == list(range(20))
        system.verify()


class TestLeave:
    def test_leave_hands_off_components(self):
        system = AdaptiveCountingSystem(width=32, seed=4, initial_nodes=20)
        system.converge()
        loaded = next(
            nid for nid, h in system.hosts.items() if h.component_count() > 0
        )
        paths = set(system.hosts[loaded].components)
        system.remove_node(loaded)
        for path in paths:
            assert system.directory.is_live(path)
        system.directory.check_consistent()

    def test_leave_transfers_split_registry(self):
        system = AdaptiveCountingSystem(width=16, seed=5, initial_nodes=8)
        owner = system.directory.owner(())
        system.reconfig.split(())
        successor = system.ring.succ_k(owner, 1).node_id
        system.remove_node(owner)
        assert () in system.hosts[successor].split_registry

    def test_successor_can_merge_inherited_split(self):
        system = AdaptiveCountingSystem(width=16, seed=6, initial_nodes=8)
        owner = system.directory.owner(())
        system.reconfig.split(())
        system.run_until_quiescent()
        successor = system.ring.succ_k(owner, 1).node_id
        system.remove_node(owner)
        system.reconfig.merge((), system.hosts[successor])
        assert system.directory.is_live(())

    def test_cannot_remove_last_node(self):
        system = AdaptiveCountingSystem(width=8, seed=7)
        with pytest.raises(MembershipError):
            system.remove_node(next(iter(system.hosts)))

    def test_unknown_node_rejected(self):
        system = AdaptiveCountingSystem(width=8, seed=8, initial_nodes=2)
        with pytest.raises(MembershipError):
            system.membership.leave(123456)

    def test_tokens_inflight_to_leaving_node_retry(self):
        system = AdaptiveCountingSystem(width=16, seed=9, initial_nodes=12)
        system.converge()
        for _ in range(20):
            system.inject_token()
        # remove a loaded node while tokens are in the air
        loaded = next(
            (nid for nid, h in system.hosts.items() if h.component_count() > 0),
            None,
        )
        if loaded is not None:
            system.remove_node(loaded)
        system.run_until_quiescent()
        assert system.token_stats.retired == 20
        system.verify()


class TestCrash:
    def test_crash_loses_components_until_recovery(self):
        system = AdaptiveCountingSystem(
            width=16, seed=10, initial_nodes=15, auto_stabilize=False
        )
        system.converge()
        loaded = next(
            nid for nid, h in system.hosts.items() if h.component_count() > 0
        )
        lost = set(system.hosts[loaded].components)
        report = system.membership.crash(loaded)
        assert set(report.lost_components) == lost
        for path in lost:
            assert not system.directory.is_live(path)

    def test_crash_report_counts_buffers(self):
        system = AdaptiveCountingSystem(width=8, seed=11, initial_nodes=3)
        owner = system.directory.owner(())
        system.hosts[owner].freeze(())
        system.inject_token()
        system.run_until_quiescent()  # token parked in the buffer
        report = system.membership.crash(owner)
        assert report.lost_buffered_tokens == 1


def _warm_system(seed):
    """A converged system whose input-lookup and edge caches are warm."""
    system = AdaptiveCountingSystem(width=16, seed=seed, initial_nodes=12)
    system.converge()
    for _ in range(64):
        system.inject_token()
    system.run_until_quiescent()
    return system


def _routing_caches(system):
    return (
        system.directory.generation,
        dict(system.lookup._resolved),
        {node_id: dict(host._edge_cache) for node_id, host in system.hosts.items()},
    )


def _assert_caches_kept(system, before):
    generation, resolved, edges = before
    assert system.directory.generation == generation
    assert system.lookup._resolved == resolved
    for node_id, host in system.hosts.items():
        if node_id in edges:
            assert host._edge_cache == edges[node_id]


def _assert_tokens_retire(system, count=64):
    retired = system.token_stats.retired.get()
    for _ in range(count):
        system.inject_token()
    system.run_until_quiescent()
    assert system.token_stats.retired == retired + count
    system.verify()


class TestHandoffKeepsRoutingCaches:
    """A handoff moves components but not the cut (Section 3.4), so the
    directory generation and the path-keyed routing caches survive it."""

    def test_join_handoff(self):
        system = _warm_system(21)
        before = _routing_caches(system)
        assert before[1] and any(before[2].values())
        handoffs = system.stats.handoffs
        while system.stats.handoffs == handoffs:
            system.add_node()
        _assert_caches_kept(system, before)
        _assert_tokens_retire(system)

    def test_leave_handoff(self):
        system = _warm_system(22)
        before = _routing_caches(system)
        loaded = next(
            nid for nid, h in system.hosts.items() if h.component_count() > 0
        )
        handoffs = system.stats.handoffs
        system.remove_node(loaded)
        assert system.stats.handoffs > handoffs
        _assert_caches_kept(system, before)
        _assert_tokens_retire(system)

    def test_cut_changes_move_the_generation(self):
        system = AdaptiveCountingSystem(
            width=16, seed=23, initial_nodes=12, auto_stabilize=False
        )
        directory = system.directory
        generation = directory.generation
        system.reconfig.split(())
        system.run_until_quiescent()
        assert directory.generation > generation
        generation = directory.generation
        system.reconfig.merge((), system.hosts[system.ring.nodes()[0].node_id])
        assert directory.generation > generation
        system.converge()
        generation = directory.generation
        loaded = next(
            nid for nid, h in system.hosts.items() if h.component_count() > 0
        )
        system.crash_node(loaded)
        assert directory.generation > generation
        generation = directory.generation
        assert system.stabilize()
        assert directory.generation > generation
        _assert_tokens_retire(system)


class TestCrashInvalidatesOnlyWhenTheCutChanged:
    def test_crash_of_a_node_without_components_keeps_caches(self):
        system = _warm_system(24)
        empty = next(
            nid for nid, h in system.hosts.items() if h.component_count() == 0
        )
        before = _routing_caches(system)
        assert any(before[2].values())
        report = system.crash_node(empty)
        assert report.lost_components == []
        _assert_caches_kept(system, before)
        _assert_tokens_retire(system)

    def test_crash_that_loses_a_component_clears_caches(self):
        system = _warm_system(25)
        generation = system.directory.generation
        loaded = next(
            nid for nid, h in system.hosts.items() if h.component_count() > 0
        )
        report = system.membership.crash(loaded)
        assert report.lost_components
        assert system.directory.generation > generation
        assert all(not h._edge_cache for h in system.hosts.values())
        assert not system._warm_hosts
        system.lost_components.update(report.lost_components)
        assert system.stabilize()
        _assert_tokens_retire(system)
