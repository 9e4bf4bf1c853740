"""Tests for the per-node host (token plane, freezing, caching)."""

import pytest

from repro.core.components import ComponentState
from repro.errors import ProtocolError
from repro.runtime.system import AdaptiveCountingSystem
from repro.runtime.tokens import Token, TokenMsg


@pytest.fixture
def system():
    return AdaptiveCountingSystem(width=8, seed=1)


def root_host(system):
    return system.hosts[system.directory.owner(())]


class TestInstallRemove:
    def test_install_and_remove(self, system):
        host = root_host(system)
        spec = system.tree.node((0,))
        host.install(ComponentState(spec))
        assert (0,) in host.components
        removed = host.remove((0,))
        assert removed.spec == spec
        assert (0,) not in host.components

    def test_double_install_rejected(self, system):
        host = root_host(system)
        with pytest.raises(ProtocolError):
            host.install(ComponentState(system.tree.root))

    def test_remove_missing_rejected(self, system):
        with pytest.raises(ProtocolError):
            root_host(system).remove((5,))

    def test_freeze_requires_component(self, system):
        with pytest.raises(ProtocolError):
            root_host(system).freeze((3,))


class TestTokenHandling:
    def test_token_routed_and_retired(self, system):
        host = root_host(system)
        token = Token(0, 0, 0.0)
        system._inflight[()] = 1
        host.handle_message(TokenMsg((), 0, token))
        assert token.value == 0
        assert token.exit_wire == 0
        assert system.token_stats.retired == 1

    def test_frozen_component_buffers(self, system):
        host = root_host(system)
        host.freeze(())
        token = Token(0, 0, 0.0)
        system._inflight[()] = 1
        host.handle_message(TokenMsg((), 3, token))
        assert token.value is None
        assert host.buffers[()] == [(3, token)]
        assert host.drain_buffer(()) == [(3, token)]
        assert host.drain_buffer(()) == []

    def test_missing_component_reroutes(self, system):
        """A token for a stale path is re-resolved via the directory."""
        system.reconfig.split(())
        system.run_until_quiescent()
        token = Token(9, 0, 0.0)
        # Address the token to the now-dead root; any host will reroute.
        host = next(iter(system.hosts.values()))
        system._inflight[()] = 1
        host.handle_message(TokenMsg((), 0, token))
        system.run_until_quiescent()
        assert token.value is not None
        assert token.reroutes == 1


class TestEdgeCache:
    def test_cache_hits_accumulate(self, system):
        system.reconfig.split(())
        system.run_until_quiescent()
        before_misses = sum(h.cache_misses for h in system.hosts.values())
        for _ in range(20):
            system.inject_token()
        system.run_until_quiescent()
        hits = sum(h.cache_hits for h in system.hosts.values())
        misses = sum(h.cache_misses for h in system.hosts.values())
        assert hits > 0
        # misses bounded by (distinct member out-ports), not token count
        assert misses - before_misses <= 6 * 4

    def test_invalidate_clears(self, system):
        for _ in range(5):
            system.inject_token()
        system.run_until_quiescent()
        system.invalidate_caches()
        assert all(not h._edge_cache for h in system.hosts.values())


def warm_hosts(system):
    """The hosts whose edge cache is non-empty."""
    return {h for h in system.hosts.values() if h._edge_cache}


class TestWarmSet:
    """The system tracks exactly the hosts with a non-empty edge cache,
    and invalidation visits only those."""

    @pytest.fixture
    def busy(self):
        system = AdaptiveCountingSystem(width=16, seed=4, initial_nodes=12)
        system.converge()
        for _ in range(64):
            system.inject_token()
        system.run_until_quiescent()
        return system

    def test_traffic_warms_and_invalidation_empties(self, busy):
        assert busy._warm_hosts and busy._warm_hosts == warm_hosts(busy)
        assert len(busy._warm_hosts) < len(busy.hosts)
        busy.invalidate_caches()
        assert not busy._warm_hosts
        assert not warm_hosts(busy)

    def test_host_rewarms_and_is_tracked_again(self, busy):
        busy.invalidate_caches()
        for _ in range(16):
            busy.inject_token()
        busy.run_until_quiescent()
        assert busy._warm_hosts and busy._warm_hosts == warm_hosts(busy)

    def test_departed_hosts_leave_the_set(self, busy):
        leaving, crashing = sorted(
            node_id for node_id, h in busy.hosts.items() if h in busy._warm_hosts
        )[:2]
        left, crashed = busy.hosts[leaving], busy.hosts[crashing]
        busy.remove_node(leaving)
        assert left not in busy._warm_hosts
        busy.crash_node(crashing)
        assert crashed not in busy._warm_hosts
        assert busy._warm_hosts == warm_hosts(busy)
        for _ in range(64):
            busy.inject_token()
        busy.run_until_quiescent()
        busy.verify()
        assert busy._warm_hosts == warm_hosts(busy)

    def test_split_then_traffic_hit_miss_totals_are_pinned(self):
        """Clearing only warm caches resolves the same edges: the
        totals equal those of clearing every host's cache."""
        system = AdaptiveCountingSystem(width=32, seed=3, initial_nodes=40)
        for _ in range(48):
            system.inject_token()
        system.run_until_quiescent()
        system.converge()
        for _ in range(64):
            system.inject_token()
        system.run_until_quiescent()
        target = next(
            p for p in sorted(system.directory.live_paths())
            if not system.tree.node(p).is_leaf
        )
        system.reconfig.split(target)
        for _ in range(64):
            system.inject_token()
        system.run_until_quiescent()
        system.reconfig.merge(target, system.hosts[system.ring.nodes()[0].node_id])
        for _ in range(64):
            system.inject_token()
        system.run_until_quiescent()
        system.verify()
        hosts = system.hosts.values()
        totals = (
            system.stats.splits,
            system.stats.merges,
            sum(h.cache_hits for h in hosts),
            sum(h.cache_misses for h in hosts),
        )
        assert totals == (8, 1, 608, 624)
