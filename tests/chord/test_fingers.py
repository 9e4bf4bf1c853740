"""Tests for finger tables and greedy lookup (paper Section 1.4)."""

import math
import random

import pytest

from repro.chord.fingers import finger_table, lookup, lookup_name
from repro.chord.hashing import home_node, name_to_point
from repro.chord.identifiers import IdentifierSpace
from repro.chord.ring import ChordRing
from repro.errors import RingError


def reference_lookup(ring, start_id, key_point, scan_of=None):
    """Greedy finger routing by scanning finger tables: at each node,
    stop if the key lies in (node, successor], else forward to the
    closest preceding finger. The definition :func:`lookup` computes in
    closed form; ``scan_of`` defaults to ``ring.scan_fingers``."""
    scan_of = scan_of or ring.scan_fingers
    current = ring.node(start_id)
    hops = 0
    if len(ring) == 1:
        return current, hops
    size = ring.space.size
    while True:
        current_id = current.node_id
        succ = ring.succ_k(current_id, 1)
        succ_id = succ.node_id
        key_offset = (key_point - current_id) % size
        if (
            key_offset < (succ_id - current_id) % size and key_point != current_id
        ) or key_point == succ_id:
            if succ_id != current_id:
                hops += 1
            return succ, hops
        if key_point == current_id:
            return current, hops
        next_node = succ
        for finger in scan_of(current_id):
            finger_id = finger.node_id
            if (finger_id - current_id) % size < key_offset and finger_id != current_id:
                next_node = finger
                break
        if next_node.node_id == current_id:
            return current, hops
        current = next_node
        hops += 1


def _random_ring(bits, size, seed):
    ring = ChordRing(IdentifierSpace(bits), seed=seed)
    for _ in range(size):
        ring.join()
    return ring


def _keys(ring, rng, count):
    """Keys at node ids, at ids +-1, and uniformly random."""
    space_size = ring.space.size
    nodes = ring.nodes()
    keys = []
    for _ in range(count):
        node_id = rng.choice(nodes).node_id
        keys += [node_id, (node_id - 1) % space_size, (node_id + 1) % space_size]
        keys.append(rng.randrange(space_size))
    return keys


@pytest.fixture
def ring():
    ring = ChordRing(seed=7)
    for _ in range(128):
        ring.join()
    return ring


class TestFingerTable:
    def test_finger_count(self, ring):
        node = ring.nodes()[0]
        assert len(finger_table(ring, node.node_id)) == ring.space.bits

    def test_first_finger_is_successor(self, ring):
        node = ring.nodes()[5]
        fingers = finger_table(ring, node.node_id)
        assert fingers[0] is ring.successor((node.node_id + 1) % ring.space.size)

    def test_fingers_are_successors_of_powers(self, ring):
        node = ring.nodes()[3]
        fingers = finger_table(ring, node.node_id)
        for i in (0, 10, 30, 63):
            point = (node.node_id + (1 << i)) % ring.space.size
            assert fingers[i] is ring.successor(point)


class TestLookup:
    def test_lookup_finds_owner(self, ring):
        rng = random.Random(1)
        nodes = ring.nodes()
        for i in range(200):
            start = rng.choice(nodes)
            name = "key-%d" % i
            owner, hops = lookup_name(ring, start.node_id, name)
            assert owner is home_node(ring, name)
            assert hops >= 0

    def test_lookup_own_key_zero_hops(self, ring):
        node = ring.nodes()[0]
        owner, hops = lookup(ring, node.node_id, node.node_id)
        assert owner is node
        assert hops == 0

    def test_hops_logarithmic(self, ring):
        rng = random.Random(2)
        nodes = ring.nodes()
        hops = []
        for i in range(300):
            start = rng.choice(nodes)
            _owner, h = lookup_name(ring, start.node_id, "key-%d" % i)
            hops.append(h)
        mean_hops = sum(hops) / len(hops)
        # Chord's expected ~ (1/2) log2 N; allow generous slack.
        assert mean_hops <= math.log2(len(ring)) + 1
        assert max(hops) <= 2 * math.log2(len(ring)) + 4

    def test_single_node_ring(self):
        ring = ChordRing(seed=9)
        node = ring.join()
        owner, hops = lookup_name(ring, node.node_id, "anything")
        assert owner is node
        assert hops == 0

    def test_two_node_ring(self):
        ring = ChordRing(seed=10)
        a = ring.join(node_id=100)
        b = ring.join(node_id=1 << 60)
        for key in ("x", "y", "z", "w"):
            owner, _ = lookup_name(ring, a.node_id, key)
            assert owner is home_node(ring, key)
            owner, _ = lookup_name(ring, b.node_id, key)
            assert owner is home_node(ring, key)

    def test_empty_ring_rejected(self):
        ring = ChordRing(seed=11)
        with pytest.raises(RingError):
            lookup(ring, 0, 0)


#: (identifier bits, ring size, seed): the edge sizes in both spaces,
#: then seeded random sizes up to 200 nodes.
RING_CASES = [(bits, size, 0) for bits in (8, 64) for size in (1, 2, 3)] + [
    (bits, random.Random(seed).randint(4, 200), seed)
    for bits in (8, 64)
    for seed in range(1, 9)
] + [(8, 200, 99), (64, 200, 99)]


class TestClosedFormMatchesFingerScan:
    @pytest.mark.parametrize("bits,size,seed", RING_CASES)
    def test_same_owner_and_hops_as_reference(self, bits, size, seed):
        ring = _random_ring(bits, size, seed)
        scans = {node.node_id: ring.scan_fingers(node.node_id) for node in ring}
        rng = random.Random(seed * 31 + bits)
        nodes = ring.nodes()
        starts = nodes if len(nodes) <= 20 else rng.sample(nodes, 20)
        keys = _keys(ring, rng, 15)
        for start in starts:
            for key in keys:
                owner, hops = lookup(ring, start.node_id, key)
                expected_owner, expected_hops = reference_lookup(
                    ring, start.node_id, key, scans.__getitem__
                )
                assert owner is expected_owner, (start, key)
                assert hops == expected_hops, (start, key)

    def test_lookup_builds_no_finger_table(self, ring, monkeypatch):
        def forbidden(*_args):
            raise AssertionError("lookup must not build finger tables")

        monkeypatch.setattr(ChordRing, "finger_table", forbidden)
        monkeypatch.setattr(ChordRing, "scan_fingers", forbidden)
        rng = random.Random(6)
        nodes = ring.nodes()
        for key in _keys(ring, rng, 20):
            owner, _hops = lookup(ring, rng.choice(nodes).node_id, key)
            assert owner is ring.successor(key)

    def test_lookup_follows_membership_changes(self):
        ring = _random_ring(64, 40, 12)
        rng = random.Random(12)
        for _round in range(10):
            if rng.random() < 0.5 and len(ring) > 2:
                ring.remove(rng.choice(ring.nodes()).node_id)
            else:
                ring.join()
            start = rng.choice(ring.nodes()).node_id
            for key in _keys(ring, rng, 5):
                assert lookup(ring, start, key) == reference_lookup(ring, start, key)
