"""Finger tables and greedy Chord lookup, with hop counting.

The paper assumes "an underlying routing service which provides
efficient routing to an object given the object's name". We implement
Chord's greedy finger routing so experiments can report realistic hop
counts (O(log N)) for token forwarding and component lookup. Routing
runs over the ground-truth ring — the paper does not study
stabilisation-protocol dynamics, so modelling stale fingers would add
noise without touching any claim.

Over the ground-truth ring the closest preceding finger has a closed
form, so :func:`lookup` computes each hop with one bisect and keeps no
tables: nothing derived from membership has to be dropped on a join or
removal. :func:`finger_table` and :meth:`ChordRing.scan_fingers` stay as
the reference definitions the closed form is tested against.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Tuple

from repro.chord.hashing import name_to_point
from repro.chord.ring import ChordNode, ChordRing
from repro.errors import RingError


def finger_table(ring: ChordRing, node_id: int) -> List[ChordNode]:
    """Chord fingers of a node: ``finger[i] = successor(n + 2^i)``."""
    return ring.finger_table(node_id)


def lookup(ring: ChordRing, start_id: int, key_point: int) -> Tuple[ChordNode, int]:
    """Greedy finger routing from ``start_id`` to ``successor(key_point)``.

    Returns ``(owner, hops)`` where ``hops`` counts node-to-node
    forwardings (0 when the start node already owns the key).

    With ``p`` the last node strictly before the key, finger
    ``successor(c + 2^i)`` of node ``c`` precedes the key exactly when
    ``2^i <= (p - c) mod 2^bits``; the greedy hop takes the largest such
    finger, so it is ``successor(c + 2^j)`` with ``j`` the top bit of
    that distance. From ``p`` itself the key's owner is one hop away.
    """
    ids = ring.sorted_ids
    count = len(ids)
    if count == 0:
        raise RingError("lookup on an empty ring")
    current = ring.node(start_id)
    # With a single node, that node owns everything.
    if count == 1 or start_id == key_point:
        return current, 0
    size = ring.space.size
    index = bisect_left(ids, key_point)
    owner_id = ids[index if index < count else 0]
    last_before = ids[index - 1]
    current_id = start_id
    hops = 1
    while current_id != last_before:
        distance = (last_before - current_id) % size
        index = bisect_left(ids, (current_id + (1 << (distance.bit_length() - 1))) % size)
        current_id = ids[index if index < count else 0]
        hops += 1
    return ring.node(owner_id), hops


def lookup_name(ring: ChordRing, start_id: int, name: str) -> Tuple[ChordNode, int]:
    """Route to the home node of ``name``; returns ``(owner, hops)``."""
    return lookup(ring, start_id, name_to_point(name, ring.space))
