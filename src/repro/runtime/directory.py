"""The live-component directory: which cut is deployed, and where.

In the real system this state is implicit in the DHT (a component named
``b`` lives at node ``h(b)``, and it exists iff someone installed it).
The simulation keeps it explicit: a map from live component paths to
hosting node ids, kept in sync with the hash function as membership
changes. The directory is also where the component *naming* of
Section 2.1 is applied: the hash key of a component is its pre-order
index in ``T_w``.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.chord.hashing import name_to_point
from repro.chord.ring import ChordRing
from repro.core.cut import Cut
from repro.core.decomposition import ComponentSpec, DecompositionTree
from repro.errors import ComponentNotFound, ProtocolError

Path = Tuple[int, ...]


class ComponentDirectory:
    """Tracks the deployed cut and the home node of every component."""

    def __init__(self, tree: DecompositionTree, ring: ChordRing):
        self.tree = tree
        self.ring = ring
        self._owner: Dict[Path, int] = {}
        #: path -> hash point. A component's name (and therefore its
        #: point) depends only on the fixed tree and identifier space,
        #: so entries never invalidate; the memo spares the token hot
        #: path a tree walk + SHA-1 per lookup.
        self._points: Dict[Path, int] = {}
        #: Monotonic cut stamp: bumped when a path becomes live or stops
        #: being live, not when a live component moves to a new owner (a
        #: handoff). Caches keyed by it (the client-side input-lookup
        #: cache, the shared edge memo, the ``live_paths`` memo below)
        #: store paths, never owners, so they stay valid exactly as long
        #: as the deployed cut is unchanged.
        self._generation = 0  # repro: owned-by: single-writer
        self._live_memo: Optional[FrozenSet[Path]] = None

    # ------------------------------------------------------------------
    # naming and placement
    # ------------------------------------------------------------------
    def component_name(self, path: Path) -> str:
        """The paper's name: the pre-order index of the component,
        scoped by the network width so distinct networks don't collide."""
        spec = self.tree.node(tuple(path))
        return "cn/%d/%d" % (self.tree.width, self.tree.preorder_index(spec))

    def hash_point(self, path: Path) -> int:
        path = tuple(path)
        point = self._points.get(path)
        if point is None:
            point = name_to_point(self.component_name(path), self.ring.space)
            self._points[path] = point
        return point

    def home(self, path: Path) -> int:
        """The node id that should host ``path`` under the current ring."""
        return self.ring.successor(self.hash_point(path)).node_id

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def _bump_generation(self) -> None:
        """The one mutation site for the stamp and its dependent memo
        (the single-writer ownership contract on ``_generation``)."""
        self._generation += 1
        self._live_memo = None

    def register(self, path: Path, node_id: int) -> None:
        """Place ``path`` on ``node_id``: a new live component, or an
        owner move of a live one, which leaves the cut and the
        generation as they are."""
        path = tuple(path)
        moved = path in self._owner
        self._owner[path] = node_id
        if not moved:
            self._bump_generation()

    def unregister(self, path: Path) -> None:
        path = tuple(path)
        if path in self._owner:
            del self._owner[path]
            self._bump_generation()

    @property
    def generation(self) -> int:
        """Current cut stamp (changes iff the set of live paths does)."""
        return self._generation

    def owner(self, path: Path) -> int:
        try:
            return self._owner[tuple(path)]
        except KeyError:
            raise ComponentNotFound("no live component at path %r" % (path,)) from None

    def is_live(self, path: Path) -> bool:
        return tuple(path) in self._owner

    def owner_reader(self) -> "Callable[[Path], Optional[int]]":
        """A bound, C-level ``dict.get`` over the owner map for hot
        paths (the per-hop liveness + owner probe). Keys must already be
        tuples; missing paths read as None. The underlying dict is
        mutated in place and never replaced, so the reader stays valid
        for the directory's lifetime."""
        return self._owner.get

    def live_paths(self) -> FrozenSet[Path]:
        memo = self._live_memo
        if memo is None:
            memo = self._live_memo = frozenset(self._owner)
        return memo

    def paths_on(self, node_id: int) -> List[Path]:
        return sorted(p for p, owner in self._owner.items() if owner == node_id)

    def __len__(self) -> int:
        return len(self._owner)

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    def spec(self, path: Path) -> ComponentSpec:
        return self.tree.node(tuple(path))

    def covering_member(self, path: Path) -> Optional[Path]:
        """The live member whose subtree contains ``path`` (an ancestor
        or the path itself), if any."""
        path = tuple(path)
        for end in range(len(path), -1, -1):
            if path[:end] in self._owner:
                return path[:end]
        return None

    def live_descendants(self, path: Path) -> List[Path]:
        """Live members strictly below ``path``."""
        path = tuple(path)
        return sorted(
            p for p in self._owner if len(p) > len(path) and p[: len(path)] == path
        )

    def as_cut(self) -> Cut:
        """The deployed cut; raises if the directory is inconsistent."""
        return Cut(self.tree, self._owner.keys())

    def check_consistent(self) -> None:
        """Directory invariant: the live paths form a valid cut and every
        component sits at its hash home."""
        self.as_cut()
        for path, node_id in self._owner.items():
            expected = self.home(path)
            if expected != node_id:
                raise ProtocolError(
                    "component %r hosted at %#x but its home is %#x"
                    % (path, node_id, expected)
                )
