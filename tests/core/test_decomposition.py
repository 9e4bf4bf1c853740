"""Tests for the decomposition tree ``T_w`` (paper Section 2.1)."""

import pytest

from repro.core.decomposition import (
    ComponentKind,
    ComponentSpec,
    DecompositionTree,
    subtree_size,
)
from repro.errors import StructureError


class TestComponentSpec:
    def test_root_is_bitonic(self):
        tree = DecompositionTree(8)
        assert tree.root.kind is ComponentKind.BITONIC
        assert tree.root.width == 8
        assert tree.root.path == ()
        assert tree.root.level == 0

    def test_bitonic_children_kinds(self):
        root = DecompositionTree(8).root
        kinds = [c.kind for c in root.children()]
        assert kinds == [
            ComponentKind.BITONIC,
            ComponentKind.BITONIC,
            ComponentKind.MERGER,
            ComponentKind.MERGER,
            ComponentKind.MIX,
            ComponentKind.MIX,
        ]

    def test_merger_children_kinds(self):
        merger = DecompositionTree(16).root.child(2)
        assert merger.kind is ComponentKind.MERGER
        kinds = [c.kind for c in merger.children()]
        assert kinds == [
            ComponentKind.MERGER,
            ComponentKind.MERGER,
            ComponentKind.MIX,
            ComponentKind.MIX,
        ]

    def test_mix_children_kinds(self):
        mix = DecompositionTree(16).root.child(4)
        assert mix.kind is ComponentKind.MIX
        assert [c.kind for c in mix.children()] == [ComponentKind.MIX, ComponentKind.MIX]

    def test_children_halve_width_and_extend_path(self):
        root = DecompositionTree(16).root
        child = root.child(3)
        assert child.width == 8
        assert child.path == (3,)
        grandchild = child.child(1)
        assert grandchild.width == 4
        assert grandchild.path == (3, 1)
        assert grandchild.level == 2

    def test_leaf_has_no_children(self):
        tree = DecompositionTree(4)
        leaf = tree.root.child(0)
        assert leaf.is_leaf
        assert leaf.children() == []
        assert leaf.num_children() == 0
        with pytest.raises(StructureError):
            leaf.child_kinds()

    def test_child_index_out_of_range(self):
        root = DecompositionTree(8).root
        with pytest.raises(StructureError):
            root.child(6)
        mix = root.child(4)
        with pytest.raises(StructureError):
            mix.child(2)

    def test_invalid_width_rejected(self):
        for width in (0, 1, 3, 6, 12):
            with pytest.raises(StructureError):
                ComponentSpec(ComponentKind.BITONIC, width, ())

    def test_label_readable(self):
        spec = DecompositionTree(8).root.child(2)
        assert spec.label() == "M[4]@2"


class TestSubtreeSize:
    def test_base_cases(self):
        for kind in ComponentKind:
            assert subtree_size(kind, 2) == 1

    def test_mix_size_recurrence(self):
        # X[k] subtree: 1 + 2 * size(X[k/2]) -> 2^(log k - 1 + 1) - 1
        assert subtree_size(ComponentKind.MIX, 4) == 3
        assert subtree_size(ComponentKind.MIX, 8) == 7
        assert subtree_size(ComponentKind.MIX, 16) == 15

    def test_tree_size_matches_enumeration(self):
        for width in (2, 4, 8, 16):
            tree = DecompositionTree(width)
            assert tree.size() == sum(1 for _ in tree.iter_preorder())


class TestDecompositionTree:
    def test_invalid_widths(self):
        for width in (0, 1, 3, 5, 24):
            with pytest.raises(StructureError):
                DecompositionTree(width)

    def test_max_level(self):
        assert DecompositionTree(2).max_level == 0
        assert DecompositionTree(8).max_level == 2
        assert DecompositionTree(64).max_level == 5

    def test_node_navigation(self):
        tree = DecompositionTree(16)
        spec = tree.node((2, 3))
        assert spec.kind is ComponentKind.MIX
        assert spec.width == 4
        assert tree.parent(spec) == tree.node((2,))
        assert tree.parent(tree.root) is None

    def test_ancestors(self):
        tree = DecompositionTree(16)
        spec = tree.node((0, 2, 1))
        chain = list(tree.ancestors(spec))
        assert [a.path for a in chain] == [(0, 2), (0,), ()]

    def test_contains(self):
        tree = DecompositionTree(8)
        assert tree.contains(tree.node((4, 1)))
        alien = DecompositionTree(16).node((4, 1))
        assert not tree.contains(alien)  # width differs at that path

    def test_phi_values_match_paper(self):
        tree = DecompositionTree(64)
        assert tree.phi(0) == 1
        assert tree.phi(1) == 6
        assert tree.phi(2) == 24

    def test_phi_matches_enumeration(self):
        tree = DecompositionTree(16)
        for level in range(tree.max_level + 1):
            assert tree.phi(level) == sum(1 for _ in tree.iter_level(level))

    def test_fact1_phi_growth(self):
        tree = DecompositionTree(256)
        for level in range(tree.max_level):
            assert 2 * tree.phi(level) <= tree.phi(level + 1) <= 6 * tree.phi(level)

    def test_level_out_of_range(self):
        tree = DecompositionTree(8)
        with pytest.raises(StructureError):
            tree.phi(3)
        with pytest.raises(StructureError):
            list(tree.iter_level(-1))


class TestPreorderNaming:
    def test_root_is_zero(self):
        tree = DecompositionTree(16)
        assert tree.preorder_index(tree.root) == 0
        assert tree.from_preorder_index(0) == tree.root

    def test_round_trip_small_widths(self):
        for width in (4, 8, 16):
            tree = DecompositionTree(width)
            for index, spec in enumerate(
                sorted(tree.iter_preorder(), key=lambda s: tree.preorder_index(s))
            ):
                assert tree.preorder_index(spec) == index
                assert tree.from_preorder_index(index) == spec

    def test_preorder_matches_traversal_order(self):
        tree = DecompositionTree(8)
        traversal = list(tree.iter_preorder())
        for index, spec in enumerate(traversal):
            assert tree.preorder_index(spec) == index

    def test_large_width_arithmetic_only(self):
        # Works without materialising the (huge) tree.
        tree = DecompositionTree(1 << 12)
        deep = tree.node((0,) * tree.max_level)
        index = tree.preorder_index(deep)
        assert tree.from_preorder_index(index) == deep

    def test_out_of_range_index(self):
        tree = DecompositionTree(8)
        with pytest.raises(StructureError):
            tree.from_preorder_index(tree.size())
        with pytest.raises(StructureError):
            tree.from_preorder_index(-1)


class TestInputLeaves:
    def test_input_leaf_count_and_order(self):
        tree = DecompositionTree(16)
        leaves = tree.input_leaf_names()
        assert len(leaves) == 8
        assert all(leaf.is_leaf for leaf in leaves)
        assert len({leaf.path for leaf in leaves}) == 8

    def test_input_leaves_are_bitonic_chain(self):
        tree = DecompositionTree(16)
        for leaf in tree.input_leaf_names():
            assert all(i in (0, 1) for i in leaf.path)

    def test_input_leaf_out_of_range(self):
        tree = DecompositionTree(8)
        with pytest.raises(StructureError):
            tree.input_leaf(4)

    def test_width2_tree_single_leaf(self):
        tree = DecompositionTree(2)
        assert tree.input_leaf(0) == tree.root
        assert tree.root.is_leaf


class TestInternedTree:
    """Nodes and child lists are built once and then read from tables."""

    def test_node_is_interned(self):
        tree = DecompositionTree(16)
        assert tree.node((2, 3)) is tree.node((2, 3))
        assert tree.node((2, 3)) is tree.root.child(2).child(3)

    def test_list_paths_accepted(self):
        tree = DecompositionTree(16)
        assert tree.node([2, 3]) is tree.node((2, 3))
        assert tree.node([]) is tree.root

    def test_invalid_path_raises_every_call_and_is_not_kept(self):
        tree = DecompositionTree(8)
        for path in ((6,), (0, 0, 0), [4, 2], (-1,)):
            for _ in range(2):
                with pytest.raises(StructureError):
                    tree.node(path)
            assert tuple(path) not in tree._nodes

    def test_children_returns_a_fresh_list(self):
        root = DecompositionTree(8).root
        children = root.children()
        children.clear()
        children.append(root)
        assert [c.path for c in root.children()] == [(i,) for i in range(6)]
        assert root.children() is not root.children()
        leaf = root.child(0).child(0)
        assert leaf.children() == []

    def test_cached_children_leave_equality_hash_and_repr_alone(self):
        spec = DecompositionTree(8).root.child(2)
        fresh = ComponentSpec(ComponentKind.MERGER, 4, (2,))
        spec.children()  # builds spec's child table, not fresh's
        assert spec == fresh and hash(spec) == hash(fresh)
        assert repr(spec) == repr(fresh)

    def test_navigation_agrees_with_a_fresh_walk(self):
        tree = DecompositionTree(16)

        def walk(path):
            spec = ComponentSpec(ComponentKind.BITONIC, 16, ())
            for index in path:
                kind = spec.child_kinds()[index]
                spec = ComponentSpec(kind, spec.width // 2, spec.path + (index,))
            return spec

        for index, spec in enumerate(tree.iter_preorder()):
            assert spec == walk(spec.path)
            assert tree.node(spec.path) == walk(spec.path)
            parent = tree.parent(spec)
            assert parent == (walk(spec.path[:-1]) if spec.path else None)
            assert list(tree.ancestors(spec)) == [
                walk(spec.path[:end]) for end in range(len(spec.path) - 1, -1, -1)
            ]
            assert tree.preorder_index(spec) == index
            assert tree.from_preorder_index(index) == walk(spec.path)
