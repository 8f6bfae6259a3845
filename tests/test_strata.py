import math

import numpy as np
import pytest

import oracles
from dendrokit.errors import DomainError
from dendrokit.strata import (
    Configuration,
    LabelledTree,
    _labelled_trees_over,
    _psi_count,
    boundary_index,
    cobound_index,
    composition_image,
    enumerate_psi,
    fm_dimension,
    fm_embed,
    fm_selftest,
    shorten,
    stratum_dim,
)
from dendrokit.trees import parse_tree, reduced_corolla


class TestLabelledTrees:
    def test_parse_and_canonical(self):
        a = LabelledTree.parse("((*@1*@2)*@3)")
        b = LabelledTree.parse("(*@3(*@2*@1))")
        assert a == b
        assert a.labels() == [1, 2, 3]

    def test_distinct_labellings_distinct(self):
        a = LabelledTree.parse("((*@1*@2)*@3)")
        b = LabelledTree.parse("((*@1*@3)*@2)")
        assert a != b

    def test_validation(self):
        with pytest.raises(DomainError):
            LabelledTree.parse("((*@1)*@2)").validate()  # unary vertex
        with pytest.raises(DomainError):
            LabelledTree.parse("(*@1*@3)").validate()  # labels not 1..k
        with pytest.raises(DomainError):
            LabelledTree.parse("(*@01*@1*@2)").validate()  # label 1 twice
        with pytest.raises(DomainError):
            LabelledTree.parse("(*@0*@1)")  # no bit for a label below 1

    def test_contractions(self):
        t = LabelledTree.parse("((*@1*@2)(*@3*@4))")
        targets = {c.term for c in oracles.contractions(t)}
        assert targets == {
            LabelledTree.parse("(*@1*@2(*@3*@4))").term,
            LabelledTree.parse("((*@1*@2)*@3*@4)").term,
        }

    def test_nested_set(self):
        t = LabelledTree.parse("((*@1*@2)(*@3*@4))")
        assert t.clusters == {0b00110, 0b11000}
        assert t.n_vertices == 3 and t.n_inner_edges == 2
        assert not t.is_corolla()
        assert LabelledTree.parse("(*@1*@2*@3)").clusters == frozenset()


def _reversed(node):
    """The raw node with the children of every vertex in reverse order."""
    if isinstance(node, int):
        return node
    return tuple(_reversed(c) for c in reversed(node))


def assert_matches_oracle(t, raw):
    node = oracles.canon_labelled(raw)
    assert t.node == node
    assert t.term == oracles.labelled_term(node)
    assert t.clusters == oracles.labelled_clusters(node)
    assert t.labels() == oracles.labelled_leaves(node)
    assert t.valences() == oracles.labelled_valences(node)
    assert hash(t) == hash(node)
    assert t == LabelledTree(raw) == LabelledTree(node)


class TestBuiltFromBranches:
    """Trees built once from canonical branches against the reference that
    re-serializes every sub-term."""

    @pytest.mark.parametrize("k", range(2, 7))
    def test_every_stratum(self, k):
        elements = enumerate_psi(k).elements
        for t in elements:
            assert_matches_oracle(t, _reversed(t.node))
        assert len({oracles.canon_labelled(t.node) for t in elements}) == len(set(elements))

    @pytest.mark.parametrize("k", range(2, 7))
    def test_valences_of_every_stratum(self, k):
        for t in enumerate_psi(k).elements:
            assert t.valences() == oracles.labelled_valences(t.node)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_each_label_subset_built_once(self, k):
        labels = tuple(range(1, k + 1))
        memo = {}
        got = _labelled_trees_over(labels, memo)
        want = oracles.labelled_trees_per_block(labels)
        assert [t.term for t in got] == [t.term for t in want]
        # every nonempty subset recurs as a block, and is kept once
        assert len(memo) == 2**k - 1
        for t in got:
            for branch_node in t.node:
                if isinstance(branch_node, tuple):
                    pool = memo[tuple(oracles.labelled_leaves(branch_node))]
                    assert any(b.node is branch_node for b in pool)

    @pytest.mark.parametrize(
        "raw",
        [
            (3, (2, 1)),
            ((4, (3, 2)), 1),
            ((5, 4), (3, (2, 1))),
            ((6, 5, 4), 3, (2, 1)),
            (((5, 4), 3), ((2, 1), 6)),
        ],
    )
    def test_children_out_of_canonical_order(self, raw):
        t = LabelledTree(raw)
        assert_matches_oracle(t, raw)
        assert_matches_oracle(LabelledTree.parse(oracles.labelled_term(raw)), raw)


class TestPsiEnumeration:
    @pytest.mark.parametrize(
        "k,count", [(2, 1), (3, 4), (4, 26), (5, 236), (6, 2752)]
    )
    def test_counts(self, k, count):
        assert len(enumerate_psi(k)) == count

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_counts_against_laminar_oracle(self, k):
        laminar = oracles.psi_count_via_laminar_families(k)
        assert len(enumerate_psi(k)) == _psi_count(k) == laminar

    @pytest.mark.parametrize("k", range(2, 8))
    def test_exact_count_charged(self, k):
        assert _psi_count(k) == len(enumerate_psi(k))

    def test_low_level_rejected(self):
        with pytest.raises(DomainError):
            enumerate_psi(1)

    def test_unique_corolla_is_maximal(self):
        for k in (2, 3, 4, 5):
            poset = enumerate_psi(k)
            top = poset.corolla
            assert all(poset.leq(t, top) for t in poset.elements)

    def test_no_forbidden_valences(self):
        for t in enumerate_psi(5).elements:
            assert all(v >= 3 for v in t.valences())

    def test_contraction_order_is_closure_of_covers(self):
        # recompute reachability by BFS over single contractions
        poset = enumerate_psi(4)
        for s in poset.elements:
            reachable = {s}
            frontier = [s]
            while frontier:
                new = []
                for x in frontier:
                    for y in oracles.contractions(x):
                        if y not in reachable:
                            reachable.add(y)
                            new.append(y)
                frontier = new
            for t in poset.elements:
                assert poset.leq(s, t) == (t in reachable)

    def test_every_non_maximal_has_an_upward_cover(self):
        for k in (3, 4, 5):
            poset = enumerate_psi(k)
            for t in poset.elements:
                if t != poset.corolla:
                    assert oracles.contractions(t)


def _posets(k):
    return [enumerate_psi(k), boundary_index(k)]


class TestNestedSetOrder:
    """The nested-set order against the closure of single contractions."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_leq_on_all_pairs(self, k):
        for poset in _posets(k):
            closure = oracles.ClosurePoset(poset)
            for s in poset.elements:
                for t in poset.elements:
                    assert poset.leq(s, t) == closure.leq(s, t)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_covers(self, k):
        for poset in _posets(k):
            assert poset.covers() == oracles.ClosurePoset(poset).covers()

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_down_sets(self, k):
        for poset in _posets(k):
            closure = oracles.ClosurePoset(poset)
            for t in poset.elements:
                assert poset.down_set(t) == closure.down_set(t)

    def test_unknown_tree_rejected(self):
        poset = boundary_index(3)
        corolla = enumerate_psi(3).corolla
        with pytest.raises(DomainError):
            poset.leq(corolla, poset.elements[0])
        with pytest.raises(DomainError):
            poset.leq(poset.elements[0], corolla)


class TestDimensions:
    def test_corolla_is_interior(self):
        for k in (2, 3, 4, 5):
            poset = enumerate_psi(k)
            for n in (1, 2, 3):
                assert stratum_dim(poset.corolla, n) == fm_dimension(n, k)

    def test_psi3_two_vertex_strata(self):
        poset = enumerate_psi(3)
        others = [t for t in poset.elements if t != poset.corolla]
        assert len(others) == 3
        for n in (1, 2, 3, 4):
            for t in others:
                assert stratum_dim(t, n) == 2 * (n - 1)

    def test_full_binary_in_psi4(self):
        t = LabelledTree.parse("((*@1*@2)(*@3*@4))")
        assert stratum_dim(t, 2) == 3

    def test_levels_zero_and_one_are_points(self):
        assert fm_dimension(3, 0) == 0
        assert fm_dimension(7, 1) == 0

    def test_fm_dimension_values(self):
        assert fm_dimension(2, 3) == 3
        assert fm_dimension(1, 4) == 2

    def test_codimension_law(self):
        for k in range(2, 7):
            poset = enumerate_psi(k)
            for n in (1, 2, 3):
                for t in poset.elements:
                    assert fm_dimension(n, k) - stratum_dim(t, n) == t.n_inner_edges


class TestCompositionImage:
    def test_corolla_downset_is_everything(self):
        poset = enumerate_psi(4)
        assert len(composition_image(poset, poset.corolla)) == 26

    def test_two_binary_over_binary(self):
        poset = enumerate_psi(4)
        pattern = LabelledTree.parse("((*@1*@2)(*@3*@4))")
        image = composition_image(poset, pattern)
        assert image == [pattern]  # fully refined: the closed stratum alone

    def test_minimal_elements_are_singletons(self):
        poset = enumerate_psi(3)
        for t in poset.elements:
            if t == poset.corolla:
                continue
            assert composition_image(poset, t) == [t]

    def test_unknown_pattern(self):
        poset = enumerate_psi(3)
        with pytest.raises(DomainError):
            composition_image(poset, LabelledTree.parse("(*@1*@2)"))


class TestBoundaryIndex:
    def test_counts(self):
        assert len(boundary_index(2)) == 0
        assert len(boundary_index(3)) == 3
        assert len(boundary_index(4)) == 25

    def test_no_corolla_inside(self):
        for n in (3, 4):
            poset = boundary_index(n)
            assert all(not t.is_corolla() for t in poset.elements)

    def test_rejects_low_level(self):
        with pytest.raises(DomainError):
            boundary_index(1)


class TestCoboundIndex:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_punctured_cube_size(self, n):
        assert len(cobound_index(n)) == 2**n - 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_order_isomorphism_witness(self, n):
        ci = cobound_index(n)
        assert ci.is_order_isomorphism()
        subsets = {frozenset(s) for s in oracles.witness_subsets(ci)}
        assert frozenset(range(1, n + 1)) not in subsets

    def test_level_one_is_the_bare_stump(self):
        ci = cobound_index(1)
        assert len(ci) == 1
        assert ci.elements[0].induced == parse_tree("()")

    def test_two_cube(self):
        ci = cobound_index(2)
        assert sorted(map(sorted, oracles.witness_subsets(ci))) == [[], [1], [2]]


class TestShorten:
    def test_fixed_point(self):
        t = reduced_corolla(3)
        short, chain = shorten(t)
        assert short == t and chain == []

    def test_extended_corolla_shortens(self):
        t = parse_tree("(()()(()))")
        short, chain = shorten(t)
        assert short == reduced_corolla(3)
        assert len(chain) == 1

    def test_stump_chain(self):
        short, chain = shorten(parse_tree("(((())))"))
        assert short == parse_tree("()")
        assert len(chain) == 3


class TestEmbedding:
    def test_line_ratio(self):
        coords = fm_embed(Configuration([[0.0], [1.0], [2.0]]))
        assert coords.b[(1, 2, 3)] == 0.5

    def test_unit_direction(self):
        coords = fm_embed(Configuration([[1.0, 0.0], [0.0, 0.0]]))
        assert np.allclose(coords.a[(1, 2)], [1.0, 0.0])

    def test_rejects_coincident_points(self):
        with pytest.raises(DomainError):
            Configuration([[0.0, 0.0], [0.0, 0.0]])

    def test_antisymmetry_and_reciprocal_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            coords = fm_embed(Configuration(rng.uniform(-1, 1, size=(4, 3))))
            for (i, j), vec in coords.a.items():
                assert np.max(np.abs(vec + coords.a[(j, i)])) <= 1e-12
            for (i, j, k), val in coords.b.items():
                assert abs(val * coords.b[(i, k, j)] - 1.0) <= 1e-12

    def test_gauge_invariance(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(4, 2))
        base = fm_embed(Configuration(pts))
        moved = fm_embed(Configuration(pts * 3.7 + np.array([10.0, -2.0])))
        for key in base.a:
            assert np.max(np.abs(base.a[key] - moved.a[key])) <= 1e-9
        for key in base.b:
            assert abs(base.b[key] - moved.b[key]) <= 1e-9

    def test_normalization_gauge(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1, 1, size=(4, 2))
        norm = fm_embed(Configuration(pts)).normalized
        assert np.allclose(norm.points.mean(axis=0), 0.0, atol=1e-12)
        dists = [
            np.linalg.norm(norm.points[i] - norm.points[j])
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        assert abs(max(dists) - 1.0) <= 1e-12

    def test_collision_family(self):
        u = np.array([1.0, 0.0, 0.0])
        ratios = []
        for t in (1e-3, 1e-6):
            pts = np.zeros((3, 3))
            pts[1] = t * u
            pts[2] = np.array([0.3, 0.4, 0.5])
            coords = fm_embed(Configuration(pts))
            ratios.append(coords.b[(1, 2, 3)])
            assert np.allclose(coords.a[(1, 2)], -u, atol=1e-12)
        assert ratios[1] < ratios[0]

    def test_selftest_passes(self):
        result = fm_selftest(seed=1, trials=100)
        assert result["passed"]
        assert result["worst_antisymmetry"] <= 1e-12
        assert result["worst_reciprocal"] <= 1e-12
        assert result["worst_gauge_invariance"] <= 1e-9

    def test_json_serialization_inf(self):
        coords = fm_embed(Configuration([[0.0], [1.0], [2.0]]))
        payload = coords.to_json()
        assert payload["b"]["1,2,3"] == 0.5
        assert all(v == "inf" or not math.isinf(v) for v in payload["b"].values())
