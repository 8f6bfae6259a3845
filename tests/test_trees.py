import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dendrokit.errors import BudgetExceeded, DomainError, ParseError
from dendrokit.trees import (
    MAX_TREE_DEPTH,
    Tree,
    aut_order,
    automorphisms,
    canonicalize_node,
    corolla,
    enumerate_trees,
    enumerate_trees_by_vertices,
    graft,
    leaf_tree,
    linear_tree,
    parse_tree,
    reduced_corolla,
    stump_tree,
    tree_stats,
)


class TestParsing:
    def test_single_leaf(self):
        t = parse_tree("*")
        assert len(t.edges) == 1 and len(t.vertices) == 0
        assert t.key == "*"

    def test_reduced_three_corolla(self):
        t = parse_tree("(()()())")
        stats = tree_stats(t)
        assert stats.n_edges == 4
        assert stats.valences == (1, 1, 1, 4)
        assert t == reduced_corolla(3)

    def test_two_corolla(self):
        t = parse_tree("(**)")
        stats = tree_stats(t)
        assert stats.n_edges == 3 and stats.n_vertices == 1
        assert stats.valences == (3,)
        assert t == corolla(2)

    def test_whitespace_insensitive(self):
        assert parse_tree(" ( * ( * * ) ) ") == parse_tree("(*(**))")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_tree("((*)")
        assert err.value.position == 4

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_tree("(*)*")

    def test_duplicate_name(self):
        with pytest.raises(ParseError):
            parse_tree("(*@a*@a)")

    def test_depth_limit(self):
        assert len(parse_tree("(" * MAX_TREE_DEPTH + "*" + ")" * MAX_TREE_DEPTH).edges) == 257
        with pytest.raises(ParseError) as err:
            parse_tree("(" * (MAX_TREE_DEPTH + 1) + ")" * (MAX_TREE_DEPTH + 1))
        assert err.value.message == "tree nested too deeply"
        assert err.value.position == MAX_TREE_DEPTH

    def test_labels_survive(self):
        t = parse_tree("(*@left*@right)@root")
        assert set(t.labels.values()) == {"left", "right", "root"}


class TestCanonical:
    def test_child_order_symmetry(self):
        assert parse_tree("((**)*)").key == parse_tree("(*(**))").key

    def test_leaf_before_vertex(self):
        # the canonical order puts * before (
        assert parse_tree("((**)*)").key == "(*(**))"

    def test_idempotent(self):
        for term in ["*", "()", "(*(**))", "((()())())"]:
            t = parse_tree(term)
            assert oracles.canonical_form(t) == t
            assert oracles.canonical_form(oracles.canonical_form(t)) == t

    def test_all_leaf_orderings_one_key(self):
        keys = {
            parse_tree(term).key
            for term in ["((**)(**))", "((**)(**))", "((**)(**))"]
        }
        assert len(keys) == 1

    def test_labels_do_not_affect_key(self):
        assert parse_tree("(*@a*@b)").key == parse_tree("(**)").key


def _reversed_children(node):
    children, label = node
    if children is None:
        return node
    return (tuple(_reversed_children(c) for c in reversed(children)), label)


def _leaves_labelled(node, counter):
    children, label = node
    if children is None:
        counter[0] += 1
        return (None, f"l{counter[0] % 2}")
    return (tuple(_leaves_labelled(c, counter) for c in children), label)


class TestCanonicalizeNode:
    """`canonicalize_node` against the reference that re-serializes every
    sub-term at every level: the same canonical node and the same address
    map, in the same order."""

    @staticmethod
    def assert_matches(node):
        got, want = canonicalize_node(node), oracles.naive_canonicalize_node(node)
        assert got == want
        assert list(got[1].items()) == list(want[1].items())

    def test_every_tree_of_three_vertices(self):
        trees = enumerate_trees_by_vertices(3, 3)
        for t in trees:
            node = t.node_at(())
            for variant in (node, _reversed_children(node), _leaves_labelled(node, [0])):
                self.assert_matches(variant)
                self.assert_matches(_reversed_children(variant))
        assert len(trees) > 50

    def test_stump_chains(self):
        # the reference costs the cube of the depth, so the deep end is sampled
        for depth in [*range(1, 65), 96, 128, 192, MAX_TREE_DEPTH - 1, MAX_TREE_DEPTH]:
            node = ((), None)
            for _ in range(depth - 1):
                node = ((node,), None)
            self.assert_matches(node)


class TestStats:
    def test_vertex_edge_leaf_relation(self):
        for t in enumerate_trees(5, 3):
            stats = tree_stats(t)
            assert stats.n_vertices == stats.n_edges - len(t.leaves)
            assert sum(len(t.children(v)) for v in t.vertices) == stats.n_edges - 1

    def test_reduced_iff_no_leaves(self):
        assert tree_stats(reduced_corolla(2)).is_reduced
        assert not tree_stats(leaf_tree()).is_reduced
        assert not tree_stats(corolla(2)).is_reduced

    def test_inner_edges(self):
        # the six-edge example: inner edges are b and d
        t = parse_tree("(*@e((*@a*@c)@b)@d)@f")
        inner_labels = {t.label(e) for e in t.inner_edges}
        assert inner_labels == {"b", "d"}


class TestChildren:
    def test_stored_tuples_match_node_arity(self):
        trees = enumerate_trees_by_vertices(4, 4)
        assert len(trees) == 1021
        for t in trees:
            for v in t.vertices:
                kids = t.children(v)
                assert kids == tuple(v + (i,) for i in range(len(t.node_at(v)[0])))
                assert t.children(v) is kids

    @pytest.mark.parametrize(
        "term, addr, payload",
        [
            ("*", (), {"error": "leaf edge has no vertex", "detail": {"address": ""}}),
            ("(*())", (0,), {"error": "leaf edge has no vertex", "detail": {"address": "0"}}),
            ("(*())", (2,), {"error": "unknown edge", "detail": {"address": "2"}}),
            ("(*())", (1, 0), {"error": "unknown edge", "detail": {"address": "1.0"}}),
            ("()", (0,), {"error": "unknown edge", "detail": {"address": "0"}}),
        ],
    )
    def test_leaf_and_unknown_address(self, term, addr, payload):
        with pytest.raises(DomainError) as err:
            parse_tree(term).children(addr)
        assert err.value.payload() == payload


class TestAutomorphisms:
    @pytest.mark.parametrize("n", range(6))
    def test_corolla_factorial(self, n):
        assert aut_order(corolla(n)) == math.factorial(n)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_against_brute_force(self, n):
        assert aut_order(corolla(n)) == oracles.brute_force_aut_order(corolla(n))

    def test_double_binary(self):
        t = parse_tree("((**)(**))")
        assert aut_order(t) == 8 == oracles.brute_force_aut_order(t)

    def test_trivial_on_single_edge(self):
        assert aut_order(leaf_tree()) == 1

    def test_enumeration_matches_order(self):
        for t in enumerate_trees(5, 3):
            autos = automorphisms(t)
            assert len(autos) == aut_order(t)
            # each is a permutation of the edges fixing the root
            for alpha in autos:
                assert alpha[()] == ()
                assert sorted(alpha.values()) == sorted(t.edges)

    def test_brute_force_everywhere_small(self):
        for t in enumerate_trees(4, 3):
            assert aut_order(t) == oracles.brute_force_aut_order(t)


class TestGraft:
    def test_graft_leaf_is_identity(self):
        t2 = corolla(2)
        assert graft(t2, (0,), leaf_tree()) == t2

    def test_graft_binary_onto_binary(self):
        assert graft(corolla(2), (0,), corolla(2)).key == "(*(**))"

    def test_graft_onto_non_leaf_fails(self):
        with pytest.raises(DomainError):
            graft(parse_tree("(*(**))"), (1,), corolla(2))

    def test_graft_stump(self):
        assert graft(corolla(1), (0,), stump_tree()) == linear_tree(1, closed=True)

    def test_iterated_binary_grafts_make_binary_trees(self):
        # all trees obtainable by grafting binary corollas onto leaves
        shapes = {corolla(2)}
        for _ in range(2):
            new = set()
            for t in shapes:
                for leaf in t.leaves:
                    new.add(graft(t, leaf, corolla(2)))
            shapes |= new
        # unlabelled binary shapes with 3 and 4 leaves: 2 and 3 classes
        by_leaves = {}
        for t in shapes:
            by_leaves.setdefault(len(t.leaves), set()).add(t.key)
        assert len(by_leaves[3]) == 1
        assert len(by_leaves[4]) == 2


class TestEnumeration:
    def test_single_edge(self):
        assert [t.key for t in enumerate_trees(1, 3)] == ["*", "()"]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_one_vertex_trees_are_corollas(self, m):
        trees = [t for t in enumerate_trees(m + 1, m) if len(t.vertices) == 1]
        assert len(trees) == m + 1  # the corollas with 0..m inputs
        assert {t.key for t in trees} == {corolla(k).key for k in range(m + 1)}

    def test_reduced_count_up_to_four_edges(self):
        # frozen from the naive generate-and-dedup oracle below
        red = enumerate_trees(4, 3, reduced_only=True)
        assert len(red) == 8

    def test_no_duplicate_keys_and_naive_oracle_agreement(self):
        for max_edges in (4, 5, 6):
            trees = enumerate_trees(max_edges, 3)
            keys = [t.key for t in trees]
            assert len(keys) == len(set(keys))
            naive = _naive_generate(max_edges, 3)
            assert set(keys) == naive

    def test_vertex_bounded_enumeration(self):
        trees = enumerate_trees_by_vertices(3, 3)
        assert len(trees) == len({t.key for t in trees})
        assert all(len(t.vertices) <= 3 for t in trees)
        assert all(
            all(len(t.children(v)) <= 3 for v in t.vertices) for t in trees
        )
        # agreement with the edge-bounded enumeration on the overlap
        by_edges = {
            t.key
            for t in enumerate_trees(10, 3)
            if len(t.vertices) <= 3
        }
        assert {t.key for t in trees} == by_edges


class TestShapesMatchRecurrences:
    """Both enumerations against the memoized per-measure recurrences they
    replaced: the same terms in the same order, for every bound."""

    @pytest.mark.parametrize("reduced_only", [False, True])
    @pytest.mark.parametrize("max_inputs", [0, 1, 2, 3, 4])
    def test_by_edges(self, max_inputs, reduced_only):
        want = []
        for e in range(1, 9):
            want += [Tree(n).term for n in oracles.shapes_by_edges(e, max_inputs, reduced_only)]
            got = [t.term for t in enumerate_trees(e, max_inputs, reduced_only=reduced_only)]
            assert got == want

    @pytest.mark.parametrize("reduced_only", [False, True])
    @pytest.mark.parametrize("max_inputs", [0, 1, 2, 3, 4])
    def test_by_vertices(self, max_inputs, reduced_only):
        want = []
        for v in range(0, 6):
            want += [Tree(n).term for n in oracles.shapes_by_vertices(v, max_inputs, reduced_only)]
            got = [
                t.term
                for t in enumerate_trees_by_vertices(v, max_inputs, reduced_only=reduced_only)
            ]
            assert got == want


class TestExactCharge:
    """Both enumerations charge the exact number of trees they build,
    counted without building a shape."""

    @staticmethod
    def assert_charges_its_length(enumerate_, size, max_inputs, reduced_only):
        n = len(enumerate_(size, max_inputs, reduced_only=reduced_only))
        assert len(enumerate_(size, max_inputs, reduced_only=reduced_only, budget=n)) == n
        with pytest.raises(BudgetExceeded) as refused:
            enumerate_(size, max_inputs, reduced_only=reduced_only, budget=n - 1)
        assert refused.value.detail["estimate"] == n

    @pytest.mark.parametrize("reduced_only", [False, True])
    def test_by_vertices(self, reduced_only):
        for v, k in itertools.product(range(5), range(5)):
            self.assert_charges_its_length(enumerate_trees_by_vertices, v, k, reduced_only)

    @pytest.mark.parametrize("reduced_only", [False, True])
    def test_by_edges(self, reduced_only):
        for e, k in itertools.product(range(1, 8), range(5)):
            self.assert_charges_its_length(enumerate_trees, e, k, reduced_only)

    def test_no_inputs_stop_at_the_stump(self):
        assert [t.term for t in enumerate_trees(10**9, 0)] == ["*", "()"]
        assert [t.term for t in enumerate_trees_by_vertices(10**9, 0)] == ["*", "()"]

    @pytest.mark.parametrize("enumerate_", [enumerate_trees, enumerate_trees_by_vertices])
    def test_chains_past_the_nesting_bound_are_refused(self, enumerate_):
        assert len(enumerate_(MAX_TREE_DEPTH, 1)) <= 2 * MAX_TREE_DEPTH + 1
        with pytest.raises(DomainError, match="nest too deeply"):
            enumerate_(10**9, 1)


def _naive_generate(max_edges, max_inputs):
    """Grow trees upward from a single edge in all ways, dedup by key."""
    leaf, stump = "*", "()"
    frontier = {leaf, stump}
    seen = set(frontier)
    while frontier:
        new = set()
        for term in frontier:
            t = parse_tree(term)
            for e in t.edges:
                if t.is_leaf(e):
                    for repl in ("()", "(*)", "(**)", "(***)")[: max_inputs + 1]:
                        grown = graft(t, e, parse_tree(repl))
                        if len(grown.edges) > max_edges:
                            continue
                        if grown.key not in seen:
                            seen.add(grown.key)
                            new.add(grown.key)
                elif len(t.children(e)) < max_inputs and len(t.edges) < max_edges:
                    node = _add_leaf_child(t, e)
                    if node not in seen:
                        seen.add(node)
                        new.add(node)
        frontier = new
    return seen


def _add_leaf_child(t, e):
    def rebuild(addr):
        children, label = t.node_at(addr)
        if children is None:
            return (None, label)
        kids = [rebuild(c) for c in t.children(addr)]
        if addr == e:
            kids.append((None, None))
        return (tuple(kids), label)

    return Tree(rebuild(())).key


# -- round trips, property style ------------------------------------------


@st.composite
def tree_terms(draw, max_depth=4):
    def node(depth):
        if depth >= max_depth or draw(st.booleans()):
            return draw(st.sampled_from(["*", "()"]))
        width = draw(st.integers(min_value=1, max_value=3))
        return "(" + "".join(node(depth + 1) for _ in range(width)) + ")"

    return node(0)


@given(tree_terms())
@settings(max_examples=200, deadline=None)
def test_parse_format_round_trip(term):
    t = parse_tree(term)
    again = parse_tree(t.term)
    assert again == t
    assert again.key == t.key
    assert aut_order(oracles.canonical_form(t)) == aut_order(t)
