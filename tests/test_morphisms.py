import hashlib
import itertools
import json
import subprocess
import sys

import pytest

import oracles
from dendrokit import morphisms
from dendrokit.errors import BudgetExceeded, DomainError
from dendrokit.morphisms import (
    Factorization,
    OmegaMorphism,
    classify,
    contract_inner_edge,
    degeneracies,
    degeneracy_at,
    elementary_faces,
    factorize,
    hom_set,
    is_extended_corolla,
    is_reduced,
    is_reduced_corolla,
    operation_exists,
    shorten,
    subtrees,
    validate_morphism,
)
from dendrokit.trees import (
    MAX_TREE_DEPTH,
    aut_order,
    automorphisms,
    corolla,
    enumerate_trees,
    enumerate_trees_by_vertices,
    leaf_tree,
    linear_tree,
    parse_tree,
    reduced_corolla,
)

SIX_EDGE_EXAMPLE = "(*@e((*@a*@c)@b)@d)@f"


def example_tree():
    t = parse_tree(SIX_EDGE_EXAMPLE)
    return t, {label: addr for addr, label in t.labels.items()}


class TestOperationExists:
    def test_composite_through_unary(self):
        t, at = example_tree()
        w = operation_exists(t, at["d"], (at["a"], at["c"]))
        assert w is not None
        assert {t.label(v) for v in w.vertices} == {"b", "d"}

    def test_full_composite(self):
        t, at = example_tree()
        w = operation_exists(t, at["f"], (at["a"], at["c"], at["e"]))
        assert w is not None
        assert {t.label(v) for v in w.vertices} == {"b", "d", "f"}

    def test_identity(self):
        t, at = example_tree()
        w = operation_exists(t, at["b"], (at["b"],))
        assert w.is_identity

    def test_absent(self):
        t, at = example_tree()
        assert operation_exists(t, at["d"], (at["e"],)) is None
        assert operation_exists(t, at["a"], (at["c"],)) is None

    def test_repeated_inputs_absent(self):
        t, at = example_tree()
        assert operation_exists(t, at["f"], (at["a"], at["a"])) is None

    def test_nullary_on_closed_tree(self):
        t = reduced_corolla(2)
        w = operation_exists(t, (), ())
        assert w is not None
        assert len(w.vertices) == 3  # the root vertex and both stumps

    def test_nullary_absent_with_leaf(self):
        t = corolla(2)
        assert operation_exists(t, (), ()) is None

    def test_unknown_edge(self):
        with pytest.raises(DomainError):
            operation_exists(corolla(2), (5, 5), ())

    def test_closure_oracle_agreement(self):
        # the recursive search agrees with substitution closure on all
        # operations of every small tree
        for t in enumerate_trees(5, 3):
            ops = oracles.tree_operation_closure(t)
            for output in t.edges:
                for r in range(0, 4):
                    for inputs in itertools.permutations(t.edges, r):
                        expected = (inputs, output) in ops
                        assert (
                            operation_exists(t, output, inputs) is not None
                        ) == expected


class TestValidateAndHom:
    def test_identity_map_valid(self):
        for term in ["*", "(**)", "(*(**))", "(()())"]:
            t = parse_tree(term)
            assert validate_morphism(t, t, {e: e for e in t.edges})

    def test_degeneracy_picture(self):
        # collapsing the unary vertex of the three-vertex example shape
        t = parse_tree("(((**))*)")
        sigma = degeneracies(t)
        assert len(sigma) == 1
        assert validate_morphism(t, sigma[0].target, sigma[0].map)

    def test_corolla_to_single_edge_invalid(self):
        t2, eta = corolla(2), leaf_tree()
        m = {e: () for e in t2.edges}
        assert not validate_morphism(t2, eta, m)

    def test_hom_from_single_edge_counts_edges(self):
        for term in ["*", "(**)", "(*(**))", "(()()())"]:
            t = parse_tree(term)
            assert len(hom_set(leaf_tree(), t)) == len(t.edges)

    def test_hom_t2_t2(self):
        assert len(hom_set(corolla(2), corolla(2))) == 2

    def test_hom_reduced_one_corolla(self):
        t = linear_tree(1, closed=True)
        assert len(hom_set(t, t)) == 3

    def test_brute_force_agreement(self):
        trees = enumerate_trees(4, 2)
        for s in trees:
            for t in trees:
                fast = hom_set(s, t)
                slow = oracles.brute_force_morphisms(s, t)
                assert len(fast) == len(slow)
                assert {tuple(sorted(m.map.items())) for m in fast} == {
                    tuple(sorted(m.items())) for m in slow
                }

    def test_budget(self):
        big = reduced_corolla(4)
        with pytest.raises(BudgetExceeded):
            hom_set(big, big, budget=10)

    def test_composition_closure(self):
        trees = enumerate_trees_by_vertices(2, 2)
        for a, b in itertools.product(trees, repeat=2):
            for f in hom_set(a, b):
                for g in hom_set(b, b):
                    composite = f.then(g)
                    assert validate_morphism(a, b, composite.map)

    @pytest.mark.parametrize("checked", [False, True])
    def test_partial_or_extra_edge_map_is_not_total(self, checked):
        t = parse_tree("(*(**))")
        identity = {e: e for e in t.edges}
        missing = dict(list(identity.items())[1:])
        extra = {**identity, (9,): ()}
        for edge_map in (missing, extra, {}):
            with pytest.raises(DomainError, match="not total"):
                OmegaMorphism(t, t, edge_map, _checked=checked)
        assert OmegaMorphism(t, t, identity, _checked=checked).map == identity

    def test_deterministic_order(self):
        t = parse_tree("(*(**))")
        once = [m.map for m in hom_set(corolla(2), t)]
        twice = [m.map for m in hom_set(corolla(2), t)]
        assert once == twice


class TestFacesAndDegeneracies:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_corolla_faces_are_edge_inclusions(self, n):
        fs = elementary_faces(corolla(n))
        assert len(fs) == n + 1
        assert all(f.morphism.source == leaf_tree() for f in fs)
        assert all(f.kind == "outer" for f in fs)

    def test_six_edge_example_two_inner_faces(self):
        t, at = example_tree()
        inner = [f for f in elementary_faces(t) if f.kind == "inner"]
        assert {t.label(f.contracted) for f in inner} == {"b", "d"}

    def test_grafted_tree_face_count(self):
        # frozen from the extensional enumeration over injective maps
        fs = elementary_faces(parse_tree("((**)*)"))
        assert len(fs) == 3
        assert sum(f.kind == "inner" for f in fs) == 1

    def test_double_binary_faces(self):
        fs = elementary_faces(parse_tree("((**)(**))"))
        assert len(fs) == 4
        assert sum(f.kind == "inner" for f in fs) == 2

    def test_no_unary_no_degeneracies(self):
        assert degeneracies(parse_tree("((**)*)")) == []

    def test_one_corolla_degeneracy(self):
        sigma = degeneracies(corolla(1))
        assert len(sigma) == 1
        assert sigma[0].target == leaf_tree()

    def test_double_unary_two_degeneracies(self):
        assert len(degeneracies(parse_tree("((*))"))) == 2

    def test_degeneracies_have_face_sections(self):
        for term in ["(*)", "((*))", "((()))", "(*(*)*)"]:
            t = parse_tree(term)
            for sigma in degeneracies(t):
                sections = [
                    f.morphism
                    for f in elementary_faces(t)
                    if f.morphism.source == sigma.target
                    and f.morphism.then(sigma) == OmegaMorphism.identity(sigma.target)
                ]
                assert len(sections) == 2

    def test_faces_match_search_oracle(self):
        trees = enumerate_trees_by_vertices(3, 3) + [parse_tree(SIX_EDGE_EXAMPLE)]
        assert len(trees) == 74
        for t in trees:
            got = [(f.morphism, f.kind, f.contracted) for f in elementary_faces(t)]
            want = [
                (f.morphism, f.kind, f.contracted)
                for f in oracles.search_elementary_faces(t, budget=10**16)
            ]
            assert got == want, t.term

    def test_faces_within_default_budget(self):
        trees = enumerate_trees_by_vertices(4, 3)
        assert len(trees) == 357
        for t in trees:
            fs = elementary_faces(t)
            assert bool(fs) == bool(t.vertices)
            assert all(len(f.morphism.source.vertices) == len(t.vertices) - 1 for f in fs)
            assert all(f.morphism.is_injective() for f in fs)

    def test_faces_cli_formerly_over_budget(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dendrokit.cli", "faces", "((***)(***)(***))", "--json"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[:500]
        payload = json.loads(proc.stdout)
        assert payload["count"] == len(payload["faces"]) == 6

    def test_built_face_is_least_in_its_orbit(self):
        trees = enumerate_trees_by_vertices(4, 4) + [parse_tree(SIX_EDGE_EXAMPLE)]
        for t in trees:
            faces = elementary_faces(t)
            for face in faces:
                m = face.morphism
                assert m._items == oracles.automorphism_orbit_key(m), (t.term, m)
            keys = {(f.morphism.source.key, f.morphism._items) for f in faces}
            assert len(keys) == len(faces), t.term

    def test_orbit_oracle_enumerates_every_automorphism(self):
        for t in enumerate_trees(7, 4):
            rows = oracles.automorphism_rows(t)
            position = {e: i for i, e in enumerate(t.edges)}
            want = {tuple(position[alpha[e]] for e in t.edges) for alpha in automorphisms(t)}
            assert {tuple(row) for row in rows.tolist()} == want and len(rows) == len(want), t.term

    def test_inner_faces_match_contractions(self):
        for term in ["(*(**))", "((()))", "(()(()))"]:
            t = parse_tree(term)
            by_contraction = {e: contract_inner_edge(t, e) for e in t.inner_edges}
            inner = [f for f in elementary_faces(t) if f.kind == "inner"]
            assert len(inner) == len(by_contraction)
            for f in inner:
                assert f.contracted in by_contraction


class TestFactorize:
    def test_identity(self):
        t = parse_tree("(*(**))")
        fact = factorize(OmegaMorphism.identity(t))
        assert fact.degeneracies == [] and fact.faces == []
        assert fact.isomorphism.is_isomorphism()

    def test_single_face(self):
        t = parse_tree("(*(**))")
        for face in elementary_faces(t):
            fact = factorize(face.morphism)
            assert fact.degeneracies == []
            assert fact.composite() == face.morphism

    def test_degeneracy_then_face(self):
        t = linear_tree(1, closed=True)
        for m in hom_set(t, t):
            fact = factorize(m)
            assert fact.composite() == m

    def test_small_grid(self):
        trees = enumerate_trees_by_vertices(2, 3)
        for s, t in itertools.product(trees, repeat=2):
            for m in hom_set(s, t):
                fact = factorize(m)
                assert fact.composite() == m


def test_tree_layer_digest_is_pinned():
    """Every factorization among the trees of (3, 3), then the faces and
    subtree inclusions of the trees of (4, 4) and of seven edges and three
    inputs, serialized in order: a changed digest is a changed output."""
    digest = hashlib.sha256()
    c33 = enumerate_trees_by_vertices(3, 3)
    for s, t in itertools.product(c33, repeat=2):
        for m in hom_set(s, t):
            digest.update(json.dumps(factorize(m).to_json(), sort_keys=True).encode())
    for t in enumerate_trees_by_vertices(4, 4) + enumerate_trees(7, 3):
        digest.update(json.dumps([f.to_json() for f in elementary_faces(t)], sort_keys=True).encode())
        digest.update(json.dumps([s.to_json() for s in subtrees(t)], sort_keys=True).encode())
    assert digest.hexdigest() == "55ed4161fcf903b09b0b050f54d8b5d871599d4eb7d46c04ed298eff0a6854b2"


class TestEdgeIds:
    """Maps are held as tuples of edge ids; the address views decode them."""

    def test_id_maps_match_their_address_maps(self):
        c33 = enumerate_trees_by_vertices(3, 3)
        maps = [m for s, t in itertools.product(c33, repeat=2) for m in hom_set(s, t)]
        assert len(maps) == 12061
        for t in c33:
            maps += [f.morphism for f in elementary_faces(t)] + degeneracies(t)
        for m in maps:
            rebuilt = OmegaMorphism(m.source, m.target, m.map)
            assert rebuilt == m and hash(rebuilt) == hash(m)
            assert rebuilt.to_json() == m.to_json() and repr(rebuilt) == repr(m)
            assert m._items == tuple(m.map[e] for e in m.source.edges)
            assert all(rebuilt(e) == m(e) == m.map[e] for e in m.source.edges)

    def test_validation_and_isomorphism_match_the_address_walks(self):
        # the address walk raises on a vertex sent to a leaf, where the id
        # test answers False
        def address_iso(m):
            try:
                return oracles.address_is_isomorphism(m)
            except DomainError:
                return False

        trees = enumerate_trees(4, 2)
        valid = isos = 0
        for s, t in itertools.product(trees, repeat=2):
            for values in itertools.product(t.edges, repeat=len(s.edges)):
                edge_map = dict(zip(s.edges, values))
                want = oracles.address_validate_morphism(s, t, edge_map)
                assert validate_morphism(s, t, edge_map) == want
                m = OmegaMorphism(s, t, edge_map, _checked=True)
                assert m.is_isomorphism() == address_iso(m), m
                valid += want
                isos += m.is_isomorphism()
                if not want:
                    with pytest.raises(DomainError, match="not a morphism"):
                        OmegaMorphism(s, t, edge_map)
            edge_map = dict(zip(s.edges, itertools.repeat(())))
            assert not validate_morphism(s, t, {**edge_map, (): (9,)})
            assert not validate_morphism(s, t, {**edge_map, (9,): ()})
        assert valid == sum(len(hom_set(s, t)) for s, t in itertools.product(trees, repeat=2))
        assert isos == sum(aut_order(t) for t in trees)

    def test_constructor_errors_are_unchanged(self):
        t = parse_tree("(*(**))")
        with pytest.raises(DomainError) as partial:
            OmegaMorphism(t, t, {(): ()})
        assert partial.value.payload() == {"error": "edge map is not total on the source tree", "detail": {}}
        for edge_map in (dict.fromkeys(t.edges, ()), {**{e: e for e in t.edges}, (1,): (7,)}):
            with pytest.raises(DomainError) as invalid:
                OmegaMorphism(t, t, edge_map)
            assert invalid.value.payload() == {
                "error": "edge map is not a morphism of trees",
                "detail": {"source": "(*(**))", "target": "(*(**))"},
            }


class TestTablePathsMatchOracles:
    """Hom sets built as image tuples and factorizations peeled against the
    stored face images and inverses, against the dict-merging hom sets and
    the copy-per-face peel with a `then`-chain composite."""

    def test_every_pair_of_three_vertex_trees(self):
        trees = enumerate_trees_by_vertices(3, 3)
        n_maps = 0
        for s, t in itertools.product(trees, repeat=2):
            maps = hom_set(s, t)
            expected = oracles.naive_hom_set(s, t)
            assert maps == expected
            assert [m.map for m in maps] == [m.map for m in expected]
            for m in maps:
                assert factorize(m).to_json() == oracles.naive_factorize(m).to_json()
            n_maps += len(maps)
        assert n_maps == 12061


class TestCompositeChecks:
    def test_mismatched_step_is_not_composable(self):
        t = parse_tree("(*(**))")
        face = next(f for f in elementary_faces(t) if f.morphism.source != t)
        fact = Factorization([], OmegaMorphism.identity(t), [face])
        with pytest.raises(DomainError, match="morphisms are not composable"):
            fact.composite()

    def test_wrong_isomorphism_is_caught(self, monkeypatch):
        t = corolla(2)
        swap = OmegaMorphism(t, t, {(): (), (0,): (1,), (1,): (0,)})
        monkeypatch.setattr(morphisms, "_peel", lambda g: ([], swap))
        with pytest.raises(DomainError, match="factorization composite mismatch"):
            factorize(OmegaMorphism.identity(t))


class TestDegeneracyMemo:
    def test_one_collapse_per_tree_and_vertex(self):
        trees = enumerate_trees_by_vertices(3, 3)
        degeneracy_at.cache_clear()
        facts = [factorize(m) for s, t in itertools.product(trees, repeat=2) for m in hom_set(s, t)]
        assert len(facts) == 12061
        steps = [sigma for fact in facts for sigma in fact.degeneracies]
        pairs = {}
        for sigma in steps:
            t = sigma.source
            # the one unary vertex whose input edge goes where it goes
            (v,) = [
                v for v in t.vertices
                if len(t.children(v)) == 1 and sigma(v) == sigma(t.children(v)[0])
            ]
            pairs.setdefault((t, v), []).append(sigma)
        info = degeneracy_at.cache_info()
        assert info.misses == len(pairs) == 51
        assert info.hits + info.misses == len(steps)
        for (t, v), found in pairs.items():
            cached = degeneracy_at(t, v)
            assert all(sigma is cached for sigma in found)
            fresh = degeneracy_at.__wrapped__(t, v)
            assert fresh is not cached
            assert (cached.source, cached.target, cached.map) == (fresh.source, fresh.target, fresh.map)

    def test_non_unary_vertex_still_refused(self):
        t = parse_tree("((**)*)")
        for v in [(), (0,), (1,)]:
            with pytest.raises(DomainError) as err:
                degeneracy_at(t, v)
            assert err.value.payload() == {
                "error": "not a unary vertex", "detail": {"address": ".".join(map(str, v))},
            }


class TestSubtrees:
    def test_single_edge(self):
        subs = subtrees(leaf_tree())
        assert len(subs) == 1
        assert subs[0].induced == leaf_tree()

    def test_reduced_two_corolla(self):
        assert len(subtrees(reduced_corolla(2))) == 6

    def test_plain_corolla(self):
        # the bare root is not a subtree of a leafy corolla: both omitted
        # branches are open
        subs = subtrees(corolla(2))
        assert len(subs) == 3
        assert sorted(len(s.edge_subset) for s in subs) == [1, 1, 3]

    def test_corolla_subtree_binomials(self):
        import math

        for n in range(1, 6):
            t = reduced_corolla(n)
            subs = subtrees(t)
            for k in range(1, n + 1):
                count = sum(
                    1
                    for s in subs
                    if s.contains_root
                    and s.induced == reduced_corolla(k)
                )
                assert count == math.comb(n, k)

    def test_validity_oracle_both_directions(self):
        for t in enumerate_trees(6, 3):
            valid_subsets = {s.edge_subset for s in subtrees(t)}
            for subset in oracles.connected_edge_subsets(t):
                assert (subset in valid_subsets) == oracles.subtree_subset_is_valid(
                    t, subset
                )

    def test_reduced_trees_every_connected_subset_valid(self):
        for t in enumerate_trees(6, 3, reduced_only=True):
            assert len(subtrees(t)) == len(oracles.connected_edge_subsets(t))

    def test_inclusions_validate(self):
        for t in enumerate_trees(5, 3):
            for s in subtrees(t):
                assert validate_morphism(s.induced, t, s.inclusion.map)


class TestSubtreesMatchFilter:
    """`subtrees` builds only valid edge subsets; the reference offers every
    branch for omission and drops the invalid inclusions.  Edge sets,
    induced terms and inclusion maps agree, in the same order."""

    @staticmethod
    def assert_matches(trees):
        for t in trees:
            got = [s.to_json() for s in subtrees(t)]
            assert got == [s.to_json() for s in oracles.naive_subtrees(t)]

    def test_trees_of_four_vertices(self):
        self.assert_matches(enumerate_trees_by_vertices(4, 3))

    def test_trees_of_seven_edges(self):
        self.assert_matches(enumerate_trees(7, 3))

    def test_reduced_corollas(self):
        self.assert_matches(reduced_corolla(n) for n in range(8))


def _stump_chain(depth):
    """`depth` nested vertices: a stump under depth - 1 unary vertices."""
    return linear_tree(depth - 1, closed=True)


class TestExtendedCorollaMatchesCollapse:
    """`is_extended_corolla` reads the chain of `shorten`; the reference
    collapses unary vertices until it meets the reduced corolla.  Flags and
    chains agree for n = 0..4, and `classify`, which shortens once for all
    n, lists the reference's extended corollas and chain lengths."""

    @staticmethod
    def assert_matches(trees):
        for t in trees:
            want = {n: oracles.naive_is_extended_corolla(t, n) for n in range(5)}
            for n in range(5):
                flag, chain = is_extended_corolla(t, n)
                assert flag == want[n][0]
                if flag:
                    assert [m.to_json() for m in chain] == [m.to_json() for m in want[n][1]]
                else:
                    assert chain is None is want[n][1]
            report = classify(t)
            assert report["min_omega_level"] < 5
            assert report["extended_corolla"] == [
                {"n": n, "chain_length": len(want[n][1])}
                for n in range(report["min_omega_level"] + 1)
                if want[n][0]
            ]

    def test_trees_of_eight_edges(self):
        self.assert_matches(enumerate_trees(8, 3))

    def test_stump_chains(self):
        self.assert_matches(_stump_chain(d) for d in range(1, 65))

    def test_stump_chain_at_max_depth(self):
        self.assert_matches([_stump_chain(MAX_TREE_DEPTH)])


class TestClassify:
    def test_level_membership(self):
        t3 = reduced_corolla(3)
        level = classify(t3)["min_omega_level"]
        assert oracles.in_omega_level(t3, level)
        assert not oracles.in_omega_level(t3, level - 1)
        assert is_reduced(t3)

    def test_single_edge_not_reduced(self):
        assert not is_reduced(leaf_tree())
        assert is_reduced(parse_tree("()"))

    def test_reduced_corolla_predicate(self):
        assert is_reduced_corolla(parse_tree("(()())"), 2)
        assert not is_reduced_corolla(parse_tree("(()())"), 3)

    def test_extended_corolla_with_one_unary(self):
        t = parse_tree("(()()(()))")  # one unary vertex over a branch
        flag, chain = is_extended_corolla(t, 3)
        assert flag and len(chain) == 1
        assert chain[0].target == reduced_corolla(3)

    def test_extended_corolla_itself(self):
        flag, chain = is_extended_corolla(reduced_corolla(4), 4)
        assert flag and chain == []

    def test_extended_one_corollas_are_linear(self):
        assert is_extended_corolla(linear_tree(1, closed=True), 1)[0]
        assert is_extended_corolla(linear_tree(3, closed=True), 1)[0]
        assert not is_extended_corolla(parse_tree("()"), 1)[0]
        assert not is_extended_corolla(reduced_corolla(2), 1)[0]

    def test_not_extended_when_not_reduced(self):
        assert not is_extended_corolla(corolla(3), 3)[0]

    def test_shorten(self):
        t = parse_tree("(((())))")
        short, chain = shorten(t)
        assert short == parse_tree("()")
        assert len(chain) == 3
        again, chain2 = shorten(short)
        assert again == short and chain2 == []

    def test_shorten_extended_corolla(self):
        t = parse_tree("(()()((())))")
        short, chain = shorten(t)
        assert short == reduced_corolla(3)
        assert len(chain) == 2

    def test_classify_report(self):
        report = classify(reduced_corolla(3))
        assert report["is_reduced"] is True
        assert report["reduced_corolla"] == 3
        assert report["min_omega_level"] == 3
