import collections
import itertools
import json
import math
import tracemalloc

import numpy as np
import oracles
import pytest

from dendrokit.dendroidal import (
    _BLOCKS_KEPT,
    TableDendroidalSet,
    _core_count,
    _corolla_boundary,
    _first_repeat,
    _grafting,
    _restriction_plan,
    _segal_failure,
    _segal_shape,
    _value_columns,
    carrier_closure,
    edge_inclusion,
    is_strict_segal,
    materialize,
    morphism_key,
    nerve,
    nerve_round_trip,
    reconstruct_operad,
    subcorolla_inclusion,
    verify_operad_isomorphism,
)
from dendrokit.errors import BudgetExceeded, DendroError, DomainError
from dendrokit.fixtures import load_dendroidal, load_operad
from dendrokit.morphisms import OmegaMorphism, elementary_faces, hom_set
from dendrokit.operads import (
    Signature,
    ass_operad,
    com_operad,
    composition_instances,
    end_operad,
    free_operad,
    omega_operad,
    one_binary_generator,
)
from dendrokit.trees import (
    Tree,
    corolla,
    enumerate_trees_by_vertices,
    leaf_tree,
    parse_tree,
)


class TestNerveValues:
    def test_terminal_operad_singletons(self):
        X = nerve(com_operad())
        for term in ["*", "(**)", "((**)(**))", "(()())"]:
            assert len(X.values(parse_tree(term))) == 1

    def test_linear_orders_at_corollas(self):
        X = nerve(ass_operad(4))
        for n in range(5):
            import math

            assert len(X.values(corolla(n))) == math.factorial(n)

    def test_function_operad_at_binary_corolla(self):
        X = nerve(end_operad((0, 1), 2))
        assert len(X.values(corolla(2))) == 16

    def test_colored_values_count_tree_maps(self):
        # maps of tree operads are exactly tree morphisms, so the nerve of a
        # tree's operad counts hom sets
        T = parse_tree("(*(**))")
        X = nerve(omega_operad(T))
        for term in ["*", "(**)", "(*(**))"]:
            S = parse_tree(term)
            assert len(X.values(S)) == len(hom_set(S, T))

    def test_arity_bound_enforced(self):
        X = nerve(end_operad((0, 1), 2))
        with pytest.raises(DomainError):
            X.values(corolla(3))


VIEW_CASES = {
    "com": (com_operad, (3, 3)),
    "ass": (lambda: ass_operad(4), (3, 3)),
    "free-binary": (lambda: free_operad(one_binary_generator(), 4), (3, 3)),
    "end01": (lambda: end_operad((0, 1), 2), (4, 2)),
}


class TestNerveValueView:
    """`values(t)` as a sequence view, against the tuple built from the
    same value blocks."""

    @pytest.mark.parametrize("case", sorted(VIEW_CASES))
    def test_matches_the_tuple(self, case):
        make, (v, k) = VIEW_CASES[case]
        X = nerve(make())
        carrier = enumerate_trees_by_vertices(v, k)
        assert any(not t.vertices for t in carrier)
        for t in carrier:
            view, expected = X.values(t), oracles.tuple_nerve_values(X, t)
            assert tuple(view) == expected
            assert len(view) == len(expected)
            assert [view[i] for i in range(len(view))] == list(expected)
            if expected:
                assert view[-1] == expected[-1]
            assert view[1::3] == expected[1::3]
            assert view[-3:] == expected[-3:]
            assert view == expected and expected == view
            assert not (view != expected or expected != view)
            with pytest.raises(IndexError):
                view[len(view)]
            with pytest.raises(IndexError):
                view[-len(view) - 1]

    def test_unequal_and_short_repr(self):
        X = nerve(ass_operad(4))
        t = parse_tree("(*(**))")
        view = X.values(t)
        expected = oracles.tuple_nerve_values(X, t)
        assert view != expected[:-1] and expected[:-1] != view
        assert view != expected[::-1] and view != list(expected)
        assert view == X.values(t) and view != X.values(corolla(2))
        assert repr(view) == "<nerve values at (*(**)): 4 in 1 blocks>"

    def test_errors_raise_when_called(self):
        with pytest.raises(DomainError):
            nerve(end_operad((0, 1), 2)).values(corolla(3))
        with pytest.raises(BudgetExceeded) as err:
            nerve(ass_operad(4), budget=1000).values(parse_tree("((****)(****))"))
        detail = err.value.detail
        assert (detail["operation"], detail["estimate"]) == ("nerve values", 1152)

    def test_large_tree_held_as_blocks(self):
        # 24^4 values; the tuple of them peaks near 48 MB
        tracemalloc.start()
        try:
            n = len(nerve(ass_operad(4)).values(parse_tree("(*(****)(****)(****))")))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n == 331_776
        assert peak < 2**20


def test_per_tree_state_stays_bounded():
    # restricting along every elementary face of the (4, 4) trees meets
    # 439 trees; no dict of the nerve keyed by tree may hold them all
    X = nerve(com_operad())
    for t in enumerate_trees_by_vertices(4, 4):
        for face in elementary_faces(t):
            X.restrict_index(face.morphism)
    per_tree = [
        d for d in vars(X).values() if isinstance(d, dict) and d and all(isinstance(k, Tree) for k in d)
    ]
    assert per_tree
    assert [len(d) for d in per_tree if len(d) > _BLOCKS_KEPT] == []


def restriction_of(X, m):
    """`X.restrict_index(m)` as a function on the values at the target."""
    r = X.restrict_index(m)
    position = {}
    for i, x in enumerate(X.values(m.target)):
        position.setdefault(x, i)
    source = X.values(m.source) if r.size else ()
    return lambda x: r.decode(int(r.index[position[x]]), source)


class TestRestriction:
    def test_precomposition_matches_hom_composition(self):
        # for tree-operad nerves the action is composition of tree maps
        T = parse_tree("(*(**))")
        X = nerve(omega_operad(T))
        S, U = corolla(2), parse_tree("(*(**))")
        for m in hom_set(S, U):
            act = restriction_of(X, m)
            for f in hom_set(U, T):
                colors = tuple(f(e) for e in U.edges)
                decs = tuple(
                    ((tuple(f(c) for c in U.children(v))), f(v)) for v in U.vertices
                )
                restricted = act((colors, decs))
                composite = m.then(f)
                assert restricted[0] == tuple(composite(e) for e in S.edges)

    def test_functoriality_on_composites(self):
        X = nerve(ass_operad(4))
        A, B, C = corolla(2), parse_tree("(*(**))"), parse_tree("(*(**))")
        for f in hom_set(A, B):
            for g in hom_set(B, C):
                left = restriction_of(X, f.then(g))
                right_g = restriction_of(X, g)
                right_f = restriction_of(X, f)
                for x in X.values(C):
                    assert left(x) == right_f(right_g(x))

    def test_each_value_raises_its_own_error(self):
        # two missing entries fail two rows of one composition: each value
        # reports the error of its own failed call
        P = load_operad("ass.operad.json")
        keys = [k for k in P.composition_keys() if tuple(len(s[0]) for s in k[3]) == (1, 2)]
        for key in keys[:2]:
            del P._comp[key]
        mismatches, kinds = compare_restrictions(P, enumerate_trees_by_vertices(2, 3))
        assert mismatches == []
        assert kinds["missing composition table entry"] > 1

    def test_equal_maps_restrict_alike(self):
        # plans are kept per map, whatever the operad: a map rebuilt from
        # separately parsed trees restricts as the first did, with the plans
        # compiled afresh, kept from another operad's nerve, or kept from it
        carrier = enumerate_trees_by_vertices(3, 2)
        maps = [m for s in carrier for t in carrier for m in hom_set(s, t)]
        twins = [
            OmegaMorphism(parse_tree(m.source.term), parse_tree(m.target.term), m.map)
            for m in maps
        ]

        def restrictions(P, along):
            X = nerve(P)
            return [
                (r.index.tolist(), r.size, r.outside, [e.payload() for e in r.errors])
                for r in map(X.restrict_index, along)
            ]

        _restriction_plan.cache_clear()
        fresh = restrictions(end_operad((0, 1), 2), maps)
        _restriction_plan.cache_clear()
        restrictions(com_operad(), maps)
        assert restrictions(end_operad((0, 1), 2), twins) == fresh
        assert restrictions(end_operad((0, 1), 2), maps) == fresh


class TestSegalCore:
    def test_terminal_core_is_a_point(self):
        X = nerve(com_operad())
        for term in ["(**)", "((**)*)", "(()())"]:
            assert len(oracles.segal_core_hom(X, parse_tree(term))) == 1

    def test_corolla_core_is_the_value_set(self):
        X = nerve(ass_operad(4))
        for n in (2, 3):
            t = corolla(n)
            assert len(oracles.segal_core_hom(X, t)) == len(X.values(t))

    def test_grafted_binary_core_count(self):
        # frozen by brute force: families are pairs of binary orders
        X = nerve(ass_operad(4))
        assert len(oracles.segal_core_hom(X, parse_tree("((**)*)"))) == 4

    def test_single_edge_core(self):
        X = nerve(ass_operad(4))
        assert len(oracles.segal_core_hom(X, leaf_tree())) == 1

    def test_naturality_squares(self):
        # restriction along any morphism commutes with taking core components
        X = nerve(ass_operad(4))
        S, T = corolla(2), parse_tree("(*(**))")
        for m in hom_set(S, T):
            act = restriction_of(X, m)
            for x in X.values(T):
                restricted = act(x)
                for v in S.vertices:
                    sub = subcorolla_inclusion(S, v)
                    direct = restriction_of(X, sub.then(m))(x)
                    via = restriction_of(X, sub)(restricted)
                    assert direct == via


class TestStrictSegal:
    def test_nerves_pass_small(self):
        carrier = enumerate_trees_by_vertices(3, 3)
        for P in [com_operad(), ass_operad(4), free_operad(one_binary_generator(), 4)]:
            report = is_strict_segal(nerve(P), carrier)
            assert report.passed, report.failures

    def test_vacuous_on_single_edge_carrier(self):
        report = is_strict_segal(nerve(com_operad()), [leaf_tree()])
        assert report.passed and report.checked == ["*"]

    def test_constructed_counterexample_fails(self):
        # empty binary values but a nonempty value at the grafted tree: the
        # core is empty there, so the Segal comparison cannot be a bijection
        top = parse_tree("(*(**))")
        trees = [leaf_tree(), corolla(2), top]
        values = {leaf_tree(): ("c",), corolla(2): (), top: ("z",)}
        X = TableDendroidalSet(trees, values, {}, name="broken")
        report = is_strict_segal(X)
        assert not report.passed
        assert any(f["tree"] == top.term for f in report.failures)

    def test_dropped_element_reported_at_tree(self):
        top = parse_tree("(*(**))")
        carrier = carrier_closure([top])
        X = materialize(nerve(ass_operad(4)), carrier)
        values = dict(X._values)
        values[top] = values[top][1:]
        actions = {
            key: {k: v for k, v in table.items() if k in sum(map(tuple, values.values()), ())}
            for key, table in X._actions.items()
        }
        broken = TableDendroidalSet(X.trees, values, actions, name="broken")
        report = is_strict_segal(broken)
        assert not report.passed
        failing = {f["tree"] for f in report.failures}
        assert top.term in failing


def two_level_table(top_values, at_root, at_top):
    """A table set on the one-edge tree, the binary corolla and (*(**)).
    The edge values are "a" and "b"; the corolla value "p" restricts to "a"
    on every edge and "q" to "b".  `at_root` and `at_top` send each value at
    (*(**)) to its restriction to the root and the top subcorolla."""
    eta, c2, top = leaf_tree(), corolla(2), parse_tree("(*(**))")
    actions = {
        morphism_key(edge_inclusion(c2, e)): {"p": "a", "q": "b"} for e in c2.edges
    }
    actions[morphism_key(subcorolla_inclusion(top, ()))] = dict(at_root)
    actions[morphism_key(subcorolla_inclusion(top, (1,)))] = dict(at_top)
    values = {eta: ("a", "b"), c2: ("p", "q"), top: tuple(top_values)}
    return TableDendroidalSet([eta, c2, top], values, actions, name="two-level")


SEGAL_CASES = {
    "com": lambda: (nerve(com_operad()), enumerate_trees_by_vertices(3, 3)),
    "ass": lambda: (nerve(ass_operad(4)), enumerate_trees_by_vertices(3, 3)),
    "free": lambda: (
        nerve(free_operad(one_binary_generator(), 4)),
        enumerate_trees_by_vertices(3, 3),
    ),
    "end01": lambda: (nerve(end_operad((0, 1), 2)), enumerate_trees_by_vertices(3, 2)),
    "corrupted": lambda: (load_dendroidal("corrupted.dendroidal.json"), None),
    # the first failing value decides the reason: a repeat at "w" comes
    # before "u" leaves the core, and the other way round
    "not-injective": lambda: (
        two_level_table(
            ("z", "w", "u"), {"z": "p", "w": "p", "u": "q"}, {"z": "p", "w": "p", "u": "p"}
        ),
        None,
    ),
    "outside-core": lambda: (
        two_level_table(
            ("z", "w", "u"), {"z": "p", "w": "q", "u": "p"}, {"z": "p", "w": "p", "u": "p"}
        ),
        None,
    ),
    "not-surjective": lambda: (two_level_table(("z",), {"z": "p"}, {"z": "p"}), None),
}
EXPECTED_REASONS = {
    "corrupted": ["not surjective"],
    "not-injective": ["not injective"],
    "outside-core": ["image outside core"],
    "not-surjective": ["not surjective"],
}


class TestSegalIndexColumns:
    @pytest.mark.parametrize("case", list(SEGAL_CASES))
    def test_report_matches_tuple_oracle(self, case):
        X, carrier = SEGAL_CASES[case]()
        expected = oracles.tuple_strict_segal(X, carrier).to_json()
        X, carrier = SEGAL_CASES[case]()
        report = is_strict_segal(X, carrier).to_json()
        assert report == expected
        reasons = [f["reason"] for f in report["failures"]]
        assert reasons == EXPECTED_REASONS.get(case, [])

    @pytest.mark.parametrize(
        "factory,carrier",
        [
            (com_operad, (3, 3)),
            (lambda: ass_operad(4), (3, 3)),
            (lambda: free_operad(one_binary_generator(), 4), (3, 3)),
            (lambda: end_operad((0, 1), 2), (3, 2)),
            # one color per edge of the target tree
            (lambda: omega_operad(parse_tree("((**)(**))")), (3, 3)),
        ],
    )
    def test_nerve_columns_match_restriction(self, factory, carrier):
        # each column names, by position, the corolla value that the
        # witness-evaluating reference restricts every value to
        X = nerve(factory())
        boundary = {k: _corolla_boundary(X, k, {}) for k in range(carrier[1] + 1)}
        for t in enumerate_trees_by_vertices(*carrier):
            if not t.vertices:
                continue
            values = X.values(t)
            for v, column in zip(t.vertices, _value_columns(X, t, None)):
                corolla_values = boundary[len(t.children(v))].values
                reference = oracles.witness_restrict(X, subcorolla_inclusion(t, v))
                got = [corolla_values[p] for p in column.tolist()]
                assert got == [reference(x) for x in values]

    def test_restriction_outside_corolla_values_reported(self):
        X = two_level_table(("z",), {"z": "p"}, {"z": "r"})
        failures = is_strict_segal(X).failures
        assert [(f["tree"], f["reason"]) for f in failures] == [
            ("(*(**))", "restriction unavailable")
        ]

    def test_repeat_found_with_and_without_overflowing_keys(self):
        # radices whose product passes 2**63 switch to row-wise np.unique
        columns = [np.array([0, 1, 2, 1, 0]), np.array([5, 1, 2, 1, 5])]
        assert _first_repeat(columns, [3, 6]) == 3
        assert _first_repeat(columns, [2**32, 2**32]) == 3
        assert _first_repeat([c[:3] for c in columns], [2**32, 2**32]) is None

    def test_budget_charges(self):
        carrier = enumerate_trees_by_vertices(4, 4)
        with pytest.raises(BudgetExceeded) as err:
            is_strict_segal(nerve(ass_operad(4)), carrier, budget=1000)
        detail = err.value.detail
        assert (detail["operation"], detail["estimate"]) == ("segal check values", 1152)
        with pytest.raises(BudgetExceeded) as err:
            is_strict_segal(nerve(ass_operad(4), budget=1000), carrier)
        detail = err.value.detail
        assert (detail["operation"], detail["estimate"]) == ("nerve values", 1152)


INDEX_ORACLE_CASES = {
    "com": lambda: (nerve(com_operad()), enumerate_trees_by_vertices(4, 4)),
    "ass": lambda: (nerve(ass_operad(4)), enumerate_trees_by_vertices(4, 4)),
    "free": lambda: (
        nerve(free_operad(one_binary_generator(), 4)),
        enumerate_trees_by_vertices(4, 4),
    ),
    "end01": lambda: (nerve(end_operad((0, 1), 2)), enumerate_trees_by_vertices(4, 2)),
    # one color per edge, so that edges and slots are told apart
    "omega": lambda: (
        nerve(omega_operad(parse_tree("((**)(**))"))),
        enumerate_trees_by_vertices(3, 3),
    ),
    **{case: SEGAL_CASES[case] for case in ("not-injective", "outside-core", "not-surjective")},
}


class TestSegalMatchesIndexOracle:
    """The check's core counts (one dynamic program per tree) and failure records
    (scattered keys, values searched only up to the first leaving the core)
    agree tree by tree with the oracle's, which recount and sort whole."""

    @pytest.mark.parametrize("case", list(INDEX_ORACLE_CASES))
    def test_core_counts_and_reports(self, case):
        X, carrier = INDEX_ORACLE_CASES[case]()
        carrier = carrier or X.trees
        boundary, strays, failures = {}, {}, []
        for t in carrier:
            if not t.vertices:
                continue
            for k in set(len(t.children(v)) for v in t.vertices):
                if k not in boundary:
                    boundary[k] = _corolla_boundary(X, k, strays)
            counted = _core_count(_segal_shape(t), boundary)
            assert counted == oracles.index_core_count(t, boundary)
            columns = _value_columns(X, t, None)
            expected = oracles.index_segal_failure(t, columns, boundary)
            assert _segal_failure(t, columns, boundary) == expected
            failures += [expected] if expected else []
        assert is_strict_segal(X, carrier).failures == failures
        assert bool(failures) == (case in EXPECTED_REASONS)

    @pytest.mark.parametrize("seed", range(8))
    def test_first_repeat_matches_sorting_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for n in (0, 1, 2, 3, 17, 200):
            for radices in ([3], [2, 3, 4], [5, 1, 7], [40, 50, 60], [2**32, 2**32]):
                space = math.prod(radices)
                if space >= n:  # distinct rows, then one row made to repeat
                    keys = rng.choice(min(space, 2**40), size=n, replace=False)
                else:
                    keys = rng.integers(0, space, size=n)
                rows = np.zeros((n, len(radices)), dtype=np.int64)
                for i, key in enumerate(keys.tolist()):
                    for j in reversed(range(len(radices))):
                        key, rows[i, j] = divmod(key, radices[j])
                cases = [rows]
                if n > 2:
                    twice = rows.copy()
                    i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
                    twice[j] = twice[i]
                    cases.append(twice)
                for case in cases:
                    columns = [np.ascontiguousarray(case[:, i]) for i in range(len(radices))]
                    expected = oracles.sorting_first_repeat(columns, radices)
                    assert _first_repeat(columns, radices) == expected


class TestTableSets:
    def test_materialized_nerve_matches(self):
        carrier = carrier_closure([parse_tree("(*(**))")])
        X = nerve(ass_operad(4))
        table = materialize(X, carrier)
        for t in table.trees:
            assert table.values(t) == X.values(t)
        report = is_strict_segal(table)
        assert report.passed

    def test_degeneracy_sections_compose_to_identity(self):
        carrier = carrier_closure([corolla(1), parse_tree("((*))")])
        table = materialize(nerve(ass_operad(4)), carrier)
        from dendrokit.morphisms import degeneracies, elementary_faces

        for t in table.trees:
            for sigma in degeneracies(t):
                act_sigma = restriction_of(table, sigma)
                for face in elementary_faces(t):
                    if face.morphism.source != sigma.target:
                        continue
                    if face.morphism.then(sigma) != OmegaMorphism.identity(sigma.target):
                        continue
                    act_face = restriction_of(table, face.morphism)
                    for x in table.values(sigma.target):
                        assert act_face(act_sigma(x)) == x

    def test_json_round_trip(self):
        carrier = carrier_closure([parse_tree("(*(**))")])
        table = materialize(nerve(ass_operad(4)), carrier)
        payload = table.to_json()
        back = TableDendroidalSet.from_json(payload)
        report = is_strict_segal(back)
        assert report.passed
        for t, term in zip(back.trees, payload["trees"]):
            assert t.term == term

    def test_derived_action_via_factorization(self):
        carrier = carrier_closure([parse_tree("(*(**))")])
        table = materialize(nerve(ass_operad(4)), carrier)
        X = nerve(ass_operad(4))
        S, T = leaf_tree(), parse_tree("(*(**))")
        for m in hom_set(S, T):
            derived = restriction_of(table, m)
            direct = restriction_of(X, m)
            for x in table.values(T):
                assert derived(x) == direct(x)


def test_grafting_is_laid_out_from_the_arities():
    """The grafted tree and its maps, laid out from the sorted arity tuple,
    against the same built by canonicalizing the raw term."""
    for n in range(6):
        for arities in itertools.product(range(6), repeat=n):
            if sum(arities) <= 5:
                tree, family, total = _grafting(arities)
                want_tree, want_family, want_total = oracles.grafting_by_canonicalization(arities)
                assert tree == want_tree and family == want_family and total == want_total, arities


class TestReconstruction:
    @pytest.mark.parametrize(
        "factory,bound",
        [
            (lambda: com_operad(), 3),
            (lambda: ass_operad(4), 3),
            (lambda: end_operad((0, 1), 2), 2),
            (lambda: free_operad(one_binary_generator(), 4), 3),
            (lambda: omega_operad(parse_tree("(*(**))")), 3),
            (lambda: omega_operad(parse_tree("((**)(**))")), 3),
            (lambda: omega_operad(parse_tree("(()())")), 3),
        ],
    )
    def test_round_trip(self, factory, bound):
        witness = nerve_round_trip(factory(), bound)
        assert witness.ok, witness.failures[:3]
        assert witness.checks > 0
        assert witness.color_map

    def test_reconstructed_identities(self):
        X = nerve(ass_operad(4))
        Q = reconstruct_operad(X, 3)
        for c in Q.colors:
            ident = Q.identity(c)
            assert ident in Q.hom((c,), c)

    def test_reconstruction_from_table_set(self):
        # the carrier needs all corollas and the two-level grafted trees in
        # play: the binary-with-unary graft and the identity's source
        carrier = carrier_closure(
            [corolla(1), corolla(3), parse_tree("((*)(**))"), parse_tree("((**)(**))")]
        )
        table = materialize(nerve(ass_operad(4)), carrier)
        Q = reconstruct_operad(table, 3)
        # compose two binary elements through the grafted tree
        color = Q.colors[0]
        elements = Q.hom((color, color), color)
        assert len(elements) == 2
        idq = Q.identity(color)
        out = Q.compose(
            elements[0],
            Signature((color, color), color),
            [elements[0], idq],
            [Signature((color, color), color), Signature((color,), color)],
        )
        assert out in Q.hom((color, color, color), color)

    def test_nerve_functoriality_terminal_map(self):
        # the terminal operad map induces a transformation of nerves
        # commuting with every carrier action
        A, C = ass_operad(4), com_operad()
        XA, XC = nerve(A), nerve(C)
        carrier = enumerate_trees_by_vertices(2, 3)

        def nu(t, element):
            colors, decs = element
            return (("x",) * len(colors), (C.POINT,) * len(decs))

        for s, t in itertools.product(carrier, repeat=2):
            for m in hom_set(s, t):
                act_a = restriction_of(XA, m)
                act_c = restriction_of(XC, m)
                for x in XA.values(t):
                    assert nu(s, act_a(x)) == act_c(nu(t, x))

    def test_isomorphism_verifier_catches_mismatch(self):
        # transposing two arity-3 elements (and nothing else) is a bijection
        # on every hom-set but does not commute with composition
        A = ass_operad(3)
        Q = reconstruct_operad(nerve(A), 3)
        witness = verify_operad_isomorphism(
            A, Q, nerve_color_map(A), transposing_element_of, 3
        )
        assert not witness.ok
        assert any(f["law"] in {"composition", "symmetry"} for f in witness.failures)


def nerve_color_map(P):
    """Each color of P as the nerve's value at the one-edge tree."""
    return {c: ((c,), ()) for c in P.colors}


def nerve_element_of(sig, el):
    """An element of P as the nerve's value at the corolla of `sig`."""
    tn = corolla(sig.arity)
    coloring = {(): sig.output}
    for i, c in enumerate(sig.inputs):
        coloring[(i,)] = c
    return (tuple(coloring[e] for e in tn.edges), (el,))


def transposing_element_of(sig, el):
    """`nerve_element_of` with the ass elements 012 and 102 swapped."""
    swap = {(0, 1, 2): (1, 0, 2), (1, 0, 2): (0, 1, 2)}
    return nerve_element_of(sig, swap.get(el, el) if sig.arity == 3 else el)


def outside_element_of(sig, el):
    """`nerve_element_of` sending the ass element 10 outside Q's hom-set."""
    return nerve_element_of(sig, "bogus" if el == (1, 0) else el)


def without_symmetry_entry():
    """The bundled ass table without one arity-3 symmetry entry."""
    table = load_operad("ass.operad.json")
    del table._sym[next(k for k in sorted(table._sym, key=str) if len(k[2]) == 3)]
    return table


def bogus_ass_table():
    """The bundled ass table with one binary composite outside its hom-set."""
    table = load_operad("ass.operad.json")
    key = next(k for k in table.composition_keys() if sum(len(s[0]) for s in k[3]) == 2)
    return table.corrupt(key, "bogus")


def against_nerve(P, bound, element_of=nerve_element_of):
    """The arguments checking P against the reconstruction of its nerve."""
    return P, reconstruct_operad(nerve(P), bound), nerve_color_map(P), element_of, bound


def ass_with_a_short_image():
    """ass against itself, with the binary 10 sent to the unary 1: a value
    outside Q's hom-set on which Q composes and acts without raising."""
    A = ass_operad(3)
    return A, ass_operad(3), {"x": "x"}, lambda sig, el: (1,) if el == (1, 0) else el, 3


def ass_against_a_table_without_an_entry():
    """ass against its bundled table with one composition entry dropped:
    Q raises on a cell of its own hom-sets where P composes."""
    Q = load_operad("ass.operad.json")
    del Q._comp[next(k for k in Q.composition_keys() if [len(s[0]) for s in k[3]] == [1, 2])]
    return ass_operad(3), Q, {"x": "x"}, lambda sig, el: "".join(map(str, el)), 3


def ass_against_a_table_without_a_symmetry_entry():
    """As above, with an arity-3 symmetry entry of Q dropped instead."""
    P, _, color_map, element_of, bound = ass_against_a_table_without_an_entry()
    return P, without_symmetry_entry(), color_map, element_of, bound


class TestIsomorphismMatchesOracle:
    """`verify_operad_isomorphism` compares the two operads' tables; the
    oracle composes every instance in both.  Signatures, instance count,
    failures and their order, and errors agree."""

    CASES = {
        "com-3": lambda: against_nerve(com_operad(), 3),
        "ass-3": lambda: against_nerve(ass_operad(4), 3),
        # the tables' arenas grow while the symmetry tables are filled
        "ass-4": lambda: against_nerve(ass_operad(4), 4),
        "end01-2": lambda: against_nerve(end_operad((0, 1), 2), 2),
        "free-binary-3": lambda: against_nerve(free_operad(one_binary_generator(), 4), 3),
        "omega-(*(**))-3": lambda: against_nerve(omega_operad(parse_tree("(*(**))")), 3),
        "omega-((**)(**))-3": lambda: against_nerve(omega_operad(parse_tree("((**)(**))")), 3),
        "omega-(()())-3": lambda: against_nerve(omega_operad(parse_tree("(()())")), 3),
        "ass-3-transposed": lambda: against_nerve(ass_operad(3), 3, transposing_element_of),
        "bogus-table-2": lambda: against_nerve(bogus_ass_table(), 2),
        "bogus-table-3": lambda: against_nerve(bogus_ass_table(), 3),
        "ass-3-image-outside-nerve": lambda: against_nerve(ass_operad(3), 3, outside_element_of),
        "ass-3-short-image": ass_with_a_short_image,
        "no-symmetry-entry-3": lambda: against_nerve(without_symmetry_entry(), 3),
        "q-without-an-entry": ass_against_a_table_without_an_entry,
        "q-without-a-symmetry-entry": ass_against_a_table_without_a_symmetry_entry,
        # Q composes the image of the first element where P leaves its hom
        "bogus-table-against-the-table": lambda: (
            bogus_ass_table(), load_operad("ass.operad.json"), {"x": "x"}, lambda sig, el: el, 3
        ),
    }
    EXPECTED = {
        "ass-3-transposed": ["composition", "symmetry"],
        "bogus-table-2": ["composition"],
        "bogus-table-3": ["composition"],
        "ass-3-image-outside-nerve": "no grafted element restricting to the given family; "
        "the dendroidal set is not strict Segal on the grafted tree",
        "ass-3-short-image": ["composition", "hom-bijection", "symmetry"],
        "no-symmetry-entry-3": "missing symmetry table entry",
        "q-without-an-entry": "missing composition table entry",
        "q-without-a-symmetry-entry": "missing symmetry table entry",
        "bogus-table-against-the-table": ["composition"],
    }

    @staticmethod
    def outcome(verify, case, budget=None):
        """The witness JSON, or the payload of the error that raises."""
        args = TestIsomorphismMatchesOracle.CASES[case]()
        try:
            return verify(*args, budget=budget).to_json()
        except DendroError as err:
            return err.payload()

    @pytest.mark.parametrize("case", list(CASES))
    def test_same_witness(self, case):
        got = self.outcome(verify_operad_isomorphism, case)
        assert got == self.outcome(oracles.naive_operad_isomorphism, case)
        if "error" in got:
            summary = got["error"]
        else:
            summary = "ok" if got["ok"] else sorted({f["law"] for f in got["failures"]})
        assert summary == self.EXPECTED.get(case, "ok")

    def test_round_trip_is_the_witness(self):
        P, bound = end_operad((0, 1), 2), 2
        assert nerve_round_trip(P, bound).to_json() == self.outcome(verify_operad_isomorphism, "end01-2")

    @staticmethod
    def over_budget(verify, P, Q, color_map, element_of, bound, budget):
        """The budget error's payload and the number of Q compositions made
        before it."""
        calls, compose = [0], Q.compose

        def counted(*args):
            calls[0] += 1
            return compose(*args)

        Q.compose = counted
        with pytest.raises(BudgetExceeded) as err:
            verify(P, Q, color_map, element_of, bound, budget=budget)
        return err.value.payload(), calls[0]

    @pytest.mark.parametrize("budget", [5, 1000, 10000])
    def test_budget_same_payload(self, budget):
        # end01 at bound 3 has 1,108,632 composition instances; the grid
        # that crosses the budget is composed only below it, as the oracle
        # composes it
        def run(verify):
            P = end_operad((0, 1), 3)
            Q = reconstruct_operad(nerve(P), 3)
            return self.over_budget(verify, P, Q, nerve_color_map(P), nerve_element_of, 3, budget)

        got, calls = run(verify_operad_isomorphism)
        assert (got, calls) == run(oracles.naive_operad_isomorphism)
        assert calls == max(budget - 5, 0)
        assert got["detail"] == {
            "operation": "isomorphism composition checks",
            # four signatures and one identity are checked first
            "estimate": max(budget, 5) + 1,
            "budget": budget,
        }

    def test_budget_stops_composing_where_the_oracle_does(self):
        # End({0,1,2}) at bound 2 has 2.3e9 composition instances in grids
        # of up to 3^19; P is Q, so each instance below the budget composes
        # twice
        def run(verify):
            E = end_operad((0, 1, 2), 2)
            return self.over_budget(verify, E, E, {"x": "x"}, lambda sig, el: el, 2, 20_000)

        got, calls = run(verify_operad_isomorphism)
        assert (got, calls) == run(oracles.naive_operad_isomorphism)
        assert calls == 2 * (20_000 - 4)
        assert got["detail"]["estimate"] == 20_001

    def test_error_below_the_budget_raises_first(self):
        # the smallest budget that reaches the instance whose compose raises
        case = "q-without-an-entry"
        lo, hi = 0, 400
        while lo < hi:
            mid = (lo + hi) // 2
            payload = self.outcome(oracles.naive_operad_isomorphism, case, budget=mid)
            lo, hi = (lo, mid) if payload["error"] != "budget exceeded" else (mid + 1, hi)
        assert 5 < lo < 400
        for budget in (lo - 1, lo, lo + 1):
            got = self.outcome(verify_operad_isomorphism, case, budget=budget)
            assert got == self.outcome(oracles.naive_operad_isomorphism, case, budget=budget)
            assert got["error"] == ("budget exceeded" if budget < lo else "missing composition table entry")

    def test_missing_composition_entry_same_error(self):
        table = load_operad("ass.operad.json")
        keys = [k for k in table.composition_keys() if len(k[3]) >= 1]
        for key in keys[:: len(keys) // 6]:
            def run(verify):
                P = load_operad("ass.operad.json")
                del P._comp[key]
                Q = reconstruct_operad(nerve(P), 3)
                try:
                    verify(P, Q, nerve_color_map(P), nerve_element_of, 3)
                except DomainError as err:
                    return err.payload()
                return None

            got = run(verify_operad_isomorphism)
            assert got == run(oracles.naive_operad_isomorphism)
            assert got["error"] == "missing composition table entry"


def _outcome(fn, *args):
    """The result of a call, or the message of the DomainError it raises."""
    try:
        return ("value", fn(*args))
    except DomainError as err:
        return ("error", err.message)


def reconstruction_operations(Q, bound):
    """Every hom (in order), identity, composition instance and permutation
    of a reconstructed operad within the bound, as outcomes."""
    out = {}
    for n in range(bound + 1):
        for combo in itertools.product(Q.colors, repeat=n + 1):
            out[("hom", combo)] = _outcome(Q.hom, combo[:n], combo[n])
    for c in Q.colors:
        out[("identity", c)] = _outcome(Q.identity, c)
    sigs = [
        Signature(combo[:-1], combo[-1])
        for (_, combo), (kind, els) in out.items()
        if kind == "value" and els
    ]
    for parent_sig, child_sigs in composition_instances(Q, bound, sigs):
        pools = [Q.hom(s.inputs, s.output) for s in child_sigs]
        for parent in Q.hom(parent_sig.inputs, parent_sig.output):
            for children in itertools.product(*pools):
                key = ("compose", parent_sig, parent, tuple(child_sigs), children)
                out[key] = _outcome(Q.compose, parent, parent_sig, list(children), child_sigs)
    for sig in sigs:
        for perm in itertools.permutations(range(sig.arity)):
            for el in Q.hom(sig.inputs, sig.output):
                out[("sigma", sig, el, perm)] = _outcome(Q.sigma, el, sig, perm)
    return out


def reconstruction_table():
    """The materialized table set of `test_reconstruction_from_table_set`."""
    carrier = carrier_closure(
        [corolla(1), corolla(3), parse_tree("((*)(**))"), parse_tree("((**)(**))")]
    )
    return materialize(nerve(ass_operad(4)), carrier)


def repeated_grafted_value():
    """The ass nerve on ((**)(**)) and its faces, with one more value at
    ((**)(**)) that restricts like the first one along every stored map."""
    top = parse_tree("((**)(**))")
    X = materialize(nerve(ass_operad(4)), carrier_closure([top]))
    values = dict(X._values)
    first = values[top][0]
    values[top] += ("repeat",)
    actions = {}
    for key, table in X._actions.items():
        table = dict(table)
        if first in table:
            table["repeat"] = table[first]
        actions[key] = table
    return TableDendroidalSet(X.trees, values, actions, name="repeat")


RECONSTRUCTION_CASES = {
    "com": lambda: (nerve(com_operad()), 3),
    "ass": lambda: (nerve(ass_operad(4)), 3),
    "end01": lambda: (nerve(end_operad((0, 1), 2)), 2),
    "free": lambda: (nerve(free_operad(one_binary_generator(), 4)), 3),
    "omega": lambda: (nerve(omega_operad(parse_tree("((**)(**))"))), 3),
    "table": lambda: (reconstruction_table(), 3),
}


class TestReconstructionMatchesOracle:
    @pytest.mark.parametrize("case", list(RECONSTRUCTION_CASES))
    def test_operations_match_tuple_oracle(self, case):
        X, bound = RECONSTRUCTION_CASES[case]()
        expected = reconstruction_operations(
            oracles.TupleReconstructedOperad(X, bound), bound
        )
        got = reconstruction_operations(reconstruct_operad(X, bound), bound)
        assert got == expected
        kinds = {key[0] for key, (kind, _) in got.items() if kind == "value"}
        assert kinds == {"hom", "identity", "compose", "sigma"}

    @pytest.mark.parametrize("case", ["not-injective", "outside-core", "not-surjective"])
    def test_two_level_tables_raise_the_same_errors(self, case):
        X, _ = SEGAL_CASES[case]()
        expected = reconstruction_operations(oracles.TupleReconstructedOperad(X, 2), 2)
        got = reconstruction_operations(reconstruct_operad(X, 2), 2)
        assert got == expected
        assert ("error", "missing generator action") in got.values()

    def test_repeated_grafted_value_raises_the_same_error(self):
        X = repeated_grafted_value()
        color = X.values(leaf_tree())[0]
        sig = Signature((color, color), color)
        outcomes = []
        for Q in (oracles.TupleReconstructedOperad(X, 2), reconstruct_operad(X, 2)):
            p = Q.hom(sig.inputs, sig.output)[0]
            outcomes.append(_outcome(Q.compose, p, sig, [p, p], [sig, sig]))
        assert outcomes[0] == outcomes[1] == (
            "error",
            "grafted tree value restricts non-uniquely; "
            "the dendroidal set is not strict Segal",
        )


def _payload_outcome(fn, x):
    """The result of fn(x), or the payload of the DomainError it raises."""
    try:
        return ("value", fn(x))
    except DomainError as err:
        return ("error", err.payload())


def compare_restrictions(P, trees):
    """Restrict every value of the nerve of `P` along every map among
    `trees`, by decoding `restrict_index` and by the witness-evaluating
    oracle.  Returns the (map, value) pairs where the two differ in result
    or error, and the count of each outcome: "value" or an error message."""
    X = nerve(P)
    values = {t: tuple(X.values(t)) for t in trees}
    mismatches, kinds = [], collections.Counter()
    for s, t in itertools.product(trees, repeat=2):
        for m in hom_set(s, t):
            r, reference = X.restrict_index(m), oracles.witness_restrict(X, m)
            for i, x in enumerate(values[t]):
                gathered = _payload_outcome(lambda p: r.decode(p, values[s]), int(r.index[i]))
                outcomes = [gathered, _payload_outcome(reference, x)]
                if outcomes[0] != outcomes[1]:
                    mismatches.append((m.to_json(), x, outcomes))
                kind, result = outcomes[0]
                kinds[result["error"] if kind == "error" else kind] += 1
    return mismatches, kinds


class TestCompiledRestriction:
    """The nerve restriction, run on whole columns, agrees with recursive
    witness evaluation on every value along every map: the same result or
    the same error."""

    @pytest.mark.parametrize(
        "factory,carrier",
        [
            (com_operad, (3, 3)),
            (lambda: ass_operad(4), (3, 3)),
            (lambda: free_operad(one_binary_generator(), 4), (3, 3)),
            (lambda: end_operad((0, 1), 2), (3, 2)),
            (lambda: omega_operad(parse_tree("((**)(**))")), (3, 3)),
        ],
        ids=["com", "ass", "free", "end01", "omega"],
    )
    def test_matches_witness_evaluation(self, factory, carrier):
        mismatches, kinds = compare_restrictions(
            factory(), enumerate_trees_by_vertices(*carrier)
        )
        assert mismatches == []
        assert list(kinds) == ["value"]

    def test_missing_composition_entry_raises_the_same_error(self):
        P = load_operad("ass.operad.json")
        key = next(
            k for k in P.composition_keys() if tuple(len(s[0]) for s in k[3]) == (1, 2)
        )
        del P._comp[key]
        mismatches, kinds = compare_restrictions(P, enumerate_trees_by_vertices(2, 3))
        assert mismatches == []
        assert set(kinds) == {"value", "missing composition table entry"}


def quoted_table():
    """A table set read from JSON whose values contain spaces, quotes and
    parentheses, with actions along the edge inclusions of (**)."""
    eta, c2 = leaf_tree(), corolla(2)
    at_edge = ["a b", "it's", 'say "x"', "(p)", "q)(", "'", ""]
    at_c2 = ["f (a, b)", "g's", '"h"', "(", ")"]
    actions = [
        {
            "morphism": edge_inclusion(c2, e).to_json(),
            "map": {v: at_edge[(i + j) % len(at_edge)] for j, v in enumerate(at_c2)},
        }
        for i, e in enumerate(c2.edges)
    ]
    payload = {
        "trees": [eta.term, c2.term],
        "values": {eta.term: at_edge, c2.term: at_c2},
        "actions": actions,
    }
    return TableDendroidalSet.from_json(payload, name="quoted")


class TestTableJson:
    """`to_json` orders entries as the whole-item oracle does."""

    @pytest.mark.parametrize(
        "factory,carrier",
        [
            (lambda: ass_operad(4), (3, 3)),
            (lambda: end_operad((0, 1), 2), (3, 2)),
            (lambda: omega_operad(parse_tree("((**)(**))")), (3, 3)),
        ],
        ids=["ass", "end01", "omega"],
    )
    def test_materialized_nerve_matches_oracle(self, factory, carrier):
        table = materialize(nerve(factory()), enumerate_trees_by_vertices(*carrier))
        assert json.dumps(table.to_json()) == json.dumps(oracles.table_to_json(table))

    def test_quoted_string_values_match_oracle(self):
        table = quoted_table()
        got = table.to_json()
        assert json.dumps(got) == json.dumps(oracles.table_to_json(table))
        # a string's repr, not its str, orders the entries
        keys = list(got["actions"][0]["map"])
        assert keys == sorted(keys, key=repr) != sorted(keys)
