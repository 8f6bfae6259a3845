import itertools
import random
import subprocess
import sys

import pytest

import oracles
from dendrokit import operads
from dendrokit.errors import BudgetExceeded, DomainError
from dendrokit.fixtures import load_operad
from dendrokit.morphisms import hom_set, operation_exists
from dendrokit.operads import (
    AssOperad,
    Collection,
    Signature,
    TableOperad,
    ass_operad,
    block_permutation,
    check_operad_axioms,
    com_operad,
    end_operad,
    free_operad,
    omega_operad,
    one_binary_generator,
    perm_compose,
    perm_inverse,
)
from dendrokit.trees import enumerate_trees_by_vertices, leaf_tree, parse_tree

SIX_EDGE_EXAMPLE = "(*@e((*@a*@c)@b)@d)@f"


class TestCom:
    def test_every_hom_is_a_point(self):
        P = com_operad()
        for n in range(6):
            assert len(P.hom(("x",) * n, "x")) == 1

    def test_axioms(self):
        assert check_operad_axioms(com_operad(), 3).passed

    def test_single_point_set_is_an_algebra(self):
        # a one-element set receives a unique operad map from anything
        E = end_operad((0,), arity_bound=3)
        P = com_operad()
        for n in range(4):
            assert len(E.hom(("x",) * n, "x")) == 1
            assert len(P.hom(("x",) * n, "x")) == 1


class TestAss:
    def test_hom_is_one_tuple_per_arity(self):
        pools = [ass_operad(bound).hom(("x",) * 3, "x") for bound in (3, 4)]
        assert pools[0] is pools[1]
        assert pools[0] == tuple(itertools.permutations(range(3)))

    def test_sizes(self):
        A = ass_operad(4)
        assert len(A.hom(("x",) * 3, "x")) == 6
        assert len(A.hom(("x",) * 4, "x")) == 24

    def test_axioms_full_bound_four(self):
        report = check_operad_axioms(ass_operad(4), 4)
        assert report.passed, report.violations[:3]
        assert report.checked == 2327883

    def test_free_symmetric_action(self):
        A = ass_operad(4)
        for n in (2, 3):
            sig = Signature(("x",) * n, "x")
            for el in A.hom(sig.inputs, sig.output):
                images = {A.sigma(el, sig, p) for p in itertools.permutations(range(n))}
                assert len(images) == len(list(itertools.permutations(range(n))))

    def test_order_substitution(self):
        A = ass_operad(4)
        f = (1, 0)  # multiply second input then first
        sig = Signature(("x", "x"), "x")
        gsig = Signature(("x", "x"), "x")
        idsig = Signature(("x",), "x")
        out = A.compose(f, sig, [(0, 1), (0,)], [gsig, idsig])
        assert out == (2, 0, 1)


class TestEnd:
    def test_sizes(self):
        E = end_operad((0, 1), 2)
        assert len(E.hom((), "x")) == 2
        assert len(E.hom(("x",), "x")) == 4
        assert len(E.hom(("x", "x"), "x")) == 16

    def test_axioms(self):
        assert check_operad_axioms(end_operad((0, 1), 2), 2).passed

    def test_composition_is_substitution(self):
        E = end_operad((0, 1), 2)
        first = (0, 0, 1, 1)  # projection onto the first argument
        neg = (1, 0)
        sig2 = Signature(("x", "x"), "x")
        sig1 = Signature(("x",), "x")
        out = E.compose(first, sig2, [neg, neg], [sig1, sig1])
        # f(g(a), g(b)) = g(a) = not a
        assert out == tuple(
            oracles.end_evaluate(E, neg, (a,)) for a, b in oracles.end_args(E, 2)
        )

    def test_swapping_changes_nonsymmetric_function(self):
        E = end_operad((0, 1), 2)
        first = (0, 0, 1, 1)
        sig = Signature(("x", "x"), "x")
        swapped = E.sigma(first, sig, (1, 0))
        assert swapped == (0, 1, 0, 1)  # the projection onto the other argument
        assert swapped != first

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            end_operad((0, 1), 6, budget=10**6)


def _substitute(E, parent, children, arities):
    """f(g_1(block 1), ..., g_k(block k)) over every argument tuple, read
    through the substitution reference `oracles.end_evaluate`."""
    out = []
    for args in oracles.end_args(E, sum(arities)):
        mids = []
        pos = 0
        for child, k in zip(children, arities):
            mids.append(oracles.end_evaluate(E, child, args[pos : pos + k]))
            pos += k
        out.append(oracles.end_evaluate(E, parent, tuple(mids)))
    return tuple(out)


class TestEndThreePoints:
    """End({0, 1, 2}) at arity bound 2: composition plans against direct
    substitution for every arity shape, and the permutation plans against
    `oracles.end_evaluate`.  Homs of up to 27 elements are used whole; the 19,683
    binary operations are sampled."""

    E = end_operad((0, 1, 2), 2)
    SAMPLE = 12

    def elements(self, n, rng):
        pool = self.E.hom(("x",) * n, "x")
        return pool if len(pool) <= 27 else rng.sample(pool, self.SAMPLE)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_compose_is_substitution(self, n):
        E = self.E
        rng = random.Random(n)
        shapes = [a for a in itertools.product(range(3), repeat=n) if sum(a) <= 2]
        checked = 0
        for arities in shapes:
            sig = Signature(("x",) * n, "x")
            child_sigs = [Signature(("x",) * k, "x") for k in arities]
            pools = [self.elements(k, rng) for k in arities]
            for parent in self.elements(n, rng):
                for children in itertools.product(*pools):
                    got = E.compose(parent, sig, list(children), child_sigs)
                    assert got == _substitute(E, parent, children, arities)
                    checked += 1
        assert checked > 0

    def test_sigma_is_argument_permutation(self):
        E = self.E
        for n in (0, 1, 2):
            sig = Signature(("x",) * n, "x")
            for perm in itertools.permutations(range(n)):
                inv = perm_inverse(perm)
                for el in E.hom(sig.inputs, sig.output):
                    expected = tuple(
                        oracles.end_evaluate(E, el, tuple(args[inv[j]] for j in range(n)))
                        for args in oracles.end_args(E, n)
                    )
                    assert E.sigma(el, sig, perm) == expected


def _corrupted(table):
    """The table with its first composition entry that has another possible
    value replaced by that value."""
    for key in table.composition_keys():
        parent, (p_in, p_out), children, child_sigs = key
        value = table._comp[key]
        inputs = tuple(c for s in child_sigs for c in s[0])
        others = [e for e in table.hom(inputs, p_out) if e != value]
        if others:
            return table.corrupt(key, others[0])
    raise AssertionError("no composition entry can be corrupted")


class _OutsideAss(AssOperad):
    """Ass with one composite replaced by a value outside its hom-set that
    later compositions still accept without raising."""

    def compose(self, parent, parent_sig, children, child_sigs):
        value = super().compose(parent, parent_sig, children, child_sigs)
        return (0, 0, 0) if value == (2, 1, 0) else value


def _without_entry(table, key):
    comp = dict(table._comp)
    del comp[key]
    return TableOperad(
        table.colors, table._homs, table._identities, comp, table._sym,
        arity_bound=table.arity_bound, name=table.name,
    )


def _with_entries(table, comp=(), sym=(), drop_sym=()):
    """Copy of the table with composition and symmetry entries replaced
    (``comp``, ``sym``: key/value pairs) and symmetry entries removed."""
    comp_table, sym_table = dict(table._comp), dict(table._sym)
    comp_table.update(comp)
    sym_table.update(sym)
    for key in drop_sym:
        del sym_table[key]
    return TableOperad(
        table.colors, table._homs, table._identities, comp_table, sym_table,
        arity_bound=table.arity_bound, name=table.name,
    )


def _outcome(check, P, bound):
    """The report of an axiom check, or the payload of the error it raises."""
    try:
        return check(P, bound).to_json()
    except DomainError as err:
        return err.payload()


class TestCheckerMatchesOracle:
    """`check_operad_axioms` reports exactly what the per-instance oracle
    reports: instance count, violations and their order."""

    CASES = {
        "com-3": lambda: (com_operad(), 3),
        "ass-3": lambda: (ass_operad(4), 3),
        "free-binary-4": lambda: (free_operad(one_binary_generator(), 4), 4),
        "end01-2": lambda: (end_operad((0, 1), 2), 2),
        "end012-1": lambda: (end_operad((0, 1, 2), 2), 1),
        "table-com-3": lambda: (load_operad("com.operad.json"), 3),
        "table-ass-3": lambda: (load_operad("ass.operad.json"), 3),
        "table-end01-2": lambda: (load_operad("end01.operad.json"), 2),
        "corrupted-ass-3": lambda: (_corrupted(load_operad("ass.operad.json")), 3),
        "corrupted-end01-2": lambda: (_corrupted(load_operad("end01.operad.json")), 2),
        "corrupted-outside-ass-3": lambda: (_OutsideAss(4), 3),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_report(self, case):
        P, bound = self.CASES[case]()
        got = check_operad_axioms(P, bound).to_json()
        assert got == oracles.naive_operad_axioms(P, bound).to_json()
        assert got["passed"] == (not case.startswith("corrupted"))

    def test_missing_entry_same_error(self):
        table = load_operad("ass.operad.json")
        # a spread of entries: some are first needed by the unit laws, the
        # others inside the associativity loop
        keys = [
            k for k in table.composition_keys()
            if [len(s[0]) for s in k[3]] in ([1, 1], [2, 1], [1, 2], [0, 2])
        ]
        assert len(keys) > 10
        for key in keys[:: len(keys) // 8]:
            broken = _without_entry(table, key)
            with pytest.raises(DomainError) as got:
                check_operad_axioms(broken, 3)
            with pytest.raises(DomainError) as want:
                oracles.naive_operad_axioms(broken, 3)
            assert got.value.payload() == want.value.payload()

    def test_corrupted_symmetry_entry(self):
        table = load_operad("ass.operad.json")
        key = next(k for k in sorted(table._sym, key=str) if len(k[2]) == 3 and k[2] != (0, 1, 2))
        wrong = next(e for e in table.hom(*key[1]) if e != table._sym[key])
        broken = _with_entries(table, sym={key: wrong})
        got = check_operad_axioms(broken, 3).to_json()
        assert got == oracles.naive_operad_axioms(broken, 3).to_json()
        assert {v["law"] for v in got["violations"]} >= {"sigma-functoriality", "parent-equivariance"}

    def test_corrupted_nullary_symmetry_entry(self):
        # acting on a nullary operation by the empty permutation and
        # composing it with no children are different calls
        table = load_operad("ass.operad.json")
        key = next(k for k in table._sym if k[2] == ())
        broken = _with_entries(table, sym={key: "bogus"})
        got = _outcome(check_operad_axioms, broken, 3)
        assert got == _outcome(oracles.naive_operad_axioms, broken, 3)
        assert "bogus" in str(got)

    def test_missing_symmetry_entry(self):
        table = load_operad("ass.operad.json")
        # every entry of arity two or more is read by the functoriality law
        keys = [k for k in sorted(table._sym, key=str) if len(k[2]) >= 2]
        for key in keys[::5]:
            broken = _with_entries(table, drop_sym=[key])
            with pytest.raises(DomainError) as got:
                check_operad_axioms(broken, 3)
            with pytest.raises(DomainError) as want:
                oracles.naive_operad_axioms(broken, 3)
            assert got.value.payload() == want.value.payload()
            assert got.value.message == "missing symmetry table entry"

    def test_violations_of_two_combos_interleave(self):
        # two corrupted composites of the binary operation "01": one with a
        # binary second child, one with a binary first child.  Each (f, gs)
        # of the instance (x,x;x) o [(x;x), (x,x;x)] meets them in several
        # grandchild signature combos, so the violations of one combo are
        # interleaved with those of the others.
        table = load_operad("ass.operad.json")
        keys = [
            next(k for k in table.composition_keys()
                 if k[0] == "01" and [len(s[0]) for s in k[3]] == arities)
            for arities in ([1, 2], [2, 1])
        ]
        comp = {k: next(e for e in table.hom(("x",) * 3, "x") if e != table._comp[k]) for k in keys}
        broken = _with_entries(table, comp=comp)
        got = check_operad_axioms(broken, 3).to_json()
        assert got == oracles.naive_operad_axioms(broken, 3).to_json()
        combos = [
            tuple(len(h) for h in v["instance"]["hs"])
            for v in got["violations"]
            if v["law"] == "associativity" and v["instance"]["children"] == ["(x;x)", "(x,x;x)"]
        ]
        runs = [c for i, c in enumerate(combos) if i == 0 or combos[i - 1] != c]
        assert len(set(runs)) > 1 and len(runs) > len(set(runs))

    @pytest.mark.parametrize("arities", [[1, 1], [2, 1], [1, 1, 1]])
    def test_composite_outside_its_hom(self, arities):
        table = load_operad("ass.operad.json")
        key = next(k for k in table.composition_keys() if [len(s[0]) for s in k[3]] == arities)
        broken = _with_entries(table, comp={key: "bogus"})
        got = _outcome(check_operad_axioms, broken, 3)
        assert got == _outcome(oracles.naive_operad_axioms, broken, 3)
        assert "bogus" in str(got)

    @pytest.mark.parametrize("budget", [5, 1000, 10000])
    def test_budget_same_estimate(self, budget):
        with pytest.raises(BudgetExceeded) as got:
            check_operad_axioms(ass_operad(4), 3, budget=budget)
        with pytest.raises(BudgetExceeded) as want:
            oracles.naive_operad_axioms(ass_operad(4), 3, budget=budget)
        assert got.value.payload() == want.value.payload()
        assert got.value.detail["operation"] == "associativity instances"
        assert got.value.detail["estimate"] == budget + 1

    def test_budget_from_environment(self, monkeypatch):
        monkeypatch.setenv("DENDRO_BUDGET", "500")
        with pytest.raises(BudgetExceeded) as got:
            check_operad_axioms(load_operad("ass.operad.json"), 3)
        assert got.value.detail == {
            "operation": "associativity instances", "estimate": 501, "budget": 500,
        }


def test_import_leaves_numpy_unloaded():
    # the axiom checker imports numpy when it runs, not when the module loads
    code = "import sys, dendrokit.operads; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


class TestTreeOperad:
    def test_six_colors(self):
        W = omega_operad(parse_tree(SIX_EDGE_EXAMPLE))
        assert len(W.colors) == 6

    def test_six_nonidentity_signatures(self):
        W = omega_operad(parse_tree(SIX_EDGE_EXAMPLE))
        assert len(W.non_identity_input_sets()) == 6

    def test_single_edge_only_identity(self):
        W = omega_operad(leaf_tree())
        assert len(W.colors) == 1
        sigs = W.nonempty_signatures(3)
        assert [s.arity for s in sigs] == [1]

    def test_hom_at_most_one(self):
        for term in ["(*(**))", "(()())", SIX_EDGE_EXAMPLE]:
            t = parse_tree(term)
            W = omega_operad(t)
            for out in t.edges:
                for r in range(3):
                    for ins in itertools.permutations(t.edges, r):
                        assert len(W.hom(ins, out)) <= 1

    def test_arity_one_endo_is_identity_only(self):
        t = parse_tree("(*(**))")
        W = omega_operad(t)
        for e in t.edges:
            assert W.hom((e,), e) == ((((e,), e)),)

    def test_axioms(self):
        W = omega_operad(parse_tree("(*(**))"))
        assert check_operad_axioms(W, 3).passed

    def test_hom_set_matches_operad_map_count(self):
        # morphism counts from the tree category equal independent counts of
        # operad maps between the generated operads (colors + generators)
        trees = enumerate_trees_by_vertices(2, 2)
        for s, t in itertools.product(trees, repeat=2):
            expected = len(oracles.brute_force_morphisms(s, t))
            assert len(hom_set(s, t)) == expected


class TestEvalWitness:
    def test_matches_direct_composition(self):
        t = parse_tree(SIX_EDGE_EXAMPLE)
        at = {label: addr for addr, label in t.labels.items()}
        w = operation_exists(t, at["f"], (at["a"], at["c"], at["e"]))
        A = ass_operad(4)
        colors = {e: "x" for e in t.edges}
        decs = {}
        for v in t.vertices:
            k = len(t.children(v))
            decs[v] = tuple(range(k))  # the order-preserving element
        el, sig = oracles.eval_witness(w, t, colors, decs, A)
        assert sig.arity == 3
        assert el in A.hom(("x",) * 3, "x")


def swap_action(n, perm, el):
    """Swapping the inputs of a binary generator swaps "a" and "b"."""
    if n == 2 and perm == (1, 0):
        return {"a": "b", "b": "a"}[el]
    return el


FREE_CASES = {
    "binary": one_binary_generator,
    "binary-ternary": lambda: Collection(levels={2: ("m",), 3: ("w",)}),
    "swap": lambda: Collection(levels={2: ("a", "b")}, action=swap_action),
}


def free_sig(F, n):
    return Signature(F.colors * n, F.colors[0])


def free_grid(F, bound):
    """Every (parent, its signature, children, their signatures) composable
    within `bound`."""
    for n in range(1, bound + 1):
        for arities in itertools.product(range(1, bound + 1), repeat=n):
            if sum(arities) > bound:
                continue
            pools = [F.level(k) for k in arities]
            for parent in F.level(n):
                for children in itertools.product(*pools):
                    yield parent, free_sig(F, n), list(children), [free_sig(F, k) for k in arities]


class TestFreeCanonical:
    """The one-pass normal form against the recursive one."""

    def check(self, F, bound, memo_bound):
        sizes = []
        for n in range(1, bound + 1):
            for el in F.level(n):
                for perm in itertools.permutations(range(n)):
                    got = F.sigma(el, free_sig(F, n), perm)
                    assert got == oracles.recursive_sigma(F, el, perm)
                    sizes.append(len(F._canonical_memo))
        for parent, parent_sig, children, child_sigs in free_grid(F, bound):
            got = F.compose(parent, parent_sig, children, child_sigs)
            assert got == oracles.recursive_compose(F, parent, children, child_sigs)
            sizes.append(len(F._canonical_memo))
        assert max(sizes) <= memo_bound
        return sizes

    @pytest.mark.parametrize("case", sorted(FREE_CASES))
    def test_matches_the_recursive_normal_form(self, case):
        F = free_operad(FREE_CASES[case](), 4)
        for n in range(1, 5):
            assert all(oracles.recursive_canonical(F, el) == el for el in F.level(n))
            texts = [F.element_str(el) for el in F.level(n)]
            assert texts == [oracles.term_serialize(el) for el in F.level(n)] == sorted(texts)
        self.check(F, 4, operads._CANONICAL_KEPT)

    @pytest.mark.parametrize("case", sorted(FREE_CASES))
    def test_memo_is_emptied_at_its_bound(self, case, monkeypatch):
        monkeypatch.setattr(operads, "_CANONICAL_KEPT", 16)
        F = free_operad(FREE_CASES[case](), 4)
        sizes = self.check(F, 4, 16)
        assert max(sizes) == 16 and any(b < a for a, b in zip(sizes, sizes[1:]))


class TestFreeOperad:
    def test_binary_counts(self):
        F = free_operad(one_binary_generator(), 5)
        got = {n: len(F.level(n)) for n in (2, 3, 4, 5)}
        expected = {
            n: oracles.leaf_labelled_tree_count(n, {2}) for n in (2, 3, 4, 5)
        }
        assert got == expected == {2: 1, 3: 3, 4: 15, 5: 105}

    def test_ternary_level_five(self):
        F = free_operad(Collection(levels={3: ("w",)}), 5)
        assert len(F.level(5)) == oracles.leaf_labelled_tree_count(5, {3}) == 10

    def test_empty_collection_only_identities(self):
        F = free_operad(Collection(levels={}), 4)
        assert {n: len(F.level(n)) for n in F._levels} == {1: 1}
        assert F.level(1) == (("leaf", 0),)

    def test_budget_charges_the_element_count(self):
        # 1 + 1 + 3 + 15 + 105 elements up to arity 5, counted as they appear
        F = free_operad(one_binary_generator(), 5, budget=125)
        assert sum(len(v) for v in F._levels.values()) == 125
        with pytest.raises(BudgetExceeded) as err:
            free_operad(one_binary_generator(), 5, budget=124)
        assert err.value.detail["operation"] == "free operad elements"

    def test_forbidden_low_arities(self):
        with pytest.raises(DomainError):
            free_operad(Collection(levels={1: ("u",)}), 3)

    def test_axioms(self):
        assert check_operad_axioms(free_operad(one_binary_generator(), 4), 4).passed

    def test_mixed_generators(self):
        F = free_operad(Collection(levels={2: ("m",), 3: ("w",)}), 4)
        # arity 4: binary trees (15), one w over m in two level-orders with
        # labellings, counted by the independent oracle
        assert len(F.level(4)) == oracles.leaf_labelled_tree_count(4, {2, 3})

    def test_two_binary_and_one_ternary_generator(self):
        F = free_operad(Collection(levels={2: ("a", "b"), 3: ("c",)}), 4)
        # arity 3: 3 labelled binary trees with 2 x 2 decorations, plus c;
        # arity 4: 15 binary trees with 2^3 decorations, plus 6 + 4 trees
        # with one ternary and one binary vertex, 2 decorations each
        assert {n: len(v) for n, v in F._levels.items()} == {1: 1, 2: 2, 3: 13, 4: 140}

    def test_unit_injection_is_injective_and_equivariant(self):
        C = Collection(levels={2: ("a", "b")}, action=swap_action)
        assert oracles.collection_action_violations(C) == []
        F = free_operad(C, 3)
        sig = Signature(("x", "x"), "x")
        images = {}
        for gen in C.level(2):
            images[gen] = F.generator_element(2, gen)
        assert len(set(images.values())) == 2
        for gen in C.level(2):
            for perm in itertools.permutations(range(2)):
                left = F.sigma(images[gen], sig, perm)
                right = F.generator_element(2, C.action(2, perm, gen))
                assert left == right

    def test_size_budget(self):
        with pytest.raises(BudgetExceeded):
            free_operad(one_binary_generator(), 8, size_bound=100)


class TestTableOperad:
    def test_round_trip_through_json(self):
        A = ass_operad(3)
        table = TableOperad.from_operad(A, 3)
        payload = table.to_json(element_str=A.element_str)
        back = TableOperad.from_json(payload)
        assert check_operad_axioms(back, 3).passed

    def test_corrupted_composite_reported(self):
        A = ass_operad(3)
        table = TableOperad.from_operad(A, 3)
        key = next(
            k
            for k in table.composition_keys()
            if len(k[3]) == 2 and all(len(s[0]) == 1 for s in k[3])
        )
        wrong = next(e for e in table.hom(*key[1]) if e != table._comp[key])
        broken = table.corrupt(key, wrong)
        report = check_operad_axioms(broken, 3)
        assert not report.passed
        # every reported violation involves the corrupted entry's signature
        assert all(
            v["law"] in {"associativity", "right-unit", "left-unit",
                         "parent-equivariance", "child-equivariance"}
            for v in report.violations
        )

    def test_missing_entry_raises(self):
        A = ass_operad(2)
        table = TableOperad.from_operad(A, 2)
        sig = Signature(("x",) * 3, "x")
        with pytest.raises(DomainError):
            table.hom(("x",) * 3, "x")


class TestPermutationHelpers:
    def test_compose_and_inverse(self):
        for n in (2, 3, 4):
            perms = list(itertools.permutations(range(n)))
            for p in perms:
                assert perm_compose(p, perm_inverse(p)) == tuple(range(n))
                assert perm_compose(perm_inverse(p), p) == tuple(range(n))
            for p, q in itertools.product(perms, repeat=2):
                comp = perm_compose(p, q)
                assert all(comp[i] == p[q[i]] for i in range(n))

    def test_block_permutation(self):
        assert block_permutation((1, 0), (2, 1)) == (2, 0, 1)
        assert block_permutation((0, 1), (2, 2)) == (0, 1, 2, 3)
