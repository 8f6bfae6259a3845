"""Independent brute-force oracles used to pin expected values.

Nothing here reuses the library's search strategies: operations are closed
under substitution from generators, morphisms are filtered from all edge
maps, automorphisms are filtered from all edge bijections, and labelled
trees are counted through laminar set families.  The reference strict-Segal
check hashes the family of restricted value tuples of every value at a tree;
the library's check, which works on index arrays, is compared against it.
The reference elementary faces come from a search over every injective map
out of every tree with one vertex fewer; the library builds them directly.
The reference orbit key is the least image tuple over the whole
automorphism group of the source, enumerated as arrays of edge positions;
the library builds each face as that least map.
The reference operad-axiom check recomputes every composite inside its
innermost loop; the library's checker tabulates each composite and permuted
element once and compares whole instance grids as index arrays.  End
operads are checked against substitution through `end_evaluate`.  The
reference reconstruction restricts every value of a grafted tree to its
root and slot subcorollas and hashes the family of value tuples; the
library's keys them by the positions of those restrictions.  Both reference
checks restrict through `reference_restrict`, never through the library's
`restrict_index`.  The
reference nerve restriction evaluates every operation witness recursively
per value; the library's evaluates the witnesses on whole columns of
value positions.  The reference table restriction chains the stored
generator actions value by value; the library's composes them as gathers.
The reference table JSON writer orders entries by stringifying whole items;
the library's orders them by the repr of their keys.  The reference Segal core
lists every family of corolla values agreeing on shared edges; the library
only counts them.  The reference index-column check compares every inner
edge over all values, sorts every tree's family keys and counts every
branch of the core afresh; the library stops at the first value leaving
the core, scatters the keys when their space is small and counts each
branch shape once per check.  The reference stratification order is the transitive
closure of single inner-edge contractions, found by walking each labelled
tree; the library compares nested sets.  The reference labelled-tree
canonical form, term, nested set and valences re-serialize or walk every
sub-term at every level; the library builds each tree once from canonical
branches.  The reference psi enumeration rebuilds the trees over a label
subset at every partition block it appears in; the library builds them once
per subset.  The reference tree canonicalization re-serializes every sub-term
to sort the children of each vertex; the library builds the sort keys once,
bottom-up.  The reference tree shapes come from two memoized recurrences,
one per size measure; the library builds one measure's levels bottom-up
per call.  The reference subtrees offer every child branch for omission and
validate each induced inclusion; the library only omits closed branches.
The reference extended-corolla test collapses unary vertices until it
meets the reduced corolla; the library reads the chain of `shorten`.  The
reference operad-isomorphism check composes every instance in both operads
and compares the results through the element maps; the library's compares
the two operads' integer tables.  The reference hom sets merge one dict
per partial map; the library's build one tuple of images per map.  The
reference factorization copies and inverts each face's edge map per try
and composes its chain through one checked `then` per step; the library's
reads each face's stored image and inverse and composes one edge map.
The reference nerve values are one tuple built from the value blocks; the
library's are a sequence view that decodes a value when it is read.  The
reference free-operad normal form re-serializes every sub-term at every
level to order the children of each vertex; the library builds each
representative and its serialization together, bottom-up, and keeps both.
The reference map validation and isomorphism test walk address dicts
through `children` and `is_leaf`; the library's test tuples of edge ids.
The reference grafted tree of the reconstruction is canonicalized from its
raw term; the library's is laid out from its sorted arity tuple.
`edges_above` and `max_operation_arity` serve only these oracles.
"""

import itertools
import math
from functools import lru_cache, reduce

import numpy as np

from dendrokit.dendroidal import (
    ETA,
    IsomorphismWitness,
    NerveDendroidalSet,
    SegalReport,
    edge_inclusion,
    leaf_relabel_automorphism,
    morphism_key,
    subcorolla_inclusion,
)
from dendrokit.errors import BudgetExceeded, DomainError, charge, resolve_budget
from dendrokit.morphisms import (
    Face,
    Factorization,
    OmegaMorphism,
    OpWitness,
    SubtreeInclusion,
    _input_sets,
    contract_inner_edge,
    degeneracy_at,
    elementary_faces,
    factorize,
    hom_set,
    is_reduced,
    operation_exists,
    validate_morphism,
)
from dendrokit.operads import (
    AxiomReport,
    FiniteOperad,
    Signature,
    block_permutation,
    composition_instances,
    direct_sum_permutation,
    perm_compose,
    perm_inverse,
)
from dendrokit.strata import LabelledTree, StratPoset, _leaf, _set_partitions, _vertex
from dendrokit.trees import (
    LEAF,
    Tree,
    _node_key,
    _node_term,
    _size_multisets,
    canonicalize_node,
    corolla,
    enumerate_trees_by_vertices,
    reduced_corolla,
)


def tree_operation_closure(t):
    """All operations (ordered input tuple, output) of the operad generated
    by a tree: start from identities and vertex generators, close under
    single-slot substitution and input permutations."""
    ops = {((e,), e) for e in t.edges}
    for v in t.vertices:
        ops.add((tuple(t.children(v)), v))
    changed = True
    while changed:
        changed = False
        snapshot = list(ops)
        for ins1, out1 in snapshot:
            for perm in itertools.permutations(ins1):
                cand = (perm, out1)
                if cand not in ops:
                    ops.add(cand)
                    changed = True
        snapshot = list(ops)
        for ins1, out1 in snapshot:
            for i, color in enumerate(ins1):
                for ins2, out2 in snapshot:
                    if out2 != color or ins2 == (color,):
                        continue
                    cand = (ins1[:i] + ins2 + ins1[i + 1 :], out1)
                    if len(set(cand[0])) != len(cand[0]):
                        continue
                    if cand not in ops:
                        ops.add(cand)
                        changed = True
    return ops


def brute_force_morphisms(source, target):
    """All valid edge maps source -> target by checking every assignment
    against the substitution-closure of the target's operations."""
    ops = tree_operation_closure(target)
    out = []
    for values in itertools.product(target.edges, repeat=len(source.edges)):
        mapping = dict(zip(source.edges, values))
        ok = True
        for v in source.vertices:
            sig = (tuple(mapping[c] for c in source.children(v)), mapping[v])
            if sig not in ops:
                ok = False
                break
        if ok:
            out.append(mapping)
    return out


def brute_force_aut_order(t):
    """Count edge bijections preserving leaf status and the parent relation."""
    edges = t.edges
    count = 0
    for values in itertools.permutations(edges):
        mapping = dict(zip(edges, values))
        ok = True
        for e in edges:
            if t.is_leaf(e) != t.is_leaf(mapping[e]):
                ok = False
                break
            if e != () and mapping[e[:-1]] != mapping[e][:-1]:
                ok = False
                break
        if ok and mapping[()] == ():
            count += 1
    return count


def leaf_labelled_tree_count(n, arities):
    """Distinct rooted trees with leaves labelled 1..n and every vertex
    arity drawn from `arities`, counted by direct recursive enumeration."""

    def trees(labels):
        if len(labels) == 1:
            return [("leaf", labels[0])]
        out = []
        for k in sorted(arities):
            if k < 2 or k > len(labels):
                continue
            for blocks in partitions_into(labels, k):
                for combo in itertools.product(*[trees(tuple(b)) for b in blocks]):
                    out.append(("node", tuple(sorted(combo, key=str))))
        return out

    return len(set(trees(tuple(range(1, n + 1)))))


def partitions_into(items, k):
    """All partitions of `items` into exactly k nonempty unordered blocks."""

    def rec(rest):
        if not rest:
            yield []
            return
        first, tail = rest[0], rest[1:]
        for partial in rec(tail):
            for i in range(len(partial)):
                yield partial[:i] + [[first] + partial[i]] + partial[i + 1 :]
            yield [[first]] + partial

    for partition in rec(list(items)):
        if len(partition) == k:
            yield partition


def connected_edge_subsets(t):
    """Nonempty connected subsets of edges via graph search; edges are
    adjacent when one is the other's parent."""
    edges = t.edges
    out = []
    for r in range(1, len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            subset = set(combo)
            start = combo[0]
            seen = {start}
            stack = [start]
            while stack:
                e = stack.pop()
                for other in subset - seen:
                    if other[:-1] == e or e[:-1] == other:
                        seen.add(other)
                        stack.append(other)
            if seen == subset:
                out.append(frozenset(subset))
    return out


def edges_above(t: Tree, addr):
    """The edges of `t` at or above `addr`."""
    return tuple(e for e in t.edges if t.below(addr, e))


def max_operation_arity(t: Tree) -> int:
    """Largest arity of any operation in the operad generated by `t`."""
    return max(len(i) for ops in _input_sets(t) for i in ops.sets)


def in_omega_level(t: Tree, n: int) -> bool:
    """No vertex has more than n inputs (valence at most n+1)."""
    return all(len(t.children(v)) <= n for v in t.vertices)


def canonical_form(t: Tree) -> Tree:
    """A tree rebuilt from its node; Tree values are canonical on
    construction already."""
    return Tree(t._node)


def witness_subsets(poset):
    """The branch-index subset of every element of a cobound index poset."""
    return [sorted(poset.subset_map[s]) for s in poset.elements]


def collection_action_violations(C, max_arity=None):
    """Violations of the group-action laws on every stored level of a
    collection."""
    bad = []
    for n, elements in C.levels.items():
        if max_arity is not None and n > max_arity:
            continue
        ident = tuple(range(n))
        for el in elements:
            if C.action(n, ident, el) != el:
                bad.append(("identity", n, el))
        for p, q in itertools.product(itertools.permutations(range(n)), repeat=2):
            for el in elements:
                one = C.action(n, q, C.action(n, p, el))
                two = C.action(n, perm_compose(p, q), el)
                if one != two:
                    bad.append(("composition", n, (p, q, el)))
    return bad


def subtree_subset_is_valid(t, subset):
    """Validity of an edge subset as a subtree: every omitted input branch
    at an included non-leaf edge is closed (no leaf above it)."""
    for e in subset:
        if t.is_leaf(e):
            continue
        for c in t.children(e):
            if c not in subset:
                if any(t.is_leaf(above) for above in edges_above(t, c)):
                    return False
    return True


def psi_count_via_laminar_families(k):
    """Count level-k stratification trees as laminar families of subsets of
    size >= 2 containing the full set (feasible for k <= 4)."""
    ground = tuple(range(1, k + 1))
    candidates = [
        frozenset(c)
        for r in range(2, k)
        for c in itertools.combinations(ground, r)
    ]
    full = frozenset(ground)
    count = 0
    for r in range(len(candidates) + 1):
        for family in itertools.combinations(candidates, r):
            ok = True
            for a, b in itertools.combinations(family, 2):
                if not (a <= b or b <= a or not (a & b)):
                    ok = False
                    break
            if ok:
                count += 1
    return count


# -- canonical trees, serialized per call -------------------------------------------


_SORT_TRANS = str.maketrans("*()", "120")


def naive_canonicalize_node(node):
    """(canonical node, map old address -> new address), sorting the
    children of every vertex by their unlabelled and then labelled sub-terms,
    each serialized anew at every level."""
    children, label = node
    if children is LEAF:
        return node, {(): ()}
    canon = []
    for i, child in enumerate(children):
        cnode, cmap = naive_canonicalize_node(child)
        canon.append((i, cnode, cmap))
    canon.sort(key=lambda item: (_node_key(item[1]).translate(_SORT_TRANS), _node_term(item[1])))
    mapping = {(): ()}
    new_children = []
    for new_i, (old_i, cnode, cmap) in enumerate(canon):
        new_children.append(cnode)
        for old_sub, new_sub in cmap.items():
            mapping[(old_i,) + old_sub] = (new_i,) + new_sub
    return (tuple(new_children), label), mapping


# -- tree shapes, one memoized recurrence per size measure ----------------------


@lru_cache(maxsize=None)
def shapes_by_edges(n_edges, max_inputs, reduced_only):
    """Canonical unlabelled shapes with exactly `n_edges` edges."""
    if n_edges < 1:
        return ()
    if n_edges == 1:
        base = [((), None)]
        if not reduced_only:
            base.insert(0, (LEAF, None))
        return tuple(base)
    shapes = {}
    for k in range(1, max_inputs + 1):
        for sizes in _size_multisets(n_edges - 1, k, 1):
            pools = [
                list(
                    itertools.combinations_with_replacement(
                        shapes_by_edges(size, max_inputs, reduced_only), mult
                    )
                )
                for size, mult in sizes
            ]
            for combo in itertools.product(*pools):
                children = tuple(c for group in combo for c in group)
                node, _ = canonicalize_node((children, None))
                shapes.setdefault(_node_key(node), node)
    return tuple(shapes[key] for key in sorted(shapes))


@lru_cache(maxsize=None)
def shapes_by_vertices(n_vertices, max_inputs, reduced_only):
    """Canonical unlabelled shapes with exactly `n_vertices` vertices."""
    if n_vertices == 0:
        return () if reduced_only else ((LEAF, None),)
    shapes = {}
    for k in range(0, max_inputs + 1):
        if k == 0:
            if n_vertices == 1:
                node = ((), None)
                shapes.setdefault(_node_key(node), node)
            continue
        for sizes in _size_multisets(n_vertices - 1, k, 0):
            pools = [
                list(
                    itertools.combinations_with_replacement(
                        shapes_by_vertices(size, max_inputs, reduced_only), mult
                    )
                )
                for size, mult in sizes
            ]
            for combo in itertools.product(*pools):
                children = tuple(c for group in combo for c in group)
                node, _ = canonicalize_node((children, None))
                shapes.setdefault(_node_key(node), node)
    return tuple(shapes[key] for key in sorted(shapes))


# -- subtrees by generate and filter ---------------------------------------------


def _induced_inclusion(t: Tree, subset):
    """Inclusion morphism of the induced tree, or None when it is invalid."""
    base = min(subset, key=len)

    def build(e):
        children, label = t.node_at(e)
        if children is LEAF:
            return (LEAF, label), {(): e}
        raw_children = []
        out_map = {(): e}
        pos = 0
        for c in t.children(e):
            if c not in subset:
                continue
            node, m = build(c)
            raw_children.append(node)
            for sub, orig in m.items():
                out_map[(pos,) + sub] = orig
            pos += 1
        return (tuple(raw_children), label), out_map

    raw, raw_map = build(base)
    canon, cmap = canonicalize_node(raw)
    tree = Tree(canon, _canonical=True)
    addr_map = {cmap[raw_addr]: orig for raw_addr, orig in raw_map.items()}
    if not validate_morphism(tree, t, addr_map):
        return None
    return OmegaMorphism(tree, t, addr_map, _checked=True)


def naive_subtrees(t: Tree, budget=None):
    """All subtree inclusions of `t`, sorted by size then edge set."""
    charge("subtrees", 2 ** len(t.edges), budget)

    def rooted(e):
        if t.is_leaf(e):
            return [frozenset({e})]
        options = [[None] + rooted(c) for c in t.children(e)]
        out = []
        for combo in itertools.product(*options):
            chosen = [x for x in combo if x is not None]
            out.append(frozenset({e}).union(*chosen) if chosen else frozenset({e}))
        return out

    results = []
    for e in t.edges:
        for subset in rooted(e):
            incl = _induced_inclusion(t, subset)
            if incl is not None:
                results.append(SubtreeInclusion(t, subset, incl.source, incl))
    results.sort(key=lambda s: (len(s.edge_subset), tuple(sorted(s.edge_subset))))
    return results


# -- extended corollas by collapsing until the target -------------------------------


def naive_is_extended_corolla(t: Tree, n: int):
    """(flag, degeneracy chain to the reduced n-corolla when flag is True)."""
    if not is_reduced(t):
        return False, None
    target_key = reduced_corolla(n).key
    chain = []
    current = t
    while True:
        if current.key == target_key:
            return True, chain
        unary = [v for v in current.vertices if len(current.node_at(v)[0]) == 1]
        if n == 1 and len(unary) <= 1:
            return False, None
        if not unary:
            return False, None
        sigma = degeneracy_at(current, unary[0])
        chain.append(sigma)
        current = sigma.target


# -- leaf-labelled trees, serialized per call -------------------------------------


def canon_labelled(node):
    """The canonical form of a raw labelled node: children of every vertex
    sorted by their serialized sub-terms, recomputed at every level."""
    if isinstance(node, int):
        return node
    kids = tuple(canon_labelled(c) for c in node)
    return tuple(sorted(kids, key=labelled_term))


def labelled_term(node):
    if isinstance(node, int):
        return f"*@{node}"
    return "(" + "".join(labelled_term(c) for c in node) + ")"


def labelled_clusters(node):
    """Leaf-label bitmasks of the vertices of `node` other than its root."""
    out = []

    def mask(sub):
        if isinstance(sub, int):
            return 1 << sub
        m = 0
        for c in sub:
            m |= mask(c)
        out.append(m)
        return m

    mask(node)
    return frozenset(out[:-1])  # post-order: the root's mask comes last


def labelled_valences(node):
    """Sorted valences (inputs plus one) of the vertices of `node`."""
    if isinstance(node, int):
        return ()
    return tuple(sorted((len(node) + 1,) + sum((labelled_valences(c) for c in node), ())))


def labelled_leaves(node):
    if isinstance(node, int):
        return [node]
    return sorted(label for c in node for label in labelled_leaves(c))


def labelled_trees_per_block(labels):
    """All labelled trees on a sorted label tuple, rebuilding the trees over
    a label subset every time it recurs as a partition block."""
    if len(labels) == 1:
        return [_leaf(labels[0])]
    out = []
    for blocks in _set_partitions(labels):
        if len(blocks) < 2:
            continue
        pools = [labelled_trees_per_block(tuple(b)) for b in blocks]
        out.extend(map(_vertex, itertools.product(*pools)))
    return out


# -- the stratification order by contraction -------------------------------------


def contractions(t: LabelledTree):
    """All single inner-edge contractions (one step up the poset)."""
    results = []

    def rec(node, rebuild):
        if isinstance(node, int):
            return
        for i, child in enumerate(node):
            if isinstance(child, int):
                continue
            # contract the edge below `child`: splice its children up
            spliced = node[:i] + child + node[i + 1 :]
            results.append(rebuild(spliced))
            rec(child, lambda new, i=i, node=node, rebuild=rebuild:
                rebuild(node[:i] + (new,) + node[i + 1 :]))

    rec(t.node, lambda n: n)
    return [LabelledTree(n) for n in results]


class ClosurePoset:
    """The elements of `poset` ordered by the transitive closure of single
    contractions: a bitmask per element, its up-set including itself."""

    def __init__(self, poset: StratPoset):
        elements = poset.elements
        index = {t: i for i, t in enumerate(elements)}
        n = len(elements)
        up = [1 << i for i in range(n)]
        # transitive closure over single contractions, from coarse to fine;
        # elements are sorted with more vertices first, so contraction
        # targets appear later and are already complete when visited
        for i in range(n - 1, -1, -1):
            for target in contractions(elements[i]):
                if target in index:
                    up[i] |= up[index[target]]
        self.elements, self._index, self._leq = elements, index, tuple(up)

    def leq(self, s, t):
        return bool(self._leq[self._index[s]] & (1 << self._index[t]))

    def down_set(self, t):
        j = self._index[t]
        return [s for i, s in enumerate(self.elements) if self._leq[i] & (1 << j)]

    def covers(self):
        out = []
        for s in self.elements:
            for t in sorted(set(contractions(s)), key=lambda x: x.term):
                if t in self._index:
                    out.append((s, t))
        return out


# -- elementary faces by search ---------------------------------------------------


def _product_rows(a, b):
    """Every row of `a` followed by every row of `b`."""
    return np.hstack([np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))])


@lru_cache(maxsize=64)
def automorphism_rows(t: Tree):
    """Every automorphism of the unlabelled canonical tree `t` as one row of
    an int array: entry i is the position in ``t.edges`` of the image of
    ``t.edges[i]``.  Identical sibling branches are adjacent in canonical
    order; every run of k of them contributes each permutation of the k
    slots combined with every choice of automorphism of each branch."""

    def rows(node):
        children, _ = node
        out = np.zeros((1, 1), dtype=np.int32)  # the edge itself stays put
        if children is LEAF:
            return out
        for _, run in itertools.groupby(children, key=_node_key):
            run = list(run)
            k, sub = len(run), rows(run[0])
            n = sub.shape[1]
            choices = reduce(_product_rows, [sub] * k)
            shifts = np.array([np.repeat(perm, n) * n for perm in itertools.permutations(range(k))])
            moved = (choices[None, :, :] + shifts[:, None, :]).reshape(-1, k * n)
            out = _product_rows(out, moved + out.shape[1])
        return out

    return rows(t.node_at(()))


def automorphism_orbit_key(m):
    """Least edge-image tuple of m precomposed with each automorphism of its
    source, found by enumerating the whole automorphism group."""
    group = automorphism_rows(m.source)
    rank = {x: i for i, x in enumerate(sorted(set(m._items)))}
    images = np.array([rank[x] for x in m._items])[group]
    least = group[np.lexsort(images.T[::-1])[0]]
    return tuple(m._items[i] for i in least)


def search_elementary_faces(t, budget=None):
    """Elementary faces of `t` by search: every injective morphism into `t`
    from a tree with one vertex fewer, one per (source, orbit key), sorted by
    that pair; a face is inner when some inner-edge contraction has the same
    pair.  The representative is the first map of its orbit in hom-set
    order."""
    n_v = len(t.vertices)
    if n_v == 0:
        return []
    arity = max_operation_arity(t)
    found = {}
    for s in enumerate_trees_by_vertices(n_v - 1, arity, budget=budget):
        if len(s.vertices) != n_v - 1 or len(s.edges) > len(t.edges):
            continue
        for m in hom_set(s, t, budget=budget):
            if m.is_injective():
                found.setdefault((s.key, automorphism_orbit_key(m)), m)
    contractions = {}
    for e in t.inner_edges:
        c = contract_inner_edge(t, e)
        contractions[(c.source.key, automorphism_orbit_key(c))] = e
    faces = []
    for okey in sorted(found):
        e = contractions.get(okey)
        faces.append(Face(found[okey], "inner" if e is not None else "outer", e))
    return faces


# -- hom sets and factorizations by merged dicts -----------------------------------


def naive_hom_set(source: Tree, target: Tree):
    """All morphisms source -> target, one dict per partial map: every
    branch merges its children's dicts, and the maps are sorted by their
    images in source preorder."""
    by_arity = {}
    for e, ops in zip(target.edges, _input_sets(target)):
        for iset in ops.sets:
            by_arity.setdefault((e, len(iset)), []).append(tuple(sorted(map(target.edges.__getitem__, iset))))

    def branch(s_addr, t_addr):
        base = {s_addr: t_addr}
        if source.is_leaf(s_addr):
            return [base]
        kids = source.children(s_addr)
        out = []
        for iset in by_arity.get((t_addr, len(kids)), []):
            for assignment in itertools.permutations(iset):
                subs = []
                for kid, tgt in zip(kids, assignment):
                    sub = branch(kid, tgt)
                    if not sub:
                        break
                    subs.append(sub)
                else:
                    for combo in itertools.product(*subs):
                        m = dict(base)
                        for d in combo:
                            m.update(d)
                        out.append(m)
        return out

    results = []
    for t_addr in target.edges:
        results.extend(branch((), t_addr))
    results.sort(key=lambda m: tuple(m[e] for e in source.edges))
    return [OmegaMorphism(source, target, m, _checked=True) for m in results]


def naive_peel(g: OmegaMorphism):
    """(faces, isomorphism) with g = faces o isomorphism, trying the
    elementary faces of the target in order and inverting each one's
    copied edge map per try."""
    if g.is_isomorphism():
        return [], g
    g_image = g.image()
    for face in elementary_faces(g.target):
        delta = face.morphism
        if not g_image <= delta.image():
            continue
        inv = {t_addr: s_addr for s_addr, t_addr in delta.map.items()}
        lift_map = {e: inv[g(e)] for e in g.source.edges}
        if not validate_morphism(g.source, delta.source, lift_map):
            continue
        lift = OmegaMorphism(g.source, delta.source, lift_map, _checked=True)
        sub = naive_peel(lift)
        if sub is not None:
            chain, iso = sub
            return chain + [face], iso
    return None


@lru_cache(maxsize=64)
def _address_operations(t: Tree):
    """Per edge address of `t`, the input sets of the operations into it,
    read off the substitution closure."""
    table = {e: set() for e in t.edges}
    for inputs, output in tree_operation_closure(t):
        table[output].add(frozenset(inputs))
    return table


def address_validate_morphism(source: Tree, target: Tree, edge_map) -> bool:
    """`validate_morphism` on address dicts: every source vertex lands on an
    operation of the target, tested per vertex on input address sets."""
    if set(edge_map) != set(source.edges):
        return False
    table = _address_operations(target)
    if any(v not in table for v in edge_map.values()):
        return False
    for v in source.vertices:
        sig = [edge_map[c] for c in source.children(v)]
        if len(set(sig)) != len(sig):
            # repeated colors occur only in the identity operation
            return False
        if sig == [edge_map[v]]:
            continue
        if frozenset(sig) not in table[edge_map[v]]:
            return False
    return True


def address_is_isomorphism(m: OmegaMorphism) -> bool:
    """`OmegaMorphism.is_isomorphism` as a walk over addresses: bijective,
    leaves to leaves, and every vertex's inputs onto its image's inputs."""
    edge_map = m.map
    if m.source.key != m.target.key:
        return False
    if len(set(edge_map.values())) != len(m.target.edges):
        return False
    for e in m.source.edges:
        if m.source.is_leaf(e):
            if not m.target.is_leaf(edge_map[e]):
                return False
        else:
            img = {edge_map[c] for c in m.source.children(e)}
            if img != set(m.target.children(edge_map[e])):
                return False
    return True


def chained_composite(fact: Factorization) -> OmegaMorphism:
    """The composite of a factorization as one checked `then` per step."""
    chain = fact.degeneracies + [fact.isomorphism] + [f.morphism for f in fact.faces]
    out = chain[0]
    for step in chain[1:]:
        out = out.then(step)
    return out


def naive_factorize(m: OmegaMorphism) -> Factorization:
    """Degeneracies collapsed through fiber sets, faces peeled by
    `naive_peel` and the composite checked through `chained_composite`."""
    degs = []
    current = m
    while True:
        collapsible = None
        for v in current.source.vertices:
            kids = current.source.children(v)
            if len(kids) == 1 and current(kids[0]) == current(v):
                collapsible = v
                break
        if collapsible is None:
            break
        sigma = degeneracy_at(current.source, collapsible)
        fibers = {}
        for e in current.source.edges:
            fibers.setdefault(sigma(e), set()).add(current(e))
        new_map = {}
        for e2, values in fibers.items():
            assert len(values) == 1
            new_map[e2] = values.pop()
        degs.append(sigma)
        current = OmegaMorphism(sigma.target, m.target, new_map, _checked=True)
    assert current.is_injective()
    chain, iso = naive_peel(current)
    fact = Factorization(degs, iso, chain)
    assert chained_composite(fact) == m
    return fact


# -- the strict-Segal check on value tuples -------------------------------------


def _corolla_boundary_tables(X, arities):
    """Per arity: element -> (root value, leaf values) at the one-edge tree."""
    tables = {}
    for k in arities:
        if k in tables:
            continue
        tk = corolla(k)
        root_r = reference_restrict(X, edge_inclusion(tk, ()))
        leaf_r = [reference_restrict(X, edge_inclusion(tk, (i,))) for i in range(k)]
        tables[k] = {
            el: (root_r(el), tuple(r(el) for r in leaf_r)) for el in X.values(tk)
        }
    return tables


def _core_count(t: Tree, tables):
    """Number of core families by dynamic programming over the vertex tree,
    grouping corolla values by their boundary restrictions."""
    verts = t.vertices
    vert_pos = {v: i for i, v in enumerate(verts)}
    counts = [None] * len(verts)
    for vi in range(len(verts) - 1, -1, -1):
        v = verts[vi]
        kids = t.children(v)
        links = [
            (slot, vert_pos[c]) for slot, c in enumerate(kids) if not t.is_leaf(c)
        ]
        acc = {}
        for el, (root_val, leaf_vals) in tables[len(kids)].items():
            ways = 1
            for slot, ci in links:
                ways *= counts[ci].get(leaf_vals[slot], 0)
                if ways == 0:
                    break
            if ways:
                acc[root_val] = acc.get(root_val, 0) + ways
        counts[vi] = acc
    return sum(counts[0].values())


def segal_core_hom(X, t: Tree, budget=None):
    """Families of corolla values, one per vertex of `t`, agreeing on shared
    edges under the one-edge-tree restrictions.  For the one-edge tree the
    core is the value set itself."""
    verts = t.vertices
    if not verts:
        return tuple((v,) for v in X.values(t))
    tables = _corolla_boundary_tables(X, [len(t.children(v)) for v in verts])
    families = [({}, ())]
    total = 1
    for v in verts:
        new = []
        for edge_vals, chosen in families:
            for el, (root_val, leaf_vals) in tables[len(t.children(v))].items():
                assignment = dict(edge_vals)
                ok = True
                for edge, val in [(v, root_val)] + list(zip(t.children(v), leaf_vals)):
                    if edge in assignment and assignment[edge] != val:
                        ok = False
                        break
                    assignment[edge] = val
                if ok:
                    new.append((assignment, chosen + (el,)))
        families = new
        total = max(total, len(families))
        charge("segal core families", total, budget)
    return tuple(chosen for _assignment, chosen in families)


def tuple_strict_segal(X, trees=None, budget=None) -> SegalReport:
    """Exact bijectivity of the value-to-core map at every carrier tree.

    The core is counted by dynamic programming and the map is checked to be
    injective with image inside the core (membership is the local
    shared-edge condition); equal counts then force bijectivity.
    """
    if trees is None:
        trees = X.trees
    if trees is None:
        raise DomainError("no carrier given for the Segal check")
    report = SegalReport(getattr(X, "name", "dendroidal set"))
    for t in trees:
        try:
            report.checked.append(t.term)
            if not t.vertices:
                # the core is the value set itself and the map is the identity
                X.values(t)
                continue
            verts = t.vertices
            arities = [len(t.children(v)) for v in verts]
            tables = _corolla_boundary_tables(X, set(arities))
            values = X.values(t)
            charge("segal check values", len(values), budget)
            core_count = _core_count(t, tables)
            vert_pos = {v: i for i, v in enumerate(verts)}
            links = [
                (vi, slot, vert_pos[c])
                for vi, v in enumerate(verts)
                for slot, c in enumerate(t.children(v))
                if not t.is_leaf(c)
            ]
            restrictors = [reference_restrict(X, subcorolla_inclusion(t, v)) for v in verts]
            failure = None
            seen = set()
            for x in values:
                family = tuple(r(x) for r in restrictors)
                if family in seen:
                    failure = {
                        "tree": t.term,
                        "reason": "not injective",
                        "family": str(family),
                    }
                    break
                seen.add(family)
                for vi, slot, ci in links:
                    if (
                        tables[arities[vi]][family[vi]][1][slot]
                        != tables[arities[ci]][family[ci]][0]
                    ):
                        failure = {
                            "tree": t.term,
                            "reason": "image outside core",
                            "family": str(family),
                        }
                        break
                if failure:
                    break
            if failure is None and len(seen) != core_count:
                failure = {
                    "tree": t.term,
                    "reason": "not surjective",
                    "value_count": len(values),
                    "core_count": core_count,
                }
            if failure is not None:
                report.failures.append(failure)
        except DomainError as err:
            report.failures.append(
                {"tree": t.term, "reason": "restriction unavailable", "detail": err.payload()}
            )
    return report


# -- the strict-Segal check on index columns, without memos or scatters ----------


def index_core_count(t: Tree, boundary):
    """Number of core families by dynamic programming over the vertex tree,
    grouping corolla values by their boundary restrictions; every branch is
    counted afresh."""
    verts = t.vertices
    vert_pos = {v: i for i, v in enumerate(verts)}
    counts = [None] * len(verts)
    for vi in range(len(verts) - 1, -1, -1):
        v = verts[vi]
        kids = t.children(v)
        links = [
            (slot, vert_pos[c]) for slot, c in enumerate(kids) if not t.is_leaf(c)
        ]
        b = boundary[len(kids)]
        distinct = list(b.index.values())
        acc = {}
        for root_val, leaf_vals in zip(b.root[distinct].tolist(), b.leaves[distinct].tolist()):
            ways = 1
            for slot, ci in links:
                ways *= counts[ci].get(leaf_vals[slot], 0)
                if ways == 0:
                    break
            if ways:
                acc[root_val] = acc.get(root_val, 0) + ways
        counts[vi] = acc
    return sum(counts[0].values())


def sorting_first_repeat(columns, radices):
    """The first row of the stacked columns equal to an earlier row, or None,
    found by sorting their mixed-radix keys (the rows themselves when a key
    could overflow)."""
    n = len(columns[0])
    if math.prod(radices) >= 2**63:
        keys = np.stack(columns, axis=1)
    else:
        keys = np.zeros(n, dtype=np.int64)
        for column, radix in zip(columns, radices):
            keys = keys * radix + column
    _, first = np.unique(keys, axis=0 if keys.ndim > 1 else None, return_index=True)
    if len(first) == n:
        return None
    repeated = np.ones(n, dtype=bool)
    repeated[first] = False
    return int(np.flatnonzero(repeated)[0])


def index_segal_failure(t: Tree, columns, boundary):
    """The failure record at `t`, or None, from the corolla columns of its
    values: every inner edge compared over all values, injectivity by
    `sorting_first_repeat` and the core by `index_core_count`."""
    verts = t.vertices
    arities = [len(t.children(v)) for v in verts]
    vert_pos = {v: i for i, v in enumerate(verts)}
    n = len(columns[0])
    first, reason = n, None
    for vi, v in enumerate(verts):
        for slot, c in enumerate(t.children(v)):
            if t.is_leaf(c):
                continue
            ci = vert_pos[c]
            leaf_ids = boundary[arities[vi]].leaves[columns[vi], slot]
            root_ids = boundary[arities[ci]].root[columns[ci]]
            outside = np.flatnonzero(leaf_ids != root_ids)
            if outside.size and outside[0] < first:
                first, reason = int(outside[0]), "image outside core"
    repeat = sorting_first_repeat(columns, [len(boundary[k].values) for k in arities])
    if repeat is not None and repeat < first:
        first, reason = repeat, "not injective"
    if reason is not None:
        family = tuple(
            boundary[k].values[column[first]] for k, column in zip(arities, columns)
        )
        return {"tree": t.term, "reason": reason, "family": str(family)}
    core_count = index_core_count(t, boundary)
    if n != core_count:
        return {
            "tree": t.term,
            "reason": "not surjective",
            "value_count": n,
            "core_count": core_count,
        }
    return None


# -- the operad axioms, recomputed per instance ------------------------------------


def naive_operad_axioms(P: FiniteOperad, arity_bound, budget=None, max_perm_arity=4):
    """The axiom checker as first written: every unit, associativity and
    equivariance instance up to the arity bound, recomputing each composite
    where it is used.  The library's checker must report the same instances
    and violations in the same order."""
    report = AxiomReport(P.name, arity_bound)
    sigs = P.nonempty_signatures(arity_bound, budget=budget)
    instances = composition_instances(P, arity_bound, sigs, budget=budget)

    def sig_str(s):
        return f"({','.join(map(str, s.inputs))};{s.output})"

    # identity elements exist
    for c in P.colors:
        ident = P.identity(c)
        if ident not in P.hom((c,), c):
            report.add("identity-exists", {"color": str(c)}, ident, P.hom((c,), c))
        report.checked += 1

    # unit laws
    for s in sigs:
        if s.arity == 0:
            continue
        for el in P.hom(s.inputs, s.output):
            ids = [P.identity(c) for c in s.inputs]
            id_sigs = [Signature((c,), c) for c in s.inputs]
            right = P.compose(el, s, ids, id_sigs)
            if right != el:
                report.add("right-unit", {"sig": sig_str(s), "element": str(el)}, right, el)
            out_id = P.identity(s.output)
            left = P.compose(out_id, Signature((s.output,), s.output), [el], [s])
            if left != el:
                report.add("left-unit", {"sig": sig_str(s), "element": str(el)}, left, el)
            report.checked += 2

    # associativity: compose twice in both orders
    count = 0
    for parent_sig, child_sigs in instances:
        mid_sig = Signature(
            tuple(c for s in child_sigs for c in s.inputs), parent_sig.output
        )
        if mid_sig.arity == 0:
            # composing the nullary composite with nothing is trivial
            continue
        for f in P.hom(parent_sig.inputs, parent_sig.output):
            pools = [P.hom(s.inputs, s.output) for s in child_sigs]
            for gs in itertools.product(*pools):
                # choose grandchildren for every input of the composite
                h_sigs = []
                feasible = True
                for color in mid_sig.inputs:
                    options = [s for s in sigs if s.output == color]
                    if not options:
                        feasible = False
                        break
                    h_sigs.append(options)
                if not feasible:
                    continue
                for h_combo in itertools.product(*h_sigs):
                    if sum(s.arity for s in h_combo) > arity_bound:
                        continue
                    h_elements_pools = [P.hom(s.inputs, s.output) for s in h_combo]
                    for hs in itertools.product(*h_elements_pools):
                        count += 1
                        charge("associativity instances", count, budget)
                        lhs_mid = P.compose(f, parent_sig, list(gs), list(child_sigs))
                        lhs = P.compose(lhs_mid, mid_sig, list(hs), list(h_combo))
                        rhs_children = []
                        rhs_child_sigs = []
                        pos = 0
                        for g, gsig in zip(gs, child_sigs):
                            block = list(h_combo[pos : pos + gsig.arity])
                            block_els = list(hs[pos : pos + gsig.arity])
                            pos += gsig.arity
                            rhs_children.append(P.compose(g, gsig, block_els, block))
                            rhs_child_sigs.append(
                                Signature(
                                    tuple(c for s in block for c in s.inputs), gsig.output
                                )
                            )
                        rhs = P.compose(f, parent_sig, rhs_children, rhs_child_sigs)
                        report.checked += 1
                        if lhs != rhs:
                            report.add(
                                "associativity",
                                {
                                    "parent": sig_str(parent_sig),
                                    "children": [sig_str(s) for s in child_sigs],
                                    "f": str(f),
                                    "gs": [str(g) for g in gs],
                                    "hs": [str(h) for h in hs],
                                },
                                lhs,
                                rhs,
                            )

    # symmetric action functoriality
    for s in sigs:
        n = s.arity
        if n < 2 or n > max_perm_arity:
            continue
        for el in P.hom(s.inputs, s.output):
            ident = tuple(range(n))
            if P.sigma(el, s, ident) != el:
                report.add("sigma-identity", {"sig": sig_str(s), "element": str(el)}, P.sigma(el, s, ident), el)
            report.checked += 1
            for p in itertools.permutations(range(n)):
                s_p = Signature(tuple(s.inputs[i] for i in p), s.output)
                for q in itertools.permutations(range(n)):
                    one = P.sigma(P.sigma(el, s, p), s_p, q)
                    two = P.sigma(el, s, perm_compose(p, q))
                    report.checked += 1
                    if one != two:
                        report.add(
                            "sigma-functoriality",
                            {"sig": sig_str(s), "element": str(el), "p": p, "q": q},
                            one,
                            two,
                        )

    # equivariance against composition
    for parent_sig, child_sigs in instances:
        n = parent_sig.arity
        if n > max_perm_arity:
            continue
        arities = [s.arity for s in child_sigs]
        for f in P.hom(parent_sig.inputs, parent_sig.output):
            pools = [P.hom(s.inputs, s.output) for s in child_sigs]
            for gs in itertools.product(*pools):
                base = P.compose(f, parent_sig, list(gs), list(child_sigs))
                base_sig = Signature(
                    tuple(c for s in child_sigs for c in s.inputs), parent_sig.output
                )
                for p in itertools.permutations(range(n)):
                    f_p = P.sigma(f, parent_sig, p)
                    sig_p = Signature(tuple(parent_sig.inputs[i] for i in p), parent_sig.output)
                    gs_p = [gs[p[i]] for i in range(n)]
                    sigs_p = [child_sigs[p[i]] for i in range(n)]
                    lhs = P.compose(f_p, sig_p, gs_p, sigs_p)
                    block = block_permutation(p, arities)
                    rhs = P.sigma(base, base_sig, block)
                    report.checked += 1
                    if lhs != rhs:
                        report.add(
                            "parent-equivariance",
                            {"parent": sig_str(parent_sig), "perm": p, "f": str(f)},
                            lhs,
                            rhs,
                        )
                # children permutations, one slot at a time
                for slot in range(n):
                    k = arities[slot]
                    if k < 2 or k > max_perm_arity:
                        continue
                    for tau in itertools.permutations(range(k)):
                        gs_t = list(gs)
                        gs_t[slot] = P.sigma(gs[slot], child_sigs[slot], tau)
                        sigs_t = list(child_sigs)
                        sigs_t[slot] = Signature(
                            tuple(child_sigs[slot].inputs[i] for i in tau),
                            child_sigs[slot].output,
                        )
                        lhs = P.compose(f, parent_sig, gs_t, sigs_t)
                        taus = [
                            tau if i == slot else tuple(range(arities[i]))
                            for i in range(n)
                        ]
                        rhs = P.sigma(base, base_sig, direct_sum_permutation(taus))
                        report.checked += 1
                        if lhs != rhs:
                            report.add(
                                "child-equivariance",
                                {
                                    "parent": sig_str(parent_sig),
                                    "slot": slot,
                                    "perm": tau,
                                },
                                lhs,
                                rhs,
                            )
    return report


# -- operad isomorphisms, instance by instance ------------------------------------


def naive_operad_isomorphism(P, Q, color_map, element_map, arity_bound, budget=None):
    """The isomorphism check as first written: every composition and
    symmetry instance composed in P and in Q and compared through the
    element maps.  The library's check compares tables and must report the
    same signatures, instance count and failures in the same order.  One
    line differs from the first version: a composite outside P's hom-set has
    no image and fails, where that version raised KeyError."""
    failures = []
    checks = 0
    comp_limit = resolve_budget(budget)
    sigs = P.nonempty_signatures(arity_bound, budget=budget)

    def translate_sig(sig):
        return Signature(tuple(color_map[c] for c in sig.inputs), color_map[sig.output])

    # bijectivity per signature and a well-defined inverse on colors
    if sorted(map(str, color_map.values())) != sorted(map(str, Q.colors)):
        failures.append({"law": "color-bijection", "detail": "color map is not onto"})
    element_tables = {}
    for sig in sigs:
        table = {el: element_map(sig, el) for el in P.hom(sig.inputs, sig.output)}
        q_sig = translate_sig(sig)
        q_hom = Q.hom(q_sig.inputs, q_sig.output)
        checks += 1
        if sorted(map(str, table.values())) != sorted(map(str, q_hom)):
            failures.append(
                {
                    "law": "hom-bijection",
                    "signature": str(sig),
                    "p_count": len(table),
                    "q_count": len(q_hom),
                }
            )
        element_tables[(sig.inputs, sig.output)] = table

    # identities
    for c in P.colors:
        sig = Signature((c,), c)
        checks += 1
        if element_map(sig, P.identity(c)) != Q.identity(color_map[c]):
            failures.append({"law": "identity", "color": str(c)})

    # composition
    no_image = object()
    for parent_sig, child_sigs in composition_instances(P, arity_bound, sigs):
        q_parent_sig = translate_sig(parent_sig)
        q_child_sigs = [translate_sig(s) for s in child_sigs]
        result_sig = Signature(
            tuple(c for s in child_sigs for c in s.inputs), parent_sig.output
        )
        parent_table = element_tables[(parent_sig.inputs, parent_sig.output)]
        child_tables = [element_tables[(s.inputs, s.output)] for s in child_sigs]
        result_key = (result_sig.inputs, result_sig.output)
        if result_key not in element_tables:
            element_tables[result_key] = {
                el: element_map(result_sig, el) for el in P.hom(*result_key)
            }
        result_table = element_tables[result_key]
        for f in P.hom(parent_sig.inputs, parent_sig.output):
            q_f = parent_table[f]
            pools = [P.hom(s.inputs, s.output) for s in child_sigs]
            for gs in itertools.product(*pools):
                checks += 1
                if checks > comp_limit:
                    raise BudgetExceeded("isomorphism composition checks", checks, comp_limit)
                p_result = P.compose(f, parent_sig, list(gs), list(child_sigs))
                lhs = result_table.get(p_result, no_image)
                rhs = Q.compose(
                    q_f,
                    q_parent_sig,
                    [table[g] for table, g in zip(child_tables, gs)],
                    q_child_sigs,
                )
                if lhs != rhs:
                    failures.append(
                        {
                            "law": "composition",
                            "parent": str(parent_sig),
                            "f": str(f),
                            "gs": [str(g) for g in gs],
                        }
                    )

    # symmetry
    for sig in sigs:
        n = sig.arity
        if n < 2:
            continue
        q_sig = translate_sig(sig)
        for el in P.hom(sig.inputs, sig.output):
            for perm in itertools.permutations(range(n)):
                checks += 1
                p_out = P.sigma(el, sig, perm)
                out_sig = Signature(tuple(sig.inputs[i] for i in perm), sig.output)
                lhs = element_map(out_sig, p_out)
                rhs = Q.sigma(element_map(sig, el), q_sig, perm)
                if lhs != rhs:
                    failures.append(
                        {"law": "symmetry", "signature": str(sig), "perm": perm}
                    )
    return IsomorphismWitness(
        dict(color_map),
        {k: v for k, v in element_tables.items()},
        checks,
        failures,
    )


# -- End operads by substitution ---------------------------------------------


def end_args(E, n):
    """All argument tuples of arity n over E's points, lexicographically."""
    return tuple(itertools.product(E.points, repeat=n))


def end_evaluate(E, element, args):
    """The value of an End element at an argument tuple."""
    idx = 0
    for a in args:
        idx = idx * len(E.points) + E.points.index(a)
    return element[idx]


# -- operad reconstruction on value tuples ------------------------------------


def grafted_two_level_tree(n, child_arities):
    """The tree with an n-input root vertex whose i-th input carries a vertex
    with child_arities[i] leaf inputs.  Returns (tree, slot address map)
    where slots are addressed ('root',), ('slot', j), ('leaf', j, i)."""
    raw_children = []
    for k in child_arities:
        raw_children.append((tuple((None, None) for _ in range(k)), None))
    raw = (tuple(raw_children), None)
    canon, cmap = canonicalize_node(raw)
    tree = Tree(canon, _canonical=True)
    slots = {("root",): ()}
    for j in range(n):
        slots[("slot", j)] = cmap[(j,)]
        for i in range(child_arities[j]):
            slots[("leaf", j, i)] = cmap[(j, i)]
    return tree, slots


def grafting_by_canonicalization(arities):
    """`dendroidal._grafting` with its tree and maps read off a general
    canonicalization: the grafted tree, the maps of the root and slot
    corollas into it, and the map of the corolla on all its leaves."""
    # cmap sends the raw address (j,) of slot j and (j, i) of its i-th leaf
    # to their canonical addresses in the tree
    canon, cmap = canonicalize_node((tuple((((None, None),) * k, None) for k in arities), None))
    tree = Tree(canon, _canonical=True)
    maps = [{(): ()} | {(j,): cmap[(j,)] for j in range(len(arities))}]
    for j, k in enumerate(arities):
        maps.append({(): cmap[(j,)]} | {(i,): cmap[(j, i)] for i in range(k)})
    family = tuple(OmegaMorphism(corolla(len(mp) - 1), tree, mp) for mp in maps)
    leaves = [cmap[(j, i)] for j, k in enumerate(arities) for i in range(k)]
    total_map = {(): ()} | {(p,): e for p, e in enumerate(leaves)}
    return tree, family, OmegaMorphism(corolla(len(leaves)), tree, total_map)


class TupleReconstructedOperad(FiniteOperad):
    """The operad carried by a strict-Segal dendroidal set.

    Colors are the values at the one-edge tree; arity-n operations are the
    values at the n-corolla sorted by their edge restrictions; composition
    inverts the Segal bijection on a two-level grafted tree and restricts
    along the full-corolla map; identities are degeneracy images.
    """

    name = "reconstructed"

    def __init__(self, X, arity_bound, budget=None):
        self.X = X
        self.arity_bound = arity_bound
        self.budget = budget
        self.colors = tuple(X.values(ETA))
        self._hom_index = {}
        self._graft_index = {}
        self._identities = None

    def _corolla_index(self, n):
        if n in self._hom_index:
            return self._hom_index[n]
        tn = corolla(n)
        root_r = reference_restrict(self.X, edge_inclusion(tn, ()))
        leaf_r = [reference_restrict(self.X, edge_inclusion(tn, (i,))) for i in range(n)]
        index = {}
        for el in self.X.values(tn):
            sig = (tuple(r(el) for r in leaf_r), root_r(el))
            index.setdefault(sig, []).append(el)
        self._hom_index[n] = index
        return index

    def hom(self, inputs, output):
        self.check_arity(len(inputs))
        return tuple(self._corolla_index(len(inputs)).get((tuple(inputs), output), ()))

    def identity(self, color):
        if self._identities is None:
            sigma = degeneracy_at(corolla(1), ())
            # degeneracy: 1-corolla -> one-edge tree; its action makes identities
            act = reference_restrict(self.X, sigma)
            self._identities = {c: act(c) for c in self.colors}
        return self._identities[color]

    def compose(self, parent, parent_sig, children, child_sigs):
        n = parent_sig.arity
        arities = tuple(s.arity for s in child_sigs)
        tree, slots, index, total_r, sub_r = self._graft_data(n, arities)
        family = (parent,) + tuple(children)
        try:
            z = index[family]
        except KeyError:
            raise DomainError(
                "no grafted element restricting to the given family; "
                "the dendroidal set is not strict Segal on the grafted tree"
            )
        return total_r(z)

    def _graft_data(self, n, arities):
        key = (n, arities)
        if key in self._graft_index:
            return self._graft_index[key]
        tree, slots = grafted_two_level_tree(n, arities)
        root_sub = OmegaMorphism(
            corolla(n),
            tree,
            {(): ()} | {(j,): slots[("slot", j)] for j in range(n)},
            _checked=True,
        )
        slot_subs = []
        for j, k in enumerate(arities):
            emap = {(): slots[("slot", j)]}
            for i in range(k):
                emap[(i,)] = slots[("leaf", j, i)]
            slot_subs.append(OmegaMorphism(corolla(k), tree, emap, _checked=True))
        m_total = sum(arities)
        emap = {(): ()}
        pos = 0
        for j, k in enumerate(arities):
            for i in range(k):
                emap[(pos,)] = slots[("leaf", j, i)]
                pos += 1
        total = OmegaMorphism(corolla(m_total), tree, emap, _checked=True)

        # the values first: a grafted tree outside the carrier is named
        values = self.X.values(tree)
        charge("reconstruction graft values", len(values), self.budget)
        root_act = reference_restrict(self.X, root_sub)
        slot_acts = [reference_restrict(self.X, s) for s in slot_subs]
        index = {}
        for z in values:
            family = (root_act(z),) + tuple(act(z) for act in slot_acts)
            if family in index:
                raise DomainError(
                    "grafted tree value restricts non-uniquely; "
                    "the dendroidal set is not strict Segal"
                )
            index[family] = z
        data = (tree, slots, index, reference_restrict(self.X, total), (root_sub, slot_subs))
        self._graft_index[key] = data
        return data

    def sigma(self, element, sig, perm):
        n = len(perm)
        act = reference_restrict(self.X, leaf_relabel_automorphism(n, perm))
        return act(element)

    def element_str(self, element):
        return str(element)


# -- nerve restriction by witness evaluation -----------------------------------


def eval_witness(witness: OpWitness, tree: Tree, edge_color, vertex_element, operad):
    """Evaluate a composite-operation witness of `tree` inside `operad`.

    `edge_color` maps tree edges to operad colors and `vertex_element` maps
    vertex addresses to operad elements whose signature matches the colored
    vertex.  Returns (element, Signature).
    """
    out_color = edge_color[witness.output]
    if witness.is_identity:
        sig = Signature((out_color,), out_color)
        return operad.identity(out_color), sig
    kids = tree.children(witness.output)
    parent_sig = Signature(tuple(edge_color[c] for c in kids), out_color)
    parent = vertex_element[witness.output]
    if all(w.is_identity for w in witness.children) and witness.perm == tuple(
        range(len(witness.perm))
    ):
        # unit law: composing with identities in every slot returns the parent
        return parent, parent_sig
    children = []
    child_sigs = []
    for w in witness.children:
        el, sig = eval_witness(w, tree, edge_color, vertex_element, operad)
        children.append(el)
        child_sigs.append(sig)
    element = operad.compose(parent, parent_sig, children, child_sigs)
    concat_inputs = tuple(c for s in child_sigs for c in s.inputs)
    sig = Signature(concat_inputs, out_color)
    if witness.perm and witness.perm != tuple(range(len(witness.perm))):
        element = operad.sigma(element, sig, witness.perm)
        sig = Signature(tuple(concat_inputs[i] for i in witness.perm), out_color)
    return element, sig


def witness_restrict(X, m: OmegaMorphism):
    """The nerve X's contravariant action along `m`, evaluating the witness
    of every source vertex per value."""
    source, target = m.source, m.target
    edge_pos = {e: i for i, e in enumerate(target.edges)}
    vertex_pos = {v: i for i, v in enumerate(target.vertices)}
    color_plan = tuple(edge_pos[m(e)] for e in source.edges)
    # per source vertex: either a direct pick of one target decoration
    # (witness is a single vertex with identity inputs in order) or a
    # full witness evaluation
    plans = []
    for v in source.vertices:
        w = operation_exists(target, m(v), tuple(m(c) for c in source.children(v)))
        if (
            not w.is_identity
            and all(c.is_identity for c in w.children)
            and w.perm == tuple(range(len(w.perm)))
        ):
            plans.append(vertex_pos[w.output])
        else:
            plans.append(w)
    P = X.operad
    target_edges = target.edges
    target_vertices = target.vertices

    def act(element):
        colors, decs = element
        new_colors = tuple(colors[i] for i in color_plan)
        new_decs = []
        color_of = None
        for plan in plans:
            if type(plan) is int:
                new_decs.append(decs[plan])
                continue
            if color_of is None:
                color_of = dict(zip(target_edges, colors))
                dec_of = dict(zip(target_vertices, decs))
            if plan.is_identity:
                new_decs.append(P.identity(color_of[plan.output]))
            else:
                el, _sig = eval_witness(plan, target, color_of, dec_of, P)
                new_decs.append(el)
        return (new_colors, tuple(new_decs))

    return act


def table_restrict(X, m: OmegaMorphism):
    """The table set X's contravariant action along `m` as a function on
    values: its stored action, or the stored actions of the generators of
    its factorization chained, the last applied map acting first.  A value
    an action has no entry for raises DomainError naming the morphism and
    the value."""

    def lookup(step):
        table = X._actions[morphism_key(step)]

        def act(el):
            try:
                return table[el]
            except KeyError:
                raise DomainError(
                    "stored action has no entry for value",
                    {"morphism": step.to_json(), "value": str(el)},
                ) from None

        return act

    def fixes_every_edge(step):
        return step.source == step.target and all(step(e) == e for e in step.source.edges)

    if morphism_key(m) in X._actions:
        return lookup(m)
    if m.source == m.target and m.is_isomorphism() and fixes_every_edge(m):
        return lambda el: el
    fact = factorize(m)
    steps = [*fact.degeneracies, fact.isomorphism, *(f.morphism for f in fact.faces)]
    actions = []
    for step in steps:
        if fixes_every_edge(step):
            actions.append(lambda el: el)
        elif morphism_key(step) in X._actions:
            actions.append(lookup(step))
        else:
            raise DomainError("missing generator action", {"morphism": step.to_json()})

    def act(element):
        for fn in reversed(actions):
            element = fn(element)
        return element

    return act


def reference_restrict(X, m: OmegaMorphism):
    """The reference restriction along `m` of a nerve or a table set, as a
    function on values."""
    if isinstance(X, NerveDendroidalSet):
        return witness_restrict(X, m)
    return table_restrict(X, m)


# -- table JSON by whole-item order ---------------------------------------------


def table_to_json(X):
    """A TableDendroidalSet's JSON payload, sorting actions and map entries
    by the str of the whole (key, item) pair."""
    trees = [t.term for t in X.trees]
    values = {t.term: [str(e) for e in X._values[t]] for t in X.trees}
    actions = []
    by_key = {}
    for t in X.trees:
        by_key[t.key] = t
    for (skey, tkey, pairs), table in sorted(X._actions.items(), key=str):
        source, target = by_key[skey], by_key[tkey]
        m = OmegaMorphism(source, target, dict(pairs), _checked=True)
        actions.append(
            {
                "morphism": m.to_json(),
                "map": {str(k): str(v) for k, v in sorted(table.items(), key=str)},
            }
        )
    return {"trees": trees, "values": values, "actions": actions}


def tuple_nerve_values(X, t):
    """The values of the nerve X at `t` as one tuple: per block in block
    order, its edge colors with every decoration in the product of its
    pools."""
    out = []
    for block in X.value_blocks(t).values():
        colors = block.colors
        for decs in itertools.product(*block.pools):
            out.append((colors, decs))
    return tuple(out)


def term_serialize(term):
    """A free operad term's text: ``L<i>`` for leaf i, ``N[<generator
    repr>:<children's texts>]`` for a vertex."""
    if term[0] == "leaf":
        return f"L{term[1]}"
    gen, children = term[1], term[2]
    return "N[" + repr(gen) + ":" + ",".join(term_serialize(c) for c in children) + "]"


def recursive_canonical(F, term):
    """The free operad F's representative of `term`: children ordered by
    their serializations, recomputed at every level, the generator acted on
    by the reordering."""
    if term[0] == "leaf":
        return term
    gen, children = term[1], term[2]
    kids = [recursive_canonical(F, c) for c in children]
    order = sorted(range(len(kids)), key=lambda i: term_serialize(kids[i]))
    if order != list(range(len(kids))):
        gen = F.collection.action(len(kids), tuple(order), gen)
        kids = [kids[i] for i in order]
    return ("node", gen, tuple(kids))


def recursive_compose(F, parent, children, child_sigs):
    """F's composite: every leaf j of `parent` replaced by `children[j]`
    with its leaves shifted past the earlier children's, then normalized."""
    arities = [len(s.inputs) for s in child_sigs]

    def shift(term, offset):
        if term[0] == "leaf":
            return ("leaf", term[1] + offset)
        return ("node", term[1], tuple(shift(c, offset) for c in term[2]))

    def substitute(term):
        if term[0] == "leaf":
            return shift(children[term[1]], sum(arities[: term[1]]))
        return ("node", term[1], tuple(substitute(c) for c in term[2]))

    return recursive_canonical(F, substitute(parent))


def recursive_sigma(F, element, perm):
    """F's symmetric action: leaf i relabelled to the inverse of `perm` at
    i, then normalized."""
    inv = perm_inverse(perm)

    def relabel(term):
        if term[0] == "leaf":
            return ("leaf", inv[term[1]])
        return ("node", term[1], tuple(relabel(c) for c in term[2]))

    return recursive_canonical(F, relabel(element))
