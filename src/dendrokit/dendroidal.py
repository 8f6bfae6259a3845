"""Truncated dendroidal sets: presheaves on a finite batch of trees.

A dendroidal set assigns a finite value set to every tree in its carrier and
a restriction function to every tree map, contravariantly.  Two storage
strategies are provided:

- :class:`NerveDendroidalSet` is the nerve of a finite operad: the value at a
  tree is the set of operad maps out of the tree's operad (a color per edge
  plus an operation per vertex).  A restriction compiles each vertex's
  operation witness, once per coloring of the target, into a flat program of
  decoration picks, identities, compositions and permutations, and runs it
  on every value.  Values are computed on demand for every tree within the
  operad's arity bound and never cached.
- :class:`TableDendroidalSet` stores explicit value sets and generator
  actions (elementary faces, degeneracies, automorphisms); restrictions along
  arbitrary maps are derived by factorization.

On top of these sit the corolla boundary tables of the Segal core, the
exact strict-Segal bijection check, and the reconstruction of an operad
from any strict-Segal dendroidal set, with its isomorphism to the operad
checked on both operads' integer tables in `dendrokit.laws`.

The strict-Segal check and the reconstruction read the Segal core the same
way, and neither hashes value tuples.  Per corolla arity, a boundary table
holds the ids of each corolla value's root and leaf restrictions.  Per
vertex of a tree, an index column holds the position among the corolla's
values of each value's restriction to that vertex.  Nerves compute the
columns in closed form from their value order; table sets restrict value by
value.  The check tests image inside the core as an equality of boundary
ids per inner edge and injectivity as `np.unique` on mixed-radix keys of
the columns, and counts the core by dynamic programming over the vertex
tree.  Reconstruction groups corolla values by their boundary ids into hom
sets, and inverts the Segal bijection on a grafted tree by indexing its
values by their columns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, charge
from .morphisms import (
    OmegaMorphism,
    degeneracies,
    degeneracy_at,
    elementary_faces,
    factorize,
    operation_exists,
)
from .operads import FiniteOperad, Signature, perm_inverse
from .trees import (
    Tree,
    automorphisms,
    canonicalize_node,
    corolla,
    leaf_tree,
    parse_tree,
)

ETA = leaf_tree()


# -- standard small morphisms -------------------------------------------------


def edge_inclusion(t: Tree, edge) -> OmegaMorphism:
    """The map from the one-edge tree picking out `edge` of `t`."""
    return OmegaMorphism(ETA, t, {(): edge}, _checked=True)


def subcorolla_inclusion(t: Tree, vertex) -> OmegaMorphism:
    """The corolla around `vertex` included into `t`: root to the vertex's
    output edge, leaf i to its i-th input edge."""
    kids = t.children(vertex)
    source = corolla(len(kids))
    edge_map = {(): vertex}
    for i, c in enumerate(kids):
        edge_map[(i,)] = c
    return OmegaMorphism(source, t, edge_map, _checked=True)


def automorphism_of(t: Tree, addr_map) -> OmegaMorphism:
    return OmegaMorphism(t, t, addr_map, _checked=True)


def leaf_relabel_automorphism(n, perm) -> OmegaMorphism:
    """The corolla automorphism sending leaf i to leaf perm[i]."""
    t = corolla(n)
    edge_map = {(): ()}
    for i in range(n):
        edge_map[(i,)] = (perm[i],)
    return OmegaMorphism(t, t, edge_map, _checked=True)


def grafted_two_level_tree(child_arities):
    """The tree with a root vertex whose j-th input carries a vertex
    with child_arities[j] leaf inputs.  Returns (tree, address map): the map
    sends the raw address (j,) of slot j and (j, i) of its i-th leaf to
    their canonical addresses in the tree."""
    raw_children = []
    for k in child_arities:
        raw_children.append((tuple((None, None) for _ in range(k)), None))
    canon, cmap = canonicalize_node((tuple(raw_children), None))
    return Tree(canon, _canonical=True), cmap


# -- nerve ---------------------------------------------------------------------


class NerveDendroidalSet:
    """The dendroidal nerve of a finite operad.

    Elements at a tree T are pairs (edge colors, vertex operations) indexed
    by T's canonical edge and vertex orders.  The value at any tree within
    the operad's arity bound is available; `trees` only fixes the default
    carrier used by checks.
    """

    def __init__(self, operad: FiniteOperad, trees=None, budget=None):
        self.operad = operad
        self.trees = tuple(trees) if trees is not None else None
        self.budget = budget

    @property
    def name(self):
        return f"nerve({self.operad.name})"

    def values(self, t: Tree):
        out = []
        for coloring, pools, _size in self.value_blocks(t):
            colors = tuple(coloring[e] for e in t.edges)
            for decs in itertools.product(*pools):
                out.append((colors, decs))
        return tuple(out)

    def value_blocks(self, t: Tree):
        """The values at `t` in blocks, one per edge coloring in value order:
        (coloring, hom pool at each vertex, block size).  Within a block the
        values are the product of the pools, the last vertex varying
        fastest."""
        P = self.operad
        if P.arity_bound is not None:
            max_in = max((len(t.children(v)) for v in t.vertices), default=0)
            if max_in > P.arity_bound:
                raise DomainError(
                    "tree exceeds operad arity bound",
                    {"tree": t.term, "bound": P.arity_bound},
                )
        blocks = []
        total = 0
        for coloring in self._colorings(t):
            pools = [
                P.hom(tuple(coloring[c] for c in t.children(v)), coloring[v])
                for v in t.vertices
            ]
            size = math.prod(map(len, pools))
            total += size
            charge("nerve values", total, self.budget)
            blocks.append((coloring, pools, size))
        return blocks

    def corolla_columns(self, t: Tree, index, blocks=None):
        """Per vertex v of `t`, the index array sending value i at `t` to the
        index of its restriction to the subcorolla at v, where ``index[k]``
        is the index of every k-corolla value (`corolla_values`).

        No value tuple is built: the restriction keeps v's own decoration,
        which is the digit ``(i // stride_v) % radix_v`` of i's position in
        its coloring block, read through v's hom pool.
        """
        if blocks is None:
            blocks = self.value_blocks(t)
        verts = t.vertices
        arities = [len(t.children(v)) for v in verts]
        columns = [[] for _ in verts]
        for coloring, pools, size in blocks:
            if not size:
                continue
            stride = size
            for vi, v in enumerate(verts):
                pool = pools[vi]
                stride //= len(pool)
                colors = (coloring[v],) + tuple(coloring[c] for c in t.children(v))
                ids = index[arities[vi]]
                lookup = np.array([ids[(colors, (el,))] for el in pool], dtype=np.int64)
                digits = np.repeat(lookup, stride)
                columns[vi].append(np.tile(digits, size // len(digits)))
        return [np.concatenate(c) if c else np.zeros(0, np.int64) for c in columns]

    def _colorings(self, t: Tree):
        P = self.operad
        if len(P.colors) == 1:
            return [{e: P.colors[0] for e in t.edges}]
        # assign colors edge by edge, pruning on fully colored vertices
        colorings = [{}]
        for e in t.edges:
            new = []
            for partial in colorings:
                for c in P.colors:
                    cand = dict(partial)
                    cand[e] = c
                    ok = True
                    nearby = [] if t.is_leaf(e) else [e]
                    if e:
                        nearby.append(e[:-1])
                    for v in nearby:
                        kids = t.children(v)
                        if all(k in cand for k in kids) and v in cand:
                            if not P.hom(tuple(cand[k] for k in kids), cand[v]):
                                ok = False
                                break
                    if ok:
                        new.append(cand)
            colorings = new
            charge("nerve colorings", len(colorings), self.budget)
        return colorings

    def restrict(self, m: OmegaMorphism):
        """The contravariant action: a function values(target) -> values(source).

        Every witness is compiled, once per coloring of the target, into a
        post-order program that makes the operad calls of evaluating the
        witness recursively, with the same arguments and in the same order;
        by the unit law a vertex with identity inputs in order is a pick of
        its decoration, not a composition.
        """
        source, target = m.source, m.target
        edge_pos = {e: i for i, e in enumerate(target.edges)}
        vertex_pos = {v: i for i, v in enumerate(target.vertices)}
        color_plan = tuple(edge_pos[m(e)] for e in source.edges)
        witnesses = [
            operation_exists(target, m(v), tuple(m(c) for c in source.children(v)))
            for v in source.vertices
        ]
        P = self.operad
        programs = {}

        def act(element):
            colors, decs = element
            program = programs.get(colors)
            if program is None:
                program = programs[colors] = _compile_restriction(
                    witnesses, target, colors, edge_pos, vertex_pos
                )
            stack = []
            for op, arg, sig, n, child_sigs, perm, concat_sig in program:
                if op is _PICK:
                    stack.append(decs[arg])
                elif op is _IDENTITY:
                    stack.append(P.identity(arg))
                else:
                    k = len(stack) - n
                    children = stack[k:]
                    del stack[k:]
                    el = P.compose(decs[arg], sig, children, list(child_sigs))
                    if perm is not None:
                        el = P.sigma(el, concat_sig, perm)
                    stack.append(el)
            return (tuple([colors[i] for i in color_plan]), tuple(stack))

        return act

    def element_str(self, t: Tree, element):
        colors, decs = element
        parts = []
        if len(self.operad.colors) > 1:
            parts.append("|".join(str(c) for c in colors))
        parts.extend(self.operad.element_str(d) for d in decs)
        return ";".join(parts) if parts else "*"


# restriction program steps: (op, arg, sig, n, child_sigs, perm, concat_sig)
_PICK, _IDENTITY, _COMPOSE = "pick", "identity", "compose"


def _is_vertex_pick(w):
    """Whether the witness is one vertex with identity inputs in order."""
    return (
        not w.is_identity
        and all(c.is_identity for c in w.children)
        and w.perm == tuple(range(len(w.perm)))
    )


def _compile_restriction(witnesses, target, colors, edge_pos, vertex_pos):
    """The post-order program evaluating `witnesses` in turn on the target
    decorations, at the coloring `colors` of `target`."""
    program = []

    def emit(w):
        # append the steps evaluating `w` and return its signature
        out = colors[edge_pos[w.output]]
        if w.is_identity:
            program.append((_IDENTITY, out, None, 0, None, None, None))
            return Signature((out,), out)
        kids = target.children(w.output)
        parent_sig = Signature(tuple(colors[edge_pos[c]] for c in kids), out)
        vi = vertex_pos[w.output]
        if _is_vertex_pick(w):
            program.append((_PICK, vi, None, 0, None, None, None))
            return parent_sig
        child_sigs = tuple(emit(c) for c in w.children)
        concat = tuple(c for s in child_sigs for c in s.inputs)
        sig = Signature(concat, out)
        perm = None if w.perm == tuple(range(len(w.perm))) else w.perm
        program.append((_COMPOSE, vi, parent_sig, len(child_sigs), child_sigs, perm, sig))
        if perm is None:
            return sig
        return Signature(tuple(concat[i] for i in perm), out)

    for w in witnesses:
        emit(w)
    return tuple(program)


def nerve(operad: FiniteOperad, trees=None, budget=None) -> NerveDendroidalSet:
    """The dendroidal nerve of `operad`, optionally pinned to a carrier."""
    return NerveDendroidalSet(operad, trees=trees, budget=budget)


# -- explicit tables -------------------------------------------------------------


def morphism_key(m: OmegaMorphism):
    return (
        m.source.key,
        m.target.key,
        tuple(sorted((s, t) for s, t in m.map.items())),
    )


class TableDendroidalSet:
    """A dendroidal set with explicit finite value sets and generator actions.

    Actions must be stored for the elementary faces, degeneracies and
    automorphisms among carrier trees that the presheaf intends to support;
    restriction along any other map is derived by factorization.  Missing
    actions raise DomainError, which the Segal checker reports as failures.
    """

    def __init__(self, trees, values, actions, name="table"):
        self.trees = tuple(trees)
        self._values = {t: tuple(v) for t, v in values.items()}
        self._actions = dict(actions)
        self.name = name

    def values(self, t: Tree):
        try:
            return self._values[t]
        except KeyError:
            raise DomainError("tree not in carrier", {"tree": t.term})

    def restrict(self, m: OmegaMorphism):
        key = morphism_key(m)
        if key in self._actions:
            return self._lookup(m, self._actions[key])
        if m.source == m.target and m.is_isomorphism() and all(
            m(e) == e for e in m.source.edges
        ):
            return lambda el: el
        # derive from generators
        fact = factorize(m)
        steps = []
        for sigma in fact.degeneracies:
            steps.append(sigma)
        steps.append(fact.isomorphism)
        steps.extend(f.morphism for f in fact.faces)
        actions = []
        for step in steps:
            skey = morphism_key(step)
            if all(step(e) == e for e in step.source.edges) and step.source == step.target:
                actions.append(lambda el: el)
            elif skey in self._actions:
                actions.append(self._lookup(step, self._actions[skey]))
            else:
                raise DomainError(
                    "missing generator action",
                    {"morphism": step.to_json()},
                )

        def act(element):
            # contravariant: the last applied map acts first
            for fn in reversed(actions):
                element = fn(element)
            return element

        return act

    @staticmethod
    def _lookup(m: OmegaMorphism, table):
        """The stored action along `m`; a value it has no entry for raises
        DomainError naming the morphism and the value."""

        def act(el):
            try:
                return table[el]
            except KeyError:
                raise DomainError(
                    "stored action has no entry for value",
                    {"morphism": m.to_json(), "value": str(el)},
                ) from None

        return act

    def element_str(self, t: Tree, element):
        return str(element)

    def to_json(self):
        text = {}  # str of every value met, so that each is stringified once

        def as_text(e):
            s = text.get(e)
            if s is None:
                s = text[e] = str(e)
            return s

        trees = [t.term for t in self.trees]
        values = {t.term: [as_text(e) for e in self._values[t]] for t in self.trees}
        by_key = {t.key: t for t in self.trees}
        actions = []
        # entries in the order of str((key, item)): keys are distinct and
        # their reprs are prefix-free literals, so repr(key) alone fixes it;
        # a tuple's repr is its str
        for skey, tkey, pairs in sorted(self._actions, key=repr):
            table = self._actions[skey, tkey, pairs]
            m = OmegaMorphism(by_key[skey], by_key[tkey], dict(pairs), _checked=True)
            rows = sorted(
                ((as_text(k) if type(k) is tuple else repr(k), k, v) for k, v in table.items()),
                key=lambda row: row[0],
            )
            actions.append(
                {
                    "morphism": m.to_json(),
                    "map": {as_text(k): as_text(v) for _, k, v in rows},
                }
            )
        return {"trees": trees, "values": values, "actions": actions}

    @classmethod
    def from_json(cls, payload, name="table"):
        trees = [parse_tree(term) for term in payload["trees"]]
        values = {}
        by_key = {}
        for t, term in zip(trees, payload["trees"]):
            values[t] = tuple(payload["values"][term])
            by_key[t.key] = t
        actions = {}
        for entry in payload["actions"]:
            m = OmegaMorphism.from_json(entry["morphism"])
            actions[morphism_key(m)] = dict(entry["map"])
        return cls(trees, values, actions, name=name)


def carrier_closure(seeds, budget=None):
    """Close a batch of trees under elementary-face sources and degeneracy
    targets; returns a deterministic list."""
    seen = {}
    stack = list(seeds)
    while stack:
        t = stack.pop()
        if t.key in seen:
            continue
        seen[t.key] = t
        charge("carrier closure", len(seen) * 4, budget)
        for face in elementary_faces(t):
            if face.morphism.source.key not in seen:
                stack.append(face.morphism.source)
        for sigma in degeneracies(t):
            if sigma.target.key not in seen:
                stack.append(sigma.target)
    return sorted(seen.values(), key=lambda t: (len(t.edges), t.key))


def materialize(X: NerveDendroidalSet, trees, name=None):
    """Snapshot a nerve into an explicit TableDendroidalSet on `trees`,
    storing actions for all faces, degeneracies and automorphisms."""
    trees = sorted(trees, key=lambda t: (len(t.edges), t.key))
    values = {t: X.values(t) for t in trees}
    keys = {t.key for t in trees}
    actions = {}

    def store(m):
        fn = X.restrict(m)
        actions[morphism_key(m)] = {el: fn(el) for el in values[m.target]}

    for t in trees:
        for face in elementary_faces(t):
            if face.morphism.source.key in keys:
                store(face.morphism)
        for sigma in degeneracies(t):
            if sigma.target.key in keys:
                store(sigma)
        for alpha in automorphisms(t):
            if any(alpha[e] != e for e in t.edges):
                store(automorphism_of(t, alpha))
    return TableDendroidalSet(trees, values, actions, name=name or X.name)


# -- Segal cores ------------------------------------------------------------------


def corolla_values(X, k):
    """The distinct values at the k-corolla in first-occurrence order, and
    the index of each; the Segal check's columns refer to these indices."""
    values = tuple(dict.fromkeys(X.values(corolla(k))))
    return values, {el: i for i, el in enumerate(values)}


@dataclass
class CorollaBoundary:
    """The k-corolla's values with their one-edge restrictions as ids:
    `root[j]` and `leaves[j, slot]` for corolla value j."""

    values: tuple
    index: dict
    root: np.ndarray
    leaves: np.ndarray


def _corolla_boundary(X, k, edge_ids):
    """Boundary arrays of the k-corolla; one-edge values are interned into
    `edge_ids`, shared across arities so that ids compare across corollas."""
    tk = corolla(k)
    root_r = X.restrict(edge_inclusion(tk, ()))
    leaf_r = [X.restrict(edge_inclusion(tk, (i,))) for i in range(k)]
    values, index = corolla_values(X, k)

    def ids(restricted):
        return [edge_ids.setdefault(y, len(edge_ids)) for y in restricted]

    root = np.array(ids(root_r(el) for el in values), dtype=np.int64)
    leaves = np.array(
        [ids(r(el) for r in leaf_r) for el in values], dtype=np.int64
    ).reshape(len(values), k)
    return CorollaBoundary(values, index, root, leaves)


@dataclass
class SegalReport:
    name: str
    checked: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures

    def to_json(self):
        return {
            "dendroidal_set": self.name,
            "trees_checked": len(self.checked),
            "passed": self.passed,
            "failures": self.failures,
        }


def _core_count(t: Tree, boundary):
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
        b = boundary[len(kids)]
        acc = {}
        for root_val, leaf_vals in zip(b.root.tolist(), b.leaves.tolist()):
            ways = 1
            for slot, ci in links:
                ways *= counts[ci].get(leaf_vals[slot], 0)
                if ways == 0:
                    break
            if ways:
                acc[root_val] = acc.get(root_val, 0) + ways
        counts[vi] = acc
    return sum(counts[0].values())


def _value_columns(X, t: Tree, boundary, budget):
    """Charge the check for the values at `t` and return their corolla
    columns: per vertex, the index of each value's restriction to the
    subcorolla there.  Nerves compute them in closed form; any other
    dendroidal set restricts value by value."""
    if isinstance(X, NerveDendroidalSet):
        blocks = X.value_blocks(t)
        charge("segal check values", sum(size for *_, size in blocks), budget)
        return X.corolla_columns(t, {k: b.index for k, b in boundary.items()}, blocks)
    values = X.values(t)
    charge("segal check values", len(values), budget)
    restrictors = [X.restrict(subcorolla_inclusion(t, v)) for v in t.vertices]
    columns = []
    for v, r in zip(t.vertices, restrictors):
        k = len(t.children(v))
        restricted = [r(x) for x in values]
        index = boundary[k].index
        for y in restricted:
            if y not in index:
                raise DomainError(
                    "restriction is not a corolla value",
                    {"tree": corolla(k).term, "value": str(y)},
                )
        columns.append(np.array([index[y] for y in restricted], dtype=np.int64))
    return columns


def _first_repeat(columns, radices):
    """The first row of the stacked columns equal to an earlier row, or None.
    Rows are keyed as mixed-radix int64 numbers unless that could overflow."""
    n = len(columns[0])
    if math.prod(radices) < 2**63:
        key = np.zeros(n, dtype=np.int64)
        for column, radix in zip(columns, radices):
            key = key * radix + column
        _, first = np.unique(key, return_index=True)
    else:
        _, first = np.unique(np.stack(columns, axis=1), axis=0, return_index=True)
    if len(first) == n:
        return None
    repeated = np.ones(n, dtype=bool)
    repeated[first] = False
    return int(np.flatnonzero(repeated)[0])


def _segal_failure(t: Tree, columns, boundary):
    """The failure record at `t`, or None.  Reports the first value, in value
    order, whose family repeats an earlier one or leaves the core; with
    neither, the map is injective into the core and is onto exactly when
    the value count equals the core count."""
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
    # a repeated family equals an earlier one, which would leave the core
    # first; so a repeat ahead of `first` is the earliest failure
    repeat = _first_repeat(columns, [len(boundary[k].values) for k in arities])
    if repeat is not None and repeat < first:
        first, reason = repeat, "not injective"
    if reason is not None:
        family = tuple(
            boundary[k].values[column[first]] for k, column in zip(arities, columns)
        )
        return {"tree": t.term, "reason": reason, "family": str(family)}
    core_count = _core_count(t, boundary)
    if n != core_count:
        return {
            "tree": t.term,
            "reason": "not surjective",
            "value_count": n,
            "core_count": core_count,
        }
    return None


def is_strict_segal(X, trees=None, budget=None) -> SegalReport:
    """Exact bijectivity of the value-to-core map at every carrier tree.

    The map is computed on index arrays, not on value tuples: for each
    vertex v of a tree T, a column holds the index of every value's
    restriction to the subcorolla at v, and per corolla arity the boundary
    arrays hold the ids of each corolla value's root and leaf restrictions.
    Image inside the core is one array equality per inner edge, injectivity
    is `np.unique` on mixed-radix keys of the columns, and the core is
    counted by dynamic programming over the vertex tree; an injective map
    into the core with as many values as core families is a bijection.
    """
    if trees is None:
        trees = X.trees
    if trees is None:
        raise DomainError("no carrier given for the Segal check")
    report = SegalReport(getattr(X, "name", "dendroidal set"))
    boundary, edge_ids = {}, {}
    for t in trees:
        try:
            report.checked.append(t.term)
            if not t.vertices:
                # the core is the value set itself and the map is the identity
                X.values(t)
                continue
            for k in set(len(t.children(v)) for v in t.vertices):
                if k not in boundary:
                    boundary[k] = _corolla_boundary(X, k, edge_ids)
            columns = _value_columns(X, t, boundary, budget)
            failure = _segal_failure(t, columns, boundary)
            if failure is not None:
                report.failures.append(failure)
        except DomainError as err:
            report.failures.append(
                {"tree": t.term, "reason": "restriction unavailable", "detail": err.payload()}
            )
    return report


# -- operad reconstruction ----------------------------------------------------------


class ReconstructedOperad(FiniteOperad):
    """The operad carried by a strict-Segal dendroidal set.

    Colors are the values at the one-edge tree; arity-n operations are the
    values at the n-corolla grouped by the ids of their edge restrictions in
    the Segal boundary table; composition inverts the Segal bijection on a
    two-level grafted tree, whose values are indexed by their Segal columns,
    and restricts along the full-corolla map; identities are degeneracy
    images.
    """

    name = "reconstructed"

    def __init__(self, X, arity_bound, budget=None):
        self.X = X
        self.arity_bound = arity_bound
        self.budget = budget
        self.colors = tuple(X.values(ETA))
        self._boundary, self._edge_ids = {}, {}
        self._homs = {}
        self._graft_plans = {}
        self._graft_rows = {}
        self._sigma_acts = {}
        self._identities = None

    def _corolla(self, k):
        if k not in self._boundary:
            self._boundary[k] = _corolla_boundary(self.X, k, self._edge_ids)
        return self._boundary[k]

    def hom(self, inputs, output):
        n = len(inputs)
        self.check_arity(n)
        if n not in self._homs:
            b = self._corolla(n)
            groups = {}
            for el, root, leaves in zip(b.values, b.root.tolist(), b.leaves.tolist()):
                groups.setdefault((tuple(leaves), root), []).append(el)
            self._homs[n] = {key: tuple(els) for key, els in groups.items()}
        ids = self._edge_ids
        key = (tuple(ids.get(c) for c in inputs), ids.get(output))
        return self._homs[n].get(key, ())

    def identity(self, color):
        if self._identities is None:
            sigma = degeneracy_at(corolla(1), ())
            # degeneracy: 1-corolla -> one-edge tree; its action makes identities
            act = self.X.restrict(sigma)
            self._identities = {c: act(c) for c in self.colors}
        return self._identities[color]

    def compose(self, parent, parent_sig, children, child_sigs):
        key = (parent_sig.arity, tuple(s.arity for s in child_sigs))
        if key not in self._graft_plans:
            self._graft_plans[key] = self._graft_plan(*key)
        slot_order, total_r, rows = self._graft_plans[key]
        family = (parent,) + tuple(children)
        try:
            z = rows[tuple(ids[family[j]] for j, ids in slot_order)]
        except KeyError:
            raise DomainError(
                "no grafted element restricting to the given family; "
                "the dendroidal set is not strict Segal on the grafted tree"
            )
        return total_r(z)

    def _graft_plan(self, n, arities):
        """(slot order, full-corolla restriction, rows of the grafted tree).
        The slot order lists, per vertex of the tree, the family member at it
        and the table from that member to its column id.  Slot j is the
        root's pos[j]-th input, so the parent, given in slot order, reaches
        the root's column through a leaf relabelling.  The grafted tree's
        values are read before the full-corolla restriction is derived, so
        a tree outside a table set's carrier is named as such."""
        tree, cmap = grafted_two_level_tree(arities)
        order = perm_inverse([cmap[(j,)][0] for j in range(n)])  # inverse of pos
        b = self._corolla(n)
        relabel = self.X.restrict(leaf_relabel_automorphism(n, order))
        root_ids = {el: b.index.get(relabel(el), -1) for el in b.values}
        slot_order = [(0, root_ids)]
        slot_order.extend((1 + j, self._corolla(arities[j]).index) for j in order)
        if tree not in self._graft_rows:
            self._graft_rows[tree] = self._grafted_rows(tree)
        leaves = [cmap[(j, i)] for j, k in enumerate(arities) for i in range(k)]
        total_map = {(): ()} | {(p,): e for p, e in enumerate(leaves)}
        total = OmegaMorphism(corolla(len(leaves)), tree, total_map, _checked=True)
        return slot_order, self.X.restrict(total), self._graft_rows[tree]

    def _grafted_rows(self, tree):
        """The values at a grafted tree keyed by their Segal columns' ids,
        in vertex order."""
        values = self.X.values(tree)
        charge("reconstruction graft values", len(values), self.budget)
        columns = _value_columns(self.X, tree, self._boundary, self.budget)
        rows = dict(zip(zip(*(c.tolist() for c in columns)), values))
        if len(rows) < len(values):
            raise DomainError(
                "grafted tree value restricts non-uniquely; "
                "the dendroidal set is not strict Segal"
            )
        return rows

    def sigma(self, element, sig, perm):
        perm = tuple(perm)
        if perm not in self._sigma_acts:
            self._sigma_acts[perm] = self.X.restrict(leaf_relabel_automorphism(len(perm), perm))
        return self._sigma_acts[perm](element)

    def element_str(self, element):
        return str(element)


def reconstruct_operad(X, arity_bound, budget=None) -> ReconstructedOperad:
    return ReconstructedOperad(X, arity_bound, budget=budget)


# -- isomorphism witnesses ------------------------------------------------------


@dataclass
class IsomorphismWitness:
    color_map: dict
    element_maps: dict  # signature -> {P element: Q element}
    checks: int
    failures: list

    @property
    def ok(self):
        return not self.failures

    def to_json(self):
        return {
            "ok": self.ok,
            "colors": {str(k): str(v) for k, v in self.color_map.items()},
            "signatures": {
                str(sig): {str(a): str(b) for a, b in table.items()}
                for sig, table in sorted(self.element_maps.items(), key=str)
            },
            "instances_checked": self.checks,
            "failures": self.failures,
        }


def verify_operad_isomorphism(P, Q, color_map, element_map, arity_bound, budget=None):
    """Check that (color_map, element_map) is an operad isomorphism P -> Q on
    all signatures and composition/symmetry instances within the bound.

    `element_map(sig, element)` translates a P element at a P signature.
    The check compares integer tables of both operads (`dendrokit.laws`).
    """
    from . import laws  # here, so that importing this module compiles no checker

    found = laws.check_isomorphism(P, Q, color_map, element_map, arity_bound, budget)
    return IsomorphismWitness(dict(color_map), *found)


def nerve_round_trip(P: FiniteOperad, arity_bound, budget=None) -> IsomorphismWitness:
    """Reconstruct the operad from its nerve and verify the canonical
    comparison map is an isomorphism; the returned witness carries the color
    and per-signature element bijections."""
    X = nerve(P, budget=budget)
    Q = reconstruct_operad(X, arity_bound, budget=budget)

    def element_of(sig, el):
        # the nerve element at the corolla: root then leaf colors, one vertex
        return ((sig.output, *sig.inputs), (el,))

    # and a color's, at the one-edge tree: one color, no vertices
    color_map = {c: ((c,), ()) for c in P.colors}
    return verify_operad_isomorphism(
        P, Q, color_map, element_of, arity_bound, budget=budget
    )
