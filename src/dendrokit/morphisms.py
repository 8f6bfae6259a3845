"""The category of rooted trees at finite scale.

Every tree ``T`` generates a colored operad whose colors are the edges of
``T`` and whose operations are generated by the vertices.  A morphism of
trees ``S -> T`` is a map of these operads; since the generated operads have
at most one operation per ordered signature, a morphism is determined by a
total edge map, and validity means that every source vertex lands on an
existing operation of the target.  Morphisms need not preserve the root.

This module implements: operation existence with explicit composite
witnesses, morphism validation and composition, brute-force hom-set
enumeration with per-vertex pruning, elementary faces (codimension one in
vertices, classified inner/outer), degeneracies (unary vertex collapses),
the degeneracies-then-faces factorization, subtree inclusions, and the
predicates cutting out the standard subfamilies of trees (bounded valence,
reduced trees, reduced and extended corollas).

Elementary faces are constructed, not searched for: one inner face per
inner-edge contraction, one outer face per removable top vertex, and one
per root input whose siblings are all leaves.  One walker builds the
source of every face and subtree inclusion, keeping the target's child
order, so each face is built as the least map in its orbit under source
automorphisms and faces are ordered by (source key, images) with nothing
normalized or deduplicated.  Subtree inclusions are built valid as well:
an edge subset only ever leaves out closed branches, so no candidate is
validated and dropped.  Extended corollas are read off the degeneracy
chain of `shorten`.

Three memos share one bound, ``_CACHE_SIZE`` entries each, and nothing
per tree is rebuilt per call:

- the operation table of a tree: for every edge its input sets in order,
  as a frozenset for membership (`validate_morphism`, `TreeOperad`) and
  grouped by arity (`hom_set`);
- the elementary faces of a tree, each with its image and its inverse
  edge map, which `factorize` peels against;
- the degeneracy per (tree, unary vertex), so `factorize`, `degeneracies`,
  `shorten`, the dendroidal carrier closure and `materialize` collapse each
  pair once.

Memoized morphisms are shared; `OmegaMorphism.map` hands out a copy of the
edge map.  `hom_set` builds each map as one tuple of images and a
factorization's composite is checked as one composed edge map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError, charge
from .trees import (
    LEAF,
    Tree,
    canonicalize_node,
    format_address,
    parse_address,
    parse_tree,
    reduced_corolla,
)

# Bound on the per-tree memos (operation tables, elementary faces,
# degeneracies); it stays above the largest carrier the library enumerates
# by default.
_CACHE_SIZE = 4096

# -- operations of the operad generated by a tree -------------------------


@dataclass(frozen=True)
class OpWitness:
    """A composite operation of the operad generated by a tree.

    ``children`` is None for the identity operation on ``output``.  Otherwise
    there is one child witness per input of the vertex at ``output`` and
    ``perm`` reorders the concatenation of the children's inputs into the
    requested ``inputs`` tuple: ``inputs[i] == concat[perm[i]]``.
    """

    output: tuple
    inputs: tuple
    children: tuple | None = None
    perm: tuple | None = None

    @property
    def is_identity(self):
        return self.children is None

    @property
    def vertices(self):
        """Output edges of all vertices composed into this operation."""
        if self.children is None:
            return frozenset()
        out = {self.output}
        for c in self.children:
            out |= c.vertices
        return frozenset(out)


def operation_exists(t: Tree, output, inputs):
    """Witness for the operation (inputs; output) in the operad of `t`, or
    None when there is no such operation.

    The identity is the single case ``inputs == (output,)``.  Any other
    operation requires a vertex at `output`; the inputs must split into the
    branches above that vertex, each branch must recursively carry an
    operation, and a branch receiving no inputs must be closed (no leaf
    above it).  Repeated input edges never carry an operation.
    """
    inputs = tuple(inputs)
    t.node_at(output)
    for e in inputs:
        t.node_at(e)
    return _op_exists(t, output, inputs)


def _op_exists(t, output, inputs):
    if inputs == (output,):
        return OpWitness(output, inputs)
    if t.is_leaf(output):
        return None
    if len(set(inputs)) != len(inputs):
        return None
    kids = t.children(output)
    if inputs == kids:  # the vertex itself, with its inputs in order
        identities = tuple(OpWitness(k, (k,)) for k in kids)
        return OpWitness(output, inputs, identities, tuple(range(len(kids))))
    buckets = {k: [] for k in kids}
    for e in inputs:
        for k in kids:
            if t.below(k, e):
                buckets[k].append(e)
                break
        else:
            return None
    children = []
    for k in kids:
        w = _op_exists(t, k, tuple(buckets[k]))
        if w is None:
            return None
        children.append(w)
    concat = [e for k in kids for e in buckets[k]]
    perm = tuple(concat.index(e) for e in inputs)
    return OpWitness(output, inputs, tuple(children), perm)


class _EdgeOperations(NamedTuple):
    """The operations (I; e) of a tree's operad into one edge `e`, by input
    set: ``sets`` in order of their sorted tuples, ``members`` for
    membership and ``by_arity`` mapping each size to its sorted tuples, in
    the order of ``sets``."""

    sets: tuple
    members: frozenset
    by_arity: dict


@lru_cache(maxsize=_CACHE_SIZE)
def _input_sets(t: Tree):
    """The operation table of `t`: an `_EdgeOperations` for every edge.

    The identity set {e} is always present.  The empty set is present
    exactly when the branch above `e` is closed: stumps contribute it as the
    empty union over their zero inputs and it propagates downward.
    """
    table = {}

    def rec(e):
        if e in table:
            return table[e].members
        sets = {frozenset({e})}
        if not t.is_leaf(e):
            options = [rec(c) for c in t.children(e)]
            for combo in itertools.product(*options):
                sets.add(frozenset().union(*combo))
        ordered = sorted((tuple(sorted(s)), s) for s in sets)
        by_arity = {}
        for key, _ in ordered:
            by_arity.setdefault(len(key), []).append(key)
        table[e] = _EdgeOperations(
            tuple(s for _, s in ordered),
            frozenset(sets),
            {n: tuple(keys) for n, keys in by_arity.items()},
        )
        return table[e].members

    for e in t.edges:
        rec(e)
    return table


# -- morphisms -------------------------------------------------------------


class OmegaMorphism:
    """A validated map of trees, stored as a total edge map.

    Construction raises DomainError when some source vertex does not land on
    an operation of the target; use :func:`validate_morphism` to test first.
    """

    __slots__ = ("source", "target", "_map", "_items")

    def __init__(self, source: Tree, target: Tree, edge_map, _checked=False):
        self.source = source
        self.target = target
        self._map = dict(edge_map)
        try:
            self._items = tuple(self._map[e] for e in source.edges)
            total = len(self._map) == len(self._items)
        except KeyError:
            total = False
        if not total:
            raise DomainError("edge map is not total on the source tree")
        if not _checked and not validate_morphism(source, target, self._map):
            raise DomainError(
                "edge map is not a morphism of trees",
                {"source": source.term, "target": target.term},
            )

    @classmethod
    def _from_images(cls, source: Tree, target: Tree, images):
        """The map sending ``source.edges[i]`` to ``images[i]``, taken as
        valid and total without checking."""
        m = cls.__new__(cls)
        m.source = source
        m.target = target
        m._items = images
        m._map = dict(zip(source.edges, images))
        return m

    @property
    def map(self):
        return dict(self._map)

    def __call__(self, addr):
        return self._map[addr]

    def is_injective(self):
        return len(set(self._items)) == len(self._items)

    def image(self):
        return frozenset(self._items)

    def is_isomorphism(self):
        """Bijective and child-relation preserving (hence invertible)."""
        if self.source.key != self.target.key:
            return False
        if len(set(self._items)) != len(self.target.edges):
            return False
        for e in self.source.edges:
            if self.source.is_leaf(e):
                if not self.target.is_leaf(self._map[e]):
                    return False
            else:
                img = {self._map[c] for c in self.source.children(e)}
                if img != set(self.target.children(self._map[e])):
                    return False
        return True

    def then(self, other: "OmegaMorphism") -> "OmegaMorphism":
        """Composite: self followed by `other`."""
        if self.target != other.source:
            raise DomainError("morphisms are not composable")
        composite = {e: other._map[t] for e, t in self._map.items()}
        return OmegaMorphism(self.source, other.target, composite, _checked=True)

    @classmethod
    def identity(cls, t: Tree):
        return cls(t, t, {e: e for e in t.edges}, _checked=True)

    def to_json(self):
        return {
            "source_key": self.source.term,
            "target_key": self.target.term,
            "edge_map": {
                format_address(s): format_address(t) for s, t in sorted(self._map.items())
            },
        }

    @classmethod
    def from_json(cls, payload):
        source = parse_tree(payload["source_key"])
        target = parse_tree(payload["target_key"])
        edge_map = {
            parse_address(k): parse_address(v) for k, v in payload["edge_map"].items()
        }
        return cls(source, target, edge_map)

    def __eq__(self, other):
        return (
            isinstance(other, OmegaMorphism)
            and self.source == other.source
            and self.target == other.target
            and self._items == other._items
        )

    def __hash__(self):
        return hash((self.source, self.target, self._items))

    def __repr__(self):
        pairs = ", ".join(
            f"{format_address(s) or 'r'}>{format_address(t) or 'r'}"
            for s, t in sorted(self._map.items())
        )
        return f"OmegaMorphism({self.source.term} -> {self.target.term}; {pairs})"


def validate_morphism(source: Tree, target: Tree, edge_map) -> bool:
    """True iff every source vertex lands on an operation of the target."""
    if set(edge_map) != set(source.edges):
        return False
    table = _input_sets(target)
    if any(v not in table for v in edge_map.values()):
        return False
    for v in source.vertices:
        sig = [edge_map[c] for c in source.children(v)]
        if len(set(sig)) != len(sig):
            # repeated colors occur only in the identity operation
            return False
        if sig == [edge_map[v]]:
            continue
        if frozenset(sig) not in table[edge_map[v]].members:
            return False
    return True


# -- hom sets ---------------------------------------------------------------


def hom_set(source: Tree, target: Tree, budget=None):
    """All morphisms source -> target in a deterministic order.

    The enumeration recurses over the source tree, choosing for every vertex
    an operation of the target with matching arity, so the naive
    ``|edges(target)| ** |edges(source)|`` space is never materialized; that
    proxy is still what the budget bounds and reports.  A branch yields the
    images of its edges in source preorder, which is how the source edges of
    a whole map are ordered too, so each map is one tuple of images.
    """
    charge("hom_set", len(target.edges) ** len(source.edges), budget)
    table = _input_sets(target)

    def branch(s_addr, t_addr):
        head = (t_addr,)
        if source.is_leaf(s_addr):
            return [head]
        kids = source.children(s_addr)
        out = []
        for iset in table[t_addr].by_arity.get(len(kids), ()):
            for assignment in itertools.permutations(iset):
                subs = []
                for kid, tgt in zip(kids, assignment):
                    sub = branch(kid, tgt)
                    if not sub:
                        break
                    subs.append(sub)
                else:
                    for combo in itertools.product(*subs):
                        out.append(head + tuple(itertools.chain.from_iterable(combo)))
        return out

    results = []
    for t_addr in target.edges:
        results.extend(branch((), t_addr))
    results.sort()
    return [OmegaMorphism._from_images(source, target, images) for images in results]


# -- faces and degeneracies --------------------------------------------------


def _finish(raw_node, raw_map):
    """Canonicalize a raw node; returns (tree, {canonical addr: payload}).
    The keys are the tree's own address tuples, so a morphism built on them
    holds no second copy of the tree's addresses."""
    canon, cmap = canonicalize_node(raw_node)
    tree = Tree(canon, _canonical=True)
    own = dict(zip(tree.edges, tree.edges))
    return tree, {own[cmap[raw]]: payload for raw, payload in raw_map.items()}


def _induced(t: Tree, kept, base=(), leaf=None) -> OmegaMorphism:
    """The inclusion into `t` of the tree on the edges `kept` above `base`.

    A kept edge's inputs are its kept children.  A dropped child with a
    vertex is replaced by its own kept children, one level deep: the only
    dropped edge with kept children is a contracted inner edge.  The edge
    `leaf` loses its vertex and becomes a leaf, which the edge set alone
    cannot say, since removing a stump keeps every edge.  Raw children keep
    `t`'s order, so for an unlabelled `t` every run of isomorphic siblings
    has increasing images after canonicalization: the map is the least of
    its orbit under the source's automorphisms.
    """
    raw_map = {}  # raw address -> address in t, each built once from its parent's

    def rec(e, raw_addr):
        raw_map[raw_addr] = e
        children, label = t.node_at(e)
        if children is LEAF or e == leaf:
            return (LEAF, label)
        raw_children = []
        for c in t.children(e):
            if c in kept:
                spliced = (c,)
            elif t.is_leaf(c):
                continue
            else:
                spliced = [g for g in t.children(c) if g in kept]
            for g in spliced:
                raw_children.append(rec(g, raw_addr + (len(raw_children),)))
        return (tuple(raw_children), label)

    tree, addr_map = _finish(rec(base, ()), raw_map)
    return OmegaMorphism(tree, t, addr_map, _checked=True)


def contract_inner_edge(t: Tree, edge) -> OmegaMorphism:
    """Contract the inner edge `edge`; returns the face (t/edge) -> t."""
    if edge not in t.inner_edges:
        raise DomainError("not an inner edge", {"address": format_address(edge)})
    return _induced(t, frozenset(t.edges) - {edge})


@lru_cache(maxsize=_CACHE_SIZE)
def degeneracy_at(t: Tree, unary) -> OmegaMorphism:
    """Collapse the unary vertex at `unary`, identifying its input and output
    edges; returns the degeneracy t -> (collapsed tree).  Memoized per
    (tree, address), so callers share one morphism."""
    if t.is_leaf(unary) or len(t.children(unary)) != 1:
        raise DomainError("not a unary vertex", {"address": format_address(unary)})
    child = unary + (0,)
    raw_map = {}  # raw address -> address in t, each built once from its parent's

    def rec(node, addr, raw_addr):
        children, label = node
        if addr == unary:
            kids, sub_label = rec(children[0], child, raw_addr)
            raw_map[raw_addr] = unary
            return (kids, label if label is not None else sub_label)
        raw_map[raw_addr] = addr
        if children is LEAF:
            return node
        raw_children = []
        for i, kid in enumerate(children):
            raw_children.append(rec(kid, addr + (i,), raw_addr + (i,)))
        return (tuple(raw_children), label)

    tree, addr_map = _finish(rec(t.node_at(()), (), ()), raw_map)
    inverse = {orig: new for new, orig in addr_map.items()}
    sigma = {e: inverse[unary if e == child else e] for e in t.edges}
    return OmegaMorphism(t, tree, sigma, _checked=True)


def degeneracies(t: Tree):
    """One degeneracy per unary vertex, in address order."""
    return [
        degeneracy_at(t, v)
        for v in t.vertices
        if len(t.children(v)) == 1
    ]


@dataclass(frozen=True)
class Face:
    """An elementary face of a tree: a valid edge-injective morphism into it
    whose source has exactly one vertex less.  Inner faces are the inner-edge
    contractions; everything else is outer."""

    morphism: OmegaMorphism
    kind: str
    contracted: tuple | None = None

    def to_json(self):
        data = self.morphism.to_json()
        data["kind"] = self.kind
        if self.contracted is not None:
            data["contracted"] = format_address(self.contracted)
        return data


@lru_cache(maxsize=_CACHE_SIZE)
def _faces(t: Tree):
    """The elementary faces of `t` in order, each with its image and its
    inverse edge map (target address -> source address)."""
    # the key is the canonical unlabelled term, so edge addresses carry over
    shape = parse_tree(t.key) if t.labels else t
    edges = frozenset(shape.edges)
    built = [(_induced(shape, edges - {e}), e) for e in shape.inner_edges]
    for v in shape.vertices:
        # outer face at a top vertex: drop it, its edge becomes a leaf
        kids = shape.children(v)
        if all(shape.is_leaf(k) for k in kids):
            built.append((_induced(shape, edges.difference(kids), leaf=v), None))
    if shape.has_vertex(()):
        # outer face at the root: keep one input's branch, the others being leaves
        kids = shape.children(())
        for c in kids:
            if all(shape.is_leaf(k) for k in kids if k != c):
                built.append((_induced(shape, edges, base=c), None))
    built.sort(key=lambda pair: (pair[0].source.key, pair[0]._items))
    faces = []
    for m, contracted in built:
        if shape is not t:
            m = OmegaMorphism._from_images(m.source, t, m._items)
        face = Face(m, "outer" if contracted is None else "inner", contracted)
        faces.append((face, frozenset(m._items), dict(zip(m._items, m.source.edges))))
    return tuple(faces)


def elementary_faces(t: Tree):
    """All elementary faces of `t`, one per (source iso-class, image map up to
    source automorphisms), sorted by (source key, images) and classified.

    Each face is built directly (Moerdijk-Weiss): an inner face contracts an
    inner edge, which drops a closed branch when the edge ends in a stump;
    an outer face removes a top vertex, whose edge becomes a leaf, or the
    root vertex, keeping the branch at one root input when all the others
    are leaves.  Sources are unlabelled and each face is built as the
    lexicographically least map in its orbit.  Nothing is enumerated, so
    nothing is charged.
    """
    return [face for face, _, _ in _faces(t)]


# -- factorization -----------------------------------------------------------


@dataclass
class Factorization:
    """m = faces[-1] o ... o faces[0] o isomorphism o degeneracies[-1] o ...
    o degeneracies[0]; all lists in order of application."""

    degeneracies: list
    isomorphism: OmegaMorphism
    faces: list

    def composite(self) -> OmegaMorphism:
        """The composite of the chain, built as one edge map; each step must
        start where the previous one ends."""
        chain = self.degeneracies + [self.isomorphism] + [f.morphism for f in self.faces]
        first = chain[0]
        target, images = first.target, first._items
        for step in chain[1:]:
            if target != step.source:
                raise DomainError("morphisms are not composable")
            target, images = step.target, tuple(map(step._map.__getitem__, images))
        return OmegaMorphism._from_images(first.source, target, images)

    def to_json(self):
        return {
            "degeneracies": [d.to_json() for d in self.degeneracies],
            "isomorphism": self.isomorphism.to_json(),
            "faces": [f.to_json() for f in self.faces],
        }


def factorize(m: OmegaMorphism) -> Factorization:
    """Factor `m` as degeneracies, then an isomorphism, then elementary
    faces; the composite of the returned witnesses equals `m` exactly."""
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
        new_map = {}
        # both image tuples follow the source edges, so this pairs each
        # collapsed edge with the images of its fiber
        for e2, image in zip(sigma._items, current._items):
            if new_map.setdefault(e2, image) != image:
                raise DomainError("inconsistent collapse in factorization")
        degs.append(sigma)
        current = OmegaMorphism(sigma.target, m.target, new_map, _checked=True)
    if not current.is_injective():
        raise DomainError(
            "valid morphism failed to become injective after degeneracies",
            {"map": current.to_json()},
        )
    peeled = _peel(current)
    if peeled is None:
        raise DomainError("face factorization search failed", {"map": current.to_json()})
    chain, iso = peeled
    fact = Factorization(degs, iso, chain)
    if fact.composite() != m:
        raise DomainError("factorization composite mismatch")
    return fact


def _peel(g: OmegaMorphism):
    """(faces in order of application, isomorphism) composing to the
    injective map `g`, or None.  Each step takes the first face, in order,
    whose image holds g's image and through which g lifts validly, and
    goes on with the lift."""
    chain = []
    while not g.is_isomorphism():
        g_image = g.image()
        for face, image, inverse in _faces(g.target):
            if not g_image <= image:
                continue
            lift = OmegaMorphism._from_images(
                g.source, face.morphism.source, tuple(map(inverse.__getitem__, g._items))
            )
            if validate_morphism(lift.source, lift.target, lift._map):
                break
        else:
            return None
        chain.append(face)
        g = lift
    chain.reverse()
    return chain, g


# -- subtrees ----------------------------------------------------------------


@dataclass(frozen=True)
class SubtreeInclusion:
    """A connected edge subset whose induced tree includes validly.

    Every included edge that carries a vertex in the ambient tree keeps that
    vertex, restricted to the included inputs; validity of the inclusion says
    exactly that every omitted branch at such a vertex is closed.
    """

    ambient: Tree
    edge_subset: frozenset
    induced: Tree
    inclusion: OmegaMorphism

    @property
    def contains_root(self):
        return () in self.edge_subset

    def to_json(self):
        return {
            "edges": sorted(format_address(e) for e in self.edge_subset),
            "induced": self.induced.term,
            "inclusion": self.inclusion.to_json(),
        }


def subtrees(t: Tree, budget=None):
    """All subtree inclusions of `t`, sorted by size then edge set.

    The edge subsets are built valid rather than filtered: below an included
    vertex a child branch may be left out only when it is closed, i.e. when
    the empty input set carries an operation into it."""
    charge("subtrees", 2 ** len(t.edges), budget)
    closed = {e for e, ops in _input_sets(t).items() if frozenset() in ops.members}

    def rooted(e):
        if t.is_leaf(e):
            return [frozenset({e})]
        options = [([None] if c in closed else []) + rooted(c) for c in t.children(e)]
        out = []
        for combo in itertools.product(*options):
            chosen = [x for x in combo if x is not None]
            out.append(frozenset({e}).union(*chosen) if chosen else frozenset({e}))
        return out

    results = []
    for e in t.edges:
        for subset in rooted(e):
            incl = _induced(t, subset, base=e)
            results.append(SubtreeInclusion(t, subset, incl.source, incl))
    results.sort(key=lambda s: (len(s.edge_subset), tuple(sorted(s.edge_subset))))
    return results


# -- classification ----------------------------------------------------------


def is_reduced(t: Tree) -> bool:
    """No leaves; every maximal edge ends in a stump."""
    return len(t.leaves) == 0


def is_reduced_corolla(t: Tree, n: int) -> bool:
    return t.key == reduced_corolla(n).key


def shorten(t: Tree):
    """Collapse every unary vertex; returns (tree, degeneracy chain applied
    in order).  Idempotent on trees without unary vertices."""
    chain = []
    current = t
    while True:
        unary = [v for v in current.vertices if len(current.node_at(v)[0]) == 1]
        if not unary:
            return current, chain
        sigma = degeneracy_at(current, unary[0])
        chain.append(sigma)
        current = sigma.target


def is_extended_corolla(t: Tree, n: int):
    """(flag, degeneracy chain to the reduced n-corolla when flag is True).

    Extended n-corollas are the reduced trees connected to the reduced
    n-corolla by a chain of degeneracies, i.e. obtained from it by inserting
    unary vertices; the reduced n-corolla itself counts with an empty chain.
    The chain is read from `shorten`: for n != 1 the reduced n-corolla has
    no unary vertex, so it is all of shorten's chain.  The reduced 1-corolla
    is itself unary; its extensions shorten to the stump by at least one
    collapse, and their chain stops one collapse short of it.
    """
    if not is_reduced(t):
        return False, None
    return _extended_corolla(*shorten(t), n)


def _extended_corolla(short, chain, n):
    """`is_extended_corolla` of a reduced tree, read from its shortening."""
    if n == 1:
        if short.key == reduced_corolla(0).key and chain:
            return True, chain[:-1]
    elif short.key == reduced_corolla(n).key:
        return True, chain
    return False, None


def classify(t: Tree):
    """Summary report of the subfamily predicates for one tree."""
    from .trees import tree_stats

    stats = tree_stats(t)
    reduced_corolla_n = None
    for k in range(0, stats.max_inputs + 1):
        if is_reduced_corolla(t, k):
            reduced_corolla_n = k
            break
    extended = []
    if stats.is_reduced:
        short, chain = shorten(t)
        for k in range(0, stats.max_inputs + 1):
            flag, ext = _extended_corolla(short, chain, k)
            if flag:
                extended.append({"n": k, "chain_length": len(ext)})
    return {
        "term": t.term,
        "key": t.key,
        "n_edges": stats.n_edges,
        "n_vertices": stats.n_vertices,
        "n_inner_edges": stats.n_inner_edges,
        "valences": list(stats.valences),
        "aut_order": stats.aut_order,
        "is_reduced": stats.is_reduced,
        "min_omega_level": stats.max_inputs,
        "reduced_corolla": reduced_corolla_n,
        "extended_corolla": extended,
    }
