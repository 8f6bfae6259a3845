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

Maps work on edge ids (`Tree.index`): a morphism holds the id of each
source edge's image, in source preorder, and hom sets, validation, the
isomorphism test, composition, faces, degeneracies and factorization read
and build those id tuples.  Ids sort like addresses, so every order is the
order of the address API, which decodes ids only when it is read (`map`,
calls, `to_json`, `repr`).

Three memos share one bound, ``_CACHE_SIZE`` entries each, and nothing
per tree is rebuilt per call:

- the operation table of a tree: for every edge id its input sets of ids
  in order, as a frozenset for membership (validation, `TreeOperad`) and
  grouped by arity (`hom_set`);
- the elementary faces of a tree, each with its image and its inverse
  over ids, which `factorize` peels against;
- the degeneracy per (tree, unary vertex), so `factorize`, `degeneracies`,
  `shorten`, the dendroidal carrier closure and `materialize` collapse each
  pair once.

Memoized morphisms are shared; `OmegaMorphism.map` hands out a new dict.
`hom_set` builds each map as one tuple of image ids and a factorization's
composite is checked as one composed id tuple.
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
    set of edge ids: ``sets`` in order of their sorted tuples, ``members``
    for membership and ``by_arity`` mapping each size to its sorted tuples,
    in the order of ``sets``."""

    sets: tuple
    members: frozenset
    by_arity: dict


@lru_cache(maxsize=_CACHE_SIZE)
def _input_sets(t: Tree):
    """The operation table of `t`: an `_EdgeOperations` for every edge id.

    The identity set {e} is always present.  The empty set is present
    exactly when the branch above `e` is closed: stumps contribute it as the
    empty union over their zero inputs and it propagates downward.  A
    child's id is larger than its parent's, so the edges are filled in
    reverse preorder.
    """
    kids = t.index.kids
    table = [None] * len(kids)
    for e in reversed(range(len(kids))):
        sets = {frozenset((e,))}
        if kids[e] is not None:
            for combo in itertools.product(*(table[c].members for c in kids[e])):
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
    return tuple(table)


# -- morphisms -------------------------------------------------------------


class OmegaMorphism:
    """A validated map of trees, stored as a total edge map: ``_ids[i]`` is
    the id of the image of source edge i (see `Tree.index`).  The address
    views (`map`, calls, `to_json`, `repr`) decode it when read.

    Construction raises DomainError when some source vertex does not land on
    an operation of the target; use :func:`validate_morphism` to test first.
    """

    __slots__ = ("source", "target", "_ids")

    def __init__(self, source: Tree, target: Tree, edge_map, _checked=False):
        self.source = source
        self.target = target
        edge_map = dict(edge_map)
        try:
            items = tuple(edge_map[e] for e in source.edges)
            total = len(edge_map) == len(items)
        except KeyError:
            total = False
        if not total:
            raise DomainError("edge map is not total on the source tree")
        self._ids = tuple(map(target.index.ids.get, items))
        if None in self._ids or not (_checked or _valid(source, target, self._ids)):
            raise DomainError(
                "edge map is not a morphism of trees",
                {"source": source.term, "target": target.term},
            )

    @classmethod
    def _from_ids(cls, source: Tree, target: Tree, ids):
        """The map sending source edge id i to target edge id ``ids[i]``,
        taken as valid and total without checking."""
        m = cls.__new__(cls)
        m.source = source
        m.target = target
        m._ids = ids
        return m

    @property
    def _items(self):
        """The image addresses, in the order of the source edges."""
        return tuple(map(self.target.edges.__getitem__, self._ids))

    @property
    def map(self):
        return dict(zip(self.source.edges, self._items))

    def __call__(self, addr):
        return self.target.edges[self._ids[self.source.index.ids[addr]]]

    def is_injective(self):
        return len(set(self._ids)) == len(self._ids)

    def image(self):
        return frozenset(self._items)

    def is_isomorphism(self):
        """Bijective and structure preserving (hence invertible)."""
        return _is_isomorphism(self.source, self.target, self._ids)

    def then(self, other: "OmegaMorphism") -> "OmegaMorphism":
        """Composite: self followed by `other`."""
        if self.target != other.source:
            raise DomainError("morphisms are not composable")
        return OmegaMorphism._from_ids(
            self.source, other.target, tuple(map(other._ids.__getitem__, self._ids))
        )

    @classmethod
    def identity(cls, t: Tree):
        return cls._from_ids(t, t, tuple(range(len(t.edges))))

    def to_json(self):
        # the source edges are sorted, so the pairs come in address order
        return {
            "source_key": self.source.term,
            "target_key": self.target.term,
            "edge_map": {
                format_address(s): format_address(t) for s, t in zip(self.source.edges, self._items)
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
            and self._ids == other._ids
        )

    def __hash__(self):
        return hash((self.source, self.target, self._ids))

    def __repr__(self):
        pairs = ", ".join(
            f"{format_address(s) or 'r'}>{format_address(t) or 'r'}"
            for s, t in zip(self.source.edges, self._items)
        )
        return f"OmegaMorphism({self.source.term} -> {self.target.term}; {pairs})"


def _is_isomorphism(source: Tree, target: Tree, ids):
    """True iff the map sending source edge i to target edge ``ids[i]`` is
    bijective, sends leaves to leaves and each edge's parent to the parent
    of its image."""
    if source.key != target.key or len(set(ids)) != len(ids):
        return False
    s, t = source.index, target.index
    for i, j in enumerate(ids):
        if (s.kids[i] is None) != (t.kids[j] is None):
            return False
        p = s.parent[i]
        if t.parent[j] != (ids[p] if p >= 0 else -1):
            return False
    return True


def validate_morphism(source: Tree, target: Tree, edge_map) -> bool:
    """True iff the edge map is total and every source vertex lands on an
    operation of the target."""
    if set(edge_map) != set(source.edges):
        return False
    ids = tuple(map(target.index.ids.get, (edge_map[e] for e in source.edges)))
    return None not in ids and _valid(source, target, ids)


def _valid(source: Tree, target: Tree, ids):
    """True iff every source vertex lands on an operation of the target
    under the map sending source edge i to target edge ``ids[i]``."""
    table = _input_sets(target)
    for v, kids in enumerate(source.index.kids):
        if kids is None:
            continue
        sig = frozenset(map(ids.__getitem__, kids))
        # an operation has distinct inputs; the identity's set {e} is in
        # every edge's table
        if len(sig) != len(kids) or sig not in table[ids[v]].members:
            return False
    return True


# -- hom sets ---------------------------------------------------------------


def hom_set(source: Tree, target: Tree, budget=None):
    """All morphisms source -> target in a deterministic order.

    The enumeration recurses over the source tree, choosing for every vertex
    an operation of the target with matching arity, so the naive
    ``|edges(target)| ** |edges(source)|`` space is never materialized; that
    proxy is still what the budget bounds and reports.  A branch yields the
    image ids of its edges in source preorder, which is how the source edges
    of a whole map are ordered too, so each map is one tuple of ids; ids
    sort like addresses, so the maps come in the order of their images.
    """
    charge("hom_set", len(target.edges) ** len(source.edges), budget)
    table = _input_sets(target)
    kids_of = source.index.kids

    def branch(s, t):
        head = (t,)
        kids = kids_of[s]
        if kids is None:
            return [head]
        out = []
        for iset in table[t].by_arity.get(len(kids), ()):
            for assignment in itertools.permutations(iset):
                subs = []
                for kid, tgt in zip(kids, assignment):
                    sub = [(tgt,)] if kids_of[kid] is None else branch(kid, tgt)
                    if not sub:
                        break
                    subs.append(sub)
                else:
                    for combo in itertools.product(*subs):
                        out.append(sum(combo, head))
        return out

    results = []
    for t in range(len(target.edges)):
        results.extend(branch(0, t))
    results.sort()
    return [OmegaMorphism._from_ids(source, target, images) for images in results]


# -- faces and degeneracies --------------------------------------------------


def _finish(raw_node, raw_map):
    """Canonicalize a raw node; returns (tree, the payloads of `raw_map`,
    keyed by raw address, in the order of the tree's edges).  The address
    map of the canonicalization comes in the canonical preorder."""
    canon, cmap = canonicalize_node(raw_node)
    return Tree(canon, _canonical=True), tuple(map(raw_map.__getitem__, cmap))


def _induced(t: Tree, kept, base=0, leaf=None) -> OmegaMorphism:
    """The inclusion into `t` of the tree on the edge ids `kept` above the
    edge id `base`.

    A kept edge's inputs are its kept children.  A dropped child with a
    vertex is replaced by its own kept children, one level deep: the only
    dropped edge with kept children is a contracted inner edge.  The edge
    `leaf` loses its vertex and becomes a leaf, which the edge set alone
    cannot say, since removing a stump keeps every edge.  Raw children keep
    `t`'s order, so for an unlabelled `t` every run of isomorphic siblings
    has increasing images after canonicalization: the map is the least of
    its orbit under the source's automorphisms.
    """
    edges, kids = t.edges, t.index.kids
    raw_map = {}  # raw address -> id in t, each address built once from its parent's

    def rec(e, raw_addr):
        raw_map[raw_addr] = e
        label = t.label(edges[e])
        if kids[e] is None or e == leaf:
            return (LEAF, label)
        raw_children = []
        for c in kids[e]:
            if c in kept:
                spliced = (c,)
            elif kids[c] is None:
                continue
            else:
                spliced = [g for g in kids[c] if g in kept]
            for g in spliced:
                raw_children.append(rec(g, raw_addr + (len(raw_children),)))
        return (tuple(raw_children), label)

    tree, ids = _finish(rec(base, ()), raw_map)
    return OmegaMorphism._from_ids(tree, t, ids)


def contract_inner_edge(t: Tree, edge) -> OmegaMorphism:
    """Contract the inner edge `edge`; returns the face (t/edge) -> t."""
    if edge not in t.inner_edges:
        raise DomainError("not an inner edge", {"address": format_address(edge)})
    return _induced(t, frozenset(range(len(t.edges))) - {t.index.ids[edge]})


@lru_cache(maxsize=_CACHE_SIZE)
def degeneracy_at(t: Tree, unary) -> OmegaMorphism:
    """Collapse the unary vertex at `unary`, identifying its input and output
    edges; returns the degeneracy t -> (collapsed tree).  Memoized per
    (tree, address), so callers share one morphism."""
    if t.is_leaf(unary) or len(t.children(unary)) != 1:
        raise DomainError("not a unary vertex", {"address": format_address(unary)})
    index = t.index
    u = index.ids[unary]
    (child,) = index.kids[u]
    raw_map = {}  # raw address -> id in t, each address built once from its parent's

    def rec(e, raw_addr):
        label = t.label(t.edges[e])
        if e == u:
            kids, sub_label = rec(child, raw_addr)
            raw_map[raw_addr] = u
            return (kids, label if label is not None else sub_label)
        raw_map[raw_addr] = e
        if index.kids[e] is None:
            return (LEAF, label)
        return (tuple(rec(c, raw_addr + (i,)) for i, c in enumerate(index.kids[e])), label)

    tree, origins = _finish(rec(0, ()), raw_map)
    new = [None] * len(t.edges)
    for j, e in enumerate(origins):
        new[e] = j
    new[child] = new[u]
    return OmegaMorphism._from_ids(t, tree, tuple(new))


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
    """The elementary faces of `t` in order, each with its image, a frozenset
    of edge ids, and its inverse, a list sending each target edge id to its
    source edge id (None off the image)."""
    # the key is the canonical unlabelled term, so edge ids carry over
    shape = parse_tree(t.key) if t.labels else t
    kids = shape.index.kids
    edges = frozenset(range(len(kids)))
    built = [
        (_induced(shape, edges - {e}), shape.edges[e])
        for e in range(1, len(kids))
        if kids[e] is not None
    ]
    for v, inputs in enumerate(kids):
        # outer face at a top vertex: drop it, its edge becomes a leaf
        if inputs is not None and all(kids[k] is None for k in inputs):
            built.append((_induced(shape, edges.difference(inputs), leaf=v), None))
    if kids[0] is not None:
        # outer face at the root: keep one input's branch, the others being leaves
        for c in kids[0]:
            if all(kids[k] is None for k in kids[0] if k != c):
                built.append((_induced(shape, edges, base=c), None))
    built.sort(key=lambda pair: (pair[0].source.key, pair[0]._ids))
    faces = []
    for m, contracted in built:
        if shape is not t:
            m = OmegaMorphism._from_ids(m.source, t, m._ids)
        face = Face(m, "outer" if contracted is None else "inner", contracted)
        inverse = [None] * len(kids)
        for i, j in enumerate(m._ids):
            inverse[j] = i
        faces.append((face, frozenset(m._ids), inverse))
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
        """The composite of the chain, built as one tuple of image ids; each
        step must start where the previous one ends."""
        chain = self.degeneracies + [self.isomorphism] + [f.morphism for f in self.faces]
        first = chain[0]
        target, images = first.target, first._ids
        for step in chain[1:]:
            if target is not step.source and target != step.source:
                raise DomainError("morphisms are not composable")
            target, images = step.target, tuple(map(step._ids.__getitem__, images))
        return OmegaMorphism._from_ids(first.source, target, images)

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
    source, ids = m.source, m._ids
    while True:
        # the first unary vertex whose input has the image of its output
        for v, kids in enumerate(source.index.kids):
            if kids is not None and len(kids) == 1 and ids[kids[0]] == ids[v]:
                break
        else:
            break
        sigma = degeneracy_at(source, source.edges[v])
        collapsed = [None] * len(sigma.target.edges)
        # both id tuples follow the source edges, so this pairs each
        # collapsed edge with the images of its fiber
        for e2, image in zip(sigma._ids, ids):
            if collapsed[e2] is None:
                collapsed[e2] = image
            elif collapsed[e2] != image:
                raise DomainError("inconsistent collapse in factorization")
        if None in collapsed:
            raise DomainError("edge map is not total on the source tree")
        degs.append(sigma)
        source, ids = sigma.target, tuple(collapsed)
    current = OmegaMorphism._from_ids(source, m.target, ids)
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
    chain, source, target, ids = [], g.source, g.target, g._ids
    while not _is_isomorphism(source, target, ids):
        image = frozenset(ids)
        for face, face_image, inverse in _faces(target):
            if image <= face_image:
                lift = tuple(map(inverse.__getitem__, ids))
                if _valid(source, face.morphism.source, lift):
                    break
        else:
            return None
        chain.append(face)
        target, ids = face.morphism.source, lift
    chain.reverse()
    return chain, OmegaMorphism._from_ids(source, target, ids)


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
    the empty input set carries an operation into it.  They are built as
    sets of edge ids, which sort like the address sets they decode to."""
    charge("subtrees", 2 ** len(t.edges), budget)
    kids = t.index.kids
    closed = {e for e, ops in enumerate(_input_sets(t)) if frozenset() in ops.members}

    def rooted(e):
        if kids[e] is None:
            return [frozenset((e,))]
        options = [([None] if c in closed else []) + rooted(c) for c in kids[e]]
        out = []
        for combo in itertools.product(*options):
            chosen = [x for x in combo if x is not None]
            out.append(frozenset((e,)).union(*chosen) if chosen else frozenset((e,)))
        return out

    found = [(subset, e) for e in range(len(kids)) for subset in rooted(e)]
    found.sort(key=lambda pair: (len(pair[0]), sorted(pair[0])))
    results = []
    for subset, e in found:
        incl = _induced(t, subset, base=e)
        edge_subset = frozenset(map(t.edges.__getitem__, subset))
        results.append(SubtreeInclusion(t, edge_subset, incl.source, incl))
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
