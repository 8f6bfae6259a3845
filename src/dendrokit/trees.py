"""Canonical rooted trees.

A tree is a finite edge poset with one minimal edge (the root) and a linear
order below every edge.  Maximal edges are either *leaves* or carry a nullary
vertex (a *stump*); the two are distinct pieces of data.  Every non-leaf edge
``x`` carries a vertex whose inputs are the edges directly above ``x``.

Trees are written in a small term language::

    tree := "*" | "(" tree* ")"

``*`` is a leaf edge, ``( ... )`` is an edge capped by a vertex whose inputs
are the listed subtrees, so ``()`` is a stump.  Any edge may carry an optional
``@name`` suffix.  The outermost term is the root edge.

Trees are stored canonically: the children of every vertex are sorted by the
recursive lexicographic order of their unlabelled sub-terms, with ``*``
ordered before ``(``.  Two trees are isomorphic iff their ``key`` strings are
equal.  Edges are addressed by their path of child indices in canonical
order; the root is the empty path ``()``.  Each tree also numbers its edges
0..n-1 in that same order, the canonical preorder: `Tree.index` holds the
id of every address, the id of each edge's parent and the ids of each
vertex's inputs, built on first use.  Ids sort like addresses, so code that
works on ids keeps the order of the address API, which decodes them.

All values are immutable after construction and all operations are pure
functions.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError, ParseError, charge

# Nodes are pairs (children, label): children is None for a leaf edge,
# otherwise a tuple of child nodes (empty tuple = stump).
LEAF = None

# Sort keys spell unlabelled terms with ")" -> "0", "*" -> "1", "(" -> "2",
# so that ")" < "*" < "(" and sorting serialized sub-terms puts leaves first.

_NAME_RE = re.compile(r"[A-Za-z0-9_.\-]+")

# Deepest vertex nesting a term may have; every walk over a tree recurses
# once per level, so deeper terms would exhaust the interpreter's stack.
MAX_TREE_DEPTH = 256

# Trees kept by each cache of corollas, one per arity asked for.
_CACHE_SIZE = 256


def _node_term(node, with_labels=True):
    children, label = node
    suffix = f"@{label}" if (with_labels and label is not None) else ""
    if children is LEAF:
        return "*" + suffix
    return "(" + "".join(_node_term(c, with_labels) for c in children) + ")" + suffix


def _node_key(node):
    return _node_term(node, with_labels=False)


def canonicalize_node(node):
    """Return (canonical node, map old address -> new address).

    Children are ordered by their unlabelled sub-term; the labelled one only
    breaks ties between isomorphic siblings, so that addressing is
    deterministic.  Both strings are built once per vertex from those of its
    children, and each address of the map once from its parent's, so no
    sub-term is serialized, and no address copied, more than once."""
    canon, _, _, order = _canonicalize(node)
    mapping = {}  # in pre-order of the canonical node
    stack = [((), (), order)]
    while stack:
        old, new, (perm, kids) = stack.pop()
        mapping[old] = new
        for new_i in reversed(range(len(perm))):
            stack.append((old + (perm[new_i],), new + (new_i,), kids[perm[new_i]]))
    return canon, mapping


def _canonicalize(node):
    """(canonical node, sort key, labelled term, order) of `node`.  The sort
    key is the unlabelled term in the alphabet above; the order pairs the
    original index of each canonical child with the orders of the original
    children."""
    children, label = node
    suffix = f"@{label}" if label is not None else ""
    if children is LEAF:
        return node, "1", "*" + suffix, ((), ())
    kids = []
    for child in children:
        kids.append(_canonicalize(child))
    perm = list(range(len(kids)))
    if len(kids) > 1:
        perm.sort(key=lambda i: (kids[i][1], kids[i][2]))
    key = "2" + "".join(kids[i][1] for i in perm) + "0"
    term = "(" + "".join(kids[i][2] for i in perm) + ")" + suffix
    canon = (tuple(kids[i][0] for i in perm), label)
    return canon, key, term, (perm, [k[3] for k in kids])


class EdgeIndex(NamedTuple):
    """A tree's edges as ids 0..n-1 in canonical preorder, the order of
    `Tree.edges`: `ids` maps each address to its id, `parent[i]` is the id
    of the edge below edge i (-1 for the root) and `kids[i]` the ids of the
    inputs of its vertex, None for a leaf."""

    ids: dict
    parent: tuple
    kids: tuple


class Tree:
    """A canonical rooted tree.  Hashable; equality includes edge labels."""

    __slots__ = (
        "_node", "_nodes", "_children", "_edges", "_key", "_term", "_hash", "_leaves", "_vertices",
        "_index",
    )

    def __init__(self, node, _canonical=False):
        if not _canonical:
            node, _ = canonicalize_node(node)
        self._node = node
        nodes, children = {}, {}
        _collect(node, (), nodes, children)
        self._nodes = nodes
        self._children = children
        self._edges = tuple(sorted(nodes))
        self._key = _node_key(node)
        self._term = None
        self._hash = hash(node)
        self._leaves = tuple(a for a in self._edges if nodes[a][0] is LEAF)
        self._vertices = tuple(a for a in self._edges if nodes[a][0] is not LEAF)
        self._index = None

    # -- basic structure -------------------------------------------------

    @property
    def key(self):
        """Canonical unlabelled term; equal keys == isomorphic trees."""
        return self._key

    @property
    def term(self):
        """Canonical term including any ``@name`` labels, serialized when
        first read."""
        if self._term is None:
            self._term = _node_term(self._node)
        return self._term

    @property
    def edges(self):
        """All edge addresses in lexicographic (DFS preorder) order; the
        address of edge id i is ``edges[i]``."""
        return self._edges

    @property
    def index(self) -> EdgeIndex:
        """The edge ids of the tree (:class:`EdgeIndex`), built when first
        read, so that trees no map is built on never pay for them."""
        if self._index is None:
            ids = dict(zip(self._edges, range(len(self._edges))))
            children = self._children
            kids = tuple(
                None if a not in children else tuple(map(ids.__getitem__, children[a]))
                for a in self._edges
            )
            parent = [-1] * len(kids)
            for i, ks in enumerate(kids):
                for k in ks or ():
                    parent[k] = i
            self._index = EdgeIndex(ids, tuple(parent), kids)
        return self._index

    def node_at(self, addr):
        try:
            return self._nodes[addr]
        except KeyError:
            raise DomainError("unknown edge", {"address": format_address(addr)})

    def is_leaf(self, addr):
        return self.node_at(addr)[0] is LEAF

    def children(self, addr):
        """Input edges of the vertex carried by `addr` (empty for stumps);
        the tuple is built with the tree, so every call returns the same one."""
        kids = self._children.get(addr)
        if kids is None:
            self.node_at(addr)
            raise DomainError("leaf edge has no vertex", {"address": format_address(addr)})
        return kids

    def label(self, addr):
        return self.node_at(addr)[1]

    @property
    def labels(self):
        return {a: n[1] for a, n in self._nodes.items() if n[1] is not None}

    @property
    def leaves(self):
        return self._leaves

    @property
    def vertices(self):
        """Addresses of edges carrying a vertex (one vertex per such edge)."""
        return self._vertices

    @property
    def inner_edges(self):
        """Edges that are neither a leaf nor the root."""
        return tuple(a for a in self._edges if a != () and not self.is_leaf(a))

    # -- order structure -------------------------------------------------

    def below(self, a, b):
        """True when edge `a` lies on the path from the root to `b` (a <= b)."""
        return b[: len(a)] == a

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other):
        return other is self or (isinstance(other, Tree) and self._node == other._node)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Tree({self.term!r})"


def _collect(node, addr, nodes, children):
    """Fill `nodes` with every edge's node and `children` with every vertex's
    tuple of input addresses; each address is built once."""
    nodes[addr] = node
    kids = node[0]
    if kids is not LEAF:
        addrs = []
        for i, kid in enumerate(kids):
            a = addr + (i,)
            addrs.append(a)
            _collect(kid, a, nodes, children)
        children[addr] = tuple(addrs)


# -- construction helpers -----------------------------------------------


@lru_cache(maxsize=1)
def leaf_tree():
    """The one-edge tree whose edge is a leaf (no vertices)."""
    return Tree((LEAF, None), _canonical=True)


@lru_cache(maxsize=1)
def stump_tree():
    """The one-edge tree capped by a nullary vertex."""
    return Tree(((), None), _canonical=True)


@lru_cache(maxsize=_CACHE_SIZE)
def corolla(n):
    """One vertex, n leaf inputs and a root edge."""
    return Tree((tuple((LEAF, None) for _ in range(n)), None), _canonical=True)


@lru_cache(maxsize=_CACHE_SIZE)
def reduced_corolla(n):
    """One vertex of n inputs, each input capped by a stump; no leaves."""
    return Tree((tuple(((), None) for _ in range(n)), None), _canonical=True)


def linear_tree(n_unary, closed=False):
    """A chain of `n_unary` unary vertices; `closed` caps the top edge with a
    stump instead of leaving it a leaf."""
    node = ((), None) if closed else (LEAF, None)
    for _ in range(n_unary):
        node = ((node,), None)
    return Tree(node, _canonical=True)


# -- parsing -------------------------------------------------------------


def parse_tree(text: str) -> Tree:
    """Parse a tree term; whitespace between tokens is ignored.

    Raises ParseError with a character position on malformed input, on
    duplicate ``@name`` labels and on vertices nested more than
    MAX_TREE_DEPTH deep.
    """
    pos = 0
    n = len(text)
    seen_names = set()

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_label():
        nonlocal pos
        if pos < n and text[pos] == "@":
            start = pos
            pos += 1
            m = _NAME_RE.match(text, pos)
            if not m:
                raise ParseError("expected name after '@'", start)
            name = m.group(0)
            pos = m.end()
            if name in seen_names:
                raise ParseError(f"duplicate edge name '@{name}'", start)
            seen_names.add(name)
            return name
        return None

    def parse_edge(depth):
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise ParseError("unexpected end of input", pos)
        ch = text[pos]
        if ch == "*":
            pos += 1
            return (LEAF, parse_label())
        if ch == "(":
            if depth == MAX_TREE_DEPTH:
                raise ParseError("tree nested too deeply", pos)
            pos += 1
            children = []
            while True:
                skip_ws()
                if pos >= n:
                    raise ParseError("unclosed '('", pos)
                if text[pos] == ")":
                    pos += 1
                    break
                children.append(parse_edge(depth + 1))
            return (tuple(children), parse_label())
        raise ParseError(f"unexpected character {ch!r}", pos)

    node = parse_edge(0)
    skip_ws()
    if pos != n:
        raise ParseError("trailing input after tree term", pos)
    return Tree(node)


def format_address(addr):
    return ".".join(str(i) for i in addr)


def parse_address(text):
    if text == "":
        return ()
    try:
        return tuple(int(p) for p in text.split("."))
    except ValueError:
        raise DomainError("malformed edge address", {"address": text})


# -- statistics and automorphisms ----------------------------------------


@dataclass(frozen=True)
class TreeStats:
    n_edges: int
    n_vertices: int
    n_inner_edges: int
    valences: tuple
    max_inputs: int
    is_reduced: bool
    aut_order: int


def tree_stats(t: Tree) -> TreeStats:
    valences = tuple(sorted(len(t.children(v)) + 1 for v in t.vertices))
    return TreeStats(
        n_edges=len(t.edges),
        n_vertices=len(t.vertices),
        n_inner_edges=len(t.inner_edges),
        valences=valences,
        max_inputs=max((len(t.children(v)) for v in t.vertices), default=0),
        is_reduced=len(t.leaves) == 0,
        aut_order=aut_order(t),
    )


def aut_order(t: Tree) -> int:
    """Order of the automorphism group of the unlabelled tree.

    Every automorphism independently permutes identical child branches at
    each vertex, so the order is the product over vertices of factorials of
    the multiplicities of equal child sub-keys.
    """
    total = 1
    for v in t.vertices:
        keys = [_node_key(t.node_at(c)) for c in t.children(v)]
        for key in set(keys):
            total *= math.factorial(keys.count(key))
    return total


def automorphisms(t: Tree):
    """All automorphisms of `t` as address maps (old -> new); ignores labels."""

    def node_maps(node, addr):
        children, _ = node
        if children is LEAF:
            return [{addr: addr}]
        groups = {}
        for i, child in enumerate(children):
            groups.setdefault(_node_key(child), []).append(i)
        child_maps = [node_maps(child, addr + (i,)) for i, child in enumerate(children)]
        group_perms = [
            [dict(zip(idxs, perm)) for perm in itertools.permutations(idxs)]
            for idxs in groups.values()
        ]
        results = []
        for combo in itertools.product(*group_perms):
            slot = {}
            for part in combo:
                slot.update(part)
            # slot[i] = j: child i moves to position j (legal because equal
            # keys mean identical unlabelled branches).
            for sub_combo in itertools.product(*child_maps):
                mapping = {addr: addr}
                for i, submap in enumerate(sub_combo):
                    j = slot[i]
                    for old, new in submap.items():
                        mapping[old] = addr + (j,) + new[len(addr) + 1 :]
                results.append(mapping)
        return results

    return node_maps(t._node, ())


# -- grafting ------------------------------------------------------------


def graft(base: Tree, leaf_addr, scion: Tree) -> Tree:
    """Replace the leaf edge at `leaf_addr` of `base` by `scion`'s root edge.

    The scion's root edge is identified with the named leaf; a label on the
    scion root wins over a label on the replaced leaf.  Grafting the one-edge
    leaf tree is the identity.
    """
    children, base_label = base.node_at(leaf_addr)
    if children is not LEAF:
        raise DomainError("graft target is not a leaf", {"address": format_address(leaf_addr)})
    s_children, s_label = scion._node
    replacement = (s_children, s_label if s_label is not None else base_label)

    def rebuild(node, addr):
        if addr == leaf_addr:
            return replacement
        kids, label = node
        if kids is LEAF:
            return node
        return (tuple(rebuild(c, addr + (i,)) for i, c in enumerate(kids)), label)

    node = rebuild(base._node, ())
    names = list(_all_labels(node))
    dupes = {x for x in names if names.count(x) > 1}
    if dupes:
        raise DomainError("duplicate edge name after graft", {"names": sorted(dupes)})
    return Tree(node)


def _all_labels(node):
    children, label = node
    if label is not None:
        yield label
    if children is not LEAF:
        for c in children:
            yield from _all_labels(c)


# -- enumeration ---------------------------------------------------------


def _size_multisets(total, parts, min_size):
    """Multisets of `parts` sizes >= min_size summing to `total`, yielded as
    ((size, multiplicity), ...) with sizes strictly decreasing."""

    def rec(remaining, parts_left, max_size, acc):
        if parts_left == 0:
            if remaining == 0:
                yield tuple(acc)
            return
        for size in range(max_size, min_size - 1, -1):
            for mult in range(1, parts_left + 1):
                if size * mult > remaining:
                    break
                yield from rec(remaining - size * mult, parts_left - mult, size - 1, acc + [(size, mult)])

    upper = total if min_size > 0 else max(total, 0)
    yield from rec(total, parts, upper, [])


def _shape_levels(max_size, max_inputs, reduced_only, leaf_size):
    """Canonical unlabelled shapes by size, one tuple per size 0..max_size.

    A leaf has size `leaf_size` (1 counts edges, 0 counts vertices) and a
    vertex one more than the sum of its children's sizes, so each level is
    built from the levels below it.  Within a level shapes are sorted by
    key, except that the leaf comes first."""
    levels = []
    for size in range(max_size + 1):
        shapes = {}
        for k in range(max_inputs + 1):
            for sizes in _size_multisets(size - 1, k, leaf_size):
                pools = [
                    list(itertools.combinations_with_replacement(levels[s], mult))
                    for s, mult in sizes
                ]
                for combo in itertools.product(*pools):
                    children = tuple(c for group in combo for c in group)
                    node, _ = canonicalize_node((children, None))
                    shapes.setdefault(_node_key(node), node)
        level = [shapes[key] for key in sorted(shapes)]
        if size == leaf_size and not reduced_only:
            level.insert(0, (LEAF, None))
        levels.append(tuple(level))
    return levels


def _charge_shapes(operation, max_size, max_inputs, reduced_only, leaf_size, budget):
    """Charge the number of shapes `_shape_levels` builds, counted without
    building one, and return the largest size worth building.

    A vertex's children are a multiset of shapes: m children among the n
    shapes of one size are comb(n + m - 1, m) choices, and each shape is
    one choice per size of its children.  The running total is charged
    level by level, so a refusal reports the count up to the first level
    past the budget.  Without vertex inputs nothing is larger than a stump;
    with them, every level holds a chain of unary vertices as deep as its
    size, so a nonempty level past MAX_TREE_DEPTH is refused."""
    if max_inputs < 1:
        max_size = min(max_size, 1)
    counts, total = [], 0
    for size in range(max_size + 1):
        count = int(size == leaf_size and not reduced_only)
        for k in range(max_inputs + 1):
            for sizes in _size_multisets(size - 1, k, leaf_size):
                count += math.prod(math.comb(counts[s] + mult - 1, mult) for s, mult in sizes)
        if count and size > MAX_TREE_DEPTH:
            raise DomainError("trees would nest too deeply", {"max_depth": MAX_TREE_DEPTH})
        counts.append(count)
        total += count
        charge(operation, total, budget)
    return max_size


def enumerate_trees(max_edges, max_inputs, reduced_only=False, budget=None):
    """One canonical representative per isomorphism class of trees with at
    most `max_edges` edges and every vertex having at most `max_inputs`
    inputs.  With `reduced_only`, only trees without any leaves.

    Trees come by edge count, and within one count in key order with the
    leaf first; the shapes are built bottom-up on every call, nothing is
    cached.  The budget is charged their exact number."""
    if max_edges < 1:
        raise DomainError("max_edges must be >= 1", {"max_edges": max_edges})
    top = _charge_shapes("enumerate_trees", max_edges, max_inputs, bool(reduced_only), 1, budget)
    levels = _shape_levels(top, max_inputs, bool(reduced_only), leaf_size=1)
    return [Tree(node, _canonical=True) for level in levels for node in level]


def enumerate_trees_by_vertices(max_vertices, max_inputs, reduced_only=False, budget=None):
    """Like enumerate_trees but bounded by vertex count instead of edges,
    and ordered by vertex count."""
    if max_vertices < 0:
        raise DomainError("max_vertices must be >= 0", {"max_vertices": max_vertices})
    top = _charge_shapes(
        "enumerate_trees_by_vertices", max_vertices, max_inputs, bool(reduced_only), 0, budget
    )
    levels = _shape_levels(top, max_inputs, bool(reduced_only), leaf_size=0)
    return [Tree(node, _canonical=True) for level in levels for node in level]
