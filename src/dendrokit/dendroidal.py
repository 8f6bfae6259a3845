"""Truncated dendroidal sets: presheaves on a finite batch of trees.

A dendroidal set assigns a finite value set to every tree in its carrier and
a restriction to every tree map, contravariantly.  Both kinds of set give it
in one form: ``restrict_index(m)`` is a :class:`Restriction`, an int64 array
sending every value position at ``m.target`` to the position of that
value's restriction at ``m.source``; ``size(t)`` counts the values at ``t``.

- :class:`NerveDendroidalSet` is the nerve of a finite operad: a value is a
  color per edge and an operation per vertex, laid out in blocks, one per
  edge coloring, each the product of its vertices' hom-sets and described
  by one record (:class:`_Block`) whose colors follow the edge ids
  (`Tree.index`).  A restriction runs a plan compiled once per map
  (`_restriction_plan`, keyed by the map's tuple of image ids and shared
  by the nerves of all operads) on whole blocks of the target: one step per
  source vertex, compiled from the operation witness it lands on and naming
  target edges by id, so that a block's colors are read by position.  A pick, a
  target vertex with its inputs in order, is one gather of that vertex's
  digit column; an identity is a constant; a composition or permutation
  makes one operad call per distinct row of its operands.  ``values(t)`` is
  a read-only sequence view over the blocks (:class:`NerveValues`): a value
  is decoded from its block only when read, and only the blocks of
  recently met trees are kept.
- :class:`TableDendroidalSet` stores explicit value sets and generator
  actions (elementary faces, degeneracies, automorphisms); along any other
  map the actions of its factorization are composed as gathers.

The strict-Segal check and the reconstruction of an operad read
restrictions only as positions and hash no value tuples; materialization
decodes them into a table set's stored actions.  Per corolla
arity, a boundary table holds the one-edge ids of each corolla value's root
and leaf restrictions; per vertex of a tree, a column holds the position at
the corolla of each value's restriction there.  The check compares boundary
ids per inner edge up to the first value leaving the core, tests
injectivity on mixed-radix keys of the columns (one scatter when the key
space is small, `np.unique` otherwise), and counts the core by dynamic
programming over the vertex tree.  What it reads of a tree (arities,
links, subcorolla maps) is built once per tree.  Reconstruction groups
corolla values by boundary ids into hom-sets and inverts the Segal
bijection on a grafted tree through its values' positions; its
isomorphism to the operad is checked in `dendrokit.laws`.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DendroError, DomainError, charge
from .morphisms import (
    OmegaMorphism,
    degeneracies,
    degeneracy_at,
    elementary_faces,
    factorize,
    operation_exists,
)
from .operads import FiniteOperad, Signature, first_positions
from .trees import (
    LEAF,
    Tree,
    automorphisms,
    corolla,
    leaf_tree,
    parse_address,
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
    t.children(vertex)  # a leaf or an unknown edge carries no vertex
    return _subcorolla(t, t.index.ids[vertex])


def _subcorolla(t: Tree, v):
    """`subcorolla_inclusion` at the vertex of the edge with id `v`."""
    kids = t.index.kids[v]
    return OmegaMorphism._from_ids(corolla(len(kids)), t, (v, *kids))


def leaf_relabel_automorphism(n, perm) -> OmegaMorphism:
    """The corolla automorphism sending leaf i to leaf perm[i]."""
    t = corolla(n)
    edge_map = {(): ()}
    for i in range(n):
        edge_map[(i,)] = (perm[i],)
    return OmegaMorphism(t, t, edge_map, _checked=True)


# -- restrictions as positions ---------------------------------------------------


class Restriction(NamedTuple):
    """``index[i]`` is the id of the restriction of value i at the target:
    below `size` a position at the source, ``size + j`` the value
    ``outside[j]`` that the source does not hold, and ``-1 - j`` the error
    ``errors[j]`` raised by that value's first failing call or lookup."""

    index: np.ndarray
    size: int
    outside: list
    errors: list

    def decode(self, p, source_values):
        """The restricted value of id `p`; an error id raises its error."""
        if p < 0:
            raise self.errors[-1 - p]
        return source_values[p] if p < self.size else self.outside[p - self.size]

    def decoded(self, source_values):
        """Every target value's restriction, in position order.  The source
        values are read by index, so a :class:`NerveValues` view is turned
        into a tuple once."""
        source_values = tuple(source_values)
        return [self.decode(p, source_values) for p in self.index.tolist()]


def _raise_first_error(restrictions):
    """Raise the error of the first failed id, row by row across
    restrictions of the same values."""
    if not any(r.errors for r in restrictions):
        return
    ids = np.stack([r.index for r in restrictions], axis=1)
    failed = np.flatnonzero(ids.ravel() < 0)
    if failed.size:
        i, j = divmod(int(failed[0]), len(restrictions))
        raise restrictions[j].errors[-1 - int(ids[i, j])]


def _row_keys(columns, radices, n):
    """The rows of n stacked int columns as mixed-radix int64 keys, or as
    the stacked rows themselves when a key could overflow."""
    if math.prod(radices) >= 2**63:
        return np.stack(columns, axis=1)
    if not columns:
        return np.zeros(n, dtype=np.int64)
    key = np.array(columns[0], dtype=np.int64)
    for column, radix in zip(columns[1:], radices[1:]):
        key *= radix
        key += column
    return key


def _distinct_rows(columns, radices, n):
    """The first of each distinct row of n stacked int columns, and every
    row's index among the distinct rows."""
    if n < 2:
        return np.arange(n), np.zeros(n, dtype=np.int64)
    keys = _row_keys(columns, radices, n)
    _, first, inverse = np.unique(
        keys, axis=0 if keys.ndim > 1 else None, return_index=True, return_inverse=True
    )
    return first, inverse.reshape(-1)


def _expand(ids, table, n):
    """``table[ids]`` for an id column of n values, or for a digit column
    (radix, stride): the digit of each position in that mixed radix."""
    if type(ids) is not tuple:
        return table[ids]
    radix, stride = ids
    out = np.empty((n // (radix * stride), radix, stride), dtype=table.dtype)
    out[...] = table[:, None]
    return out.reshape(-1)


# -- nerve ---------------------------------------------------------------------


class _Hom(NamedTuple):
    """One signature's hom pool, the first position of each of its
    elements, and those positions in pool order."""

    pool: tuple
    where: dict
    firsts: np.ndarray


class _Block(NamedTuple):
    """One edge coloring's block of the values at a tree: its colors in edge
    order, so by edge id, and per vertex its hom pool, its :class:`_Hom` and
    its stride, the distance between values differing only there; then the
    block's first position and its value count.  The block's values are the
    product of the pools, the last vertex varying fastest."""

    colors: tuple
    pools: list
    homs: list
    strides: list
    offset: int
    size: int


class _Blocks(dict):
    """A tree's value blocks keyed by their colors, and their value count."""

    size = 0


class NerveValues(Sequence):
    """The values at a tree, a read-only sequence over its value blocks.

    Value i lies in the block whose offset is the last at or below i, and its
    digit at each vertex is its position in the block over that vertex's
    stride, modulo its pool's length.  Equal, in both directions, to the
    tuple of the same values, but unhashable.  Iteration runs at C speed;
    each index decodes its value in Python, so a caller that reads by index
    many times converts the view to a tuple once.
    """

    __slots__ = ("_term", "_blocks", "_len")

    def __init__(self, t: Tree, blocks):
        self._term = t.term
        self._blocks = list(blocks.values())
        self._len = blocks.size

    def __len__(self):
        return self._len

    def __iter__(self):
        for b in self._blocks:
            yield from zip(itertools.repeat(b.colors), itertools.product(*b.pools))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        n = len(self)
        if not -n <= i < n:
            raise IndexError("nerve value index out of range")
        i %= n
        b = self._blocks[bisect.bisect_right(self._blocks, i, key=lambda b: b.offset) - 1]
        rest = i - b.offset
        return b.colors, tuple(p[rest // s % len(p)] for p, s in zip(b.pools, b.strides))

    def __eq__(self, other):
        if not isinstance(other, (tuple, NerveValues)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self):
        return f"<nerve values at {self._term}: {len(self)} in {len(self._blocks)} blocks>"


# Trees whose value blocks a nerve keeps, the least recently met going
# first: the restrictions along the maps of one tree run back to back, and
# a materialized carrier of up to this many trees is laid out once.
_BLOCKS_KEPT = 128

# Restriction plans and Segal shapes kept, one per map or tree: above the
# subcorolla maps of a Segal check on the trees of (4, 4) and the maps of a
# round trip at arity 5, so that the nerves of several operads met in turn
# share them.
_CACHE_SIZE = 8192

_PICK, _IDENTITY, _COMPOSE = range(3)


def _compile(w, target, vertex_index):
    """One step of a restriction plan, from the witness `w` at `target`.
    Steps name a target vertex by its position and its output and input
    edges by their ids: (_PICK, vertex, output, inputs) when `w` is the
    vertex with its inputs in order, whose operation is the vertex's
    decoration; (_IDENTITY, edge); or (_COMPOSE, vertex, output, inputs,
    child steps, permutation or None when the inputs stay in order)."""
    index = target.index
    out = index.ids[w.output]
    if w.is_identity:
        return (_IDENTITY, out)
    vertex = vertex_index[out]
    in_order = w.perm == tuple(range(len(w.perm)))
    kids = index.kids[out]
    if in_order and all(c.is_identity for c in w.children):
        return (_PICK, vertex, out, kids)
    children = tuple(_compile(c, target, vertex_index) for c in w.children)
    return (_COMPOSE, vertex, out, kids, children, None if in_order else w.perm)


@lru_cache(maxsize=_CACHE_SIZE)
def _restriction_plan(source: Tree, target: Tree, ids):
    """The steps restricting along the map sending source edge id i to
    target edge id ``ids[i]``: one per source vertex, compiled from the
    witness of the operation it lands on; a vertex landing on a target
    vertex with its inputs in order is a pick without a witness search.  A
    plan depends on the map alone, so the nerves of all operads share it."""
    index = target.index
    vertex_index = {index.ids[v]: i for i, v in enumerate(target.vertices)}
    steps = []
    for v, inputs in enumerate(source.index.kids):
        if inputs is None:
            continue
        out, inputs = ids[v], tuple(map(ids.__getitem__, inputs))
        if inputs == index.kids[out]:
            steps.append((_PICK, vertex_index[out], out, inputs))
        else:
            edges = target.edges
            witness = operation_exists(target, edges[out], tuple(map(edges.__getitem__, inputs)))
            steps.append(_compile(witness, target, vertex_index))
    return tuple(steps)


class NerveDendroidalSet:
    """The dendroidal nerve of a finite operad.

    Elements at a tree T are pairs (edge colors, vertex operations) indexed
    by T's canonical edge and vertex orders.  The value at any tree within
    the operad's arity bound is available; `trees` only fixes the default
    carrier used by checks.  `values(t)` is a :class:`NerveValues` view
    over the value blocks, which are built when it is called; unlike a
    table's tuple it cannot be hashed or added, so code that needs those, or
    reads by index many times, converts it with `tuple()`.  It keeps each
    signature's hom and the value blocks of the trees it met last.
    """

    def __init__(self, operad: FiniteOperad, trees=None, budget=None):
        self.operad = operad
        self.trees = tuple(trees) if trees is not None else None
        self.budget = budget
        self._blocks, self._homs = {}, {}

    @property
    def name(self):
        return f"nerve({self.operad.name})"

    def values(self, t: Tree) -> NerveValues:
        return NerveValues(t, self.value_blocks(t))

    def size(self, t: Tree):
        return self.value_blocks(t).size

    def _hom(self, inputs, output) -> _Hom:
        """The hom of one signature, asked of the operad once, so that equal
        signatures share one pool."""
        h = self._homs.get((inputs, output))
        if h is None:
            pool = self.operad.hom(inputs, output)
            where = first_positions(pool)
            firsts = np.array([where[el] for el in pool], dtype=np.int64)
            h = self._homs[inputs, output] = _Hom(pool, where, firsts)
        return h

    def value_blocks(self, t: Tree):
        """The values at `t` in blocks (:class:`_Blocks`), one :class:`_Block`
        per edge coloring."""
        blocks = self._blocks.pop(t, None)
        if blocks is not None:
            self._blocks[t] = blocks  # the latest met go last
            return blocks
        P = self.operad
        if P.arity_bound is not None:
            max_in = max((len(t.children(v)) for v in t.vertices), default=0)
            if max_in > P.arity_bound:
                raise DomainError(
                    "tree exceeds operad arity bound",
                    {"tree": t.term, "bound": P.arity_bound},
                )
        blocks, offset = _Blocks(), 0
        kids = t.index.kids
        verts = [v for v, inputs in enumerate(kids) if inputs is not None]
        for colors in self._colorings(t):
            sigs = [(tuple(colors[c] for c in kids[v]), colors[v]) for v in verts]
            homs = [self._hom(*sig) for sig in sigs]
            pools = [h.pool for h in homs]
            strides, size = [], 1
            for pool in reversed(pools):
                strides.insert(0, size)
                size *= len(pool)
            blocks[colors] = _Block(colors, pools, homs, strides, offset, size)
            offset += size
            charge("nerve values", offset, self.budget)
        blocks.size = offset
        if len(self._blocks) == _BLOCKS_KEPT:
            del self._blocks[next(iter(self._blocks))]
        self._blocks[t] = blocks
        return blocks

    def _colorings(self, t: Tree):
        """The colorings of `t` with a nonempty hom at every vertex, each a
        tuple of colors by edge id.  Colors are assigned in id order, and a
        vertex is checked once its last edge is colored: a stump's own edge,
        or the last input of any other."""
        P = self.operad
        if len(P.colors) == 1:
            return [(P.colors[0],) * len(t.edges)]
        kids, parent = t.index.kids, t.index.parent
        colorings = [()]
        for e in range(len(kids)):
            closing = [e] if kids[e] == () else []
            if parent[e] >= 0 and kids[parent[e]][-1] == e:
                closing.append(parent[e])
            new = []
            for partial in colorings:
                for c in P.colors:
                    cand = partial + (c,)
                    if all(P.hom(tuple(cand[k] for k in kids[v]), cand[v]) for v in closing):
                        new.append(cand)
            colorings = new
            charge("nerve colorings", len(colorings), self.budget)
        return colorings

    def restrict_index(self, m: OmegaMorphism) -> Restriction:
        """The contravariant action along `m`: per coloring of the target,
        the plan of `m` (`_restriction_plan`) runs on its whole block
        (`_run_block`) and each result is placed by its coloring and
        decorations at the source, in the source block of its colors.  A
        decoration picked from a target vertex lies in the same pool at the
        source, so it is placed by one gather; a result no source block
        holds, such as a composite outside its hom-set, is an outside value.
        A source beyond the arity bound has no values."""
        steps = _restriction_plan(m.source, m.target, m._ids)
        try:
            source = self.value_blocks(m.source)
        except DomainError:
            source = _Blocks()
        size = source.size
        outside, errors, columns = {}, [], []
        for block in self.value_blocks(m.target).values():
            n = block.size
            if not n:
                continue
            known = len(errors)
            decorations, failed = _run_block(self.operad, steps, block, errors)
            source_colors = tuple(map(block.colors.__getitem__, m._ids))
            # a decoration or coloring the source does not hold adds `size`
            at = source.get(source_colors)
            unheld = at is None or len(errors) > known
            ids = None
            placed = zip(decorations, at.homs, at.strides) if at is not None else ()
            for (column, els), h, stride in placed:
                if els is h.pool:
                    table = h.firsts if stride == 1 else h.firsts * stride
                else:
                    lookup = [h.where.get(el, size) for el in els]
                    unheld = unheld or size in lookup
                    table = np.array(lookup, dtype=np.int64) * stride
                if ids is None:
                    ids = _expand(column, table + at.offset if at.offset else table, n)
                else:
                    ids += _expand(column, table, n)
            if ids is None:
                ids = np.full(n, size if at is None else at.offset, dtype=np.int64)
            if len(errors) > known:
                ids = np.where(failed < 0, failed, ids)
            if unheld:
                digits = [_expand(column, np.arange(len(els)), n) for column, els in decorations]
                for i in np.flatnonzero(ids >= size).tolist():
                    decs = tuple(els[c[i]] for c, (_, els) in zip(digits, decorations))
                    ids[i] = size + outside.setdefault((source_colors, decs), len(outside))
            columns.append(ids)
        index = np.concatenate(columns) if len(columns) > 1 else (columns or [np.zeros(0, np.int64)])[0]
        return Restriction(index, size, list(outside), errors)

    def element_str(self, t: Tree, element):
        colors, decs = element
        parts = []
        if len(self.operad.colors) > 1:
            parts.append("|".join(str(c) for c in colors))
        parts.extend(self.operad.element_str(d) for d in decs)
        return ";".join(parts) if parts else "*"


def _digit(block, vertex):
    """The digit column of `vertex` in a block's positions, and its pool."""
    pool = block.pools[vertex]
    return (len(pool), block.strides[vertex]), pool


def _call_rows(fn, rows, errors):
    """``fn(*row)`` for each row in order: the results, None for a call that
    raised, and each row's error id (0 for none), or None when no call
    raised.  A raised error is appended to `errors`."""
    results, raised = [], {}
    for row in rows:
        try:
            results.append(fn(*row))
        except DendroError as err:
            errors.append(err)
            raised[len(results)] = -len(errors)
            results.append(None)
    if not raised:
        return results, None
    codes = np.zeros(len(results), dtype=np.int64)
    codes[list(raised)] = list(raised.values())
    return results, codes


def _run_block(P, steps, block, errors):
    """Run the plan `steps` on every value of one :class:`_Block`.

    A column is (ids, elements), ``elements[ids[i]]`` for value i.  A pick
    is the digit column (radix, stride) of its vertex in the value's
    position in the block: by the unit law the whole operation of a witness
    with identity inputs in order.  Every other step makes the operad calls
    of evaluating its witness recursively, each one call per distinct row
    of its operands among the values not yet failed.  The operands of one
    call come from distinct vertices, so while no value has failed and
    every operand is a digit column, the distinct rows are the product of
    the digits in key order; a call on at most one digit of radix above 1
    gives a digit column again.  Returns one column per step and each
    value's error id (0 for none; None while no call has failed).
    """
    colors, n, failed = block.colors, block.size, None

    def call(fn, operands):
        nonlocal failed
        if failed is None and all(type(ids) is tuple for ids, _ in operands):
            rows = itertools.product(*(els for _, els in operands))
            results, raised = _call_rows(fn, rows, errors)
            varying = [(ids, len(els)) for ids, els in operands if len(els) > 1]
            if len(varying) < 2:
                ids = varying[0][0] if varying else (1, n)
            else:
                ids, scale = 0, 1
                for digit, radix in reversed(varying):
                    ids = ids + _expand(digit, np.arange(radix) * scale, n)
                    scale *= radix
            if raised is not None:
                failed = _expand(ids, raised, n)
            return ids, results
        live = np.arange(n) if failed is None else np.flatnonzero(failed == 0)
        columns = [_expand(ids, np.arange(len(els)), n)[live] for ids, els in operands]
        first, inverse = _distinct_rows(columns, [len(els) for _, els in operands], len(live))
        args = [[els[i] for i in c[first].tolist()] for c, (_, els) in zip(columns, operands)]
        rows = (tuple(column[r] for column in args) for r in range(len(first)))
        results, raised = _call_rows(fn, rows, errors)
        ids = np.zeros(n, dtype=np.int64)
        ids[live] = inverse
        if raised is not None:
            if failed is None:
                failed = np.zeros(n, dtype=np.int64)
            failed[live] = raised[inverse]
        return ids, results

    def signature(step):
        _, _, out, kids = step[:4]
        return Signature(tuple(colors[c] for c in kids), colors[out])

    def evaluate(step):
        # the column of the operation of `step`, and its signature
        kind = step[0]
        if kind == _IDENTITY:
            out = colors[step[1]]
            return call(lambda: P.identity(out), []), Signature((out,), out)
        decoration = _digit(block, step[1])
        if kind == _PICK:
            return decoration, signature(step)
        *_, child_steps, perm = step
        parent_sig = signature(step)
        children = [evaluate(c) for c in child_steps]
        child_sigs = [sig for _, sig in children]
        inputs = tuple(c for s in child_sigs for c in s.inputs)
        out = parent_sig.output

        def compose(parent, *kids):
            el = P.compose(parent, parent_sig, list(kids), list(child_sigs))
            return el if perm is None else P.sigma(el, Signature(inputs, out), perm)

        column = call(compose, [decoration] + [column for column, _ in children])
        return column, Signature(inputs if perm is None else tuple(inputs[i] for i in perm), out)

    columns = [_digit(block, step[1]) if step[0] == _PICK else evaluate(step)[0] for step in steps]
    return columns, failed


def nerve(operad: FiniteOperad, trees=None, budget=None) -> NerveDendroidalSet:
    """The dendroidal nerve of `operad`, optionally pinned to a carrier."""
    return NerveDendroidalSet(operad, trees=trees, budget=budget)


# -- explicit tables -------------------------------------------------------------


def morphism_key(m: OmegaMorphism):
    # the source edges are sorted, so these are the edge map's pairs in order
    return (m.source.key, m.target.key, tuple(zip(m.source.edges, m._items)))


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

    def size(self, t: Tree):
        return len(self.values(t))

    def restrict_index(self, m: OmegaMorphism) -> Restriction:
        """The contravariant action along `m`: its stored action, or those of
        the non-identity steps of its factorization, the last applied acting
        first.  Each acts on the distinct values its predecessor produced,
        and the target values' ids are gathered through it.  A value an
        action has no entry for fails; a result the source does not hold is
        an outside value; a target outside the carrier has no values."""
        generators = [m]
        if morphism_key(m) not in self._actions:
            fact = factorize(m)
            steps = [*fact.degeneracies, fact.isomorphism, *(f.morphism for f in fact.faces)]
            generators = [
                s for s in steps if s.source != s.target or any(s(e) != e for e in s.source.edges)
            ]
            for step in generators:
                if morphism_key(step) not in self._actions:
                    raise DomainError("missing generator action", {"morphism": step.to_json()})
        pool, errors = {}, []
        ids = [pool.setdefault(el, len(pool)) for el in self._values.get(m.target, ())]
        ids = np.array(ids, dtype=np.int64)
        for g in reversed(generators):
            table, images, remap = self._actions[morphism_key(g)], {}, []
            for el in pool:
                if el in table:
                    remap.append(images.setdefault(table[el], len(images)))
                else:
                    detail = {"morphism": g.to_json(), "value": str(el)}
                    errors.append(DomainError("stored action has no entry for value", detail))
                    remap.append(-len(errors))
            ids, pool = _gather(ids, remap), images
        held = self._values.get(m.source, ())
        first = first_positions(held)
        outside = [el for el in pool if el not in first]
        first.update((el, len(held) + j) for j, el in enumerate(outside))
        return Restriction(_gather(ids, [first[el] for el in pool]), len(held), outside, errors)

    def element_str(self, t: Tree, element):
        return str(element)

    def to_json(self):
        text = _Texts()
        trees = [t.term for t in self.trees]
        values = {t.term: list(map(text.__getitem__, self._values[t])) for t in self.trees}
        by_key = {t.key: t for t in self.trees}
        actions = []

        def order(item):
            k = item[0]
            return text[k] if type(k) is tuple else repr(k)

        # entries in the order of str((key, item)): keys are distinct and
        # their reprs are prefix-free literals, so repr(key) alone fixes it;
        # a tuple's repr is its str
        for skey, tkey, pairs in sorted(self._actions, key=repr):
            table = self._actions[skey, tkey, pairs]
            m = OmegaMorphism(by_key[skey], by_key[tkey], dict(pairs), _checked=True)
            rows = sorted(table.items(), key=order)
            actions.append({"morphism": m.to_json(), "map": {text[k]: text[v] for k, v in rows}})
        return {"trees": trees, "values": values, "actions": actions}

    @classmethod
    def from_json(cls, payload, name="table"):
        trees = [parse_tree(term) for term in payload["trees"]]
        values = {}
        for t, term in zip(trees, payload["trees"]):
            values[t] = tuple(payload["values"][term])
        # a term names one tree wherever it appears, so each is parsed once
        parsed = dict(zip(payload["trees"], trees))

        def tree(term):
            if term not in parsed:
                parsed[term] = parse_tree(term)
            return parsed[term]

        actions = {}
        for entry in payload["actions"]:
            m = entry["morphism"]
            source, target = tree(m["source_key"]), tree(m["target_key"])
            edge_map = {parse_address(k): parse_address(v) for k, v in m["edge_map"].items()}
            m = OmegaMorphism(source, target, edge_map)
            actions[morphism_key(m)] = dict(entry["map"])
        return cls(trees, values, actions, name=name)


class _Texts(dict):
    """The str of every value met, each stringified once."""

    def __missing__(self, value):
        text = self[value] = str(value)
        return text


def _gather(ids, table):
    """`ids` read through `table`, error ids (negative) kept."""
    out = ids.copy()
    ok = ids >= 0
    out[ok] = np.asarray(table, dtype=np.int64)[ids[ok]]
    return out


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
    values = {t: tuple(X.values(t)) for t in trees}
    keys = {t.key for t in trees}
    actions = {}

    def store(m):
        restricted = X.restrict_index(m).decoded(values[m.source])
        actions[morphism_key(m)] = dict(zip(values[m.target], restricted))

    for t in trees:
        for face in elementary_faces(t):
            if face.morphism.source.key in keys:
                store(face.morphism)
        for sigma in degeneracies(t):
            if sigma.target.key in keys:
                store(sigma)
        for alpha in automorphisms(t):
            if any(alpha[e] != e for e in t.edges):
                store(OmegaMorphism(t, t, alpha, _checked=True))
    return TableDendroidalSet(trees, values, actions, name=name or X.name)


# -- Segal cores ------------------------------------------------------------------


class CorollaBoundary(NamedTuple):
    """The k-corolla's values by position, the first position of each value
    (`index`; its values are the distinct positions), the one-edge ids
    of each position's root and leaf restrictions, `root[p]` and
    `leaves[p, slot]`, and per distinct position the row (position, root
    id, leaf ids)."""

    values: tuple
    index: dict
    root: np.ndarray
    leaves: np.ndarray
    rows: list


def _corolla_boundary(X, k, strays):
    """Boundary arrays of the k-corolla.  One-edge ids are positions at the
    one-edge tree; a value it does not hold gets an id past them through
    `strays`, shared across arities so that equal values compare equal."""
    tk = corolla(k)
    edges = [X.restrict_index(edge_inclusion(tk, e)) for e in [()] + [(i,) for i in range(k)]]
    values = tuple(X.values(tk))
    index = first_positions(values)
    _raise_first_error(edges[:1])
    if k:
        _raise_first_error(edges[1:])
    ids = np.stack([r.index for r in edges], axis=1)
    for slot, r in enumerate(edges):
        for p in np.flatnonzero(r.index >= r.size).tolist():
            ids[p, slot] = r.size + strays.setdefault(r.outside[r.index[p] - r.size], len(strays))
    distinct = list(index.values())
    rows = list(zip(distinct, ids[distinct, 0].tolist(), map(tuple, ids[distinct, 1:].tolist())))
    # one-edge ids are few, and each slot's leaf ids lie together, so that
    # the check gathers them in narrow contiguous columns
    ids = np.asfortranarray(ids, dtype=np.int32)
    return CorollaBoundary(values, index, ids[:, 0], ids[:, 1:], rows)


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


class _SegalShape(NamedTuple):
    """Per vertex of a tree, in vertex order: its arity, its subcorolla
    inclusion, and its inner inputs as (slot, vertex position) links."""

    arities: tuple
    corollas: tuple
    links: tuple


@lru_cache(maxsize=_CACHE_SIZE)
def _segal_shape(t: Tree) -> _SegalShape:
    """What the Segal check reads of `t`, built once per tree so that the
    checks of several dendroidal sets over one carrier share it."""
    kids = t.index.kids
    verts = [v for v, inputs in enumerate(kids) if inputs is not None]
    position = {v: i for i, v in enumerate(verts)}
    links = tuple(
        tuple((slot, position[c]) for slot, c in enumerate(kids[v]) if c in position)
        for v in verts
    )
    return _SegalShape(
        tuple(len(kids[v]) for v in verts),
        tuple(_subcorolla(t, v) for v in verts),
        links,
    )


def _core_count(shape: _SegalShape, boundary):
    """Number of core families by dynamic programming over the vertex tree,
    grouping corolla values by their boundary restrictions: per vertex, the
    families of the branch above it counted by their root id."""

    def counts(vi):
        kids = [(slot, counts(ci)) for slot, ci in shape.links[vi]]
        found = {}
        for _, root, leaves in boundary[shape.arities[vi]].rows:
            ways = 1
            for slot, below in kids:
                ways *= below.get(leaves[slot], 0)
                if not ways:
                    break
            if ways:
                found[root] = found.get(root, 0) + ways
        return found

    return sum(counts(0).values())


def _value_columns(X, t: Tree, budget):
    """Charge the check for the values at `t` and return their corolla
    columns: per vertex, the position at the corolla of each value's
    restriction to the subcorolla there."""
    charge("segal check values", X.size(t), budget)
    shape = _segal_shape(t)
    restrictions = [X.restrict_index(m) for m in shape.corollas]
    for k, r in zip(shape.arities, restrictions):
        _raise_first_error([r])
        if r.outside:
            value = r.outside[r.index[np.flatnonzero(r.index >= r.size)[0]] - r.size]
            raise DomainError(
                "restriction is not a corolla value",
                {"tree": corolla(k).term, "value": str(value)},
            )
    return [r.index for r in restrictions]


# Key spaces up to this many times the row count are scattered into rather
# than sorted; a single-coloured nerve's key space is its value count.
_SCATTER_RATIO = 8


def _first_repeat(columns, radices):
    """The first row of the stacked columns equal to an earlier row, or None.
    Below two rows there is none.  When the key space is small, one scatter
    into it shows whether any row repeats; a repeat, or a larger key space,
    is located with `np.unique`."""
    n = len(columns[0])
    if n < 2:
        return None
    keys = _row_keys(columns, radices, n)
    if keys.ndim == 1 and math.prod(radices) <= _SCATTER_RATIO * n:
        seen = np.zeros(math.prod(radices), dtype=bool)
        seen[keys] = True
        if np.count_nonzero(seen) == n:
            return None
    _, first = np.unique(keys, axis=0 if keys.ndim > 1 else None, return_index=True)
    if len(first) == n:
        return None
    repeated = np.ones(n, dtype=bool)
    repeated[first] = False
    return int(np.flatnonzero(repeated)[0])


def _segal_failure(t: Tree, columns, boundary):
    """The failure record at `t`, or None.  Reports the first value, in value
    order, whose family repeats an earlier one or leaves the core; with
    neither, the map is injective into the core and is onto exactly when
    the value count equals the core count.  Once a value leaves the core,
    only the values before it are searched further."""
    shape = _segal_shape(t)
    arities = shape.arities
    n = len(columns[0])
    first, reason = n, None
    for vi, links in enumerate(shape.links):
        leaves = boundary[arities[vi]].leaves
        for slot, ci in links:
            if not first:
                break
            leaf_ids = np.take(leaves[:, slot], columns[vi][:first])
            differ = leaf_ids != np.take(boundary[arities[ci]].root, columns[ci][:first])
            i = int(differ.argmax())
            if differ[i]:
                first, reason = i, "image outside core"
    # a repeated family equals an earlier one, which would leave the core
    # first; so a repeat ahead of `first` is the earliest failure
    repeat = _first_repeat(
        [column[:first] for column in columns], [len(boundary[k].values) for k in arities]
    )
    if repeat is not None:
        first, reason = repeat, "not injective"
    if reason is not None:
        family = tuple(
            boundary[k].values[column[first]] for k, column in zip(arities, columns)
        )
        return {"tree": t.term, "reason": reason, "family": str(family)}
    core_count = _core_count(shape, boundary)
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

    The map is computed on index arrays, not on value tuples (see the module
    docstring); an injective map into the core with as many values as core
    families is a bijection.
    """
    if trees is None:
        trees = X.trees
    if trees is None:
        raise DomainError("no carrier given for the Segal check")
    report = SegalReport(getattr(X, "name", "dendroidal set"))
    boundary, strays = {}, {}
    for t in trees:
        try:
            report.checked.append(t.term)
            if not t.vertices:
                # the core is the value set itself and the map is the identity
                X.values(t)
                continue
            for k in set(_segal_shape(t).arities):
                if k not in boundary:
                    boundary[k] = _corolla_boundary(X, k, strays)
            columns = _value_columns(X, t, budget)
            failure = _segal_failure(t, columns, boundary)
            if failure is not None:
                report.failures.append(failure)
        except DomainError as err:
            report.failures.append(
                {"tree": t.term, "reason": "restriction unavailable", "detail": err.payload()}
            )
    return report


# -- operad reconstruction ----------------------------------------------------------


def _grafting(arities):
    """The tree grafting a corolla of each arity in `arities` onto the
    inputs of a root corolla; the maps of the root corolla and of each slot
    corolla into it, in that order; and the map of the corolla on all its
    leaves, slot by slot.

    A k-corolla's term sorts before a (k+1)-corolla's, so the canonical tree
    holds the slots stably sorted by arity, and each slot's edge is followed
    by its leaves in preorder."""
    order = sorted(range(len(arities)), key=arities.__getitem__)
    tree = Tree((tuple((((LEAF, None),) * arities[j], None) for j in order), None), _canonical=True)
    slot_edge, next_id = [0] * len(arities), 1
    for j in order:
        slot_edge[j], next_id = next_id, next_id + 1 + arities[j]
    slots = [tuple(range(e, e + 1 + k)) for e, k in zip(slot_edge, arities)]
    family = tuple(
        OmegaMorphism._from_ids(corolla(len(ids) - 1), tree, ids)
        for ids in [(0, *slot_edge), *slots]
    )
    leaves = tuple(e for ids in slots for e in ids[1:])
    return tree, family, OmegaMorphism._from_ids(corolla(len(leaves)), tree, (0, *leaves))


class ReconstructedOperad(FiniteOperad):
    """The operad carried by a strict-Segal dendroidal set.

    Colors are the values at the one-edge tree; arity-n operations are the
    values at the n-corolla grouped by the one-edge ids of their edge
    restrictions; composition finds the value of a two-level grafted tree
    whose restrictions to the root and slot corollas are the given family,
    and reads its full-corolla restriction; identities are degeneracy
    images.
    """

    name = "reconstructed"

    def __init__(self, X, arity_bound, budget=None):
        self.X = X
        self.arity_bound = arity_bound
        self.budget = budget
        self.colors = tuple(X.values(ETA))
        self._color_ids = first_positions(self.colors)
        self._boundary, self._strays = {}, {}
        self._homs = {}
        self._graft_plans = {}
        self._sigma_acts = {}
        self._identities = None

    def _corolla(self, k):
        if k not in self._boundary:
            self._boundary[k] = _corolla_boundary(self.X, k, self._strays)
        return self._boundary[k]

    def hom(self, inputs, output):
        n = len(inputs)
        self.check_arity(n)
        if n not in self._homs:
            b = self._corolla(n)
            groups = {}
            for p, root, leaves in b.rows:
                groups.setdefault((leaves, root), []).append(b.values[p])
            self._homs[n] = {key: tuple(els) for key, els in groups.items()}
        ids = self._color_ids
        return self._homs[n].get((tuple(ids.get(c) for c in inputs), ids.get(output)), ())

    def identity(self, color):
        if self._identities is None:
            # degeneracy: 1-corolla -> one-edge tree; its action makes identities
            r = self.X.restrict_index(degeneracy_at(corolla(1), ()))
            restricted = r.decoded(self.X.values(corolla(1)) if r.size else ())
            self._identities = dict(zip(self.colors, restricted))
        return self._identities[color]

    def compose(self, parent, parent_sig, children, child_sigs):
        key = (parent_sig.arity, tuple(s.arity for s in child_sigs))
        if key not in self._graft_plans:
            self._graft_plans[key] = self._graft_plan(*key)
        indexes, composites, total, values = self._graft_plans[key]
        try:
            p = composites[tuple(index[el] for index, el in zip(indexes, (parent, *children)))]
        except KeyError:
            raise DomainError(
                "no grafted element restricting to the given family; "
                "the dendroidal set is not strict Segal on the grafted tree"
            )
        return total.decode(p, values)

    def _graft_plan(self, n, arities):
        """(the corolla index of each family member, the full-corolla id of
        the grafted value of each family, that restriction, the values it
        decodes against).  A grafted value's family is its restrictions to
        the root corolla, leaf j at slot j, and to each slot's corolla.  The
        grafted tree's values are counted first, so that a tree outside a
        table set's carrier is named as such."""
        tree, family_maps, total_map = _grafting(arities)
        indexes = [self._corolla(k).index for k in (n, *arities)]
        size = self.X.size(tree)
        charge("reconstruction graft values", size, self.budget)
        family = [self.X.restrict_index(m) for m in family_maps]
        _raise_first_error(family)
        keys = list(zip(*(r.index.tolist() for r in family)))
        if len(set(keys)) < size:
            raise DomainError(
                "grafted tree value restricts non-uniquely; "
                "the dendroidal set is not strict Segal"
            )
        total = self.X.restrict_index(total_map)
        values = tuple(self.X.values(total_map.source)) if total.size else ()
        return indexes, dict(zip(keys, total.index.tolist())), total, values

    def sigma(self, element, sig, perm):
        perm = tuple(perm)
        b = self._corolla(len(perm))
        if perm not in self._sigma_acts:
            r = self.X.restrict_index(leaf_relabel_automorphism(len(perm), perm))
            self._sigma_acts[perm] = r, r.index.tolist()
        r, ids = self._sigma_acts[perm]
        return r.decode(ids[b.index[element]], b.values)

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
