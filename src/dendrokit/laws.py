"""Operad laws checked on integer composition tables.

`_Tables` tabulates an operad: a hom element is an integer id (its
position), and a (parent, children) signature pair or a (signature,
permutation) pair is an int array of value ids, one scalar ``compose`` or
``sigma`` per entry.  ``check_axioms`` (behind ``operads.check_operad_axioms``)
checks each law on one operad's tables; ``check_isomorphism`` (behind
``dendroidal.verify_operad_isomorphism``) compares two operads' tables
through an element map.

Every grid of instances takes one of two paths.  A regular grid reads only
hom positions: its two sides are compared as gathers of id arrays, and only
the instances whose ids differ are recomputed.  An irregular grid reads a
call that raised or a value outside its hom-set, and every instance is
recomputed.  The recomputation (each grid's ``replay``) makes the law's
scalar calls, raises where the instance raises, and is the only place that
reports a violation or a failure.  Elements and images must be hashable.
Only those two entry points import this module, when called.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceeded, DendroError, resolve_budget
from .operads import (
    AxiomReport,
    Signature,
    block_permutation,
    composition_instances,
    direct_sum_permutation,
    first_positions,
    perm_compose,
    perm_inverse,
)

# Cells of one slice of an instance grid, unless a block is larger.
_SLICE = 1 << 14

# The id of a value outside its hom-set, and the cell of a call that raised.
_IRREGULAR = -1

# Largest arity whose symmetric group the symmetry and equivariance laws
# run through.
MAX_PERM_ARITY = 4


def _sig_str(s):
    return f"({','.join(map(str, s.inputs))};{s.output})"


def _composite(sig, child_sigs):
    """The signature of `sig` composed with `child_sigs`."""
    return Signature(tuple(c for s in child_sigs for c in s.inputs), sig.output)


def _permuted(sig, perm):
    """The signature of an element of `sig` acted on by `perm`."""
    return Signature(tuple(sig.inputs[i] for i in perm), sig.output)


class _Block:
    """One composition block or symmetry table: the ids of its values over
    every choice of hom positions, laid out row-major at `offset` of the
    arena.  Axis 0 is the parent (or the permuted element), the others the
    children.  `irregular` when a cell is `_IRREGULAR`."""

    __slots__ = ("offset", "shape", "strides", "out_sig", "irregular")

    def __init__(self, offset, shape, out_sig, irregular):
        self.offset, self.shape, self.out_sig, self.irregular = offset, shape, out_sig, irregular
        self.strides = tuple(math.prod(shape[i + 1 :]) for i in range(len(shape)))


class _Tables:
    """The integer tables of one operad, each filled on first use.

    Every element of ``P.hom(sig)`` is identified by its first position, and
    ``elements[sig]`` is that hom list; a value outside it has the id
    `_IRREGULAR`, and signatures outside the checked ones have no positions
    at all.  A composition block holds one ``P.compose`` per (parent,
    children) choice and a symmetry table one ``P.sigma`` per element, all
    in one int64 arena.  A call that raises or returns a value outside its
    hom-set leaves `_IRREGULAR` in its cell and makes its block irregular.
    """

    def __init__(self, P, sigs):
        self.P = P
        self._known = set(sigs)
        self.elements = {}  # sig -> hom elements by position
        self._ids = {}  # sig -> {element: first position}
        self._composed = {}  # (sig, child sigs) -> block
        self._acted = {}  # (sig, perm) -> symmetry table
        self.cells = np.empty(1024, dtype=np.int64)
        self._used = 0
        self.largest = 0

    def hom(self, sig):
        els = self.elements.get(sig)
        if els is None:
            els = list(self.P.hom(sig.inputs, sig.output)) if sig in self._known else []
            self.elements[sig], self._ids[sig] = els, first_positions(els)
        return els

    def size(self, sig):
        return len(self.hom(sig))

    def id_of(self, sig, element):
        self.hom(sig)
        return self._ids[sig].get(element, _IRREGULAR)

    def canonical(self, sig):
        """The id of the element at every hom position of `sig`."""
        return self.column([self.id_of(sig, e) for e in self.hom(sig)])

    def _fill(self, axes, out_sig, fn, calls):
        """The block over `axes` of the ids of ``fn(*args)`` for every args
        of `calls`, in order.  The id dict of `out_sig` is looked up once
        per block, not once per value."""
        self.hom(out_sig)
        get = self._ids[out_sig].get

        def values():
            for args in calls:
                try:
                    value = fn(*args)
                except DendroError:
                    yield _IRREGULAR
                else:
                    yield get(value, _IRREGULAR)

        shape = tuple(self.size(s) for s in axes)
        n = math.prod(shape)
        if self._used + n >= len(self.cells):
            grown = np.empty(2 * (self._used + n) + 1, dtype=np.int64)
            grown[: self._used] = self.cells[: self._used]
            self.cells = grown
        cells = self.cells[self._used : self._used + n]
        cells[:] = np.fromiter(values(), dtype=np.int64, count=n)
        block = _Block(self._used, shape, out_sig, bool(n > 0 and cells.min() < 0))
        self._used += n
        self.largest = max(self.largest, n)
        return block

    def compose(self, sig, child_sigs):
        """The block of ``P.compose`` over (parent, children) positions."""
        block = self._composed.get((sig, child_sigs))
        if block is None:
            kids = list(child_sigs)
            pools = [self.hom(s) for s in child_sigs]
            calls = (
                (parent, sig, list(children), kids)
                for parent in self.hom(sig)
                for children in itertools.product(*pools)
            )
            out = _composite(sig, child_sigs)
            block = self._composed[sig, child_sigs] = self._fill(
                (sig, *child_sigs), out, self.P.compose, calls
            )
        return block

    def sigma(self, sig, perm):
        """The table of ``P.sigma(·, sig, perm)`` over the positions of `sig`."""
        block = self._acted.get((sig, perm))
        if block is None:
            calls = ((el, sig, perm) for el in self.hom(sig))
            out = _permuted(sig, perm)
            block = self._acted[sig, perm] = self._fill((sig,), out, self.P.sigma, calls)
        return block

    def column(self, values):
        return np.array(values, dtype=np.int64)


def _suffix_products(rows):
    """Row i: the product of rows i.. of a 2-D int array; a last row of ones."""
    out = np.ones((len(rows) + 1, rows.shape[1]), dtype=np.int64)
    out[:-1] = np.cumprod(rows[::-1], axis=0)[::-1]
    return out


def _scan(T, rows, cols, evaluate, replay, regular, stop=None):
    """What ``replay(r, c)`` returns, unless None, for the instances of a
    rows x cols grid that may break their law, in row-major order.

    On a regular grid these are the instances whose sides differ:
    ``evaluate(r0, r1, c0, c1)`` returns the lhs and rhs id arrays of a
    slice, and no slice holds more cells than the largest block or
    `_SLICE`.  On an irregular grid they are all its instances, or the
    first `stop` of them.  ``replay`` recomputes an instance by scalar calls
    and raises where the instance does."""
    if not regular:
        hits = (divmod(i, cols) for i in range(rows * cols if stop is None else stop))
        yield from filter(None, itertools.starmap(replay, hits))
        return
    cap = max(_SLICE, T.largest)
    step = max(1, cap // cols)
    for r0 in range(0, rows, step):
        for c0 in range(0, cols, cap):
            lhs, rhs = evaluate(r0, min(rows, r0 + step), c0, min(cols, c0 + cap))
            i, j = np.nonzero(lhs != rhs)
            yield from filter(None, map(replay, (r0 + i).tolist(), (c0 + j).tolist()))


# -- the laws, one instance grid at a time ---------------------------------------


def _check_units(T, report, sigs):
    """Right and left unit: rows are the elements of a signature, columns
    the two laws."""
    P = T.P
    laws = ("right-unit", "left-unit")
    for s in sigs:
        if s.arity == 0:
            continue
        id_sigs = tuple(Signature((c,), c) for c in s.inputs)
        out_sig = Signature((s.output,), s.output)
        ids = [P.identity(c) for c in s.inputs]
        out_id = P.identity(s.output)
        right, left = T.compose(s, id_sigs), T.compose(out_sig, (s,))
        r_pos = T.column([T.id_of(*a) for a in zip(id_sigs, ids)])
        l_pos = T.id_of(out_sig, out_id)
        regular = not (right.irregular or left.irregular) and min(l_pos, *r_pos) >= 0
        r_base = right.offset + int(r_pos @ T.column(right.strides[1:]))
        l_base = left.offset + l_pos * left.strides[0]
        canon, cells = T.canonical(s), T.cells

        def evaluate(r0, r1, c0, c1):
            el = np.arange(r0, r1)
            lhs = np.stack([cells[r_base + el * right.strides[0]], cells[l_base + el]], axis=1)
            rhs = np.repeat(canon[r0:r1, None], 2, axis=1)
            return lhs[:, c0:c1], rhs[:, c0:c1]

        def replay(el, law):
            element = T.elements[s][el]
            if law == 0:
                got = P.compose(element, s, list(ids), list(id_sigs))
            else:
                got = P.compose(out_id, out_sig, [element], [s])
            if got != element:
                return laws[law], {"sig": _sig_str(s), "element": str(element)}, got, element

        for found in _scan(T, right.shape[0], 2, evaluate, replay, regular):
            report.add(*found)
        report.checked += 2 * right.shape[0]


def _check_associativity(T, report, instances, sigs, arity_bound, limit):
    """``(f ∘ gs) ∘ hs == f ∘ (g_i ∘ block_i(hs))`` per composition instance:
    rows are the (f, gs) choices, columns every grandchild signature combo
    with its (hs) choices, in product order.  A regular grid that crosses
    the budget raises at once; an irregular one is recomputed up to the
    budget first."""
    P, column = T.P, T.column
    by_output = {}
    for s in sigs:
        by_output.setdefault(s.output, []).append(s)
    below = {}

    def blocks_below(sig):
        """Grandchild signature combos for the inputs of `sig` in product
        order, pruned as soon as their arities exceed the bound, with the
        block of `sig` over each and that block's offsets, first-axis
        strides, value hom sizes and combo arities as columns."""
        if sig not in below:
            combos = [((), 0)]
            for c in sig.inputs:
                combos = [
                    (h + (s,), total + s.arity)
                    for h, total in combos
                    for s in by_output.get(c, ())
                    if total + s.arity <= arity_bound
                ]
            blocks = [T.compose(sig, h) for h, _ in combos]
            below[sig] = (
                [h for h, _ in combos],
                blocks,
                column([b.offset for b in blocks]),
                column([b.strides[0] for b in blocks]),
                column([T.size(b.out_sig) for b in blocks]),
                [total for _, total in combos],
            )
        return below[sig]

    count = 0
    for ps, cs in instances:
        mid = _composite(ps, cs)
        if mid.arity == 0:
            # composing the nullary composite with nothing is trivial
            continue
        combos, B, b_off, b_step, _, _ = blocks_below(mid)
        if not combos:
            continue
        A = T.compose(ps, cs)
        D = [blocks_below(g) for g in cs]
        # the combos of `mid` are one combo per child, within the bound, in
        # the same product order
        picks = [((), 0)]
        for _, _, _, _, _, arities in D:
            picks = [
                (p + (j,), total + a)
                for p, total in picks
                for j, a in enumerate(arities)
                if total + a <= arity_bound
            ]
        picks = [p for p, _ in picks]
        E = [T.compose(ps, tuple(d[1][j].out_sig for d, j in zip(D, p))) for p in picks]
        regular = not any(t.irregular for t in (A, *B, *E, *(b for d in D for b in d[1])))

        starts = list(itertools.accumulate(b_step.tolist(), initial=0))
        rows, cols = math.prod(A.shape), starts[-1]
        stop = limit - count if count + rows * cols > limit else None
        if stop is not None and regular:
            raise BudgetExceeded("associativity instances", limit + 1, limit)

        # per child (rows) and combo (columns): where the child's block sits,
        # how its first axis steps, the hom size of its values, the hs
        # choices of the later children and the stride of its value in E
        pick = column(picks).reshape(len(picks), len(cs)).T
        d_off, d_step, d_size = (np.stack([d[x][p] for d, p in zip(D, pick)]) for x in (2, 3, 4))
        d_inner, e_step = _suffix_products(d_step)[1:], _suffix_products(d_size)
        e_off = column([e.offset for e in E])
        ends, first = column(starts[1:]), column(starts[:-1])
        cells = T.cells

        def evaluate(r0, r1, c0, c1):
            fg = np.arange(r0, r1)[:, None]
            col = np.arange(c0, c1)
            combo = np.searchsorted(ends, col, side="right")
            local = col - first[combo]
            lhs = cells[b_off[combo] + local + cells[A.offset + fg] * b_step[combo]]
            step, e = d_step[:, combo], e_step[:, combo]
            read = d_off[:, combo] + local // d_inner[:, combo] % step
            at = e_off[combo] + fg // A.strides[0] * e[0]
            for i in range(len(cs)):
                at = at + cells[read[i] + fg // A.strides[i + 1] % A.shape[i + 1] * step[i]] * e[i + 1]
            return lhs, cells[at]

        def replay(fg, col):
            f, *gs = np.unravel_index(fg, A.shape)
            c = bisect.bisect_right(starts, col) - 1
            hs = np.unravel_index(col - starts[c], B[c].shape[1:])
            f = T.elements[ps][f]
            gs = [T.elements[s][g] for s, g in zip(cs, gs)]
            hs = [T.elements[s][h] for s, h in zip(combos[c], hs)]
            lhs = P.compose(P.compose(f, ps, gs, list(cs)), mid, hs, list(combos[c]))
            rhs_children, rhs_sigs, pos = [], [], 0
            for g, s in zip(gs, cs):
                h_sigs = list(combos[c][pos : pos + s.arity])
                rhs_children.append(P.compose(g, s, hs[pos : pos + s.arity], h_sigs))
                rhs_sigs.append(_composite(s, h_sigs))
                pos += s.arity
            rhs = P.compose(f, ps, rhs_children, rhs_sigs)
            if lhs != rhs:
                where = {
                    "parent": _sig_str(ps),
                    "children": [_sig_str(s) for s in cs],
                    "f": str(f),
                    "gs": [str(g) for g in gs],
                    "hs": [str(h) for h in hs],
                }
                return "associativity", where, lhs, rhs

        for found in _scan(T, rows, cols, evaluate, replay, regular, stop):
            report.add(*found)
        if stop is not None:
            raise BudgetExceeded("associativity instances", limit + 1, limit)
        count += rows * cols
        report.checked += rows * cols


def _check_symmetry(T, report, sigs):
    """sigma by the identity fixes every element, and acting by p then by q
    is acting by ``perm_compose(p, q)``: rows are the elements of a
    signature, columns the identity law and then every (p, q)."""
    P = T.P
    for s in sigs:
        n = s.arity
        if n < 2 or n > MAX_PERM_ARITY:
            continue
        ident = tuple(range(n))
        pairs = list(itertools.product(itertools.permutations(range(n)), repeat=2))
        once = {p: T.sigma(s, p) for p, _ in pairs}
        then = [T.sigma(once[p].out_sig, q) for p, q in pairs]
        both = [once[perm_compose(p, q)] for p, q in pairs]
        regular = not any(t.irregular for t in (*once.values(), *then))
        p_off, q_off = T.column([once[p].offset for p, _ in pairs]), T.column([t.offset for t in then])
        pq_off = T.column([t.offset for t in both])
        id_off, canon, cells = once[ident].offset, T.canonical(s), T.cells

        def evaluate(r0, r1, c0, c1):
            el = np.arange(r0, r1)[:, None]
            pick = slice(max(c0, 1) - 1, c1 - 1)
            lhs = [cells[q_off[pick] + cells[p_off[pick] + el]]]
            rhs = [cells[pq_off[pick] + el]]
            if c0 == 0:
                lhs.insert(0, cells[id_off + el])
                rhs.insert(0, canon[r0:r1, None])
            return np.concatenate(lhs, axis=1), np.concatenate(rhs, axis=1)

        def replay(el, col):
            element = T.elements[s][el]
            where = {"sig": _sig_str(s), "element": str(element)}
            if col == 0:
                got = P.sigma(element, s, ident)
                return ("sigma-identity", where, got, element) if got != element else None
            p, q = pairs[col - 1]
            one = P.sigma(P.sigma(element, s, p), _permuted(s, p), q)
            two = P.sigma(element, s, perm_compose(p, q))
            return ("sigma-functoriality", {**where, "p": p, "q": q}, one, two) if one != two else None

        for found in _scan(T, T.size(s), 1 + len(pairs), evaluate, replay, regular):
            report.add(*found)
        report.checked += T.size(s) * (1 + len(pairs))


class _Column(NamedTuple):
    """One column of the equivariance grid: its law and instance fields, the
    operand it acts on (0 for f, 1 + slot for g_slot) through the symmetry
    table `act`, the composition block `lhs` read with `strides` per
    operand, and the permutation of the composite on the right-hand side."""

    law: str
    where: dict
    operand: int
    act: _Block
    lhs: _Block
    strides: tuple
    perm: tuple


def _check_equivariance(T, report, instances):
    """Composition against the symmetric action: ``(f·p) ∘ (gs permuted by
    p) == (f ∘ gs)·(block permutation of p)`` and ``f ∘ (gs with g_slot·tau)
    == (f ∘ gs)·(direct sum of tau)``.  Rows are the (f, gs) choices,
    columns every parent permutation and then every (slot, tau).  Each
    column acts on one operand (0 for f, 1 + slot for g_slot) through a
    symmetry table and reads its lhs from a composition block."""
    P = T.P
    for ps, cs in instances:
        n = ps.arity
        if n > MAX_PERM_ARITY:
            continue
        arities = [s.arity for s in cs]
        A = T.compose(ps, cs)
        base_sig = A.out_sig
        laws = []
        for p in itertools.permutations(range(n)):
            act = T.sigma(ps, p)
            lhs = T.compose(act.out_sig, tuple(cs[i] for i in p))
            inv = perm_inverse(p)
            strides = (lhs.strides[0], *(lhs.strides[1 + inv[i]] for i in range(n)))
            perm = block_permutation(p, arities)
            laws.append(_Column("parent-equivariance", {"perm": p}, 0, act, lhs, strides, perm))
        for slot, k in enumerate(arities):
            if k < 2 or k > MAX_PERM_ARITY:
                continue
            for tau in itertools.permutations(range(k)):
                act = T.sigma(cs[slot], tau)
                lhs = T.compose(ps, cs[:slot] + (act.out_sig,) + cs[slot + 1 :])
                taus = [tau if i == slot else tuple(range(a)) for i, a in enumerate(arities)]
                perm = direct_sum_permutation(taus)
                where = {"slot": slot, "perm": tau}
                laws.append(_Column("child-equivariance", where, 1 + slot, act, lhs, lhs.strides, perm))
        rhs_tables = [T.sigma(base_sig, law.perm) for law in laws]
        regular = not any(t.irregular for t in (A, *rhs_tables, *(x for law in laws for x in (law.act, law.lhs))))
        column = T.column
        operand = column([law.operand for law in laws])
        s_off = column([law.act.offset for law in laws])
        c_off = column([law.lhs.offset for law in laws])
        c_step = [column([law.strides[j] for law in laws]) for j in range(n + 1)]
        a_step = column([law.strides[law.operand] for law in laws])
        r_off, cells = column([t.offset for t in rhs_tables]), T.cells

        def evaluate(r0, r1, c0, c1):
            fg = np.arange(r0, r1)
            pick = slice(c0, c1)
            xs = np.stack([fg // st % m for st, m in zip(A.strides, A.shape)], axis=1)
            x = xs[:, operand[pick]]
            at = c_off[pick] + (cells[s_off[pick] + x] - x) * a_step[pick]
            for j in range(n + 1):
                at = at + xs[:, j, None] * c_step[j][pick]
            return cells[at], cells[r_off[pick] + cells[A.offset + fg][:, None]]

        def replay(fg, col):
            f, *gs = np.unravel_index(fg, A.shape)
            law, extra = laws[col].law, laws[col].where
            f = T.elements[ps][f]
            gs = [T.elements[s][g] for s, g in zip(cs, gs)]
            base = P.compose(f, ps, gs, list(cs))
            if law == "parent-equivariance":
                p = extra["perm"]
                lhs = P.compose(P.sigma(f, ps, p), _permuted(ps, p), [gs[i] for i in p], [cs[i] for i in p])
            else:
                slot, tau = extra["slot"], extra["perm"]
                gs[slot] = P.sigma(gs[slot], cs[slot], tau)
                sigs_t = cs[:slot] + (_permuted(cs[slot], tau),) + cs[slot + 1 :]
                lhs = P.compose(f, ps, gs, list(sigs_t))
            rhs = P.sigma(base, base_sig, laws[col].perm)
            if lhs != rhs:
                where = {"parent": _sig_str(ps), **extra}
                if law == "parent-equivariance":
                    where["f"] = str(f)
                return law, where, lhs, rhs

        for found in _scan(T, math.prod(A.shape), len(laws), evaluate, replay, regular):
            report.add(*found)
        report.checked += math.prod(A.shape) * len(laws)


def check_axioms(P, arity_bound, budget=None):
    """The body of ``operads.check_operad_axioms``: one grid of instances
    per law and signature or composition instance, compared a slice at a
    time; the symmetry and equivariance laws skip arities above
    `MAX_PERM_ARITY`."""
    report = AxiomReport(P.name, arity_bound)
    sigs = P.nonempty_signatures(arity_bound, budget=budget)
    instances = composition_instances(P, arity_bound, sigs, budget=budget)

    # identity elements exist
    for c in P.colors:
        ident = P.identity(c)
        if ident not in P.hom((c,), c):
            report.add("identity-exists", {"color": str(c)}, ident, P.hom((c,), c))
        report.checked += 1

    T = _Tables(P, sigs)
    _check_units(T, report, sigs)
    _check_associativity(T, report, instances, sigs, arity_bound, resolve_budget(budget))
    _check_symmetry(T, report, sigs)
    _check_equivariance(T, report, instances)
    return report


# -- isomorphisms, one pair of tables at a time ------------------------------------


def check_isomorphism(P, Q, color_map, element_map, arity_bound, budget=None):
    """The body of ``dendroidal.verify_operad_isomorphism``: the element
    maps by (inputs, output), the instance count and the failures.

    Each P signature's elements map to one array of Q ids (`image`),
    `_IRREGULAR` where an image lies outside Q's hom-set.  On a regular
    grid an instance compares P's table, read through the image of its
    result, with Q's table read at the images, and only the instances that
    differ are recomputed by scalar calls.  A grid that reads a raised cell,
    a value outside P's hom-sets or an image outside Q's is recomputed
    whole, and so are the instances below the budget in the grid that
    crosses it, before the budget error.  Every failure comes from a
    recomputation."""
    failures, checks, limit = [], 0, resolve_budget(budget)
    sigs = P.nonempty_signatures(arity_bound, budget=budget)
    instances = composition_instances(P, arity_bound, sigs)

    def translate(sig):
        return Signature(tuple(color_map[c] for c in sig.inputs), color_map[sig.output])

    # bijectivity per signature and a well-defined inverse on colors
    if sorted(map(str, color_map.values())) != sorted(map(str, Q.colors)):
        failures.append({"law": "color-bijection", "detail": "color map is not onto"})
    PT, QT = _Tables(P, sigs), _Tables(Q, map(translate, sigs))
    maps = {}  # P signature -> {P element: its image}
    for sig in sigs:
        maps[sig] = table = {el: element_map(sig, el) for el in PT.hom(sig)}
        q_hom = QT.hom(translate(sig))
        checks += 1
        if sorted(map(str, table.values())) != sorted(map(str, q_hom)):
            failures.append({"law": "hom-bijection", "signature": str(sig),
                             "p_count": len(table), "q_count": len(q_hom)})
    for c in P.colors:
        checks += 1
        if element_map(Signature((c,), c), P.identity(c)) != Q.identity(color_map[c]):
            failures.append({"law": "identity", "color": str(c)})
    for ps, cs in instances:
        maps.setdefault(_composite(ps, cs), {})  # a result with an empty hom-set
    image = {s: QT.column([QT.id_of(translate(s), m[el]) for el in PT.hom(s)]) for s, m in maps.items()}

    for ps, cs in instances:
        axes, result = (ps, *cs), maps[_composite(ps, cs)]
        q_ps, *q_cs = map(translate, axes)
        shape = tuple(map(PT.size, axes))

        def replay(i):
            f, *gs = (PT.elements[s][k] for s, k in zip(axes, np.unravel_index(i, shape)))
            value = P.compose(f, ps, gs, list(cs))
            q_value = Q.compose(maps[ps][f], q_ps, [maps[s][g] for s, g in zip(cs, gs)], q_cs)
            if not (value in result and result[value] == q_value):
                return {"law": "composition", "parent": str(ps), "f": str(f), "gs": [str(g) for g in gs]}

        if checks + math.prod(shape) > limit:
            for i in range(limit - checks):
                replay(i)
            raise BudgetExceeded("isomorphism composition checks", max(checks, limit) + 1, limit)
        checks += math.prod(shape)
        compared = _compared(PT, QT, PT.compose(ps, cs), QT.compose(q_ps, tuple(q_cs)), axes, image)
        failures.extend(_failures(compared, math.prod(shape), replay))

    for sig in sigs:
        if sig.arity < 2:
            continue
        q_sig, perms = translate(sig), list(itertools.permutations(range(sig.arity)))
        columns = [_compared(PT, QT, PT.sigma(sig, p), QT.sigma(q_sig, p), (sig,), image) for p in perms]

        def replay(i):
            el, perm = PT.elements[sig][i // len(perms)], perms[i % len(perms)]
            lhs = element_map(_permuted(sig, perm), P.sigma(el, sig, perm))
            if lhs != Q.sigma(maps[sig][el], q_sig, perm):
                return {"law": "symmetry", "signature": str(sig), "perm": perm}

        compared = None if any(c is None for c in columns) else [np.stack(x, axis=1) for x in zip(*columns)]
        failures.extend(_failures(compared, PT.size(sig) * len(perms), replay))
        checks += PT.size(sig) * len(perms)
    return {(s.inputs, s.output): table for s, table in maps.items()}, checks, failures


def _compared(PT, QT, A, B, axes, image):
    """P's table `A` read through the image of its values and Q's table `B`
    read at the images of the positions along `axes`, or None when a table
    is irregular or an image it reads lies outside Q's hom-sets."""
    if A.irregular or B.irregular or any((image[s] < 0).any() for s in (*axes, A.out_sig)):
        return None
    at = B.offset
    for s, stride in zip(axes, B.strides):
        at = np.add.outer(at, image[s] * stride)
    lhs = image[A.out_sig][PT.cells[A.offset : A.offset + at.size].reshape(at.shape)]
    return lhs, QT.cells[at]


def _failures(compared, n, replay):
    """What `replay(i)` returns, unless None, in row-major order: for each
    instance whose sides differ in `compared`, a (lhs, rhs) pair of id
    arrays, or for each of the `n` instances when `compared` is None."""
    hits = range(n) if compared is None else np.flatnonzero(np.not_equal(*compared)).tolist()
    return filter(None, map(replay, hits))
