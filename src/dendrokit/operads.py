"""Finite colored set-valued operads.

An operad here is a set of colors, a finite hom-set per ordered signature
``(inputs; output)``, identities, a simultaneous multicomposition, and
symmetric-group actions.  Conventions used throughout:

- ``compose(f, fsig, children, child_sigs)`` plugs one child into every input
  slot of ``f`` (identities fill untouched slots); the result has the
  concatenation of the child inputs as its inputs.
- ``sigma(f, fsig, perm)`` returns the element whose i-th input is
  ``fsig.inputs[perm[i]]``; permutations are 0-indexed tuples and compose via
  ``perm_compose(p, q)[i] = p[q[i]]`` so that acting by ``p`` then ``q``
  equals acting by ``perm_compose(p, q)`` once.

Built-in examples: the terminal operad (one color, every hom-set a point),
the associative operad (linear orders, a free symmetric action), endomorphism
operads of a finite set, the operad generated by a tree, and free operads on
a symmetric collection with the tree-shaped element calculus.  Endomorphism
operads compose and permute through index plans cached on the instance: per
tuple of child arities, the position read in each child for every argument
code of the composite; per permutation, the source position of every value.

Axioms (unit, associativity, equivariance) are checked by enumeration, never
assumed; ``check_operad_axioms`` reports every violated instance.  The check
itself lives in `dendrokit.laws`, on the operad's integer composition
tables, and is imported only when called.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .errors import BudgetExceeded, DomainError, charge, resolve_budget
from .morphisms import _input_sets
from .trees import Tree


def first_positions(items):
    """Each distinct item's first position in `items`, in order of first occurrence."""
    first = {}
    for i, item in enumerate(items):
        first.setdefault(item, i)
    return first


def perm_compose(p, q):
    """Acting by p then by q; identity is tuple(range(n))."""
    return tuple(p[q[i]] for i in range(len(q)))


def perm_inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def block_permutation(perm, arities):
    """The permutation moving whole blocks: block i of the result is block
    perm[i] of the input, where block j has length arities[j]."""
    offsets = [0]
    for a in arities:
        offsets.append(offsets[-1] + a)
    out = []
    for i in perm:
        out.extend(range(offsets[i], offsets[i] + arities[i]))
    return tuple(out)


def direct_sum_permutation(perms):
    """Blockwise direct sum of permutations."""
    out = []
    offset = 0
    for p in perms:
        out.extend(offset + j for j in p)
        offset += len(p)
    return tuple(out)


class Signature(NamedTuple):
    """An ordered signature (inputs; output); it equals and hashes like the
    (inputs, output) pair that tables key by."""

    inputs: tuple
    output: object

    @property
    def arity(self):
        return len(self.inputs)


class FiniteOperad:
    """Interface shared by all operad implementations."""

    name = "operad"
    colors: tuple = ()
    arity_bound = None

    def hom(self, inputs, output):
        raise NotImplementedError

    def identity(self, color):
        raise NotImplementedError

    def compose(self, parent, parent_sig, children, child_sigs):
        raise NotImplementedError

    def sigma(self, element, sig, perm):
        raise NotImplementedError

    def element_str(self, element):
        return str(element)

    def check_arity(self, n):
        if self.arity_bound is not None and n > self.arity_bound:
            raise DomainError(
                "arity above operad bound",
                {"operad": self.name, "arity": n, "bound": self.arity_bound},
            )

    def nonempty_signatures(self, max_arity, budget=None):
        """All signatures with nonempty hom up to `max_arity`."""
        sigs = []
        charge(
            "operad signatures",
            sum(len(self.colors) ** (n + 1) for n in range(max_arity + 1)),
            budget,
        )
        for n in range(max_arity + 1):
            for combo in itertools.product(self.colors, repeat=n + 1):
                inputs, output = combo[:n], combo[n]
                if self.hom(inputs, output):
                    sigs.append(Signature(inputs, output))
        return sigs


# -- the terminal operad -----------------------------------------------------


class ComOperad(FiniteOperad):
    """One color and a single operation in every arity."""

    name = "com"
    colors = ("x",)
    POINT = "u"

    def hom(self, inputs, output):
        return (self.POINT,)

    def identity(self, color):
        return self.POINT

    def compose(self, parent, parent_sig, children, child_sigs):
        return self.POINT

    def sigma(self, element, sig, perm):
        return self.POINT


def com_operad():
    return ComOperad()


# -- the associative operad --------------------------------------------------


@lru_cache(maxsize=16)
def _linear_orders(n):
    """The n! orders of n slots, built once per arity."""
    return tuple(itertools.permutations(range(n)))


class AssOperad(FiniteOperad):
    """Elements of arity n are the n! linear orders of the input slots,
    stored as tuples listing slot indices in multiplication order."""

    name = "ass"
    colors = ("x",)

    def __init__(self, arity_bound=4):
        self.arity_bound = arity_bound

    def hom(self, inputs, output):
        self.check_arity(len(inputs))
        return _linear_orders(len(inputs))

    def identity(self, color):
        return (0,)

    def compose(self, parent, parent_sig, children, child_sigs):
        arities = [len(s.inputs) for s in child_sigs]
        offsets = [0]
        for a in arities:
            offsets.append(offsets[-1] + a)
        out = []
        for slot in parent:
            out.extend(offsets[slot] + pos for pos in children[slot])
        return tuple(out)

    def sigma(self, element, sig, perm):
        inv = perm_inverse(perm)
        return tuple(inv[slot] for slot in element)

    def element_str(self, element):
        return "".join(str(i) for i in element)


def ass_operad(arity_bound=4):
    return AssOperad(arity_bound)


# -- endomorphism operads ----------------------------------------------------


class EndOperad(FiniteOperad):
    """All functions X^n -> X on a finite set, composition by substitution.

    An arity-n element is the tuple of values over X^n in lexicographic
    argument order, so the value at an argument tuple sits at the
    mixed-radix number of its point indices.  Composition and the symmetric
    action read values through index plans cached per child-arity tuple and
    per permutation; no argument tuple is built or evaluated per call.
    """

    name = "end"
    colors = ("x",)

    def __init__(self, points, arity_bound=2, budget=None):
        self.points = tuple(sorted(set(points)))
        if not self.points:
            raise DomainError("endomorphism operad needs a nonempty set")
        self.arity_bound = arity_bound
        charge("end_operad tables", len(self.points) ** (len(self.points) ** arity_bound), budget)
        self._index = {p: i for i, p in enumerate(self.points)}
        self._compose_plans = {}
        self._sigma_plans = {}

    def hom(self, inputs, output):
        n = len(inputs)
        self.check_arity(n)
        size = len(self.points) ** n
        return tuple(itertools.product(self.points, repeat=size))

    def identity(self, color):
        return self.points

    def _code(self, digits):
        """Mixed-radix number of a tuple of point indices."""
        code = 0
        for d in digits:
            code = code * len(self.points) + d
        return code

    def _compose_plan(self, arities):
        """For each argument code of the composite, the position read in
        each child: child i sees the i-th block of the arguments."""
        plan = []
        for digits in itertools.product(range(len(self.points)), repeat=sum(arities)):
            picks = []
            pos = 0
            for k in arities:
                picks.append(self._code(digits[pos : pos + k]))
                pos += k
            plan.append(tuple(picks))
        return tuple(plan)

    def compose(self, parent, parent_sig, children, child_sigs):
        arities = tuple(len(s.inputs) for s in child_sigs)
        plan = self._compose_plans.get(arities)
        if plan is None:
            plan = self._compose_plans[arities] = self._compose_plan(arities)
        index = self._index
        n = len(self.points)
        out = []
        for picks in plan:
            code = 0
            for child, j in zip(children, picks):
                code = code * n + index[child[j]]
            out.append(parent[code])
        return tuple(out)

    def sigma(self, element, sig, perm):
        perm = tuple(perm)
        plan = self._sigma_plans.get(perm)
        if plan is None:
            inv = perm_inverse(perm)
            plan = self._sigma_plans[perm] = tuple(
                self._code(tuple(digits[i] for i in inv))
                for digits in itertools.product(range(len(self.points)), repeat=len(perm))
            )
        return tuple(element[i] for i in plan)

    def element_str(self, element):
        return "".join(str(v) for v in element)


def end_operad(points, arity_bound=2, budget=None):
    return EndOperad(points, arity_bound, budget)


# -- the operad generated by a tree ------------------------------------------


class TreeOperad(FiniteOperad):
    """Colors are the edges of a tree; operations are the vertex-generated
    composites.  Each nonempty hom-set is a single operation, represented by
    its own signature pair."""

    name = "tree-operad"

    def __init__(self, tree: Tree):
        self.tree = tree
        self.colors = tree.edges
        self._table = _input_sets(tree)

    def hom(self, inputs, output):
        inputs = tuple(inputs)
        if inputs == (output,):
            return ((inputs, output),)
        if len(set(inputs)) != len(inputs):
            return ()
        ids = self.tree.index.ids
        if output in ids and all(i in ids for i in inputs):
            if frozenset(map(ids.__getitem__, inputs)) in self._table[ids[output]].members:
                return ((inputs, output),)
        return ()

    def identity(self, color):
        return ((color,), color)

    def compose(self, parent, parent_sig, children, child_sigs):
        inputs = tuple(c for s in child_sigs for c in s.inputs)
        result = self.hom(inputs, parent_sig.output)
        if not result:
            raise DomainError("composite operation does not exist in tree operad")
        return result[0]

    def sigma(self, element, sig, perm):
        inputs = tuple(sig.inputs[perm[i]] for i in range(len(perm)))
        result = self.hom(inputs, sig.output)
        if not result:
            raise DomainError("permuted operation does not exist in tree operad")
        return result[0]

    def _address_sets(self):
        """Per edge address, its operations' input sets as sorted address
        tuples, in the order of the table."""
        edges = self.tree.edges
        for e, ops in zip(edges, self._table):
            yield e, [tuple(map(edges.__getitem__, sorted(iset))) for iset in ops.sets]

    def nonempty_signatures(self, max_arity, budget=None):
        sigs = []
        for e, isets in self._address_sets():
            for iset in isets:
                if len(iset) <= max_arity:
                    for perm in itertools.permutations(iset):
                        sigs.append(Signature(perm, e))
        sigs.sort(key=lambda s: (len(s.inputs), s.output, s.inputs))
        charge("tree operad signatures", len(sigs), budget)
        return sigs

    def non_identity_input_sets(self):
        """Unordered non-identity signatures with a nonempty hom-set."""
        return [
            (frozenset(iset), e)
            for e, isets in self._address_sets()
            for iset in isets
            if iset != (e,)
        ]

    def element_str(self, element):
        from .trees import format_address

        inputs, output = element
        ins = ",".join(format_address(i) or "r" for i in inputs)
        return f"({ins};{format_address(output) or 'r'})"


def omega_operad(tree: Tree) -> TreeOperad:
    return TreeOperad(tree)


# -- collections and free operads ---------------------------------------------


@dataclass
class Collection:
    """A sequence of finite levels with symmetric-group actions.

    `action(n, perm, element)` uses the same permutation convention as
    operads; the default action is trivial.
    """

    levels: dict
    action: object = None

    def __post_init__(self):
        self.levels = {n: tuple(v) for n, v in self.levels.items() if len(v) > 0}
        if any(n < 0 for n in self.levels):
            raise DomainError("generator arity must be >= 0", {"arities": sorted(self.levels)})
        if self.action is None:
            self.action = lambda n, perm, el: el

    def level(self, n):
        return self.levels.get(n, ())


# Free operad elements: ("leaf", i) for the i-th input, or
# ("node", generator, children) with one child per generator input, children
# kept in the generator's argument order.


# Raw non-leaf terms whose representative and serialization a free operad
# keeps; the memo is emptied when full.
_CANONICAL_KEPT = 2**14


def _relabel(term, labels):
    """`term` with leaf i relabelled labels[i]."""
    if term[0] == "leaf":
        return ("leaf", labels[term[1]])
    return ("node", term[1], tuple(_relabel(c, labels) for c in term[2]))


class FreeOperad(FiniteOperad):
    """The free operad on a collection with X(0) = X(1) = empty.

    Arity-n elements are decorated trees with leaves labelled 0..n-1, one
    collection element of matching arity per vertex, taken modulo decorated
    isomorphism.  Ordering the children of every vertex by their serialized
    sub-terms fixes one representative per class; reordering children acts on
    the decoration through the collection's symmetric action.  Composition
    grafts trees and renormalizes to the representative; the symmetric action
    relabels leaves and renormalizes.  Normalizing builds a term's
    representative and serialization in one bottom-up pass, and a bounded
    memo keeps both per raw term.
    """

    name = "free"
    colors = ("x",)

    def __init__(self, collection: Collection, arity_bound, size_bound=200000, budget=None):
        if collection.level(0) or collection.level(1):
            raise DomainError(
                "free operad requires an empty collection in arities 0 and 1"
            )
        self.collection = collection
        self.arity_bound = arity_bound
        self.size_bound = size_bound
        self._canonical_memo = {}
        self._levels = self._build(resolve_budget(budget))

    def canonical(self, term):
        return self._canonical(term)[0]

    def _canonical(self, term):
        """The representative of `term` and its serialization, built together
        bottom-up: each vertex's children are ordered by their serializations,
        which are then joined into the vertex's own.  Kept per raw term."""
        if term[0] == "leaf":
            return term, f"L{term[1]}"
        memo = self._canonical_memo
        found = memo.get(term)
        if found is not None:
            return found
        gen, kids = term[1], [self._canonical(c) for c in term[2]]
        order = sorted(range(len(kids)), key=lambda i: kids[i][1])
        if order != list(range(len(kids))):
            gen = self.collection.action(len(kids), tuple(order), gen)
            kids = [kids[i] for i in order]
        found = (
            ("node", gen, tuple(rep for rep, _ in kids)),
            "N[" + repr(gen) + ":" + ",".join(text for _, text in kids) + "]",
        )
        if len(memo) >= _CANONICAL_KEPT:
            memo.clear()
        memo[term] = found
        return found

    def generator_element(self, n, gen):
        """The corolla decorated by `gen` with identity leaf labelling."""
        if gen not in self.collection.level(n):
            raise DomainError("unknown generator", {"arity": n})
        return self.canonical(("node", gen, tuple(("leaf", i) for i in range(n))))

    def _build(self, budget):
        levels = {1: {("leaf", 0): "L0"}}  # per arity, element -> serialization
        worklist = []

        def add(n, el):
            # every level is closed under relabelling, so adjoin the whole
            # symmetric orbit whenever a new element appears
            bucket = levels.setdefault(n, {})
            if el in bucket:
                return
            for perm in itertools.permutations(range(n)):
                image, text = self._canonical(_relabel(el, perm_inverse(perm)))
                if image not in bucket:
                    bucket[image] = text
                    worklist.append((n, image))

        for n, elements in self.collection.levels.items():
            if n > self.arity_bound:
                continue
            for gen in elements:
                add(n, self.generator_element(n, gen))
        # close under grafting one generator corolla onto one leaf at a time:
        # compose with identities at every other slot
        unit = Signature(self.colors, self.colors[0])
        while worklist:
            n, el = worklist.pop()
            sig = Signature(self.colors * n, self.colors[0])
            for gen_arity, gens in self.collection.levels.items():
                new_arity = n + gen_arity - 1
                if new_arity > self.arity_bound:
                    continue
                gen_sig = Signature(self.colors * gen_arity, self.colors[0])
                for gen in gens:
                    corolla = self.generator_element(gen_arity, gen)
                    for leaf in range(n):
                        children = [("leaf", 0)] * n
                        children[leaf] = corolla
                        child_sigs = [unit] * n
                        child_sigs[leaf] = gen_sig
                        add(new_arity, self.compose(el, sig, children, child_sigs))
            total = sum(len(v) for v in levels.values())
            if total > self.size_bound:
                raise BudgetExceeded("free operad elements", total, self.size_bound)
            charge("free operad elements", total, budget)
        return {n: tuple(sorted(v, key=v.get)) for n, v in levels.items()}

    def level(self, n):
        return self._levels.get(n, ())

    def hom(self, inputs, output):
        self.check_arity(len(inputs))
        return self.level(len(inputs))

    def identity(self, color):
        return ("leaf", 0)

    def compose(self, parent, parent_sig, children, child_sigs):
        arities = [len(s.inputs) for s in child_sigs]
        if all(k == 1 and child == ("leaf", 0) for k, child in zip(arities, children)):
            return self.canonical(parent)  # what substituting identities gives

        def substitute(term):
            if term[0] == "leaf":
                slot = term[1]
                offset = sum(arities[:slot])

                def shift(t):
                    if t[0] == "leaf":
                        return ("leaf", t[1] + offset)
                    return ("node", t[1], tuple(shift(c) for c in t[2]))

                return shift(children[slot])
            return ("node", term[1], tuple(substitute(c) for c in term[2]))

        return self.canonical(substitute(parent))

    def sigma(self, element, sig, perm):
        return self.canonical(_relabel(element, perm_inverse(perm)))

    def element_str(self, element):
        # an element is its own representative, so this is its serialization
        return self._canonical(element)[1]


def free_operad(collection: Collection, arity_bound, size_bound=200000, budget=None) -> FreeOperad:
    """The free operad on `collection` up to `arity_bound`; the running
    element count is charged to `budget` and held under `size_bound`."""
    return FreeOperad(collection, arity_bound, size_bound, budget)


def one_binary_generator():
    """The collection with a single binary element and trivial action."""
    return Collection(levels={2: ("m",)})


# -- explicit tables -----------------------------------------------------------


class TableOperad(FiniteOperad):
    """An operad given by explicit hom/composition/symmetry tables."""

    name = "table"

    def __init__(self, colors, homs, identities, comp, sym, arity_bound=None, name=None):
        self.colors = tuple(colors)
        self._homs = {k: tuple(v) for k, v in homs.items()}
        self._identities = dict(identities)
        self._comp = dict(comp)
        self._sym = dict(sym)
        self.arity_bound = arity_bound
        if name:
            self.name = name

    def hom(self, inputs, output):
        self.check_arity(len(inputs))
        return self._homs.get((tuple(inputs), output), ())

    def identity(self, color):
        try:
            return self._identities[color]
        except KeyError:
            raise DomainError("missing identity entry", {"color": color})

    def compose(self, parent, parent_sig, children, child_sigs):
        if not child_sigs:
            # the empty multicomposition of a nullary operation is itself
            return parent
        key = (parent, parent_sig, tuple(children), tuple(child_sigs))
        try:
            return self._comp[key]
        except KeyError:
            raise DomainError(
                "missing composition table entry",
                {"parent": str(parent), "children": [str(c) for c in children]},
            )

    def sigma(self, element, sig, perm):
        key = (element, sig, tuple(perm))
        try:
            return self._sym[key]
        except KeyError:
            raise DomainError("missing symmetry table entry", {"element": str(element)})

    def nonempty_signatures(self, max_arity, budget=None):
        sigs = [
            Signature(inputs, output)
            for (inputs, output), v in self._homs.items()
            if v and len(inputs) <= max_arity
        ]
        sigs.sort(key=lambda s: (len(s.inputs), str(s.output), tuple(map(str, s.inputs))))
        return sigs

    # -- construction and serialization --

    @classmethod
    def from_operad(cls, P: FiniteOperad, arity_bound, budget=None):
        """Materialize every hom/composition/symmetry entry of `P` up to the
        arity bound."""
        sigs = P.nonempty_signatures(arity_bound, budget=budget)
        homs = {}
        for sig in sigs:
            homs[(sig.inputs, sig.output)] = tuple(P.hom(sig.inputs, sig.output))
        identities = {c: P.identity(c) for c in P.colors}
        comp = {}
        count = 0
        for parent_sig, child_sigs in composition_instances(P, arity_bound, sigs):
            for parent in P.hom(parent_sig.inputs, parent_sig.output):
                pools = [P.hom(s.inputs, s.output) for s in child_sigs]
                for children in itertools.product(*pools):
                    count += 1
                    charge("operad composition table", count, budget)
                    value = P.compose(parent, parent_sig, list(children), list(child_sigs))
                    key = (
                        parent,
                        (parent_sig.inputs, parent_sig.output),
                        children,
                        tuple((s.inputs, s.output) for s in child_sigs),
                    )
                    comp[key] = value
        sym = {}
        for sig in sigs:
            for perm in itertools.permutations(range(sig.arity)):
                for el in P.hom(sig.inputs, sig.output):
                    sym[(el, (sig.inputs, sig.output), perm)] = P.sigma(el, sig, perm)
        return cls(
            P.colors, homs, identities, comp, sym, arity_bound=arity_bound, name=P.name
        )

    def corrupt(self, key, value):
        """Copy of the table with one composition entry replaced."""
        comp = dict(self._comp)
        if key not in comp:
            raise DomainError("no such composition entry")
        comp[key] = value
        return TableOperad(
            self.colors,
            self._homs,
            self._identities,
            comp,
            self._sym,
            arity_bound=self.arity_bound,
            name=self.name + "-corrupted",
        )

    def composition_keys(self):
        return sorted(self._comp, key=str)

    def to_json(self, element_str=str):
        def color_str(c):
            return c if isinstance(c, str) else str(c)

        homs = [
            {
                "inputs": [color_str(c) for c in inputs],
                "output": color_str(output),
                "elements": [element_str(e) for e in elements],
            }
            for (inputs, output), elements in sorted(self._homs.items(), key=str)
        ]
        comp = [
            {
                "parent": {
                    "inputs": [color_str(c) for c in psig[0]],
                    "output": color_str(psig[1]),
                    "element": element_str(parent),
                },
                "children": [
                    {
                        "inputs": [color_str(c) for c in s[0]],
                        "output": color_str(s[1]),
                        "element": element_str(ch),
                    }
                    for ch, s in zip(children, child_sigs)
                ],
                "result": element_str(value),
            }
            for (parent, psig, children, child_sigs), value in sorted(
                self._comp.items(), key=str
            )
        ]
        sym = [
            {
                "inputs": [color_str(c) for c in sig[0]],
                "output": color_str(sig[1]),
                "element": element_str(el),
                "perm": list(perm),
                "result": element_str(value),
            }
            for (el, sig, perm), value in sorted(self._sym.items(), key=str)
        ]
        return {
            "name": self.name,
            "arity_bound": self.arity_bound,
            "colors": [color_str(c) for c in self.colors],
            "identities": {
                color_str(c): element_str(e) for c, e in sorted(self._identities.items(), key=str)
            },
            "homs": homs,
            "comp": comp,
            "sym": sym,
        }

    @classmethod
    def from_json(cls, payload):
        colors = tuple(payload["colors"])
        homs = {}
        for entry in payload["homs"]:
            homs[(tuple(entry["inputs"]), entry["output"])] = tuple(entry["elements"])
        identities = dict(payload["identities"])
        comp = {}
        for entry in payload["comp"]:
            p = entry["parent"]
            key = (
                p["element"],
                ((tuple(p["inputs"])), p["output"]),
                tuple(c["element"] for c in entry["children"]),
                tuple((tuple(c["inputs"]), c["output"]) for c in entry["children"]),
            )
            comp[key] = entry["result"]
        sym = {}
        for entry in payload["sym"]:
            key = (
                entry["element"],
                (tuple(entry["inputs"]), entry["output"]),
                tuple(entry["perm"]),
            )
            sym[key] = entry["result"]
        return cls(
            colors,
            homs,
            identities,
            comp,
            sym,
            arity_bound=payload.get("arity_bound"),
            name=payload.get("name", "table"),
        )


# -- axiom checking -------------------------------------------------------------


def composition_instances(P, arity_bound, sigs=None, budget=None):
    """All (parent_sig, child_sigs) pairs composable within the arity bound."""
    if sigs is None:
        sigs = P.nonempty_signatures(arity_bound, budget=budget)
    by_output = {}
    for s in sigs:
        by_output.setdefault(s.output, []).append(s)
    out = []
    for parent in sigs:
        n = parent.arity
        if n == 0:
            continue
        pools = [by_output.get(c, []) for c in parent.inputs]
        if any(not p for p in pools):
            continue
        for child_sigs in itertools.product(*pools):
            if sum(s.arity for s in child_sigs) <= arity_bound:
                out.append((parent, tuple(child_sigs)))
    return out


@dataclass
class AxiomReport:
    operad: str
    arity_bound: int
    checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.violations

    def add(self, law, instance, lhs, rhs):
        self.violations.append(
            {"law": law, "instance": instance, "lhs": str(lhs), "rhs": str(rhs)}
        )

    def to_json(self):
        return {
            "operad": self.operad,
            "arity_bound": self.arity_bound,
            "instances_checked": self.checked,
            "passed": self.passed,
            "violations": self.violations,
        }


def check_operad_axioms(P: FiniteOperad, arity_bound, budget=None):
    """Enumerate unit, associativity and equivariance instances up to the
    arity bound and report every violation, with ``instances_checked`` the
    number of instances.  The report, the budget error and the error of an
    instance whose scalar call raises are those of checking instance by
    instance, though the check compares integer tables (`dendrokit.laws`)."""
    from . import laws  # here, so that importing this module compiles no checker

    return laws.check_axioms(P, arity_bound, budget)
