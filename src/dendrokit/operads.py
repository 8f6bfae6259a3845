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
assumed; ``check_operad_axioms`` reports every violated instance.  It first
tabulates the operad: each hom element is an integer id (its position), each
(parent signature, child signatures) pair the laws need becomes an int array
of composite ids with one scalar ``compose`` per entry, and each (signature,
permutation) pair an array with one scalar ``sigma`` per element.  Every law
is then a grid of instances compared as gathers from those arrays.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import BudgetExceeded, DendroError, DomainError, charge, resolve_budget
from .morphisms import _input_sets
from .trees import Tree


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


@dataclass(frozen=True)
class Signature:
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


class AssOperad(FiniteOperad):
    """Elements of arity n are the n! linear orders of the input slots,
    stored as tuples listing slot indices in multiplication order."""

    name = "ass"
    colors = ("x",)

    def __init__(self, arity_bound=4):
        self.arity_bound = arity_bound

    def hom(self, inputs, output):
        self.check_arity(len(inputs))
        return tuple(itertools.permutations(range(len(inputs))))

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
        self._sets = {e: set(map(frozenset, s)) for e, s in _input_sets(tree).items()}

    def hom(self, inputs, output):
        inputs = tuple(inputs)
        if inputs == (output,):
            return ((inputs, output),)
        if len(set(inputs)) != len(inputs):
            return ()
        if frozenset(inputs) in self._sets.get(output, set()):
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

    def nonempty_signatures(self, max_arity, budget=None):
        sigs = []
        for e, sets in self._sets.items():
            for iset in sets:
                if len(iset) <= max_arity:
                    for perm in itertools.permutations(sorted(iset)):
                        sigs.append(Signature(perm, e))
        sigs.sort(key=lambda s: (len(s.inputs), s.output, s.inputs))
        charge("tree operad signatures", len(sigs), budget)
        return sigs

    def non_identity_input_sets(self):
        """Unordered non-identity signatures with a nonempty hom-set."""
        out = []
        for e in self.tree.edges:
            for iset in sorted(self._sets[e], key=lambda s: tuple(sorted(s))):
                if iset != frozenset({e}):
                    out.append((iset, e))
        return out

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
        if self.action is None:
            self.action = lambda n, perm, el: el

    def level(self, n):
        return self.levels.get(n, ())

    def check_action(self, max_arity=None):
        """Violations of the group-action laws on every stored level."""
        bad = []
        for n, elements in self.levels.items():
            if max_arity is not None and n > max_arity:
                continue
            ident = tuple(range(n))
            for el in elements:
                if self.action(n, ident, el) != el:
                    bad.append(("identity", n, el))
            for p, q in itertools.product(itertools.permutations(range(n)), repeat=2):
                for el in elements:
                    one = self.action(n, q, self.action(n, p, el))
                    two = self.action(n, perm_compose(p, q), el)
                    if one != two:
                        bad.append(("composition", n, (p, q, el)))
        return bad


# Free operad elements: ("leaf", i) for the i-th input, or
# ("node", generator, children) with one child per generator input, children
# kept in the generator's argument order.


def _term_serialize(term):
    if term[0] == "leaf":
        return f"L{term[1]}"
    gen, children = term[1], term[2]
    return "N[" + repr(gen) + ":" + ",".join(_term_serialize(c) for c in children) + "]"


class FreeOperad(FiniteOperad):
    """The free operad on a collection with X(0) = X(1) = empty.

    Arity-n elements are decorated trees with leaves labelled 0..n-1, one
    collection element of matching arity per vertex, taken modulo decorated
    isomorphism.  Ordering the children of every vertex by their serialized
    sub-terms fixes one representative per class; reordering children acts on
    the decoration through the collection's symmetric action.  Composition
    grafts trees and renormalizes to the representative; the symmetric action
    relabels leaves and renormalizes.
    """

    name = "free"
    colors = ("x",)

    def __init__(self, collection: Collection, arity_bound, size_bound=200000):
        if collection.level(0) or collection.level(1):
            raise DomainError(
                "free operad requires an empty collection in arities 0 and 1"
            )
        self.collection = collection
        self.arity_bound = arity_bound
        self.size_bound = size_bound
        self._levels = self._build()

    def canonical(self, term):
        if term[0] == "leaf":
            return term
        gen, children = term[1], term[2]
        kids = [self.canonical(c) for c in children]
        order = sorted(range(len(kids)), key=lambda i: _term_serialize(kids[i]))
        if order != list(range(len(kids))):
            gen = self.collection.action(len(kids), tuple(order), gen)
            kids = [kids[i] for i in order]
        return ("node", gen, tuple(kids))

    def generator_element(self, n, gen):
        """The corolla decorated by `gen` with identity leaf labelling."""
        if gen not in self.collection.level(n):
            raise DomainError("unknown generator", {"arity": n})
        return self.canonical(("node", gen, tuple(("leaf", i) for i in range(n))))

    def _build(self):
        levels = {1: {("leaf", 0)}}
        worklist = []

        def add(n, el):
            # every level is closed under relabelling, so adjoin the whole
            # symmetric orbit whenever a new element appears
            bucket = levels.setdefault(n, set())
            if el in bucket:
                return
            sig = Signature(self.colors * n, self.colors[0])
            for perm in itertools.permutations(range(n)):
                image = self.sigma(el, sig, perm)
                if image not in bucket:
                    bucket.add(image)
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
        return {n: tuple(sorted(v, key=_term_serialize)) for n, v in levels.items()}

    def level(self, n):
        return self._levels.get(n, ())

    def hom(self, inputs, output):
        self.check_arity(len(inputs))
        return self.level(len(inputs))

    def identity(self, color):
        return ("leaf", 0)

    def compose(self, parent, parent_sig, children, child_sigs):
        arities = [len(s.inputs) for s in child_sigs]

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
        inv = perm_inverse(perm)

        def relabel(term):
            if term[0] == "leaf":
                return ("leaf", inv[term[1]])
            return ("node", term[1], tuple(relabel(c) for c in term[2]))

        return self.canonical(relabel(element))

    def element_str(self, element):
        return _term_serialize(element)


def free_operad(collection: Collection, arity_bound, size_bound=200000) -> FreeOperad:
    return FreeOperad(collection, arity_bound, size_bound)


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
        key = (
            parent,
            (parent_sig.inputs, parent_sig.output),
            tuple(children),
            tuple((s.inputs, s.output) for s in child_sigs),
        )
        try:
            return self._comp[key]
        except KeyError:
            raise DomainError(
                "missing composition table entry",
                {"parent": str(parent), "children": [str(c) for c in children]},
            )

    def sigma(self, element, sig, perm):
        key = (element, (sig.inputs, sig.output), tuple(perm))
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


# -- the axiom checker's integer tables -------------------------------------------

# Cells of one slice of an instance grid, unless a block is larger.
_SLICE = 1 << 14

# The cell of a block whose `compose` or `sigma` call raised.
_RAISED = -1

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


def _unravel(index, shape):
    """The row-major position tuple of a flat `index` into `shape`."""
    out = []
    for n in reversed(shape):
        index, digit = divmod(index, n)
        out.append(digit)
    return tuple(reversed(out))


class _Block:
    """One composition block or symmetry table: the ids of its values over
    every choice of hom positions, laid out row-major at `offset` of the
    arena.  Axis 0 is the parent (or the permuted element), the others the
    children.  `irregular` when a cell raised or left its hom-set."""

    __slots__ = ("offset", "shape", "strides", "out_sig", "irregular")

    def __init__(self, offset, shape, out_sig, irregular):
        self.offset, self.shape, self.out_sig, self.irregular = offset, shape, out_sig, irregular
        strides = [1]
        for n in reversed(shape[1:]):
            strides.append(strides[-1] * n)
        self.strides = tuple(reversed(strides))


class _Tables:
    """The integer tables of one operad, each filled on first use.

    Every element of ``P.hom(sig)`` is identified by its position.  A value
    outside the hom-set of its signature gets that signature's next fresh
    id, so it compares unequal to every hom element; signatures outside the
    checked ones have no positions at all.  A composition block holds one
    ``P.compose`` per (parent, children) choice and a symmetry table one
    ``P.sigma`` per element, all in one int64 arena; a call that raises
    leaves ``_RAISED`` in its cell, to be raised again by the instance that
    first needs it.
    """

    def __init__(self, P, sigs, np):
        self.P, self.np = P, np
        self._known = set(sigs)
        self.elements = {}  # sig -> hom elements by position, then fresh values
        self._ids = {}  # sig -> {element: first id}
        self._size = {}  # sig -> number of hom positions
        self._composed = {}  # (sig, child sigs) -> block
        self._acted = {}  # (sig, perm) -> symmetry table
        self.cells = np.empty(1024, dtype=np.int64)
        self._used = 0
        self.largest = 0

    def size(self, sig):
        if sig not in self._size:
            els = list(self.P.hom(sig.inputs, sig.output)) if sig in self._known else []
            ids = {}
            for i, e in enumerate(els):
                ids.setdefault(e, i)
            self.elements[sig], self._ids[sig], self._size[sig] = els, ids, len(els)
        return self._size[sig]

    def hom(self, sig):
        n = self.size(sig)
        return self.elements[sig][:n]

    def id_of(self, sig, element):
        self.size(sig)
        ids = self._ids[sig]
        i = ids.get(element)
        if i is None:
            i = ids[element] = len(self.elements[sig])
            self.elements[sig].append(element)
        return i

    def canonical(self, sig):
        """The id of the element at every hom position of `sig`."""
        ids = self._ids[sig]
        return self.np.array([ids[e] for e in self.hom(sig)], dtype=self.np.int64)

    def _value(self, out_sig, fn, *args):
        try:
            return self.id_of(out_sig, fn(*args))
        except DendroError:
            return _RAISED

    def _store(self, axes, out_sig, values):
        np = self.np
        shape = tuple(self.size(s) for s in axes)
        n = math.prod(shape)
        if self._used + n >= len(self.cells):
            grown = np.empty(2 * (self._used + n) + 1, dtype=np.int64)
            grown[: self._used] = self.cells[: self._used]
            self.cells = grown
        cells = self.cells[self._used : self._used + n]
        cells[:] = np.fromiter(values, dtype=np.int64, count=n)
        irregular = n > 0 and (cells.min() < 0 or cells.max() >= self.size(out_sig))
        block = _Block(self._used, shape, out_sig, bool(irregular))
        self._used += n
        self.largest = max(self.largest, n)
        return block

    def compose(self, sig, child_sigs):
        """The block of ``P.compose`` over (parent, children) positions."""
        block = self._composed.get((sig, child_sigs))
        if block is None:
            out, kids, compose = _composite(sig, child_sigs), list(child_sigs), self.P.compose
            pools = [self.hom(s) for s in child_sigs]
            values = (
                self._value(out, compose, parent, sig, list(children), kids)
                for parent in self.hom(sig)
                for children in itertools.product(*pools)
            )
            block = self._composed[sig, child_sigs] = self._store((sig, *child_sigs), out, values)
        return block

    def sigma(self, sig, perm):
        """The table of ``P.sigma(·, sig, perm)`` over the positions of `sig`."""
        block = self._acted.get((sig, perm))
        if block is None:
            out, sigma = _permuted(sig, perm), self.P.sigma
            values = (self._value(out, sigma, el, sig, perm) for el in self.hom(sig))
            block = self._acted[sig, perm] = self._store((sig,), out, values)
        return block

    def column(self, values):
        return self.np.array(values, dtype=self.np.int64)

    def valid(self, ids, size):
        """Mask of the ids that are hom positions below `size`, and the ids
        with every other one replaced by 0 so that it can still be read."""
        ok = (ids >= 0) & (ids < size)
        return ok, self.np.where(ok, ids, 0)


def _suffix_products(np, rows):
    """Row i: the product of rows i.. of a 2-D int array; a last row of ones."""
    out = np.ones((len(rows) + 1, rows.shape[1]), dtype=np.int64)
    out[:-1] = np.cumprod(rows[::-1], axis=0)[::-1]
    return out


def _scan(T, report, rows, cols, evaluate, violation, replay, stop=None):
    """Check a rows x cols grid of instances in row-major slices.

    ``evaluate(r0, r1, c0, c1)`` returns the lhs and rhs id arrays of a slice
    and the mask of its instances that read a raised cell or a fresh id, or
    None when no table it reads holds one.  A mismatch becomes
    ``violation(r, c, lhs, rhs)``; a masked instance is recomputed by
    ``replay(r, c)`` through scalar calls, which raises where the instance
    does.  Both return a violation or None.  Only the first `stop` instances
    are looked at.  No slice holds more cells than the largest block or
    `_SLICE`."""
    cap = max(_SLICE, T.largest)
    step = max(1, cap // cols)
    for r0 in range(0, rows, step):
        for c0 in range(0, cols, cap):
            if stop is not None and r0 * cols + c0 >= stop:
                return
            lhs, rhs, bad = evaluate(r0, min(rows, r0 + step), c0, min(cols, c0 + cap))
            hits = lhs != rhs if bad is None else (lhs != rhs) | bad
            for i, j in zip(*T.np.nonzero(hits)):
                r, c = r0 + int(i), c0 + int(j)
                if stop is not None and r * cols + c >= stop:
                    return
                if bad is not None and bad[i, j]:
                    found = replay(r, c)
                else:
                    found = violation(r, c, lhs[i, j], rhs[i, j])
                if found:
                    report.add(*found)


# -- the laws, one instance grid at a time ---------------------------------------


def _check_units(T, report, sigs):
    """Right and left unit: rows are the elements of a signature, columns
    the two laws."""
    P, np = T.P, T.np
    laws = ("right-unit", "left-unit")
    for s in sigs:
        if s.arity == 0:
            continue
        id_sigs = tuple(Signature((c,), c) for c in s.inputs)
        out_sig = Signature((s.output,), s.output)
        ids = [P.identity(c) for c in s.inputs]
        out_id = P.identity(s.output)
        right, left = T.compose(s, id_sigs), T.compose(out_sig, (s,))
        r_ok, r_pos = T.valid(T.column([T.id_of(*a) for a in zip(id_sigs, ids)]), T.column(right.shape[1:]))
        l_ok, l_pos = T.valid(T.id_of(out_sig, out_id), left.shape[0])
        r_base = right.offset + int(r_pos @ T.column(right.strides[1:]))
        l_base = left.offset + int(l_pos) * left.strides[0]
        irregular = right.irregular or left.irregular or not (r_ok.all() and l_ok)
        canon, cells = T.canonical(s), T.cells

        def evaluate(r0, r1, c0, c1):
            el = np.arange(r0, r1)
            lhs = np.stack([cells[r_base + el * right.strides[0]], cells[l_base + el]], axis=1)
            rhs = np.repeat(canon[r0:r1, None], 2, axis=1)
            bad = (lhs < 0) | ~np.array([r_ok.all(), l_ok]) if irregular else None
            return lhs[:, c0:c1], rhs[:, c0:c1], None if bad is None else bad[:, c0:c1]

        def where(el):
            return {"sig": _sig_str(s), "element": str(T.elements[s][el])}

        def violation(el, law, lhs, rhs):
            return laws[law], where(el), T.elements[s][lhs], T.elements[s][rhs]

        def replay(el, law):
            element = T.elements[s][el]
            if law == 0:
                got = P.compose(element, s, list(ids), list(id_sigs))
            else:
                got = P.compose(out_id, out_sig, [element], [s])
            return (laws[law], where(el), got, element) if got != element else None

        _scan(T, report, right.shape[0], 2, evaluate, violation, replay)
        report.checked += 2 * right.shape[0]


def _check_associativity(T, report, instances, sigs, arity_bound, limit):
    """``(f ∘ gs) ∘ hs == f ∘ (g_i ∘ block_i(hs))`` per composition instance:
    rows are the (f, gs) choices, columns every grandchild signature combo
    with its (hs) choices, in product order."""
    P, np, column = T.P, T.np, T.column
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
        irregular = any(t.irregular for t in (A, *B, *E, *(b for d in D for b in d[1])))

        starts = list(itertools.accumulate(b_step.tolist(), initial=0))
        rows, cols = math.prod(A.shape), starts[-1]
        stop = limit - count if count + rows * cols > limit else None
        if stop is not None and not irregular:
            raise BudgetExceeded("associativity instances", limit + 1, limit)

        # per child (rows) and combo (columns): where the child's block sits,
        # how its first axis steps, the hom size of its values, the hs
        # choices of the later children and the stride of its value in E
        pick = column(picks).reshape(len(picks), len(cs)).T
        d_off, d_step, d_size = (np.stack([d[x][p] for d, p in zip(D, pick)]) for x in (2, 3, 4))
        d_inner, e_step = _suffix_products(np, d_step)[1:], _suffix_products(np, d_size)
        e_off = column([e.offset for e in E])
        ends, first = column(starts[1:]), column(starts[:-1])
        m_size, cells = T.size(mid), T.cells

        def evaluate(r0, r1, c0, c1):
            fg = np.arange(r0, r1)[:, None]
            col = np.arange(c0, c1)
            combo = np.searchsorted(ends, col, side="right")
            local = col - first[combo]
            bad = None
            mids = cells[A.offset + fg]
            if irregular:
                ok, mids = T.valid(mids, m_size)
                bad = ~ok
            lhs = cells[b_off[combo] + local + mids * b_step[combo]]
            step, size, e = d_step[:, combo], d_size[:, combo], e_step[:, combo]
            read = d_off[:, combo] + local // d_inner[:, combo] % step
            at = e_off[combo] + fg // A.strides[0] * e[0]
            for i in range(len(cs)):
                d = cells[read[i] + fg // A.strides[i + 1] % A.shape[i + 1] * step[i]]
                if irregular:
                    ok, d = T.valid(d, size[i])
                    bad = bad | ~ok
                at = at + d * e[i + 1]
            rhs = cells[at]
            if irregular:
                bad = bad | (lhs < 0) | (rhs < 0)
            return lhs, rhs, bad

        def unpack(fg, col):
            f, *gs = _unravel(fg, A.shape)
            c = bisect.bisect_right(starts, col) - 1
            hs = _unravel(col - starts[c], B[c].shape[1:])
            f = T.elements[ps][f]
            gs = [T.elements[s][g] for s, g in zip(cs, gs)]
            hs = [T.elements[s][h] for s, h in zip(combos[c], hs)]
            where = {
                "parent": _sig_str(ps),
                "children": [_sig_str(s) for s in cs],
                "f": str(f),
                "gs": [str(g) for g in gs],
                "hs": [str(h) for h in hs],
            }
            return f, gs, c, hs, where

        def violation(fg, col, lhs, rhs):
            _, _, c, _, where = unpack(fg, col)
            els = T.elements[B[c].out_sig]
            return "associativity", where, els[lhs], els[rhs]

        def replay(fg, col):
            f, gs, c, hs, where = unpack(fg, col)
            lhs = P.compose(P.compose(f, ps, gs, list(cs)), mid, hs, list(combos[c]))
            rhs_children, rhs_sigs, pos = [], [], 0
            for g, s in zip(gs, cs):
                h_sigs = list(combos[c][pos : pos + s.arity])
                rhs_children.append(P.compose(g, s, hs[pos : pos + s.arity], h_sigs))
                rhs_sigs.append(_composite(s, h_sigs))
                pos += s.arity
            rhs = P.compose(f, ps, rhs_children, rhs_sigs)
            return ("associativity", where, lhs, rhs) if lhs != rhs else None

        _scan(T, report, rows, cols, evaluate, violation, replay, stop)
        if stop is not None:
            raise BudgetExceeded("associativity instances", limit + 1, limit)
        count += rows * cols
        report.checked += rows * cols


def _check_symmetry(T, report, sigs):
    """sigma by the identity fixes every element, and acting by p then by q
    is acting by ``perm_compose(p, q)``: rows are the elements of a
    signature, columns the identity law and then every (p, q)."""
    P, np = T.P, T.np
    for s in sigs:
        n = s.arity
        if n < 2 or n > MAX_PERM_ARITY:
            continue
        ident = tuple(range(n))
        pairs = list(itertools.product(itertools.permutations(range(n)), repeat=2))
        once = {p: T.sigma(s, p) for p, _ in pairs}
        then = [T.sigma(once[p].out_sig, q) for p, q in pairs]
        both = [once[perm_compose(p, q)] for p, q in pairs]
        irregular = any(t.irregular for t in (*once.values(), *then))
        p_off = T.column([once[p].offset for p, _ in pairs])
        q_off, q_size = T.column([t.offset for t in then]), T.column([t.shape[0] for t in then])
        pq_off = T.column([t.offset for t in both])
        id_off, canon, cells = once[ident].offset, T.canonical(s), T.cells

        def evaluate(r0, r1, c0, c1):
            el = np.arange(r0, r1)[:, None]
            pick = slice(max(c0, 1) - 1, c1 - 1)
            el_p = cells[p_off[pick] + el]
            if irregular:
                ok, el_p = T.valid(el_p, q_size[pick])
            lhs = [cells[q_off[pick] + el_p]]
            rhs = [cells[pq_off[pick] + el]]
            bad = [~ok | (lhs[0] < 0) | (rhs[0] < 0)] if irregular else None
            if c0 == 0:
                lhs.insert(0, cells[id_off + el])
                rhs.insert(0, canon[r0:r1, None])
                if irregular:
                    bad.insert(0, lhs[0] < 0)
            return (np.concatenate(lhs, axis=1), np.concatenate(rhs, axis=1),
                    None if bad is None else np.concatenate(bad, axis=1))

        def where(el):
            return {"sig": _sig_str(s), "element": str(T.elements[s][el])}

        def violation(el, col, lhs, rhs):
            if col == 0:
                return "sigma-identity", where(el), T.elements[s][lhs], T.elements[s][rhs]
            p, q = pairs[col - 1]
            els = T.elements[then[col - 1].out_sig]
            return "sigma-functoriality", {**where(el), "p": p, "q": q}, els[lhs], els[rhs]

        def replay(el, col):
            element = T.elements[s][el]
            if col == 0:
                got = P.sigma(element, s, ident)
                return ("sigma-identity", where(el), got, element) if got != element else None
            p, q = pairs[col - 1]
            one = P.sigma(P.sigma(element, s, p), _permuted(s, p), q)
            two = P.sigma(element, s, perm_compose(p, q))
            return ("sigma-functoriality", {**where(el), "p": p, "q": q}, one, two) if one != two else None

        _scan(T, report, T.size(s), 1 + len(pairs), evaluate, violation, replay)
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
    P, np = T.P, T.np
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
        irregular = any(t.irregular for t in (A, *rhs_tables, *(x for law in laws for x in (law.act, law.lhs))))
        column = T.column
        operand = column([law.operand for law in laws])
        s_off = column([law.act.offset for law in laws])
        s_size = column([law.lhs.shape[law.operand] for law in laws])
        c_off = column([law.lhs.offset for law in laws])
        c_step = [column([law.strides[j] for law in laws]) for j in range(n + 1)]
        a_step = column([law.strides[law.operand] for law in laws])
        r_off = column([t.offset for t in rhs_tables])
        b_size, cells = T.size(base_sig), T.cells

        def evaluate(r0, r1, c0, c1):
            fg = np.arange(r0, r1)
            pick = slice(c0, c1)
            xs = np.stack([fg // st % m for st, m in zip(A.strides, A.shape)], axis=1)
            base = cells[A.offset + fg][:, None]
            x = xs[:, operand[pick]]
            acted = cells[s_off[pick] + x]
            if irregular:
                b_ok, base = T.valid(base, b_size)
                ok, acted = T.valid(acted, s_size[pick])
            at = c_off[pick] + (acted - x) * a_step[pick]
            for j in range(n + 1):
                at = at + xs[:, j, None] * c_step[j][pick]
            lhs, rhs = cells[at], cells[r_off[pick] + base]
            bad = ~b_ok | ~ok | (lhs < 0) | (rhs < 0) if irregular else None
            return lhs, rhs, bad

        def unpack(fg, col):
            f, *gs = _unravel(fg, A.shape)
            law, extra = laws[col].law, laws[col].where
            f = T.elements[ps][f]
            gs = [T.elements[s][g] for s, g in zip(cs, gs)]
            where = {"parent": _sig_str(ps), **extra}
            if law == "parent-equivariance":
                where["f"] = str(f)
            return f, gs, law, where

        def violation(fg, col, lhs, rhs):
            _, _, law, where = unpack(fg, col)
            els = T.elements[rhs_tables[col].out_sig]
            return law, where, els[lhs], els[rhs]

        def replay(fg, col):
            f, gs, law, where = unpack(fg, col)
            base = P.compose(f, ps, gs, list(cs))
            if law == "parent-equivariance":
                p = where["perm"]
                lhs = P.compose(P.sigma(f, ps, p), _permuted(ps, p), [gs[i] for i in p], [cs[i] for i in p])
            else:
                slot, tau = where["slot"], where["perm"]
                gs[slot] = P.sigma(gs[slot], cs[slot], tau)
                sigs_t = cs[:slot] + (_permuted(cs[slot], tau),) + cs[slot + 1 :]
                lhs = P.compose(f, ps, gs, list(sigs_t))
            rhs = P.sigma(base, base_sig, laws[col].perm)
            return (law, where, lhs, rhs) if lhs != rhs else None

        _scan(T, report, math.prod(A.shape), len(laws), evaluate, violation, replay)
        report.checked += math.prod(A.shape) * len(laws)


def check_operad_axioms(P: FiniteOperad, arity_bound, budget=None):
    """Enumerate unit, associativity and equivariance instances up to the
    arity bound and report every violation.

    The operad is tabulated first (`_Tables`): every composite and permuted
    element a law needs is computed once, by one scalar ``P.compose`` or
    ``P.sigma`` call, into int arrays of element ids; a value outside its
    hom-set gets a fresh id, so it compares unequal to every hom element.
    Each law is then one grid of instances per signature or composition
    instance, compared as gathers from those arrays a slice at a time, so
    that no temporary array outgrows the largest block or `_SLICE` cells;
    ``instances_checked`` is the sum of the grid sizes.  The symmetry and
    equivariance laws skip arities above `MAX_PERM_ARITY`.

    The report, the budget error and the error of an instance whose scalar
    call raises are those of checking instance by instance: an instance that
    reads a raised cell or composes a fresh id is recomputed by its scalar
    calls, in order."""
    import numpy as np  # here, so that importing the module does not load numpy

    report = AxiomReport(P.name, arity_bound)
    sigs = P.nonempty_signatures(arity_bound, budget=budget)
    instances = composition_instances(P, arity_bound, sigs, budget=budget)

    # identity elements exist
    for c in P.colors:
        ident = P.identity(c)
        if ident not in P.hom((c,), c):
            report.add("identity-exists", {"color": str(c)}, ident, P.hom((c,), c))
        report.checked += 1

    T = _Tables(P, sigs, np)
    _check_units(T, report, sigs)
    _check_associativity(T, report, instances, sigs, arity_bound, resolve_budget(budget))
    _check_symmetry(T, report, sigs)
    _check_equivariance(T, report, instances)
    return report
