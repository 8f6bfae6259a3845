"""Stratification posets of compactified configuration spaces.

The compactified space of k points in R^n modulo translation and scaling is
a manifold with corners; its strata are indexed by rooted trees with k
labelled leaves and no vertices of valence one or two, ordered by
contraction of inner edges (the corolla is the open interior).  Following
Fulton and MacPherson, a tree is held as its nested set: the leaf sets of
its non-root vertices.  Contracting an inner edge drops one such set, so
s <= t exactly when t's nested set is contained in s's.  A tree is built
once, bottom-up, from canonical branches and stores its canonical term, its
leaf-label mask and its nested set, so no sub-term is serialized twice.  A
stratum whose tree has vertex valences k_1..k_l has dimension
sum_i (n(k_i-2)-1); the whole level has dimension n(k-1)-1 for k >= 2 and
levels 0 and 1 are single points.

This module enumerates those posets, computes stratum dimensions, closure
relations and composition images, derives the boundary index poset (drop the
corolla) and the coboundary index poset (root-containing proper subtrees of
the stump-capped corolla, a punctured cube), and evaluates the direction and
ratio coordinates of the configuration-space embedding numerically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import attrgetter

from .errors import DomainError, charge
from .morphisms import shorten, subtrees
from .trees import Tree, parse_tree, reduced_corolla

__all__ = [
    "LabelledTree",
    "StratPoset",
    "enumerate_psi",
    "stratum_dim",
    "fm_dimension",
    "composition_image",
    "boundary_index",
    "cobound_index",
    "CoboundIndex",
    "shorten",
    "Configuration",
    "FMCoordinates",
    "fm_embed",
    "fm_selftest",
]


# -- leaf-labelled trees -------------------------------------------------------


class LabelledTree:
    """A rooted tree whose maximal edges are all leaves, labelled bijectively
    by 1..k, with every vertex of at least two inputs.

    Built bottom-up from canonical branches by `_vertex`, which stores, once:
    `node`, the canonical nested structure (a leaf is an int label, a vertex
    a tuple of children sorted by serialized sub-term); `term`, that
    serialization; `mask`, the bitmask of leaf labels; and `clusters`, the
    tree's nested set (the leaf-label masks of its non-root vertices).  The
    sorted vertex valences are walked once, on first use.
    Isomorphisms must respect the labelling, so distinct labellings are
    distinct elements.  ``LabelledTree(node)`` builds the tree of a raw
    nested node in any child order.
    """

    __slots__ = ("node", "term", "mask", "clusters", "_valences", "_hash")

    def __new__(cls, node):
        if isinstance(node, int):
            return _leaf(node)
        return _vertex([LabelledTree(c) for c in node])

    def labels(self):
        return [i for i in range(self.mask.bit_length()) if self.mask >> i & 1]

    def valences(self):
        """Multiset (sorted tuple) of vertex valences, inputs plus one."""
        if self._valences is None:
            out = []

            def rec(node):
                if not isinstance(node, int):
                    out.append(len(node) + 1)
                    for c in node:
                        rec(c)

            rec(self.node)
            self._valences = tuple(sorted(out))
        return self._valences

    @property
    def n_vertices(self):
        return len(self.clusters) + 1

    @property
    def n_inner_edges(self):
        # every non-root vertex sits on top of one inner edge
        return len(self.clusters)

    def is_corolla(self):
        return not self.clusters

    @classmethod
    def from_tree(cls, t: Tree) -> "LabelledTree":
        def rec(addr):
            if t.is_leaf(addr):
                label = t.label(addr)
                if label is None:
                    raise DomainError("unlabelled leaf", {"address": str(addr)})
                return int(label)
            return tuple(rec(c) for c in t.children(addr))

        return cls(rec(()))

    @classmethod
    def parse(cls, text) -> "LabelledTree":
        return cls.from_tree(parse_tree(text))

    def validate(self):
        labels = self.labels()
        # a repeated label sets one bit for two leaves, so count the leaves
        if labels != list(range(1, self.term.count("*") + 1)):
            raise DomainError("leaf labels must be exactly 1..k", {"labels": labels})

        def rec(node):
            if isinstance(node, int):
                return
            if len(node) < 2:
                raise DomainError(
                    "vertex of valence one or two", {"tree": self.term}
                )
            for c in node:
                rec(c)

        rec(self.node)

    def __eq__(self, other):
        return isinstance(other, LabelledTree) and self.term == other.term

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"LabelledTree({self.term!r})"


def _leaf(label):
    if label < 1:
        raise DomainError("leaf labels must be exactly 1..k", {"labels": [label]})
    t = object.__new__(LabelledTree)
    t.node, t.term, t.mask, t.clusters = label, f"*@{label}", 1 << label, frozenset()
    t._valences = ()
    t._hash = hash(label)
    return t


def _vertex(branches):
    """The tree whose root's children are the canonical trees `branches`."""
    branches = sorted(branches, key=attrgetter("term"))
    t = object.__new__(LabelledTree)
    t.node = tuple(b.node for b in branches)
    t.term = "(" + "".join(b.term for b in branches) + ")"
    mask, clusters = 0, set()
    for b in branches:
        mask |= b.mask
        clusters |= b.clusters
        if not isinstance(b.node, int):
            clusters.add(b.mask)
    t.mask, t.clusters = mask, frozenset(clusters)
    t._valences = None
    t._hash = hash(t.node)
    return t


# -- the stratification poset ---------------------------------------------------


@dataclass(frozen=True)
class StratPoset:
    """Leaf-labelled trees with the contraction order.

    ``leq(s, t)`` holds when t is obtained from s by contracting inner edges,
    that is when t's nested set is a subset of s's, so the corolla (the
    empty nested set) is the unique maximal element and the closure of a
    stratum is its down-set.
    """

    k: int
    elements: tuple
    _index: dict

    @classmethod
    def build(cls, k, trees):
        elements = tuple(sorted(trees, key=lambda t: (-t.n_vertices, t.term)))
        return cls(k, elements, {t: i for i, t in enumerate(elements)})

    def __len__(self):
        return len(self.elements)

    def index(self, t: LabelledTree):
        try:
            return self._index[t]
        except KeyError:
            raise DomainError("tree not in poset", {"tree": t.term, "k": self.k})

    def leq(self, s: LabelledTree, t: LabelledTree) -> bool:
        """s <= t: t is reachable from s by contracting inner edges."""
        self.index(s)
        self.index(t)
        return t.clusters <= s.clusters

    def down_set(self, t: LabelledTree):
        """All s <= t: the strata in the closure of t's stratum."""
        self.index(t)
        return [s for s in self.elements if t.clusters <= s.clusters]

    def covers(self):
        """Pairs (s, t) with t one single contraction above s: t's nested set
        is s's minus one cluster."""
        by_clusters = {t.clusters: t for t in self.elements}
        out = []
        for s in self.elements:
            ups = [by_clusters.get(s.clusters - {c}) for c in s.clusters]
            ups = sorted((t for t in ups if t is not None), key=lambda x: x.term)
            out.extend((s, t) for t in ups)
        return out

    @property
    def corolla(self):
        tops = [t for t in self.elements if t.is_corolla()]
        if len(tops) != 1:
            raise DomainError("poset does not have a unique corolla")
        return tops[0]

    def to_json(self, ambient=None):
        elements = []
        for t in self.elements:
            entry = {
                "term": t.term,
                "valences": list(t.valences()),
                "inner_edges": t.n_inner_edges,
            }
            if ambient is not None:
                entry["dim"] = stratum_dim(t, ambient)
                entry["codim"] = fm_dimension(ambient, self.k) - entry["dim"]
            elements.append(entry)
        return {
            "k": self.k,
            "count": len(self.elements),
            "elements": elements,
            "covers": [[s.term, t.term] for s, t in self.covers()],
        }

    def to_dot(self, ambient=2):
        lines = ["digraph strata {", "  rankdir=BT;"]
        for i, t in enumerate(self.elements):
            dim = stratum_dim(t, ambient)
            label = f"{t.term}\\ndim {dim} (n={ambient})"
            lines.append(f'  s{i} [label="{label}"];')
        for s, t in self.covers():
            lines.append(f"  s{self.index(s)} -> s{self.index(t)};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _labelled_trees_over(labels, memo):
    """All labelled trees (vertices of >= 2 inputs) on a sorted label tuple.
    `memo` maps each label tuple already met to its trees, so a subset that
    recurs as a partition block is built once and its trees are shared."""
    out = memo.get(labels)
    if out is not None:
        return out
    if len(labels) == 1:
        out = [_leaf(labels[0])]
    else:
        out = []
        for blocks in _set_partitions(labels):
            if len(blocks) < 2:
                continue
            pools = [_labelled_trees_over(tuple(b), memo) for b in blocks]
            out.extend(map(_vertex, itertools.product(*pools)))
    memo[labels] = out
    return out


def _set_partitions(items):
    """All partitions of a tuple into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in _set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [[first] + partial[i]] + partial[i + 1 :]
        yield [[first]] + partial


def enumerate_psi(k, budget=None) -> StratPoset:
    """The stratification poset at level k: all iso classes of rooted trees
    with leaves labelled 1..k and no vertices of valence one or two."""
    if k < 2:
        raise DomainError("stratification poset needs k >= 2", {"k": k})
    charge("psi enumeration", _psi_count(k), budget)
    trees = _labelled_trees_over(tuple(range(1, k + 1)), {})
    for t in trees:
        t.validate()
    return StratPoset.build(k, trees)


def _psi_count(k):
    """Number of strata at level k (OEIS A000311).  A tree on m >= 2 leaves
    is the subtree holding leaf 1, on j < m leaves, beside a forest of one
    or more trees on the other m - j; there are f(r) = 2 a(r) such forests
    on r >= 2 leaves: one tree, or the root's branches of one."""
    a, f = {1: 1}, {1: 1}
    for m in range(2, k + 1):
        a[m] = sum(math.comb(m - 1, j - 1) * a[j] * f[m - j] for j in range(1, m))
        f[m] = 2 * a[m]
    return a[k]


def stratum_dim(t: LabelledTree, ambient: int) -> int:
    """Dimension of the stratum indexed by `t` in ambient dimension n:
    the sum over vertices of n*(valence-2) - 1."""
    if ambient < 1:
        raise DomainError("ambient dimension must be >= 1", {"n": ambient})
    return sum(ambient * (val - 2) - 1 for val in t.valences())


def fm_dimension(ambient: int, k: int) -> int:
    """Dimension of compactified configuration level k: n(k-1)-1 for k >= 2;
    levels 0 and 1 are one-point spaces."""
    if ambient < 1:
        raise DomainError("ambient dimension must be >= 1", {"n": ambient})
    if k < 0:
        raise DomainError("level must be >= 0", {"k": k})
    if k in (0, 1):
        return 0
    return ambient * (k - 1) - 1


def composition_image(poset: StratPoset, pattern: LabelledTree):
    """Strata in the closed image of the operadic composition landing on
    `pattern`: the down-set of `pattern` in the contraction order."""
    return poset.down_set(pattern)


def boundary_index(n, budget=None) -> StratPoset:
    """The stratification poset at level n without its corolla: the index
    shape of the operadic boundary."""
    if n < 2:
        raise DomainError("boundary index needs n >= 2", {"n": n})
    full = enumerate_psi(n, budget=budget)
    corolla = full.corolla
    rest = [t for t in full.elements if t != corolla]
    return StratPoset.build(n, rest)


# -- coboundary index: a punctured cube ------------------------------------------


@dataclass(frozen=True)
class CoboundIndex:
    """Root-containing proper subtrees of the stump-capped n-corolla, ordered
    by inclusion; order-isomorphic to the proper subsets of {1..n}."""

    n: int
    elements: tuple  # SubtreeInclusion values
    subset_map: dict  # SubtreeInclusion -> frozenset of branch indices (1-based)

    def __len__(self):
        return len(self.elements)

    def leq(self, a, b):
        return a.edge_subset <= b.edge_subset

    def is_order_isomorphism(self):
        """Check the subset witness both ways on all pairs."""
        for a, b in itertools.product(self.elements, repeat=2):
            if (a.edge_subset <= b.edge_subset) != (
                self.subset_map[a] <= self.subset_map[b]
            ):
                return False
        subsets = {frozenset(s) for s in map(frozenset, self.subset_map.values())}
        expected = {
            frozenset(c)
            for r in range(self.n)
            for c in itertools.combinations(range(1, self.n + 1), r)
        }
        return subsets == expected

    def to_json(self):
        return {
            "n": self.n,
            "count": len(self.elements),
            "elements": [
                {
                    "induced": s.induced.term,
                    "edges": sorted(".".join(map(str, e)) for e in s.edge_subset),
                    "subset": sorted(self.subset_map[s]),
                }
                for s in self.elements
            ],
        }


def cobound_index(n, budget=None) -> CoboundIndex:
    """The coboundary index poset at level n >= 1."""
    if n < 1:
        raise DomainError("coboundary index needs n >= 1", {"n": n})
    t = reduced_corolla(n)
    full = frozenset(t.edges)
    elements = []
    subset_map = {}
    for s in subtrees(t, budget=budget):
        if not s.contains_root or s.edge_subset == full:
            continue
        elements.append(s)
        subset_map[s] = frozenset(
            addr[0] + 1 for addr in s.edge_subset if addr != ()
        )
    elements.sort(key=lambda s: (len(s.edge_subset), sorted(s.edge_subset)))
    return CoboundIndex(n, tuple(elements), subset_map)


# -- configuration-space coordinates ----------------------------------------------


@dataclass(frozen=True)
class Configuration:
    """k ordered points in R^n; rejects non-finite and coincident points on
    construction."""

    points: np.ndarray

    def __post_init__(self):
        import numpy as np  # here and below, so that importing the CLI loads no numpy

        try:
            pts = np.asarray(self.points, dtype=float)
        except (TypeError, ValueError):  # ragged rows or non-numbers
            raise DomainError("points must be a k x n array") from None
        if pts.ndim != 2:
            raise DomainError("points must be a k x n array")
        if not np.isfinite(pts).all():
            raise DomainError("points must be finite")
        object.__setattr__(self, "points", pts)
        k = pts.shape[0]
        for i in range(k):
            for j in range(i + 1, k):
                if np.linalg.norm(pts[i] - pts[j]) == 0.0:
                    raise DomainError(
                        "coincident points", {"i": i + 1, "j": j + 1}
                    )

    @property
    def k(self):
        return self.points.shape[0]

    @property
    def ambient(self):
        return self.points.shape[1]


@dataclass(frozen=True)
class FMCoordinates:
    """Direction vectors a[(i,j)] = (x_i - x_j)/|x_i - x_j| for ordered pairs
    and ratios b[(i,j,k)] = |x_i - x_j|/|x_i - x_k| for ordered triples,
    with the translation/scaling-normalized representative."""

    a: dict
    b: dict
    normalized: Configuration

    def to_json(self):
        def num(x):
            if math.isinf(x):
                return "inf"
            return x

        return {
            "a": {f"{i},{j}": [num(v) for v in vec] for (i, j), vec in sorted(self.a.items())},
            "b": {f"{i},{j},{k}": num(v) for (i, j, k), v in sorted(self.b.items())},
            "normalized": [[num(v) for v in row] for row in self.normalized.points],
        }


def fm_embed(config: Configuration) -> FMCoordinates:
    """Exact embedding coordinates of a configuration, IEEE doubles.

    Also returns the gauge-normalized representative: centroid at the origin
    and maximal pairwise distance one.  Any two configurations differing by a
    translation and a positive scaling share (a, b) coordinates exactly up to
    floating-point rounding.
    """
    import numpy as np

    pts = config.points
    k = config.k
    a = {}
    b = {}
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            diff = pts[i] - pts[j]
            a[(i + 1, j + 1)] = diff / np.linalg.norm(diff)
    for i, j, l in itertools.permutations(range(k), 3):
        num = np.linalg.norm(pts[i] - pts[j])
        den = np.linalg.norm(pts[i] - pts[l])
        b[(i + 1, j + 1, l + 1)] = math.inf if den == 0.0 else num / den
    centered = pts - pts.mean(axis=0)
    scale = max(
        np.linalg.norm(centered[i] - centered[j])
        for i in range(k)
        for j in range(i + 1, k)
    ) if k >= 2 else 1.0
    normalized = Configuration(centered / scale if scale > 0 else centered)
    return FMCoordinates(a, b, normalized)


def fm_selftest(seed=0, trials=1000, k=4, ambient=3, tol_exact=1e-12, tol_gauge=1e-9):
    """Randomized numeric checks of the embedding coordinates.

    Verifies on random nondegenerate configurations that a[(i,j)] equals
    -a[(j,i)] and b[(i,j,k)] * b[(i,k,j)] equals 1 within `tol_exact`, that
    the coordinates are invariant under random translations and positive
    scalings within `tol_gauge`, and that collision families along a line
    drive the relevant ratio monotonically to zero.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1", {"trials": trials})
    if seed < 0:
        raise DomainError("seed must be >= 0", {"seed": seed})
    import numpy as np

    rng = np.random.default_rng(seed)
    worst_antisym = 0.0
    worst_recip = 0.0
    worst_gauge = 0.0
    for _ in range(trials):
        pts = rng.uniform(-1.0, 1.0, size=(k, ambient))
        config = Configuration(pts)
        coords = fm_embed(config)
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                if i == j:
                    continue
                dev = np.max(np.abs(coords.a[(i, j)] + coords.a[(j, i)]))
                worst_antisym = max(worst_antisym, float(dev))
        for (i, j, l), val in coords.b.items():
            worst_recip = max(worst_recip, abs(val * coords.b[(i, l, j)] - 1.0))
        shift = rng.uniform(-10.0, 10.0, size=ambient)
        scale = float(rng.uniform(0.1, 10.0))
        moved = fm_embed(Configuration(pts * scale + shift))
        for key, vec in coords.a.items():
            worst_gauge = max(worst_gauge, float(np.max(np.abs(vec - moved.a[key]))))
        for key, val in coords.b.items():
            worst_gauge = max(worst_gauge, abs(val - moved.b[key]))
    # collision family: second point approaches the first along direction u
    u = np.zeros(ambient)
    u[0] = 1.0
    base = rng.uniform(-1.0, 1.0, size=(k, ambient))
    ratios = []
    directions = []
    for t in (1e-3, 1e-6):
        pts = base.copy()
        pts[1] = pts[0] + t * u
        coords = fm_embed(Configuration(pts))
        ratios.append(coords.b[(1, 2, 3)])
        directions.append(coords.a[(1, 2)])
    collision_ok = (
        ratios[1] < ratios[0]
        and np.allclose(directions[0], -u, atol=tol_exact)
        and np.allclose(directions[1], -u, atol=tol_exact)
    )
    return {
        "trials": trials,
        "worst_antisymmetry": worst_antisym,
        "worst_reciprocal": worst_recip,
        "worst_gauge_invariance": worst_gauge,
        "collision_ratios": ratios,
        "collision_monotone": collision_ok,
        "passed": bool(
            worst_antisym <= tol_exact
            and worst_recip <= tol_exact
            and worst_gauge <= tol_gauge
            and collision_ok
        ),
    }
