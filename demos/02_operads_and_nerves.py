"""Finite operads, their nerves, and the strict Segal criterion.

    python demos/02_operads_and_nerves.py
"""

from dendrokit.dendroidal import is_strict_segal, nerve, nerve_round_trip
from dendrokit.operads import (
    Collection,
    ass_operad,
    check_operad_axioms,
    com_operad,
    end_operad,
    free_operad,
    omega_operad,
    one_binary_generator,
)
from dendrokit.trees import corolla, enumerate_trees_by_vertices, parse_tree

# -- the example operads -------------------------------------------------------

print("== operads ==")
A = ass_operad(4)
print(f"linear orders: |Ass(3)| = {len(A.hom(('x',)*3, 'x'))}")
E = end_operad((0, 1), 2)
print(f"functions on two points: |End(2)| = {len(E.hom(('x',)*2, 'x'))}")

report = check_operad_axioms(A, 4)
print(f"associative operad axioms at arity 4: passed={report.passed} "
      f"({report.checked} instances)")

F = free_operad(one_binary_generator(), 5)
print("free operad on one binary generator:",
      {n: len(F.level(n)) for n in sorted(F._levels)})
print("(the double factorials 1, 1, 3, 15, 105 of leaf-labelled binary trees)")

F3 = free_operad(Collection(levels={3: ("w",)}), 5)
print("free on one ternary generator:", {n: len(F3.level(n)) for n in sorted(F3._levels)})

W = omega_operad(parse_tree("(*@e((*@a*@c)@b)@d)@f"))
print(f"the six-edge example tree generates an operad with {len(W.colors)} colors "
      f"and {len(W.non_identity_input_sets())} non-identity operations")

# -- nerves and the Segal condition ---------------------------------------------

print("\n== nerves ==")
X = nerve(A)
print(f"nerve(Ass) at the 3-corolla has {len(X.values(corolla(3)))} elements (3!)")
print(f"nerve(Com) is a point everywhere: {len(nerve(com_operad()).values(parse_tree('((**)(**))')))}")

grafted = parse_tree("((**)*)")
print(f"nerve(Ass) at ((**)*) has {len(X.values(grafted))} elements "
      "(pairs of binary orders: one per Segal core family)")

carrier = enumerate_trees_by_vertices(3, 3)
for P in (com_operad(), A, free_operad(one_binary_generator(), 4)):
    segal = is_strict_segal(nerve(P), carrier)
    print(f"strict Segal check for nerve({P.name}) on {len(carrier)} trees: {segal.passed}")

# -- reconstruction ---------------------------------------------------------------

print("\n== reconstructing operads from their nerves ==")
for P, bound in [(com_operad(), 3), (A, 3), (end_operad((0, 1), 2), 2)]:
    witness = nerve_round_trip(P, bound)
    print(f"nerve then reconstruct for {P.name}: isomorphism verified on "
          f"{witness.checks} instances -> {witness.ok}")
