"""
Searching a window for additive symmetries
==========================================

Over the anchored sets inside [-m, m], enumerate every bijection that
respects addition whenever the sum stays inside the window.  Identity
and negation always survive.  For m = 1 they are alone; from m = 2 on,
the window constraint is too loose to pin them: a handful of extremal
atoms have every sum with a non-unit outside the window, so swapping
them is invisible to the test.
"""

from powermonoid import (
    ZeroSet,
    as_table_spec,
    build_window,
    find_window_automorphisms,
    identity_table,
    negation_table,
)

# m = 1: four sets, and only identity and negation survive.
u = build_window(1)
tables = find_window_automorphisms(u)
print("m = 1 universe:", [str(e) for e in u.elements])
print("survivors:", len(tables))
print("exactly id and neg:", sorted(tables) == sorted([identity_table(u), negation_table(u)]))

# m = 2: sixteen sets and four survivors.  The two extras come from
# swapping {-2,-1,0,2} with {-2,0,1,2}: both are atoms, every sum
# with a non-unit leaves the window, and neither is a sum of in-window
# sets, so no constraint tells them apart.
u = build_window(2)
tables = find_window_automorphisms(u)
print()
print("m = 2 survivors:", len(tables))
iden = identity_table(u)
for t in tables:
    moved = [
        (u.elements[i], u.elements[k]) for i, (k, k0) in enumerate(zip(t, iden)) if k != k0
    ]
    print("  moves:", moved if moved else "none (identity)")

# Tables are index vectors; as_table_spec renders one as an explicit
# source -> image map for inspection.
spec = as_table_spec(u, negation_table(u))
img = spec.image_of(ZeroSet((-2, -1, 0, 2)))
print("negation sends {-2,-1,0,2} to", img)
