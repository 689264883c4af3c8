"""The Cartan-matrix view and the sixteen affine families.

A diagram is of Cartan type when every edge label is a nonpositive power of
its endpoint's vertex label; the exponents then form a generalized Cartan
matrix.  Finite type means arithmetic; affine type (determinant zero, proper
minors positive) singles out the sixteen catalogue families, whose names
``display`` prints (A1_N is A^(1)_N).

Run:  python demos/03_affine_catalogue.py
"""

from gddkit.cartan import (
    affine_family_of,
    braiding_exponents,
    catalogue,
    display,
    is_affine_cartan,
    is_finite_cartan,
)
from gddkit.roots import Parameter

par = Parameter(5)
q = par.q

print(f"catalogue at q of order 5 (ranks <= 6):\n")
for family, g in catalogue(q, max_rank=6):
    a = braiding_exponents(g)
    det0 = is_affine_cartan(a)
    label = display(family.name) + (f", N={family.size}" if family.size else "")
    print(f"{label:18s} rank {g.rank}: affine matrix {'ok' if det0 else 'BAD'}")

# Round trip: the matrix identifies its family up to permutation.
fam, g = catalogue(q, max_rank=5)[3]
print(f"\nround trip: built {display(fam.name)}, recognized "
      f"{display(affine_family_of(g).name)}")

# A finite-type example for contrast: the plain chain.
from gddkit.core import GDD

chain = GDD(10, (q, q, q), {(0, 1): q ** -1, (1, 2): q ** -1})
a = braiding_exponents(chain)
print(f"\nall-q chain matrix: {a}")
print("finite:", is_finite_cartan(a))
