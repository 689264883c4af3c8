"""The arithmetic oracle and a quasi-affine search.

A connected diagram is quasi-affine when it is not arithmetic yet every
single-vertex deletion is.  The oracle decides arithmeticity by recognizing
the diagram in one of three branches (a classical type, a packaged
exceptional row, or a finite Cartan matrix); the search grows every
arithmetic diagram of the rank below by one vertex and keeps the
quasi-affine results.

Run:  python demos/04_quasi_affine_search.py      (under a second)
"""

from pathlib import Path

from gddkit.core import GDD
from gddkit.oracle import Oracle
from gddkit.roots import Parameter
from gddkit.search import enumerate_quasi_affine
from gddkit.tables import load

DATA = Path(__file__).parent.parent / "src" / "gddkit" / "data" / "exceptional_rows.gdd"

par = Parameter(3)
q = par.q
db = load(DATA)
oracle = Oracle(db)

# The hexagon: a rank-5 exceptional row closed up by one extra vertex.
mm = par.label(1, 0)  # -1
hexagon = GDD(
    6,
    (q, q, mm, q, q, q),
    {(0, 1): q ** -1, (1, 2): q ** -1, (2, 3): q ** -1, (3, 4): q ** -1,
     (0, 5): q ** -1, (4, 5): q ** -1},
)
print("hexagon arithmetic:", oracle.is_arithmetic(hexagon).arithmetic)
print("hexagon quasi-affine:", oracle.is_quasi_affine(hexagon))
for v in range(6):
    sub = hexagon.delete_vertex(v)
    verdict = oracle.is_arithmetic(sub)
    print(f"  minus vertex {v + 1}: arithmetic via {verdict.witness[0]}")

# Search restricted to one base: every quasi-affine diagram obtained by
# adding a vertex to the rank-5 chain inside the hexagon.
base = hexagon.delete_vertex(5)
report = enumerate_quasi_affine(6, par.modulus, db, bases=[base])
print(f"\nquasi-affine extensions of the base chain: {len(report.found)}")
for key, g in sorted(report.found.items())[:3]:
    print(f"  shape {report.shape_tags[key]}:")
    for line in g.to_text().splitlines():
        print("   ", line)
