"""Braiding exponential matrices, generalized Cartan matrix recognition, and
the catalogue of affine diagrams.

For a diagram of Cartan type, a_ij is the maximal b <= 0 with the edge label
on {i, j} equal to q_ii^b (0 off edges), and a_ii = 2.  The diagram is
arithmetic exactly when that matrix is a finite-type Cartan matrix, and it is
called affine when the matrix is an affine generalized Cartan matrix; each
type is decided by one elimination of the whole matrix (_leading_minors).
One table (_FAMILIES) holds the sixteen affine families; their printed
names, ranks and reference matrices follow from it.

The search's bases take from here the one kind of finite Cartan type that is
neither classical nor stored from rank 5 on: the diagrams of type E_6-E_8,
built directly (e_type_diagrams).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .core import GDD, components_of, least_form
from .roots import UnityRoot, discrete_log_nonpositive

Matrix = tuple[tuple[int, ...], ...]


def is_generalized_cartan(a: Matrix) -> bool:
    n = len(a)
    for i in range(n):
        if a[i][i] != 2:
            return False
        for j in range(n):
            if i != j and (a[i][j] > 0 or (a[i][j] == 0) != (a[j][i] == 0)):
                return False
    return True


def edge_exponents(g: GDD):
    """Yield ((u, v), (a_uv, a_vu)) for each edge (u, v) of g: its two
    entries of the braiding exponential matrix, or None for the pair when
    the label has no nonpositive exponent solution at one of its ends (the
    edge is not of Cartan type).  An edge label is never 1, so both
    exponents are negative.  A reader may stop at the first None."""
    diag = g.diag
    for (u, v), lab in g.edges.items():
        a_uv = discrete_log_nonpositive(diag[u], lab)
        a_vu = None if a_uv is None else discrete_log_nonpositive(diag[v], lab)
        yield (u, v), (None if a_vu is None else (a_uv, a_vu))


def exponent_matrix(rank: int, exponents, without: int | None = None) -> Matrix | None:
    """The braiding exponential matrix of a diagram of the given rank, or of
    its deletion of vertex ``without`` (renumbered in order), from the
    diagram's edge exponents (edge_exponents); None when an edge it keeps is
    not of Cartan type.  Every other off-diagonal entry is 0 and the edge
    entries are negative, so the matrix is a generalized Cartan matrix by
    construction."""
    cut = rank if without is None else without
    n = rank - (cut < rank)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2
    for (u, v), pair in exponents:
        if u == cut or v == cut:
            continue
        if pair is None:
            return None
        i, j = u - (u > cut), v - (v > cut)
        rows[i][j], rows[j][i] = pair
    return tuple(map(tuple, rows))


def braiding_exponents(g: GDD) -> Matrix | None:
    """The braiding exponential matrix, or None when g is not of Cartan type
    (some label pair has no nonpositive exponent solution).  Only the edges
    are read, up to the first that is not of Cartan type (edge_exponents,
    exponent_matrix)."""
    if g.has_degenerate_diag():
        raise ValueError("vertex label 1 admits no exponent matrix")
    return exponent_matrix(g.rank, edge_exponents(g))


def _bareiss_step(m: list[list[int]], k: int, prev: int) -> None:
    """One step of Bareiss's fraction-free elimination, in place: the entries
    below and right of pivot m[k][k] become 2x2 determinants against the
    pivot row, divided exactly by the previous pivot.  Afterwards m[k+1][k+1]
    is the leading minor of order k + 2 of the (row-permuted) input."""
    pivot, row = m[k][k], m[k]
    for r in m[k + 1:]:
        f = r[k]
        for j in range(k + 1, len(row)):
            r[j] = (r[j] * pivot - f * row[j]) // prev


def _leading_minors(a: Matrix):
    """The leading principal minors of a, in order of size, as the pivots of
    one Bareiss elimination without row swaps; stops after the first zero."""
    m = [list(row) for row in a]
    prev = 1
    for k in range(len(m)):
        pivot = m[k][k]
        yield pivot
        if pivot == 0:
            return
        _bareiss_step(m, k, prev)
        prev = pivot


def is_indecomposable(a: Matrix) -> bool:
    n = len(a)
    nbrs = [sum(1 << u for u in range(n) if u != v and a[v][u] != 0) for v in range(n)]
    return len(components_of(nbrs)) == 1


def is_finite_cartan(a: Matrix) -> bool:
    """Finite type: every leading principal minor of a is positive, read off
    one elimination of the whole matrix that stops at the first minor that
    is not.

    The off-diagonal entries of a are <= 0, so a is a nonsingular M-matrix
    exactly when its leading principal minors are positive, in any vertex
    order (Berman and Plemmons, Nonnegative Matrices in the Mathematical
    Sciences, ch. 6, Thm 2.3): a simultaneous permutation of rows and
    columns keeps the M-matrix property.  An indecomposable generalized
    Cartan matrix is of finite type exactly when it is a nonsingular
    M-matrix, that is, when au > 0 for some u > 0 (Kac, Infinite-dimensional
    Lie algebras, Thm 4.3).  A decomposable one is of finite type when each
    of its blocks is, and a block-diagonal matrix is a nonsingular M-matrix
    exactly when each of its blocks is."""
    if not is_generalized_cartan(a):
        raise ValueError("not a generalized Cartan matrix")
    return all(minor > 0 for minor in _leading_minors(a))


def is_affine_cartan(a: Matrix) -> bool:
    """Affine type: indecomposable, determinant zero, and every proper
    principal sub-block of finite type; False for a decomposable matrix.
    Decided in one elimination: an indecomposable a is affine exactly when
    its leading principal minors of orders 1 .. n-1 are positive and its
    determinant is 0.

    If those minors are positive, the leading block of order n-1 is a
    nonsingular M-matrix (a has nonpositive off-diagonal entries); with
    det a = 0, a + eps I has positive leading minors for every eps > 0, so a
    is a singular M-matrix.  Being indecomposable, it then has corank 1 and
    a positive null vector, which is the affine case of Kac's
    classification (Infinite-dimensional Lie algebras, Thm 4.3).
    Conversely, every proper principal submatrix of an affine matrix is of
    finite type (Lemma 4.5 there), so those minors are positive."""
    if not is_generalized_cartan(a):
        raise ValueError("not a generalized Cartan matrix")
    if not is_indecomposable(a):
        return False
    *leading, det = _leading_minors(a)
    return len(leading) == len(a) - 1 and det == 0 and all(x > 0 for x in leading)


def _least_form(a: Matrix) -> tuple:
    n = len(a)
    form, _ = least_form(
        [a[v][v] for v in range(n)],
        [{u: (a[v][u], a[u][v]) for u in range(n) if u != v and (a[v][u] or a[u][v])}
         for v in range(n)],
    )
    return form


# -- the affine catalogue ------------------------------------------------------


class AffineFamily(namedtuple("AffineFamily", "name size")):
    """One of the sixteen affine diagram families; ``size`` is the N in the
    family name, None for fixed families."""

    __slots__ = ()

    def __str__(self):
        return self.name if self.size is None else f"{self.name}(N={self.size})"


# name -> (least N, or None for a fixed family; least order of q it admits).
# A sized family has rank N + 1.
_FAMILIES = {
    "A1_1": (None, 3), "A1_N": (2, 2), "B1_N": (3, 3), "C1_N": (2, 3),
    "D1_N": (4, 2), "E1_6": (None, 2), "E1_7": (None, 2), "E1_8": (None, 2),
    "F1_4": (None, 3), "G1_2": (None, 4), "A2_2": (None, 5), "A2_2N": (2, 5),
    "A2_2N-1": (3, 3), "D2_N+1": (2, 3), "E2_6": (None, 3), "D3_4": (None, 4),
}

FAMILY_NAMES = list(_FAMILIES)


def display(name: str) -> str:
    """The family's name as printed: "A1_N" is A^(1)_N."""
    return f"{name[0]}^({name[1]})_{name[3:]}"


def admissible(name: str, q: UnityRoot) -> bool:
    """Parameter constraint of the family, as stated in the catalogue."""
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name}")
    return q.order() >= _FAMILIES[name][1]


def _path(q_powers: list[int], edge_powers: list[int], q: UnityRoot) -> GDD:
    diag = tuple(q ** k for k in q_powers)
    edges = {(i, i + 1): q ** e for i, e in enumerate(edge_powers)}
    return GDD(q.modulus, diag, edges)


def build_affine_gdd(family: AffineFamily, q: UnityRoot) -> GDD:
    """The catalogue diagram of the family at parameter q."""
    name, N = family.name, family.size
    if not admissible(name, q):
        raise ValueError(f"parameter of order {q.order()} not admissible for {name}")
    lo = _FAMILIES[name][0]
    if (lo is None) != (N is None) or (N is not None and N < lo):
        raise ValueError(f"bad size {N} for {name}")
    m = q.modulus

    if name == "A1_1":
        return _path([1, 1], [-2], q)
    if name == "A1_N":
        n = N + 1
        diag = tuple(q for _ in range(n))
        edges = {(i, (i + 1) % n): q ** -1 for i in range(n)}
        return GDD(m, diag, edges)
    if name == "B1_N":
        g = _path([1] * (N - 1) + [2], [-1] * (N - 2) + [-2], q)
        return g.add_vertex(q, [(1, q ** -1)])
    if name == "C1_N":
        return _path([1] + [2] * (N - 1) + [1], [-2] * N, q)
    if name == "D1_N":
        g = _path([1] * (N - 1), [-1] * (N - 2), q)
        g = g.add_vertex(q, [(1, q ** -1)])
        return g.add_vertex(q, [(N - 3, q ** -1)])
    if name == "E1_6":
        g = _path([1] * 5, [-1] * 4, q)
        g = g.add_vertex(q, [(2, q ** -1)])
        return g.add_vertex(q, [(5, q ** -1)])
    if name == "E1_7":
        g = _path([1] * 7, [-1] * 6, q)
        return g.add_vertex(q, [(3, q ** -1)])
    if name == "E1_8":
        g = _path([1] * 8, [-1] * 7, q)
        return g.add_vertex(q, [(5, q ** -1)])
    if name == "F1_4":
        return _path([1, 1, 1, 2, 2], [-1, -1, -2, -2], q)
    if name == "G1_2":
        return _path([1, 1, 3], [-1, -3], q)
    if name == "A2_2":
        return _path([4, 1], [-4], q)
    if name == "A2_2N":
        return _path([4] + [2] * (N - 1) + [1], [-4] + [-2] * (N - 1), q)
    if name == "A2_2N-1":
        g = _path([2] * (N - 1) + [1], [-2] * (N - 1), q)
        return g.add_vertex(q ** 2, [(1, q ** -2)])
    if name == "D2_N+1":
        return _path([2] + [1] * (N - 1) + [2], [-2] + [-1] * (N - 2) + [-2], q)
    if name == "E2_6":
        return _path([2, 2, 2, 1, 1], [-2, -2, -2, -1], q)
    if name == "D3_4":
        return _path([3, 3, 1], [-3, -3], q)
    raise ValueError(f"unknown family {name}")


def catalogue(q: UnityRoot, max_rank: int = 9) -> list[tuple[AffineFamily, GDD]]:
    """Every catalogue family admissible at q, instantiated at ranks up to
    max_rank (sized families contribute one instance per size)."""
    out = []
    for name, (lo, _) in _FAMILIES.items():
        if admissible(name, q):
            for N in [None] if lo is None else range(lo, max_rank):
                fam = AffineFamily(name, N)
                g = build_affine_gdd(fam, q)
                if g.rank <= max_rank:
                    out.append((fam, g))
    return out


@cache
def _affine_families(rank: int) -> dict[tuple, AffineFamily]:
    """The least form of each family's matrix at the given rank -> the first
    family in FAMILY_NAMES order with that matrix.  The matrices are read
    off the catalogue at a parameter of order 30, so that no exponent
    collapses at any rank it reaches."""
    table: dict[tuple, AffineFamily] = {}
    for family, g in catalogue(UnityRoot(2, 60), rank):
        if g.rank == rank:
            table.setdefault(_least_form(braiding_exponents(g)), family)
    return table


def family_of_affine_matrix(a: Matrix) -> AffineFamily | None:
    """The catalogue family whose matrix is a up to a simultaneous
    permutation of rows and columns, if any; a must be an indecomposable
    affine Cartan matrix."""
    return _affine_families(len(a)).get(_least_form(a))


def affine_family_of(g: GDD) -> AffineFamily | None:
    """Identify which affine family's matrix the diagram carries, if any."""
    if g.has_degenerate_diag():
        return None
    a = braiding_exponents(g)
    if a is None or not is_affine_cartan(a):
        return None
    return family_of_affine_matrix(a)


def arithmetic_via_cartan(g: GDD) -> bool | None:
    """The Cartan-type shortcut: finite type means arithmetic, any other
    Cartan type means not arithmetic; None when the shortcut does not apply."""
    if g.has_degenerate_diag():
        return None
    a = braiding_exponents(g)
    if a is None:
        return None
    return is_finite_cartan(a)


# The edges of E_8 on a branch vertex 0 with arms 3, 1-4-6-7 and 2-5; E_6
# keeps the first five, E_7 the first six.
_E_EDGES = ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (4, 6), (6, 7))


def e_type_diagrams(rank: int, modulus: int) -> list[GDD]:
    """The diagrams of Cartan type E_rank over mu_modulus, one for each
    q != 1 in mu_modulus: every vertex labelled q, every edge q^-1; [] at a
    rank other than 6, 7 or 8.

    These are all of them.  E_6-E_8 are simply laced, so a_ij = a_ji = -1 on
    every edge: the edge label is q_i^-1 and q_j^-1 at once, and the labels
    of the connected tree are one q.  No vertex is labelled 1, so q != 1, and
    -1 is the largest exponent b <= 0 with q^b the edge label, since an edge
    label is never 1.  Vertex 0 is the branch vertex (_E_EDGES)."""
    if not 6 <= rank <= 8:
        return []
    edges = _E_EDGES[:rank - 1]
    return [
        GDD(modulus, (q,) * rank, dict.fromkeys(edges, q ** -1))
        for q in (UnityRoot(e, modulus) for e in range(1, modulus))
    ]
