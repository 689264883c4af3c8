"""Braiding exponential matrices, generalized Cartan matrix recognition, and
the catalogue of affine diagrams.

For a diagram of Cartan type, a_ij is the maximal b <= 0 with the edge label
on {i, j} equal to q_ii^b (0 off edges), and a_ii = 2.  The diagram is
arithmetic exactly when that matrix is a finite-type Cartan matrix, and it is
called affine when the matrix is an affine generalized Cartan matrix.
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


def braiding_exponents(g: GDD) -> Matrix | None:
    """The braiding exponential matrix, or None when g is not of Cartan type
    (some label pair has no nonpositive exponent solution)."""
    if g.has_degenerate_diag():
        raise ValueError("vertex label 1 admits no exponent matrix")
    n = g.rank
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(2)
                continue
            lab = g.edge_label(i, j)
            if lab is None:
                row.append(0)
                continue
            b = discrete_log_nonpositive(g.diag[i], lab)
            if b is None:
                return None
            row.append(b)
        rows.append(tuple(row))
    a = tuple(rows)
    return a if is_generalized_cartan(a) else None


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


def _det(a: Matrix) -> int:
    """Exact determinant by Bareiss's fraction-free integer elimination, with
    row swaps past zero pivots."""
    m = [list(row) for row in a]
    n, sign, prev = len(m), 1, 1
    for k in range(n):
        if m[k][k] == 0:
            r = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if r is None:
                return 0
            m[k], m[r] = m[r], m[k]
            sign = -sign
        _bareiss_step(m, k, prev)
        prev = m[k][k]
    return sign * prev


def _submatrix(a: Matrix, keep: list[int]) -> Matrix:
    return tuple(tuple(a[i][j] for j in keep) for i in keep)


def _blocks(a: Matrix) -> list[list[int]]:
    n = len(a)
    return components_of(
        [[u for u in range(n) if u != v and a[v][u] != 0] for v in range(n)]
    )


def is_indecomposable(a: Matrix) -> bool:
    return len(_blocks(a)) == 1


def is_finite_cartan(a: Matrix) -> bool:
    """Finite type: every leading principal minor of every indecomposable
    block is positive (the M-matrix criterion for matrices with nonpositive
    off-diagonal entries).  One elimination per block yields its minors and
    stops at the first that is not positive."""
    if not is_generalized_cartan(a):
        raise ValueError("not a generalized Cartan matrix")
    return all(
        all(minor > 0 for minor in _leading_minors(_submatrix(a, block)))
        for block in _blocks(a)
    )


def is_affine_cartan(a: Matrix) -> bool:
    """Affine type: indecomposable, determinant zero, and every proper
    principal sub-block of finite type."""
    if not is_generalized_cartan(a):
        raise ValueError("not a generalized Cartan matrix")
    if not is_indecomposable(a):
        raise ValueError("affine recognition needs an indecomposable matrix")
    n = len(a)
    if _det(a) != 0:
        return False
    return all(
        is_finite_cartan(_submatrix(a, [j for j in range(n) if j != i]))
        for i in range(n)
    )


def same_up_to_permutation(a: Matrix, b: Matrix) -> bool:
    """True when a simultaneous row/column permutation turns a into b."""
    return len(a) == len(b) and _least_form(a) == _least_form(b)


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


FAMILY_NAMES = [
    "A1_1", "A1_N", "B1_N", "C1_N", "D1_N", "E1_6", "E1_7", "E1_8",
    "F1_4", "G1_2", "A2_2", "A2_2N", "A2_2N-1", "D2_N+1", "E2_6", "D3_4",
]

DISPLAY = {
    "A1_1": "A^(1)_1", "A1_N": "A^(1)_N", "B1_N": "B^(1)_N", "C1_N": "C^(1)_N",
    "D1_N": "D^(1)_N", "E1_6": "E^(1)_6", "E1_7": "E^(1)_7", "E1_8": "E^(1)_8",
    "F1_4": "F^(1)_4", "G1_2": "G^(1)_2", "A2_2": "A^(2)_2", "A2_2N": "A^(2)_2N",
    "A2_2N-1": "A^(2)_2N-1", "D2_N+1": "D^(2)_N+1", "E2_6": "E^(2)_6",
    "D3_4": "D^(3)_4",
}

# Size bounds: (minimal N, rank as a function of N or fixed rank).
_SIZE_RULES = {
    "A1_1": (None, 2), "A1_N": (2, lambda N: N + 1), "B1_N": (3, lambda N: N + 1),
    "C1_N": (2, lambda N: N + 1), "D1_N": (4, lambda N: N + 1),
    "E1_6": (None, 7), "E1_7": (None, 8), "E1_8": (None, 9),
    "F1_4": (None, 5), "G1_2": (None, 3), "A2_2": (None, 2),
    "A2_2N": (2, lambda N: N + 1), "A2_2N-1": (3, lambda N: N + 1),
    "D2_N+1": (2, lambda N: N + 1), "E2_6": (None, 5), "D3_4": (None, 3),
}


def admissible(name: str, q: UnityRoot) -> bool:
    """Parameter constraint of the family, as stated in the catalogue."""
    o = q.order()
    if name in ("A1_1", "B1_N", "C1_N", "A2_2N-1", "D2_N+1", "E2_6", "F1_4"):
        return o > 2
    if name in ("A1_N", "D1_N", "E1_6", "E1_7", "E1_8"):
        return o > 1
    if name in ("G1_2", "D3_4"):
        return o > 3
    if name in ("A2_2", "A2_2N"):
        return o > 4
    raise ValueError(f"unknown family {name}")


def _path(q_powers: list[int], edge_powers: list[int], q: UnityRoot) -> GDD:
    diag = tuple(q ** k for k in q_powers)
    edges = {(i, i + 1): q ** e for i, e in enumerate(edge_powers)}
    return GDD(q.modulus, diag, edges)


def build_affine_gdd(family: AffineFamily, q: UnityRoot) -> GDD:
    """The catalogue diagram of the family at parameter q."""
    name, N = family.name, family.size
    if not admissible(name, q):
        raise ValueError(f"parameter of order {q.order()} not admissible for {name}")
    lo, _rank = _SIZE_RULES[name]
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


def _reference_matrix(name: str, rank: int) -> Matrix | None:
    """The family's generalized Cartan matrix at the given rank, built from a
    high-order parameter so no exponent collapses."""
    lo, r = _SIZE_RULES[name]
    if lo is None:
        if r != rank:
            return None
        fam = AffineFamily(name, None)
    else:
        # rank = N + 1 for every sized family.
        N = rank - 1
        if N < lo:
            return None
        fam = AffineFamily(name, N)
    q = UnityRoot(2, 60)  # order 30: no exponent collapses at any catalogue rank
    g = build_affine_gdd(fam, q)
    a = braiding_exponents(g)
    assert a is not None
    return a


def catalogue(q: UnityRoot, max_rank: int = 9) -> list[tuple[AffineFamily, GDD]]:
    """Every catalogue family admissible at q, instantiated at ranks up to
    max_rank (sized families contribute one instance per size)."""
    out = []
    for name in FAMILY_NAMES:
        if not admissible(name, q):
            continue
        lo, r = _SIZE_RULES[name]
        if lo is None:
            if r <= max_rank:
                fam = AffineFamily(name, None)
                out.append((fam, build_affine_gdd(fam, q)))
        else:
            N = lo
            while N + 1 <= max_rank:
                fam = AffineFamily(name, N)
                out.append((fam, build_affine_gdd(fam, q)))
                N += 1
    return out


@cache
def _affine_families(rank: int) -> dict[tuple, AffineFamily]:
    """The least form of each family's reference matrix at the given rank ->
    the first family in FAMILY_NAMES order with that matrix."""
    table: dict[tuple, AffineFamily] = {}
    for name in FAMILY_NAMES:
        ref = _reference_matrix(name, rank)
        if ref is not None:
            lo, _ = _SIZE_RULES[name]
            family = AffineFamily(name, None if lo is None else rank - 1)
            table.setdefault(_least_form(ref), family)
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
    if a is None or not is_indecomposable(a) or not is_affine_cartan(a):
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


def finite_cartan_diagrams(rank: int, modulus: int) -> list[GDD]:
    """Every connected diagram of finite Cartan type of the given rank over
    mu_modulus, one per relabelling class, in key order.

    They are grown one leaf at a time from rank 1: the diagram of a connected
    finite Cartan matrix is a tree, and deleting a leaf leaves a connected
    one of finite type.  Since a_ij * a_ji <= 3 in a finite matrix, the edge
    to the new leaf is q^-a for the label q of the vertex it joins, and d^-b
    for the label d of the leaf, with a and b in {1, 2, 3}.

    Each leaf is decided before it is built.  For h = g + x with x joined to
    v, order x last: the leading minors of A_g are positive, so by the
    criterion of is_finite_cartan h is of finite type exactly when
    det A_h = 2 det A_g - a_vx a_xv det A_{g-v} > 0, where a_vx and a_xv are
    the exponents of the new edge label at q and at d."""
    labels = [UnityRoot(e, modulus) for e in range(1, modulus)]
    powers = {
        d: [t for t in dict.fromkeys(d ** -a for a in (1, 2, 3)) if not t.is_one]
        for d in labels
    }
    level = {g.canonical_key(): g for g in (GDD(modulus, (d,)) for d in labels)}
    for _ in range(rank - 1):
        grown: dict[bytes, GDD] = {}
        for g in level.values():
            a = braiding_exponents(g)
            det_g = _det(a)
            for v in range(g.rank):
                q = g.diag[v]
                det_rest = _det(_submatrix(a, [u for u in range(g.rank) if u != v]))
                for t in powers[q]:
                    a_vx = discrete_log_nonpositive(q, t)
                    for d in labels:
                        if t not in powers[d]:
                            continue
                        a_xv = discrete_log_nonpositive(d, t)
                        if 2 * det_g > a_vx * a_xv * det_rest:
                            h = g.add_vertex(d, [(v, t)])
                            grown.setdefault(h.canonical_key(), h)
        level = grown
    return [level[k] for k in sorted(level)]
