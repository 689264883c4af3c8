"""Written-out finite Cartan matrices and every small generalized Cartan
matrix, the references for the finite-type test in test_cartan and
test_acceptance, and the permutation test that compares matrices with
them."""

from itertools import product

from reference import matrix_least_form


def same_up_to_permutation(a, b):
    """True when a simultaneous row/column permutation turns a into b."""
    return len(a) == len(b) and matrix_least_form(a) == matrix_least_form(b)


def finite_reference_list(n):
    """Indecomposable finite Cartan matrices of rank n, from the standard
    classification (written out, not computed)."""
    if n == 1:
        return {((2,),)}
    if n == 2:
        return {
            ((2, -1), (-1, 2)),            # A_2
            ((2, -2), (-1, 2)), ((2, -1), (-2, 2)),  # B_2 / C_2
            ((2, -3), (-1, 2)), ((2, -1), (-3, 2)),  # G_2
        }
    if n == 3:
        out = set()
        # A_3, B_3, C_3 as chains with one possibly-asymmetric end
        for a, b in [(-1, -1), (-2, -1), (-1, -2)]:
            out.add(((2, -1, 0), (-1, 2, a), (0, b, 2)))
            out.add(((2, a, 0), (b, 2, -1), (0, -1, 2)))
        out.add(((2, -1, 0), (-1, 2, -1), (0, -1, 2)))
        return out
    raise ValueError(n)


def all_gcms(n, lo=-4):
    """Every generalized Cartan matrix of rank n with entries >= lo."""
    offs = list(range(lo, 1))
    pairs = [(a, b) for a in offs for b in offs if (a == 0) == (b == 0)]
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for combo in product(pairs, repeat=len(slots)):
        m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for ((i, j), (a, b)) in zip(slots, combo):
            m[i][j], m[j][i] = a, b
        yield tuple(tuple(row) for row in m)
