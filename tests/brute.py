"""Independent brute-force helpers for cross-checking the library.

Everything here re-derives results from the defining conditions with numpy
masks and plain permutation search, sharing no code path with the package
modules it checks.
"""

from itertools import permutations
from math import gcd, lcm

import numpy as np


def bf_canon(n, modulus, diag, edges):
    """Canonical form by plain minimum over all vertex permutations.

    diag: tuple of exponents; edges: dict {(i, j): exponent} with i < j.
    """
    best = None
    for perm in permutations(range(n)):
        d = tuple(diag[perm[i]] for i in range(n))
        e = tuple(
            sorted(
                (min(perm.index(i), perm.index(j)), max(perm.index(i), perm.index(j)), x)
                for (i, j), x in edges.items()
            )
        )
        cand = (d, e)
        if best is None or cand < best:
            best = cand
    return (n, modulus) + best


def gdd_to_tuple(g):
    """(rank, m, vertex exponents, {edge: exponent}) of g written in mu_m,
    m the least even modulus holding every label, read from the exponents
    alone: z^e in mu_M has order M / gcd(e, M), and is z^(e/k) in mu_m for
    k = M/m."""
    m = 2
    for x in g.diag + tuple(g.edges.values()):
        m = lcm(m, g.modulus // gcd(x.exponent, g.modulus))
    k = g.modulus // m
    return (
        g.rank,
        m,
        tuple(d.exponent // k for d in g.diag),
        {e: lab.exponent // k for e, lab in g.edges.items()},
    )


def bf_canon_gdd_raw(g):
    """Brute canonical form at g's own modulus (no normalization)."""
    return bf_canon(
        g.rank,
        g.modulus,
        tuple(d.exponent for d in g.diag),
        {e: lab.exponent for e, lab in g.edges.items()},
    )


def _refined_cells(n, diag, edges):
    """Stable label-refinement partition of the vertices of the diagram
    with vertex exponents diag and edge exponents edges, cells in the order
    of their final signatures."""
    adj = [[] for _ in range(n)]
    for (u, v), x in edges.items():
        adj[u].append((x, v))
        adj[v].append((x, u))
    color = [(diag[v],) for v in range(n)]
    ncolors = len(set(color))
    while True:
        sig = [
            (color[v], tuple(sorted((e, color[u]) for e, u in adj[v])))
            for v in range(n)
        ]
        distinct = sorted(set(sig))
        if len(distinct) == ncolors:
            cells = {}
            for v in range(n):
                cells.setdefault(sig[v], []).append(v)
            return [cells[k] for k in sorted(cells)]
        index = {s: (i,) for i, s in enumerate(distinct)}
        color = [index[s] for s in sig]
        ncolors = len(distinct)


def _row_major(n, diag, edges, order):
    """Vertex exponents, then the upper-triangle edge exponents row by row
    (0 off edges), in the given vertex order."""
    pos = {v: i for i, v in enumerate(order)}
    adj = [0] * (n * (n - 1) // 2)
    for (u, v), x in edges.items():
        i, j = sorted((pos[u], pos[v]))
        adj[i * (2 * n - i - 1) // 2 + (j - i - 1)] = x
    return tuple(diag[v] for v in order) + tuple(adj)


def _cell_orders(cells):
    """All vertex orders that keep each cell contiguous."""
    if not cells:
        yield []
        return
    for perm in permutations(cells[0]):
        for rest in _cell_orders(cells[1:]):
            yield list(perm) + rest


def cell_order_key(g):
    """The bytes of GDD.canonical_key by exhaustive search: the least
    row-major encoding of g in mu_m, m the least even modulus holding its
    labels (gdd_to_tuple), over every order that keeps the refined cells
    contiguous."""
    n, m, diag, edges = gdd_to_tuple(g)
    form = min(_row_major(n, diag, edges, order)
               for order in _cell_orders(_refined_cells(n, diag, edges)))
    payload = (n, m) + form
    return b"k" + b",".join(str(x).encode() for x in payload)


def bf_same_up_to_permutation(a, b):
    """Simultaneous row/column permutation search over all n! orders."""
    n = len(a)
    if len(b) != n:
        return False
    return any(
        all(a[p[i]][p[j]] == b[i][j] for i in range(n) for j in range(n))
        for p in permutations(range(n))
    )


def _grids(m, *sizes):
    """Cartesian product of nonzero exponent ranges as int arrays."""
    axes = [np.arange(1, m, dtype=np.int64) for _ in range(sum(sizes))]
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = [a.reshape(-1) for a in mesh]
    out = []
    at = 0
    for s in sizes:
        out.append(np.stack(flat[at:at + s], axis=1))
        at += s
    return out


def _simple_chain_mask(d, t, m):
    """Vectorized simple-chain conditions for chains of any length.

    d: (N, k) diag exponents; t: (N, k-1) edge exponents."""
    half = m // 2
    ok = np.ones(len(d), dtype=bool)
    k = d.shape[1]
    if k == 1:
        return ok
    ok &= ((d[:, 0] + t[:, 0]) % m == 0) | (d[:, 0] == half)
    ok &= ((d[:, -1] + t[:, -1]) % m == 0) | (d[:, -1] == half)
    for i in range(1, k - 1):
        branch_minus_one = (d[:, i] == half) & ((t[:, i - 1] + t[:, i]) % m == 0)
        branch_inverse = ((d[:, i] + t[:, i - 1]) % m == 0) & ((d[:, i] + t[:, i]) % m == 0)
        ok &= branch_minus_one | branch_inverse
    return ok


def brute_classical_keys(rank, m):
    """Canonical forms of every classical-type diagram of the given rank over
    mu_m, enumerated from the seven type shapes with numpy masks."""
    keys = set()
    half = m // 2

    def add_path(d_rows, t_rows):
        for d, t in zip(d_rows, t_rows):
            edges = {(i, i + 1): int(t[i]) for i in range(len(t))}
            keys.add(bf_canon(rank, m, tuple(int(x) for x in d), edges))

    # chains of full rank
    d, t = _grids(m, rank, rank - 1)
    body_d, body_t = d[:, :-1], t[:, :-1]
    last_d, last_t = d[:, -1], t[:, -1]

    # Type 7: the whole chain is simple
    mask = _simple_chain_mask(d, t, m)
    add_path(d[mask], t[mask])

    # body profile parameter seen from the attachment end
    body_simple = _simple_chain_mask(body_d, body_t, m)
    p_body = (2 * body_d[:, -1] + body_t[:, -1]) % m if rank >= 3 else None

    if rank >= 3:
        # Type 1: end = p^2, edge = p^-2, body parameter p not in {1, -1}
        t1 = (
            body_simple
            & (p_body != 0)
            & (p_body != half)
            & (last_d == (2 * p_body) % m)
            & (last_t == (-2 * p_body) % m)
        )
        add_path(d[t1], t[t1])
        # Type 1 with a rank-1 body labelled -1 is handled по the rank-2 case
        # below (only rank 2 has a rank-1 body).

        # Type 2: end p, edge p^-2, body parameter p^2
        p = last_d
        t2 = (
            body_simple
            & (p != 0)
            & (p != half)
            & (last_t == (-2 * p) % m)
            & (p_body == (2 * p) % m)
        )
        add_path(d[t2], t[t2])

        # Type 4: end p of order 3, edge -p, body parameter -p^-1
        ord3 = np.array([x != 0 and (3 * x) % m == 0 for x in range(m)])
        t4 = (
            body_simple
            & ord3[p]
            & (last_t == (half + p) % m)
            & (p_body == (half - p) % m)
        )
        add_path(d[t4], t[t4])

        # wildcard bodies: a single -1 vertex takes any parameter, so the
        # rank-2 head pattern glues onto chains ending in -1 only via the
        # full backward conditions, which the masks above already encode
        # through p_body; nothing extra at rank >= 3.

    if rank == 2:
        for pe in range(1, m):
            # type 1 with rank-1 body -1: any end d != 1 with edge d^-1
            keys.add(bf_canon(2, m, (half, pe), {(0, 1): (-pe) % m}))
            if pe != half:
                # type 2: body -1 or body p^2
                keys.add(bf_canon(2, m, (half, pe), {(0, 1): (-2 * pe) % m}))
                keys.add(bf_canon(2, m, ((2 * pe) % m, pe), {(0, 1): (-2 * pe) % m}))
                # type 1 with body p
                keys.add(bf_canon(2, m, (pe, (2 * pe) % m), {(0, 1): (-2 * pe) % m}))
            if (3 * pe) % m == 0:
                keys.add(bf_canon(2, m, (half, pe), {(0, 1): (half + pe) % m}))
                keys.add(
                    bf_canon(2, m, ((half - pe) % m, pe), {(0, 1): (half + pe) % m})
                )

    if rank >= 3:
        # fork shapes: body chain of rank-2 plus two ends on its last vertex
        if rank == 3:
            bd = np.arange(1, m, dtype=np.int64).reshape(-1, 1)
            bt = np.zeros((len(bd), 0), dtype=np.int64)
        else:
            bd, bt = _grids(m, rank - 2, rank - 3)
        simple = _simple_chain_mask(bd, bt, m) if bd.shape[1] > 1 else np.ones(len(bd), bool)
        if bd.shape[1] == 1:
            # rank-1 body: parameter free when labelled -1, else the label
            p_candidates = []
            for i in range(len(bd)):
                if bd[i, 0] == half:
                    p_candidates.append(list(range(1, m)))
                else:
                    p_candidates.append([int(bd[i, 0])])
        else:
            pb = (2 * bd[:, -1] + bt[:, -1]) % m
            p_candidates = [[int(x)] for x in pb]
        for i in range(len(bd)):
            if not simple[i]:
                continue
            base_d = tuple(int(x) for x in bd[i])
            base_t = {(j, j + 1): int(bt[i, j]) for j in range(bd.shape[1] - 1)}
            c = bd.shape[1] - 1
            for pe in p_candidates[i]:
                edge = (-pe) % m
                if edge == 0:
                    continue
                # Type 5
                d5 = base_d + (pe, pe)
                e5 = dict(base_t)
                e5[(c, bd.shape[1])] = edge
                e5[(c, bd.shape[1] + 1)] = edge
                keys.add(bf_canon(rank, m, d5, e5))
                # Type 6
                link = (2 * pe) % m
                if link != 0:
                    d6 = base_d + (half, half)
                    e6 = dict(e5)
                    e6[(bd.shape[1], bd.shape[1] + 1)] = link
                    keys.add(bf_canon(rank, m, d6, e6))
    # drop anything with a degenerate vertex label
    return {k for k in keys if 0 not in k[2]}


# ---- independent quasi-affine evaluation (no package code) -------------------


def _simple_scalar(d, t, m):
    half = m // 2
    k = len(d)
    if k == 1:
        return True
    if not ((d[0] + t[0]) % m == 0 or d[0] == half):
        return False
    if not ((d[-1] + t[-1]) % m == 0 or d[-1] == half):
        return False
    for i in range(1, k - 1):
        branch_minus_one = d[i] == half and (t[i - 1] + t[i]) % m == 0
        branch_inverse = (d[i] + t[i - 1]) % m == 0 and (d[i] + t[i]) % m == 0
        if not (branch_minus_one or branch_inverse):
            return False
    return True


def _chain_order_scalar(n, edges):
    adj = {v: [] for v in range(n)}
    for (i, j) in edges:
        adj[i].append(j)
        adj[j].append(i)
    if n == 1:
        return [0]
    ends = [v for v in range(n) if len(adj[v]) == 1]
    if len(ends) != 2 or any(len(a) > 2 for a in adj.values()):
        return None
    order, prev = [ends[0]], -1
    while len(order) < n:
        nxt = [x for x in adj[order[-1]] if x != prev]
        if len(nxt) != 1:
            return None
        prev = order[-1]
        order.append(nxt[0])
    # connectivity: a path ordering covering n vertices implies it
    return order if len(set(order)) == n else None


def _connected_scalar(n, edges):
    seen = {0}
    stack = [0]
    adj = {v: [] for v in range(n)}
    for (i, j) in edges:
        adj[i].append(j)
        adj[j].append(i)
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def _body_param_options(bd, bt, m):
    """Oriented fixed-parameter options of a simple chain read at its last
    vertex; a rank-1 body labelled -1 accepts any parameter."""
    half = m // 2
    if len(bd) == 1:
        return list(range(1, m)) if bd[0] == half else [bd[0]]
    return [(2 * bd[-1] + bt[-1]) % m]


def indep_is_classical(n, m, diag, edges):
    """Direct decomposition test against the seven type shapes."""
    half = m // 2

    def elabel(i, j):
        return edges.get((min(i, j), max(i, j)))

    order = _chain_order_scalar(n, edges)
    if order is not None:
        d = [diag[v] for v in order]
        t = [elabel(order[i], order[i + 1]) for i in range(n - 1)]
        if _simple_scalar(d, t, m):
            return True  # type 7
        if n >= 2:
            for dd, tt in ((d, t), (d[::-1], t[::-1])):
                de, te = dd[-1], tt[-1]
                bd, bt = dd[:-1], tt[:-1]
                if not _simple_scalar(bd, bt, m):
                    continue
                opts = _body_param_options(bd, bt, m)
                # type 1: end p^2 with edge p^-2
                for p in opts:
                    if p not in (0, half) and de == (2 * p) % m and te == (-2 * p) % m:
                        return True
                # type 2: end p with edge p^-2, body parameter p^2
                if de not in (0, half) and te == (-2 * de) % m and (2 * de) % m in opts:
                    return True
                # type 4: end p of order 3 with edge -p, body parameter -p^-1
                if de != 0 and (3 * de) % m == 0 and te == (half + de) % m and (half - de) % m in opts:
                    return True
    if n >= 3:
        for h1 in range(n):
            for h2 in range(h1 + 1, n):
                nb1 = {j if i == h1 else i for (i, j) in edges if h1 in (i, j)} - {h2}
                nb2 = {j if i == h2 else i for (i, j) in edges if h2 in (i, j)} - {h1}
                if len(nb1) != 1 or nb1 != nb2:
                    continue
                (c,) = nb1
                t1, t2 = elabel(h1, c), elabel(h2, c)
                if t1 is None or t1 != t2:
                    continue
                link = elabel(h1, h2)
                p = (-t1) % m
                rest = [v for v in range(n) if v not in (h1, h2)]
                sub_edges = {
                    (min(rest.index(i), rest.index(j)), max(rest.index(i), rest.index(j))): x
                    for (i, j), x in edges.items()
                    if i in rest and j in rest
                }
                orderb = _chain_order_scalar(len(rest), sub_edges)
                if orderb is None:
                    continue
                ci = rest.index(c)
                if orderb[-1] != ci:
                    if orderb[0] != ci:
                        continue
                    orderb = orderb[::-1]
                dd = [diag[rest[v]] for v in orderb]
                tt = [
                    sub_edges[(min(orderb[i], orderb[i + 1]), max(orderb[i], orderb[i + 1]))]
                    for i in range(len(orderb) - 1)
                ]
                if not _simple_scalar(dd, tt, m):
                    continue
                if p not in _body_param_options(dd, tt, m):
                    continue
                if link is None and diag[h1] == p and diag[h2] == p and p != 0:
                    return True  # type 5
                if (
                    link is not None
                    and diag[h1] == half
                    and diag[h2] == half
                    and link == (2 * p) % m
                    and (2 * p) % m != 0
                ):
                    return True  # type 6
    return False


def _dlog_nonpos(m, base_e, target_e):
    if target_e == 0:
        return 0
    order = m // gcd(base_e, m)
    for b in range(0, -order - 1, -1):
        if (b * base_e) % m == target_e:
            return b
    return None


def _det_int(rows):
    from fractions import Fraction

    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for k in range(c, n):
                a[r][k] -= f * a[c][k]
    return int(det)


def indep_cartan_finite(n, m, diag, edges):
    """None when not of Cartan type, else the finite-type verdict."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(2)
                continue
            lab = edges.get((min(i, j), max(i, j)))
            if lab is None:
                row.append(0)
                continue
            b = _dlog_nonpos(m, diag[i], lab)
            if b is None:
                return None
            row.append(b)
        rows.append(row)
    for i in range(n):
        for j in range(n):
            if i != j and (rows[i][j] == 0) != (rows[j][i] == 0):
                return None
    return indep_finite_cartan_matrix(rows)


def indep_finite_cartan_matrix(rows):
    """Finite type of a generalized Cartan matrix: every leading principal
    minor of each block (vertices in ascending order) is positive, each minor
    a separate determinant."""
    n = len(rows)
    blocks = []
    seen = set()
    for s in range(n):
        if s in seen:
            continue
        comp, stack = [], [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in range(n):
                if u not in seen and rows[v][u] != 0:
                    seen.add(u)
                    stack.append(u)
        blocks.append(sorted(comp))
    for block in blocks:
        for k in range(1, len(block) + 1):
            keep = block[:k]
            sub = [[rows[i][j] for j in keep] for i in keep]
            if _det_int(sub) <= 0:
                return False
    return True


def independent_quasi_affine_extensions(base_diag, base_edges, m, arith5_keys, arith6_keys):
    """Brute-force loop over all one-vertex extensions of a rank-5 base.

    arith5_keys: bf_canon forms of every connected arithmetic rank-5 diagram
    over mu_m. Returns the bf_canon set of the quasi-affine extensions."""
    from itertools import combinations, product

    n = 5
    # Per deleted vertex u of the extension: the kept vertices and their
    # positions in the deletion.
    rests = []
    for u in range(n + 1):
        rest = [x for x in range(n + 1) if x != u]
        rests.append((rest, {x: i for i, x in enumerate(rest)}))
    # Deletion (diag, sorted edges) -> its bf_canon form; many extensions
    # share a deletion.
    canon = {}
    found = set()
    for diag_w in range(1, m):
        for k in range(1, n + 1):
            for subset in combinations(range(n), k):
                for labs in product(range(1, m), repeat=k):
                    diag = tuple(base_diag) + (diag_w,)
                    edges = dict(base_edges)
                    for v, lab in zip(subset, labs):
                        edges[(v, n)] = lab
                    ok = True
                    for rest, pos in rests:
                        sub_edges = {
                            (pos[i], pos[j]): x
                            for (i, j), x in edges.items()
                            if i in pos and j in pos
                        }
                        if not _connected_scalar(5, sub_edges):
                            continue
                        sub_diag = tuple(diag[x] for x in rest)
                        exact = (sub_diag, tuple(sorted(sub_edges.items())))
                        if exact not in canon:
                            canon[exact] = bf_canon(5, m, sub_diag, sub_edges)
                        if canon[exact] not in arith5_keys:
                            ok = False
                            break
                    if not ok:
                        continue
                    # the candidate itself must not be arithmetic
                    if indep_is_classical(6, m, diag, edges):
                        continue
                    if indep_cartan_finite(6, m, diag, edges) is True:
                        continue
                    if bf_canon(6, m, diag, edges) in arith6_keys:
                        continue
                    found.add(bf_canon(6, m, diag, edges))
    return found
