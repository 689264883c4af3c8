"""Reference recognizers: the build-and-recognize classifiers and the
UnityRoot chain tests that ``gddkit.classify`` and ``gddkit.chains``
replaced.

Each classifier here builds every sub-diagram it asks about (``induced``,
``delete_vertex``) and recognizes it on its own numbering, and every chain
test multiplies ``UnityRoot`` labels.  The library reads vertex subsets of
one diagram in place, on integer exponents mod M; the tests compare the two.

The graph helpers (``components_of``, ``path_order``,
``non_cut_vertices``) walk adjacency lists by a plain search; the classifiers
here read graphs only through them.  ``gddkit.core`` reads neighbour masks,
and the tests hold its helpers to these.

The dense canonical-form kernel (``_refine``, ``least_form``,
``_least_order``) reads an n x n label matrix, 0 off edges; ``gddkit.core``
works from per-vertex label dicts, and the tests hold its forms and orders
to these.

``grow_by_full_test`` grows every connected diagram of finite Cartan type
leaf by leaf, testing each grown leaf with ``arithmetic_via_cartan``, and
``collect_bases`` merges that growth at every rank; ``gddkit.search`` adds
only the E_6-E_8 diagrams, built directly, at ranks 6-8.

``is_finite_cartan_by_blocks`` splits a matrix into its indecomposable
blocks and runs one elimination per block; ``gddkit.cartan`` runs one
elimination on the whole matrix.

The dense ``braiding_exponents`` reads the label pair of every ordered pair
of vertices and tests the generalized Cartan axioms afterwards;
``gddkit.cartan`` reads the edges only.

``affine_families`` reads the affine family table of one rank off the whole
catalogue up to that rank and keys it by least form (``matrix_least_form``);
``gddkit.cartan`` builds that rank's diagrams only, files them by vertex
signature and matches a matrix by a permutation test.

``is_quasi_affine`` builds every connected deletion and queries the oracle
on it; ``Oracle.is_quasi_affine`` reads each deletion as a vertex subset of
the diagram and builds only those that are not classical.
"""

from __future__ import annotations

from itertools import combinations

from gddkit.cartan import (
    _leading_minors,
    arithmetic_via_cartan,
    catalogue,
    is_generalized_cartan,
)
from gddkit.chains import ChainProfile
from gddkit.classify import HeadPattern, TypeTag, _some_square_root
from gddkit.core import GDD, least_form as kernel_least_form, with_modulus
from gddkit.roots import UnityRoot, discrete_log_nonpositive, minus_one
from gddkit.tables import generate_classical

# -- graphs as adjacency lists -------------------------------------------------


def components_of(adj, vertices=None):
    """The components of the graph given by adjacency lists, or of its
    subgraph induced on ``vertices``, each sorted, in order of least vertex:
    a plain breadth-first search."""
    if vertices is None:
        vertices = range(len(adj))
    inside = set(vertices)
    seen = set()
    out = []
    for s in sorted(inside):
        if s in seen:
            continue
        seen.add(s)
        comp, queue = [], [s]
        while queue:
            v = queue.pop(0)
            comp.append(v)
            for u in adj[v]:
                if u in inside and u not in seen:
                    seen.add(u)
                    queue.append(u)
        out.append(sorted(comp))
    return out


def path_order(adj, vertices):
    """The ``vertices`` in path order from the least end when the subgraph
    induced on them is a path (one vertex counts), else None: walk from the
    least vertex of degree one."""
    inside = set(vertices)
    if not inside:
        return None
    nbs = {v: [u for u in adj[v] if u in inside] for v in inside}
    if len(inside) == 1:
        return list(inside)
    ends = sorted(v for v in inside if len(nbs[v]) == 1)
    if any(len(nbs[v]) > 2 for v in inside) or len(ends) != 2:
        return None
    order = [ends[0]]
    while len(order) < len(inside):
        step = [u for u in nbs[order[-1]] if u not in order]
        if not step:
            return None
        order.append(step[0])
    return order


def non_cut_vertices(adj):
    n = len(adj)
    return [v for v in range(n)
            if len(components_of(adj, [u for u in range(n) if u != v])) == 1]


def chain_order(g):
    return path_order(g.adjacency(), range(g.rank))


def is_connected(g):
    return len(components_of(g.adjacency())) == 1


def is_cycle(g):
    adj = g.adjacency()
    return g.rank >= 3 and all(len(nbs) == 2 for nbs in adj) and is_connected(g)


# -- chain tests on UnityRoot labels -------------------------------------------


def _labels(g, order):
    diag = [g.diag[v] for v in order]
    ties = [g.edges[tuple(sorted((order[i - 1], order[i])))] for i in range(1, len(order))]
    return diag, ties


def chain_condition_failures(g, order=None):
    if order is None:
        order = chain_order(g)
    if order is None:
        raise ValueError("not a chain")
    n = len(order)
    if n == 1:
        return []
    d, t = _labels(g, order)
    bad = []
    if not ((d[0] * t[0]).is_one or d[0].is_minus_one):
        bad.append(0)
    for i in range(1, n - 1):
        branch_minus_one = d[i].is_minus_one and (t[i - 1] * t[i]).is_one
        branch_inverse = (d[i] * t[i - 1]).is_one and (d[i] * t[i]).is_one
        if not (branch_minus_one or branch_inverse):
            bad.append(i)
    if not ((d[-1] * t[-1]).is_one or d[-1].is_minus_one):
        bad.append(n - 1)
    return bad


def is_simple_chain(g, order=None):
    return not chain_condition_failures(g, order)


def oriented_profile(g, order):
    d, t = _labels(g, order)
    n = len(order)
    if n == 1:
        if d[0].is_minus_one:
            return ChainProfile(None, frozenset(), wildcard=True, end=order[0])
        return None if d[0].is_one else ChainProfile(d[0], frozenset(), end=order[0])
    q = d[-1] ** 2 * t[-1]
    if q.is_one:
        return None
    index = {i for i in range(2, n + 1) if t[i - 2] == q}
    virtual = (d[0] ** 2 * t[0]) ** -1
    if virtual == q:
        index.add(1)
    return ChainProfile(q, frozenset(index), end=order[-1])


# -- classifiers that build each sub-diagram -------------------------------------


def _neighbors(g, v):
    return sorted(g.adjacency()[v])


def _attached_profile(g, body_vertices, attach):
    body = g.induced(body_vertices)
    order = chain_order(body)
    if order is None or not is_simple_chain(body, order):
        return None
    pos = {v: i for i, v in enumerate(body_vertices)}
    a = pos[attach]
    if order[-1] != a:
        if order[0] != a:
            return None
        order = order[::-1]
    profile = oriented_profile(body, order)
    if profile is None:
        return None
    return profile, body_vertices[order[0]]


def head_patterns(g, adj=None):
    out = []
    m = g.modulus
    nbs = adj if adj is not None else g.adjacency()
    for e in range(g.rank):
        if len(nbs[e]) != 1:
            continue
        (b,) = nbs[e]
        d_e, t_eb = g.diag[e], g.edge_label(e, b)
        if (d_e * t_eb).is_one and not d_e.is_one:
            out.append(HeadPattern("T1", (e,), b, body_param_square=d_e))
        if not d_e.is_one and not d_e.is_minus_one and t_eb == d_e ** -2:
            out.append(HeadPattern("T2", (e,), b, body_param=d_e ** 2))
        if d_e.order() == 3 and t_eb == d_e * minus_one(m):
            out.append(HeadPattern("T4", (e,), b, body_param=d_e ** -1 * minus_one(m)))
    forks = []
    for c in range(g.rank):
        tips = [h for h in nbs[c] if len(nbs[h]) <= 2]
        for h1, h2 in combinations(tips, 2):
            if set(nbs[h1]) <= {c, h2} and set(nbs[h2]) <= {c, h1}:
                forks.append((min(h1, h2), max(h1, h2), c))
    for h1, h2, c in sorted(forks):
        link = g.edge_label(h1, h2)
        t1, t2 = g.edge_label(h1, c), g.edge_label(h2, c)
        if t1 != t2:
            continue
        p = t1 ** -1
        if link is None and g.diag[h1] == p and g.diag[h2] == p and not p.is_one:
            out.append(HeadPattern("T5", (h1, h2), c, body_param=p))
        if (
            link is not None
            and g.diag[h1].is_minus_one
            and g.diag[h2].is_minus_one
            and link == p ** 2
            and not (p ** 2).is_one
        ):
            out.append(HeadPattern("T6", (h1, h2), c, body_param=p))
    return out


def classical_type(g):
    adj = g.adjacency()
    if len(components_of(adj)) != 1:
        raise ValueError("classical recognition needs a connected diagram")
    tags = set()
    n = g.rank
    order = chain_order(g)
    if order is not None and is_simple_chain(g, order):
        for o in ([order, order[::-1]] if n > 1 else [order]):
            profile = oriented_profile(g, o)
            if profile is None:
                continue
            if profile.wildcard:
                q = minus_one(g.modulus)
                tags.add(TypeTag("T7", q, profile, (), o[0]))
            else:
                tags.add(TypeTag("T7", profile.q ** -1, profile, (), o[0]))
    for head in head_patterns(g, adj):
        if len(head.vertices) == 1 and order is None:
            continue
        body_vertices = [v for v in range(n) if v not in head.vertices]
        got = _attached_profile(g, body_vertices, head.attach)
        if got is None:
            continue
        profile, tail = got
        if not head.matches_body(profile):
            continue
        if head.kind == "T1":
            if profile.wildcard:
                q = _some_square_root(head.body_param_square)
            else:
                q = profile.q
        elif head.kind in ("T2", "T4"):
            q = g.diag[head.vertices[0]]
        else:
            q = head.body_param
        tags.add(TypeTag(head.kind, q, profile, head.vertices, tail))
    return tags


def classical_tails(g):
    return {t.tail for t in classical_type(g)}


def quasi_classical_tails(g):
    if not is_connected(g):
        raise ValueError("needs a connected diagram")
    if g.rank < 2:
        return set()
    tails = set()
    order = chain_order(g)
    if order is not None:
        for e, other in ((order[0], order[-1]), (order[-1], order[0])):
            rest = [v for v in range(g.rank) if v != e]
            sub = g.induced(rest)
            sub_tails = {rest[t] for t in classical_tails(sub)}
            if other in sub_tails:
                tails.add(other)
        return tails
    witness = {}
    for v in range(g.rank):
        rest = [u for u in range(g.rank) if u != v]
        sub = g.induced(rest)
        if not is_connected(sub):
            continue
        for t in classical_tails(sub):
            witness.setdefault(rest[t], set()).add(v)
    return {t for t, vs in witness.items() if len(vs) >= 2}


def is_semi_classical(g):
    if not is_connected(g):
        raise ValueError("needs a connected diagram")
    if g.rank < 2:
        return False
    order = chain_order(g)
    if order is not None:
        for e in (order[0], order[-1]):
            sub = g.delete_vertex(e)
            if chain_order(sub) is not None and is_simple_chain(sub):
                return True
        return False
    good = 0
    for v in range(g.rank):
        sub = g.delete_vertex(v)
        if is_connected(sub) and chain_order(sub) is not None and is_simple_chain(sub):
            good += 1
            if good == 2:
                return True
    return False


def is_simple_cycle(g):
    if not is_cycle(g):
        return False
    for v in range(g.rank):
        sub = g.delete_vertex(v)
        if not (chain_order(sub) is not None and is_simple_chain(sub)):
            return False
    return True


def is_bi_classical(g):
    if not is_connected(g):
        raise ValueError("needs a connected diagram")
    heads = head_patterns(g)
    for head1, head2 in combinations(heads, 2):
        if set(head1.vertices) & set(head2.vertices):
            continue
        drop = head1.vertices + head2.vertices
        body_vertices = [v for v in range(g.rank) if v not in drop]
        if not body_vertices:
            continue
        if head1.attach not in body_vertices or head2.attach not in body_vertices:
            continue
        body = g.induced(body_vertices)
        order = chain_order(body)
        if order is None or not is_simple_chain(body):
            continue
        pos = {v: i for i, v in enumerate(body_vertices)}
        if len(body_vertices) == 1:
            if head1.attach != head2.attach:
                continue
            prof1 = prof2 = oriented_profile(body, order)
        else:
            ends = (order[0], order[-1])
            if pos[head1.attach] not in ends or pos[head2.attach] not in ends:
                continue
            if pos[head1.attach] == pos[head2.attach]:
                continue
            o1 = order if order[-1] == pos[head1.attach] else order[::-1]
            prof1 = oriented_profile(body, o1)
            prof2 = oriented_profile(body, o1[::-1])
        if prof1 is None or prof2 is None:
            continue
        if head1.matches_body(prof1) and head2.matches_body(prof2):
            return True
    return False


def is_classical_plus_semiclassical(g, continual=None):
    if not is_connected(g):
        raise ValueError("needs a connected diagram")
    for head in head_patterns(g):
        drop = set(head.vertices)
        rest = [v for v in range(g.rank) if v not in drop]
        if len(rest) < 2 or head.attach not in rest:
            continue
        trunk = g.induced(rest)
        if not is_connected(trunk):
            continue
        pos = {v: i for i, v in enumerate(rest)}
        tau = pos[head.attach]
        if not is_semi_classical(trunk):
            continue
        if tau not in quasi_classical_tails(trunk):
            continue
        profile_ok = False
        for nb in _neighbors(trunk, tau):
            local = trunk.diag[tau] ** 2 * trunk.edge_label(tau, nb)
            fake = ChainProfile(local, frozenset())
            if not local.is_one and head.matches_body(fake):
                profile_ok = True
        if not profile_ok:
            continue
        if head.kind in ("T5", "T6"):
            if continual is None or not continual(trunk, tau, head.kind):
                continue
        return True
    return False


def continuation_patterns(g, v):
    nbs = _neighbors(g, v)
    if len(nbs) != 1:
        return []
    t_in = g.edge_label(v, nbs[0])
    d = g.diag[v]
    out = []
    if (d * t_in).is_one:
        out.append(d ** -1)
    if d.is_minus_one:
        out.append(t_in ** -1)
    dedup = []
    for t in out:
        if not t.is_one and t not in dedup:
            dedup.append(t)
    return dedup


def is_continual_extension(g):
    adj = g.adjacency()
    for w in range(g.rank):
        if len(adj[w]) != 1:
            continue
        (tau,) = adj[w]
        if len(adj[tau]) != 2:
            continue
        rest = [v for v in range(g.rank) if v != w]
        trunk = g.induced(rest)
        pos = {v: i for i, v in enumerate(rest)}
        t_out = g.edge_label(w, tau)
        if t_out not in continuation_patterns(trunk, pos[tau]):
            continue
        t5 = g.diag[w] == t_out ** -1
        t6 = g.diag[w].is_minus_one
        if not (t5 or t6):
            continue
        if pos[tau] in quasi_classical_tails(trunk):
            return True
    return False


def is_bi_semi_classical(g, all_deletions_arithmetic):
    if not is_connected(g):
        raise ValueError("needs a connected diagram")
    if classical_type(g):
        return False
    for t in range(g.rank):
        rest = [v for v in range(g.rank) if v != t]
        parts = components_of(g.induced(rest).adjacency())
        if len(parts) != 2:
            continue
        ok = True
        for part in parts:
            side_vertices = [rest[v] for v in sorted(part)] + [t]
            sub = g.induced(side_vertices)
            tau = len(side_vertices) - 1
            if not (
                sub.rank >= 2
                and is_semi_classical(sub)
                and tau in quasi_classical_tails(sub)
            ):
                ok = False
                break
        if ok and all_deletions_arithmetic(g):
            return True
    return False


# -- the dense canonical-form kernel ------------------------------------------


def _refine(colours: list, labels: list[list]) -> list[int]:
    """The stable refinement of the colouring: each vertex's colour is
    repeatedly extended by the sorted (label, colour) pairs of its
    neighbours (labels[v][u] != 0) until no cell splits, or every vertex
    has a cell of its own.  Returns colour indices 0, 1, ... in order of
    signature.  Labels and colours are coded by rank, and a pair as label
    code * n + colour, so a signature is a tuple of integers ordered as the
    pairs it codes."""
    n = len(colours)
    code = dict.fromkeys(x for row in labels for x in row)
    code.pop(0, None)
    for i, x in enumerate(sorted(code)):
        code[x] = i * n
    adj = [[(code[x], u) for u, x in enumerate(row) if x != 0 and u != v]
           for v, row in enumerate(labels)]
    first = {c: i for i, c in enumerate(sorted(set(colours)))}
    colour, count = [first[c] for c in colours], len(first)
    while True:
        sig = [(colour[v], *sorted([x + colour[u] for x, u in adj[v]])) for v in range(n)]
        distinct = sorted(set(sig))
        index = {s: i for i, s in enumerate(distinct)}
        colour = [index[s] for s in sig]
        if len(distinct) in (count, n):
            return colour
        count = len(distinct)


def least_form(colours: list, labels: list[list]) -> tuple[tuple, tuple[int, ...]]:
    """Canonical form of vertices v coloured colours[v], each ordered pair
    labelled labels[v][u] (0: no edge; labels[u][v] must follow from it),
    and the canonical vertex order o that gives it: the form is the colours
    colours[o_i], then the rows labels[o_i][o_j] (j > i), and o is the least
    order among those keeping each refined cell contiguous.  When refinement
    splits every cell, o is the cell order.  Otherwise o is chosen position
    by position from the first remaining part; choosing o_i fixes row i once
    each later part is sorted, and split, by label to o_i.  Only choices
    tying for the least row are followed, twins (swapping them changes no
    label) are tried once, and prefixes worse than the best form found are
    dropped; o is the path of the first best leaf.

    Two relabelled copies g and h have equal forms, and pairing their
    orders position by position (o_g[i] -> o_h[i]) is an isomorphism g -> h."""
    n = len(colours)
    # The cells are ordered by signature, and canonical key bytes depend on
    # that order.
    colour = _refine(colours, labels)
    count = max(colour) + 1
    cells: list[list[int]] = [[] for _ in range(count)]
    for v in range(n):
        cells[colour[v]].append(v)
    if count == n:
        order = tuple(c[0] for c in cells)
    else:
        order = _least_order(cells, colour, labels)
    form = [colours[v] for v in order]
    for i, v in enumerate(order):
        row = labels[v]
        form.extend([row[w] for w in order[i + 1:]])
    return tuple(form), order


def _least_order(cells: list[list[int]], colour: list[int], labels: list[list]) -> tuple:
    """The search of least_form over orders keeping the cells contiguous."""
    n = len(colour)

    def is_twin(v: int, w: int) -> bool:
        return colour[v] == colour[w] and labels[v][w] == labels[w][v] and all(
            labels[v][x] == labels[w][x] for x in range(n) if x != v and x != w
        )

    twin = [next(w for w in range(n) if w == v or is_twin(v, w)) for v in range(n)]
    best: list[list] | None = None
    best_order: tuple = ()

    def search(parts: list[list[int]], rows: list[list], path: tuple) -> None:
        nonlocal best, best_order
        if not parts:
            if best is None or rows < best:
                best, best_order = rows, path
            return
        head, tail = parts[0], parts[1:]
        least, chosen, tried = None, [], set()
        for v in head:
            if twin[v] not in tried:
                tried.add(twin[v])
                lab = labels[v]
                first = [u for u in head if u != v]
                row = sorted([lab[u] for u in first])
                for p in tail:
                    row += sorted([lab[u] for u in p])
                if least is None or row < least:
                    least, chosen = row, []
                if row == least:
                    chosen.append((v, first))
        rows = rows + [least]
        if best is not None and rows > best[: len(rows)]:
            return
        for v, first in chosen:
            lab = labels[v]
            split = []
            for p in [first] + tail:
                if len(p) == 1:
                    split.append(p)
                elif p:
                    groups: dict = {}
                    for u in p:
                        groups.setdefault(lab[u], []).append(u)
                    split.extend(groups[x] for x in sorted(groups))
            search(split, rows, path + (v,))

    search(cells, [], ())
    return best_order


# -- the dense braiding exponential matrix --------------------------------------


def braiding_exponents(g):
    """The braiding exponential matrix read over all n x n vertex pairs, or
    None when g is not of Cartan type."""
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


# -- the affine family table off the whole catalogue ------------------------------


def matrix_least_form(a):
    """The least form of a square matrix up to a simultaneous permutation of
    rows and columns: the canonical-form kernel (core.least_form) on the
    diagonal entries and, per vertex, the pairs (a_vu, a_uv) of its
    nonzero off-diagonal entries."""
    n = len(a)
    form, _ = kernel_least_form(
        [a[v][v] for v in range(n)],
        [{u: (a[v][u], a[u][v]) for u in range(n) if u != v and (a[v][u] or a[u][v])}
         for v in range(n)],
    )
    return form


def affine_families(rank):
    """The least form of each family's matrix at the given rank -> the first
    family in catalogue order with that matrix, read off the catalogue up
    to that rank at a parameter of order 30, the other ranks dropped.
    ``gddkit.cartan`` files the families by vertex signature and matches a
    matrix by a permutation test; looking up its least form here is the
    reference for that."""
    table = {}
    for family, g in catalogue(UnityRoot(2, 60), rank):
        if g.rank == rank:
            table.setdefault(matrix_least_form(braiding_exponents(g)), family)
    return table


# -- finite type block by block --------------------------------------------------


def submatrix(a, keep):
    """The principal submatrix of a on the vertices ``keep``, in that order."""
    return tuple(tuple(a[i][j] for j in keep) for i in keep)


def is_finite_cartan_by_blocks(a):
    """Finite type: every leading principal minor of every indecomposable
    block is positive, one elimination per block."""
    if not is_generalized_cartan(a):
        raise ValueError("not a generalized Cartan matrix")
    n = len(a)
    adj = [[u for u in range(n) if u != v and a[v][u] != 0] for v in range(n)]
    return all(
        all(minor > 0 for minor in _leading_minors(submatrix(a, block)))
        for block in components_of(adj)
    )


# -- bases with finite-Cartan growth at every rank -------------------------------


def grow_by_full_test(rank, modulus):
    """Every connected diagram of finite Cartan type of the given rank over
    mu_modulus, one per relabelling class, in key order.  They are grown one
    leaf at a time from rank 1: the diagram of a connected finite Cartan
    matrix is a tree, and deleting a leaf leaves a connected one of finite
    type.  Since a_ij * a_ji <= 3 in a finite matrix, the edge to the new
    leaf is q^-a for the label q of the vertex it joins, and d^-b for the
    label d of the leaf, with a and b in {1, 2, 3}; every such leaf is built
    and tested with arithmetic_via_cartan."""
    labels = [UnityRoot(e, modulus) for e in range(1, modulus)]
    powers = {
        d: [t for t in dict.fromkeys(d ** -a for a in (1, 2, 3)) if not t.is_one]
        for d in labels
    }
    level = {g.canonical_key(): g for g in (GDD(modulus, (d,)) for d in labels)}
    for _ in range(rank - 1):
        grown = {}
        for g in level.values():
            for v in range(g.rank):
                for t in powers[g.diag[v]]:
                    for d in labels:
                        if t in powers[d]:
                            h = g.add_vertex(d, [(v, t)])
                            if arithmetic_via_cartan(h):
                                grown.setdefault(h.canonical_key(), h)
        level = grown
    return [level[k] for k in sorted(level)]


def collect_bases(rank, modulus, db):
    """The classical families, the stored rows whose minimal modulus divides
    modulus, and the finite-Cartan diagrams, grown at every rank
    (grow_by_full_test): one representative per relabelling class, the
    first met, in key order."""
    seen = {}
    for g in generate_classical(rank, modulus):
        seen.setdefault(g.canonical_key(), g)
    for key, g in db.keyed(rank, modulus):
        if key not in seen:
            seen[key] = with_modulus(g, modulus)
    for g in grow_by_full_test(rank, modulus):
        seen.setdefault(g.canonical_key(), g)
    return [seen[k] for k in sorted(seen)]


# -- quasi-affinity by building every deletion ----------------------------------


def is_quasi_affine(oracle, g):
    """Connected, not arithmetic, every connected vertex deletion arithmetic,
    each deletion built and queried on its own through the oracle's
    ``_connected``, in vertex order, stopping at the first that is not."""
    adj = g.adjacency()
    if len(components_of(adj)) != 1:
        raise ValueError("quasi-affine is defined for connected diagrams")
    if g.rank < 2:
        return False
    if oracle._connected(g).arithmetic:
        return False
    return all(oracle._connected(g.delete_vertex(v)).arithmetic
               for v in non_cut_vertices(adj))
