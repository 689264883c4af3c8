"""Labelled-diagram data structure and canonical forms.

A diagram has a vertex label (a root of unity, usually written q_ii) on each
of its n vertices and a symmetric edge label != 1 on each edge.  Vertices are
0-indexed internally; the text format and renderings are 1-indexed.

Two diagrams related by a vertex relabelling are regarded as the same, and
so are two that write the same labels in different groups mu_M (z^e in
mu_M is z^(ek) in mu_Mk); the canonical key realizes that identification.
It encodes the diagram at the least even modulus m that holds its labels,
in the least vertex order that keeps the refined cells contiguous.
least_form works from per-vertex label dicts built from the edge list: it
refines the vertices into cells, takes the cell order when every cell of
two or more vertices is a class of twins (vertices that see everything
alike), finds the order by a pruned search, position by position,
otherwise, and writes the form from each vertex's position; cartan uses
the same kernel, and isomorphisms the same refinement.  least_form returns
that canonical order with the form, and a diagram keeps both: two diagrams
with equal keys and the same modulus are carried onto each other by pairing
their canonical orders position by position, with no isomorphism search.
"""

from __future__ import annotations

from math import gcd

from .roots import Parameter, UnityRoot

Edge = tuple[int, int]


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class GDD:
    """Immutable labelled diagram over mu_M.

    diag[i] is the label of vertex i; edges maps (u, v) with u < v to the
    edge label, which is never 1.  Equality and hashing read modulus, diag
    and edges only.
    """

    __slots__ = ("modulus", "diag", "edges", "_canonical")

    def __init__(
        self,
        modulus: int,
        diag: tuple[UnityRoot, ...],
        edges: dict[Edge, UnityRoot] | None = None,
    ):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "edges", {} if edges is None else edges)
        self.__post_init__()

    def __post_init__(self):
        """Validate the labels and store the edges keyed (u, v) with u < v.
        A method of its own, which perfbench/tracer.py wraps to count
        builds."""
        n = len(self.diag)
        if n < 1:
            raise ValueError("a diagram needs at least one vertex")
        for d in self.diag:
            if d.modulus != self.modulus:
                raise ValueError("vertex label has wrong modulus")
        fixed = {}
        for (u, v), lab in self.edges.items():
            if not (0 <= u < n and 0 <= v < n and u != v):
                raise ValueError(f"bad edge ({u}, {v})")
            if lab.modulus != self.modulus:
                raise ValueError("edge label has wrong modulus")
            if lab.is_one:
                raise ValueError(f"edge ({u}, {v}) labelled 1 is no edge")
            fixed[_edge(u, v)] = lab
        if len(fixed) != len(self.edges):
            u, v = next(e for e in self.edges if e[0] > e[1] and e[::-1] in self.edges)
            raise ValueError(f"duplicate edge ({v}, {u}) given as ({u}, {v}) too")
        object.__setattr__(self, "edges", fixed)

    def __hash__(self):
        return hash(
            (
                self.modulus,
                self.diag,
                tuple(sorted((e, lab.exponent) for e, lab in self.edges.items())),
            )
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.modulus, self.diag, self.edges) == (
            other.modulus, other.diag, other.edges)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, (self.modulus, self.diag, self.edges))

    def __repr__(self):
        return (f"{self.__class__.__qualname__}(modulus={self.modulus!r}, "
                f"diag={self.diag!r}, edges={self.edges!r})")

    # -- basic structure ---------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.diag)

    def edge_label(self, u: int, v: int) -> UnityRoot | None:
        return self.edges.get(_edge(u, v))

    def adjacency(self) -> list[list[int]]:
        """The neighbours of every vertex, in edge order.  Built anew on each
        call: a caller asking about several vertices builds it once."""
        adj: list[list[int]] = [[] for _ in range(self.rank)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def has_degenerate_diag(self) -> bool:
        """True when some vertex is labelled 1 (no arithmetic diagram has it)."""
        return any(d.is_one for d in self.diag)

    # -- derived diagrams --------------------------------------------------

    def induced(self, vertices: list[int]) -> "GDD":
        """Sub-diagram on the given vertices, renumbered in the given order."""
        pos = {v: i for i, v in enumerate(vertices)}
        return GDD(
            self.modulus,
            tuple(self.diag[v] for v in vertices),
            {
                (_edge(pos[u], pos[v])): lab
                for (u, v), lab in self.edges.items()
                if u in pos and v in pos
            },
        )

    def delete_vertex(self, v: int) -> "GDD":
        if self.rank < 2:
            raise ValueError("cannot delete the only vertex")
        if not 0 <= v < self.rank:
            raise ValueError(f"vertex {v} out of range")
        return self.induced([u for u in range(self.rank) if u != v])

    def permute(self, sigma: list[int]) -> "GDD":
        """Relabel vertices; sigma[i] is the new index of old vertex i."""
        inv = [0] * len(sigma)
        for old, new in enumerate(sigma):
            inv[new] = old
        return GDD(
            self.modulus,
            tuple(self.diag[inv[i]] for i in range(self.rank)),
            {
                _edge(sigma[u], sigma[v]): lab
                for (u, v), lab in self.edges.items()
            },
        )

    def power_twist(self, t: int) -> "GDD":
        """Raise every label to the t-th power (t coprime to M), giving the
        diagram at the conjugate parameter."""
        if gcd(t, self.modulus) != 1:
            raise ValueError("twist exponent must be coprime to the modulus")
        return GDD(
            self.modulus,
            tuple(d ** t for d in self.diag),
            {e: lab ** t for e, lab in self.edges.items()},
        )

    def twists(self) -> list["GDD"]:
        """The power twists by every unit t of Z/M, in ascending t (so g
        itself first): the diagram at every conjugate parameter."""
        return [self] + [
            self.power_twist(t) for t in range(2, self.modulus)
            if gcd(t, self.modulus) == 1
        ]

    def add_vertex(self, diag: UnityRoot, pairs) -> "GDD":
        """The diagram with one new vertex (index rank) labelled diag, joined
        to each vertex v of the (v, label) pairs by an edge with that label."""
        edges = dict(self.edges)
        for v, lab in pairs:
            edges[(v, self.rank)] = lab
        return GDD(self.modulus, self.diag + (diag,), edges)

    def components(self) -> list["GDD"]:
        """Maximal connected induced sub-diagrams, in vertex order."""
        return [self.induced(c) for c in self.component_vertex_sets()]

    def component_vertex_sets(self) -> list[list[int]]:
        return components_of(self.adjacency())

    # -- shape predicates ----------------------------------------------------

    def is_connected(self) -> bool:
        return len(self.component_vertex_sets()) == 1

    def is_chain(self) -> bool:
        """True when the underlying graph is a path (rank 1 counts)."""
        return self.chain_order() is not None

    def chain_order(self, adj: list[list[int]] | None = None) -> list[int] | None:
        """Vertices in path order when the graph is a path, else None.  A
        caller that has built adjacency() passes it as ``adj``."""
        return path_order(adj if adj is not None else self.adjacency(), range(self.rank))

    def is_cycle(self) -> bool:
        if self.rank < 3:
            return False
        adj = self.adjacency()
        return all(len(nbs) == 2 for nbs in adj) and len(components_of(adj)) == 1

    # -- canonical form ------------------------------------------------------

    def canonical_key(self) -> bytes:
        """Byte string equal exactly for diagrams that differ by a vertex
        relabelling and by the group mu_M their labels are written in: the
        rank, the least even modulus m holding every label (minimal_modulus)
        and the least form (see least_form) of the vertex exponents and the
        edge-exponent matrix in mu_m, that is, the exponents divided by M/m
        (key_bucket reads the rank and m back).  Computed once per object,
        together with canonical_order, and kept on it in the _canonical
        slot, which equality and hashing ignore."""
        try:
            return self._canonical[0]
        except AttributeError:
            pass
        n = self.rank
        m = minimal_modulus(self)
        k = self.modulus // m
        nbrs: list[dict] = [{} for _ in range(n)]
        for (u, v), lab in self.edges.items():
            nbrs[u][v] = nbrs[v][u] = lab.exponent // k
        form, order = least_form([d.exponent // k for d in self.diag], nbrs)
        key = ("k" + ",".join(map(str, (n, m) + form))).encode()
        # One slot for both: every further slot enlarges each diagram,
        # keyed or not, and the peak memory with it.
        object.__setattr__(self, "_canonical", (key, order))
        return key

    def canonical_order(self) -> tuple[int, ...]:
        """The vertex order that reads as the least form of canonical_key:
        position i holds vertex order[i].  Dividing every exponent by M/m
        keeps every comparison least_form makes, so it is the order the
        exponents in mu_M give too.  For two diagrams with equal keys and the
        same modulus, order_g[i] -> order_h[i] is an isomorphism g -> h."""
        self.canonical_key()
        return self._canonical[1]

    # -- formatting ----------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"gdd M={self.modulus} n={self.rank}"]
        lines.append("diag " + " ".join(str(d.exponent) for d in self.diag))
        for (u, v) in sorted(self.edges):
            lines.append(f"edge {u + 1} {v + 1} {self.edges[(u, v)].exponent}")
        return "\n".join(lines)

    def to_dot(self, parameter: Parameter | None = None) -> str:
        def show(x: UnityRoot) -> str:
            return parameter.render(x) if parameter is not None else f"z^{x.exponent}"

        lines = ["graph gdd {"]
        for v in range(self.rank):
            lines.append(f'  v{v + 1} [label="{show(self.diag[v])}"];')
        for (u, v) in sorted(self.edges):
            lines.append(
                f'  v{u + 1} -- v{v + 1} [label="{show(self.edges[(u, v)])}"];'
            )
        lines.append("}")
        return "\n".join(lines)


def key_bucket(key: bytes) -> tuple[int, int]:
    """The rank n and least even modulus m a canonical key encodes.  A key
    reads b"k{n},{m},{f1},{f2},..." (see GDD.canonical_key): the rank, the
    minimal modulus, then the least form, all decimal, comma-separated."""
    n, m, _ = key[1:].split(b",", 2)
    return int(n), int(m)


def components_of(adj: list[list[int]], vertices=None) -> list[list[int]]:
    """Vertex sets of the connected components of a graph given by
    adjacency lists, or of its subgraph induced on the sorted ``vertices``,
    each sorted, in order of least vertex."""
    if vertices is None:
        vertices = range(len(adj))
    seen = [True] * len(adj)
    for v in vertices:
        seen[v] = False
    out = []
    for s in vertices:
        if seen[s]:
            continue
        comp, stack = [], [s]
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        out.append(sorted(comp))
    return out


def non_cut_vertices(adj: list[list[int]]) -> list[int]:
    """The vertices v, in order, of a graph given by adjacency lists whose
    deletion leaves it connected."""
    n = len(adj)
    return [v for v in range(n)
            if len(components_of(adj, [u for u in range(n) if u != v])) == 1]


def path_order(adj: list[list[int]], vertices) -> list[int] | None:
    """The sorted ``vertices`` in path order, from the least end, when the
    subgraph induced on them of the graph given by adjacency lists is a
    path (one vertex counts), else None."""
    if len(vertices) == 1:
        return [vertices[0]]
    nbs = adj
    if len(vertices) < len(adj):
        inside = set(vertices)
        nbs = {v: [u for u in adj[v] if u in inside] for v in vertices}
    ends = [v for v in vertices if len(nbs[v]) == 1]
    if len(ends) != 2 or any(len(nbs[v]) > 2 for v in vertices):
        return None
    # The walk from one end stops short of every vertex, at the other end,
    # when another component exists.
    order = [ends[0]]
    prev = -1
    while len(order) < len(vertices):
        nxt = [u for u in nbs[order[-1]] if u != prev]
        if len(nxt) != 1:
            return None
        prev = order[-1]
        order.append(nxt[0])
    return order


def _refine(colours: list, nbrs: list[dict]) -> list[list[int]]:
    """The stable refinement of the colouring: each vertex's colour is
    repeatedly extended by the sorted (label, colour) pairs of its
    neighbours (nbrs[v] maps each vertex u joined to v to the label of the
    pair as v sees it) until no cell splits, or every vertex has a cell of
    its own.  Returns the cells, each ascending, in order of signature: a
    round orders the parts of each cell by the sorted pairs of their
    vertices and keeps the order of the cells.  Labels and colours are coded
    by rank, and a pair as label code * n + colour, so the pairs sort as the
    integers that code them."""
    n = len(colours)
    code = {x: i * n for i, x in enumerate(sorted({x for row in nbrs for x in row.values()}))}
    first = {c: i for i, c in enumerate(sorted(set(colours)))}
    colour = [first[c] for c in colours]
    cells: list[list[int]] = [[] for _ in first]
    for v, c in enumerate(colour):
        cells[c].append(v)
    while len(cells) < n:
        split: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            prev = None
            for sig, v in sorted([
                (sorted([code[x] + colour[u] for u, x in nbrs[v].items()]), v) for v in cell
            ]):
                if sig == prev:
                    split[-1].append(v)
                else:
                    split.append([v])
                    prev = sig
        if len(split) == len(cells):
            break
        cells = split
        for i, cell in enumerate(cells):
            for v in cell:
                colour[v] = i
    return cells


def _is_twin(nbrs: list[dict], v: int, w: int) -> bool:
    """True when v and w, of one refined cell, see the pair {v, w} alike and
    every other vertex by equal labels (or neither sees it)."""
    a, b = nbrs[v], nbrs[w]
    return len(a) == len(b) and a.get(w) == b.get(v) and all(
        b.get(x) == lab for x, lab in a.items() if x != w
    )


def least_form(colours: list, nbrs: list[dict]) -> tuple[tuple, tuple[int, ...]]:
    """Canonical form of vertices v coloured colours[v], each vertex u
    joined to v labelled nbrs[v][u] as v sees the pair (u in nbrs[v] exactly
    when v is in nbrs[u]; nbrs[u][v] must follow from nbrs[v][u]; a pair
    absent from both reads 0 and orders before every label), and the
    canonical vertex order o that gives it: the form is the colours
    colours[o_i], then the labels of the pairs (o_i, o_j), j > i, as o_i
    sees them, row by row, and o is the least order among those keeping each
    refined cell contiguous.  The form is written from the vertex positions
    and the label dicts, without an n x n matrix.

    When refinement splits every cell, o is the cell order.  Two vertices v
    and w of one cell are twins when v sees w as w sees v, and every other
    vertex as w sees it.  Twins form classes: the relation is reflexive and
    symmetric, and for v ~ w and w ~ x every vertex outside {v, w, x} is
    seen alike by v, w and x.  The pair {v, w} reads some a from both ends,
    and x sees v as w does, so x reads a on {x, v}; so too {w, x} reads some
    b from both ends, and v reads b on {v, x}.  One end's label follows from
    the other's by one rule, which fixes a and b, since each is read from
    both ends of its pair; so x reads b on {x, v} too, a = b, and v ~ x.
    When every cell is one twin class, o is the cells in order, each
    ascending, with no search: the search below tries only the least vertex
    of a part that is a twin class, and choosing a vertex splits no such
    part, since each vertex sees all of a twin class alike, so it follows
    that one path.  Otherwise o is chosen position by position from the
    first remaining part; choosing o_i fixes row i once each later part is
    sorted, and split, by label to o_i.  Only choices tying for the least
    row are followed, twins (swapping them changes no label) are tried once,
    and prefixes worse than the best form found are dropped; o is the path
    of the first best leaf.

    Two relabelled copies g and h have equal forms, and pairing their
    orders position by position (o_g[i] -> o_h[i]) is an isomorphism g -> h."""
    n = len(colours)
    # The cells are ordered by signature, and canonical key bytes depend on
    # that order.
    cells = _refine(colours, nbrs)
    if len(cells) == n:
        order = [c[0] for c in cells]
    else:
        # twin[v]: the least twin of v, its cell read in ascending order.
        twin = list(range(n))
        for cell in cells:
            classes: list[int] = []
            for v in cell:
                twin[v] = next((r for r in classes if _is_twin(nbrs, r, v)), v)
                if twin[v] == v:
                    classes.append(v)
        if all(twin[v] == c[0] for c in cells for v in c):
            order = [v for c in cells for v in c]
        else:
            code = {x: i for i, x in enumerate(
                sorted({x for row in nbrs for x in row.values()}), 1)}
            labels = [[0] * n for _ in range(n)]
            for v, row in enumerate(nbrs):
                for u, x in row.items():
                    labels[v][u] = code[x]
            order = _least_order(cells, twin, labels)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    # The pair at positions i < j is entry i * (2n - i - 3) / 2 - 1 + j of
    # the upper triangle read row by row.
    rows = [0] * (n * (n - 1) // 2)
    for v, row in enumerate(nbrs):
        i = pos[v]
        start = i * (2 * n - i - 3) // 2 - 1
        for u, x in row.items():
            j = pos[u]
            if i < j:
                rows[start + j] = x
    return tuple([colours[v] for v in order] + rows), tuple(order)


def _least_order(cells: list[list[int]], twin: list[int], labels: list[list[int]]) -> tuple:
    """The search of least_form over orders keeping the cells contiguous;
    twin[v] is the least twin of v, and labels[v][u] codes the label of the
    pair as v sees it by rank, 0 off pairs."""
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


def isomorphisms(g: GDD, h: GDD):
    """Every vertex map phi of g onto h (phi[v] is the image of vertex v)
    under which each vertex label, and each edge label or its absence, of g
    equals that of h; for g == h these are the automorphisms.  The vertices
    of both are refined together as in least_form, and each is mapped only
    into its cell, one vertex at a time, checking its labels to the vertices
    already mapped."""
    n = g.rank
    if h.rank != n or h.modulus != g.modulus or len(h.edges) != len(g.edges):
        return
    # The disjoint union: g on 0 .. n-1, h on n .. 2n-1.
    nbrs: list[dict] = [{} for _ in range(2 * n)]
    for off, x in ((0, g), (n, h)):
        for (u, v), lab in x.edges.items():
            nbrs[off + u][off + v] = nbrs[off + v][off + u] = lab.exponent
    colour = [0] * (2 * n)
    images: list[list[int]] = []
    for i, cell in enumerate(_refine([d.exponent for d in g.diag + h.diag], nbrs)):
        for v in cell:
            colour[v] = i
        images.append([w - n for w in cell if w >= n])
        if 2 * len(images[i]) != len(cell):
            return
    order = sorted(range(n), key=lambda v: (len(images[colour[v]]), v))
    phi, used = [0] * n, [False] * n

    def extend(i: int):
        if i == n:
            yield list(phi)
            return
        v = order[i]
        row = nbrs[v]
        for w in images[colour[v]]:
            if used[w]:
                continue
            image = nbrs[n + w]
            if all(row.get(u) == image.get(n + phi[u]) for u in order[:i]):
                phi[v], used[w] = w, True
                yield from extend(i + 1)
                used[w] = False

    yield from extend(0)


def from_braiding_matrix(matrix: list[list[UnityRoot]]) -> GDD:
    """Collapse a braiding matrix to its diagram: the vertex labels are the
    diagonal entries and the edge label on {i, j} is Q[i][j] * Q[j][i] when
    that product differs from 1."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    modulus = matrix[0][0].modulus
    diag = tuple(matrix[i][i] for i in range(n))
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            prod = matrix[i][j] * matrix[j][i]
            if not prod.is_one:
                edges[(i, j)] = prod
    return GDD(modulus, diag, edges)


def minimal_modulus(g: GDD) -> int:
    """Smallest even modulus containing all labels of g: M/k for k the gcd
    of M and every exponent, halved when M/k is odd."""
    k = gcd(g.modulus, *(d.exponent for d in g.diag),
            *(lab.exponent for lab in g.edges.values()))
    m = g.modulus // k
    return m if m % 2 == 0 else 2 * m


def with_modulus(g: GDD, modulus: int) -> GDD:
    """Re-express g inside mu_modulus; the new modulus must be a multiple of
    every label order (and even).  g itself, with the key it keeps, when
    it is already there.  The lift has g's canonical key and order, so it
    carries them when g has been keyed."""
    if modulus % 2 != 0 or modulus % minimal_modulus(g) != 0:
        raise ValueError(f"labels of g do not fit inside mu_{modulus}")
    if modulus == g.modulus:
        return g

    def conv(x: UnityRoot) -> UnityRoot:
        return UnityRoot(x.exponent * modulus // x.modulus, modulus)

    lift = GDD(
        modulus,
        tuple(conv(d) for d in g.diag),
        {e: conv(lab) for e, lab in g.edges.items()},
    )
    keyed = getattr(g, "_canonical", None)
    if keyed is not None:
        object.__setattr__(lift, "_canonical", keyed)
    return lift


# -- text format -------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_blocks(text: str) -> list[tuple[GDD, dict, int]]:
    """Parse a sequence of diagram blocks.

    Returns (diagram, metadata, first_line) triples; metadata holds key=value
    pairs from the '#' comment line, if any, directly above the block.
    """
    out = []
    meta: dict = {}
    cur: list[tuple[int, str]] = []

    def flush():
        nonlocal meta, cur
        if cur:
            out.append((_parse_one(cur), dict(meta), cur[0][0]))
        meta = {}
        cur = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            flush()
            continue
        if line.startswith("#"):
            for tok in line[1:].split():
                if "=" in tok:
                    k, _, v = tok.partition("=")
                    meta[k] = v
            continue
        cur.append((lineno, line))
    flush()
    return out


def _parse_one(lines: list[tuple[int, str]]) -> GDD:
    lineno, head = lines[0]
    parts = head.split()
    if len(parts) != 3 or parts[0] != "gdd":
        raise ParseError(f"expected 'gdd M=.. n=..', got {head!r}", lineno)
    try:
        modulus = int(parts[1].removeprefix("M="))
        n = int(parts[2].removeprefix("n="))
    except ValueError:
        raise ParseError(f"bad header {head!r}", lineno) from None
    if modulus < 2 or modulus % 2 != 0:
        raise ParseError(f"modulus must be even and >= 2, got {modulus}", lineno)
    if n < 1:
        raise ParseError(f"rank must be >= 1, got {n}", lineno)
    if len(lines) < 2:
        raise ParseError("missing diag line", lineno)
    lineno2, diag_line = lines[1]
    toks = diag_line.split()
    if toks[0] != "diag" or len(toks) != n + 1:
        raise ParseError(f"expected 'diag' with {n} exponents", lineno2)
    try:
        diag = tuple(UnityRoot(int(t), modulus) for t in toks[1:])
    except ValueError as exc:
        raise ParseError(str(exc), lineno2) from None
    edges = {}
    for lineno3, line in lines[2:]:
        toks = line.split()
        if toks[0] != "edge" or len(toks) != 4:
            raise ParseError(f"expected 'edge i j e', got {line!r}", lineno3)
        try:
            u, v, e = (int(t) for t in toks[1:])
        except ValueError:
            raise ParseError(f"non-integer edge field in {line!r}", lineno3) from None
        if not (1 <= u < v <= n):
            raise ParseError(f"edge endpoints {u} {v} out of order/range", lineno3)
        if e % modulus == 0:
            raise ParseError("edge label exponent 0 means no edge", lineno3)
        if (u - 1, v - 1) in edges:
            raise ParseError(f"duplicate edge {u} {v}", lineno3)
        edges[(u - 1, v - 1)] = UnityRoot(e, modulus)
    try:
        return GDD(modulus, diag, edges)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def parse_gdd(text: str) -> GDD:
    blocks = parse_blocks(text)
    if len(blocks) != 1:
        raise ValueError(f"expected exactly one diagram, found {len(blocks)}")
    return blocks[0][0]
