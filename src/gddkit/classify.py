"""Structural recognizers: the seven classical types, heads and tails,
semi-/quasi-classical diagrams, simple cycles, glued shapes, and shape tags.

Recognition is decomposition search: try every end vertex and both chain
orientations, solve the head pattern for its parameter, and ask the body to
be a simple chain with the matching fixed parameter.  Type 3 is the same as
Type 2 under the substitution of -q^{-1} for the parameter, so tags are
normalized to Type 2 and kind "T3" is never emitted.

Recognition reads vertex subsets of one diagram g in place and builds no
sub-diagram.  A subset is a sorted tuple of g's vertices: its path order and
components come from g's adjacency restricted to it (core.path_order,
core.components_of), its chain tests from the labels of g along that order,
and its readings (heads, tails) are numbered as in g.  The one diagram built
is the trunk handed to the ``continual`` callback of
is_classical_plus_semiclassical.  Head patterns, like the chain tests, are
read on label exponents mod M; a UnityRoot is built only for a returned
parameter.

The shape predicates ask whether one given vertex is a tail, never for the
set of all tails: ``_Subsets.readings(keep, tail)`` reads only the chain
orientation, heads and bodies that can end at that tail, and
``_Subsets.has_quasi_tail`` asks each deletion for that tail alone and stops
at the second witness.  No subset's readings are kept between queries.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .chains import ChainProfile, is_simple_chain, oriented_profile
from .core import GDD, components_of, path_order
from .roots import UnityRoot, minus_one

class TypeTag(namedtuple("TypeTag", "kind q body_profile head tail")):
    """One way of reading a diagram as a classical type.

    ``q`` is the type's parameter; ``head`` lists the head vertices (empty
    for Type 7); ``tail`` is the distinguished far end.
    """

    __slots__ = ()


class HeadPattern(namedtuple("HeadPattern",
                             "kind vertices attach body_param body_param_square",
                             defaults=(None, None))):
    """A one- or two-vertex classical head sitting at an end of a diagram.

    ``body_param`` is the fixed parameter the body chain must show at the
    attachment vertex; for Type 1 heads the body parameter is pinned only up
    to sign (its square is the end label), recorded via ``body_param_square``.
    """

    __slots__ = ()

    def matches_body(self, profile: ChainProfile) -> bool:
        if profile.wildcard:
            return True
        if self.body_param_square is not None:
            return profile.q ** 2 == self.body_param_square
        return profile.q == self.body_param


def _square_roots(x: UnityRoot) -> list[UnityRoot]:
    return [
        UnityRoot(e, x.modulus)
        for e in range(x.modulus)
        if (2 * e) % x.modulus == x.exponent
    ]


def _some_square_root(x: UnityRoot) -> UnityRoot:
    """A square root of x, lifting into mu_{2M} when none exists in mu_M."""
    roots = [r for r in _square_roots(x) if not r.is_one and not r.is_minus_one]
    if roots:
        return roots[0]
    return UnityRoot(x.exponent, 2 * x.modulus)


def head_patterns(g: GDD, adj: list[list[int]] | None = None) -> list[HeadPattern]:
    """All head readings available on end vertices of g; ``adj`` is
    g.adjacency(), if the caller has built it, or that adjacency restricted
    to a vertex subset (empty lists outside it) to read the heads of the
    subdiagram on the subset.  Read on label exponents mod M."""
    out = []
    m = g.modulus
    half = m // 2
    nbs = adj if adj is not None else g.adjacency()
    d = [x.exponent for x in g.diag]
    for e in range(g.rank):
        if len(nbs[e]) != 1:
            continue
        (b,) = nbs[e]
        d_e, t_eb = d[e], g.edge_label(e, b).exponent
        if d_e == 0:
            continue  # no head end is labelled 1
        # Type 1: end p^2, edge p^-2, body parameter p.
        if (d_e + t_eb) % m == 0:
            out.append(HeadPattern("T1", (e,), b, body_param_square=g.diag[e]))
        # Type 2 (== Type 3 with -p^{-1} for p): end p, edge p^-2, body
        # parameter p^2.
        if d_e != half and (2 * d_e + t_eb) % m == 0:
            out.append(HeadPattern("T2", (e,), b, body_param=UnityRoot(2 * d_e % m, m)))
        # Type 4: end p with ord(p) = 3, edge -p, body parameter -p^-1.
        if 3 * d_e % m == 0 and t_eb == (d_e + half) % m:
            out.append(HeadPattern("T4", (e,), b, body_param=UnityRoot((half - d_e) % m, m)))
    # Types 5 (ends p, no link) and 6 (ends -1, link p^2): two head vertices
    # on a common body end c, edges p^-1.  Each is a neighbour of c with no
    # neighbour but c and its partner; pairs are taken in vertex order.
    forks = []
    for c in range(g.rank):
        tips = [h for h in nbs[c] if len(nbs[h]) <= 2]
        for h1, h2 in combinations(tips, 2):
            if set(nbs[h1]) <= {c, h2} and set(nbs[h2]) <= {c, h1}:
                forks.append((min(h1, h2), max(h1, h2), c))
    for h1, h2, c in sorted(forks):
        t1 = g.edge_label(h1, c).exponent
        if t1 != g.edge_label(h2, c).exponent:
            continue
        p = -t1 % m
        link = g.edge_label(h1, h2)
        if link is None and d[h1] == p and d[h2] == p and p != 0:
            out.append(HeadPattern("T5", (h1, h2), c, body_param=UnityRoot(p, m)))
        if (
            link is not None
            and d[h1] == half
            and d[h2] == half
            and link.exponent == 2 * p % m
            and 2 * p % m != 0
        ):
            out.append(HeadPattern("T6", (h1, h2), c, body_param=UnityRoot(p, m)))
    return out


def _attached_profile(
    g: GDD, adj: list[list[int]], body: list[int], attach: int, tail: int | None
) -> tuple[ChainProfile, int] | None:
    """Profile of the subdiagram of g on ``body`` read with ``attach`` as its
    oriented end, plus the body's far-end vertex; None when the body is not
    a simple chain ending at ``attach``, or its far end is not ``tail``
    when one is given."""
    order = path_order(adj, body)
    if order is None:
        return None
    if order[-1] != attach:
        if order[0] != attach:
            return None
        order = order[::-1]
    if tail is not None and order[0] != tail:
        return None
    if not is_simple_chain(g, order):
        return None
    profile = oriented_profile(g, order)
    if profile is None:
        return None
    return profile, order[0]


def _without(keep: tuple[int, ...], drop) -> tuple[int, ...]:
    return tuple(v for v in keep if v not in drop)


class _Subsets:
    """The vertex subsets of one diagram g, read in place (see the module
    docstring).  A subset ``keep`` is a sorted tuple of g's vertices; each
    method answers for the subdiagram of g on it, numbered as in g, and
    takes it connected unless it says otherwise."""

    def __init__(self, g: GDD):
        self.g = g
        self.adj = g.adjacency()
        self.all = tuple(range(g.rank))

    def is_connected(self, keep: tuple[int, ...]) -> bool:
        """Whether the subdiagram on ``keep`` (any subset) is connected."""
        return len(components_of(self.adj, keep)) == 1

    def is_simple_path(self, keep: tuple[int, ...]) -> bool:
        """Whether the subdiagram on ``keep`` (any subset) is a simple chain."""
        order = path_order(self.adj, keep)
        return order is not None and is_simple_chain(self.g, order)

    def readings(self, keep: tuple[int, ...], tail: int | None = None) -> set[TypeTag]:
        """All readings of the subdiagram on ``keep`` as one of the
        classical types, or only those with the given tail.  The heads are
        read on g's adjacency restricted to ``keep``.  A tail skips the other
        chain orientation, the heads holding it and the bodies ending
        elsewhere."""
        g, adj = self.g, self.adj
        nbs = adj
        if len(keep) < len(adj):
            inside = set(keep)
            nbs = [[] for _ in adj]
            for v in keep:
                nbs[v] = [u for u in adj[v] if u in inside]
        tags: set[TypeTag] = set()
        order = path_order(adj, keep)

        # Type 7: the whole subdiagram is a simple chain C_{n, q^{-1}, I},
        # read from each end (the tail is the end it starts at).
        starts = [order] if order is not None else []
        if order is not None and len(order) > 1:
            starts.append(order[::-1])
        if tail is not None:
            starts = [o for o in starts if o[0] == tail]
        if starts and is_simple_chain(g, order):
            for o in starts:
                profile = oriented_profile(g, o)
                if profile is None:
                    continue
                if profile.wildcard:
                    q = minus_one(g.modulus)  # rank-1 vertex -1: q is free
                    tags.add(TypeTag("T7", q, profile, (), o[0]))
                else:
                    tags.add(TypeTag("T7", profile.q ** -1, profile, (), o[0]))

        # Types 1-6: a head on one end of a simple-chain body.
        for head in head_patterns(g, nbs):
            if len(head.vertices) == 1 and order is None:
                continue  # one end vertex on a chain body makes a chain
            if tail in head.vertices:
                continue
            body = [v for v in keep if v not in head.vertices]
            got = _attached_profile(g, adj, body, head.attach, tail)
            if got is None:
                continue
            profile, far = got
            if not head.matches_body(profile):
                continue
            if head.kind == "T1":
                # The body pins p down (its square is the end label), so no
                # square root is taken unless a rank-1 body labelled -1 leaves
                # p free.
                if profile.wildcard:
                    q = _some_square_root(head.body_param_square)
                else:
                    q = profile.q
            elif head.kind in ("T2", "T4"):
                q = g.diag[head.vertices[0]]
            else:
                q = head.body_param
            tags.add(TypeTag(head.kind, q, profile, head.vertices, far))
        return tags

    def tails(self, keep: tuple[int, ...]) -> set[int]:
        return {t.tail for t in self.readings(keep)}

    def has_quasi_tail(self, keep: tuple[int, ...], t: int) -> bool:
        """Whether t is a quasi-classical tail of the subdiagram on ``keep``
        (see quasi_classical_tails).  Each deletion is asked only for
        readings with tail t, and the search stops at the second witness."""
        if len(keep) < 2 or t not in keep:
            return False
        order = path_order(self.adj, keep)
        if order is not None:
            if t not in (order[0], order[-1]):
                return False
            other = order[-1] if t == order[0] else order[0]
            return bool(self.readings(_without(keep, (other,)), t))
        witnesses = 0
        for v in keep:
            if v == t:
                continue  # deleting the tail leaves no reading with it
            rest = _without(keep, (v,))
            if self.is_connected(rest) and self.readings(rest, t):
                witnesses += 1
                if witnesses == 2:
                    return True
        return False

    def quasi_classical_tails(self, keep: tuple[int, ...]) -> set[int]:
        return {t for t in keep if self.has_quasi_tail(keep, t)}

    def is_semi_classical(self, keep: tuple[int, ...]) -> bool:
        if len(keep) < 2:
            return False
        order = path_order(self.adj, keep)
        if order is not None:
            return any(
                self.is_simple_path(_without(keep, (e,))) for e in (order[0], order[-1])
            )
        good = 0
        for v in keep:
            if self.is_simple_path(_without(keep, (v,))):
                good += 1
                if good == 2:
                    return True
        return False

    # -- shapes of the whole diagram ------------------------------------------

    def is_bi_classical(self) -> bool:
        g = self.g
        for head1, head2 in combinations(head_patterns(g, self.adj), 2):
            if set(head1.vertices) & set(head2.vertices):
                continue
            body = _without(self.all, head1.vertices + head2.vertices)
            if head1.attach not in body or head2.attach not in body:
                continue
            order = path_order(self.adj, body)
            if order is None or not is_simple_chain(g, order):
                continue
            if len(body) == 1:
                prof1 = prof2 = oriented_profile(g, order)
            else:
                ends = (order[0], order[-1])
                if head1.attach not in ends or head2.attach not in ends:
                    continue
                if head1.attach == head2.attach:
                    continue
                o1 = order if order[-1] == head1.attach else order[::-1]
                prof1 = oriented_profile(g, o1)
                prof2 = oriented_profile(g, o1[::-1])
            if prof1 is None or prof2 is None:
                continue
            if head1.matches_body(prof1) and head2.matches_body(prof2):
                return True
        return False

    def is_simple_cycle(self) -> bool:
        return self.g.is_cycle() and all(
            self.is_simple_path(_without(self.all, (v,))) for v in self.all
        )

    def is_continual_extension(self) -> bool:
        g, adj = self.g, self.adj
        for w in self.all:
            if len(adj[w]) != 1:
                continue
            (tau,) = adj[w]
            if len(adj[tau]) != 2:
                continue
            (nb,) = [u for u in adj[tau] if u != w]
            t_out = g.edge_label(w, tau)
            if t_out not in _continuations(g.diag[tau], g.edge_label(tau, nb)):
                continue
            t5 = g.diag[w] == t_out ** -1
            t6 = g.diag[w].is_minus_one
            if not (t5 or t6):
                continue
            if self.has_quasi_tail(_without(self.all, (w,)), tau):
                return True
        return False

    def is_classical_plus_semiclassical(self, continual) -> bool:
        g = self.g
        for head in head_patterns(g, self.adj):
            trunk = _without(self.all, head.vertices)
            tau = head.attach
            if len(trunk) < 2 or not self.is_connected(trunk):
                continue
            if not self.is_semi_classical(trunk):
                continue
            if not self.has_quasi_tail(trunk, tau):
                continue
            # The head parameter must continue the trunk's chain at the tail.
            profiles = [oriented_profile(g, [nb, tau]) for nb in self.adj[tau] if nb in trunk]
            if not any(p is not None and head.matches_body(p) for p in profiles):
                continue
            if head.kind in ("T5", "T6"):
                if continual is None or not continual(
                    g.induced(list(trunk)), trunk.index(tau), head.kind
                ):
                    continue
            return True
        return False


def _connected(g: GDD) -> _Subsets:
    """The subsets of g, which must be connected."""
    s = _Subsets(g)
    if not s.is_connected(s.all):
        raise ValueError("needs a connected diagram")
    return s


def classical_type(g: GDD) -> set[TypeTag]:
    """All readings of g as one of the classical types; empty when g is not
    classical."""
    s = _Subsets(g)
    if not s.is_connected(s.all):
        raise ValueError("classical recognition needs a connected diagram")
    return s.readings(s.all)


def quasi_classical_tails(g: GDD) -> set[int]:
    """Tail vertices in the sense of the quasi-classical definition.

    Chain case: omitting one end leaves a classical diagram whose tail is the
    other end.  Non-chain case: two distinct vertex deletions leave connected
    classical diagrams with the same tail vertex.
    """
    s = _connected(g)
    return s.quasi_classical_tails(s.all)


def tail_vertices(g: GDD) -> set[int]:
    """Tails of g read as a classical or quasi-classical structure."""
    s = _connected(g)
    return s.tails(s.all) | s.quasi_classical_tails(s.all)


def is_semi_classical(g: GDD) -> bool:
    """Structural part of the semi-classical definition (the caller vouches
    that g is arithmetic)."""
    s = _connected(g)
    return s.is_semi_classical(s.all)


def is_quasi_classical(g: GDD) -> bool:
    s = _connected(g)
    return bool(s.quasi_classical_tails(s.all)) or bool(s.readings(s.all))


def is_simple_cycle(g: GDD) -> bool:
    return _Subsets(g).is_simple_cycle()


def is_bi_classical(g: GDD) -> bool:
    """Two classical head patterns glued to the ends of a shared simple-chain
    body, fixed parameters matched on each side."""
    return _connected(g).is_bi_classical()


def is_classical_plus_semiclassical(g: GDD, continual=None) -> bool:
    """A classical head glued on the tail of a semi-classical diagram.

    One-vertex heads need no side condition; fork heads additionally require
    the trunk to be continual via the matching one-vertex end form, decided
    by the injected ``continual(trunk, tail, kind)`` callable (fork heads are
    skipped when no oracle is supplied).  The trunk is the one sub-diagram
    recognition builds, numbered in the order of g's vertices."""
    return _connected(g).is_classical_plus_semiclassical(continual)


def is_bi_semi_classical(g: GDD, all_deletions_arithmetic) -> bool:
    """Two semi-classical diagrams sharing their tail vertex, with every
    single-vertex deletion arithmetic (decided by the injected callable).
    Classical diagrams are arithmetic and never count as this gluing."""
    s = _connected(g)
    if s.readings(s.all):
        return False
    for t in s.all:
        parts = components_of(s.adj, _without(s.all, (t,)))
        if len(parts) != 2:
            continue
        sides = [tuple(sorted(part + [t])) for part in parts]
        if all(
            s.is_semi_classical(side) and s.has_quasi_tail(side, t)
            for side in sides
        ) and all_deletions_arithmetic(g):
            return True
    return False


def is_continual_extension(g: GDD) -> bool:
    """g is a one-vertex end form (q-end or -1-end) added on the tail of a
    quasi-classical trunk, continuing the chain there."""
    return _connected(g).is_continual_extension()


def shape_tag(g: GDD, continual=None) -> str:
    """First matching tag in the listed priority order (the caller vouches
    that g is quasi-affine).  The predicates share g's adjacency."""
    s = _connected(g)
    if s.is_bi_classical():
        return "BiClassical"
    if s.is_simple_cycle():
        return "SimpleCycle"
    if s.is_continual_extension():
        return "Continual"
    if s.is_classical_plus_semiclassical(continual):
        return "ClassicalPlusSemiClassical"
    return "Other"


def _continuations(d: UnityRoot, t_in: UnityRoot) -> list[UnityRoot]:
    """Edge labels t != 1 that make a vertex labelled d, entered by an edge
    labelled t_in, a valid simple-chain interior vertex."""
    out = []
    if (d * t_in).is_one:
        out.append(d ** -1)  # d*t_in = d*t_out = 1
    if d.is_minus_one:
        out.append(t_in ** -1)  # d = -1, t_in*t_out = 1
    dedup = []
    for t in out:
        if not t.is_one and t not in dedup:
            dedup.append(t)
    return dedup


def continuation_patterns(g: GDD, v: int):
    """Ways of continuing the local chain past vertex v: edge labels t such
    that v becomes a valid simple-chain interior vertex.

    Returns a list of edge labels; v must have exactly one neighbor."""
    nbs = g.adjacency()[v]
    if len(nbs) != 1:
        return []
    return _continuations(g.diag[v], g.edge_label(v, nbs[0]))
