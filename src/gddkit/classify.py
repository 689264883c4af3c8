"""Structural recognizers: the seven classical types, heads and tails,
semi-/quasi-classical diagrams, simple cycles, glued shapes, and shape tags.

Recognition is decomposition search: try every end vertex and both chain
orientations, solve the head pattern for its parameter, and ask the body to
be a simple chain with the matching fixed parameter.  Type 3 is the same as
Type 2 under the substitution of -q^{-1} for the parameter, so tags are
normalized to Type 2 and kind "T3" is never emitted.

Recognition reads vertex subsets of one diagram g in place and builds no
sub-diagram.  A subset is a vertex mask, an int with bit v set for vertex v
of g: its path order and components come from g's neighbour masks ANDed
with it (core.path_order, core.components_of), its chain tests from g's
label exponents along that order (chains.exponent_failures,
chains.exponent_profile), and its readings (heads, tails) are numbered as in
g.  The one diagram built is the trunk handed to the ``continual`` callback
of is_classical_plus_semiclassical.  Head patterns are tabled once per
diagram: an entry (an end vertex and its neighbour, or two tips and their
centre) is read on label exponents mod M the first time a subset has it,
and a subset's heads are the entries its degrees select.  A UnityRoot is
built only for a returned parameter.

The shape predicates ask whether one given vertex is a tail, never for the
set of all tails: ``_Subsets.readings(keep, tail)`` reads only the chain
orientation, heads and bodies that can end at that tail, and
``_Subsets.has_quasi_tail`` asks each deletion for that tail alone and stops
at the second witness; they, and any caller that asks only whether a
subset has a reading, stop at the first (``readings(keep, first=True)``).

A diagram is read once: ``reading(g)`` keeps the _Subsets of the last
diagram asked, by identity, so the callers that ask about one diagram in
turn (check, the oracle, the quasi-affine test, the shape tags) share its
head table, its classical readings and its edge exponents.  No other
subset's readings are kept, and no GDD keeps a reading.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from . import cartan
from .chains import ChainProfile, exponent_failures, exponent_profile
from .core import GDD, components_of, path_order, vertices_of
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


def head_patterns(g: GDD) -> list[HeadPattern]:
    """All head readings available on end vertices of g: the one-vertex
    heads by end vertex (T1, T2, T4 at each), then the two-vertex heads by
    (tip, tip, centre) (T5 before T6).  Read on label exponents mod M."""
    s = _Subsets(g)
    return s.heads(s.all)


def _mask(vertices) -> int:
    """The vertex mask of some distinct vertices."""
    return sum(1 << v for v in vertices)


class _Subsets:
    """The vertex subsets of one diagram g, read in place (see the module
    docstring).  A subset ``keep`` is a vertex mask (bit v for vertex v of
    g); each method answers for the subdiagram of g on it, numbered as in g,
    and takes it connected unless it says otherwise.

    It holds g's neighbour masks and label exponents, and a table of head
    entries it fills the first time a subset needs one: the one-vertex heads
    on end e with neighbour b, keyed (e, b), and the two-vertex heads on
    tips h1 < h2 with centre c, keyed (h1, h2, c).  Which entries a subset
    reads depends only on its degrees; what an entry holds, only on labels.
    g's classical readings and edge exponents are kept once asked."""

    def __init__(self, g: GDD):
        self.g = g
        self.m = g.modulus
        self.nbrs = g.neighbour_masks()
        self.d = [x.exponent for x in g.diag]
        self.ties: list[dict[int, int]] = [{} for _ in g.diag]
        for (u, v), lab in g.edges.items():
            self.ties[u][v] = self.ties[v][u] = lab.exponent
        self.all = (1 << g.rank) - 1
        self._ends: dict[tuple[int, int], list[HeadPattern]] = {}
        self._forks: dict[tuple[int, int, int], list[HeadPattern]] = {}
        self._types: set[TypeTag] | None = None
        self._exponents: list | None = None

    # -- the whole diagram ------------------------------------------------------

    def classical_type(self) -> set[TypeTag]:
        """All readings of g as one of the classical types, kept: callers
        must not change the set."""
        if self._types is None:
            self._types = self.readings(self.all)
        return self._types

    def is_classical(self) -> bool:
        """Whether g has a classical reading, stopping at the first."""
        types = self._types
        return bool(self.readings(self.all, first=True) if types is None else types)

    def matrix(self, without: int | None = None) -> cartan.Matrix | None:
        """g's braiding exponential matrix, or that of its deletion of vertex
        ``without``, which must keep no vertex labelled 1; None when it is
        not of Cartan type.  Read from g's edge exponents, read once
        (cartan.edge_exponents, cartan.exponent_matrix)."""
        if self._exponents is None:
            self._exponents = list(cartan.edge_exponents(self.g))
        return cartan.exponent_matrix(self.g.rank, self._exponents, without)

    # -- labels along a path ----------------------------------------------------

    def _labels(self, order: list[int]) -> tuple[list[int], list[int]]:
        ties = self.ties
        return [self.d[v] for v in order], [ties[u][v] for u, v in zip(order, order[1:])]

    def _is_simple(self, order: list[int]) -> bool:
        return not exponent_failures(self.m, *self._labels(order))

    def _profile(self, order: list[int]) -> ChainProfile | None:
        return exponent_profile(self.m, *self._labels(order), order[-1])

    # -- heads ------------------------------------------------------------------

    def _end_heads(self, e: int, b: int) -> list[HeadPattern]:
        """The one-vertex heads on end e attached at b."""
        m, d_e, t_eb = self.m, self.d[e], self.ties[e][b]
        half = m // 2
        out = []
        if d_e == 0:
            return out  # no head end is labelled 1
        # Type 1: end p^2, edge p^-2, body parameter p.
        if (d_e + t_eb) % m == 0:
            out.append(HeadPattern("T1", (e,), b, body_param_square=self.g.diag[e]))
        # Type 2 (== Type 3 with -p^{-1} for p): end p, edge p^-2, body
        # parameter p^2.
        if d_e != half and (2 * d_e + t_eb) % m == 0:
            out.append(HeadPattern("T2", (e,), b, body_param=UnityRoot(2 * d_e % m, m)))
        # Type 4: end p with ord(p) = 3, edge -p, body parameter -p^-1.
        if 3 * d_e % m == 0 and t_eb == (d_e + half) % m:
            out.append(HeadPattern("T4", (e,), b, body_param=UnityRoot((half - d_e) % m, m)))
        return out

    def _fork_heads(self, h1: int, h2: int, c: int) -> list[HeadPattern]:
        """Types 5 (ends p, no link) and 6 (ends -1, link p^2): tips h1 and
        h2 on a common body end c, edges p^-1."""
        m, d, ties = self.m, self.d, self.ties
        half = m // 2
        t1 = ties[h1][c]
        if t1 != ties[h2][c]:
            return []
        p = -t1 % m
        link = ties[h1].get(h2)
        out = []
        if link is None and d[h1] == p and d[h2] == p and p != 0:
            out.append(HeadPattern("T5", (h1, h2), c, body_param=UnityRoot(p, m)))
        if link is not None and d[h1] == half and d[h2] == half and link == 2 * p % m != 0:
            out.append(HeadPattern("T6", (h1, h2), c, body_param=UnityRoot(p, m)))
        return out

    def heads(self, keep: int) -> list[HeadPattern]:
        """The head readings on end vertices of the subdiagram on ``keep``
        (any subset), in head_patterns' order.  A one-vertex head needs an
        end e with one neighbour b.  A two-vertex head needs tips h1, h2 on
        a centre c with no neighbour but c and each other: two ends on c, or
        two vertices of degree 2 in a triangle with c."""
        nbrs, ends = self.nbrs, self._ends
        out = []
        leaves: dict[int, list[int]] = {}
        at = []
        for v in vertices_of(keep):
            around = nbrs[v] & keep
            if not around & (around - 1):
                if around:
                    b = around.bit_length() - 1
                    got = ends.get((v, b))
                    if got is None:
                        got = ends[(v, b)] = self._end_heads(v, b)
                    out += got
                    leaves.setdefault(b, []).append(v)
                continue
            low = around & -around
            high = around ^ low
            if high & (high - 1):
                continue  # degree 3 or more
            x, y = low.bit_length() - 1, high.bit_length() - 1
            # v as the lesser tip of a triangle, its partner y or x
            if v < y and nbrs[y] & keep == low | 1 << v:
                at.append((v, y, x))
            if v < x and nbrs[x] & keep == high | 1 << v:
                at.append((v, x, y))
        for c, tips in leaves.items():
            at.extend((h1, h2, c) for h1, h2 in combinations(tips, 2))
        forks = self._forks
        for key in sorted(at):
            got = forks.get(key)
            if got is None:
                got = forks[key] = self._fork_heads(*key)
            out += got
        return out

    # -- subsets ----------------------------------------------------------------

    def is_connected(self, keep: int) -> bool:
        """Whether the subdiagram on ``keep`` (any subset) is connected."""
        return len(components_of(self.nbrs, keep)) == 1

    def is_simple_path(self, keep: int) -> bool:
        """Whether the subdiagram on ``keep`` (any subset) is a simple chain."""
        order = path_order(self.nbrs, keep)
        return order is not None and self._is_simple(order)

    def _attached_profile(
        self, body: int, attach: int, tail: int | None
    ) -> tuple[ChainProfile, int] | None:
        """Profile of the subdiagram on ``body`` read with ``attach`` as its
        oriented end, plus the body's far-end vertex; None when the body is
        not a simple chain ending at ``attach``, or its far end is not
        ``tail`` when one is given."""
        order = path_order(self.nbrs, body)
        if order is None:
            return None
        if order[-1] != attach:
            if order[0] != attach:
                return None
            order = order[::-1]
        if tail is not None and order[0] != tail:
            return None
        d, t = self._labels(order)
        if exponent_failures(self.m, d, t):
            return None
        profile = exponent_profile(self.m, d, t, attach)
        if profile is None:
            return None
        return profile, order[0]

    def readings(self, keep: int, tail: int | None = None, first: bool = False) -> set[TypeTag]:
        """All readings of the subdiagram on ``keep`` as one of the
        classical types, or only those with the given tail.  A tail skips the
        other chain orientation, the heads holding it and the bodies ending
        elsewhere.  With ``first`` the search stops at the first reading:
        the set holds at most one, and is empty exactly when all are."""
        g = self.g
        tags: set[TypeTag] = set()
        order = path_order(self.nbrs, keep)

        # Type 7: the whole subdiagram is a simple chain C_{n, q^{-1}, I},
        # read from each end (the tail is the end it starts at).
        starts = [order] if order is not None else []
        if order is not None and len(order) > 1:
            starts.append(order[::-1])
        if tail is not None:
            starts = [o for o in starts if o[0] == tail]
        if starts and self._is_simple(order):
            for o in starts:
                profile = self._profile(o)
                if profile is None:
                    continue
                # a rank-1 vertex -1 leaves q free
                q = minus_one(g.modulus) if profile.wildcard else profile.q ** -1
                tags.add(TypeTag("T7", q, profile, (), o[0]))
                if first:
                    return tags

        # Types 1-6: a head on one end of a simple-chain body.
        for head in self.heads(keep):
            if len(head.vertices) == 1 and order is None:
                continue  # one end vertex on a chain body makes a chain
            if tail in head.vertices:
                continue
            got = self._attached_profile(keep & ~_mask(head.vertices), head.attach, tail)
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
            if first:
                break
        return tags

    def has_quasi_tail(self, keep: int, t: int) -> bool:
        """Whether t is a quasi-classical tail of the subdiagram on ``keep``
        (see quasi_classical_tails).  Each deletion is asked only for
        readings with tail t, and the search stops at the second witness."""
        if keep.bit_count() < 2 or not keep >> t & 1:
            return False
        order = path_order(self.nbrs, keep)
        if order is not None:
            if t not in (order[0], order[-1]):
                return False
            other = order[-1] if t == order[0] else order[0]
            return bool(self.readings(keep & ~(1 << other), t, first=True))
        witnesses = 0
        # deleting the tail leaves no reading with it
        for v in vertices_of(keep & ~(1 << t)):
            rest = keep & ~(1 << v)
            if self.is_connected(rest) and self.readings(rest, t, first=True):
                witnesses += 1
                if witnesses == 2:
                    return True
        return False

    def quasi_classical_tails(self, keep: int) -> set[int]:
        return {t for t in vertices_of(keep) if self.has_quasi_tail(keep, t)}

    def is_semi_classical(self, keep: int) -> bool:
        if keep.bit_count() < 2:
            return False
        order = path_order(self.nbrs, keep)
        if order is not None:
            return any(
                self.is_simple_path(keep & ~(1 << e)) for e in (order[0], order[-1])
            )
        good = 0
        for v in vertices_of(keep):
            if self.is_simple_path(keep & ~(1 << v)):
                good += 1
                if good == 2:
                    return True
        return False

    # -- shapes of the whole diagram ------------------------------------------

    def is_bi_classical(self) -> bool:
        for head1, head2 in combinations(self.heads(self.all), 2):
            drop1, drop2 = _mask(head1.vertices), _mask(head2.vertices)
            if drop1 & drop2:
                continue
            # the body is a simple chain from one head's attach vertex to the
            # other's, read once toward each
            body = self.all & ~(drop1 | drop2)
            got1 = self._attached_profile(body, head1.attach, head2.attach)
            if got1 is None or not head1.matches_body(got1[0]):
                continue
            got2 = self._attached_profile(body, head2.attach, head1.attach)
            if got2 is not None and head2.matches_body(got2[0]):
                return True
        return False

    def is_simple_cycle(self) -> bool:
        return self.g.is_cycle() and all(
            self.is_simple_path(self.all & ~(1 << v)) for v in range(self.g.rank)
        )

    def is_continual_extension(self) -> bool:
        g, nbrs = self.g, self.nbrs
        for w in range(g.rank):
            around = nbrs[w]
            if around.bit_count() != 1:
                continue
            tau = around.bit_length() - 1
            if nbrs[tau].bit_count() != 2:
                continue
            nb = (nbrs[tau] & ~(1 << w)).bit_length() - 1
            t_out = g.edge_label(w, tau)
            if t_out not in _continuations(g.diag[tau], g.edge_label(tau, nb)):
                continue
            t5 = g.diag[w] == t_out ** -1
            t6 = g.diag[w].is_minus_one
            if not (t5 or t6):
                continue
            if self.has_quasi_tail(self.all & ~(1 << w), tau):
                return True
        return False

    def is_classical_plus_semiclassical(self, continual) -> bool:
        for head in self.heads(self.all):
            trunk = self.all & ~_mask(head.vertices)
            tau = head.attach
            if trunk.bit_count() < 2 or not self.is_connected(trunk):
                continue
            if not self.is_semi_classical(trunk):
                continue
            if not self.has_quasi_tail(trunk, tau):
                continue
            # The head parameter must continue the trunk's chain at the tail.
            profiles = [self._profile([nb, tau]) for nb in vertices_of(self.nbrs[tau] & trunk)]
            if not any(p is not None and head.matches_body(p) for p in profiles):
                continue
            if head.kind in ("T5", "T6"):
                inside = vertices_of(trunk)
                if continual is None or not continual(
                    self.g.induced(inside), inside.index(tau), head.kind
                ):
                    continue
            return True
        return False


_last: _Subsets | None = None


def reading(g: GDD) -> _Subsets:
    """The one reading of g: a _Subsets kept for the last diagram asked, by
    identity (it holds g, so the identity is not reused), so that callers
    asking about one diagram in turn share it.  One reading at most is kept,
    and none on a GDD: the diagrams a call stores hold no reading."""
    global _last
    if _last is None or _last.g is not g:
        _last = _Subsets(g)
    return _last


def _connected(g: GDD) -> _Subsets:
    """The reading of g, which must be connected."""
    s = reading(g)
    if not s.is_connected(s.all):
        raise ValueError("needs a connected diagram")
    return s


def classical_type(g: GDD) -> set[TypeTag]:
    """All readings of g as one of the classical types; empty when g is not
    classical."""
    return _connected(g).classical_type()


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
    return {t.tail for t in s.classical_type()} | s.quasi_classical_tails(s.all)


def is_semi_classical(g: GDD) -> bool:
    """Structural part of the semi-classical definition (the caller vouches
    that g is arithmetic)."""
    s = _connected(g)
    return s.is_semi_classical(s.all)


def is_quasi_classical(g: GDD) -> bool:
    s = _connected(g)
    return bool(s.quasi_classical_tails(s.all)) or s.is_classical()


def is_simple_cycle(g: GDD) -> bool:
    return reading(g).is_simple_cycle()


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
