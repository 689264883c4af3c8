"""Structural recognizers: the seven classical types, heads and tails,
semi-/quasi-classical diagrams, simple cycles, glued shapes, and shape tags.

Recognition is decomposition search: try every end vertex and both chain
orientations, solve the head pattern for its parameter, and ask the body to
be a simple chain with the matching fixed parameter.  Type 3 is the same as
Type 2 under the substitution of -q^{-1} for the parameter, so tags are
normalized to Type 2 and kind "T3" is never emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .chains import ChainProfile, is_simple_chain, oriented_profile
from .core import GDD, components_of
from .roots import UnityRoot, minus_one

@dataclass(frozen=True)
class TypeTag:
    """One way of reading a diagram as a classical type.

    ``q`` is the type's parameter; ``head`` lists the head vertices (empty
    for Type 7); ``tail`` is the distinguished far end.
    """

    kind: str
    q: UnityRoot
    body_profile: ChainProfile
    head: tuple[int, ...]
    tail: int


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


def _attached_profile(
    g: GDD, body_vertices: list[int], attach: int
) -> tuple[ChainProfile, int] | None:
    """Profile of the body read with ``attach`` as its oriented end, plus the
    body's far-end vertex (in g numbering); None when the body is not a
    simple chain ending at ``attach``."""
    body = g.induced(body_vertices)
    order = body.chain_order()
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


def classical_type(g: GDD) -> set[TypeTag]:
    """All readings of g as one of the classical types; empty when g is not
    classical.  One adjacency serves the connectivity test, the chain order
    and the head patterns."""
    adj = g.adjacency()
    if len(components_of(adj)) != 1:
        raise ValueError("classical recognition needs a connected diagram")
    tags: set[TypeTag] = set()
    n = g.rank
    order = g.chain_order(adj)

    # Type 7: the whole diagram is a simple chain C_{n, q^{-1}, I}.
    if order is not None and is_simple_chain(g, order):
        for o in ([order, order[::-1]] if n > 1 else [order]):
            profile = oriented_profile(g, o)
            if profile is None:
                continue
            if profile.wildcard:
                q = minus_one(g.modulus)  # rank-1 vertex -1; parameter is free
                tags.add(TypeTag("T7", q, profile, (), o[0]))
            else:
                tags.add(TypeTag("T7", profile.q ** -1, profile, (), o[0]))

    # Types 1-6: a head on one end of a simple-chain body.
    for head in head_patterns(g, adj):
        if len(head.vertices) == 1 and order is None:
            continue  # one end vertex on a chain body makes g a chain
        body_vertices = [v for v in range(n) if v not in head.vertices]
        got = _attached_profile(g, body_vertices, head.attach)
        if got is None:
            continue
        profile, tail = got
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
        tags.add(TypeTag(head.kind, q, profile, head.vertices, tail))
    return tags


def classical_tails(g: GDD) -> set[int]:
    return {t.tail for t in classical_type(g)}


def quasi_classical_tails(g: GDD) -> set[int]:
    """Tail vertices in the sense of the quasi-classical definition.

    Chain case: omitting one end leaves a classical diagram whose tail is the
    other end.  Non-chain case: two distinct vertex deletions leave connected
    classical diagrams with the same tail vertex.
    """
    if not g.is_connected():
        raise ValueError("needs a connected diagram")
    if g.rank < 2:
        return set()
    tails: set[int] = set()
    order = g.chain_order()
    if order is not None:
        for e, other in ((order[0], order[-1]), (order[-1], order[0])):
            rest = [v for v in range(g.rank) if v != e]
            sub = g.induced(rest)
            sub_tails = {rest[t] for t in classical_tails(sub)}
            if other in sub_tails:
                tails.add(other)
        return tails
    witness: dict[int, set[int]] = {}
    for v in range(g.rank):
        rest = [u for u in range(g.rank) if u != v]
        sub = g.induced(rest)
        if not sub.is_connected():
            continue
        for t in classical_tails(sub):
            witness.setdefault(rest[t], set()).add(v)
    return {t for t, vs in witness.items() if len(vs) >= 2}


def tail_vertices(g: GDD) -> set[int]:
    """Tails of g read as a classical or quasi-classical structure."""
    return classical_tails(g) | quasi_classical_tails(g)


def is_semi_classical(g: GDD) -> bool:
    """Structural part of the semi-classical definition (the caller vouches
    that g is arithmetic)."""
    if not g.is_connected():
        raise ValueError("needs a connected diagram")
    if g.rank < 2:
        return False
    if g.is_chain():
        order = g.chain_order()
        for e in (order[0], order[-1]):
            sub = g.delete_vertex(e)
            if sub.is_chain() and is_simple_chain(sub):
                return True
        return False
    good = 0
    for v in range(g.rank):
        sub = g.delete_vertex(v)
        if sub.is_connected() and sub.is_chain() and is_simple_chain(sub):
            good += 1
            if good == 2:
                return True
    return False


def is_quasi_classical(g: GDD) -> bool:
    return bool(quasi_classical_tails(g)) or bool(classical_type(g))


def is_simple_cycle(g: GDD) -> bool:
    if not g.is_cycle():
        return False
    for v in range(g.rank):
        sub = g.delete_vertex(v)
        if not (sub.is_chain() and is_simple_chain(sub)):
            return False
    return True


# -- gluings -----------------------------------------------------------------


@dataclass(frozen=True)
class HeadPattern:
    """A one- or two-vertex classical head sitting at an end of a diagram.

    ``body_param`` is the fixed parameter the body chain must show at the
    attachment vertex; for Type 1 heads the body parameter is pinned only up
    to sign (its square is the end label), recorded via ``body_param_square``.
    """

    kind: str
    vertices: tuple[int, ...]
    attach: int
    body_param: UnityRoot | None = None
    body_param_square: UnityRoot | None = None

    def matches_body(self, profile: ChainProfile) -> bool:
        if profile.wildcard:
            return True
        if self.body_param_square is not None:
            return profile.q ** 2 == self.body_param_square
        return profile.q == self.body_param


def head_patterns(g: GDD, adj: list[list[int]] | None = None) -> list[HeadPattern]:
    """All head readings available on end vertices of g; ``adj`` is
    g.adjacency(), if the caller has built it."""
    out = []
    m = g.modulus
    nbs = adj if adj is not None else g.adjacency()
    for e in range(g.rank):
        if len(nbs[e]) != 1:
            continue
        (b,) = nbs[e]
        d_e, t_eb = g.diag[e], g.edge_label(e, b)
        # Type 1: end p^2, edge p^-2, body parameter p.
        if (d_e * t_eb).is_one and not d_e.is_one:
            out.append(HeadPattern("T1", (e,), b, body_param_square=d_e))
        # Type 2 (== Type 3 with -p^{-1} for p): end p, edge p^-2, body
        # parameter p^2.
        if not d_e.is_one and not d_e.is_minus_one and t_eb == d_e ** -2:
            out.append(HeadPattern("T2", (e,), b, body_param=d_e ** 2))
        # Type 4: end p with ord(p) = 3, edge -p, body parameter -p^-1.
        if d_e.order() == 3 and t_eb == d_e * minus_one(m):
            out.append(HeadPattern("T4", (e,), b, body_param=d_e ** -1 * minus_one(m)))
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


def is_bi_classical(g: GDD) -> bool:
    """Two classical head patterns glued to the ends of a shared simple-chain
    body, fixed parameters matched on each side."""
    if not g.is_connected():
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
        order = body.chain_order()
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


def is_classical_plus_semiclassical(g: GDD, continual=None) -> bool:
    """A classical head glued on the tail of a semi-classical diagram.

    One-vertex heads need no side condition; fork heads additionally require
    the trunk to be continual via the matching one-vertex end form, decided
    by the injected ``continual(trunk, tail, kind)`` callable (fork heads are
    skipped when no oracle is supplied)."""
    if not g.is_connected():
        raise ValueError("needs a connected diagram")
    for head in head_patterns(g):
        drop = set(head.vertices)
        rest = [v for v in range(g.rank) if v not in drop]
        if len(rest) < 2 or head.attach not in rest:
            continue
        trunk = g.induced(rest)
        if not trunk.is_connected():
            continue
        pos = {v: i for i, v in enumerate(rest)}
        tau = pos[head.attach]
        if not is_semi_classical(trunk):
            continue
        if tau not in quasi_classical_tails(trunk):
            continue
        # The head parameter must continue the trunk's chain at the tail.
        profile_ok = False
        for nb in trunk.neighbors(tau):
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


def is_bi_semi_classical(g: GDD, all_deletions_arithmetic) -> bool:
    """Two semi-classical diagrams sharing their tail vertex, with every
    single-vertex deletion arithmetic (decided by the injected callable).
    Classical diagrams are arithmetic and never count as this gluing."""
    if not g.is_connected():
        raise ValueError("needs a connected diagram")
    if classical_type(g):
        return False
    for t in range(g.rank):
        rest = [v for v in range(g.rank) if v != t]
        parts = g.induced(rest).component_vertex_sets()
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


def is_continual_extension(g: GDD) -> bool:
    """g is a one-vertex end form (q-end or -1-end) added on the tail of a
    quasi-classical trunk, continuing the chain there."""
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


def shape_tag(g: GDD, continual=None) -> str:
    """First matching tag in the listed priority order (the caller vouches
    that g is quasi-affine)."""
    if is_bi_classical(g):
        return "BiClassical"
    if is_simple_cycle(g):
        return "SimpleCycle"
    if is_continual_extension(g):
        return "Continual"
    if is_classical_plus_semiclassical(g, continual=continual):
        return "ClassicalPlusSemiClassical"
    return "Other"


def continuation_patterns(g: GDD, v: int):
    """Ways of continuing the local chain past vertex v: edge labels t such
    that v becomes a valid simple-chain interior vertex.

    Returns a list of edge labels; v must have exactly one neighbor."""
    nbs = g.neighbors(v)
    if len(nbs) != 1:
        return []
    t_in = g.edge_label(v, nbs[0])
    d = g.diag[v]
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
