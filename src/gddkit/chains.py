"""Simple chains: recognition, fixed-parameter extraction, construction.

A chain of rank n is read in an orientation v_1 .. v_n.  Writing d_i for the
vertex label and t_i for the edge label between v_{i-1} and v_i, the chain is
simple when

  ends:      (d_1 * t_2 - 1)(d_1 + 1) = 0   and   (d_n * t_n - 1)(d_n + 1) = 0
  interior:  d_i = -1 and t_i * t_{i+1} = 1,   or   d_i * t_i = d_i * t_{i+1} = 1.

The fixed parameter of the orientation is q = d_n^2 * t_n, and the index set
records where t_i = q (with t_1 read as (d_1^2 * t_2)^{-1}).

The tests read the labels as exponents mod M: a product of labels is a sum
of exponents, 1 is 0 and -1 is M/2.  A UnityRoot is built only for a
returned parameter.
"""

from __future__ import annotations

from collections import namedtuple

from .core import GDD
from .roots import UnityRoot, minus_one


class ChainProfile(namedtuple("ChainProfile", "q index_set wildcard end",
                              defaults=(frozenset(), False, None))):
    """Fixed parameter and index set of a simple chain, as seen from one end.

    ``end`` records which vertex of the source diagram played v_n; it does not
    take part in equality, so profiles from differently-labelled copies of the
    same chain compare equal.  A profile of a body read inside a larger
    diagram g, as classify reads them, gives ``end`` in g's numbering.  A
    rank-1 chain with vertex label -1 matches any parameter; that is the
    ``wildcard`` profile.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:3] == other[:3]

    def __ne__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:3] != other[:3]

    def __hash__(self):
        return hash(self[:3])


def _exponents(g: GDD, order: list[int]) -> tuple[list[int], list[int]]:
    """The vertex and edge label exponents along ``order``."""
    diag = [g.diag[v].exponent for v in order]
    ties = [g.edges[(u, v) if u < v else (v, u)].exponent for u, v in zip(order, order[1:])]
    return diag, ties


def chain_condition_failures(g: GDD, order: list[int] | None = None) -> list[int]:
    """Positions along the chain order where the simple-chain conditions
    fail; rank 1 never fails.  A caller that knows g.chain_order() passes it
    as ``order``; any path order of some of g's vertices may be passed.
    The conditions are read on label exponents mod M (-1 is M/2)."""
    if order is None:
        order = g.chain_order()
    if order is None:
        raise ValueError("not a chain")
    n = len(order)
    if n == 1:
        return []
    m = g.modulus
    half = m // 2
    d, t = _exponents(g, order)
    bad = []
    if (d[0] + t[0]) % m and d[0] != half:
        bad.append(0)
    for i in range(1, n - 1):
        branch_minus_one = d[i] == half and (t[i - 1] + t[i]) % m == 0
        branch_inverse = (d[i] + t[i - 1]) % m == 0 and (d[i] + t[i]) % m == 0
        if not (branch_minus_one or branch_inverse):
            bad.append(i)
    if (d[-1] + t[-1]) % m and d[-1] != half:
        bad.append(n - 1)
    return bad


def is_simple_chain(g: GDD, order: list[int] | None = None) -> bool:
    """Check the simple-chain conditions; rank 1 always qualifies.  ``order``
    is g.chain_order(), if the caller knows it."""
    return not chain_condition_failures(g, order)


def chain_profile(g: GDD) -> set[ChainProfile]:
    """Profiles of a simple chain, one per orientation (they can coincide)."""
    order = g.chain_order()
    if order is None or not is_simple_chain(g):
        raise ValueError("not a simple chain")
    if len(order) == 1:
        d = g.diag[0]
        if d.is_minus_one:
            return {ChainProfile(None, frozenset(), wildcard=True, end=0)}
        if d.is_one:
            return set()
        return {ChainProfile(d, frozenset(), end=0)}
    out = set()
    for o in (order, order[::-1]):
        p = oriented_profile(g, o)
        if p is not None:
            out.add(p)
    return out


def oriented_profile(g: GDD, order: list[int]) -> ChainProfile | None:
    """Profile for one explicit orientation (last element of order is v_n),
    which may run over some of g's vertices; read on label exponents."""
    n = len(order)
    if n == 1:
        d = g.diag[order[0]]
        if d.is_minus_one:
            return ChainProfile(None, frozenset(), wildcard=True, end=order[0])
        return None if d.is_one else ChainProfile(d, frozenset(), end=order[0])
    m = g.modulus
    d, t = _exponents(g, order)
    q = (2 * d[-1] + t[-1]) % m
    if q == 0:
        return None
    index = {i for i in range(2, n + 1) if t[i - 2] == q}
    # The virtual label (d_1^2 t_2)^{-1} equals q.
    if (2 * d[0] + t[0] + q) % m == 0:
        index.add(1)
    return ChainProfile(UnityRoot(q, m), frozenset(index), end=order[-1])


def _end_options(q: UnityRoot, in_index: bool | None):
    """(d_n, t_n) choices at the oriented end for the given membership of n;
    None accepts both memberships."""
    opts = set()
    if in_index is not False:
        opts.add((minus_one(q.modulus), q))
    if in_index is None or in_index == q.is_minus_one:
        opts.add((q, q ** -1))
    return opts


def _interior_options(q: UnityRoot, t_next: UnityRoot, in_index: bool | None):
    """(d_i, t_i) choices given the edge on the far side; in_index None means
    both memberships are acceptable (used by the unconstrained generator)."""
    opts = set()
    for d, t in (
        (t_next ** -1, t_next),          # d*t = d*t_next = 1
        (minus_one(q.modulus), t_next ** -1),  # d = -1, t*t_next = 1
    ):
        if t.is_one:
            continue
        if in_index is None or (t == q) == in_index:
            opts.add((d, t))
    return opts


def _start_options(q: UnityRoot, t2: UnityRoot, in_index: bool | None):
    """d_1 choices; membership of 1 reads the virtual label (d_1^2 t_2)^{-1}."""
    opts = set()
    for d in (t2 ** -1, minus_one(q.modulus)):
        virtual = (d ** 2 * t2) ** -1
        if in_index is None or (virtual == q) == in_index:
            opts.add(d)
    return opts


def _assemble(modulus: int, d: list[UnityRoot], t: list[UnityRoot]) -> GDD:
    return GDD(
        modulus,
        tuple(d),
        {(i, i + 1): t[i] for i in range(len(t))},
    )


def _build_chains(
    n: int, q: UnityRoot, modulus: int, want: frozenset[int] | None
) -> set[GDD]:
    """Rank-n simple chains with fixed parameter q at vertex n-1 and index
    set ``want`` (None: any index set)."""

    def member(i: int) -> bool | None:
        return None if want is None else i in want

    if n == 1:
        out = {GDD(modulus, (minus_one(modulus),))}
        if not q.is_minus_one and not want:
            out.add(GDD(modulus, (q,)))
        return out
    results: set[GDD] = set()

    def extend(i: int, d_suffix: list[UnityRoot], t_suffix: list[UnityRoot]):
        # d_suffix / t_suffix hold labels for positions i+1 .. n (1-indexed).
        if i == 1:
            for d1 in _start_options(q, t_suffix[0], member(1)):
                results.add(_assemble(modulus, [d1] + d_suffix, t_suffix))
            return
        for d, t in _interior_options(q, t_suffix[0], member(i)):
            extend(i - 1, [d] + d_suffix, [t] + t_suffix)

    for d_n, t_n in _end_options(q, member(n)):
        extend(n - 1, [d_n], [t_n])
    return results


def build_simple_chain(n: int, profile: ChainProfile, modulus: int) -> set[GDD]:
    """All rank-n simple chains whose profile (in the orientation ending at
    vertex n-1) is the given one.  Branches of the defining conditions can
    fork or coincide, hence a set."""
    if profile.wildcard or profile.q is None:
        if n == 1:
            return {GDD(modulus, (minus_one(modulus),))}
        raise ValueError("wildcard profiles only make sense at rank 1")
    q = profile.q
    if q.modulus != modulus:
        raise ValueError("profile modulus mismatch")
    if q.is_one:
        raise ValueError("fixed parameter 1 is not allowed")
    return _build_chains(n, q, modulus, profile.index_set)


def chains_with_parameter(n: int, q: UnityRoot, modulus: int) -> set[GDD]:
    """All rank-n simple chains whose oriented profile at vertex n-1 has fixed
    parameter q, regardless of index set."""
    if q.is_one:
        return set()
    return _build_chains(n, q, modulus, None)
