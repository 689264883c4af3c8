from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from gddkit.chains import (
    ChainProfile,
    build_simple_chain,
    chain_condition_failures,
    chain_profile,
    chains_with_parameter,
    is_simple_chain,
    oriented_profile,
)
from gddkit.core import GDD
from gddkit.roots import UnityRoot, minus_one


def path(diag, edges, m=6):
    return GDD(
        m,
        tuple(UnityRoot(e, m) for e in diag),
        {(i, i + 1): UnityRoot(t, m) for i, t in enumerate(edges)},
    )


def reference_is_simple_chain(g: GDD) -> bool:
    """Direct evaluation of the three defining conditions, written separately
    from the library code path."""
    order = g.chain_order()
    assert order is not None
    n = len(order)
    if n == 1:
        return True
    m = g.modulus
    d = [g.diag[v].exponent for v in order]
    t = [g.edges[tuple(sorted((order[i], order[i + 1])))].exponent for i in range(n - 1)]
    half = m // 2

    def ok_end(de, te):
        return (de + te) % m == 0 or de == half

    if not ok_end(d[0], t[0]) or not ok_end(d[-1], t[-1]):
        return False
    for i in range(1, n - 1):
        cond_a = d[i] == half and (t[i - 1] + t[i]) % m == 0
        cond_b = (d[i] + t[i - 1]) % m == 0 and (d[i] + t[i]) % m == 0
        if not cond_a and not cond_b:
            return False
    return True


def test_examples_from_the_defining_figures():
    # All-q chain with edges q^-1 (q of order 7 inside mu_14).
    g = path([2] * 5, [12] * 4, m=14)
    assert is_simple_chain(g)
    profs = chain_profile(g)
    assert ChainProfile(UnityRoot(2, 14), frozenset()) in profs

    # q^-1, ..., q^-1, -1 with all edges q: index set {1..n}.
    g2 = path([12, 12, 12, 12, 7], [2] * 4, m=14)
    assert is_simple_chain(g2)
    profs2 = chain_profile(g2)
    assert ChainProfile(UnityRoot(2, 14), frozenset({1, 2, 3, 4, 5})) in profs2


def test_interior_failure():
    # q, q^2, q with edges q^-1 and q of order 5: interior vertex fails both
    # branches.
    g = path([2, 4, 2], [8, 8], m=10)
    assert not is_simple_chain(g)


def test_non_chain_rejected():
    star = GDD(
        6,
        tuple(UnityRoot(2, 6) for _ in range(4)),
        {(0, 1): UnityRoot(4, 6), (0, 2): UnityRoot(4, 6), (0, 3): UnityRoot(4, 6)},
    )
    with pytest.raises(ValueError):
        is_simple_chain(star)


def test_rank_one_conventions():
    q = UnityRoot(2, 6)
    g = GDD(6, (q,))
    assert is_simple_chain(g)
    assert chain_profile(g) == {ChainProfile(q, frozenset())}
    gm = GDD(6, (minus_one(6),))
    (p,) = chain_profile(gm)
    assert p.wildcard and p.matches_parameter(q)


def all_paths(n, m):
    if n == 1:
        for e in range(m):
            yield path([e], [], m)
        return
    for diag in product(range(m), repeat=n):
        for edges in product(range(1, m), repeat=n - 1):
            yield path(list(diag), list(edges), m)


@pytest.mark.parametrize("n,m", [(1, 6), (2, 6), (3, 6), (4, 4), (2, 8), (3, 8)])
def test_agrees_with_reference_evaluation(n, m):
    for g in all_paths(n, m):
        assert is_simple_chain(g) == reference_is_simple_chain(g), g.to_text()


def test_reversal_invariance():
    for g in all_paths(3, 6):
        assert is_simple_chain(g) == is_simple_chain(g.reversed_chain())


def test_build_examples():
    q = UnityRoot(2, 6)
    built = build_simple_chain(5, ChainProfile(q, frozenset()), 6)
    assert path([2] * 5, [4] * 4) in built

    built_full = build_simple_chain(5, ChainProfile(q, frozenset(range(1, 6))), 6)
    assert path([4, 4, 4, 4, 3], [2] * 4) in built_full


@pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 12])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_round_trip_exhaustive(n, m):
    """Every simple chain reachable from any (q, I) builds back to itself."""
    seen = set()
    for qe in range(1, m):
        q = UnityRoot(qe, m)
        for g in chains_with_parameter(n, q, m):
            seen.add(g.to_text())
            for p in chain_profile(g):
                if p.wildcard:
                    continue
                rebuilt = build_simple_chain(n, p, m)
                matched = any(
                    g.canonical_key() == h.canonical_key() for h in rebuilt
                )
                assert matched, (g.to_text(), p)
    # Cross-check the generator against brute force on small sizes: every
    # simple chain (with non-degenerate vertex labels) must be reachable.
    if n <= 3 and m <= 6:
        for g in all_paths(n, m):
            if any(d.is_one for d in g.diag):
                continue
            if is_simple_chain(g):
                assert g.to_text() in seen, g.to_text()


def test_oriented_profile_orientation_dependence():
    # q^-1, ..., -1 with edges q: parameter q read at the -1 end, q^-1 at the
    # other end.
    g = path([12, 12, 7], [2, 2], m=14)
    q = UnityRoot(2, 14)
    at_minus_one = oriented_profile(g, [0, 1, 2])
    at_other = oriented_profile(g, [2, 1, 0])
    assert at_minus_one.q == q
    assert at_other.q == q ** -1


@st.composite
def path_orders(draw):
    """A diagram at M in {2, 4, ..., 12} with up to 8 vertices and a path
    order through some of them (all, or a proper subset), labels -1 often;
    further edges join vertices off the order's consecutive pairs."""
    m = draw(st.sampled_from([2, 4, 6, 8, 10, 12]))
    n = draw(st.integers(1, 8))
    half = m // 2
    diag = [draw(st.one_of(st.just(half), st.integers(0, m - 1))) for _ in range(n)]
    order = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    label = st.one_of(st.just(half), st.integers(1, m - 1))
    edges = {}
    for u, v in zip(order, order[1:]):
        edges[(min(u, v), max(u, v))] = UnityRoot(draw(label), m)
    steps = set(edges)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in steps and draw(st.booleans()):
                edges[(u, v)] = UnityRoot(draw(label), m)
    return GDD(m, tuple(UnityRoot(e, m) for e in diag), edges), order


@settings(max_examples=400, deadline=None)
@given(path_orders())
def test_exponent_chain_tests_match_unity_root_reference(case):
    """The chain tests read on exponents equal the UnityRoot reference on
    any path order, in both orientations; ``end`` is compared too."""
    g, order = case
    for o in (order, order[::-1]):
        assert chain_condition_failures(g, o) == reference.chain_condition_failures(g, o)
        got, want = oriented_profile(g, o), reference.oriented_profile(g, o)
        assert got == want
        assert (got is None) or got.end == want.end
