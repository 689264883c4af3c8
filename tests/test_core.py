import random
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import _row_major, cell_order_key, gdd_to_tuple
from db_rows import DATA
from digests import key_digest
import gddkit.core
from gddkit.core import (
    GDD,
    ParseError,
    from_braiding_matrix,
    isomorphisms,
    least_form,
    minimal_modulus,
    parse_blocks,
    parse_gdd,
    with_modulus,
)
from gddkit.roots import Parameter, UnityRoot, minus_one, one


def u(e, m=6):
    return UnityRoot(e, m)


def path(diag, edges, m=6):
    return GDD(
        m,
        tuple(u(e, m) for e in diag),
        {(i, i + 1): u(t, m) for i, t in enumerate(edges)},
    )


def random_gdd(rng, n, m):
    while True:
        diag = tuple(u(rng.randrange(m), m) for _ in range(n))
        edges = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    e = rng.randrange(1, m)
                    edges[(i, j)] = u(e, m)
        g = GDD(m, diag, edges)
        return g


def test_edge_label_one_rejected():
    with pytest.raises(ValueError):
        GDD(6, (u(2), u(2)), {(0, 1): u(0)})


def test_from_braiding_matrix():
    q = u(2)
    m = [[q, q ** -2], [one(6), q]]
    g = from_braiding_matrix(m)
    assert g.diag == (q, q)
    assert g.edges == {(0, 1): q ** -2}

    a = u(1)
    m2 = [[q, a], [a ** -1, q]]
    g2 = from_braiding_matrix(m2)
    assert g2.edges == {}

    m3 = [[q, one(6)], [one(6), q ** 2]]
    assert from_braiding_matrix(m3).edges == {}


def test_from_braiding_matrix_off_diagonal_swap():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(2, 5)
        mat = [[u(rng.randrange(6)) for _ in range(n)] for _ in range(n)]
        swapped = [[mat[j][i] if i != j else mat[i][i] for j in range(n)] for i in range(n)]
        assert from_braiding_matrix(mat) == from_braiding_matrix(swapped)


def test_delete_vertex_and_components():
    g = path([2, 4, 2, 4, 2], [4, 2, 4, 2])
    mid = g.delete_vertex(2)
    comps = g.delete_vertex(2).components()
    assert len(comps) == 2
    assert sorted(c.rank for c in comps) == [2, 2]
    assert sum(c.rank for c in comps) == mid.rank

    end = g.delete_vertex(0)
    assert end.is_chain() and end.rank == 4

    edgeless = GDD(6, (u(2), u(3), u(4)))
    assert [c.rank for c in edgeless.components()] == [1, 1, 1]

    with pytest.raises(ValueError):
        GDD(6, (u(2),)).delete_vertex(0)
    with pytest.raises(ValueError):
        g.delete_vertex(7)


def test_shape_predicates():
    assert GDD(6, (u(2),)).is_chain()
    assert not GDD(6, (u(2),)).is_cycle()
    cyc = GDD(
        6,
        tuple(u(2) for _ in range(6)),
        {(i, (i + 1) % 6): u(4) for i in range(6)},
    )
    assert cyc.is_cycle() and not cyc.is_chain()
    star = GDD(6, (u(2), u(2), u(2), u(2)), {(0, 1): u(4), (0, 2): u(4), (0, 3): u(4)})
    assert not star.is_chain() and not star.is_cycle()


def test_canonical_key_permutation_invariance():
    rng = random.Random(20240901)
    for trial in range(1000):
        n = rng.randrange(2, 9)
        m = rng.choice([2, 4, 6, 8, 10, 12])
        g = random_gdd(rng, n, m)
        sigma = list(range(n))
        rng.shuffle(sigma)
        assert g.canonical_key() == g.permute(sigma).canonical_key(), (g, sigma)


def brute_force_isomorphic(a: GDD, b: GDD) -> bool:
    if a.rank != b.rank or a.modulus != b.modulus:
        return False
    for sigma in permutations(range(a.rank)):
        if a.permute(list(sigma)) == b:
            return True
    return False


def test_canonical_key_complete_on_random_pairs():
    rng = random.Random(99)
    pairs = 0
    while pairs < 200:
        n = rng.randrange(2, 7)
        m = rng.choice([4, 6, 8])
        a, b = random_gdd(rng, n, m), random_gdd(rng, n, m)
        same_key = a.canonical_key() == b.canonical_key()
        assert same_key == brute_force_isomorphic(a, b)
        pairs += 1


def _reference_set():
    """Random diagrams of rank <= 7 over mu_M, M in {2, ..., 12}, many of them
    dense with few labels; cycles, stars, complete graphs, complete bipartite
    graphs and edgeless graphs; palindromic paths of ranks 8 and 9."""
    rng = random.Random(314)
    out = []
    for _ in range(400):
        n = rng.randrange(1, 8)
        m = rng.randrange(2, 13, 2)
        few = rng.random() < 0.5
        diag_exps = [1, m // 2] if few else range(m)
        edge_exps = [m // 2] if few and rng.random() < 0.5 else range(1, m)
        density = rng.choice([0.2, 0.5, 0.9])
        diag = tuple(u(rng.choice(diag_exps), m) for _ in range(n))
        edges = {
            (i, j): u(rng.choice(edge_exps), m)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        }
        out.append(GDD(m, diag, edges))
    for m in (2, 6, 12):
        d, x = u(1, m), u(m - 1, m)
        for n in range(1, 8):
            diag = (d,) * n
            out.append(GDD(m, diag))
            out.append(GDD(m, diag, {(0, i): x for i in range(1, n)}))
            out.append(GDD(m, diag, {(i, j): x for i in range(n) for j in range(i + 1, n)}))
            out.extend(
                GDD(m, diag, {(i, j): x for i in range(a) for j in range(a, n)})
                for a in range(1, n)
            )
            if n >= 3:
                out.append(GDD(m, diag, {(i, (i + 1) % n): x for i in range(n)}))
    # Paths whose labels read the same from both ends refine into pairs; at
    # ranks 8 and 9 their least form needs every choice that ties for the
    # least row, and keeping a prefix equal to the best one found.
    for n in (8, 9):
        for _ in range(40):
            m = rng.randrange(2, 13, 2)
            ds = [rng.randrange(m) for _ in range((n + 1) // 2)]
            es = [rng.randrange(1, m) for _ in range(n // 2)]
            diag = tuple(u(ds[min(i, n - 1 - i)], m) for i in range(n))
            edges = {(i, i + 1): u(es[min(i, n - 2 - i)], m) for i in range(n - 1)}
            out.append(GDD(m, diag, edges))
    return out


def test_canonical_key_matches_cell_order_reference():
    rng = random.Random(2718)
    for g in _reference_set():
        sigma = list(range(g.rank))
        rng.shuffle(sigma)
        h = g.permute(sigma)
        assert g.canonical_key() == cell_order_key(g), g.to_text()
        assert h.canonical_key() == cell_order_key(h), h.to_text()


def _label_maps(g: GDD):
    labels = [[0] * g.rank for _ in range(g.rank)]
    for (a, b), lab in g.edges.items():
        labels[a][b] = labels[b][a] = lab.exponent
    return [d.exponent for d in g.diag], labels


def brute_force_isomorphisms(g: GDD, h: GDD) -> list[list[int]]:
    """Every permutation p with g.permute(p) == h, by trying all of them."""
    if g.rank != h.rank or g.modulus != h.modulus:
        return []
    (gd, gl), (hd, hl) = _label_maps(g), _label_maps(h)
    n = g.rank
    return [
        list(p) for p in permutations(range(n))
        if all(hd[p[v]] == gd[v] for v in range(n))
        and all(hl[p[a]][p[b]] == gl[a][b] for a in range(n) for b in range(a + 1, n))
    ]


def _isomorphism_cases():
    """Diagrams of rank <= 6: the reference set's, twins (vertices with the
    same label and the same labelled neighbours), and a twin-rich cycle and
    star with one distinguished vertex."""
    out = [g for g in _reference_set() if g.rank <= 6]
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randrange(2, 7)
        m = rng.choice([2, 4, 6])
        g = random_gdd(rng, n - 1, m)
        t = rng.randrange(n - 1)
        twin_edges = [(v, lab) for (a, b), lab in g.edges.items()
                      for v in (a, b) if t in (a, b) and v != t]
        if rng.random() < 0.5:
            twin_edges.append((t, u(rng.randrange(1, m), m)))
        out.append(g.add_vertex(g.diag[t], twin_edges))
    for m in (4, 6):
        d, x = u(1, m), u(m - 1, m)
        for n in (4, 5, 6):
            cyc = {(i, (i + 1) % n): x for i in range(n)}
            out.append(GDD(m, (u(2, m),) + (d,) * (n - 1), cyc))
            out.append(GDD(m, (d,) * n, {**cyc, (0, 2): x}))
            out.append(GDD(m, (u(2, m),) + (d,) * (n - 1), {(0, i): x for i in range(1, n)}))
    return out


def test_isomorphisms_match_brute_force():
    rng = random.Random(1618)
    cases = _isomorphism_cases()
    symmetric = 0
    for g in cases:
        sigma = list(range(g.rank))
        rng.shuffle(sigma)
        h = g.permute(sigma)
        found = sorted(isomorphisms(g, h))
        assert found == sorted(brute_force_isomorphisms(g, h)), g.to_text()
        assert sigma in found
        automorphisms = list(isomorphisms(g, g))
        assert len(automorphisms) == len(found) == len(brute_force_isomorphisms(g, g))
        symmetric += len(automorphisms) > 1
    assert symmetric > 100
    # Pairs that are mostly not isomorphic, of equal rank and modulus.
    for _ in range(300):
        n = rng.randrange(1, 7)
        m = rng.choice([2, 4])
        a, b = random_gdd(rng, n, m), random_gdd(rng, n, m)
        assert sorted(isomorphisms(a, b)) == brute_force_isomorphisms(a, b)
    assert list(isomorphisms(GDD(4, (u(1, 4),)), GDD(6, (u(1, 6),)))) == []


def test_canonical_key_examples():
    q = u(2)
    a = path([2, 2, 3], [4, 4])  # (q, q, -1)
    b = path([2, 3, 2], [4, 4])  # (q, -1, q)
    assert a.canonical_key() != b.canonical_key()

    # The two rank-3 chains (q, q, q^-3) and (q^-3, q, q) with edges q^-1
    # inside mu_18 (q of order 9) are the same diagram written backwards.
    m = 18
    qq = UnityRoot(2, m)
    c = GDD(m, (qq, qq, qq ** -3), {(0, 1): qq ** -1, (1, 2): qq ** -1})
    d = GDD(m, (qq ** -3, qq, qq), {(0, 1): qq ** -1, (1, 2): qq ** -1})
    assert c.canonical_key() == d.canonical_key()


def test_canonical_key_is_kept_per_object(monkeypatch):
    """The key is computed once and kept on the object: equal bytes on every
    call, no effect on == and hash, and every derived diagram computes its
    own key, which a relabelled copy and a lift into a larger mu_M share.
    A diagram above its minimal modulus keys itself with one least_form,
    and the second canonical_key call runs none."""
    rng = random.Random(31)
    for _ in range(40):
        m = rng.choice([4, 6, 12])
        g = random_gdd(rng, rng.randrange(2, 7), m)
        twin = GDD(g.modulus, g.diag, dict(g.edges))
        key = g.canonical_key()
        assert g.canonical_key() == key == cell_order_key(g)
        assert g == twin and hash(g) == hash(twin) and twin in {g}
        assert twin.canonical_key() == key
        sigma = list(range(g.rank))
        rng.shuffle(sigma)
        derived = [g.permute(sigma), g.delete_vertex(0), g.power_twist(m - 1),
                   with_modulus(g, 2 * m)]
        for h in derived:
            assert h.canonical_key() == cell_order_key(h), h.to_text()
        assert derived[0].canonical_key() == key
        assert derived[3].canonical_key() == key

    runs = []

    def counted(colours, labels):
        runs.append(len(colours))
        return least_form(colours, labels)

    monkeypatch.setattr(gddkit.core, "least_form", counted)
    g = path([3, 1, 2], [2, 3], m=4)
    lifted = with_modulus(g, 12)
    assert minimal_modulus(lifted) == 4
    key = lifted.canonical_key()
    assert runs == [3]
    assert lifted.canonical_key() == key
    assert runs == [3]
    assert key == g.canonical_key()
    assert lifted == with_modulus(g, 12)


def _key_corpus():
    """The transcribed fixture blocks, the stored rows with their twists,
    the connected deletions of each, and one seeded relabelling of each."""
    fixtures = Path(__file__).parent / "fixtures"
    blocks = [g for name in ["items_cs.gdd", "items_continual.gdd", "items_main.gdd"]
              for g, _, _ in parse_blocks((fixtures / name).read_text())]
    stored = parse_blocks(DATA.read_text())
    assert (len(blocks), len(stored)) == (334, 99)
    corpus = blocks + [t for g, _, _ in stored for t in g.twists()]
    corpus += [d for g in corpus for d in map(g.delete_vertex, range(g.rank))
               if d.is_connected()]
    rng = random.Random(2014)
    relabelled = []
    for g in corpus:
        sigma = list(range(g.rank))
        rng.shuffle(sigma)
        relabelled.append(g.permute(sigma))
    return corpus + relabelled


def test_key_digest_is_pinned():
    """The canonical key bytes and canonical orders of a fixed corpus, as
    first recorded: any change to the kernel that moves one shows here."""
    corpus = _key_corpus()
    assert len(corpus) == 4184
    assert key_digest(corpus) == (
        "ed42bb1767d57da84d4fc24409e59dde2886f19ad3957d9eedf046df805b4033"
    )


@st.composite
def _branching_diagrams(draw):
    """Cycles, stars and diagrams with twins, all with equal labels where
    it matters, at M in {2, 4, 6, 10}: the inputs on which least_form
    branches.  A cycle or star may carry one distinguished vertex label.
    Paths of rank 8 or 9 that read the same from both ends add the inputs
    whose first branch to the end is not always the least."""
    m = draw(st.sampled_from([2, 4, 6, 10]))
    n = draw(st.integers(3, 6))
    d, x = u(draw(st.integers(0, m - 1)), m), u(draw(st.integers(1, m - 1)), m)
    diag = (u(draw(st.integers(0, m - 1)), m),) + (d,) * (n - 1)
    kind = draw(st.sampled_from(["cycle", "star", "twins", "palindrome"]))
    if kind == "palindrome":
        n = draw(st.integers(8, 9))
        ds = [u(draw(st.integers(0, m - 1)), m) for _ in range((n + 1) // 2)]
        es = [u(draw(st.integers(1, m - 1)), m) for _ in range(n // 2)]
        return GDD(m, tuple(ds[min(i, n - 1 - i)] for i in range(n)),
                   {(i, i + 1): es[min(i, n - 2 - i)] for i in range(n - 1)})
    if kind == "cycle":
        return GDD(m, diag, {(i, (i + 1) % n): x for i in range(n)})
    if kind == "star":
        return GDD(m, diag, {(0, i): x for i in range(1, n)})
    # Copies of vertex 0 of a random diagram, joined to its neighbours by
    # its own edge labels, and possibly to vertex 0 by x.
    k = draw(st.integers(2, n - 1))
    edges = {
        (i, j): u(draw(st.integers(1, m - 1)), m)
        for i in range(k) for j in range(i + 1, k) if draw(st.booleans())
    }
    g = GDD(m, diag[:1] + tuple(u(draw(st.integers(0, m - 1)), m) for _ in range(k - 1)),
            edges)
    to_zero = [(w, lab) for (a, w), lab in g.edges.items() if a == 0]
    joined = draw(st.booleans())
    for _ in range(n - k):
        g = g.add_vertex(g.diag[0], to_zero + ([(0, x)] if joined else []))
    return g


@settings(max_examples=150, deadline=None)
@given(_branching_diagrams(), st.randoms(use_true_random=False))
def test_canonical_order_reads_the_least_form(g, rng):
    """Reading g in its canonical order gives its key, and pairing the
    canonical orders of g and a relabelled copy h is an isomorphism g -> h."""
    order = g.canonical_order()
    assert sorted(order) == list(range(g.rank))
    n, m, diag, edges = gdd_to_tuple(g)
    payload = (n, m) + _row_major(n, diag, edges, order)
    assert b"k" + b",".join(str(x).encode() for x in payload) == g.canonical_key()
    assert g.canonical_key() == cell_order_key(g)
    sigma = list(range(g.rank))
    rng.shuffle(sigma)
    h = g.permute(sigma)
    phi = [0] * g.rank
    for v, w in zip(order, h.canonical_order()):
        phi[v] = w
    assert phi in list(isomorphisms(g, h))


_random_diagrams = st.builds(
    random_gdd, st.randoms(use_true_random=False), st.integers(1, 6),
    st.sampled_from([2, 4, 6, 12]),
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_branching_diagrams(), _random_diagrams), st.integers(2, 4))
def test_lift_shares_key_and_order(g, c):
    """A lift of g into mu_cM has g's canonical key and canonical order, and
    keying it runs one least_form and builds no diagram; a lift of g once g
    is keyed carries g's key and order and runs none."""
    lift = with_modulus(g, c * g.modulus)
    runs, builds = [], []

    def counted(colours, labels):
        runs.append(len(colours))
        return least_form(colours, labels)

    post_init = GDD.__post_init__

    def built(self):
        builds.append(self)
        post_init(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gddkit.core, "least_form", counted)
        mp.setattr(GDD, "__post_init__", built)
        key, order = lift.canonical_key(), lift.canonical_order()
    assert runs == [g.rank] and builds == []
    assert key == g.canonical_key() and order == g.canonical_order()
    relift = with_modulus(g, c * g.modulus)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gddkit.core, "least_form", counted)
        assert (relift.canonical_key(), relift.canonical_order()) == (key, order)
    assert runs == [g.rank] and relift == lift


def test_edge_given_in_both_orientations_is_rejected():
    m = 4
    with pytest.raises(ValueError, match="duplicate edge"):
        GDD(m, (u(1, m), u(1, m)), {(0, 1): u(1, m), (1, 0): u(3, m)})
    with pytest.raises(ValueError, match="duplicate edge"):
        GDD(m, (u(1, m),) * 3, {(0, 1): u(2, m), (2, 1): u(3, m), (1, 2): u(3, m)})
    g = GDD(m, (u(1, m), u(1, m)), {(1, 0): u(3, m)})
    assert g.edges == {(0, 1): u(3, m)}


def test_power_twist():
    g = path([2, 3, 4], [4, 2])
    t = g.power_twist(5)
    assert t.diag == (u(10 % 6), u(15 % 6), u(20 % 6))
    with pytest.raises(ValueError):
        g.power_twist(2)


def test_modulus_normalization():
    g = path([3, 3], [3], m=6)  # all labels are -1
    assert minimal_modulus(g) == 2
    small = with_modulus(g, 2)
    assert small.modulus == 2
    assert g.canonical_key() == small.canonical_key()
    lifted = with_modulus(small, 12)
    assert lifted.canonical_key() == g.canonical_key()


def test_text_round_trip():
    g = path([2, 3, 2, 4], [4, 1, 5])
    text = g.to_text()
    assert parse_gdd(text) == g

    blocks = parse_blocks("# row=11 gdd=1 N=3\n" + text + "\n\n" + g.to_text())
    assert len(blocks) == 2
    assert blocks[0][1] == {"row": "11", "gdd": "1", "N": "3"}


def test_parse_errors_carry_line_numbers():
    bad = "gdd M=6 n=2\ndiag 2 2\nedge 1 2 0"
    with pytest.raises(ParseError) as exc:
        parse_gdd(bad)
    assert exc.value.line == 3


@pytest.mark.parametrize(
    "text",
    ["gdd M=0 n=1\ndiag 1", "gdd M=3 n=1\ndiag 1", "gdd M=4 n=-1\ndiag 1"],
)
def test_bad_header_fields_fail_on_the_header_line(text):
    with pytest.raises(ParseError) as exc:
        parse_blocks("# item=x\n" + text)
    assert exc.value.line == 2


# Texts near the format: header, diag and edge lines with small or bad
# fields, comments, blank lines and stray tokens, so that most draws reach
# the checks past the header.
_TOKENS = st.sampled_from(
    ["gdd", "diag", "edge", "#", "item=x", "M=4", "M=6", "M=3", "M=0", "n=1",
     "n=2", "n=3", "n=0", "n=-1", "M=x", "x", "1.5", "-1", "0", ""]
) | st.integers(-3, 8).map(str)
_LINES = st.lists(_TOKENS, max_size=5).map(" ".join)
_NEAR_FORMAT = st.lists(_LINES, max_size=8).map("\n".join)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), _NEAR_FORMAT))
def test_parse_blocks_returns_or_raises_parse_error_with_a_line(text):
    try:
        blocks = parse_blocks(text)
    except ParseError as exc:
        assert 1 <= exc.line <= len(text.splitlines())
    else:
        assert all(isinstance(g, GDD) for g, _, _ in blocks)


def test_dot_export():
    g = path([2, 3], [4])
    dot = g.to_dot(Parameter(3))
    assert 'label="q"' in dot and 'label="-1"' in dot and "v1 -- v2" in dot
