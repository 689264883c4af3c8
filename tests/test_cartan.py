import random
import time
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

import reference
from brute import _det_int, bf_same_up_to_permutation, indep_finite_cartan_matrix
from cartan_matrices import all_gcms, finite_reference_list, same_up_to_permutation
from gddkit.cartan import (
    FAMILY_NAMES,
    AffineFamily,
    admissible,
    affine_family_of,
    arithmetic_via_cartan,
    braiding_exponents,
    build_affine_gdd,
    catalogue,
    display,
    e_type_diagrams,
    is_affine_cartan,
    is_finite_cartan,
    is_generalized_cartan,
    is_indecomposable,
)
from gddkit.core import GDD, parse_blocks
from gddkit.roots import UnityRoot, minus_one, one
from gddkit.tables import generate_classical


def u(e, m):
    return UnityRoot(e, m)


def test_braiding_exponents_examples():
    q = u(2, 10)  # order 5
    g = GDD(10, (q, q), {(0, 1): q ** -2})
    assert braiding_exponents(g) == ((2, -2), (-2, 2))

    edgeless = GDD(10, (q, q ** 2))
    assert braiding_exponents(edgeless) == ((2, 0), (0, 2))

    # -1 cannot produce q^-1 as a power: not of Cartan type
    m = 6
    g3 = GDD(6, (u(2, m), minus_one(m)), {(0, 1): u(2, m) ** -1})
    assert braiding_exponents(g3) is None

    with pytest.raises(ValueError):
        braiding_exponents(GDD(6, (one(6), u(2, 6)), {(0, 1): u(2, 6)}))


def test_edge_read_matrix_matches_dense_reference():
    """braiding_exponents reads the edges only; the reference reads every
    vertex pair.  They agree on every fixture block and every diagram of
    the benchmark's check batch, and on each one's vertex deletions."""
    root = Path(__file__).parent
    paths = sorted((root / "fixtures").glob("*.gdd"))
    paths.append(root.parent / "perfbench" / "data" / "check_batch.gdd")
    blocks = [g for path in paths for g, _, _ in parse_blocks(path.read_text())]
    assert len(blocks) == 334 + 306
    cartan_type = 0
    for g in blocks:
        for h in [g] + [g.delete_vertex(v) for v in range(g.rank)]:
            a = braiding_exponents(h)
            assert a == reference.braiding_exponents(h), h.to_text()
            cartan_type += a is not None
    assert cartan_type > 500


def test_finite_and_affine_recognition():
    assert is_finite_cartan(((2, -1), (-1, 2)))
    assert not is_finite_cartan(((2, -2), (-2, 2)))
    assert is_affine_cartan(((2, -2), (-2, 2)))
    assert is_affine_cartan(((2, -4), (-1, 2)))
    assert not is_affine_cartan(((2, -1), (-1, 2)))
    # G_2 belongs to the finite classification
    assert is_finite_cartan(((2, -1), (-3, 2)))
    # decomposable: not affine
    assert not is_affine_cartan(((2, 0, -1), (0, 2, 0), (-1, 0, 2)))
    with pytest.raises(ValueError):
        is_affine_cartan(((2, 1), (1, 2)))


@pytest.mark.parametrize("n", [2, 3])
def test_minor_criterion_matches_classification(n):
    """Exhaustive: the minor-based finite test agrees with membership in the
    explicit finite list (up to simultaneous permutation), for indecomposable
    matrices."""
    reference = finite_reference_list(n)
    for a in all_gcms(n):
        if not is_indecomposable(a):
            continue
        expected = any(same_up_to_permutation(a, r) for r in reference)
        assert is_finite_cartan(a) == expected, a


def _reference_matrices(rank):
    """Each family's matrix at the given rank, by name, read off the
    catalogue at a parameter of order 30 (no exponent collapses)."""
    return {fam.name: braiding_exponents(g)
            for fam, g in catalogue(u(2, 60), rank) if g.rank == rank}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_elimination_matches_the_per_block_test_exhaustively(n):
    """is_finite_cartan eliminates the whole matrix at once; the reference
    splits it into blocks first.  They agree on every matrix with entries
    >= -4 at ranks 1-3, decomposable ones included, and is_affine_cartan
    says no to every decomposable one."""
    seen = Counter()
    for a in all_gcms(n):
        finite = reference.is_finite_cartan_by_blocks(a)
        assert is_finite_cartan(a) == finite, a
        whole = is_indecomposable(a)
        if not whole:
            assert not is_affine_cartan(a), a
        seen[finite, whole] += 1
    assert seen == {
        1: {(True, True): 1},
        2: {(True, True): 5, (False, True): 11, (True, False): 1},
        3: {(True, True): 15, (False, True): 4849, (True, False): 16, (False, False): 33},
    }[n]


def _random_forest(rng, n):
    """A random forest on n vertices, mostly simply laced and path-like so
    that blocks of finite type are common: vertex j joins j - 1 or an
    earlier vertex, or stays apart from them."""
    edges = [(-1, -1)] * 8 + [(-1, -2), (-2, -1), (-1, -3), (-3, -1)]
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for j in range(1, n):
        i = j - 1 if rng.random() < 0.85 else rng.randrange(j)
        if rng.random() < 0.85:
            m[i][j], m[j][i] = rng.choice(edges)
    return tuple(tuple(row) for row in m)


def test_one_elimination_matches_the_per_block_test_on_samples():
    """The same on seeded random matrices and forests at ranks 4-9, each
    also under a random simultaneous permutation."""
    rng = random.Random(37)
    seen = Counter()
    for i in range(4000):
        n = rng.randint(4, 9)
        if i % 2:
            a = _random_gcm(rng, n, density=rng.choice([0.1, 0.2, 0.3, 0.6]))
        else:
            a = _random_forest(rng, n)
        finite = reference.is_finite_cartan_by_blocks(a)
        assert is_finite_cartan(a) == finite, a
        p = list(range(n))
        rng.shuffle(p)
        assert is_finite_cartan(_permuted(a, p)) == finite, (a, p)
        seen[finite, is_indecomposable(a)] += 1
    assert seen == {(True, True): 190, (False, True): 1328,
                    (True, False): 951, (False, False): 1531}


def _permuted(a, p):
    n = len(a)
    return tuple(tuple(a[p[i]][p[j]] for j in range(n)) for i in range(n))


def _random_gcm(rng, n, density=0.6):
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                m[i][j], m[j][i] = -rng.randrange(1, 3), -rng.randrange(1, 3)
    return tuple(tuple(row) for row in m)


def test_same_up_to_permutation_matches_permutation_search():
    rng = random.Random(11)
    agree = 0
    for _ in range(800):
        n = rng.randrange(1, 5)
        a = _random_gcm(rng, n)
        p = list(range(n))
        rng.shuffle(p)
        b = _random_gcm(rng, n) if rng.random() < 0.4 else _permuted(a, p)
        if n >= 2 and rng.random() < 0.5:
            # transpose one pair of entries: often a near miss
            i, j = rng.sample(range(n), 2)
            rows = [list(r) for r in b]
            rows[i][j], rows[j][i] = rows[j][i], rows[i][j]
            b = tuple(tuple(r) for r in rows)
        want = bf_same_up_to_permutation(a, b)
        assert same_up_to_permutation(a, b) == want, (a, b)
        agree += want
    assert 200 < agree < 700


def test_finite_test_matches_minor_by_minor_reference():
    """One elimination per block decides as a separate determinant for each
    leading principal minor does, on random matrices up to n = 9."""
    rng = random.Random(29)
    finite = 0
    for _ in range(1500):
        n = rng.randint(1, 9)
        a = _random_gcm(rng, n, density=rng.choice([0.15, 0.3, 0.6]))
        expected = indep_finite_cartan_matrix(a)
        assert is_finite_cartan(a) == expected, a
        finite += expected
    assert 100 < finite < 1400


def _deletion_affine(a):
    """Affine by definition: determinant zero (rational elimination) and
    every one-vertex deletion of finite type (minor by minor)."""
    n = len(a)
    return _det_int(a) == 0 and all(
        indep_finite_cartan_matrix(tuple(tuple(a[i][j] for j in keep) for i in keep))
        for keep in ([j for j in range(n) if j != v] for v in range(n))
    )


@pytest.mark.parametrize("n", [2, 3])
def test_affine_test_matches_deletion_reference_exhaustively(n):
    """The one-elimination affine test against the definition on every
    indecomposable matrix with entries >= -4 at ranks 2 and 3."""
    affine = 0
    for a in all_gcms(n):
        if is_indecomposable(a):
            expected = _deletion_affine(a)
            assert is_affine_cartan(a) == expected, a
            affine += expected
    assert affine == {2: 3, 3: 25}[n]


_EDGES = [(-1, -1)] * 6 + [(-1, -2), (-2, -1), (-1, -3), (-3, -1), (-2, -2), (-1, -4), (-4, -1)]


def test_affine_test_matches_deletion_reference_on_samples():
    """The catalogue's reference matrices at ranks 2-9, then seeded samples
    at ranks 4-9: random connected matrices (a random tree plus sparse
    extra edges), and permuted reference matrices with one entry pair often
    redrawn, so that both answers occur."""
    refs = [a for rank in range(2, 10) for a in _reference_matrices(rank).values()]
    for a in refs:
        assert is_affine_cartan(a) and _deletion_affine(a), a
    rng = random.Random(31)
    samples = []
    for _ in range(2000):
        n = rng.randint(4, 9)
        m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        pairs = [(rng.randrange(j), j) for j in range(1, n)]
        pairs += [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.08]
        for i, j in pairs:
            m[i][j], m[j][i] = rng.choice(_EDGES)
        samples.append(m)
    ranked = [a for a in refs if len(a) >= 4]
    for _ in range(600):
        a = rng.choice(ranked)
        n = len(a)
        p = list(range(n))
        rng.shuffle(p)
        m = [[a[p[i]][p[j]] for j in range(n)] for i in range(n)]
        if rng.random() < 0.7:
            i, j = rng.sample(range(n), 2)
            m[i][j], m[j][i] = rng.choice(_EDGES + [(0, 0)])
        samples.append(m)
    checked = affine = 0
    for m in samples:
        a = tuple(tuple(row) for row in m)
        if not is_indecomposable(a):
            continue
        expected = _deletion_affine(a)
        assert is_affine_cartan(a) == expected, a
        checked += 1
        affine += expected
    assert checked > 2500 and 200 < affine < checked - 1500


def test_same_up_to_permutation_on_permuted_references():
    rng = random.Random(12)
    for rank in range(2, 10):
        refs = _reference_matrices(rank)
        for name, a in refs.items():
            p = list(range(rank))
            rng.shuffle(p)
            b = _permuted(a, p)
            assert [m for m, r in refs.items() if same_up_to_permutation(b, r)] == [name]


def test_symmetric_cycle_key_and_family_are_fast():
    # A1_N at N=8 is the rank-9 cycle with every vertex alike: 9! orders
    # keep its single refined cell contiguous
    g = build_affine_gdd(AffineFamily("A1_N", 8), u(2, 6))
    start = time.perf_counter()
    g.canonical_key()
    family = affine_family_of(g)
    assert time.perf_counter() - start < 1.0
    assert family == AffineFamily("A1_N", 8)


def test_finite_affine_mutually_exclusive():
    for a in all_gcms(2, lo=-3):
        if is_indecomposable(a):
            assert not (is_finite_cartan(a) and is_affine_cartan(a))


def _sample_parameters(name):
    """Three admissible parameters for the family."""
    out = []
    for order in (3, 4, 5, 6, 7, 8, 9):
        from math import lcm

        q = UnityRoot(lcm(2, order) // order, lcm(2, order))
        if admissible(name, q):
            out.append(q)
        if len(out) == 3:
            return out
    raise AssertionError(name)


def _families_to_check():
    """Each family at its least size (A1_N at the next one)."""
    sizes = {}
    for fam, _ in catalogue(u(2, 60)):
        sizes.setdefault(fam.name, []).append(fam.size)
    for name in FAMILY_NAMES:
        yield AffineFamily(name, sizes[name][1 if name == "A1_N" else 0])


def test_catalogue_matrices_are_affine_and_round_trip():
    checks = 0
    for fam in _families_to_check():
        for q in _sample_parameters(fam.name):
            g = build_affine_gdd(fam, q)
            a = braiding_exponents(g)
            assert a is not None, fam
            assert is_generalized_cartan(a)
            assert is_affine_cartan(a), (fam, q)
            got = affine_family_of(g)
            assert got is not None and got.name == fam.name, (fam, q, got)
            checks += 1
    assert checks == 48


def test_every_family_round_trips_at_every_size_up_to_rank_12():
    """affine_family_of names the family and size of every catalogue
    diagram up to rank 12, at every order of q from 2 to 7 and at order 30;
    a family is built only where q is admissible for it."""
    counts = []
    for q in [u(1, 2), u(2, 6), u(1, 4), u(2, 10), u(1, 6), u(2, 14), u(2, 60)]:
        built = catalogue(q, 12)
        for fam, g in built:
            assert affine_family_of(g) == fam, (fam, q)
        counts.append(len(built))
    assert counts == [21, 62, 64, 75, 75, 75, 75]


def test_display_names_and_unknown_family():
    assert " ".join(map(display, FAMILY_NAMES)) == (
        "A^(1)_1 A^(1)_N B^(1)_N C^(1)_N D^(1)_N E^(1)_6 E^(1)_7 E^(1)_8 "
        "F^(1)_4 G^(1)_2 A^(2)_2 A^(2)_2N A^(2)_2N-1 D^(2)_N+1 E^(2)_6 D^(3)_4")
    with pytest.raises(ValueError):
        admissible("A1_M", u(2, 60))


def test_build_affine_examples():
    q5 = u(2, 10)
    cyc = build_affine_gdd(AffineFamily("A1_N", 3), q5)
    assert cyc.rank == 4 and cyc.is_cycle()
    assert all(d == q5 for d in cyc.diag)

    d2 = build_affine_gdd(AffineFamily("D2_N+1", 2), q5)
    assert [x.exponent for x in d2.diag] == [4, 2, 4]
    assert sorted(e.exponent for e in d2.edges.values()) == [6, 6]

    q7 = u(2, 14)
    g2 = build_affine_gdd(AffineFamily("G1_2", None), q7)
    assert [x.exponent for x in g2.diag] == [2, 2, 6]

    with pytest.raises(ValueError):
        build_affine_gdd(AffineFamily("G1_2", None), u(2, 6))  # order 3


def test_affine_family_of_rejects_finite():
    q = u(2, 14)
    chain = GDD(14, (q, q, q), {(0, 1): q ** -1, (1, 2): q ** -1})
    assert affine_family_of(chain) is None


def test_arithmetic_shortcut():
    q = u(2, 14)
    chain = GDD(14, (q, q, q), {(0, 1): q ** -1, (1, 2): q ** -1})
    assert arithmetic_via_cartan(chain) is True

    a11 = build_affine_gdd(AffineFamily("A1_1", None), u(2, 10))
    assert arithmetic_via_cartan(a11) is False

    m = 6
    non_cartan = GDD(6, (u(2, m), minus_one(m)), {(0, 1): u(2, m) ** -1})
    assert arithmetic_via_cartan(non_cartan) is None


def test_shortcut_true_on_cartan_type_classical():
    seen = 0
    for g in sorted(generate_classical(5, 6), key=lambda g: g.to_text()):
        verdict = arithmetic_via_cartan(g)
        if verdict is not None:
            assert verdict is True, g.to_text()
            seen += 1
    assert seen > 0


@pytest.mark.parametrize("rank, modulus", [(2, 4), (2, 12), (3, 4), (3, 6), (4, 2)])
def test_finite_cartan_diagrams_match_every_labelling(rank, modulus):
    """The reference leaf-by-leaf growth finds, one per relabelling class,
    exactly the connected diagrams of finite Cartan type among all
    labellings of the complete graph's edge subsets."""
    pairs = [(i, j) for i in range(rank) for j in range(i + 1, rank)]
    labels = [u(e, modulus) for e in range(modulus)]
    expected = set()
    for diag in product(labels[1:], repeat=rank):
        for edge_labels in product(labels, repeat=len(pairs)):
            edges = {p: lab for p, lab in zip(pairs, edge_labels) if not lab.is_one}
            g = GDD(modulus, diag, edges)
            if g.is_connected() and arithmetic_via_cartan(g):
                expected.add(g.canonical_key())
    grown = reference.grow_by_full_test(rank, modulus)
    assert [g.canonical_key() for g in grown] == sorted(expected)


@pytest.mark.parametrize(
    "rank, modulus",
    [(5, 4), (5, 6), (5, 10), (6, 4), (6, 6), (6, 10), (7, 4), (8, 4), (8, 6), (9, 4)],
)
def test_determinant_leaf_rule_matches_full_test(rank, modulus):
    """e_type_diagrams gives exactly the classes of finite Cartan type that
    are not classical, as the reference growth finds them: the same
    representatives, by text and key.  There are none at ranks 5 and 9;
    at ranks 6-8 one E_rank(q) for each q != 1, some of them stored rows
    (M=6)."""
    classical = {g.canonical_key() for g in generate_classical(rank, modulus)}
    grown = [g for g in reference.grow_by_full_test(rank, modulus)
             if g.canonical_key() not in classical]
    built = sorted(e_type_diagrams(rank, modulus), key=lambda g: g.canonical_key())
    assert [g.to_text() for g in built] == [g.to_text() for g in grown]
    assert [g.canonical_key() for g in built] == [g.canonical_key() for g in grown]
    assert len(built) == (modulus - 1 if 6 <= rank <= 8 else 0)
