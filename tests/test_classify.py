import random

import pytest

from gddkit.chains import is_simple_chain
from gddkit.classify import (
    classical_type,
    is_bi_classical,
    is_quasi_classical,
    is_semi_classical,
    is_simple_cycle,
    quasi_classical_tails,
    tail_vertices,
)
from gddkit.core import GDD, parse_gdd
from gddkit.roots import UnityRoot, minus_one
from gddkit.tables import generate_classical


def u(e, m=6):
    return UnityRoot(e, m)


def path(diag, edges, m=6):
    return GDD(
        m,
        tuple(u(e, m) for e in diag),
        {(i, i + 1): u(t, m) for i, t in enumerate(edges)},
    )


def row11_gdd1():
    # chain q, q, -1, q, q with edges q^-1 at a primitive cube root
    return path([2, 2, 3, 2, 2], [4, 4, 4, 4])


def item_11_1_1():
    # the hexagon closing row11_gdd1 with an apex labelled q
    return GDD(
        6,
        tuple(u(e) for e in [2, 2, 3, 2, 2, 2]),
        {
            (0, 1): u(4), (1, 2): u(4), (2, 3): u(4), (3, 4): u(4),
            (0, 5): u(4), (4, 5): u(4),
        },
    )


def test_type7_whole_chain():
    g = path([2] * 6, [4] * 5)
    kinds = {t.kind for t in classical_type(g)}
    assert "T7" in kinds


def test_type1_instance():
    # end q^2 glued by q^-2 to an all-q body, q of order 7
    m = 14
    q = UnityRoot(2, m)
    g = GDD(
        m,
        (q, q, q, q, q, q ** 2),
        {(i, i + 1): q ** -1 for i in range(4)} | {(4, 5): q ** -2},
    )
    assert any(t.kind == "T1" for t in classical_type(g))


def test_type2_covers_type3_substitution():
    # A Type 3 pattern: end -q^-1, edge q^2, body parameter q^-2 (ord q = 5).
    m = 10
    q = UnityRoot(2, m)
    xi = q ** -1 * minus_one(m)
    body_param = q ** -2
    g = GDD(
        m,
        (body_param, body_param, body_param, xi),
        {(0, 1): body_param ** -1, (1, 2): body_param ** -1, (2, 3): q ** 2},
    )
    kinds = {t.kind for t in classical_type(g)}
    assert "T2" in kinds
    assert "T3" not in kinds


def test_fork_types():
    m = 10
    q = UnityRoot(2, m)
    # Type 5: two q-ends on the body's last vertex
    g5 = GDD(
        m,
        (q, q, q, q, q),
        {(0, 1): q ** -1, (1, 2): q ** -1, (2, 3): q ** -1, (2, 4): q ** -1},
    )
    assert any(t.kind == "T5" for t in classical_type(g5))
    # Type 6: two -1 ends with a linking edge q^2
    mm = minus_one(m)
    g6 = GDD(
        m,
        (q, q, q, mm, mm),
        {(0, 1): q ** -1, (1, 2): q ** -1, (2, 3): q ** -1, (2, 4): q ** -1,
         (3, 4): q ** 2},
    )
    assert any(t.kind == "T6" for t in classical_type(g6))


def test_row11_gdd1_not_classical_but_quasi_classical():
    g = row11_gdd1()
    assert classical_type(g) == set()
    assert not is_semi_classical(g)
    assert is_quasi_classical(g)
    assert tail_vertices(g) == {0, 4}


def test_cycle_item_is_not_simple_cycle():
    # Deleting the apex leaves a chain that breaks the simple-chain
    # conditions at its middle vertex, so the hexagon is not a simple cycle.
    g = item_11_1_1()
    assert g.is_cycle()
    assert not is_simple_cycle(g)
    assert classical_type(g) == set()


def test_affine_style_cycle_is_simple_cycle():
    q = u(2)
    g = GDD(
        6,
        tuple(q for _ in range(5)),
        {(i, (i + 1) % 5): q ** -1 for i in range(5)},
    )
    assert is_simple_cycle(g)


def test_chains_are_never_cycles():
    assert not is_simple_cycle(path([2, 2, 2], [4, 4]))


def test_strict_semi_classical_chain():
    # -1, -1, q, q, q with all edges q^-1: semi-classical but not classical
    g = path([3, 3, 2, 2, 2], [4] * 4)
    assert is_semi_classical(g)
    assert classical_type(g) == set()
    assert is_quasi_classical(g)


def test_classical_implies_semi_implies_quasi():
    sample = sorted(generate_classical(5, 6), key=lambda g: g.to_text())
    rng = random.Random(5)
    for g in rng.sample(sample, min(80, len(sample))):
        if not g.is_connected():
            continue
        assert classical_type(g), g.to_text()
        assert is_semi_classical(g), g.to_text()
        assert is_quasi_classical(g), g.to_text()


def test_classical_type_invariant_under_relabelling():
    rng = random.Random(11)
    sample = sorted(generate_classical(6, 6), key=lambda g: g.to_text())
    for g in rng.sample(sample, 40):
        sigma = list(range(g.rank))
        rng.shuffle(sigma)
        h = g.permute(sigma)
        kinds_g = sorted((t.kind, t.q) for t in classical_type(g))
        kinds_h = sorted((t.kind, t.q) for t in classical_type(h))
        assert kinds_g == kinds_h


def test_connected_subdiagrams_of_classical_are_classical():
    rng = random.Random(23)
    sample = sorted(generate_classical(6, 6), key=lambda g: g.to_text())
    for g in rng.sample(sample, 30):
        for v in range(g.rank):
            sub = g.delete_vertex(v)
            for comp in sub.components():
                if comp.rank >= 2:
                    assert classical_type(comp), (g.to_text(), v, comp.to_text())


def test_bi_classical_construction():
    # two Type-1 heads on a shared all-q body, q of order 7
    m = 14
    q = UnityRoot(2, m)
    g = GDD(
        m,
        (q ** 2, q, q, q, q, q ** 2),
        {(0, 1): q ** -2, (1, 2): q ** -1, (2, 3): q ** -1, (3, 4): q ** -1,
         (4, 5): q ** -2},
    )
    assert is_bi_classical(g)


def test_plain_chain_is_not_bi_classical():
    g = path([2] * 6, [4] * 5)
    assert not is_bi_classical(g)


@pytest.mark.parametrize("text", [
    "gdd M=6 n=4\ndiag 3 3 4 4\nedge 1 2 5\nedge 1 3 2\nedge 1 4 2\n",
    "gdd M=6 n=4\ndiag 2 2 1 1\nedge 1 2 4\nedge 2 3 4\nedge 2 4 4\n",
], ids=["type-1-heads", "type-2-heads"])
def test_two_heads_at_one_body_end_are_not_bi_classical(text):
    # two disjoint one-vertex heads attach at the same end of a two-vertex
    # body and each matches the body read toward it; a bi-classical diagram
    # needs them at the body's two ends
    g = parse_gdd(text)
    assert not is_bi_classical(g)


def test_semi_cycle_tails_on_fork():
    m = 10
    q = UnityRoot(2, m)
    g5 = GDD(
        m,
        (q, q, q, q, q),
        {(0, 1): q ** -1, (1, 2): q ** -1, (2, 3): q ** -1, (2, 4): q ** -1},
    )
    # classical Type 5: tail is the far end of the body
    assert 0 in tail_vertices(g5)


def test_quasi_classical_tails_requires_connected():
    g = GDD(6, (u(2), u(2)))
    with pytest.raises(ValueError):
        quasi_classical_tails(g)


def test_glued_shape_predicates_on_fixture():
    from pathlib import Path

    from bi_semi_classical import is_bi_semi_classical
    from gddkit.classify import is_classical_plus_semiclassical
    from gddkit.core import parse_blocks

    # the first classical+semi-classical list item: a one-vertex head on the
    # tail of a semi-classical trunk
    fixtures = Path(__file__).parent / "fixtures" / "items_cs.gdd"
    g, meta, _ = parse_blocks(fixtures.read_text())[0]
    assert is_classical_plus_semiclassical(g)

    plain = path([2] * 6, [4] * 5)
    assert not is_classical_plus_semiclassical(plain)
    assert not is_bi_semi_classical(plain, lambda h: True)


def test_bi_classical_rank6_is_quasi_affine():
    from pathlib import Path

    from gddkit.oracle import Oracle
    from gddkit.tables import load

    db = load(Path(__file__).parent.parent / "src" / "gddkit" / "data" / "exceptional_rows.gdd")
    oracle = Oracle(db)
    q = u(2)
    # two one-vertex heads with matched parameters on a shared all-q body
    g = GDD(
        6,
        (q ** -1, q, q, q, q, q ** -1),
        {(0, 1): q, (1, 2): q ** -1, (2, 3): q ** -1, (3, 4): q ** -1, (4, 5): q},
    )
    assert is_bi_classical(g)
    assert oracle.is_quasi_affine(g)
