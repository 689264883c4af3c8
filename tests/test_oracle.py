import random
from pathlib import Path

import pytest

from gddkit import oracle as oracle_module
from gddkit.core import GDD, normalized_key, parse_blocks
from gddkit.oracle import (
    InternalInconsistency,
    Oracle,
    OracleGap,
    chain_condition_failures,
    forbidden_by_chain_failures,
    forbidden_branch_pattern,
)
from gddkit.roots import UnityRoot, minus_one
from gddkit.tables import generate_classical, load

DATA = Path(__file__).parent.parent / "src" / "gddkit" / "data" / "exceptional_rows.gdd"
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def db():
    return load(DATA)


@pytest.fixture(scope="module")
def oracle(db):
    return Oracle(db)


def u(e, m=6):
    return UnityRoot(e, m)


def path(diag, edges, m=6):
    return GDD(
        m,
        tuple(u(e, m) for e in diag),
        {(i, i + 1): u(t, m) for i, t in enumerate(edges)},
    )


def row11_gdd1():
    return path([2, 2, 3, 2, 2], [4, 4, 4, 4])


def item_11_1_1():
    return GDD(
        6,
        tuple(u(e) for e in [2, 2, 3, 2, 2, 2]),
        {(0, 1): u(4), (1, 2): u(4), (2, 3): u(4), (3, 4): u(4),
         (0, 5): u(4), (4, 5): u(4)},
    )


def test_row_entry_is_arithmetic(oracle):
    v = oracle.is_arithmetic(row11_gdd1())
    assert v.arithmetic and v.witness[0] == "table"
    assert v.witness[1:] == (11, 1)


def test_classical_chain_is_arithmetic(oracle):
    g = path([2] * 6, [4] * 5)
    v = oracle.is_arithmetic(g)
    assert v.arithmetic and v.witness[0] == "classical"


def test_item_is_quasi_affine(oracle):
    g = item_11_1_1()
    assert not oracle.is_arithmetic(g).arithmetic
    assert oracle.is_quasi_affine(g)


def test_classical_is_never_quasi_affine(oracle):
    g = path([2] * 6, [4] * 5)
    assert not oracle.is_quasi_affine(g)


def test_componentwise_verdict(oracle):
    good = GDD(
        6,
        tuple(u(e) for e in [2, 2, 2, 2, 2, 2]),
        {(0, 1): u(4), (3, 4): u(4), (4, 5): u(4)},
    )
    assert oracle.is_arithmetic(good).arithmetic


def test_oracle_gap_below_coverage(oracle):
    # a rank-3 diagram that is neither classical nor Cartan type: the oracle
    # refuses to certify a negative below its covered ranks
    g = path([3, 2, 3], [2, 5])
    with pytest.raises(OracleGap):
        oracle.is_arithmetic(g)


def test_wrong_parameter_kills_quasi_affineness(oracle):
    # item 11.1.1 needs a cube root; at a fourth root the deletions leave
    # patterns outside every covered row
    m = 4
    q = UnityRoot(1, m)
    g = GDD(
        m,
        (q, q, minus_one(m), q, q, q),
        {(0, 1): q ** -1, (1, 2): q ** -1, (2, 3): q ** -1, (3, 4): q ** -1,
         (0, 5): q ** -1, (4, 5): q ** -1},
    )
    assert not oracle.is_quasi_affine(g)


def test_quasi_affine_hereditary(oracle):
    """Every proper connected induced subdiagram of a quasi-affine diagram is
    arithmetic (recursive deletions, not just single ones)."""
    g = item_11_1_1()

    def rec(h):
        for v in range(h.rank):
            sub = h.delete_vertex(v)
            for comp in sub.components():
                if comp.rank >= 4:
                    assert oracle.is_arithmetic(comp).arithmetic, comp.to_text()
                if comp.rank >= 5:
                    rec(comp)

    rec(g)


def test_continual_extensions(oracle):
    g = row11_gdd1()
    # extending the tail keeps the chain conditions alive: the single-vertex
    # q-end and -1-end both land on stored rank-6 rows
    assert oracle.is_continual_on_tail(g, 0, "T5")
    assert oracle.is_continual_on_tail(g, 0, "T6")
    ext = oracle.tail_extensions(g, 0, "T5")
    assert len(ext) == 1 and oracle.db.contains(ext[0]) is not None


def test_strict_semi_chain_not_continual_via_t5(oracle, db):
    # -1, -1, q, q, -1: extending past the right-hand -1 tail gives a listed
    # quasi-affine continual diagram, not an arithmetic one
    g = path([3, 3, 2, 2, 3], [4] * 4)
    assert not oracle.is_continual_on_tail(g, 4, "T5")
    ext = oracle.tail_extensions(g, 4, "T5")
    assert ext and all(oracle.is_quasi_affine(e) for e in ext)


def test_chain_condition_failures():
    g = path([2, 4, 2], [8, 8], m=10)
    assert chain_condition_failures(g) == [1]
    ok = path([2] * 4, [4] * 3)
    assert chain_condition_failures(ok) == []


def test_filters_quiet_on_arithmetic(oracle, db):
    exception_keys = {normalized_key(g) for g, _ in db.entries()}
    corpus = []
    for rank in (5, 6):
        for m in (6, 8, 10):
            corpus.extend(sorted(generate_classical(rank, m), key=lambda g: g.to_text()))
    corpus.extend(g for g, _ in db.entries())
    rng = random.Random(17)
    for g in rng.sample(corpus, 250):
        if g.is_chain():
            assert forbidden_by_chain_failures(g, exception_keys) is None, g.to_text()
        assert forbidden_branch_pattern(g, exception_keys) is None, g.to_text()


def test_chain_filter_fires_on_double_break():
    # mutate a type-7 chain at two interior places
    g = path([2, 4, 2, 4, 2, 2], [4, 4, 4, 4, 4])
    bad = chain_condition_failures(g)
    assert len(bad) >= 2
    assert forbidden_by_chain_failures(g, set()) is not None


def test_exceptions_suppress_chain_filter(db):
    exception_keys = {normalized_key(g) for g, _ in db.entries()}
    flagged = [
        g
        for g, _ in db.entries(5)
        if g.is_chain() and len(chain_condition_failures(g)) >= 2
    ]
    assert flagged, "some stored chains break the conditions twice"
    for g in flagged:
        assert forbidden_by_chain_failures(g, exception_keys) is None


def test_fixture_items_all_quasi_affine(oracle):
    """Every packaged list item verifies, at every stated parameter."""
    checked = 0
    for name in ("items_cs", "items_continual", "items_main"):
        for g, meta, _ in parse_blocks((FIXTURES / f"{name}.gdd").read_text()):
            assert oracle.is_quasi_affine(g), (name, meta)
            checked += 1
    assert checked >= 300


def test_shape_tags_follow_the_grouping(oracle):
    from collections import Counter

    tags = Counter()
    for g, meta, _ in parse_blocks((FIXTURES / "items_continual.gdd").read_text()):
        if g.rank == 6:
            tags[oracle.shape_tag(g)] += 1
    # tail extensions overwhelmingly tag as Continual; a few overlap with the
    # glued-head reading, which is also a correct description
    assert set(tags) <= {"Continual", "ClassicalPlusSemiClassical"}
    assert tags["Continual"] >= 0.9 * sum(tags.values())

    cs = Counter()
    for g, meta, _ in parse_blocks((FIXTURES / "items_cs.gdd").read_text()):
        if g.rank == 6:
            cs[oracle.shape_tag(g)] += 1
    assert set(cs) == {"ClassicalPlusSemiClassical"}


def test_branch_filter_exempts_finite_cartan(oracle, db):
    """Deleting vertex 1 of fixture 19.7.1 leaves a finite-Cartan diagram,
    hence an arithmetic one, which carries the branch pattern."""
    g = next(g for g, meta, _ in parse_blocks((FIXTURES / "items_main.gdd").read_text())
             if meta.get("item") == "19.7.1")
    sub = g.delete_vertex(0)
    assert oracle.is_arithmetic(sub).witness == ("cartan-finite",)
    exception_keys = {normalized_key(h) for h, _ in db.entries()}
    assert forbidden_branch_pattern(sub, exception_keys) is None


def test_memo_limit_bounds_the_memo(db, monkeypatch):
    """Past MEMO_LIMIT entries the memo no longer grows, and verdicts stay
    those of an unbounded oracle."""
    queries = list(generate_classical(5, 6))[:40]
    queries += [g.permute([4, 3, 2, 1, 0]) for g in queries]
    unbounded = Oracle(db)
    expected = [unbounded._connected(g) for g in queries]
    monkeypatch.setattr(oracle_module, "MEMO_LIMIT", 5)
    bounded = Oracle(db)
    assert [bounded._connected(g) for g in queries] == expected
    assert len(bounded._memo) == 5
