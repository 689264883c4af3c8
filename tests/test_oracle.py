import random
from pathlib import Path

import pytest

from brute import bf_canon, indep_cartan_finite, indep_is_classical
from db_rows import parse_db_rows_independently
from gddkit import cartan, classify, cli, core, search, tables
from gddkit import oracle as oracle_module
from gddkit.core import GDD, parse_blocks
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


def _count_calls(monkeypatch, targets) -> list:
    """Replace each (owner, name) by a wrapper that appends name, and the
    call's arguments, to the returned list."""
    calls = []
    for owner, name in targets:
        original = getattr(owner, name)

        def counted(*args, original=original, name=name, **kwargs):
            calls.append((name, args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_given_readings_stand_for_the_oracles_own(db, monkeypatch):
    """A reading a caller already took, as check does (classify.reading,
    its classical readings and its matrix), is the one the oracle's query
    reads: nothing is derived again, and the positive is still checked
    against that matrix, so a shared reading whose cached matrix is not
    finite raises InternalInconsistency and leaves the memo empty."""
    g = path([2] * 6, [4] * 5)
    r = classify.reading(g)
    r.classical_type(), r.matrix()
    derived = _count_calls(monkeypatch, (
        (classify._Subsets, "__init__"), (classify._Subsets, "readings"),
        (cartan, "edge_exponents"), (cartan, "exponent_matrix")))
    verdict = Oracle(db).is_arithmetic(g)
    assert verdict.witness == ("classical",) and derived == []
    assert classify.reading(g) is r
    h = path([2] * 6, [4] * 5)
    s = classify.reading(h)
    s.classical_type(), s.matrix()
    # an affine A_1^(1) block, put in before any verdict is cached
    s._matrix = cartan.exponent_matrix(6, [((0, 1), (-2, -2))])
    derived.clear()
    oracle = Oracle(db)
    with pytest.raises(InternalInconsistency, match="classical"):
        oracle.is_arithmetic(h)
    assert derived == [] and oracle._memo == {}


def test_check_reads_each_diagram_once(db, monkeypatch, tmp_path, capsys):
    """One check block, the affine cycle A_5^(1) (quasi-affine, of Cartan
    type) with the database, builds one reading (classify._Subsets), scans
    the components of the whole diagram once (core.components_of), builds
    its whole exponent matrix once (cartan.exponent_matrix) and tests that
    matrix for finite type once (cartan.is_finite_cartan); its deletions are
    read as vertex subsets and principal submatrices of it."""
    block = tmp_path / "cycle.gdd"
    block.write_text("gdd M=6 n=6\ndiag 2 2 2 2 2 2\n"
                     + "".join(f"edge {i} {i + 1} 4\n" for i in range(1, 6))
                     + "edge 1 6 4\n")
    # the database and the family table are read before counting: they
    # read other diagrams
    monkeypatch.setattr(cli, "load", lambda path: db)
    cartan._affine_families(6)
    # every binding of components_of that reads a diagram's graph (cartan's
    # reads the blocks of a matrix)
    graph_modules = [m for m in (core, classify, oracle_module, search, tables)
                     if getattr(m, "components_of", None) is core.components_of]
    calls = _count_calls(monkeypatch, [
        (classify._Subsets, "__init__"), (cartan, "exponent_matrix"),
        (cartan, "is_finite_cartan")] + [(m, "components_of") for m in graph_modules])
    assert cli.main(["check", str(block), "--db", str(DATA)]) == 0
    out = capsys.readouterr().out
    assert "Cartan type: yes (affine)" in out and "quasi-affine: YES" in out
    rank = 6
    whole = {
        "__init__": [c for c in calls if c[0] == "__init__"],
        "components_of": [c for c in calls if c[0] == "components_of"
                          and c[1][1:] in ((), (None,), ((1 << rank) - 1,))],
        "exponent_matrix": [c for c in calls if c[0] == "exponent_matrix"
                            and c[1][2:] in ((), (None,))],
        "is_finite_cartan": [c for c in calls if c[0] == "is_finite_cartan"
                             and len(c[1][0]) == rank],
    }
    assert {name: len(got) for name, got in whole.items()} == dict.fromkeys(whole, 1)
    # each of the six deletions is tested on a principal submatrix
    assert len([c for c in calls if c[0] == "is_finite_cartan"]) == 1 + rank


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


def _brute_not_arithmetic(g):
    """brute.py's verdict that the connected g of rank 6 is not arithmetic:
    not classical, not of finite Cartan type and not a stored row."""
    diag = tuple(d.exponent for d in g.diag)
    edges = {e: lab.exponent for e, lab in g.edges.items()}
    n, m = g.rank, g.modulus
    return (not indep_is_classical(n, m, diag, edges)
            and indep_cartan_finite(n, m, diag, edges) is not True
            and bf_canon(n, m, diag, edges) not in parse_db_rows_independently(n, m))


def test_leaf_on_a_quasi_affine_fixture_exits_at_a_deletion(db, tmp_path, capsys, monkeypatch):
    """is_quasi_affine's exit at a deletion that is not arithmetic, which no
    benchmark input takes: fixture 11.1.1 (quasi-affine, rank 6) with a
    leaf -1 on vertex 0.  The oracle and ``check`` both answer "not
    arithmetic, not quasi-affine"; the one deletion the oracle denies is
    the exit, and brute.py agrees that it, and the deletion of the leaf
    (11.1.1 itself), are not arithmetic."""
    g = next(g for g, meta, _ in parse_blocks((FIXTURES / "items_main.gdd").read_text())
             if meta.get("item") == "11.1.1")
    ext = g.add_vertex(minus_one(6), [(0, g.diag[0] ** -1)])
    oracle = Oracle(db)
    assert not oracle.is_arithmetic(ext).arithmetic
    keyed, denied = Oracle._keyed, []

    def recorded(self, h, finite_of):
        verdict = keyed(self, h, finite_of)
        if not verdict.arithmetic:
            denied.append(h)
        return verdict

    monkeypatch.setattr(Oracle, "_keyed", recorded)
    assert not oracle.is_quasi_affine(ext)
    assert len(denied) == 1 and denied[0].rank == 6
    assert _brute_not_arithmetic(denied[0])
    assert _brute_not_arithmetic(g)
    block = tmp_path / "leaf.gdd"
    block.write_text(ext.to_text() + "\n")
    monkeypatch.setattr(cli, "load", lambda path: db)
    assert cli.main(["check", str(block), "--db", str(DATA)]) == 0
    out = capsys.readouterr().out
    assert "  arithmetic: no (witness: no-match)\n  quasi-affine: no\n" in out


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
    exception_keys = {g.canonical_key() for g, _ in db.entries()}
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
    exception_keys = {g.canonical_key() for g, _ in db.entries()}
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
    exception_keys = {h.canonical_key() for h, _ in db.entries()}
    assert forbidden_branch_pattern(sub, exception_keys) is None


def test_memo_limit_bounds_the_memo(db, monkeypatch):
    """Past MEMO_LIMIT entries the memo no longer grows, and verdicts stay
    those of an unbounded oracle.  The queries are ones the memo holds:
    stored rows, fixture items (not arithmetic) and a relabelling of each;
    a classical query is answered without it."""
    rows = [g for g, _ in db.entries(5)][:20]
    items = [g for g, _, _ in parse_blocks((FIXTURES / "items_main.gdd").read_text())][:20]
    queries = rows + items
    queries += [g.permute(list(reversed(range(g.rank)))) for g in queries]
    unbounded = Oracle(db)
    expected = [unbounded._connected(g) for g in queries]
    assert {v.witness[0] for v in expected} >= {"table", "no-match"}
    assert len(unbounded._memo) > 5
    monkeypatch.setattr(oracle_module, "MEMO_LIMIT", 5)
    bounded = Oracle(db)
    assert [bounded._connected(g) for g in queries] == expected
    assert len(bounded._memo) == 5


def test_classical_query_is_neither_keyed_nor_memoized(db):
    """Recognition answers a classical query before any canonical key."""
    oracle = Oracle(db)
    g = path([2] * 6, [4] * 5)
    assert oracle.is_arithmetic(g).witness == ("classical",)
    assert getattr(g, "_canonical", None) is None
    assert oracle._memo == {}


@pytest.mark.parametrize("make, witness", [(row11_gdd1, "table"), (item_11_1_1, "no-match")])
def test_unrecognized_query_is_keyed_and_memoized(db, make, witness):
    oracle = Oracle(db)
    g = make()
    verdict = oracle.is_arithmetic(g)
    assert verdict.witness[0] == witness
    assert oracle._memo == {g.canonical_key(): verdict}


def test_keyed_query_is_answered_from_the_memo_first(db, monkeypatch):
    """A query that carries its key reads the memo before any classical
    reading (classify.reading, the oracle's classical entry point); an
    unkeyed copy is read, for its components and then for its decision,
    then keyed and found there."""
    oracle = Oracle(db)
    g = item_11_1_1()
    verdict = oracle.is_arithmetic(g)
    readings = []
    original = classify.reading

    def counted(h):
        readings.append(h)
        return original(h)

    monkeypatch.setattr(classify, "reading", counted)
    assert oracle.is_arithmetic(g) is verdict
    assert readings == []
    copy = item_11_1_1()
    assert oracle.is_arithmetic(copy) is verdict
    assert readings == [copy, copy] and len(oracle._memo) == 1


@pytest.mark.parametrize("given", [False, True])
def test_shortcut_denying_a_positive_raises(db, monkeypatch, given):
    """With the Cartan shortcut forced to deny (every reading's matrix
    affine, and not finite), a classical reading, shared with a caller that
    took it first or the oracle's own, and a stored row raise
    InternalInconsistency and leave nothing in the memo."""
    g = path([2] * 6, [4] * 5)
    if given:
        r = classify.reading(g)
        r.classical_type(), r.matrix()
    monkeypatch.setattr(classify._Subsets, "matrix",
                        lambda self, without=None: ((2, -2), (-2, 2)))
    monkeypatch.setattr(cartan, "is_finite_cartan", lambda a: False)
    oracle = Oracle(db)
    with pytest.raises(InternalInconsistency, match="classical"):
        oracle.is_arithmetic(g)
    assert not given or classify.reading(g) is r
    with pytest.raises(InternalInconsistency, match="table"):
        oracle.is_arithmetic(row11_gdd1())
    assert oracle._memo == {}
