"""Oracle.is_quasi_affine reads every deletion of a diagram in the diagram
itself: its classical readings as a vertex subset, its exponent matrix as a
principal submatrix.  These tests hold it to ``reference.is_quasi_affine``,
which builds every deletion and queries the oracle on it, and check that a
classical deletion is still checked against its matrix but never built."""

import random
from pathlib import Path

import pytest

import reference
from gddkit import cartan, classify
from gddkit.core import GDD, non_cut_vertices, parse_blocks
from gddkit.oracle import InternalInconsistency, Oracle
from gddkit.roots import UnityRoot
from gddkit.tables import load

ROOT = Path(__file__).parent
DATA = ROOT.parent / "src" / "gddkit" / "data" / "exceptional_rows.gdd"


def _blocks(path):
    return [g for g, _, _ in parse_blocks(path.read_text())]


def _u(e, m=6):
    return UnityRoot(e, m)


def _probes():
    """Diagrams that take the edge cases of the in-place reading."""
    z2, z4 = _u(2), _u(4)
    cycle = {(i, i + 1): z4 for i in range(5)}
    return [
        # rank 2: both deletions have rank 1
        GDD(10, (_u(2, 10), _u(2, 10)), {(0, 1): _u(6, 10)}),
        # vertex 0 labelled 1: only its deletion is read in place
        GDD(6, (_u(0),) + (z2,) * 5, {**cycle, (0, 5): z4}),
        # a vertex labelled 1 on a leaf, the rest an affine cycle
        GDD(6, (z2,) * 6 + (_u(0),), {**cycle, (0, 5): z4, (2, 6): z4}),
        # the one edge not of Cartan type, {0, 5}, touches vertices 0 and 5:
        # g has no exponent matrix, its deletions of 0 and 5 have one
        GDD(6, (z2,) * 6, {**cycle, (0, 5): _u(3)}),
        # the labels of item 11.1.1: both non-Cartan edges touch vertex 2
        GDD(6, (z2, z2, _u(3), z2, z2, z2), {**cycle, (0, 5): z4}),
    ]


def _with_leaf(g):
    """g with a vertex labelled -1 joined to vertex 0 by the inverse of its
    label: the deletion of the leaf is g, so a quasi-affine g gives a
    diagram that is neither arithmetic nor quasi-affine."""
    minus_one = UnityRoot(g.modulus // 2, g.modulus)
    return g.add_vertex(minus_one, [(0, g.diag[0] ** -1)])


@pytest.fixture(scope="module")
def inputs():
    """The 334 fixture blocks, each with a leaf added; the 306 check-batch
    blocks and three seeded relabellings of each; the edge-case probes."""
    fixtures = [g for path in sorted((ROOT / "fixtures").glob("*.gdd"))
                for g in _blocks(path)]
    assert len(fixtures) == 334
    batch = _blocks(ROOT.parent / "perfbench" / "data" / "check_batch.gdd")
    assert len(batch) == 306
    rng = random.Random(25)
    relabelled = []
    for g in batch:
        for _ in range(3):
            sigma = list(range(g.rank))
            rng.shuffle(sigma)
            relabelled.append(g.permute(sigma))
    return (fixtures + [_with_leaf(g) for g in fixtures] + batch + relabelled
            + _probes())


def _outcome(decide, g):
    """The verdict, or the kind and message of the exception raised."""
    try:
        return decide(g)
    except Exception as exc:
        return type(exc), str(exc)


def test_verdicts_and_memo_match_building_every_deletion(inputs):
    """One oracle per side over all the inputs in turn: every verdict (or
    exception) is the same, and the two memos end with the same keys and
    verdicts."""
    db = load(DATA)
    new, old = Oracle(db), Oracle(db)
    counts = {True: 0, False: 0}
    for g in inputs:
        got = _outcome(new.is_quasi_affine, g)
        assert got == _outcome(lambda h: reference.is_quasi_affine(old, h), g), g.to_text()
        if isinstance(got, bool):
            counts[got] += 1
    assert new._memo == old._memo
    assert counts[True] > 300 and counts[False] > 600


def test_deletion_matrix_is_a_principal_submatrix(inputs):
    """For every connected deletion of every input that has no vertex
    labelled 1, the matrix read from the diagram's edge exponents equals the
    deletion's own, None included; both kinds occur, and so do deletions
    with a matrix of diagrams without one."""
    seen = {"matrix": 0, "none": 0, "only_deletion": 0}
    for g in inputs:
        exponents = list(cartan.edge_exponents(g))
        whole = None if g.has_degenerate_diag() else cartan.braiding_exponents(g)
        for v in non_cut_vertices(g.neighbour_masks()):
            d = g.delete_vertex(v)
            if d.has_degenerate_diag():
                continue
            a = cartan.exponent_matrix(g.rank, exponents, v)
            assert a == cartan.braiding_exponents(d) == reference.braiding_exponents(d), (
                g.to_text(), v)
            seen["none" if a is None else "matrix"] += 1
            seen["only_deletion"] += a is not None and whole is None
    assert all(n > 100 for n in seen.values()), seen


def _first_classical_deletion(g):
    """The first connected deletion of g in vertex order, as (v, deletion),
    when it is classical and has an exponent matrix; else None."""
    v = non_cut_vertices(g.neighbour_masks())[0]
    d = g.delete_vertex(v)
    if classify.classical_type(d) and cartan.braiding_exponents(d) is not None:
        return v, d
    return None


def test_classical_deletion_is_checked_against_its_matrix(monkeypatch):
    """With the finite-Cartan test forced to deny, a quasi-affine diagram
    whose first deletion is classical raises InternalInconsistency, and the
    message shows that deletion."""
    db = load(DATA)
    candidates = [g for g in _blocks(ROOT / "fixtures" / "items_main.gdd")
                  if g.rank > 2 and not g.has_degenerate_diag()]
    picked = [(g, hit) for g in candidates if (hit := _first_classical_deletion(g))]
    assert picked
    g, (v, d) = picked[0]
    assert Oracle(db).is_quasi_affine(g)
    monkeypatch.setattr(cartan, "is_finite_cartan", lambda a: False)
    with pytest.raises(InternalInconsistency, match="classical") as info:
        Oracle(db).is_quasi_affine(g)
    assert str(info.value).endswith("\n" + d.to_text())


def test_only_deletions_that_are_not_classical_are_built(monkeypatch):
    """On quasi-affine fixture blocks whose deletions are of both kinds, a
    classical deletion is never built, and every other one is built once,
    keyed and memoized."""
    db = load(DATA)
    built = []
    original = GDD.delete_vertex

    def counted(self, v):
        d = original(self, v)
        built.append((self, v, d))
        return d

    checked = 0
    for g in _blocks(ROOT / "fixtures" / "items_main.gdd"):
        kinds = {v: bool(classify.classical_type(g.delete_vertex(v)))
                 for v in non_cut_vertices(g.neighbour_masks())}
        if g.has_degenerate_diag() or len(set(kinds.values())) < 2:
            continue
        oracle = Oracle(db)
        monkeypatch.setattr(GDD, "delete_vertex", counted)
        built.clear()
        assert oracle.is_quasi_affine(g)
        monkeypatch.setattr(GDD, "delete_vertex", original)
        assert [v for h, v, _ in built] == [v for v, classical in kinds.items()
                                            if not classical]
        assert all(h is g and d.canonical_key() in oracle._memo for h, _, d in built)
        checked += 1
    assert checked > 10


def test_first_reading_agrees_with_all_readings(monkeypatch):
    """Every subset the oracle's classical test, is_quasi_affine's deletions
    and the shape tags' has_quasi_tail ask with ``first=True`` gets at most
    one reading, one of all its readings, and none exactly when it has none;
    with and without a tail.  Run on the fixture blocks, the same with a
    leaf added (whose deletion of the leaf is not arithmetic) and the
    check-batch blocks."""
    fixtures = [g for path in sorted((ROOT / "fixtures").glob("*.gdd"))
                for g in _blocks(path)]
    batch = _blocks(ROOT.parent / "perfbench" / "data" / "check_batch.gdd")
    assert (len(fixtures), len(batch)) == (334, 306)
    readings = classify._Subsets.readings
    asked = {(tail is None, bool(found)): 0 for tail in (None, 0) for found in (0, 1)}

    def checked(self, keep, tail=None, first=False):
        got = readings(self, keep, tail, first)
        if first:
            every = readings(self, keep, tail)
            assert len(got) <= 1 and got <= every and bool(got) == bool(every), (
                self.g.to_text(), keep, tail)
            asked[tail is None, bool(got)] += 1
        return got

    monkeypatch.setattr(classify._Subsets, "readings", checked)
    oracle = Oracle(load(DATA))
    verdicts = {True: 0, False: 0}
    for g in fixtures + [_with_leaf(g) for g in fixtures] + batch:
        oracle.is_arithmetic(g)
        quasi_affine = oracle.is_quasi_affine(g)
        if quasi_affine:
            oracle.shape_tag(g)
        verdicts[quasi_affine] += 1
    assert verdicts == {True: 361, False: 613}
    assert all(n > 200 for n in asked.values()), asked
