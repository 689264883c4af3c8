"""The sparse canonical-form kernel against the dense one it replaced.

``gddkit.core.least_form`` reads per-vertex label dicts, takes the order
of refinement as it stands when every cell of two or more vertices is a
twin class, and writes the form from the vertex positions; the dense
kernel in ``reference.py`` reads an n x n matrix and always searches.  Both
must give the same form and the same canonical order on every input.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gddkit.core
import reference
from db_rows import DATA
from gddkit.cli import main
from gddkit.core import least_form
from gddkit.search import enumerate_quasi_affine
from gddkit.tables import load


def assert_matches_reference(colours, nbrs):
    """least_form on nbrs gives the reference's form and order on the
    dense matrix of the same labels, 0 off pairs.  Labels that are not
    integers (the pairs cartan passes) reach the reference coded by rank
    from 1, so that they compare with 0; the form is compared so coded."""
    n = len(colours)
    form, order = least_form(colours, nbrs)
    labels = {x for row in nbrs for x in row.values()}
    if all(isinstance(x, int) for x in labels):
        code = {x: x for x in labels}
    else:
        code = {x: i for i, x in enumerate(sorted(labels), 1)}
    dense = [[0] * n for _ in range(n)]
    for v, row in enumerate(nbrs):
        for u, x in row.items():
            dense[v][u] = code[x]
    want_form, want_order = reference.least_form(colours, dense)
    assert order == want_order, (colours, nbrs)
    assert form[:n] == want_form[:n]
    assert tuple(0 if x == 0 else code[x] for x in form[n:]) == want_form[n:], (colours, nbrs)


def _labelled(colours, edges, labels, paired):
    """Per-vertex dicts of the (u, v) -> label edges: the label on both
    sides, or, when paired, the pair (a, b) as u sees it and (b, a) as v
    does, the way cartan passes (a_uv, a_vu)."""
    nbrs = [{} for _ in colours]
    for (u, v), x in edges.items():
        if paired:
            nbrs[u][v], nbrs[v][u] = labels[x], labels[x][::-1]
        else:
            nbrs[u][v] = nbrs[v][u] = labels[x]
    return colours, nbrs


@st.composite
def _random_inputs(draw):
    """Random coloured graphs with 1 to 9 vertices and few labels."""
    n = draw(st.integers(1, 9))
    colours = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    density = draw(st.sampled_from([0.2, 0.4, 0.7]))
    edges = {}
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.floats(0, 1)) < density:
                edges[(u, v)] = draw(st.integers(0, 2))
    return colours, edges


@st.composite
def _symmetric_inputs(draw):
    """Stars with equal leaves, twin pairs and triples, complete graphs with
    equal labels, palindromic paths and cycles: the inputs whose refinement
    leaves cells of two or more vertices, twin classes or not."""
    kind = draw(st.sampled_from(["star", "twins", "complete", "path", "cycle"]))
    n = draw(st.integers(2, 9))
    c = draw(st.integers(0, 2))
    if kind == "star":
        return [draw(st.integers(0, 2))] + [c] * (n - 1), {(0, v): 0 for v in range(1, n)}
    if kind == "complete":
        return [c] * n, {(u, v): 0 for u in range(n) for v in range(u + 1, n)}
    if kind == "path":
        half = draw(st.lists(st.integers(0, 2), min_size=(n + 1) // 2, max_size=(n + 1) // 2))
        ties = draw(st.lists(st.integers(0, 2), min_size=n // 2, max_size=n // 2))
        return ([half[min(i, n - 1 - i)] for i in range(n)],
                {(i, i + 1): ties[min(i, n - 2 - i)] for i in range(n - 1)})
    if kind == "cycle":
        n = max(n, 3)
        return [c] * n, {(i, (i + 1) % n): 0 for i in range(n)}
    # Copies of vertex 0 of a random core, seeing each core vertex as 0
    # does, all joined to one another and 0 by one label or none: a twin
    # class of two or three.  Disjoint copies of the whole leave cells that
    # hold twin classes but are none; all is relabelled at random.
    k = draw(st.integers(1, 5))
    colours = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    edges = {(u, v): draw(st.integers(0, 2))
             for u in range(k) for v in range(u + 1, k) if draw(st.booleans())}
    to_zero = {v: x for (u, v), x in edges.items() if u == 0}
    joined = draw(st.sampled_from([None, 0, 1, 2]))
    for w in range(k, k + draw(st.integers(1, 2))):
        colours.append(colours[0])
        edges.update({(v, w): x for v, x in to_zero.items()})
        if joined is not None:
            edges.update({(t, w): joined for t in [0, *range(k, w)]})
    n, one = len(colours), dict(edges)
    for c in range(1, draw(st.integers(1, max(1, 9 // n)))):
        colours += colours[:n]
        edges.update({(u + c * n, v + c * n): x for (u, v), x in one.items()})
    perm = draw(st.permutations(range(len(colours))))
    moved = [0] * len(colours)
    for v, c in enumerate(colours):
        moved[perm[v]] = c
    return moved, {tuple(sorted((perm[u], perm[v]))): x for (u, v), x in edges.items()}


_LABELS = st.sampled_from([(1, 2, 3), (3, 3, 1), (2, 1, 2)])
_PAIRS = st.sampled_from([((-1, -1), (-1, -2), (-2, -1)), ((-1, -2), (-3, -1), (-1, -1)),
                          ((-2, -1), (-2, -1), (-1, -3))])


@settings(max_examples=300, deadline=None)
@given(_random_inputs(), _LABELS, _PAIRS, st.booleans())
def test_random_inputs_match_reference(g, labels, pairs, paired):
    colours, edges = g
    assert_matches_reference(*_labelled(colours, edges, pairs if paired else labels, paired))


@settings(max_examples=400, deadline=None)
@given(_symmetric_inputs(), _LABELS, _PAIRS, st.booleans())
# Two disjoint equal edges: one cell, whose first two vertices are twins
# and whose last two are not their twins.
@example(([0] * 4, {(0, 1): 0, (2, 3): 0}), (1, 2, 3), ((-1, -1),) * 3, False)
def test_symmetric_inputs_match_reference(g, labels, pairs, paired):
    colours, edges = g
    assert_matches_reference(*_labelled(colours, edges, pairs if paired else labels, paired))


def _check_batch_input(tmp_path, monkeypatch, seed):
    """The input file of the benchmark's ``check-batch`` call at the seed,
    written by perfbench/run.py's own job."""
    here = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(here))
    spec = importlib.util.spec_from_file_location("perfbench_run", here / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    return run.CheckBatchJob(seed, tmp_path / "batch").input


def test_search_inputs_match_reference(tmp_path, monkeypatch, capsys):
    """Every least_form input of the rank 6 and rank 7 searches at M=4 and
    the rank 6 search at M=6, and of keying every stored row and its
    twists: the database keys a bucket when it is first read, and len reads
    them all.  Then every input of the seed-1 ``check-batch`` call that
    reaches the order search (_least_order), the rank-9 cycles among them.
    The kernel keys only diagrams: cartan names an affine matrix by a
    permutation test, with no least form."""
    seen = []
    searched = [False]
    least_order = gddkit.core._least_order

    def recorded(colours, nbrs):
        seen.append((colours, nbrs))
        return least_form(colours, nbrs)

    def search(*args):
        searched[0] = True
        return least_order(*args)

    def recorded_if_searched(colours, nbrs):
        searched[0] = False
        out = least_form(colours, nbrs)
        if searched[0]:
            seen.append((colours, nbrs))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gddkit.core, "least_form", recorded)
        for rank, modulus in ((6, 4), (7, 4), (6, 6)):
            db = load(DATA)
            assert len(db) == 212
            enumerate_quasi_affine(rank, modulus, db)
    assert len(seen) == 3742
    batch = _check_batch_input(tmp_path, monkeypatch, 1)
    enumerated = len(seen)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gddkit.core, "_least_order", search)
        mp.setattr(gddkit.core, "least_form", recorded_if_searched)
        assert main(["check", str(batch), "--db", str(DATA)]) == 0
    capsys.readouterr()
    assert len(seen) - enumerated == 78
    assert sum(len(colours) == 9 for colours, _ in seen[enumerated:]) == 4
    for colours, nbrs in seen:
        assert_matches_reference(colours, nbrs)
