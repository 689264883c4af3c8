"""Recognition on vertex subsets against the build-and-recognize reference.

``classify`` reads every vertex subset of one diagram in place, numbered as
in that diagram; ``reference`` builds each sub-diagram and recognizes it on
its own numbering.  They are compared on every transcribed fixture, every
stored row and the default rank 6, M=4 found set, on connected single
deletions (and double deletions of the found set), and on a seeded
relabelling of each diagram.  The classical verdict on each subset is also
checked against ``brute.indep_is_classical``.

The reader takes a subset as a vertex mask; ``mask`` converts the sorted
tuples the tests index the sub-diagrams by.  Its heads on each subset are
held, in order, to the reference's heads of the built sub-diagram.

The targeted queries the shape predicates make (``readings`` with a tail,
``has_quasi_tail``) are held to the full readings and the reference's tail
sets on the whole diagram and its connected single and double deletions.
"""

import random
from pathlib import Path

import pytest

import reference as ref
from bi_semi_classical import is_bi_semi_classical
from brute import indep_is_classical
from gddkit import classify
from gddkit.core import parse_blocks
from gddkit.search import enumerate_quasi_affine
from gddkit.tables import load

HERE = Path(__file__).parent
DATA = HERE.parent / "src" / "gddkit" / "data" / "exceptional_rows.gdd"


def relabelled(g, rng):
    sigma = list(range(g.rank))
    rng.shuffle(sigma)
    return g.permute(sigma)


@pytest.fixture(scope="module")
def diagrams():
    """(name, diagram, whether its double deletions are read too): each
    fixture block, stored row and (6, 4) find, then a seeded relabelling
    of each."""
    out = []
    for path in sorted((HERE / "fixtures").glob("*.gdd")):
        for g, meta, line in parse_blocks(path.read_text()):
            out.append((f"{path.name}:{line}", g, False))
    for g, meta, line in parse_blocks(DATA.read_text()):
        out.append((f"row {meta.get('row')} line {line}", g, False))
    report = enumerate_quasi_affine(6, 4, load(DATA), collect_shapes=False)
    for i, g in enumerate(report.found.values()):
        out.append((f"(6, 4) find {i}", g, True))
    assert len(out) == 334 + 99 + 128
    rng = random.Random(16)
    return out + [(name + " relabelled", relabelled(g, rng), deep) for name, g, deep in out]


def mask(vertices):
    """The vertex mask (bit v for vertex v) of the given vertices."""
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def tag_fields(tags, keep):
    """The tags as (kind, q, head, tail, body q, index set, wildcard), the
    vertices of a tag read on the sub-diagram on keep carried to keep."""
    out = set()
    for t in tags:
        p = t.body_profile
        body_q = None if p.q is None else (p.q.exponent, p.q.modulus)
        out.add((
            t.kind, (t.q.exponent, t.q.modulus), tuple(keep[v] for v in t.head),
            keep[t.tail], body_q, p.index_set, p.wildcard,
        ))
    return out


def subsets(g, deep):
    """The connected deletions of one vertex, and of two when deep, as
    sorted tuples of g's vertices."""
    reader = classify._Subsets(g)
    everything = tuple(range(g.rank))
    out = [rest for v in everything
           if reader.is_connected(mask(rest := tuple(u for u in everything if u != v)))]
    if deep:
        out += [rest for i, v in enumerate(everything) for w in everything[i + 1:]
                if reader.is_connected(
                    mask(rest := tuple(u for u in everything if u not in (v, w))))]
    return reader, out


def test_whole_diagram_recognizers_match_reference(diagrams):
    for name, g, _ in diagrams:
        assert tag_fields(classify.classical_type(g), range(g.rank)) == tag_fields(
            ref.classical_type(g), range(g.rank)), name
        assert classify.head_patterns(g) == ref.head_patterns(g), name
        assert classify.quasi_classical_tails(g) == ref.quasi_classical_tails(g), name
        assert classify.is_semi_classical(g) == ref.is_semi_classical(g), name
        assert classify.is_simple_cycle(g) == ref.is_simple_cycle(g), name
        assert classify.is_bi_classical(g) == ref.is_bi_classical(g), name
        assert classify.is_continual_extension(g) == ref.is_continual_extension(g), name
        assert is_bi_semi_classical(g, lambda h: True) == ref.is_bi_semi_classical(
            g, lambda h: True), name
        # The trunk handed to continual, its tail and the head kind are the
        # reference's; the answer varies with the trunk to reach both branches.
        calls = {"new": [], "ref": []}

        def continual(side):
            def decide(trunk, tau, kind):
                calls[side].append((trunk.to_text(), tau, kind))
                return sum(d.exponent for d in trunk.diag) % 2 == 0
            return decide

        assert classify.is_classical_plus_semiclassical(g, continual("new")) == (
            ref.is_classical_plus_semiclassical(g, continual("ref"))), name
        assert calls["new"] == calls["ref"], name


def test_subset_readings_match_reference_and_brute_force(diagrams):
    read = 0
    for name, g, deep in diagrams:
        reader, keeps = subsets(g, deep)
        for keep in keeps:
            sub = g.induced(list(keep))
            tags = reader.readings(mask(keep))
            assert tag_fields(tags, range(g.rank)) == tag_fields(
                ref.classical_type(sub), keep), (name, keep)
            assert reader.heads(mask(keep)) == [
                h._replace(vertices=tuple(keep[v] for v in h.vertices), attach=keep[h.attach])
                for h in ref.head_patterns(sub)], (name, keep)
            assert reader.quasi_classical_tails(mask(keep)) == {
                keep[t] for t in ref.quasi_classical_tails(sub)}, (name, keep)
            assert reader.is_semi_classical(mask(keep)) == ref.is_semi_classical(sub), (
                name, keep)
            edges = {e: lab.exponent for e, lab in sub.edges.items()}
            diag = [d.exponent for d in sub.diag]
            assert bool(tags) == indep_is_classical(sub.rank, sub.modulus, diag, edges), (
                name, keep)
            read += 1
    assert read == 4480


def test_targeted_tail_queries_match_full_readings(diagrams):
    """readings(keep, t) is the full readings with tail t, and
    has_quasi_tail(keep, t) is membership in the reference's quasi-classical
    tails of the sub-diagram on keep, at every vertex t of g.  has_quasi_tail
    asks no deletion that drops t."""
    asked = []
    checked = 0
    for name, g, _ in diagrams:
        reader, keeps = subsets(g, True)
        read = reader.readings

        def recording(keep, tail=None, first=False):
            asked.append((keep, tail))
            return read(keep, tail, first)

        for keep in [tuple(range(g.rank))] + keeps:
            full = read(mask(keep))
            tails = {keep[t] for t in ref.quasi_classical_tails(g.induced(list(keep)))}
            for t in range(g.rank):
                assert read(mask(keep), t) == {r for r in full if r.tail == t}, (name, keep, t)
                reader.readings = recording
                try:
                    got = reader.has_quasi_tail(mask(keep), t)
                finally:
                    del reader.readings
                assert got == (t in tails), (name, keep, t)
                assert all(part >> tail & 1 for part, tail in asked), (name, keep, t)
                asked.clear()
                checked += 1
    assert checked == 57910
