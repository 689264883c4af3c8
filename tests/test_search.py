from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest

import reference
from db_rows import DATA, row11_gdd1
from digests import found_digest, shape_digest, text_digest
from gddkit.cartan import affine_family_of
from gddkit.classify import classical_type
from gddkit.core import GDD, isomorphisms, parse_blocks
from gddkit.oracle import Oracle
from gddkit.roots import UnityRoot
from gddkit.search import (
    BaseIndex,
    CandidateDeletions,
    _pattern_order,
    collect_bases,
    connected_deletions,
    enumerate_quasi_affine,
    twist_representatives,
    verify_against,
)
from gddkit.tables import generate_classical, load

FIXTURES = Path(__file__).parent / "fixtures"


def u(e, m=6):
    return UnityRoot(e, m)


@pytest.fixture(scope="module")
def db():
    return load(DATA)


def _attachment_patterns(modulus, vertices, room):
    """Every nonempty attachment to at most ``room`` of the given vertices:
    every label != 1 on the new vertex, every set of attached vertices, every
    labelling of the new edges.  Ordered by new-vertex label, attachment
    size, attached vertices (lexicographic), then edge labels (the last
    varying fastest)."""
    labels = [UnityRoot(e, modulus) for e in range(1, modulus)]
    for diag in labels:
        for k in range(1, min(room, len(vertices)) + 1):
            for subset in combinations(vertices, k):
                for assignment in product(labels, repeat=k):
                    yield diag, tuple(zip(subset, assignment))


def extensions(base, modulus):
    """All diagrams adding one vertex to base, in _attachment_patterns
    order: the reference for the order of BaseIndex.completions."""
    for diag, pairs in _attachment_patterns(modulus, range(base.rank), base.rank):
        yield base.add_vertex(diag, pairs)


def test_extension_counts():
    base1 = GDD(6, (u(2),))
    assert sum(1 for _ in extensions(base1, 6)) == 25
    base2 = GDD(6, (u(2), u(2)), {(0, 1): u(4)})
    # 5 diag choices x (2 single attachments x 5 + 1 double x 25)
    assert sum(1 for _ in extensions(base2, 6)) == 5 * (2 * 5 + 25)


@pytest.mark.parametrize("rank, modulus", [(3, 4), (2, 6)])
def test_pattern_order_is_extension_order(rank, modulus):
    """_pattern_order strictly increases along the order in which
    extensions() builds its diagrams."""
    keys = [_pattern_order(p) for p in _attachment_patterns(modulus, range(rank), rank)]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_restricted_run_matches_independent_script(restricted_vs_independent):
    """The staged search over one base equals a direct loop written from
    scratch (separate parsing, canonical forms, and arithmetic checks)."""
    lib_keys, indep = restricted_vs_independent
    assert lib_keys == indep


def test_determinism(db):
    base = row11_gdd1()
    r1 = enumerate_quasi_affine(6, 6, db, bases=[base])
    r2 = enumerate_quasi_affine(6, 6, db, bases=[base])
    t1, t2 = r1.to_text(), r2.to_text()
    # elapsed time is not part of the report text
    assert t1 == t2


def test_every_found_item_arises_from_a_base(db):
    """Every connected graph keeps two non-cut vertices, so each found
    diagram must contain some base as a connected deletion."""
    base = row11_gdd1()
    report = enumerate_quasi_affine(6, 6, db, bases=[base])
    base_key = base.canonical_key()
    for key, g in report.found.items():
        hits = 0
        connected_deletions = 0
        for v in range(g.rank):
            sub = g.delete_vertex(v)
            if sub.is_connected():
                connected_deletions += 1
                if sub.canonical_key() == base_key:
                    hits += 1
        assert connected_deletions >= 2
        assert hits >= 1, g.to_text()


def test_verify_against_reports_missing(db):
    base = row11_gdd1()
    report = enumerate_quasi_affine(6, 6, db, bases=[base])
    some = next(iter(report.found.values()))
    good = "# item=x\n" + some.to_text()
    cmp = verify_against(report, good)
    assert cmp.ok and len(cmp.matched) == 1

    mutated = some.permute([1, 0, 2, 3, 4, 5])
    edges = dict(mutated.edges)
    first = next(iter(edges))
    edges[first] = u(1 if edges[first].exponent != 1 else 2)
    bad = GDD(6, mutated.diag, edges)
    cmp2 = verify_against(report, "# item=y\n" + bad.to_text())
    assert not cmp2.ok and len(cmp2.missing) == 1

    cmp3 = verify_against(report, "")
    assert cmp3.ok


def test_collect_bases_counts(db):
    bases = collect_bases(5, 6, db)
    assert len(bases) == 378
    keys = {g.canonical_key() for g in bases}
    assert len(keys) == len(bases)


def fixture_item(name):
    for g, meta, _ in parse_blocks((FIXTURES / "items_main.gdd").read_text()):
        if meta.get("item") == name:
            return g
    raise KeyError(name)


def test_search_finds_fixture_19_7_1(db):
    """Rank 7, M=4: a base of fixture 19.7.1 yields it."""
    g = fixture_item("19.7.1")
    report = enumerate_quasi_affine(7, 4, db, bases=[g.delete_vertex(4)],
                                    collect_shapes=False)
    assert g.canonical_key() in report.found


@pytest.fixture(scope="module")
def rank6_m4(db):
    """The default search at rank 6, M=4 (one base per twist orbit) and the
    unreduced search over every base."""
    default = enumerate_quasi_affine(6, 4, db)
    unreduced = enumerate_quasi_affine(6, 4, db, bases=collect_bases(5, 4, db))
    return default, unreduced


def test_rank6_m4_default_search_finds_every_fixture(rank6_m4):
    """The full default search at rank 6, M=4 finds every transcribed
    fixture at that rank and modulus."""
    blocks = []
    for name in ("items_cs", "items_continual", "items_main"):
        for g, meta, _ in parse_blocks((FIXTURES / f"{name}.gdd").read_text()):
            if g.rank == 6 and g.modulus == 4:
                blocks.append(f"# item={name}:{meta.get('item')}\n" + g.to_text())
    assert len(blocks) == 17
    report = rank6_m4[0]
    comparison = verify_against(report, "\n\n".join(blocks))
    assert comparison.ok, [name for _, name in comparison.missing]


def test_rank6_m4_found_set_is_pinned(rank6_m4):
    """The default rank 6, M=4 found set and its shape tags, as first
    recorded: a change to the search that loses or adds a diagram fails
    here, not only one that misses a fixture."""
    report = rank6_m4[0]
    assert len(report.found) == 128
    assert found_digest(report) == (
        "ceda71dac62ec8a1d79dfdf415f67822f045cdfc727cbd999cf2ffa5f8d0a8b5"
    )
    assert Counter(report.shape_tags.values()) == {
        "BiClassical": 78, "ClassicalPlusSemiClassical": 8, "Continual": 18,
        "Other": 10, "SimpleCycle": 14,
    }
    assert shape_digest(report) == (
        "a4f342c848be4094d042e2dacc87415cc63f518b427b70c62d5f5dc30f202d1f"
    )


@pytest.mark.parametrize("modulus, orbits", [(4, 61), (6, 194), (10, 145)])
def test_bases_are_closed_under_twists(db, modulus, orbits):
    """The orbit search covers every base only because the base set is
    closed under the twists."""
    bases = collect_bases(5, modulus, db)
    keys = {g.canonical_key() for g in bases}
    assert all(h.canonical_key() in keys for g in bases for h in g.twists())
    assert len(twist_representatives(bases)) == orbits


def test_orbit_search_matches_unreduced_search(rank6_m4):
    default, unreduced = rank6_m4
    assert default.found.keys() == unreduced.found.keys()
    assert default.shape_tags == unreduced.shape_tags


@pytest.mark.parametrize(
    "walk, count",
    [(slice(None), 70), (slice(None, None, -1), 70), (slice(1, None, 2), 49)],
    ids=["forwards", "backwards", "every-second"],
)
def test_first_base_rule_does_not_depend_on_walk_order(db, rank6_m4, walk, count):
    """A survivor class is decided from the first walked base among its
    deletions, so an explicit list of bases finds every quasi-affine diagram
    of the default search with a deletion in a walked class, whatever their
    order: the twist representatives forwards, backwards, and every second
    one, which leaves classes out."""
    bases = twist_representatives(collect_bases(5, 4, db))[walk]
    walked = {g.canonical_key() for g in bases}
    expected = {
        key for key, g in rank6_m4[0].found.items()
        if any(h.canonical_key() in walked for h in connected_deletions(g).values())
    }
    report = enumerate_quasi_affine(6, 4, db, bases=bases, collect_shapes=False)
    assert len(expected) == count
    assert report.found.keys() == expected


def test_no_class_is_asked_from_two_bases(db, monkeypatch):
    """The default rank 6, M=4 search asks the oracle 225 times, shape tags
    included, and asks about each candidate class from one base only: the
    repeats that remain are copies of one class built on one base."""
    asked_from = {}
    calls = []
    connected = Oracle._connected

    def counted(self, g):
        calls.append(g)
        if g.rank == 6:
            # a candidate A + x: x is its last vertex, A its deletion there
            base = g.delete_vertex(g.rank - 1).canonical_key()
            asked_from.setdefault(g.canonical_key(), set()).add(base)
        return connected(self, g)

    monkeypatch.setattr(Oracle, "_connected", counted)
    report = enumerate_quasi_affine(6, 4, db)
    assert len(report.found) == 128
    assert len(calls) == 225
    assert all(len(bases) == 1 for bases in asked_from.values())


def test_orbit_search_found_set_is_closed_under_twists(rank6_m4):
    found = rank6_m4[0].found
    for t in (1, 3):
        assert {g.power_twist(t).canonical_key() for g in found.values()} == found.keys()


def test_orbit_search_tries_one_base_per_orbit(rank6_m4):
    default, unreduced = rank6_m4
    assert (default.bases_tried, unreduced.bases_tried) == (61, 116)
    assert default.to_text().splitlines()[1].startswith("# bases=61 candidates=3960 ")


# -- the base index against the oracle -----------------------------------------


class OraclePrescreen:
    """The reference for the attachments of BaseIndex.completions: every
    attachment to a trimmed base, inside the shape bounds of the known
    arithmetic diagrams of rank n-1, whose one-vertex extension the oracle
    calls arithmetic."""

    def __init__(self, rank, modulus, db):
        self.modulus = modulus
        self.oracle = Oracle(db)
        pool = list(generate_classical(rank - 1, modulus))
        pool += [g for g, _ in db.entries(rank - 1) if g.modulus in (2, modulus)]
        self.max_edges = max(max(len(g.edges) for g in pool), rank - 2)
        self.max_degree = max(
            max(len(nbs) for g in pool for nbs in g.adjacency()), 2
        )

    def patterns(self, trimmed):
        room = min(self.max_edges - len(trimmed.edges), self.max_degree)
        open_vertices = [
            u for u, nbs in enumerate(trimmed.adjacency())
            if len(nbs) < self.max_degree
        ]
        return [
            (diag, pairs)
            for diag, pairs in _attachment_patterns(self.modulus, open_vertices, room)
            if self.oracle._connected(trimmed.add_vertex(diag, pairs)).arithmetic
        ]


def compare_pattern_lists(rank, modulus, db):
    """Compare the index's pattern list with the oracle's for every twist
    representative A of the bases of rank n-1 and every non-cut vertex v, on
    A - v.  Returns (trimmed bases, patterns, mismatched trimmed bases)."""
    bases = collect_bases(rank - 1, modulus, db)
    index = BaseIndex(bases)
    reference = OraclePrescreen(rank, modulus, db)
    trimmed_count = pattern_count = 0
    mismatched = []
    for base in twist_representatives(bases):
        for v in range(base.rank):
            trimmed = base.delete_vertex(v)
            if not trimmed.is_connected():
                continue
            got, want = list(index.completions(trimmed)), reference.patterns(trimmed)
            trimmed_count += 1
            pattern_count += len(want)
            if got != want:
                mismatched.append(trimmed)
    return trimmed_count, pattern_count, mismatched


@pytest.mark.parametrize(
    "rank, modulus, trimmed, patterns", [(6, 4, 143, 990), (7, 4, 264, 1751)]
)
def test_index_patterns_equal_oracle_prescreen(db, rank, modulus, trimmed, patterns):
    """The search reads the same patterns, in the same order, off the index
    as the oracle pre-screen it replaces passed."""
    got = compare_pattern_lists(rank, modulus, db)
    assert got[:2] == (trimmed, patterns)
    assert not got[2], got[2][0].to_text()


def direct_patterns(bases):
    """The pattern list of every trimmed base computed directly: every
    isomorphism from the trimmed base onto every connected B - w of its
    class, for every base B and vertex w, carried to the trimmed base."""
    classes = {}
    for b in bases:
        for w in range(b.rank):
            rest = b.delete_vertex(w)
            if rest.is_connected():
                to_w = [b.edge_label(w, x) for x in range(b.rank) if x != w]
                classes.setdefault(rest.canonical_key(), []).append((rest, b.diag[w], to_w))

    def patterns(trimmed):
        out = set()
        for rest, diag, to_w in classes.get(trimmed.canonical_key(), ()):
            for phi in isomorphisms(trimmed, rest):
                out.add((diag, tuple(
                    (t, to_w[phi[t]]) for t in range(trimmed.rank)
                    if to_w[phi[t]] is not None
                )))
        return sorted(out, key=_pattern_order)

    return patterns


@pytest.mark.parametrize("modulus, trimmed", [(4, 273), (6, 867)])
def test_memoized_patterns_equal_direct_computation(db, modulus, trimmed):
    """The attachments of BaseIndex.completions, computed once per class on
    its representative and carried by one isomorphism, are the direct
    computation's list, in the same order, for every connected one-vertex
    deletion of every rank-5 base."""
    bases = collect_bases(5, modulus, db)
    index, reference = BaseIndex(bases), direct_patterns(bases)
    seen = 0
    for base in bases:
        for v in range(base.rank):
            sub = base.delete_vertex(v)
            if sub.is_connected():
                assert list(index.completions(sub)) == reference(sub), sub.to_text()
                seen += 1
    assert seen == trimmed


# -- the deletion verdicts against the oracle -----------------------------------


def all_candidates(deletions, back):
    """Every candidate the patterns of the base of deletions give, owned or
    not, with the key of the base g - v is: x attached by a pattern of
    A - v, carried to A, plus an edge to v labelled by each entry of back
    (None for no edge).  By v, then patterns in BaseIndex.completions
    order, then back-edge order."""
    for v, completions in deletions.completions.items():
        # A - v numbers the vertices of A other than v in order.
        lift = [u for u in range(deletions.base.rank) if u != v]
        for (diag, pairs), key in completions.items():
            lifted = [(lift[t], lab) for t, lab in pairs]
            for v_edge in back:
                if v_edge is None:
                    yield v, diag, lifted, key
                else:
                    yield v, diag, sorted(lifted + [(v, v_edge)]), key


def owns(deletions, v, pairs):
    """Whether v is the owner of the candidate with x's pairs: the least
    non-cut vertex of A at which x keeps an edge outside it."""
    only_v0 = [w for w, _ in pairs] == [deletions.v0]
    return v == (deletions.v1 if only_v0 else deletions.v0)


def back_edges(modulus):
    return [None] + [UnityRoot(e, modulus) for e in range(1, modulus)]


def compare_deletion_verdicts(rank, modulus, db, bases=None):
    """Walk the search's candidates on the given bases (by default one per
    twist orbit) and compare the verdict the search takes on every connected
    deletion with the oracle's: from the index, from the base keys at the
    cut vertices of the base, and a base by construction at v and at the new
    vertex.  A verdict is the key of the base the deletion is, or None, so
    it must be set exactly when the oracle calls the deletion arithmetic,
    and then equal the deletion's canonical key.  Per base, the owned
    survivors (candidates whose verdicts all pass) must be distinct and hold
    every survivor's (label, pairs).  Returns ((candidates, index verdicts,
    base-key verdicts, owned candidates, survivors, owned survivors),
    mismatched (candidate, vertex) pairs)."""
    all_bases = collect_bases(rank - 1, modulus, db)
    index = BaseIndex(all_bases)
    oracle = Oracle(db)
    back = back_edges(modulus)
    candidates = from_index = from_keys = owned = survivors = owned_survivors = 0
    mismatched = []
    for base in twist_representatives(all_bases) if bases is None else bases:
        deletions = CandidateDeletions(base, index)
        survived, survived_owned = set(), []
        for v, diag, pairs, base_v in all_candidates(deletions, back):
            g = base.add_vertex(diag, pairs)
            decided = dict(deletions.verdicts(v, diag, pairs))
            by_keys = [u for u in decided if u not in deletions.completions]
            verdicts = {**decided, v: base_v, base.rank: base.canonical_key()}
            connected = [u for u in range(g.rank) if g.delete_vertex(u).is_connected()]
            assert sorted(verdicts) == connected, g.to_text()
            for u, ok in verdicts.items():
                sub = g.delete_vertex(u)
                if oracle._connected(sub).arithmetic != (ok is not None) or (
                    ok is not None and ok != sub.canonical_key()
                ):
                    mismatched.append((g, u))
            candidates += 1
            from_index += len(decided) - len(by_keys)
            from_keys += len(by_keys)
            owned_here = owns(deletions, v, pairs)
            owned += owned_here
            if all(ok is not None for ok in decided.values()):
                item = (diag, tuple(pairs))
                survivors += 1
                survived.add(item)
                if owned_here:
                    survived_owned.append(item)
        assert set(survived_owned) == survived, base.to_text()
        assert len(set(survived_owned)) == len(survived_owned), base.to_text()
        owned_survivors += len(survived_owned)
    return (candidates, from_index, from_keys, owned, survivors, owned_survivors), mismatched


@pytest.mark.parametrize(
    "rank, modulus, base_of, counts",
    [(6, 4, None, (3960, 5187, 3285, 1379, 647, 408)),
     (7, 4, "19.7.1", (80, 146, 57, 28, 10, 5))],
)
def test_deletion_verdicts_equal_oracle(db, rank, modulus, base_of, counts):
    """Every connected deletion of every candidate the search builds, in the
    default rank 6, M=4 search and on a base of fixture 19.7.1 at rank 7,
    gets the oracle's verdict and its base's key from the index or the base
    keys, and the candidates a base owns hold each of its survivors once."""
    bases = None if base_of is None else [fixture_item(base_of).delete_vertex(4)]
    got, mismatched = compare_deletion_verdicts(rank, modulus, db, bases)
    assert got == counts
    assert not mismatched, mismatched[0][0].to_text()


@pytest.mark.parametrize(
    "rank, modulus, base_of, counts",
    [(6, 4, None, (3960, 1379)), (6, 6, None, (25902, 7848)),
     (7, 4, None, (7004, 2376)), (7, 4, "19.7.1", (80, 28))],
)
def test_owned_candidates_are_the_owned_ones_of_all(db, rank, modulus, base_of, counts):
    """CandidateDeletions.owned gives, in order, exactly the candidates of
    the full enumeration that their owner builds, and CandidateDeletions.count
    the length of the full enumeration, on every base the default search
    walks and on a base of fixture 19.7.1 at rank 7.  The full totals are
    the reports' candidates= counts."""
    all_bases = collect_bases(rank - 1, modulus, db)
    index = BaseIndex(all_bases)
    if base_of is None:
        bases = twist_representatives(all_bases)
    else:
        bases = [fixture_item(base_of).delete_vertex(4)]
    back = back_edges(modulus)
    total = total_owned = 0
    for base in bases:
        deletions = CandidateDeletions(base, index)
        every = list(all_candidates(deletions, back))
        owned = list(deletions.owned(back))
        assert owned == [c for c in every if owns(deletions, c[0], c[2])], base.to_text()
        assert deletions.count(back) == len(every), base.to_text()
        total += len(every)
        total_owned += len(owned)
    assert (total, total_owned) == counts


@pytest.mark.parametrize("rank, modulus", [(5, 4), (5, 6), (5, 10), (6, 4), (6, 6)])
def test_bases_include_finite_cartan_diagrams(db, rank, modulus):
    """The base set holds every finite-Cartan diagram; those that are
    neither classical nor stored are the E6 diagrams, from rank 6 on."""
    keys = {g.canonical_key() for g in collect_bases(rank, modulus, db)}
    grown = reference.grow_by_full_test(rank, modulus)
    extra = [g for g in grown if not classical_type(g) and db.contains(g) is None]
    assert all(g.canonical_key() in keys for g in grown)
    assert len(extra) == {5: 0, 6: 3}[rank]
    for g in extra:
        # E6: arms of one, two and two vertices on the branch vertex.
        (branch,) = [v for v, nbs in enumerate(g.adjacency()) if len(nbs) == 3]
        arms = g.delete_vertex(branch).component_vertex_sets()
        assert sorted(len(arm) for arm in arms) == [1, 2, 2]


@pytest.mark.parametrize(
    "rank, modulus",
    [(5, 4), (5, 6), (5, 10), (5, 12), (6, 4), (6, 6), (7, 4), (8, 4), (9, 4)],
)
def test_bases_without_finite_cartan_growth_are_unchanged(db, rank, modulus):
    """The base set, with the E_6-E_8 diagrams built directly, equals,
    diagram by diagram and in order, the set that merges the reference
    growth of every finite-Cartan diagram."""
    assert collect_bases(rank, modulus, db) == reference.collect_bases(rank, modulus, db)


@pytest.mark.parametrize("rank", [1, 4])
def test_bases_are_not_collected_below_rank_5(db, rank):
    """Below rank 5 the finite-Cartan diagrams include F_4 and G_2, which
    collect_bases does not build, so it refuses the rank."""
    with pytest.raises(ValueError, match="rank 5"):
        collect_bases(rank, 4, db)


@pytest.mark.parametrize("rank", [6, 7, 8])
def test_finite_cartan_growth_adds_the_e_types(db, rank):
    """At ranks 6-8 and M=4 the finite-Cartan diagrams add three classes to
    the classical ones: E_rank at q = i, -1 and -i, each edge q^-1."""
    classical = {g.canonical_key() for g in generate_classical(rank, 4)}
    extra = [g for g in reference.grow_by_full_test(rank, 4)
             if g.canonical_key() not in classical]
    assert sorted(g.diag[0].exponent for g in extra) == [1, 2, 3]
    keys = {g.canonical_key() for g in collect_bases(rank, 4, db)}
    for g in extra:
        assert set(g.diag) == {g.diag[0]}
        assert set(g.edges.values()) == {g.diag[0] ** -1}
        (branch,) = [v for v, nbs in enumerate(g.adjacency()) if len(nbs) == 3]
        arms = g.delete_vertex(branch).component_vertex_sets()
        assert sorted(len(arm) for arm in arms) == [1, 2, rank - 4]
        assert g.canonical_key() in keys


def test_rank7_m4_search_finds_affine_e6(db):
    """The default rank 7, M=4 search finds the affine E6^(1) diagram at
    q = i, -1 and -i: each extends the finite-Cartan base E6.  Its shape
    tags, computed once per twist orbit, are each diagram's own."""
    report = enumerate_quasi_affine(7, 4, db)
    e6 = sorted(g.diag[0].exponent for g in report.found.values()
                if affine_family_of(g) is not None
                and affine_family_of(g).name == "E1_6")
    assert e6 == [1, 2, 3]
    assert len(report.found) == 204
    assert found_digest(report) == (
        "500502e1eabdec34ef934fb0e6ca1dc42111d54f8d60a96a4b0347264b77b722"
    )
    oracle = Oracle(db)
    assert report.shape_tags == {
        key: oracle.shape_tag(g) for key, g in report.found.items()
    }
    assert Counter(report.shape_tags.values()) == {
        "BiClassical": 142, "ClassicalPlusSemiClassical": 4, "Continual": 34,
        "Other": 5, "SimpleCycle": 19,
    }
    assert shape_digest(report) == (
        "6a52c9d13f467e5b2dddc283cc2f4d30a2ee32f62a48be3bb6add15e152b667b"
    )
    # The keys cannot see the labellings; the report's text can.
    assert text_digest(report) == (
        "3c7bd4ce0ba62f4d25cb7a9fe032b6b18be0fce92e1023eb93b95e9ff8e34481"
    )


def test_rank8_m6_report_text_is_pinned(db):
    """The default rank 8, M=6 report, labellings included, as first
    recorded: its bases hold E_7 at the five q != 1 of mu_6."""
    report = enumerate_quasi_affine(8, 6, db)
    assert len(report.found) == 1779
    assert text_digest(report) == (
        "495c792c75ea40f390bccdd1c45f707264a3e879bf466ff4e7d6262e0cc574c6"
    )
