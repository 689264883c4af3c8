from math import gcd
from pathlib import Path

import pytest

from brute import bf_canon
from gddkit.core import GDD, normalized_key, parse_blocks
from gddkit.roots import Parameter, UnityRoot
from gddkit.search import (
    collect_bases,
    enumerate_quasi_affine,
    extensions,
    twist_representatives,
    verify_against,
)
from gddkit.tables import load

DATA = Path(__file__).parent.parent / "src" / "gddkit" / "data" / "exceptional_rows.gdd"
FIXTURES = Path(__file__).parent / "fixtures"


def u(e, m=6):
    return UnityRoot(e, m)


def row11_gdd1():
    return GDD(
        6,
        tuple(u(e) for e in [2, 2, 3, 2, 2]),
        {(i, i + 1): u(4) for i in range(4)},
    )


def parse_db_rows_independently(rank, modulus):
    """Re-read the database file with plain string handling and expand the
    power twists, without touching the package parser."""
    keys = set()
    text = DATA.read_text()
    for block in text.split("\n\n"):
        lines = [l for l in block.strip().splitlines() if l and not l.startswith("#")]
        if not lines:
            continue
        head = lines[0].split()
        m = int(head[1][2:])
        n = int(head[2][2:])
        if n != rank or modulus % m != 0:
            continue
        scale = modulus // m
        diag = tuple(int(x) * scale for x in lines[1].split()[1:])
        edges = {}
        for line in lines[2:]:
            _, i, j, e = line.split()
            edges[(int(i) - 1, int(j) - 1)] = int(e) * scale
        for t in range(1, modulus):
            if gcd(t, modulus) != 1:
                continue
            d_t = tuple((x * t) % modulus for x in diag)
            e_t = {k: (x * t) % modulus for k, x in edges.items()}
            keys.add(bf_canon(n, modulus, d_t, e_t))
    return keys


@pytest.fixture(scope="module")
def db():
    return load(DATA)


def test_extension_counts():
    base1 = GDD(6, (u(2),))
    assert sum(1 for _ in extensions(base1, 6)) == 25
    base2 = GDD(6, (u(2), u(2)), {(0, 1): u(4)})
    # 5 diag choices x (2 single attachments x 5 + 1 double x 25)
    assert sum(1 for _ in extensions(base2, 6)) == 5 * (2 * 5 + 25)


def test_restricted_run_matches_independent_script(restricted_vs_independent):
    """The staged search over one base equals a direct loop written from
    scratch (separate parsing, canonical forms, and arithmetic checks)."""
    lib_keys, indep = restricted_vs_independent
    assert lib_keys == indep


def test_determinism(db):
    base = row11_gdd1()
    r1 = enumerate_quasi_affine(6, Parameter(3), db, bases=[base])
    r2 = enumerate_quasi_affine(6, Parameter(3), db, bases=[base])
    t1, t2 = r1.to_text(), r2.to_text()
    # elapsed time is not part of the report text
    assert t1 == t2


def test_filters_do_not_change_found_set(db):
    base = row11_gdd1()
    with_f = enumerate_quasi_affine(6, Parameter(3), db, bases=[base],
                                    use_filters=True, collect_shapes=False)
    without = enumerate_quasi_affine(6, Parameter(3), db, bases=[base],
                                     use_filters=False, collect_shapes=False)
    assert set(with_f.found) == set(without.found)
    assert with_f.pruned_by_filters > 0
    assert without.pruned_by_filters == 0


def test_every_found_item_arises_from_a_base(db):
    """Every connected graph keeps two non-cut vertices, so each found
    diagram must contain some base as a connected deletion."""
    base = row11_gdd1()
    report = enumerate_quasi_affine(6, Parameter(3), db, bases=[base])
    base_key = normalized_key(base)
    for key, g in report.found.items():
        hits = 0
        connected_deletions = 0
        for v in range(g.rank):
            sub = g.delete_vertex(v)
            if sub.is_connected():
                connected_deletions += 1
                if normalized_key(sub) == base_key:
                    hits += 1
        assert connected_deletions >= 2
        assert hits >= 1, g.to_text()


def test_verify_against_reports_missing(db):
    base = row11_gdd1()
    report = enumerate_quasi_affine(6, Parameter(3), db, bases=[base])
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
    keys = {normalized_key(g) for g in bases}
    assert len(keys) == len(bases)


def fixture_item(name):
    for g, meta, _ in parse_blocks((FIXTURES / "items_main.gdd").read_text()):
        if meta.get("item") == name:
            return g
    raise KeyError(name)


@pytest.mark.parametrize("use_filters", [False, True])
def test_search_finds_fixture_19_7_1(db, use_filters):
    """Rank 7, M=4: a base of fixture 19.7.1 yields it, with and without the
    filters (the branch filter must spare its finite-Cartan deletion)."""
    g = fixture_item("19.7.1")
    report = enumerate_quasi_affine(7, Parameter(4), db, bases=[g.delete_vertex(4)],
                                    use_filters=use_filters, collect_shapes=False)
    assert normalized_key(g) in report.found


@pytest.fixture(scope="module")
def rank6_m4(db):
    """The default search at rank 6, M=4 (one base per twist orbit) and the
    unreduced search over every base."""
    default = enumerate_quasi_affine(6, Parameter(4), db)
    unreduced = enumerate_quasi_affine(6, Parameter(4), db,
                                       bases=collect_bases(5, 4, db))
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
    assert report.pruned_by_filters == 0


@pytest.mark.parametrize("modulus, orbits", [(4, 61), (6, 194), (10, 145)])
def test_bases_are_closed_under_twists(db, modulus, orbits):
    """The orbit search covers every base only because the base set is
    closed under the twists."""
    bases = collect_bases(5, modulus, db)
    keys = {normalized_key(g) for g in bases}
    assert all(normalized_key(h) in keys for g in bases for h in g.twists())
    assert len(twist_representatives(bases)) == orbits


def test_orbit_search_matches_unreduced_search(rank6_m4):
    default, unreduced = rank6_m4
    assert default.found.keys() == unreduced.found.keys()
    assert default.shape_tags == unreduced.shape_tags


def test_orbit_search_found_set_is_closed_under_twists(rank6_m4):
    found = rank6_m4[0].found
    for t in (1, 3):
        assert {normalized_key(g.power_twist(t)) for g in found.values()} == found.keys()


def test_orbit_search_tries_one_base_per_orbit(rank6_m4):
    default, unreduced = rank6_m4
    assert (default.bases_tried, unreduced.bases_tried) == (61, 116)
    assert default.to_text().splitlines()[1].startswith("# bases=61 candidates=3960 ")
