import hashlib
import random
from pathlib import Path

import pytest

import gddkit.core
from brute import bf_canon_gdd_raw, brute_classical_keys
from gddkit.classify import classical_type, is_quasi_classical
from gddkit.core import GDD, minimal_modulus, parse_blocks, with_modulus
from gddkit.roots import UnityRoot, minus_one
from gddkit.tables import (
    ArithmeticDatabase,
    DatabaseError,
    EntryMeta,
    classical_keys,
    generate_classical,
    load,
    store,
    validate_report,
)
from gddkit.search import enumerate_quasi_affine

DATA = Path(__file__).parent.parent / "src" / "gddkit" / "data" / "exceptional_rows.gdd"


def u(e, m=6):
    return UnityRoot(e, m)


def row11_gdd1():
    return GDD(
        6,
        tuple(u(e) for e in [2, 2, 3, 2, 2]),
        {(i, i + 1): u(4) for i in range(4)},
    )


def test_generate_contains_known_instances():
    gen2 = generate_classical(2, 6)
    assert GDD(6, (u(2), u(2)), {(0, 1): u(4)}) in gen2

    # the cube-root degeneration of a one-vertex head: end q^-1, edge q
    gen5 = generate_classical(5, 6)
    q = u(2)
    head_low = GDD(
        6,
        (q, q, q, q, q ** -1),
        {(0, 1): q ** -1, (1, 2): q ** -1, (2, 3): q ** -1, (3, 4): q},
    )
    assert head_low in gen5


def test_generate_count_matches_independent_enumeration():
    # Expected class count computed by the numpy mask enumeration in brute.py.
    lib = {bf_canon_gdd_raw(g) for g in generate_classical(5, 6)}
    assert len(lib) == 298
    assert lib == brute_classical_keys(5, 6)


@pytest.mark.parametrize("rank,m", [(2, 6), (3, 6), (4, 6), (4, 4), (3, 8)])
def test_generate_matches_independent_enumeration(rank, m):
    lib = {bf_canon_gdd_raw(g) for g in generate_classical(rank, m)}
    assert lib == brute_classical_keys(rank, m)


CLASSICAL_GRID = [(rank, m) for rank in range(2, 7) for m in range(2, 13, 2)]


def test_generated_are_recognized_back():
    for rank, m in CLASSICAL_GRID:
        for g in generate_classical(rank, m):
            assert classical_type(g), g.to_text()


def _one_label_mutant(rng, g):
    """g with one vertex or edge label changed (an edge label changed to 1
    drops the edge), or None when that leaves the oracle's domain."""
    m = g.modulus
    diag, edges = list(g.diag), dict(g.edges)
    slot = rng.randrange(g.rank + len(edges))
    if slot < g.rank:
        new = rng.choice([x for x in range(m) if x != diag[slot].exponent])
        diag[slot] = u(new, m)
    else:
        e = sorted(edges)[slot - g.rank]
        new = rng.choice([x for x in range(m) if x != edges[e].exponent])
        if new == 0:
            del edges[e]
        else:
            edges[e] = u(new, m)
    h = GDD(m, tuple(diag), edges)
    if h.has_degenerate_diag() or not h.is_connected():
        return None
    return h


def test_classical_recognition_matches_generated_key_sets():
    """The oracle's classical branch (recognition of the diagram as given)
    agrees with recognition at the minimal modulus and with membership in
    the generated key set, on every classical diagram of the grid and on
    two one-label mutants of each."""
    rng = random.Random(41)
    key_sets = {}
    positives = negatives = 0
    for rank, m in CLASSICAL_GRID:
        for g in sorted(generate_classical(rank, m), key=lambda g: g.to_text()):
            for h in [g, _one_label_mutant(rng, g), _one_label_mutant(rng, g)]:
                if h is None:
                    continue
                normal = with_modulus(h, minimal_modulus(h))
                pair = (rank, normal.modulus)
                if pair not in key_sets:
                    key_sets[pair] = classical_keys(*pair)
                expected = h.canonical_key() in key_sets[pair]
                assert bool(classical_type(normal)) == expected, h.to_text()
                assert bool(classical_type(h)) == expected, h.to_text()
                positives += expected
                negatives += not expected
    # 9,170 generated diagrams; some mutants stay classical
    assert positives > 9500 and negatives > 10000


def test_database_round_trip(tmp_path):
    db = ArithmeticDatabase()
    db.add(row11_gdd1(), EntryMeta(11, 1, 3))
    path = tmp_path / "db.gdd"
    store(db, path)
    back = load(path, expand_conjugates=False)
    assert len(back) == 1
    meta = back.contains(row11_gdd1())
    assert meta is not None and (meta.row, meta.gdd_index) == (11, 1)


def test_contains_is_relabelling_invariant(tmp_path):
    db = ArithmeticDatabase()
    g = row11_gdd1()
    db.add(g, EntryMeta(11, 1, 3))
    rng = random.Random(8)
    for _ in range(10):
        sigma = list(range(5))
        rng.shuffle(sigma)
        assert db.contains(g.permute(sigma)) is not None


def test_conjugate_expansion():
    db_raw = load(DATA, expand_conjugates=False)
    db = load(DATA)
    assert len(db) > len(db_raw)
    # the twist of a stored entry is found only in the expanded database
    g = row11_gdd1().power_twist(5)
    assert db.contains(g) is not None


def test_load_rejects_bad_entries(tmp_path):
    bad = tmp_path / "bad.gdd"
    bad.write_text("# row=1 gdd=1 N=3\ngdd M=6 n=2\ndiag 0 2\nedge 1 2 4\n")
    with pytest.raises(DatabaseError):
        load(bad)
    bad.write_text("# row=1 gdd=1 N=3\ngdd M=6 n=2\ndiag 2 2\n")
    with pytest.raises(DatabaseError):
        load(bad)  # disconnected


def test_parse_error_carries_line(tmp_path):
    from gddkit.core import ParseError

    bad = tmp_path / "bad.gdd"
    bad.write_text("gdd M=6 n=2\ndiag 2 2\nedge 1 2 0\n")
    with pytest.raises(ParseError) as err:
        load(bad)
    assert err.value.line == 3


def test_empty_file_is_empty_database(tmp_path):
    p = tmp_path / "empty.gdd"
    p.write_text("")
    assert len(load(p)) == 0


def test_packaged_database_is_sound():
    db = load(DATA, expand_conjugates=False)
    assert len(db) == 99
    for g, meta in db.entries():
        assert g.is_connected()
        assert not g.has_degenerate_diag()
        assert not classical_type(g), (meta.row, meta.gdd_index)
        assert is_quasi_classical(g), (meta.row, meta.gdd_index)


def test_validator_reports_duplicate_ids(tmp_path):
    g = row11_gdd1()
    text = (
        "# row=11 gdd=1 N=3\n" + g.to_text() + "\n\n"
        "# row=11 gdd=1 N=3\n" + g.permute([4, 3, 2, 1, 0]).to_text() + "\n"
    )
    p = tmp_path / "dup.gdd"
    p.write_text(text)
    notes = validate_report(p)
    assert any("duplicate identifier" in n for n in notes)
    assert any("same up to relabelling" in n for n in notes)


def test_no_new_keys_under_parameter_substitution():
    # the minus-inverse substitution maps one-vertex-head instances onto
    # instances already produced at another parameter
    keys = {g.canonical_key() for g in generate_classical(4, 6)}
    sub = set()
    for g in generate_classical(4, 6):
        sub.add(g.canonical_key())
    assert sub == keys


# -- the lazy database ---------------------------------------------------------


def _stored_rows():
    """(diagram, meta) of every row of the packaged file, in file order."""
    return [(g, EntryMeta(int(meta["row"]), int(meta["gdd"]), int(meta["N"]), meta.get("src", "")))
            for g, meta, _ in parse_blocks(DATA.read_text())]


def _added_database():
    """The packaged rows and their twists, added one by one in file order."""
    db = ArithmeticDatabase()
    for g, meta in _stored_rows():
        for twist in g.twists():
            db.add(twist, meta)
    return db


def test_load_keys_nothing():
    runs = []
    least_form = gddkit.core.least_form

    def counted(colours, nbrs):
        runs.append(colours)
        return least_form(colours, nbrs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gddkit.core, "least_form", counted)
        load(DATA)
        load(DATA, expand_conjugates=False)
    assert runs == []


def test_lazy_database_equals_added_database():
    """A loaded database reads as one filled by add() over every twist of
    every row in file order: its size, its entries in order, the entry of
    every twist and of a relabelling of it, and its keyed rows by rank and
    by the modulus their labels fit in."""
    added = _added_database()
    assert len(load(DATA)) == len(added) == 212
    assert list(load(DATA).entries()) == list(added.entries())
    for rank in range(5, 9):
        assert list(load(DATA).entries(rank)) == list(added.entries(rank))
    rng = random.Random(21)
    db = load(DATA)
    for g, meta in added.entries():
        sigma = list(range(g.rank))
        rng.shuffle(sigma)
        assert db.contains(g) == db.contains(g.permute(sigma)) == meta
        assert db.lookup(g.rank + 1, g.canonical_key()) is None
    for rank in range(5, 9):
        assert load(DATA).keyed(rank) == added.keyed(rank)
        for modulus in range(2, 13, 2):
            assert load(DATA).keyed(rank, modulus) == [
                (key, g) for key, g in added.keyed(rank) if modulus % minimal_modulus(g) == 0]


def test_a_row_and_its_twists_share_a_bucket():
    for g, _ in _stored_rows():
        assert {minimal_modulus(t) for t in g.twists()} == {minimal_modulus(g)}


def test_search_keys_only_buckets_inside_its_modulus():
    db = load(DATA)
    enumerate_quasi_affine(6, 4, db, collect_shapes=False)
    assert db._keyed and all(4 % m == 0 for _, m in db._keyed)
    assert all(4 % m for _, m in db._staged)


def test_stored_bytes_are_the_eager_loads(tmp_path):
    """store writes the bytes it wrote when load keyed every row (digests
    recorded then), with and without the twists."""
    digests = {
        True: "52301737d86369d47f08828f9390102261598125153762e6c64e06ee1b78100d",
        False: "71e1679ec602671d4da9a25d2787e4e662785f9975847975eddd8723f52af563",
    }
    for expand, digest in digests.items():
        path = tmp_path / f"db-{expand}.gdd"
        store(load(DATA, expand_conjugates=expand), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_add_does_not_replace_a_staged_row():
    db = load(DATA)
    g, meta = next((g, meta) for g, meta in _stored_rows() if g == row11_gdd1())
    assert (5, minimal_modulus(g)) in db._staged
    assert not db.add(g.power_twist(5).permute([4, 3, 2, 1, 0]), EntryMeta(0, 0, 0, "added"))
    assert db.contains(g) == db.contains(g.power_twist(5)) == meta


def test_first_staged_row_wins(tmp_path):
    g = row11_gdd1()
    p = tmp_path / "dup.gdd"
    p.write_text("# row=11 gdd=1 N=3\n" + g.to_text() + "\n\n"
                 "# row=11 gdd=2 N=3\n" + g.permute([4, 3, 2, 1, 0]).to_text() + "\n")
    db = load(p)
    assert len(db) == len(g.twists())
    assert db.contains(g) == EntryMeta(11, 1, 3)


def test_coverage_reads_staged_rows():
    db = load(DATA)
    assert db.covers(5) and db.covers(8) and not db.covers(4)
    assert not db._keyed
    empty = ArithmeticDatabase()
    assert not empty.covers(5)
    empty.add(row11_gdd1(), EntryMeta(11, 1, 3))
    assert empty.covers(5) and not empty.covers(6)
