"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The seven criteria take
about 16 s together; the slowest steps are the independent-oracle set-up of
criterion 5 and the rank-6, M=6 enumeration run.
"""

import time
from itertools import product
from pathlib import Path

import pytest

import brute
import reference
from cartan_matrices import all_gcms, finite_reference_list, same_up_to_permutation
from digests import found_digest, shape_digest
from gddkit.cartan import (
    AffineFamily,
    affine_family_of,
    arithmetic_via_cartan,
    braiding_exponents,
    is_affine_cartan,
    is_finite_cartan,
    is_indecomposable,
)
from gddkit.chains import chain_profile, chains_with_parameter, is_simple_chain
from gddkit.core import GDD, parse_blocks
from gddkit.oracle import (
    Oracle,
    forbidden_by_chain_failures,
    forbidden_branch_pattern,
)
from gddkit.roots import UnityRoot
from gddkit.search import collect_bases, enumerate_quasi_affine, verify_against
from gddkit.tables import generate_classical, load

HERE = Path(__file__).parent
DATA = HERE.parent / "src" / "gddkit" / "data" / "exceptional_rows.gdd"
FIXTURE_FILES = ["items_cs.gdd", "items_continual.gdd", "items_main.gdd"]


def fixture_blocks():
    for name in FIXTURE_FILES:
        for g, meta, lineno in parse_blocks((HERE / "fixtures" / name).read_text()):
            yield g, meta, f"{name}:{meta.get('item')}"


@pytest.fixture(scope="module")
def db():
    return load(DATA)


@pytest.fixture(scope="module")
def oracle(db):
    return Oracle(db)


@pytest.fixture(scope="module")
def rank6_run(db):
    return enumerate_quasi_affine(6, 6, db)


def test_criterion_1_fixture_soundness(oracle):
    """Transcribed rank-6 diagrams at their stated parameters all verify."""
    start = time.monotonic()
    checked = 0
    core = 0
    for g, meta, label in fixture_blocks():
        if g.rank != 6:
            continue
        assert oracle.is_quasi_affine(g), label
        checked += 1
        if int(meta["N"]) in (3, 4, 5):
            core += 1
    elapsed = time.monotonic() - start
    assert core >= 25
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1: PASS - {checked} rank-6 fixtures quasi-affine "
          f"in {elapsed:.1f}s")


def test_criterion_2_enumeration_completeness(db, rank6_run):
    """The rank-6, M=6 search finds a superset of every transcribed
    modulus-6 fixture, and every found diagram independently re-verifies."""
    report = rank6_run
    blocks = []
    for g, meta, label in fixture_blocks():
        if g.rank == 6 and g.modulus == 6:
            blocks.append(f"# item={meta.get('item')}\n" + g.to_text())
    comparison = verify_against(report, "\n\n".join(blocks))
    assert comparison.ok, f"missing: {[n for _, n in comparison.missing]}"
    # re-verify each found diagram with a fresh oracle (no shared caches)
    fresh = Oracle(load(DATA))
    for key, g in report.found.items():
        assert fresh.is_quasi_affine(g), g.to_text()
    assert report.elapsed < 600, f"enumeration took {report.elapsed:.0f}s"
    # the found set and its shape tags as first recorded, so a search change
    # that adds or loses a diagram, or a recognition change that renames
    # one, fails even when every fixture is still found
    assert len(report.found) == 810
    assert found_digest(report) == (
        "34cc0318bbb2a25b680ca17a969829f35935eac15ed8e89dde73fc95dc64fa35"
    )
    assert shape_digest(report) == (
        "aac73d6c6398a19c475790a9cd6e1e2292d864941d7bb3f616d5bcd178b29042"
    )
    print(f"\nACCEPTANCE 2: PASS - found {len(report.found)} diagrams in "
          f"{report.elapsed:.0f}s; all {len(blocks)} fixtures matched, "
          f"0 missing; every found item re-verified")


def test_criterion_3_affine_catalogue():
    """16 families x 3 admissible parameters: determinant zero, proper
    principal minors positive, family identity round-trips."""
    from gddkit.cartan import FAMILY_NAMES, admissible, catalogue

    sizes = {}
    for family, _ in catalogue(UnityRoot(2, 60)):
        sizes.setdefault(family.name, []).append(family.size)
    checks = 0
    for name in FAMILY_NAMES:
        fam = AffineFamily(name, sizes[name][1 if name == "A1_N" else 0])
        got = []
        for order in (3, 4, 5, 6, 7, 8, 9):
            from math import lcm
            q = UnityRoot(lcm(2, order) // order, lcm(2, order))
            if admissible(name, q):
                got.append(q)
            if len(got) == 3:
                break
        assert len(got) == 3, name
        for q in got:
            from gddkit.cartan import build_affine_gdd

            g = build_affine_gdd(fam, q)
            a = braiding_exponents(g)
            assert a is not None
            assert brute._det_int(a) == 0, (name, q)
            n = len(a)
            for i in range(n):
                keep = [j for j in range(n) if j != i]
                sub = reference.submatrix(a, keep)
                assert is_finite_cartan(sub), (name, q, i)
            back = affine_family_of(g)
            assert back is not None and back.name == name
            checks += 1
    assert checks == 48
    print(f"\nACCEPTANCE 3: PASS - {checks} affine catalogue checks")


def test_criterion_4_cartan_shortcut_consistency(oracle):
    """Over generated classical diagrams the shortcut never denies; over the
    quasi-affine fixtures it never affirms."""
    classical_checked = 0
    for rank in (5, 6):
        for m in (6, 8, 10):
            for g in generate_classical(rank, m):
                verdict = arithmetic_via_cartan(g)
                assert verdict in (True, None), g.to_text()
                classical_checked += 1
    fixture_checked = 0
    for g, meta, label in fixture_blocks():
        assert arithmetic_via_cartan(g) is not True, label
        fixture_checked += 1
    print(f"\nACCEPTANCE 4: PASS - shortcut consistent on {classical_checked} "
          f"classical instances and {fixture_checked} fixtures")


def test_criterion_5_independent_oracle_equality(restricted_vs_independent):
    """Restricted enumeration over one base equals the from-scratch loop."""
    lib_keys, indep = restricted_vs_independent
    assert lib_keys == indep
    print(f"\nACCEPTANCE 5: PASS - restricted search = independent script "
          f"({len(lib_keys)} diagrams)")


def test_criterion_6_property_suites():
    import random

    # canonical key permutation invariance, 1000 random diagrams, n <= 8
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randrange(2, 9)
        m = rng.choice([2, 4, 6, 8, 10, 12])
        diag = tuple(UnityRoot(rng.randrange(m), m) for _ in range(n))
        edges = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    edges[(i, j)] = UnityRoot(rng.randrange(1, m), m)
        g = GDD(m, diag, edges)
        sigma = list(range(n))
        rng.shuffle(sigma)
        assert g.canonical_key() == g.permute(sigma).canonical_key()

    # simple-chain round trip, exhaustive over (q, I)-reachable chains
    from gddkit.chains import build_simple_chain

    for m in (2, 4, 6, 8, 10, 12):
        for n in range(1, 7):
            for qe in range(1, m):
                q = UnityRoot(qe, m)
                for g in chains_with_parameter(n, q, m):
                    for p in chain_profile(g):
                        if p.wildcard:
                            continue
                        rebuilt = build_simple_chain(n, p, m)
                        assert any(
                            g.canonical_key() == h.canonical_key() for h in rebuilt
                        ), (g.to_text(), p)

    # root group laws, exhaustive M <= 24
    for m in range(2, 25, 2):
        xs = [UnityRoot(e, m) for e in range(m)]
        e = UnityRoot(0, m)
        for a in xs:
            assert a * a.inverse() == e
            for b in xs:
                assert a * b == b * a

    # minor criterion vs explicit finite list, 2x2 and 3x3, entries >= -4
    for n in (2, 3):
        reference = finite_reference_list(n)
        for a in all_gcms(n):
            if not is_indecomposable(a):
                continue
            expected = any(same_up_to_permutation(a, r) for r in reference)
            assert is_finite_cartan(a) == expected, a
    print("\nACCEPTANCE 6: PASS - property suites clean")


def test_criterion_7_negative_filters(db):
    """Filters stay silent on arithmetic diagrams: on the stored rows, the
    generated classical diagrams and every base of the search at rank 5 and
    6.  A filter could change a found set only by firing on an arithmetic
    deletion of a candidate, that is, on a base."""
    exception_keys = {g.canonical_key() for g, _ in db.entries()}
    silent = 0
    for g, _meta in db.entries():
        if g.is_chain():
            assert forbidden_by_chain_failures(g, exception_keys) is None
        assert forbidden_branch_pattern(g, exception_keys) is None
        silent += 1
    for rank in (5, 6):
        for g in generate_classical(rank, 6):
            if g.is_chain():
                assert forbidden_by_chain_failures(g, exception_keys) is None
            assert forbidden_branch_pattern(g, exception_keys) is None
            silent += 1
    bases = 0
    for rank, modulus in ((5, 4), (5, 6), (5, 10), (6, 4)):
        for g in collect_bases(rank, modulus, db):
            assert forbidden_by_chain_failures(g, exception_keys) is None, g.to_text()
            assert forbidden_branch_pattern(g, exception_keys) is None, g.to_text()
            bases += 1
    assert bases == 116 + 378 + 558 + 221
    print(f"\nACCEPTANCE 7: PASS - filters silent on {silent} arithmetic "
          f"diagrams and {bases} search bases")
