"""The record classes: their hashes, equality, immutability and reprs, and
what importing the command line loads.

A record's hash is the hash of the tuple of the fields its equality
compares, so sets and dicts of records iterate in the same order, and the
reports built from them read the same, whatever the classes are built on.
The reprs are the strings the records have always printed."""

import copy
import pickle
import subprocess
import sys

import pytest

from gddkit.cartan import AffineFamily
from gddkit.chains import ChainProfile, chain_profile
from gddkit.classify import HeadPattern, TypeTag, classical_type, head_patterns
from gddkit.core import GDD, with_modulus
from gddkit.oracle import OracleVerdict
from gddkit.roots import Parameter, UnityRoot
from gddkit.search import Comparison, EnumerationReport
from gddkit.tables import EntryMeta


def u(e, m=6):
    return UnityRoot(e, m)


# The chain q - q - q with edges q^-1, q of order 3 in mu_6.
CHAIN = GDD(6, (u(2),) * 3, {(0, 1): u(4), (1, 2): u(4)})

# (record, the tuple of the fields its equality compares, its repr)
RECORDS = [
    (u(3, 4), (3, 4), "UnityRoot(3, 4)"),
    (u(-1, 4), (3, 4), "UnityRoot(3, 4)"),
    (Parameter(3), (3,), "Parameter(order_of_q=3)"),
    (ChainProfile(u(2), frozenset({1, 2}), False, 2), (u(2), frozenset({1, 2}), False),
     "ChainProfile(q=UnityRoot(2, 6), index_set=frozenset({1, 2}), wildcard=False, end=2)"),
    (ChainProfile(None, frozenset(), True), (None, frozenset(), True),
     "ChainProfile(q=None, index_set=frozenset(), wildcard=True, end=None)"),
    (TypeTag("T3", u(2), ChainProfile(u(2), frozenset({1}), False, 0), (1, 2), 0),
     ("T3", u(2), ChainProfile(u(2), frozenset({1})), (1, 2), 0),
     "TypeTag(kind='T3', q=UnityRoot(2, 6), body_profile=ChainProfile(q=UnityRoot(2, 6), "
     "index_set=frozenset({1}), wildcard=False, end=0), head=(1, 2), tail=0)"),
    (HeadPattern("T1", (0,), 1, body_param_square=u(2)), ("T1", (0,), 1, None, u(2)),
     "HeadPattern(kind='T1', vertices=(0,), attach=1, body_param=None, "
     "body_param_square=UnityRoot(2, 6))"),
    (AffineFamily("A1_N", 3), ("A1_N", 3), "AffineFamily(name='A1_N', size=3)"),
    (AffineFamily("E1_6", None), ("E1_6", None), "AffineFamily(name='E1_6', size=None)"),
    (OracleVerdict(False, ("no-match",)), (False, ("no-match",)),
     "OracleVerdict(arithmetic=False, witness=('no-match',))"),
    (OracleVerdict(True, ("table", 3, 1)), (True, ("table", 3, 1)),
     "OracleVerdict(arithmetic=True, witness=('table', 3, 1))"),
    (EntryMeta(3, 1, 3, "Table 2"), (3, 1, 3, "Table 2"),
     "EntryMeta(row=3, gdd_index=1, order_of_q=3, source='Table 2')"),
    (EntryMeta(4, 0, 5), (4, 0, 5, ""), "EntryMeta(row=4, gdd_index=0, order_of_q=5, source='')"),
]


@pytest.mark.parametrize("record,fields,text", RECORDS, ids=lambda x: repr(x)[:40])
def test_value_record(record, fields, text):
    assert hash(record) == hash(fields)
    twin = type(record)(*fields)
    assert twin == record and not twin != record and hash(twin) == hash(record)
    assert repr(record) == text
    assert pickle.loads(pickle.dumps(record)) == record
    for name in type(record).__match_args__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_records_of_derived_values_read_as_before():
    assert sorted(map(repr, chain_profile(CHAIN))) == [
        "ChainProfile(q=UnityRoot(2, 6), index_set=frozenset(), wildcard=False, end=2)"]
    assert sorted(map(repr, classical_type(CHAIN))) == [
        "TypeTag(kind='T5', q=UnityRoot(2, 6), body_profile=ChainProfile(q=UnityRoot(2, 6), "
        "index_set=frozenset(), wildcard=False, end=1), head=(0, 2), tail=1)",
        "TypeTag(kind='T7', q=UnityRoot(4, 6), body_profile=ChainProfile(q=UnityRoot(2, 6), "
        "index_set=frozenset(), wildcard=False, end=0), head=(), tail=2)",
        "TypeTag(kind='T7', q=UnityRoot(4, 6), body_profile=ChainProfile(q=UnityRoot(2, 6), "
        "index_set=frozenset(), wildcard=False, end=2), head=(), tail=0)",
    ]
    assert list(map(repr, head_patterns(CHAIN))) == [
        "HeadPattern(kind='T1', vertices=(0,), attach=1, body_param=None, "
        "body_param_square=UnityRoot(2, 6))",
        "HeadPattern(kind='T1', vertices=(2,), attach=1, body_param=None, "
        "body_param_square=UnityRoot(2, 6))",
        "HeadPattern(kind='T5', vertices=(0, 2), attach=1, body_param=UnityRoot(2, 6), "
        "body_param_square=None)",
    ]


def test_unity_root_normalises_validates_and_orders():
    assert u(-1, 4) == u(3, 4) and u(7, 4) == u(3, 4) and u(-1, 4).exponent == 3
    for modulus in (3, 0, -2, 1):
        with pytest.raises(ValueError, match="modulus must be even"):
            UnityRoot(1, modulus)
    roots = [u(3, 4), u(1, 6), u(1, 4), u(0, 8)]
    assert sorted(roots) == [u(0, 8), u(1, 4), u(1, 6), u(3, 4)]
    assert sorted(roots) == sorted(roots, key=lambda x: (x.exponent, x.modulus))
    assert u(1, 4) < u(2, 4) <= u(2, 4) and u(3, 4) > u(1, 6)


def test_parameter_validates():
    for order in (1, 0, -3):
        with pytest.raises(ValueError, match="order of q"):
            Parameter(order)
    assert Parameter(3).q == u(2) and Parameter(3).modulus == 6


def test_chain_profile_ignores_its_end():
    a = ChainProfile(u(2), frozenset({1}), False, 0)
    b = ChainProfile(u(2), frozenset({1}), False, 3)
    assert a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != ChainProfile(u(4), frozenset({1}), False, 0)
    assert ChainProfile(u(2)) == ChainProfile(u(2), frozenset(), False, None)


def test_oracle_verdict_truth():
    assert not OracleVerdict(False, ())
    assert OracleVerdict(True, ())


def test_gdd_record():
    g = CHAIN
    assert hash(g) == hash(
        (6, g.diag, tuple(sorted((e, lab.exponent) for e, lab in g.edges.items()))))
    twin = GDD(6, (u(2),) * 3, {(1, 2): u(4), (1, 0): u(4)})
    assert twin == g and not twin != g and hash(twin) == hash(g)
    assert g != GDD(6, (u(2),) * 3, {(0, 1): u(4)}) and g != (6, g.diag, g.edges)
    assert repr(GDD(4, (u(1, 4),))) == "GDD(modulus=4, diag=(UnityRoot(1, 4),), edges={})"
    assert repr(g) == (
        "GDD(modulus=6, diag=(UnityRoot(2, 6), UnityRoot(2, 6), UnityRoot(2, 6)), "
        "edges={(0, 1): UnityRoot(4, 6), (1, 2): UnityRoot(4, 6)})")
    for name in ("modulus", "diag", "edges", "_canonical", "extra"):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(g, name, None)
    with pytest.raises(AttributeError, match="cannot delete"):
        del g.modulus
    g.canonical_key()
    assert pickle.loads(pickle.dumps(g)) == g == copy.copy(g) == copy.deepcopy(g)


def test_gdd_post_init_runs_once_per_build(monkeypatch):
    built = []
    post_init = GDD.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(GDD, "__post_init__", counted)
    made = [
        GDD(6, (u(2),)),
        CHAIN.induced([2, 0]),
        CHAIN.permute([2, 0, 1]),
        CHAIN.power_twist(5),
        CHAIN.add_vertex(u(2), [(2, u(4))]),
        with_modulus(CHAIN, 12),
    ]
    assert built == made


def test_mutable_records():
    report = EnumerationReport(6, 4)
    assert repr(report) == (
        "EnumerationReport(rank=6, modulus=4, found={}, shape_tags={}, bases_tried=0, "
        "candidates_examined=0, elapsed=0.0, comparison=None)")
    other = EnumerationReport(6, 4)
    assert report == other and report.found is not other.found
    other.bases_tried = 1
    assert report != other
    comparison = Comparison([b"k1"], [(b"k2", "note")], [])
    assert repr(comparison) == "Comparison(matched=[b'k1'], missing=[(b'k2', 'note')], extra=[])"
    assert comparison == Comparison([b"k1"], [(b"k2", "note")], [])
    assert not comparison.ok and Comparison([], [], []).ok
    for record in (report, comparison):
        with pytest.raises(TypeError):
            hash(record)


def test_cli_import_loads_no_dataclasses(child_env):
    """A command-line process imports neither dataclasses nor inspect (which
    dataclasses pulls in with ast, dis and tokenize): they would cost more
    than the rest of the import."""
    code = ("import sys, gddkit.cli\n"
            "from gddkit.tables import load\n"
            "load(gddkit.cli.DEFAULT_DB)\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
