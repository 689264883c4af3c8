import copy
import pickle
import subprocess
import sys

import pytest

from gddkit.core import GDD
from gddkit.roots import (
    Parameter,
    UnityRoot,
    _solve_log,
    discrete_log_nonpositive,
    minus_one,
    one,
    parse_root,
)


def all_roots(m):
    return [UnityRoot(e, m) for e in range(m)]


def test_mul_examples():
    assert UnityRoot(2, 6) * UnityRoot(5, 6) == UnityRoot(1, 6)
    assert UnityRoot(0, 6) * UnityRoot(4, 6) == UnityRoot(4, 6)
    assert UnityRoot(3, 6) * UnityRoot(3, 6) == UnityRoot(0, 6)


def test_mul_modulus_mismatch():
    with pytest.raises(ValueError):
        UnityRoot(1, 6) * UnityRoot(1, 8)


def test_pow_examples():
    assert UnityRoot(2, 6) ** -1 == UnityRoot(4, 6)
    assert UnityRoot(1, 8) ** 4 == UnityRoot(4, 8) == minus_one(8)
    assert UnityRoot(5, 12) ** 0 == one(12)


def test_order_examples():
    assert UnityRoot(2, 6).order() == 3
    assert UnityRoot(3, 6).order() == 2
    assert UnityRoot(0, 6).order() == 1


def test_odd_or_small_modulus_rejected():
    # each asked twice: a rejected modulus leaves no table to answer from
    for exponent, modulus in [(0, 5), (0, 0), (3, 1), (1, -2), (7, 9)] * 2:
        with pytest.raises(ValueError):
            UnityRoot(exponent, modulus)


@pytest.mark.parametrize("m", [2, 4, 6, 60])
def test_labels_are_interned(m):
    for e in range(-3 * m, 3 * m):
        x = UnityRoot(e, m)
        assert x is UnityRoot(e + m, m) is UnityRoot(e % m, m)
        assert x.exponent == e % m and type(x.exponent) is int
    x = UnityRoot(m - 1, m)
    assert x * x.inverse() is one(m) and x ** 2 is UnityRoot(m - 2, m)


# Each test below builds its own modulus, which no other test builds, so
# that its first label misses the shared table.


def test_a_float_exponent_is_refused_and_leaves_the_table_clean():
    with pytest.raises(TypeError):
        UnityRoot(2.0, 9998)
    x = UnityRoot(2, 9998)
    assert type(x.exponent) is int
    assert GDD(9998, (x, x)).to_text().splitlines()[1] == "diag 2 2"


def test_a_non_integral_exponent_is_refused():
    with pytest.raises(TypeError):
        UnityRoot(1.5, 9996)


def test_a_float_modulus_is_refused():
    with pytest.raises(TypeError):
        UnityRoot(1, 9994.0)
    assert type(UnityRoot(1, 9994).modulus) is int


def test_numpy_integers_are_stored_as_ints():
    np = pytest.importorskip("numpy")
    x = UnityRoot(np.int64(3), 9992)
    assert type(x.exponent) is int and x is UnityRoot(3, 9992)
    y = UnityRoot(5, np.int64(9990))
    assert type(y.modulus) is int and y is UnityRoot(5, 9990)


def test_copies_and_pickles_read_back_the_shared_label():
    x = UnityRoot(5, 12)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(x, protocol)) is x
        assert pickle.loads(pickle.dumps([x, (x, 1)], protocol))[1][0] is x
    assert copy.copy(x) is x and copy.deepcopy(x) is x


def test_no_label_table_is_built_at_import(child_env):
    """The tables fill as labels are asked for; importing the command line
    builds none."""
    code = "import gddkit.cli, gddkit.roots as r; print(r._ROOTS, r._LOGS)"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "{} {}"


@pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24])
def test_group_laws_exhaustive(m):
    xs = all_roots(m)
    e = one(m)
    for a in xs:
        assert a * e == a
        assert a * a.inverse() == e
        for b in xs:
            assert a * b == b * a
            for c in xs:
                assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("m", [2, 6, 8, 12])
def test_order_of_power(m):
    from math import gcd

    for a in all_roots(m):
        n = a.order()
        for k in range(-m, m + 1):
            assert (a ** k).order() == n // gcd(k, n)


def test_discrete_log_examples():
    # q of order 5 inside mu_10, target q^-2.
    q = UnityRoot(2, 10)
    assert discrete_log_nonpositive(q, q ** -2) == -2
    assert discrete_log_nonpositive(q, one(10)) == 0
    assert discrete_log_nonpositive(minus_one(6), UnityRoot(2, 6)) is None


@pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24])
def test_discrete_log_maximality_exhaustive(m):
    for base in all_roots(m):
        n = base.order()
        for target in all_roots(m):
            got = discrete_log_nonpositive(base, target)
            # Reference: scan b = 0, -1, ..., -(n) directly.
            expect = None
            for b in range(0, -n - 1, -1):
                if base ** b == target:
                    expect = b
                    break
            assert got == expect, (base, target, got, expect)
            if got is not None:
                assert base ** got == target
                for better in range(got + 1, 1):
                    assert base ** better != target


@pytest.mark.parametrize("m", [2, 4, 6, 10, 12, 60])
def test_tabled_discrete_log_equals_closed_form(m):
    for base in all_roots(m):
        for target in all_roots(m):
            want = _solve_log(base, target)
            # the first call solves and tables the pair, the second reads it
            assert discrete_log_nonpositive(base, target) == want
            assert discrete_log_nonpositive(base, target) == want


def test_discrete_log_modulus_mismatch():
    for _ in range(2):
        with pytest.raises(ValueError):
            discrete_log_nonpositive(UnityRoot(1, 6), UnityRoot(1, 4))


def test_parameter_embedding():
    p3 = Parameter(3)
    assert p3.modulus == 6
    assert p3.q == UnityRoot(2, 6)
    assert p3.q.order() == 3
    p4 = Parameter(4)
    assert p4.modulus == 4
    assert p4.q.order() == 4
    p6 = Parameter(6)
    assert p6.modulus == 6
    assert p6.q.order() == 6


def test_parameter_render_and_parse():
    p = Parameter(3)
    assert p.render(p.q) == "q"
    assert p.render(p.q ** 2) == "q^2"
    assert p.render(minus_one(6)) == "-1"
    assert p.render(one(6)) == "1"
    for text in ["q", "-1", "q^2", "-q^2", "1"]:
        x = parse_root(text, 6, p)
        assert p.render(x) == text
    assert parse_root("z^3 mod 6", 6) == minus_one(6)
    assert parse_root("z^5", 6) == UnityRoot(5, 6)
