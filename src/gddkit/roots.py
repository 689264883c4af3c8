"""Exact arithmetic in the cyclic group of M-th roots of unity.

Every label on a diagram lives in a single group mu_M = <zeta>, zeta a fixed
primitive M-th root of unity.  An element is stored as its exponent mod M.
M is kept even so that -1 = zeta^(M/2) always exists.

Labels are interned: UnityRoot(e, M) returns one shared instance per
(e mod M, M), so building a label is a lookup once it has been built.  Each
modulus has its own table, made when the first label of that modulus is
built and filled one exponent at a time; a pickle or copy of a label reads
back the shared instance.  discrete_log_nonpositive likewise keeps, per
modulus, the answer for each (base, target) pair it has solved.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm
from operator import index

# modulus -> {exponent: the shared UnityRoot}
_ROOTS: dict[int, dict[int, UnityRoot]] = {}
# modulus -> {base exponent * modulus + target exponent: discrete log}
_LOGS: dict[int, dict[int, int | None]] = {}


class UnityRoot(namedtuple("UnityRoot", "exponent modulus")):
    """zeta^exponent inside mu_M, with 0 <= exponent < M and M even; one
    shared instance per (exponent mod M, M)."""

    __slots__ = ()

    def __new__(cls, exponent: int, modulus: int):
        try:
            return _ROOTS[modulus][exponent]
        except KeyError:
            pass
        # stored as ints, since a stored float would be the shared label of
        # every later call it equals: a float raises TypeError here, and a
        # numpy integer becomes an int
        modulus = index(modulus)
        if modulus < 2 or modulus % 2 != 0:
            raise ValueError(f"modulus must be even and >= 2, got {modulus}")
        # an exponent outside 0..M-1 is reduced and then looked up
        exponent = index(exponent) % modulus
        table = _ROOTS.setdefault(modulus, {})
        root = table.get(exponent)
        if root is None:
            root = table[exponent] = tuple.__new__(cls, (exponent, modulus))
        return root

    def __reduce__(self):
        # a pickle or copy is rebuilt through __new__: the shared instance
        return UnityRoot, tuple(self)

    def _check(self, other: "UnityRoot") -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"modulus mismatch: {self.modulus} != {other.modulus}"
            )

    def __mul__(self, other: "UnityRoot") -> "UnityRoot":
        self._check(other)
        return UnityRoot((self.exponent + other.exponent) % self.modulus, self.modulus)

    def __pow__(self, k: int) -> "UnityRoot":
        return UnityRoot((k * self.exponent) % self.modulus, self.modulus)

    def inverse(self) -> "UnityRoot":
        return self ** -1

    @property
    def is_one(self) -> bool:
        return self.exponent == 0

    @property
    def is_minus_one(self) -> bool:
        return self.exponent * 2 == self.modulus

    def order(self) -> int:
        """Multiplicative order; order(1) = 1."""
        return self.modulus // gcd(self.exponent, self.modulus)

    def __str__(self) -> str:
        return f"z^{self.exponent} mod {self.modulus}"

    def __repr__(self) -> str:
        return f"UnityRoot({self.exponent}, {self.modulus})"


def one(modulus: int) -> UnityRoot:
    return UnityRoot(0, modulus)


def minus_one(modulus: int) -> UnityRoot:
    return UnityRoot(modulus // 2, modulus)


def discrete_log_nonpositive(base: UnityRoot, target: UnityRoot) -> int | None:
    """Largest b <= 0 with base**b == target, or None if target is not a power
    of base.

    Returns 0 when target == 1; this is the exponent solver behind Cartan-type
    recognition, where absence encodes a non-Cartan edge.  Each pair is
    solved once (_solve_log) and then read from its modulus's table.
    """
    base._check(target)
    m = base.modulus
    table = _LOGS.get(m)
    if table is None:
        table = _LOGS[m] = {}
    pair = base.exponent * m + target.exponent
    try:
        return table[pair]
    except KeyError:
        table[pair] = b = _solve_log(base, target)
        return b


def _solve_log(base: UnityRoot, target: UnityRoot) -> int | None:
    """discrete_log_nonpositive in closed form."""
    if target.is_one:
        return 0
    n = base.order()
    if n == 1:
        return None
    # base**b = target  <=>  b * e_base = e_target (mod M), b ranging over
    # residues mod n.  Solvable iff gcd(e_base, M) divides e_target.
    m = base.modulus
    g = gcd(base.exponent, m)
    if target.exponent % g != 0:
        return None
    # One solution of (e_base/g) * b = (e_target/g)  (mod m/g).
    mg = m // g
    b = (target.exponent // g) * pow(base.exponent // g, -1, mg) % mg
    # Solutions are b + k*n; the maximal nonpositive one is b - n for the
    # representative 0 <= b < n (b = 0 cannot occur since target != 1).
    b %= n
    return b - n


class Parameter(namedtuple("Parameter", "order_of_q")):
    """A fixed parameter q of multiplicative order N, embedded into mu_M with
    M = lcm(2, N) so that -1 is always available."""

    __slots__ = ()

    def __new__(cls, order_of_q: int):
        if order_of_q < 2:
            raise ValueError("order of q must be >= 2")
        return tuple.__new__(cls, (order_of_q,))

    @property
    def modulus(self) -> int:
        return lcm(2, self.order_of_q)

    @property
    def q(self) -> UnityRoot:
        return UnityRoot(self.modulus // self.order_of_q, self.modulus)

    def label(self, sign: int, k: int) -> UnityRoot:
        """The element (-1)**sign * q**k."""
        r = self.q ** k
        if sign % 2:
            r = r * minus_one(self.modulus)
        return r

    def render(self, x: UnityRoot) -> str:
        """Write x as ±q^k when possible, else fall back to z^e."""
        if x.modulus != self.modulus:
            raise ValueError("modulus mismatch")
        for s, prefix in ((0, ""), (1, "-")):
            for k in range(self.order_of_q):
                if self.label(s, k) == x:
                    if k == 0:
                        return prefix + "1"
                    if k == 1:
                        return prefix + "q"
                    return f"{prefix}q^{k}"
        return str(x)


def parse_root(text: str, modulus: int, parameter: Parameter | None = None) -> UnityRoot:
    """Parse 'z^e mod M', 'z^e', a bare exponent, or (with a parameter in
    scope) sugar like 'q', 'q^-2', '-1', '-q^3', '1'."""
    t = text.strip()
    if t.startswith("z^"):
        body = t[2:]
        if " mod " in body:
            e_str, m_str = body.split(" mod ")
            if int(m_str) != modulus:
                raise ValueError(f"modulus mismatch in {text!r}")
            return UnityRoot(int(e_str), modulus)
        return UnityRoot(int(body), modulus)
    if parameter is not None:
        sign = 0
        if t.startswith("-"):
            sign, t = 1, t[1:]
        if t == "1":
            return parameter.label(sign, 0)
        if t == "q":
            return parameter.label(sign, 1)
        if t.startswith("q^"):
            return parameter.label(sign, int(t[2:]))
        raise ValueError(f"cannot parse label {text!r}")
    return UnityRoot(int(t), modulus)
