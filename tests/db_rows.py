"""The packaged exceptional-row database for tests: its path, row 11 gdd 1,
and the rows re-read without the package parser."""

from math import gcd
from pathlib import Path

from brute import bf_canon
from gddkit.core import GDD
from gddkit.roots import UnityRoot

DATA = Path(__file__).parent.parent / "src" / "gddkit" / "data" / "exceptional_rows.gdd"


def row11_gdd1():
    return GDD(
        6,
        tuple(UnityRoot(e, 6) for e in [2, 2, 3, 2, 2]),
        {(i, i + 1): UnityRoot(4, 6) for i in range(4)},
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
