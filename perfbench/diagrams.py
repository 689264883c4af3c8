"""The benchmark's own reading, writing and comparing of diagram files.

Nothing here imports gddkit: the correctness gate must not depend on the
canonical key it may one day be asked to judge.  A diagram is a tuple
``(meta, modulus, diag, edges)``; ``diag`` lists vertex exponents and
``edges`` maps 0-indexed ``(u, v)`` with ``u < v`` to an edge exponent.
"""

from __future__ import annotations

from math import gcd


def parse(text: str) -> list[tuple[dict, int, list[int], dict]]:
    """Blocks of the gddkit text format; a ``#`` line directly above a block
    gives its key=value metadata, a blank line resets it."""
    out = []
    meta: dict = {}
    lines: list[str] = []

    def flush():
        nonlocal meta, lines
        if lines:
            out.append(_block(meta, lines))
        meta, lines = {}, []

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            flush()
        elif line.startswith("#"):
            meta.update(t.split("=", 1) for t in line[1:].split() if "=" in t)
        else:
            lines.append(line)
    flush()
    return out


def _block(meta: dict, lines: list[str]):
    head = lines[0].split()
    if head[0] != "gdd" or len(head) != 3:
        raise ValueError(f"not a diagram block: {lines[0]!r}")
    modulus = int(head[1].removeprefix("M="))
    n = int(head[2].removeprefix("n="))
    diag = [int(t) for t in lines[1].split()[1:]]
    if len(diag) != n:
        raise ValueError(f"diag line does not have {n} entries: {lines[1]!r}")
    edges = {}
    for line in lines[2:]:
        _, u, v, e = line.split()
        edges[(int(u) - 1, int(v) - 1)] = int(e)
    return dict(meta), modulus, diag, edges


def to_text(meta: dict, modulus: int, diag: list[int], edges: dict) -> str:
    head = " ".join(f"{k}={v}" for k, v in meta.items())
    body = [f"gdd M={modulus} n={len(diag)}", "diag " + " ".join(map(str, diag))]
    body += [f"edge {u + 1} {v + 1} {edges[(u, v)]}" for u, v in sorted(edges)]
    return (f"# {head}\n" if head else "") + "\n".join(body)


def relabel(modulus, diag, edges, sigma):
    """The diagram with old vertex i renamed sigma[i]."""
    new_diag = [0] * len(diag)
    for old, new in enumerate(sigma):
        new_diag[new] = diag[old]
    new_edges = {}
    for (u, v), e in edges.items():
        a, b = sorted((sigma[u], sigma[v]))
        new_edges[(a, b)] = e
    return modulus, new_diag, new_edges


def form(modulus: int, diag: list[int], edges: dict) -> tuple:
    """Relabelling-invariant form: the least, over all vertex orders, of the
    rows (label of vertex i, labels of its edges to vertices 0..i-1).

    Labels are first reduced to the smallest group holding them, so a
    diagram written over a larger group than it needs gets the same form.
    Two vertex orders that agree on their first k rows are extended
    together, and only the extensions whose next row is least survive: an
    exhaustive search of all n! orders that skips no order able to reach
    the minimum.
    """
    n = len(diag)
    step = gcd(modulus, *diag, *edges.values())
    lab = [[0] * n for _ in range(n)]
    for (u, v), e in edges.items():
        lab[u][v] = lab[v][u] = (e % modulus) // step
    vertex = [(e % modulus) // step for e in diag]
    rows: list[tuple] = []
    frontier: list[list[int]] = [[]]
    for _ in range(n):
        best, grown = None, []
        for order in frontier:
            for w in range(n):
                if w in order:
                    continue
                row = (vertex[w],) + tuple(lab[w][u] for u in order)
                if best is None or row < best:
                    best, grown = row, [order + [w]]
                elif row == best:
                    grown.append(order + [w])
        rows.append(best)
        frontier = grown
    return (modulus // step, n) + tuple(rows)
