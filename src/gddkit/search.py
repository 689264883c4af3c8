"""Exhaustive search for quasi-affine connected diagrams of a given rank.

Every connected diagram has at least two vertices whose deletion leaves it
connected, so every quasi-affine diagram of rank n arises by adding one
vertex to a connected arithmetic diagram of rank n-1 (a "base").  The search
walks all bases, all attachments of one new vertex, and keeps the candidates
whose deletions are all arithmetic while the candidate itself is not.

A connected deletion has rank n-1, so it is arithmetic exactly when it is a
base.  The search therefore indexes every base B by the canonical key of
each connected B - w (BaseIndex).  Carried by every isomorphism from a
representative R of the class onto B - w, w's label and edges are the
attachments that make R a base; they are gathered once per class, and one
isomorphism T -> R carries them to any connected diagram T of the class.
For a base A the search reads these patterns on A - u once, for every
non-cut vertex u of A.

A candidate g = A + x attaches x by a pattern of A - v plus an optional edge
back to v (CandidateDeletions).  Its deletions are decided without building
g: g - x is A and g - v is an extension from the index, by construction; at
any other non-cut u, g - u is (A - u) + x, disconnected when x keeps no edge
there and otherwise arithmetic exactly when x's pattern is one of A - u's.
Only at the cut vertices of A is g built, and a connected g - u is looked up
among the bases' canonical keys; the verdicts at the non-cut vertices come
first, so a candidate they reject is never built.  The oracle is asked only
whether a candidate whose deletions all pass is itself arithmetic, and for
the shape tags.  All of this needs every connected arithmetic diagram of
rank n-1 among the bases, so the index and the key set are built from all
of collect_bases (classical, stored and finite-Cartan diagrams) whichever
bases are walked.

A labelled candidate (x's label and pairs in A's coordinates) is built from
each non-cut v of A at which x's pairs outside v are a pattern of A - v, and
decided only from its owner (CandidateDeletions.owns): the least non-cut u
of A at which x keeps an edge outside u, that is the least non-cut vertex
v0, or the next one, v1, when x's only edge goes to v0.  No survivor is
lost: if every deletion of g = A + x passes and x keeps an edge outside a
non-cut u, then g - u is connected and arithmetic, hence a base, so g is
built from u, in particular from its owner; any other copy repeats the
owner's or fails its verdict at the owner.  The owner is the first vertex
to build a candidate, so the found set keeps its order and labellings, and
the report still counts every candidate built.

A diagram computes its canonical key once (GDD.canonical_key).  A survivor
already at its minimal modulus therefore shares one key between the oracle
and the found set, and such a base one key between collect_bases, the twist
orbits and the base keys.

Arithmeticity, and so quasi-affineness, is invariant under the power twists
g -> g^t with t a unit of Z/M (the conjugate parameters), and the bases are
closed under them.  By default the search therefore walks one base per twist
orbit, the first of each in key order, and afterwards closes the found set
under the twists; a diagram found directly keeps its own vertex labelling.
The report header counts what was searched: ``bases`` is the number of orbit
representatives and ``candidates`` the candidates built from them, while
``found`` counts the closed set.  An explicit ``bases`` list is searched as
given, with no reduction and no closure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .cartan import finite_cartan_diagrams
from .core import (
    GDD,
    isomorphisms,
    minimal_modulus,
    normalized_key,
    parse_blocks,
    with_modulus,
)
from .oracle import Oracle
from .roots import UnityRoot
from .tables import ArithmeticDatabase, generate_classical


@dataclass
class EnumerationReport:
    rank: int
    modulus: int
    found: dict[bytes, GDD] = field(default_factory=dict)
    shape_tags: dict[bytes, str] = field(default_factory=dict)
    bases_tried: int = 0
    candidates_examined: int = 0
    elapsed: float = 0.0
    comparison: "Comparison | None" = None

    def to_text(self) -> str:
        lines = [
            f"# quasi-affine enumeration rank={self.rank} modulus={self.modulus}",
            # Kept as is, pruned-by-filters=0 too: perfbench/run.py parses it.
            f"# bases={self.bases_tried} candidates={self.candidates_examined} "
            f"pruned-by-filters=0 found={len(self.found)}",
        ]
        for i, (key, g) in enumerate(sorted(self.found.items()), start=1):
            tag = self.shape_tags.get(key, "")
            lines.append("")
            lines.append(f"# item={i} shape={tag}")
            lines.append(g.to_text())
        if self.comparison is not None:
            lines.append("")
            lines.append(self.comparison.to_text())
        return "\n".join(lines) + "\n"


@dataclass
class Comparison:
    matched: list[bytes]
    missing: list[tuple[bytes, str]]
    extra: list[bytes]

    @property
    def ok(self) -> bool:
        return not self.missing

    def to_text(self) -> str:
        return (
            f"# comparison matched={len(self.matched)} missing={len(self.missing)} "
            f"extra={len(self.extra)}"
            + "".join(f"\n# missing: {note}" for _, note in self.missing)
        )


def _pattern_order(pattern) -> tuple:
    """Sort key of an attachment pattern (label of the new vertex, (vertex,
    edge label) pairs sorted by vertex): by the new vertex's label exponent,
    then the number of attached vertices, then the attached vertices
    (lexicographic), then their edge-label exponents."""
    diag, pairs = pattern
    return (
        diag.exponent,
        len(pairs),
        [u for u, _ in pairs],
        [lab.exponent for _, lab in pairs],
    )


class BaseIndex:
    """The bases' canonical keys (keys), and the bases indexed by their
    connected one-vertex deletions.  Each class of deletions B - w, by
    canonical key, has a representative R (the first B - w seen) and R's
    patterns: the label of w and its (vertex, edge label) pairs, carried to
    R by every isomorphism R -> B - w, for every base B and vertex w of the
    class.  The patterns of a class are computed once, when first asked for."""

    def __init__(self, bases: list[GDD]):
        # canonical key -> [(B - w, the label of w, the label of the edge
        # from w to each vertex of B - w or None)]
        self._entries: dict[bytes, list[tuple[GDD, UnityRoot, list]]] = {}
        # canonical key -> (R, R's patterns), for the classes asked for,
        # which leave _entries
        self._classes: dict[bytes, tuple[GDD, set]] = {}
        self.keys = {b.canonical_key() for b in bases}
        for b in bases:
            for w in range(b.rank):
                rest = b.delete_vertex(w)
                if rest.is_connected():
                    to_w = [b.edge_label(w, u) for u in range(b.rank) if u != w]
                    entry = (rest, b.diag[w], to_w)
                    self._entries.setdefault(rest.canonical_key(), []).append(entry)

    def patterns(self, trimmed: GDD) -> list[tuple[UnityRoot, tuple]]:
        """(label of the new vertex, (vertex, edge label) pairs sorted by
        vertex) for every nonempty attachment to the connected diagram
        trimmed that makes it a base, each once, sorted by the new vertex's
        label exponent, then the number of attached vertices, the attached
        vertices and their edge-label exponents (_pattern_order).  Such an
        extension is a base B with trimmed as B - w; the class of trimmed
        keeps the patterns on its representative R, and one isomorphism
        trimmed -> R carries them to trimmed."""
        key = trimmed.canonical_key()
        if key not in self._classes:
            entries = self._entries.pop(key, None)
            if entries is None:
                return []
            rep = entries[0][0]
            found = set()
            for rest, diag, to_w in entries:
                for phi in isomorphisms(rep, rest):
                    found.add((diag, tuple(
                        (r, to_w[phi[r]]) for r in range(rep.rank)
                        if to_w[phi[r]] is not None
                    )))
            self._classes[key] = (rep, found)
        rep, patterns = self._classes[key]
        psi = next(isomorphisms(trimmed, rep))
        back = [0] * trimmed.rank
        for t, r in enumerate(psi):
            back[r] = t
        return sorted(
            ((diag, tuple(sorted((back[r], lab) for r, lab in pairs)))
             for diag, pairs in patterns),
            key=_pattern_order,
        )


class CandidateDeletions:
    """The candidates A + x built on one base A, and their deletions at the
    vertices of A, decided from the base index at the non-cut vertices of A
    (see the module docstring).  A candidate is (v, label of x, x's (vertex,
    edge label) pairs in A coordinates, sorted by vertex); built, x is the
    vertex of index A.rank.  The verdicts are read at the non-cut vertices
    of A before the cut vertices."""

    def __init__(self, base: GDD, index: BaseIndex):
        self.base = base
        self.base_keys = index.keys
        # non-cut vertex u of A -> index.patterns(A - u), in order and as a set
        self.patterns: dict[int, list] = {}
        self.arithmetic: dict[int, set] = {}
        for u in range(base.rank):
            trimmed = base.delete_vertex(u)
            if trimmed.is_connected():
                self.patterns[u] = index.patterns(trimmed)
                self.arithmetic[u] = set(self.patterns[u])
        self.cut = [u for u in range(base.rank) if u not in self.arithmetic]
        # A connected diagram has at least two non-cut vertices.
        self.v0, self.v1 = list(self.arithmetic)[:2]

    def owns(self, v: int, pairs) -> bool:
        """Whether v is the owner of the candidate with x's pairs: the least
        non-cut vertex of A at which x keeps an edge outside it (see the
        module docstring)."""
        return v == (self.v1 if [w for w, _ in pairs] == [self.v0] else self.v0)

    def candidates(self, back):
        """Every candidate: x attached by a pattern of A - v, carried to A,
        plus an edge to v labelled by each entry of back (None for no edge).
        By v, then patterns in BaseIndex.patterns order, then back-edge
        order."""
        for v, patterns in self.patterns.items():
            # A - v numbers the vertices of A other than v in order.
            lift = [u for u in range(self.base.rank) if u != v]
            for diag, pairs in patterns:
                lifted = [(lift[t], lab) for t, lab in pairs]
                for v_edge in back:
                    if v_edge is None:
                        yield v, diag, lifted
                    else:
                        yield v, diag, sorted(lifted + [(v, v_edge)])

    def verdicts(self, v: int, diag: UnityRoot, pairs):
        """(u, whether g - u is arithmetic) for the candidate g = (v, diag,
        pairs) and every vertex u != v of A at which g - u is connected,
        the non-cut vertices of A first.  At a non-cut u, g - u is
        (A - u) + x, x's pairs outside u renumbered to A - u (with none
        left, x is isolated there).  At a cut vertex u, g is built, once,
        and g - u is arithmetic exactly when it is a base."""
        for u, arithmetic in self.arithmetic.items():
            if u != v:
                rest = tuple((w if w < u else w - 1, lab) for w, lab in pairs if w != u)
                if rest:
                    yield u, (diag, rest) in arithmetic
        g = self.base.add_vertex(diag, pairs) if self.cut else None
        for u in self.cut:
            sub = g.delete_vertex(u)
            if sub.is_connected():
                yield u, sub.canonical_key() in self.base_keys


def collect_bases(rank: int, modulus: int, db: ArithmeticDatabase) -> list[GDD]:
    """Connected arithmetic diagrams of the given rank over mu_modulus:
    generated classical families, stored exceptional rows and diagrams of
    finite Cartan type, one representative per relabelling class, in key
    order."""
    seen: dict[bytes, GDD] = {}
    for g in generate_classical(rank, modulus):
        seen.setdefault(normalized_key(g), g)
    for g, _meta in db.entries(rank):
        if modulus % minimal_modulus(g) == 0:
            lifted = with_modulus(g, modulus)
            seen.setdefault(normalized_key(lifted), lifted)
    for g in finite_cartan_diagrams(rank, modulus):
        seen.setdefault(normalized_key(g), g)
    return [seen[k] for k in sorted(seen)]


def twist_representatives(bases: list[GDD]) -> list[GDD]:
    """The first base of each power-twist orbit, in the given order."""
    seen: set[bytes] = set()
    out = []
    for g in bases:
        key = normalized_key(g)
        if key not in seen:
            out.append(g)
            seen.update(normalized_key(h) for h in g.twists())
    return out


def enumerate_quasi_affine(
    rank: int,
    modulus: int,
    db: ArithmeticDatabase,
    collect_shapes: bool = True,
    bases: list[GDD] | None = None,
) -> EnumerationReport:
    """Exhaustive, deduplicated search at the given rank, with labels in
    mu_modulus (even, as -1 must be a label).

    ``bases`` restricts the search to extensions of the given diagrams.  By
    default every connected arithmetic diagram of rank - 1 is covered: one
    per twist orbit is searched and the found set is closed under the twists
    (see the module docstring)."""
    if rank < 6:
        raise ValueError("enumeration is defined for rank >= 6")
    if modulus < 2 or modulus % 2:
        raise ValueError(f"modulus must be even and >= 2, got {modulus}")
    oracle = Oracle(db)
    report = EnumerationReport(rank, modulus)
    start = time.monotonic()

    all_bases = collect_bases(rank - 1, modulus, db)
    index = BaseIndex(all_bases)
    twist_closed = bases is None
    if twist_closed:
        bases = twist_representatives(all_bases)
    found: dict[bytes, GDD] = {}
    back = [None] + [UnityRoot(e, modulus) for e in range(1, modulus)]

    for base in bases:
        report.bases_tried += 1
        deletions = CandidateDeletions(base, index)
        for v, diag, pairs in deletions.candidates(back):
            report.candidates_examined += 1
            if not deletions.owns(v, pairs):
                continue
            verdicts = deletions.verdicts(v, diag, pairs)
            if not all(ok for _, ok in verdicts):
                continue
            g = base.add_vertex(diag, pairs)
            if oracle._connected(g).arithmetic:
                continue
            found.setdefault(normalized_key(g), g)

    if twist_closed:
        # Items found directly keep their own diagram.
        for g in list(found.values()):
            for h in g.twists():
                found.setdefault(normalized_key(h), h)
    report.found = dict(sorted(found.items()))
    if collect_shapes:
        for key, g in report.found.items():
            report.shape_tags[key] = oracle.shape_tag(g)
    report.elapsed = time.monotonic() - start
    return report


def diff_keys(found_keys, expected_blocks) -> Comparison:
    """Canonical-key diff of a found key set against parsed expected blocks.
    An expected diagram counts once, under the name of its first block;
    ``missing`` keeps the order of the blocks."""
    expected: dict[bytes, str] = {}
    for g, meta, lineno in expected_blocks:
        name = meta.get("item") or meta.get("row") or f"line {lineno}"
        expected.setdefault(normalized_key(g), name)
    matched = sorted(k for k in expected if k in found_keys)
    missing = [(k, name) for k, name in expected.items() if k not in found_keys]
    extra = sorted(set(found_keys) - expected.keys())
    return Comparison(matched, missing, extra)


def verify_against(report: EnumerationReport, expected_text: str) -> Comparison:
    """Diff the found set against expected diagram blocks, missing ones in
    key order, and attach the result to the report."""
    comparison = diff_keys(report.found.keys(), parse_blocks(expected_text))
    comparison.missing.sort()
    report.comparison = comparison
    return comparison
