"""Exhaustive search for quasi-affine connected diagrams of a given rank.

Every connected diagram has at least two vertices whose deletion leaves it
connected, so every quasi-affine diagram of rank n arises by adding one
vertex to a connected arithmetic diagram of rank n-1 (a "base").  The search
walks all bases, all attachments of one new vertex, and keeps the candidates
whose deletions are all arithmetic while the candidate itself is not.

Candidates are built in two stages.  For a base A and a non-cut vertex v of
A, the deletion of v from a viable candidate is an arithmetic one-vertex
extension of A - v; it has rank n-1, so it is itself a base B, with A - v as
B - w for its vertex w.  The search therefore indexes every base B by the
canonical key of each connected B - w, and reads the attachment patterns of
A - v off the entries under its key: w's label and edges, carried to A - v by
each isomorphism A - v -> B - w.  Only then is each pattern combined with an
optional edge back to v.  Every candidate still gets the full deletion check
by the oracle; the index only skips attachments that could never survive it.
That needs every connected arithmetic diagram of rank n-1 in the index, so it
is built from all of collect_bases (classical, stored and finite-Cartan
diagrams) whichever bases are walked.

Arithmeticity, and so quasi-affineness, is invariant under the power twists
g -> g^t with t a unit of Z/M (the conjugate parameters), and the bases are
closed under them.  By default the search therefore walks one base per twist
orbit, the first of each in key order, and afterwards closes the found set
under the twists; a diagram found directly keeps its own vertex labelling.
The report header counts what was searched: ``bases`` is the number of orbit
representatives and ``candidates`` the candidates built from them, while
``found`` counts the closed set.  An explicit ``bases`` list is searched as
given, with no reduction and no closure.

The negative filters of ``oracle`` (``use_filters=True``) are an opt-in API
diagnostic, off by default and unreachable from the command line.  The
oracle is complete at rank >= 5, so they cannot add a found diagram; they
only cost time, and a filter that misfires drops one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations, product

from .cartan import finite_cartan_diagrams
from .core import (
    GDD,
    isomorphisms,
    minimal_modulus,
    normalized_key,
    parse_blocks,
    with_modulus,
)
from .oracle import (
    Oracle,
    forbidden_by_chain_failures,
    forbidden_branch_pattern,
)
from .roots import Parameter, UnityRoot
from .tables import ArithmeticDatabase, generate_classical


@dataclass
class EnumerationReport:
    rank: int
    order_of_q: int
    modulus: int
    found: dict[bytes, GDD] = field(default_factory=dict)
    shape_tags: dict[bytes, str] = field(default_factory=dict)
    bases_tried: int = 0
    candidates_examined: int = 0
    pruned_by_filters: int = 0
    elapsed: float = 0.0
    comparison: "Comparison | None" = None

    def sorted_found(self) -> list[tuple[bytes, GDD]]:
        return sorted(self.found.items())

    def to_text(self) -> str:
        lines = [
            f"# quasi-affine enumeration rank={self.rank} order-of-q={self.order_of_q} "
            f"modulus={self.modulus}",
            f"# bases={self.bases_tried} candidates={self.candidates_examined} "
            f"pruned-by-filters={self.pruned_by_filters} found={len(self.found)}",
        ]
        for i, (key, g) in enumerate(self.sorted_found(), start=1):
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


def extensions(base: GDD, modulus: int):
    """All diagrams adding one vertex to base: every label != 1 on the new
    vertex, every nonempty attachment set, every labelling of the new edges.
    Ordered by new-vertex label, attachment size, attached vertices
    (lexicographic), then edge labels (the last varying fastest)."""
    labels = [UnityRoot(e, modulus) for e in range(1, modulus)]
    for diag in labels:
        for k in range(1, base.rank + 1):
            for subset in combinations(range(base.rank), k):
                for assignment in product(labels, repeat=k):
                    yield base.add_vertex(diag, zip(subset, assignment))


def _pattern_order(pattern) -> tuple:
    """Sort key putting attachment patterns in the order extensions() builds
    the diagrams they give."""
    diag, pairs = pattern
    return (
        diag.exponent,
        len(pairs),
        [u for u, _ in pairs],
        [lab.exponent for _, lab in pairs],
    )


class BaseIndex:
    """Bases indexed by their connected one-vertex deletions: the canonical
    key of B - w maps to (B - w, the label of w, the label of the edge from w
    to each vertex of B - w or None), for every base B and vertex w."""

    def __init__(self, bases: list[GDD]):
        self._entries: dict[bytes, list[tuple[GDD, UnityRoot, list]]] = {}
        for b in bases:
            for w in range(b.rank):
                rest = b.delete_vertex(w)
                if rest.is_connected():
                    to_w = [b.edge_label(w, u) for u in range(b.rank) if u != w]
                    entry = (rest, b.diag[w], to_w)
                    self._entries.setdefault(rest.canonical_key(), []).append(entry)

    def patterns(self, trimmed: GDD) -> list[tuple[UnityRoot, tuple]]:
        """(label of the new vertex, (vertex, edge label) pairs) for every
        nonempty attachment to the connected diagram trimmed that makes it a
        base, each once, in extensions() order.  Such an extension is a base
        B with trimmed as B - w, so its pattern is w's, carried to trimmed by
        an isomorphism trimmed -> B - w."""
        out = set()
        for rest, diag, to_w in self._entries.get(trimmed.canonical_key(), ()):
            for phi in isomorphisms(trimmed, rest):
                out.add((diag, tuple(
                    (t, to_w[phi[t]]) for t in range(trimmed.rank)
                    if to_w[phi[t]] is not None
                )))
        return sorted(out, key=_pattern_order)


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
    parameter: Parameter,
    db: ArithmeticDatabase,
    cap: int = 100_000_000,
    use_filters: bool = False,
    collect_shapes: bool = True,
    bases: list[GDD] | None = None,
) -> EnumerationReport:
    """Exhaustive, deduplicated search at the given rank and parameter.

    ``bases`` restricts the search to extensions of the given diagrams.  By
    default every connected arithmetic diagram of rank - 1 is covered: one
    per twist orbit is searched and the found set is closed under the twists
    (see the module docstring).
    ``use_filters`` screens deletions with the negative filters first; see
    the module docstring."""
    if rank < 6:
        raise ValueError("enumeration is defined for rank >= 6")
    modulus = parameter.modulus
    oracle = Oracle(db)
    report = EnumerationReport(rank, parameter.order_of_q, modulus)
    start = time.monotonic()

    if use_filters:
        exception_keys = {normalized_key(g) for g, _ in db.entries()}

    all_bases = collect_bases(rank - 1, modulus, db)
    index = BaseIndex(all_bases)
    # A connected deletion has rank n-1, so it is arithmetic only if it is a
    # base: one with more edges than every base is rejected unasked.
    max_edges = max((len(g.edges) for g in all_bases), default=0)

    def deletion_ok(sub: GDD) -> bool:
        if len(sub.edges) > max_edges:
            return False
        # The filters screen only diagrams the oracle has not decided yet.
        if use_filters and sub not in oracle._exact:
            if forbidden_by_chain_failures(sub, exception_keys) is not None:
                report.pruned_by_filters += 1
                return False
            if forbidden_branch_pattern(sub, exception_keys) is not None:
                report.pruned_by_filters += 1
                return False
        return oracle._connected(sub).arithmetic

    twist_closed = bases is None
    if twist_closed:
        bases = twist_representatives(all_bases)
    found: dict[bytes, GDD] = {}
    back = [None] + [UnityRoot(e, modulus) for e in range(1, modulus)]

    for base in bases:
        report.bases_tried += 1
        for v in range(base.rank):
            trimmed = base.delete_vertex(v)
            if not trimmed.is_connected():
                continue
            # Transport patterns from base - v coordinates to base
            # coordinates (vertex v sits in the middle of the numbering).
            lift = [u for u in range(base.rank) if u != v]
            # Patterns on base - v whose one-vertex extension is arithmetic;
            # the candidate's deletion at v is exactly that extension.
            for diag, pairs in index.patterns(trimmed):
                base_pairs = [(lift[u], lab) for u, lab in pairs]
                for v_edge in back:
                    report.candidates_examined += 1
                    if report.candidates_examined > cap:
                        raise RuntimeError(f"candidate cap {cap} exceeded")
                    full_pairs = base_pairs + ([(v, v_edge)] if v_edge else [])
                    g = base.add_vertex(diag, full_pairs)
                    ok = True
                    for u in range(g.rank):
                        sub = g.delete_vertex(u)
                        if sub.is_connected() and not deletion_ok(sub):
                            ok = False
                            break
                    if not ok:
                        continue
                    if oracle._connected(g).arithmetic:
                        continue
                    key = normalized_key(g)
                    if key not in found:
                        found[key] = g

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
