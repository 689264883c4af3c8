"""Exhaustive search for quasi-affine connected diagrams of a given rank.

Every connected diagram has at least two vertices whose deletion leaves it
connected, so every quasi-affine diagram of rank n arises by adding one
vertex to a connected arithmetic diagram of rank n-1 (a "base").  The search
walks all bases, all attachments of one new vertex, and keeps the candidates
whose deletions are all arithmetic while the candidate itself is not.

To avoid visiting the full attachment space blindly, candidates are built in
two stages: for a base A and a non-cut vertex v of A, the deletion of v from
a viable candidate must be an arithmetic extension of A - v, so attachment
patterns are pre-screened on A - v and only then combined with an optional
edge back to v.  Every candidate still gets the full deletion check; the
staging only prunes attachments that could never survive it.

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

from .core import GDD, minimal_modulus, normalized_key, parse_blocks, with_modulus
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
    Deterministic order."""
    for diag, pairs in _attachment_patterns(modulus, range(base.rank), base.rank):
        yield base.add_vertex(diag, pairs)


def _attachment_patterns(modulus: int, vertices, room: int):
    """(label of the new vertex, (vertex, edge label) pairs) for every
    nonempty attachment to at most ``room`` of the given vertices (ascending),
    ordered by new-vertex label, attachment size, attached vertices
    (lexicographic), then edge labels (the last varying fastest).  Restricting
    the vertices or the room keeps the order the remaining patterns have among
    all attachments."""
    labels = [UnityRoot(e, modulus) for e in range(1, modulus)]
    for diag in labels:
        for k in range(1, min(room, len(vertices)) + 1):
            for subset in combinations(vertices, k):
                for assignment in product(labels, repeat=k):
                    yield diag, tuple(zip(subset, assignment))


def collect_bases(rank: int, modulus: int, db: ArithmeticDatabase) -> list[GDD]:
    """Connected arithmetic diagrams of the given rank over mu_modulus:
    generated classical families plus stored exceptional rows, one
    representative per relabelling class."""
    seen: dict[bytes, GDD] = {}
    for g in generate_classical(rank, modulus):
        seen.setdefault(normalized_key(g), g)
    for g, _meta in db.entries(rank):
        if modulus % minimal_modulus(g) == 0:
            lifted = with_modulus(g, modulus)
            seen.setdefault(normalized_key(lifted), lifted)
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

    # Shape bounds over the known arithmetic diagrams at rank n-1: an
    # attachment that overshoots the maximal edge count or vertex degree can
    # never be arithmetic, so the screen skips it before canonicalizing.
    # (Cartan-type arithmetic diagrams beyond those sets are finite-type
    # trees, well inside the bounds.)
    shape_pool = list(generate_classical(rank - 1, modulus))
    shape_pool += [
        g for g, _ in db.entries(rank - 1) if g.modulus in (2, modulus)
    ]
    max_edges = max(max(len(g.edges) for g in shape_pool), rank - 2)
    max_degree = max(
        max(len(nbs) for g in shape_pool for nbs in g.adjacency()), 2
    )

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
        bases = twist_representatives(collect_bases(rank - 1, modulus, db))
    found: dict[bytes, GDD] = {}

    for base in bases:
        report.bases_tried += 1
        for v in range(base.rank):
            trimmed = base.delete_vertex(v)
            if not trimmed.is_connected():
                continue
            # Patterns on base - v whose one-vertex extension is arithmetic;
            # the candidate's deletion at v is exactly that extension.  Only
            # patterns inside the shape bounds are generated: at most
            # max_degree new edges, max_edges in all, and none to a vertex
            # that already has max_degree neighbours.
            room = min(max_edges - len(trimmed.edges), max_degree)
            open_vertices = [
                u for u, nbs in enumerate(trimmed.adjacency()) if len(nbs) < max_degree
            ]
            viable = []
            for diag, pairs in _attachment_patterns(modulus, open_vertices, room):
                ext = trimmed.add_vertex(diag, pairs)
                if deletion_ok(ext):
                    viable.append((diag, pairs))
            back = [None] + [UnityRoot(e, modulus) for e in range(1, modulus)]
            for diag, pairs in viable:
                # Transport the pattern from base - v coordinates to base
                # coordinates (vertex v sits in the middle of the numbering).
                lift = [u for u in range(base.rank) if u != v]
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
