"""Exhaustive search for quasi-affine connected diagrams of a given rank.

Every connected diagram has at least two vertices whose deletion leaves it
connected, so every quasi-affine diagram of rank n arises by adding one
vertex to a connected arithmetic diagram of rank n-1 (a "base").  The search
walks all bases, all attachments of one new vertex, and keeps the candidates
whose deletions are all arithmetic while the candidate itself is not.

A connected deletion has rank n-1, so it is arithmetic exactly when it is a
base.  The search therefore indexes every base B by the canonical key of
each connected B - w (BaseIndex); equal labelled deletions of different
bases are one object, keyed once.  Patterns are carried by canonical
orders: core.least_form returns, with the form, the vertex order that reads
as it, so for two diagrams with equal keys and the same modulus (here M)
the map pairing their orders position by position is an isomorphism, and
every isomorphism from a representative R of the class onto B - w is that
pairing composed with an automorphism of R (one core.isomorphisms(R, R) per
class).  Carried by all of them, w's label and edges are the attachments
that make R a base; they are gathered once per class, and the pairing of R
with any connected diagram T of the class carries them to T.  For a base A
the search reads these patterns on A - u once, for every non-cut vertex u
of A.

A candidate g = A + x attaches x by a pattern of A - v plus an optional edge
back to v (CandidateDeletions).  Its deletions are decided without building
g: g - x is A and g - v is an extension from the index, by construction; at
any other vertex u, g - u is (A - u) + x.  At a non-cut u it is disconnected
when x keeps no edge there and otherwise arithmetic exactly when x's
pattern is one of A - u's.  At a cut vertex u the components of A - u are
found once per base, and (A - u) + x is connected exactly when x has an
edge into every one of them; only a connected g - u is built, and it is
looked up among the bases' canonical keys.  The verdicts at the non-cut
vertices come first, so a candidate they reject builds nothing.  The oracle
is asked only whether a candidate whose deletions all pass, under the
first-base rule below, is itself arithmetic, and for the shape tags.  All
of this needs every connected arithmetic diagram of rank n-1 among the
bases, so the index and the key set are built from all of collect_bases
(classical, stored and finite-Cartan diagrams) whichever bases are walked.
From rank 5 on the finite-Cartan diagrams add a class only at ranks 6-8
(E_6-E_8), and collect_bases builds those directly.

A labelled candidate (x's label and pairs in A's coordinates) is given by
each non-cut v of A at which x's pairs outside v are a pattern of A - v, and
decided only from its owner: the least non-cut u of A at which x keeps an
edge outside u, that is the least non-cut vertex v0, or the next one, v1,
when x's only edge goes to v0.  No survivor is lost: if every deletion of
g = A + x passes and x keeps an edge outside a non-cut u, then g - u is
connected and arithmetic, hence a base, so g is given by u, in particular
by its owner; any other copy repeats the owner's or fails its verdict at
the owner.  The owner is the first vertex to give a candidate, so the found
set keeps its order and labellings.  Only owned candidates are generated
(CandidateDeletions.owned): every candidate from v0, and from v1 those
whose one edge goes to v0, with none back to v1.  ``candidates=`` counts
every candidate the patterns give (CandidateDeletions.count); only owned
ones are generated.

A class of candidates is decided only from the first walked base among its
deletions (the first-base rule).  Each verdict is the key of the base the
deletion is, or None: g - x is A, g - v is the base the pattern of A - v
completes (BaseIndex.completions), g - u at a non-cut u the base x's
pattern on A - u completes, and g - u at a cut vertex u is keyed as
before.  A candidate is dropped, before it is built, as soon as one
deletion is no base or a base walked before A: g - v is looked up first,
then the verdicts are read lazily, so a dropped candidate builds no cut
vertex deletion it does not reach.  No survivor is lost, and each class
keeps its first generation: let A1 be the first walked base among the
deletions of a candidate class whose deletions all pass.  No base walked
before A1 builds the class, since each of its builds would have that base
as a deletion; from A1 the class is built and owned as above, and none of
its deletions is walked earlier, so every candidate of A1 that realizes it
is kept, in the same order; every later base has A1 among the class's
deletions and drops it.  So the found set receives the same diagrams in
the same order, and the report counts the same candidates.  The rule reads
the order the bases are walked in, not their keys, so an explicit bases
list, walked as given, keeps it too.  The repeats it leaves are copies of
one class built on one base, related by an automorphism of A; recognition
reads the classical ones again, and the oracle memo answers the rest.

Arithmeticity, and so quasi-affineness, is invariant under the power twists
g -> g^t with t a unit of Z/M (the conjugate parameters), and the bases are
closed under them.  By default the search therefore walks one base per twist
orbit, the first of each in key order, and afterwards closes the found set
under the twists; a diagram found directly keeps its own vertex labelling.
The report header counts what was searched: ``bases`` is the number of orbit
representatives and ``candidates`` the candidates their patterns give, while
``found`` counts the closed set.  An explicit ``bases`` list is searched as
given, with no reduction and no closure.

Shape tags are computed once per twist orbit, on the diagram of the orbit
found first, and every twist in the orbit gets that tag; a diagram found
directly that is a twist of an earlier one adds nothing to the closure.  A
tag is invariant under the twists and under vertex relabelling.  Every
shape predicate tests only equalities of products and powers of labels,
whether a label is 1 or -1, label orders, and the oracle's arithmeticity.
The twist z -> z^t is an automorphism of mu_M, so it preserves equalities,
1 and orders, and it fixes -1 because t is odd (M is even); arithmeticity
is invariant as above.
"""

from __future__ import annotations

import time

from .cartan import e_type_diagrams
from .core import (
    GDD,
    isomorphisms,
    non_cut_vertices,
    parse_blocks,
    with_modulus,
)
from .oracle import Oracle
from .roots import UnityRoot
from .tables import ArithmeticDatabase, generate_classical


class _Record:
    """Field-wise repr and equality over the attributes __init__ sets, in
    the order it sets them; unhashable, as a mutable record should be."""

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    __hash__ = None


class EnumerationReport(_Record):
    def __init__(
        self,
        rank: int,
        modulus: int,
        found: dict[bytes, GDD] | None = None,
        shape_tags: dict[bytes, str] | None = None,
        bases_tried: int = 0,
        candidates_examined: int = 0,
        elapsed: float = 0.0,
        comparison: Comparison | None = None,
    ):
        self.rank = rank
        self.modulus = modulus
        self.found = {} if found is None else found
        self.shape_tags = {} if shape_tags is None else shape_tags
        self.bases_tried = bases_tried
        self.candidates_examined = candidates_examined
        self.elapsed = elapsed
        self.comparison = comparison

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


class Comparison(_Record):
    def __init__(
        self,
        matched: list[bytes],
        missing: list[tuple[bytes, str]],
        extra: list[bytes],
    ):
        self.matched = matched
        self.missing = missing
        self.extra = extra

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


def connected_deletions(g: GDD) -> dict[int, GDD]:
    """{v: g - v} for every vertex v of g at which g - v is connected; only
    those deletions are built."""
    return {v: g.delete_vertex(v) for v in non_cut_vertices(g.neighbour_masks())}


class BaseIndex:
    """The bases' canonical keys (keys), their connected one-vertex
    deletions (deletions: B -> {w: B - w}), and the bases indexed by those
    deletions.  Equal labelled deletions of different bases are one object,
    keyed once.  Each class of deletions B - w, by canonical key, has a
    representative R (the first B - w seen) and R's patterns: the label of
    w and its (vertex, edge label) pairs, carried to R by every isomorphism
    R -> B - w, for every base B and vertex w of the class, each with the
    key of B, the base it completes R to.  These isomorphisms are the map
    pairing R's canonical order with that of B - w, composed with every
    automorphism of R.  The patterns of a class are computed once, when
    first asked for."""

    def __init__(self, bases: list[GDD]):
        # canonical key -> [(B - w, the label of w, the label of the edge
        # from w to each vertex of B - w or None, the key of B)]
        self._entries: dict[bytes, list[tuple[GDD, UnityRoot, list, bytes]]] = {}
        # canonical key -> (R, R's patterns -> the key of the base each
        # completes R to), for the classes asked for, which leave _entries
        self._classes: dict[bytes, tuple[GDD, dict]] = {}
        self.keys = {b.canonical_key() for b in bases}
        self.deletions: dict[GDD, dict[int, GDD]] = {}
        shared: dict[GDD, GDD] = {}
        for b in bases:
            rests = self.deletions[b] = {}
            for w, rest in connected_deletions(b).items():
                rest = rests[w] = shared.setdefault(rest, rest)
                to_w = [b.edge_label(w, u) for u in range(b.rank) if u != w]
                entry = (rest, b.diag[w], to_w, b.canonical_key())
                self._entries.setdefault(rest.canonical_key(), []).append(entry)

    def completions(self, trimmed: GDD) -> dict[tuple, bytes]:
        """(label of the new vertex, (vertex, edge label) pairs sorted by
        vertex) -> the canonical key of the base it makes, for every
        nonempty attachment to the connected diagram trimmed that makes it
        a base, in _pattern_order: by the new vertex's label exponent, then
        the number of attached vertices, the attached vertices and their
        edge-label exponents.  Such an extension is a base B with trimmed as
        B - w; the class of trimmed keeps the patterns on its representative
        R, closed under the automorphisms of R, and the map pairing
        trimmed's canonical order with R's carries them to trimmed."""
        key = trimmed.canonical_key()
        if key not in self._classes:
            entries = self._entries.pop(key, None)
            if entries is None:
                return {}
            rep = entries[0][0]
            automorphisms = list(isomorphisms(rep, rep))
            found = {}
            for rest, diag, to_w, base in entries:
                phi = _pairing(rep, rest)
                for alpha in automorphisms:
                    image = [to_w[phi[a]] for a in alpha]
                    found[(diag, tuple(
                        (r, lab) for r, lab in enumerate(image) if lab is not None
                    ))] = base
            self._classes[key] = (rep, found)
        rep, patterns = self._classes[key]
        back = _pairing(rep, trimmed)
        carried = [
            ((diag, tuple(sorted((back[r], lab) for r, lab in pairs))), base)
            for (diag, pairs), base in patterns.items()
        ]
        carried.sort(key=lambda item: _pattern_order(item[0]))
        return dict(carried)


def _pairing(g: GDD, h: GDD) -> list[int]:
    """The isomorphism g -> h of two diagrams with equal canonical keys and
    the same modulus that pairs their canonical orders position by
    position."""
    phi = [0] * g.rank
    for v, w in zip(g.canonical_order(), h.canonical_order()):
        phi[v] = w
    return phi


class CandidateDeletions:
    """The candidates A + x built on one base A, and their deletions at the
    vertices of A, decided from the base index at the non-cut vertices of A
    (see the module docstring).  A candidate is (v, label of x, x's (vertex,
    edge label) pairs in A coordinates, sorted by vertex); built, x is the
    vertex of index A.rank.  A deletion's verdict is the key of the base it
    is, or None when it is not one.  The verdicts are read at the non-cut
    vertices of A before the cut vertices.  For a cut vertex u, the
    components of A - u are found once: g - u = (A - u) + x is connected
    exactly when x has an edge into each of them, and only then is it built
    and keyed."""

    def __init__(self, base: GDD, index: BaseIndex):
        self.base = base
        self.base_keys = index.keys
        # non-cut vertex u of A -> index.completions(A - u)
        self.completions: dict[int, dict] = {}
        rests = index.deletions.get(base) or connected_deletions(base)
        for u, trimmed in rests.items():
            self.completions[u] = index.completions(trimmed)
        # cut vertex u of A -> (A - u, the component index of each of its
        # vertices, the number of components)
        self.cut: dict[int, tuple[GDD, list[int], int]] = {}
        for u in range(base.rank):
            if u not in self.completions:
                rest = base.delete_vertex(u)
                comps = rest.component_vertex_sets()
                component = [0] * rest.rank
                for i, comp in enumerate(comps):
                    for w in comp:
                        component[w] = i
                self.cut[u] = (rest, component, len(comps))
        # A connected diagram has at least two non-cut vertices.
        self.v0, self.v1 = list(self.completions)[:2]

    def count(self, back) -> int:
        """The number of candidates the patterns give: x attached by a
        pattern of A - v, for every non-cut v, plus an edge to v labelled
        by each entry of back (None for no edge), owned or not."""
        return len(back) * sum(map(len, self.completions.values()))

    def owned(self, back):
        """The candidates that their owner builds, with the key of the base
        g - v is, in the order all of them are given: by v, then patterns in
        BaseIndex.completions order, then back-edge order.  The owner is the
        least non-cut vertex of A at which x keeps an edge outside it (see
        the module docstring): v0 for every candidate from v0, as a pattern
        is nonempty, and v1 for one whose only edge goes to v0.  back holds
        None, for no edge to v, and the edge labels."""
        v0, v1 = self.v0, self.v1
        # A - v0 numbers the vertices of A other than v0 in order.
        lift = [u for u in range(self.base.rank) if u != v0]
        for (diag, pairs), key in self.completions[v0].items():
            lifted = [(lift[t], lab) for t, lab in pairs]
            for v_edge in back:
                if v_edge is None:
                    yield v0, diag, lifted, key
                else:
                    yield v0, diag, sorted(lifted + [(v0, v_edge)]), key
        # From v1: one edge, to v0 (numbered v0 in A - v1, as v0 < v1), and
        # none back to v1.
        for (diag, pairs), key in self.completions[v1].items():
            if len(pairs) == 1 and pairs[0][0] == v0:
                yield v1, diag, list(pairs), key

    def verdicts(self, v: int, diag: UnityRoot, pairs):
        """(u, the key of the base g - u is, or None when it is not a base)
        for the candidate g = (v, diag, pairs) and every vertex u != v of A
        at which g - u is connected, the non-cut vertices of A first, lazily.
        g - u is (A - u) + x, x's pairs outside u renumbered to A - u.  At a
        non-cut u it is connected when x keeps an edge there, and a base
        exactly when x's pattern is one of A - u's.  At a cut vertex u it is
        connected when x has an edge into every component of A - u, and
        then built and keyed."""
        for u, completions in self.completions.items():
            if u != v:
                rest = tuple((w if w < u else w - 1, lab) for w, lab in pairs if w != u)
                if rest:
                    yield u, completions.get((diag, rest))
        for u, (without_u, component, count) in self.cut.items():
            rest = [(w if w < u else w - 1, lab) for w, lab in pairs if w != u]
            if len({component[w] for w, _ in rest}) == count:
                key = without_u.add_vertex(diag, rest).canonical_key()
                yield u, key if key in self.base_keys else None


def collect_bases(rank: int, modulus: int, db: ArithmeticDatabase) -> list[GDD]:
    """Connected arithmetic diagrams of the given rank, at least 5, over
    mu_modulus: generated classical families, stored exceptional rows and
    diagrams of finite Cartan type, one representative per relabelling
    class, in key order.  Only the database buckets whose minimal modulus
    divides ``modulus`` are read, so only their rows are keyed: the rows of
    any other bucket have a label outside mu_modulus.

    A connected finite Cartan matrix is of type A_n, B_n, C_n, D_n, E_6,
    E_7, E_8, F_4 or G_2 (Kac, Infinite-dimensional Lie algebras, 4.8).
    From rank 5 on that leaves A-D, whose diagrams of Cartan type are
    classical and so already generated, and E_6-E_8, which
    cartan.e_type_diagrams builds.  Below rank 5 (F_4, G_2) the set would
    be incomplete, so a lower rank raises ValueError."""
    if rank < 5:
        raise ValueError(f"bases are collected from rank 5 on, not at rank {rank}")
    seen: dict[bytes, GDD] = {}
    for g in generate_classical(rank, modulus):
        seen.setdefault(g.canonical_key(), g)
    for key, g in db.keyed(rank, modulus):
        if key not in seen:
            seen[key] = with_modulus(g, modulus)
    for g in e_type_diagrams(rank, modulus):
        seen.setdefault(g.canonical_key(), g)
    return [seen[k] for k in sorted(seen)]


def twist_representatives(bases: list[GDD]) -> list[GDD]:
    """The first base of each power-twist orbit, in the given order.  A
    twist equal to a base, as labelled diagrams, reads the base's key."""
    known = {g: g for g in bases}
    seen: set[bytes] = set()
    out = []
    for g in bases:
        key = g.canonical_key()
        if key not in seen:
            out.append(g)
            seen.update(known.get(h, h).canonical_key() for h in g.twists())
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

    # None, the verdict on a deletion that is no base, and the key of every
    # base walked before the current one: a candidate with a deletion here
    # is dropped (see the module docstring)
    dropped: set[bytes | None] = {None}
    for base in bases:
        report.bases_tried += 1
        deletions = CandidateDeletions(base, index)
        report.candidates_examined += deletions.count(back)
        for v, diag, pairs, base_v in deletions.owned(back):
            if base_v in dropped:
                continue
            verdicts = deletions.verdicts(v, diag, pairs)
            if any(base_u in dropped for _, base_u in verdicts):
                continue
            g = base.add_vertex(diag, pairs)
            if oracle._connected(g).arithmetic:
                continue
            found.setdefault(g.canonical_key(), g)
        dropped.add(base.canonical_key())

    # the key of each found diagram -> the key of the diagram it is a twist
    # of, whose shape tag it shares (itself when there is no closure)
    source: dict[bytes, bytes] = {}
    if twist_closed:
        for key, g in list(found.items()):
            if key in source:
                continue  # a twin of an earlier find: its orbit is closed
            for h in g.twists():
                # Items found directly keep their own diagram.
                twin = h.canonical_key()
                found.setdefault(twin, h)
                source[twin] = key
    else:
        source = {key: key for key in found}
    report.found = dict(sorted(found.items()))
    if collect_shapes:
        orbits = sorted(set(source.values()))
        tags = {key: oracle.shape_tag(found[key]) for key in orbits}
        report.shape_tags = {key: tags[source[key]] for key in report.found}
    report.elapsed = time.monotonic() - start
    return report


def diff_keys(found_keys, expected_blocks) -> Comparison:
    """Canonical-key diff of a found key set against parsed expected blocks.
    An expected diagram counts once, under the name of its first block;
    ``missing`` keeps the order of the blocks."""
    expected: dict[bytes, str] = {}
    for g, meta, lineno in expected_blocks:
        name = meta.get("item") or meta.get("row") or f"line {lineno}"
        expected.setdefault(g.canonical_key(), name)
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
