"""The arithmetic oracle and the quasi-affine predicate.

A connected diagram of rank >= 5 is arithmetic exactly when it is classical,
a stored exceptional row, or of Cartan type with finite matrix.  Each branch
recognizes the queried diagram itself: classify.classical_type reads it as a
classical type, the database looks up its canonical key, and the Cartan
shortcut eliminates its exponent matrix once.  No family is generated to
answer a query.

The oracle decides a query on the diagram as given, in its own mu_M, and
keys it by its canonical key, which is the same for its copy in any other
group (core.GDD.canonical_key).  That is sound because recognition, the
Cartan shortcut (roots.discrete_log_nonpositive) and the database test only
equalities of label exponents, and whether a label is 1 or -1; the
embedding mu_m -> mu_M, z -> z^(M/m), preserves all of these, because both
moduli are even.

Below rank 5 the oracle can certify positives (classical / Cartan / stored)
but refuses to certify a negative unless the database covers that rank: it
raises OracleGap instead of guessing.

Quasi-affine testing only ever consults connected single-vertex deletions:
every component of a disconnected deletion embeds into a connected deletion
(each side of a cut vertex contains a non-cut vertex of the whole diagram),
and connected subdiagrams of arithmetic diagrams are arithmetic, so the
connected deletions decide the full condition.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from . import cartan, classify
from .chains import chain_condition_failures
from .core import GDD, components_of, non_cut_vertices
from .roots import minus_one
from .tables import ArithmeticDatabase


# Entries the oracle memo holds at most; past it, verdicts are computed but
# no longer stored.
MEMO_LIMIT = 2_000_000


class OracleGap(Exception):
    """The query needs arithmetic decisions below the oracle's coverage."""


class InternalInconsistency(Exception):
    """The Cartan shortcut and the classification branches disagree."""


class OracleVerdict(namedtuple("OracleVerdict", "arithmetic witness")):
    __slots__ = ()

    def __bool__(self):
        return self.arithmetic


class Oracle:
    """Arithmetic decisions by recognition: the classical types
    (classify.classical_type), the exceptional-row database, and the
    Cartan-type shortcut.  Memoized by canonical key, in a plain dict with
    no locking, holding at most MEMO_LIMIT entries."""

    def __init__(self, db: ArithmeticDatabase | None = None):
        self.db = db if db is not None else ArithmeticDatabase()
        self._memo: dict[bytes, OracleVerdict] = {}
        # (diagram, its classify.classical_type, its
        # cartan.braiding_exponents) handed in by is_arithmetic for the
        # query it makes, else None; _connected_uncached takes the diagram
        # alone, the signature perfbench/tracer.py wraps.
        self._given: tuple[GDD, set, cartan.Matrix | None] | None = None

    # -- the oracle ----------------------------------------------------------

    def is_arithmetic(self, g: GDD, *, readings: tuple | None = None) -> OracleVerdict:
        """Componentwise arithmetic decision (a disconnected diagram is
        arithmetic exactly when all its components are).  A caller that has
        read a connected g as classify.classical_type(g) and, when no vertex
        label is 1, cartan.braiding_exponents(g) passes the pair as
        ``readings`` (None for the matrix otherwise); they stand for the
        oracle's own readings."""
        parts = g.component_vertex_sets()
        if len(parts) == 1:
            if readings is None:
                return self._connected(g)
            self._given = (g, *readings)
            try:
                return self._connected(g)
            finally:
                self._given = None
        for part in parts:
            v = self._connected(g.induced(part))
            if not v.arithmetic:
                return OracleVerdict(False, ("component",) + v.witness)
        return OracleVerdict(True, ("all-components",))

    def _connected(self, g: GDD) -> OracleVerdict:
        # Kept so perfbench/tracer.py can count queries here, decisions below.
        return self._connected_uncached(g)

    def _connected_uncached(self, g: GDD) -> OracleVerdict:
        """The verdict on a connected diagram: classical by recognition, then
        a stored row, then the Cartan shortcut, which must not deny either
        positive."""
        if g.rank == 1:
            return OracleVerdict(not g.diag[0].is_one, ("rank-1",))
        if g.has_degenerate_diag():
            return OracleVerdict(False, ("degenerate-diag",))
        # The one canonicalization of this query: its key indexes the memo
        # and the database.
        key = g.canonical_key()
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        positive = None
        given = self._given
        if given is not None and given[0] is g:
            _, tags, exponents = given
            # the Cartan shortcut (cartan.arithmetic_via_cartan) on the
            # given matrix
            shortcut = None if exponents is None else cartan.is_finite_cartan(exponents)
        else:
            tags = classify.classical_type(g)
            shortcut = cartan.arithmetic_via_cartan(g)
        if tags:
            positive = OracleVerdict(True, ("classical",))
        else:
            meta = self.db.lookup(g.rank, key)
            if meta is not None:
                positive = OracleVerdict(True, ("table", meta.row, meta.gdd_index))
        if shortcut is False and positive is not None:
            raise InternalInconsistency(
                f"Cartan shortcut denies a {positive.witness[0]} match:\n{g.to_text()}"
            )
        if positive is not None:
            verdict = positive
        elif shortcut is True:
            verdict = OracleVerdict(True, ("cartan-finite",))
        elif shortcut is False:
            verdict = OracleVerdict(False, ("cartan-not-finite",))
        elif g.rank < 5 and not self.db.covers(g.rank):
            raise OracleGap(
                f"cannot certify non-arithmetic at rank {g.rank}: no coverage"
            )
        else:
            verdict = OracleVerdict(False, ("no-match",))
        if len(self._memo) < MEMO_LIMIT:
            self._memo[key] = verdict
        return verdict

    # -- quasi-affine ---------------------------------------------------------

    def is_quasi_affine(self, g: GDD) -> bool:
        """Connected, not arithmetic, every vertex deletion arithmetic.

        Decided through connected deletions only (see the module docstring);
        at rank >= 6 those have rank >= 5 and stay inside the oracle domain.
        The cut vertices are read from g's adjacency, so only the connected
        deletions are built.
        """
        adj = g.adjacency()
        if len(components_of(adj)) != 1:
            raise ValueError("quasi-affine is defined for connected diagrams")
        if g.rank < 2:
            return False
        if self._connected(g).arithmetic:
            return False
        for v in non_cut_vertices(adj):
            if not self._connected(g.delete_vertex(v)).arithmetic:
                return False
        return True

    # -- continual extensions ---------------------------------------------------

    def tail_extensions(self, g: GDD, v: int, head: str) -> list[GDD]:
        """The diagrams obtained by adding the one-vertex end form (``"T5"``
        with label the inverse of the new edge, ``"T6"`` with label -1) on
        vertex v, continuing the chain there."""
        out = []
        for t_out in classify.continuation_patterns(g, v):
            diag = t_out ** -1 if head == "T5" else minus_one(g.modulus)
            out.append(g.add_vertex(diag, [(v, t_out)]))
        return out

    def is_continual_on_tail(self, g: GDD, v: int, head: str) -> bool:
        """Whether the head-form extension on tail v is arithmetic."""
        exts = self.tail_extensions(g, v, head)
        if not exts:
            return False
        return any(self._connected(e).arithmetic for e in exts)

    def shape_tag(self, g: GDD) -> str:
        return classify.shape_tag(g, continual=self.is_continual_on_tail)


# -- negative filters ----------------------------------------------------------


def _pattern_shapes(g: GDD):
    """Induced five-vertex patterns: a path a-b-c-e with d hanging on c,
    optionally with the closing edge d-e, where diag d = diag e."""
    adj = [sorted(nbs) for nbs in g.adjacency()]
    for c, nbs in enumerate(adj):
        if len(nbs) < 3:
            continue
        for d, e in combinations(nbs, 2):
            for b in nbs:
                if b in (d, e):
                    continue
                for a in adj[b]:
                    if a in (c, d, e):
                        continue
                    yield (a, b, c, d, e)


def forbidden_branch_pattern(g: GDD, exception_keys: set[bytes]) -> tuple | None:
    """The branched forbidden pattern: vertices a-b-c with both d and e on c,
    d-e possibly joined, diag d = diag e, no other adjacency among the five.
    Applies at rank > 4; classical diagrams, the listed exceptional rows and
    finite-Cartan diagrams are exempt."""
    if g.rank <= 4:
        return None
    for (a, b, c, d, e) in _pattern_shapes(g):
        five = sorted((a, b, c, d, e))
        sub = g.induced(five)
        pos = {v: i for i, v in enumerate(five)}
        sub_adj = sub.adjacency()
        deg = {v: len(sub_adj[pos[v]]) for v in (a, b, c, d, e)}
        if deg[a] != 1 or deg[b] != 2 or deg[c] != 3:
            continue
        link = sub.edge_label(pos[d], pos[e])
        if link is None and not (deg[d] == 1 and deg[e] == 1):
            continue
        if link is not None and not (deg[d] == 2 and deg[e] == 2):
            continue
        for x, y in ((d, e), (e, d)):
            if g.diag[x] == g.diag[y]:
                if (
                    g.canonical_key() in exception_keys
                    or classify.classical_type(g)
                    or cartan.arithmetic_via_cartan(g)
                ):
                    return None
                return ("branch-pattern", (a, b, c, x, y))
    return None


def forbidden_by_chain_failures(g: GDD, exception_keys: set[bytes]) -> tuple | None:
    """Chains failing the simple-chain conditions in two or more places are
    not arithmetic, a short list of exceptional rows aside.  Rank > 4."""
    if g.rank <= 4 or not g.is_chain():
        return None
    bad = chain_condition_failures(g)
    if len(bad) < 2:
        return None
    if g.canonical_key() in exception_keys:
        return None
    return ("chain-failures", tuple(bad))
