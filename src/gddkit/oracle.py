"""The arithmetic oracle and the quasi-affine predicate.

A connected diagram of rank >= 5 is arithmetic exactly when it is classical,
a stored exceptional row, or of Cartan type with finite matrix.  Each branch
reads the queried diagram itself or, for a vertex deletion that
is_quasi_affine decides, the diagram it is deleted from: classify reads it
as a classical type, the database looks up its canonical key, and the
Cartan shortcut eliminates its exponent matrix once.  No family is
generated to answer a query.

Recognition comes first and needs no canonical key: a classical query is
answered, once the Cartan shortcut has not denied it, with no key and no
memo entry.  Only a query recognition does not settle is keyed, memoized
and looked up in the database; a query that already carries its key is
answered from the memo before any reading.

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
connected deletions decide the full condition.  They are read in the diagram
itself, on its one reading (classify.reading): whether a deletion has a
classical reading is asked of a vertex subset, stopping at the first, and
its exponent matrix is a principal submatrix of the diagram's.  A classical
deletion is checked against that matrix and counted arithmetic, built only
to name it in an InternalInconsistency; any other deletion is built and
decided by the keyed half of a query alone (Oracle._keyed), so it is keyed
and memoized like any query and never read as a classical type again.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from itertools import combinations

from . import cartan, classify
from .chains import chain_condition_failures
from .core import GDD, non_cut_vertices, vertices_of
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
    """Arithmetic decisions by recognition: the classical types, asked of
    the diagram's one reading (classify.reading), the exceptional-row
    database, and the Cartan-type shortcut on the same reading's matrix.
    The verdicts on queries that are not classical are memoized by
    canonical key, in a plain dict with no locking, holding at most
    MEMO_LIMIT entries; a classical query is neither keyed nor memoized."""

    def __init__(self, db: ArithmeticDatabase | None = None):
        self.db = db if db is not None else ArithmeticDatabase()
        self._memo: dict[bytes, OracleVerdict] = {}

    # -- the oracle ----------------------------------------------------------

    def is_arithmetic(self, g: GDD) -> OracleVerdict:
        """Componentwise arithmetic decision (a disconnected diagram is
        arithmetic exactly when all its components are), read off g's
        reading (classify.reading) unless g is keyed and memoized."""
        keyed = getattr(g, "_canonical", None)
        if keyed is not None and keyed[0] in self._memo:
            return self._connected(g)
        parts = classify.reading(g).parts()
        if len(parts) == 1:
            return self._connected(g)
        for part in parts:
            v = self._connected(g.induced(vertices_of(part)))
            if not v.arithmetic:
                return OracleVerdict(False, ("component",) + v.witness)
        return OracleVerdict(True, ("all-components",))

    def _connected(self, g: GDD) -> OracleVerdict:
        # Kept so perfbench/tracer.py can count queries here, decisions below.
        return self._connected_uncached(g)

    def _connected_uncached(self, g: GDD) -> OracleVerdict:
        """The verdict on a connected diagram.  A query already keyed is
        answered from the memo first.  Otherwise recognition comes first: a
        query with a classical reading is answered with no canonical key and
        no memo entry, once the Cartan shortcut has not denied it.  Any
        other query takes the keyed half (_keyed)."""
        if g.rank == 1:
            return OracleVerdict(not g.diag[0].is_one, ("rank-1",))
        if g.has_degenerate_diag():
            return OracleVerdict(False, ("degenerate-diag",))
        keyed = getattr(g, "_canonical", None)
        if keyed is not None:
            hit = self._memo.get(keyed[0])
            if hit is not None:
                return hit
        r = classify.reading(g)
        if not r.is_classical():
            return self._keyed(g, r.finite)
        if r.finite() is False:
            raise self._denial(g, "classical")
        return OracleVerdict(True, ("classical",))

    def _keyed(self, g: GDD, finite_of) -> OracleVerdict:
        """The verdict on a connected g of rank >= 2 with no vertex labelled
        1 and no classical reading, ``finite_of()`` giving the Cartan
        shortcut on it (a reading's kept _Subsets.finite verdict).  The one
        canonicalization of g keys the memo and the database: a memoized
        verdict is returned, else a stored row, which the shortcut must not
        deny, or the shortcut decides, and the verdict is memoized."""
        key = g.canonical_key()
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        finite = finite_of()
        meta = self.db.lookup(g.rank, key)
        if meta is not None:
            if finite is False:
                raise self._denial(g, "table")
            verdict = OracleVerdict(True, ("table", meta.row, meta.gdd_index))
        elif finite is not None:
            verdict = OracleVerdict(finite, ("cartan-finite" if finite else "cartan-not-finite",))
        elif g.rank < 5 and not self.db.covers(g.rank):
            raise OracleGap(f"cannot certify non-arithmetic at rank {g.rank}: no coverage")
        else:
            verdict = OracleVerdict(False, ("no-match",))
        if len(self._memo) < MEMO_LIMIT:
            self._memo[key] = verdict
        return verdict

    @staticmethod
    def _denial(g: GDD, witness: str) -> InternalInconsistency:
        return InternalInconsistency(
            f"Cartan shortcut denies a {witness} match:\n{g.to_text()}"
        )

    # -- quasi-affine ---------------------------------------------------------

    def is_quasi_affine(self, g: GDD) -> bool:
        """Connected, not arithmetic, every vertex deletion arithmetic.

        Decided through connected deletions only (see the module docstring);
        at rank >= 6 those have rank >= 5 and stay inside the oracle domain.
        g and each deletion are read on g's reading (classify.reading):
        whether it is connected from g's neighbour masks, whether it has a
        classical reading as a vertex subset of g, and its exponent matrix
        as a principal submatrix of g's.  A classical deletion is checked
        against that matrix and counted arithmetic, with nothing built; any
        other is built and decided by the keyed half alone (_keyed).  A
        deletion that keeps a vertex labelled 1 is not arithmetic
        (has_degenerate_diag, or the rank-1 verdict), and nothing is built
        for it either.
        """
        r = classify.reading(g)
        if len(r.parts()) != 1:
            raise ValueError("quasi-affine is defined for connected diagrams")
        if g.rank < 2:
            return False
        if self._connected(g).arithmetic:
            return False
        ones = sum(1 << v for v, d in enumerate(g.diag) if d.is_one)
        for v in non_cut_vertices(r.nbrs):
            if ones & ~(1 << v):
                return False
            if r.readings(r.all & ~(1 << v), first=True):
                if r.finite(v) is False:
                    raise self._denial(g.delete_vertex(v), "classical")
            elif not self._keyed(g.delete_vertex(v), partial(r.finite, v)).arithmetic:
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
