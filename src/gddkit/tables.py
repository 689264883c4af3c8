"""The arithmetic-diagram database, and the classical families.

Only the exceptional rows are stored, transcribed into the text format and
instantiated at one primitive parameter per stated order.  Each entry stands
for its conjugate parameters too (label-wise power twists), so membership is
independent of which primitive root the caller picked.  Lookups go through
canonical keys, which are relabelling-invariant and do not depend on the
group mu_M a diagram's labels are written in.

Loading keys nothing: it files each row under its rank and least even
modulus m, and a bucket is twist-expanded and keyed the first time anything
reads it.  A canonical key encodes the diagram's rank and m (key_bucket), so
a key can only equal a stored key of the same (rank, m); a unit twist keeps
the order of every label, so m, and a row and its twists share one bucket.

The classical families are generated from their defining types: the search
takes its bases and shape bounds from them, and the tests take them as the
reference for classify.classical_type, which the oracle uses to recognize a
classical diagram without generating its family.
"""

from __future__ import annotations

from collections import namedtuple
from pathlib import Path

from .chains import chains_with_parameter
from .core import GDD, key_bucket, minimal_modulus, parse_blocks
from .roots import UnityRoot, minus_one


class EntryMeta(namedtuple("EntryMeta", "row gdd_index order_of_q source",
                           defaults=("",))):
    __slots__ = ()


class ArithmeticDatabase:
    """Canonical-key-indexed store of exceptional arithmetic diagrams, filed
    in buckets by (rank, minimal modulus).

    A staged row is twist-expanded (when staged so) and keyed with the rest
    of its bucket, in staging order, the first time the bucket is read:
    by lookup or contains of a key in it, add into it, keyed, entries or
    len.  The first diagram of a key wins, so an equivalent add returns
    False.  Entries keep the order they were staged or added in, each row
    followed by its twists."""

    def __init__(self):
        # (rank, m) -> [(serial, row, meta, expand over twists)], not keyed yet
        self._staged: dict[tuple[int, int], list] = {}
        # (rank, m) -> {key: ((serial, twist index), diagram, meta)}
        self._keyed: dict[tuple[int, int], dict[bytes, tuple]] = {}
        self._serial = 0

    def stage(self, g: GDD, meta: EntryMeta, twist: bool) -> None:
        """File g, and its twists when ``twist``, to be keyed when its
        bucket is first read."""
        bucket = (g.rank, minimal_modulus(g))
        self._staged.setdefault(bucket, []).append((self._serial, g, meta, twist))
        self._serial += 1

    def _bucket(self, bucket: tuple[int, int]) -> dict[bytes, tuple]:
        """The keyed entries of a bucket, keying its staged rows first."""
        keyed = self._keyed.setdefault(bucket, {})
        for serial, g, meta, twist in self._staged.pop(bucket, ()):
            for t, variant in enumerate(g.twists() if twist else [g]):
                keyed.setdefault(variant.canonical_key(), ((serial, t), variant, meta))
        return keyed

    def _buckets(self, rank: int | None = None, modulus: int | None = None):
        """Every bucket of the given rank (of any rank for None) whose m
        divides ``modulus`` (any m for None), each keyed."""
        return [self._bucket(b) for b in self._staged.keys() | self._keyed.keys()
                if (rank is None or b[0] == rank) and (modulus is None or modulus % b[1] == 0)]

    def _in_order(self, rank: int | None = None, modulus: int | None = None):
        """(key, (order, diagram, meta)) of the selected buckets' entries, in
        staging order."""
        items = [item for keyed in self._buckets(rank, modulus) for item in keyed.items()]
        return sorted(items, key=lambda item: (item[1][1].rank, item[1][0]))

    def add(self, g: GDD, meta: EntryMeta) -> bool:
        """Store g (and return True) unless an equivalent entry exists."""
        key = g.canonical_key()
        keyed = self._bucket(key_bucket(key))
        if key in keyed:
            return False
        keyed[key] = ((self._serial, 0), g, meta)
        self._serial += 1
        return True

    def contains(self, g: GDD) -> EntryMeta | None:
        return self.lookup(g.rank, g.canonical_key())

    def lookup(self, rank: int, key: bytes) -> EntryMeta | None:
        """The entry stored under a canonical key of the given rank."""
        bucket = key_bucket(key)
        if bucket[0] != rank or (bucket not in self._keyed and bucket not in self._staged):
            return None
        entry = self._bucket(bucket).get(key)
        return None if entry is None else entry[2]

    def covers(self, rank: int) -> bool:
        """True when some entry, keyed or staged, has the given rank (no
        bucket is empty)."""
        return any(r == rank for r, _ in self._staged.keys() | self._keyed.keys())

    def entries(self, rank: int | None = None):
        """(diagram, meta) of every entry, of the given rank only unless
        None, by rank, then in staging order."""
        for _, (_, g, meta) in self._in_order(rank):
            yield g, meta

    def keyed(self, rank: int, modulus: int | None = None) -> list[tuple[bytes, GDD]]:
        """(canonical key, diagram) of every entry of the given rank, in
        staging order; with ``modulus``, only those whose labels fit in
        mu_modulus, that is, whose minimal modulus divides it."""
        return [(key, g) for key, (_, g, _) in self._in_order(rank, modulus)]

    def __len__(self):
        return sum(len(keyed) for keyed in self._buckets())


class DatabaseError(ValueError):
    pass


def load(path: str | Path, expand_conjugates: bool = True) -> ArithmeticDatabase:
    """Read a database file; every entry is validated (connected, no vertex
    label 1, rank >= 2) and staged under its (rank, minimal modulus), to be
    expanded over conjugate parameters (unless ``expand_conjugates`` is
    False) and keyed when its bucket is first read."""
    db = ArithmeticDatabase()
    text = Path(path).read_text()
    for g, meta, lineno in parse_blocks(text):
        try:
            row = int(meta.get("row", "0"))
            idx = int(meta.get("gdd", "0"))
            n_of_q = int(meta.get("N", "0"))
        except ValueError as exc:
            raise DatabaseError(f"entry at line {lineno}: bad metadata: {exc}") from None
        if g.rank < 2:
            raise DatabaseError(f"entry at line {lineno}: rank must be >= 2")
        if g.has_degenerate_diag():
            raise DatabaseError(f"entry at line {lineno}: vertex labelled 1")
        if not g.is_connected():
            raise DatabaseError(f"entry at line {lineno}: not connected")
        entry_meta = EntryMeta(row, idx, n_of_q, meta.get("src", ""))
        db.stage(g, entry_meta, expand_conjugates)
    return db


def store(db: ArithmeticDatabase, path: str | Path) -> None:
    blocks = []
    for g, meta in db.entries():
        header = f"# row={meta.row} gdd={meta.gdd_index} N={meta.order_of_q}"
        if meta.source:
            header += f" src={meta.source}"
        blocks.append(header + "\n" + g.to_text())
    Path(path).write_text("\n\n".join(blocks) + "\n")


def validate_report(path: str | Path) -> list[str]:
    """Line-precise diagnostics plus duplicate-identifier warnings."""
    notes = []
    text = Path(path).read_text()
    seen_ids: dict[tuple[int, int], int] = {}
    seen_keys: dict[bytes, int] = {}
    for g, meta, lineno in parse_blocks(text):
        ident = (int(meta.get("row", 0)), int(meta.get("gdd", 0)))
        if ident in seen_ids:
            notes.append(
                f"warning: duplicate identifier row={ident[0]} gdd={ident[1]} "
                f"at lines {seen_ids[ident]} and {lineno}"
            )
        else:
            seen_ids[ident] = lineno
        key = g.canonical_key()
        if key in seen_keys:
            notes.append(
                f"warning: diagrams at lines {seen_keys[key]} and {lineno} "
                "are the same up to relabelling"
            )
        else:
            seen_keys[key] = lineno
    return notes


# -- classical generation -----------------------------------------------------

# Largest modulus generate_classical accepts.
MAX_MODULUS = 64


def generate_classical(rank: int, modulus: int) -> set[GDD]:
    """Every classical-type diagram of the given rank over mu_modulus,
    deduplicated structurally (not up to relabelling; use canonical keys for
    that)."""
    if rank < 2:
        raise ValueError("classical diagrams start at rank 2")
    if modulus > MAX_MODULUS:
        raise ValueError(f"modulus {modulus} above configured bound {MAX_MODULUS}")
    out: set[GDD] = set()
    half = minus_one(modulus)
    params = [UnityRoot(e, modulus) for e in range(1, modulus)]

    # Bodies built by chains_with_parameter end at vertex rank-1.
    def attach_end(body: GDD, diag: UnityRoot, edge: UnityRoot) -> GDD:
        return body.add_vertex(diag, [(body.rank - 1, edge)])

    def attach_fork(body: GDD, diag: UnityRoot, edge: UnityRoot, link: UnityRoot | None) -> GDD:
        c = body.rank - 1
        first = body.add_vertex(diag, [(c, edge)])
        pairs = [(c, edge)] if link is None else [(c, edge), (c + 1, link)]
        return first.add_vertex(diag, pairs)

    for p in params:
        # Type 7: the whole diagram is a simple chain with parameter p.
        for body in chains_with_parameter(rank, p, modulus):
            if not body.has_degenerate_diag():
                out.add(body)
        # Types 1, 2, 4: one extra vertex on a rank-1 body end.
        if not p.is_minus_one:
            for body in chains_with_parameter(rank - 1, p, modulus):
                out.add(attach_end(body, p ** 2, p ** -2))
            for body in chains_with_parameter(rank - 1, p ** 2, modulus):
                out.add(attach_end(body, p, p ** -2))
        if rank == 2:
            # Rank-1 body labelled -1 takes any parameter, including square
            # roots living outside mu_modulus: any end pattern (d, d^-1).
            out.add(attach_end(GDD(modulus, (half,)), p, p ** -1))
        if p.order() == 3:
            for body in chains_with_parameter(rank - 1, p ** -1 * half, modulus):
                out.add(attach_end(body, p, p * half))
        # Types 5 and 6: two extra vertices on the body end.
        if rank >= 3:
            for body in chains_with_parameter(rank - 2, p, modulus):
                out.add(attach_fork(body, p, p ** -1, None))
                if not (p ** 2).is_one:
                    out.add(attach_fork(body, half, p ** -1, p ** 2))
    return {g for g in out if not g.has_degenerate_diag()}


def classical_keys(rank: int, modulus: int) -> set[bytes]:
    """Canonical keys of every classical diagram of the given rank over
    mu_modulus: the generated reference that classical recognition is
    tested against."""
    return {g.canonical_key() for g in generate_classical(rank, modulus)}
