"""The arithmetic-diagram database, and the classical families.

Only the exceptional rows are stored, transcribed into the text format and
instantiated at one primitive parameter per stated order.  Loading expands
each entry over the conjugate parameters (label-wise power twists), so
membership is independent of which primitive root the caller picked.
Lookups go through canonical keys, which are relabelling-invariant and do
not depend on the group mu_M a diagram's labels are written in.

The classical families are generated from their defining types: the search
takes its bases and shape bounds from them, and the tests take them as the
reference for classify.classical_type, which the oracle uses to recognize a
classical diagram without generating its family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .chains import chains_with_parameter
from .core import GDD, parse_blocks
from .roots import UnityRoot, minus_one


@dataclass(frozen=True)
class EntryMeta:
    row: int
    gdd_index: int
    order_of_q: int
    source: str = ""


@dataclass
class ArithmeticDatabase:
    """Canonical-key-indexed store of exceptional arithmetic diagrams."""

    by_rank: dict[int, dict[bytes, EntryMeta]] = field(default_factory=dict)
    representatives: dict[bytes, GDD] = field(default_factory=dict)

    def add(self, g: GDD, meta: EntryMeta) -> bool:
        """Store g (and return True) unless an equivalent entry exists."""
        key = g.canonical_key()
        rankmap = self.by_rank.setdefault(g.rank, {})
        if key in rankmap:
            return False
        rankmap[key] = meta
        self.representatives[key] = g
        return True

    def contains(self, g: GDD) -> EntryMeta | None:
        return self.lookup(g.rank, g.canonical_key())

    def lookup(self, rank: int, key: bytes) -> EntryMeta | None:
        """The entry stored under a canonical key of the given rank."""
        return self.by_rank.get(rank, {}).get(key)

    def entries(self, rank: int | None = None):
        ranks = [rank] if rank is not None else sorted(self.by_rank)
        for r in ranks:
            for key, meta in self.by_rank.get(r, {}).items():
                yield self.representatives[key], meta

    def keyed(self, rank: int) -> list[tuple[bytes, GDD]]:
        """(canonical key, diagram) of every entry of the given rank."""
        return [(key, self.representatives[key]) for key in self.by_rank.get(rank, {})]

    def keys_at_rank(self, rank: int) -> set[bytes]:
        return set(self.by_rank.get(rank, {}))

    def __len__(self):
        return sum(len(m) for m in self.by_rank.values())


class DatabaseError(ValueError):
    pass


def load(path: str | Path, expand_conjugates: bool = True) -> ArithmeticDatabase:
    """Read a database file; every entry is validated (connected, no vertex
    label 1, rank >= 2) and expanded over conjugate parameters."""
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
        variants = g.twists() if expand_conjugates else [g]
        for variant in variants:
            db.add(variant, entry_meta)
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
