"""Command-line front end.

Subcommands: check (classify diagram files), enumerate (quasi-affine search),
verify (diff two diagram files by canonical key), db-validate, catalogue
(affine families), export-dot.  All configuration is
via flags; output is a pure function of the inputs.

Exit codes: 0 ok, 1 parse/usage error or unreadable file (one line on
stderr), 2 verification mismatch, 3 oracle gap.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import cartan, classify
from .chains import chain_profile, is_simple_chain
from .core import GDD, ParseError, minimal_modulus, parse_blocks, path_order, with_modulus
from .oracle import Oracle, OracleGap
from .roots import Parameter
from .search import diff_keys, enumerate_quasi_affine, verify_against
from .tables import DatabaseError, load, validate_report

DEFAULT_DB = Path(__file__).parent / "data" / "exceptional_rows.gdd"


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _to_dot(g: GDD) -> str:
    """g in DOT, its labels written as powers of q of order N, the largest
    label order, in mu_lcm(2, N).  When g is written in a larger group, it
    is re-expressed in mu_lcm(2, N) if its labels fit there, and rendered
    as z^e with no parameter if they do not."""
    orders = sorted(
        {d.order() for d in g.diag} | {e.order() for e in g.edges.values()},
        reverse=True,
    )
    if not orders or orders[0] < 2:
        return g.to_dot()
    parameter = Parameter(orders[0])
    if g.modulus != parameter.modulus:
        if parameter.modulus % minimal_modulus(g):
            return g.to_dot()
        g = with_modulus(g, parameter.modulus)
    return g.to_dot(parameter)


def cmd_check(args) -> int:
    blocks = parse_blocks(_read(args.file))
    oracle = None
    if args.db:
        oracle = Oracle(load(args.db))
    status = 0
    for i, (g, meta, _) in enumerate(blocks, start=1):
        name = meta.get("item") or meta.get("row") or str(i)
        print(f"diagram {name}: rank {g.rank}, modulus {g.modulus}")
        # g's one reading, shared by every answer below and the oracle's queries
        r = classify.reading(g)
        connected = len(r.parts()) == 1
        print(f"  connected: {'yes' if connected else 'no'}")
        if (order := path_order(r.nbrs, r.all)) is not None:
            simple = is_simple_chain(g, order)
            print(f"  chain: yes; simple chain: {'yes' if simple else 'no'}")
            if simple:
                for p in sorted(chain_profile(g, order), key=lambda p: (p.wildcard, p.q)):
                    if p.wildcard:
                        print("    profile: q free (rank-1 vertex -1)")
                    else:
                        print(
                            f"    profile: q = z^{p.q.exponent}, "
                            f"index set {sorted(p.index_set)}"
                        )
        else:
            print("  chain: no")
        if connected:
            tags = r.classical_type()
            if tags:
                kinds = sorted({t.kind for t in tags})
                print(f"  classical: yes ({', '.join(kinds)})")
            else:
                print("  classical: no")
            print(f"  simple cycle: {'yes' if r.is_simple_cycle() else 'no'}")
            if not g.has_degenerate_diag():
                a = r.matrix()
                if a is None:
                    print("  Cartan type: no")
                else:
                    rows = "; ".join(" ".join(str(x) for x in row) for row in a)
                    kind = ("finite" if r.finite()
                            else "affine" if cartan.is_affine_cartan(a) else "indefinite")
                    print(f"  Cartan type: yes ({kind}); matrix [{rows}]")
                    fam = cartan.family_of_affine_matrix(a) if kind == "affine" else None
                    if fam is not None:
                        print(f"  affine family: {cartan.display(fam.name)}"
                              + (f" at N={fam.size}" if fam.size is not None else ""))
        if oracle is not None and connected:
            try:
                verdict = oracle.is_arithmetic(g)
                print(f"  arithmetic: {'yes' if verdict.arithmetic else 'no'} "
                      f"(witness: {verdict.witness[0]})")
                if not verdict.arithmetic and g.rank >= 2:
                    qa = oracle.is_quasi_affine(g)
                    print(f"  quasi-affine: {'YES' if qa else 'no'}")
                    if qa:
                        print(f"  shape: {oracle.shape_tag(g)}")
            except OracleGap as exc:
                print(f"  arithmetic: undecided ({exc})")
                status = 3
    return status


def cmd_enumerate(args) -> int:
    if args.db is None:
        print("enumeration needs a database (--db)", file=sys.stderr)
        return 3
    if args.modulus is not None:
        modulus = args.modulus
    else:
        modulus = Parameter(args.order_of_q).modulus
    expected = _read(args.expected) if args.expected else None
    db = load(args.db)
    try:
        report = enumerate_quasi_affine(args.rank, modulus, db)
    except OracleGap as exc:
        print(f"oracle gap: {exc}", file=sys.stderr)
        return 3
    status = 0
    if expected is not None:
        comparison = verify_against(report, expected)
        if not comparison.ok:
            status = 2
    text = report.to_text()
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return status


def cmd_verify(args) -> int:
    """Diff the diagrams of one file (e.g. an enumeration report) against an
    expected list, by canonical key."""
    got = parse_blocks(_read(args.report))
    want = parse_blocks(_read(args.expected))
    comparison = diff_keys({g.canonical_key() for g, _, _ in got}, want)
    print(f"matched={len(comparison.matched)} missing={len(comparison.missing)} "
          f"extra={len(comparison.extra)}")
    for _, name in comparison.missing:
        print(f"missing: {name}")
    return 0 if comparison.ok else 2


def cmd_db_validate(args) -> int:
    try:
        db = load(args.db)
    except (DatabaseError, ParseError) as exc:
        print(f"invalid database: {exc}", file=sys.stderr)
        return 1
    notes = validate_report(args.db)
    print(f"{len(db)} entries after conjugate expansion; {len(notes)} notes")
    for note in notes:
        print(" ", note)
    return 0


def cmd_catalogue(args) -> int:
    parameter = Parameter(args.order_of_q)
    q = parameter.q
    emitted = 0
    for family, g in cartan.catalogue(q, max_rank=args.max_rank):
        print(f"# family={family.name}" + (f" N={family.size}" if family.size else ""))
        print(g.to_text())
        print()
        emitted += 1
    print(f"# {emitted} diagrams for q of order {args.order_of_q}", file=sys.stderr)
    return 0


def cmd_export_dot(args) -> int:
    for g, _meta, _ in parse_blocks(_read(args.file)):
        print(_to_dot(g))
    return 0


class UsageError(Exception):
    """A command line the parser rejects."""


class _Parser(argparse.ArgumentParser):
    """An argument parser, and the parser of each subcommand, that raises
    UsageError where argparse would print the usage and exit 2, the code
    of a verification mismatch."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="gddkit",
        description="Classify and enumerate generalized Dynkin diagrams "
        "with root-of-unity labels.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify the diagrams in a file")
    p.add_argument("file", help="diagram file ('-' for stdin)")
    p.add_argument("--db", help="database of exceptional rows "
                   f"(packaged: {DEFAULT_DB})")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("enumerate", help="search for quasi-affine diagrams")
    p.add_argument("--rank", type=int, required=True)
    # The search depends only on M; exactly one of the two is given.
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--modulus", type=int,
                       help="M: search with labels in mu_M (M even)")
    group.add_argument("--order-of-q", type=int,
                       help="N: alias for --modulus lcm(2, N)")
    p.add_argument("--db", help=f"database of exceptional rows (packaged: {DEFAULT_DB})")
    p.add_argument("--out")
    p.add_argument("--expected", help="diagram file to diff the found set against")
    # The search uses no negative filters.  perfbench/record.py still passes
    # this old opt-out, so it stays accepted and does nothing.
    p.add_argument("--no-filters", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify", help="diff a report against an expected list")
    p.add_argument("--report", required=True, help="diagram file ('-' for stdin)")
    p.add_argument("--expected", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("db-validate", help="validate a database file")
    p.add_argument("--db", default=str(DEFAULT_DB))
    p.set_defaults(fn=cmd_db_validate)

    p = sub.add_parser("catalogue", help="emit the affine diagram catalogue")
    p.add_argument("--order-of-q", type=int, required=True)
    p.add_argument("--max-rank", type=int, default=9)
    p.set_defaults(fn=cmd_catalogue)

    p = sub.add_parser("export-dot", help="write DOT for the diagrams in a file")
    p.add_argument("file", help="diagram file ('-' for stdin)")
    p.set_defaults(fn=cmd_export_dot)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        # unreadable files and out-of-range arguments
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
