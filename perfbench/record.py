"""Regenerate the benchmark's fixed data under ``perfbench/data``.

    python3 perfbench/record.py

The files are recorded once and committed, so the benchmark's correctness
gate does not move when the program changes:

- ``ref_r<rank>_m<M>.gdd``: the found set of ``gddkit enumerate --no-filters``
  (the unfiltered path) for each enumeration workload;
- ``fixtures.gdd``: every transcribed block of ``tests/fixtures/*.gdd``,
  tagged with its file; all of them are quasi-affine;
- ``check_batch.gdd``: the other known answers of the ``check-batch``
  workload: the database rows (arithmetic), the affine catalogue at rank >= 6
  for q of order 3 (quasi-affine), and a fixed stride through the
  generated classical diagrams of ranks 6-8 over mu_4, mu_6 and mu_10
  (arithmetic).
"""

from __future__ import annotations

import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import diagrams

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"

CLASSICAL_PER_GROUP = 20


def _block(meta: dict, g) -> str:
    edges = {e: lab.exponent for e, lab in g.edges.items()}
    return diagrams.to_text(meta, g.modulus, [d.exponent for d in g.diag], edges)


def record_references(cli, enumerations) -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for rank, order_of_q, path in enumerations:
            out = Path(tmp) / "report.gdd"
            with redirect_stdout(sys.stderr):
                code = cli.main([
                    "enumerate", "--rank", str(rank), "--order-of-q", str(order_of_q),
                    "--db", str(cli.DEFAULT_DB), "--no-filters", "--out", str(out),
                ])
            if code != 0:
                raise SystemExit(f"unfiltered enumeration failed with exit {code}")
            path.write_text(out.read_text())
            print(f"{path.name}: {len(diagrams.parse(out.read_text()))} diagrams",
                  file=sys.stderr)


def record_fixtures() -> None:
    blocks = []
    for f in sorted((ROOT / "tests" / "fixtures").glob("*.gdd")):
        for meta, modulus, diag, edges in diagrams.parse(f.read_text()):
            tagged = {"file": f.name, "item": meta.get("item", "?")}
            blocks.append(diagrams.to_text(tagged, modulus, diag, edges))
    (DATA / "fixtures.gdd").write_text("\n\n".join(blocks) + "\n")
    print(f"fixtures.gdd: {len(blocks)} diagrams", file=sys.stderr)


def record_check_batch(cli) -> None:
    from gddkit import cartan
    from gddkit.roots import Parameter
    from gddkit.tables import generate_classical

    blocks = []
    for meta, modulus, diag, edges in diagrams.parse(cli.DEFAULT_DB.read_text()):
        tagged = {"src": f"row{meta['row']}.{meta['gdd']}", "expect": "arithmetic"}
        blocks.append(diagrams.to_text(tagged, modulus, diag, edges))
    # q of order 3 only: other orders repeat the same graphs with other
    # labels and would treble the call
    for family, g in cartan.catalogue(Parameter(3).q):
        if g.rank >= 6:
            tagged = {"src": f"{family.name}.N{family.size}.q3", "expect": "quasi-affine"}
            blocks.append(_block(tagged, g))
    for rank in (6, 7, 8):
        for modulus in (4, 6, 10):
            found = sorted(generate_classical(rank, modulus), key=lambda g: g.to_text())
            stride = max(1, len(found) // CLASSICAL_PER_GROUP)
            for i, g in enumerate(found[::stride][:CLASSICAL_PER_GROUP]):
                tagged = {"src": f"classical.r{rank}.m{modulus}.{i}",
                          "expect": "arithmetic"}
                blocks.append(_block(tagged, g))
    (DATA / "check_batch.gdd").write_text("\n\n".join(blocks) + "\n")
    print(f"check_batch.gdd: {len(blocks)} diagrams", file=sys.stderr)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from gddkit import cli

    from run import ENUMERATIONS

    DATA.mkdir(exist_ok=True)
    record_fixtures()
    record_check_batch(cli)
    record_references(cli, [
        (w.rank, w.order_of_q, DATA / w.reference) for w in ENUMERATIONS.values()
    ])
    return 0


if __name__ == "__main__":
    sys.exit(main())
