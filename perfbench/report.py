"""Every workload once, end-to-end metrics and correctness verdicts as a table.

    python3 perfbench/report.py

Runs ``enum-r6-m4``, ``enum-r6-m6``, ``enum-r7-m4`` and ``check-batch`` with
seed 0, one command-line call each (``enum-r6-m6`` alone takes over a
minute), and prints ``ref_wall_s``, the measured ``wall_s`` it was
derived from, ``setup_s``, ``peak_rss_mb`` and
``fail_ratio`` with their units and sample counts, then every failed
operation by name.  Per-layer numbers come from ``run.py --trace 1``.
"""

from __future__ import annotations

import sys
from statistics import median

from run import WORKLOADS, measure


def main() -> int:
    rows, notes = [], []
    for workload in WORKLOADS:
        d = measure(workload, seed=0, seconds=0, trace=False)
        r = d["result"]
        rows.append((
            workload,
            f"{r['metrics']['ref_wall_s']['value']:.2f} s (n={len(d['wall_s'])})",
            f"{median(d['wall_s']):.2f} s (n={len(d['wall_s'])})",
            f"{r['metrics']['setup_s']['value'] * 1000:.1f} ms (n={len(d['setup_s'])})",
            f"{r['metrics']['peak_rss_mb']['value']:.1f} MB (n={len(d['peak_rss_mb'])})",
            f"{r['failed'] / r['attempted']:.4f} ({r['failed']}/{r['attempted']})",
            "yes" if r["correct"] else "no",
        ))
        notes += [f"{workload}: {p}" for p in d["problems"]]
    header = ("workload", "ref_wall_s", "wall_s", "setup_s", "peak_rss_mb",
              "fail_ratio", "correct")
    widths = [max(len(row[i]) for row in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    for note in notes:
        print(note)
    return 0


if __name__ == "__main__":
    sys.exit(main())
