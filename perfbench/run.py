"""The gddkit benchmark: run one workload for a while, check its outputs, and
print one JSON result line.

    python3 perfbench/run.py --workload enum-r6-m4 --seed 1 --seconds 50 --trace 0

Run from anywhere inside a checkout of the repository; it imports gddkit
from the checkout's ``src`` and writes only under ``.perfbench_out/``.  See
``perfbench/README.md`` for the workloads, the metrics and what each layer
metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from math import lcm
from pathlib import Path

import diagrams

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
SRC = ROOT / "src"
DB = SRC / "gddkit" / "data" / "exceptional_rows.gdd"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 4
WORKER_TIMEOUT_S = 170


@dataclass(frozen=True)
class Enumeration:
    rank: int
    order_of_q: int
    reference: str

    @property
    def modulus(self) -> int:
        return lcm(2, self.order_of_q)


ENUMERATIONS = {
    "enum-r6-m4": Enumeration(6, 4, "ref_r6_m4.gdd"),
    "enum-r6-m6": Enumeration(6, 3, "ref_r6_m6.gdd"),
    "enum-r7-m4": Enumeration(7, 4, "ref_r7_m4.gdd"),
}
WORKLOADS = [*ENUMERATIONS, "check-batch"]

END_TO_END = {"ref_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "search.bases": "count",
    "search.candidates": "count",
    "search.found": "count",
    "search.found_per_candidate": "ratio",
    "search.pruned_by_filters": "count",
    "search.self_s": "s",
    "search.collect_bases_s": "s",
    "oracle.filter_calls": "count",
    "oracle.filter_s": "s",
    "oracle.filter_prune_ratio": "ratio",
    "oracle.queries": "count",
    "oracle.decisions": "count",
    "oracle.hit_ratio": "ratio",
    "oracle.decide_self_s": "s",
    "oracle.memo_entries": "count",
    "oracle.witness.classical": "count",
    "oracle.witness.table": "count",
    "oracle.witness.cartan-finite": "count",
    "oracle.witness.cartan-not-finite": "count",
    "oracle.witness.no-match": "count",
    "oracle.witness.degenerate-diag": "count",
    "core.canonical_calls": "count",
    "core.canonical_s": "s",
    "core.gdd_builds": "count",
    "core.gdd_build_s": "s",
    "core.is_connected_calls": "count",
    "core.is_connected_s": "s",
    "core.delete_vertex_calls": "count",
    "core.parse_s": "s",
    "cli.check_s": "s",
    "cli.self_s": "s",
    "tables.load_s": "s",
    "tables.classical_keys_calls": "count",
    "tables.classical_keys_s": "s",
    "tables.contains_calls": "count",
    "tables.contains_s": "s",
    "cartan.shortcut_calls": "count",
    "cartan.shortcut_s": "s",
    "cartan.affine_family_calls": "count",
    "cartan.affine_family_s": "s",
    "classify.classical_type_calls": "count",
    "classify.classical_type_s": "s",
    "classify.shape_tag_calls": "count",
    "classify.shape_tag_s": "s",
    "chains.chains_with_parameter_s": "s",
    "chains.profile_s": "s",
    "proc.cpu_s": "s",
    "proc.wall_s": "s",
    "proc.slowdown": "ratio",
    "trace.overhead_ratio": "ratio",
}

HEADER = re.compile(
    r"# bases=(\d+) candidates=(\d+) pruned-by-filters=(\d+) found=(\d+)"
)


# Bytecode caches are written (into the checkout's __pycache__ directories),
# so set-up is timed as an installed gddkit pays it, whatever the caller's
# PYTHONDONTWRITEBYTECODE says.
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
WORKER_ENV["PYTHONHASHSEED"] = "0"


class WorkerFailed(RuntimeError):
    pass


def call_worker(spec: dict) -> dict:
    """Run worker.py on a spec in a fresh process; its last line is JSON."""
    spec = dict(spec, src=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT,
        env=WORKER_ENV,
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def fixtures() -> list[tuple]:
    return diagrams.parse((DATA / "fixtures.gdd").read_text())


# -- workloads ------------------------------------------------------------------


class EnumerationJob:
    """``gddkit enumerate`` at one (rank, M); the seed is not used.

    An operation is one diagram of the reference set (the unfiltered found
    set); it fails when the report lacks it.  A found diagram outside the
    reference, or a transcribed fixture at this (rank, M) that is not found,
    makes the run incorrect."""

    def __init__(self, w: Enumeration):
        self.w = w
        self.ref = {
            diagrams.form(m, d, e): f"ref item {meta['item']}"
            for meta, m, d, e in diagrams.parse((DATA / w.reference).read_text())
        }
        self.fixtures: dict[tuple, str] = {}
        for meta, m, d, e in fixtures():
            if m == w.modulus and len(d) == w.rank:
                f = diagrams.form(m, d, e)
                name = f"{meta['file']} {meta['item']}"
                self.fixtures[f] = f"{self.fixtures[f]}, {name}" if f in self.fixtures else name

    def argv(self, stem: Path) -> list[str]:
        return ["enumerate", "--rank", str(self.w.rank),
                "--order-of-q", str(self.w.order_of_q),
                "--db", str(DB), "--out", f"{stem}.report"]

    def check(self, stem: Path) -> tuple[int, int, list[str]]:
        report = Path(f"{stem}.report")
        text = report.read_text() if report.exists() else ""
        found = {diagrams.form(m, d, e) for _, m, d, e in diagrams.parse(text)}
        missing = [f for f in self.ref if f not in found]
        problems = [f"missing {self.ref[f]}"
                    + (f" (fixture {self.fixtures[f]})" if f in self.fixtures else "")
                    for f in missing]
        extra = len(found - self.ref.keys())
        if extra:
            problems.append(f"{extra} found diagrams are not in the reference set")
        problems += [f"fixture {name} not found" for f, name in self.fixtures.items()
                     if f not in found and f not in self.ref]
        return len(self.ref), len(missing), problems

    def search_counts(self, stem: Path) -> dict:
        report = Path(f"{stem}.report")
        m = HEADER.search(report.read_text()) if report.exists() else None
        if m is None:
            return {}
        bases, candidates, pruned, found = map(int, m.groups())
        return {"search.bases": bases, "search.candidates": candidates,
                "search.found": found, "search.pruned_by_filters": pruned,
                "search.found_per_candidate": found / candidates if candidates else 0.0}


class CheckBatchJob:
    """``gddkit check`` on about 700 diagrams with known answers, each
    relabelled by a seeded random vertex permutation, in seeded order.

    An operation is one diagram; it fails unless its printed verdict
    (arithmetic, or not arithmetic and quasi-affine) matches the known one."""

    def __init__(self, seed: int, stem: Path):
        known = [("quasi-affine", b) for b in fixtures()]
        known += [(b[0]["expect"], b)
                  for b in diagrams.parse((DATA / "check_batch.gdd").read_text())]
        rng = random.Random(seed)
        items = []
        for i, (expect, (_meta, m, d, e)) in enumerate(known):
            sigma = list(range(len(d)))
            rng.shuffle(sigma)
            items.append((f"b{i}", expect, diagrams.relabel(m, d, e, sigma)))
        rng.shuffle(items)
        self.expect = {name: expect for name, expect, _ in items}
        self.input = Path(f"{stem}.input.gdd")
        self.input.write_text("\n\n".join(
            diagrams.to_text({"item": name}, *g) for name, _, g in items) + "\n")

    def argv(self, stem: Path) -> list[str]:
        return ["check", str(self.input), "--db", str(DB)]

    def check(self, stem: Path) -> tuple[int, int, list[str]]:
        verdict: dict[str, str] = {}
        current = None
        for line in Path(f"{stem}.stdout").read_text().splitlines():
            if line.startswith("diagram "):
                current = line[len("diagram "):].split(":")[0]
            elif line.startswith("  arithmetic: "):
                word = line.split()[1]
                verdict[current] = {"yes": "arithmetic", "no": "not arithmetic"}.get(word, word)
            elif line.startswith("  quasi-affine: ") and verdict.get(current) == "not arithmetic":
                verdict[current] = "quasi-affine" if line.split()[1] == "YES" else "neither"
        problems = [f"{name}: expected {want}, got {verdict.get(name, 'no verdict')}"
                    for name, want in sorted(self.expect.items())
                    if verdict.get(name) != want]
        return len(self.expect), len(problems), problems

    def search_counts(self, stem: Path) -> dict:
        return {"search.bases": 0, "search.candidates": 0, "search.found": 0,
                "search.pruned_by_filters": 0, "search.found_per_candidate": 0.0}


# -- one run --------------------------------------------------------------------


def setup_samples(n: int) -> list[dict]:
    """Import gddkit and load the packaged database, each in a fresh process."""
    return [call_worker({"setup": True}) for _ in range(n)]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Closed loop: one client starts a fresh worker for the next call only
    when the previous one has finished, until the next call would end after
    ``seconds``; at least one call.  Outputs are checked after the loop."""
    if not (SRC / "gddkit").is_dir():
        raise SystemExit(f"no gddkit sources under {SRC}")
    OUT.mkdir(exist_ok=True)
    base = OUT / f"{workload}-seed{seed}"
    if workload in ENUMERATIONS:
        job = EnumerationJob(ENUMERATIONS[workload])
    else:
        job = CheckBatchJob(seed, base)

    def call(stem: Path, trace: bool) -> tuple[Path, dict]:
        # outputs of an earlier run under the same name must not be checked
        for suffix in (".stdout", ".report", ".spans"):
            Path(f"{stem}{suffix}").unlink(missing_ok=True)
        return stem, call_worker({"argv": job.argv(stem), "stdout": f"{stem}.stdout",
                                  "trace": trace, "spans": f"{stem}.spans"})

    # The first set-up sample also writes the bytecode caches and is
    # dropped.  The rest are spread over the run, before and after every
    # call, so that one burst of load on the box does not set the median.
    setup = setup_samples(1 + SETUP_SAMPLES)[1:]
    calls = []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        calls.append(call(Path(f"{base}-call{len(calls)}"), trace=False))
        setup += setup_samples(SETUP_SAMPLES)
        now = time.perf_counter()
        if now - begin + (now - t0) > seconds:
            break
    traced = call(Path(f"{base}-traced"), trace=True) if trace else None

    attempted = failed = 0
    problems: list[str] = []
    for stem, res in calls + ([traced] if traced else []):
        n, bad, notes = job.check(stem)
        attempted, failed = attempted + n, failed + bad
        if res["exit"] != 0:
            notes = [f"exit code {res['exit']}"] + notes
        problems += [f"{stem.name}: {note}" for note in notes]

    # Other tenants of a shared box slow its cores by up to half, for spells
    # from milliseconds to minutes: the same call read 6.2 s and 9.4 s in
    # one minute.  Times are therefore reported rescaled to the reference
    # core by the worker's speed probes (worker.SpeedProbe).
    walls = [res["wall_s"] for _, res in calls]
    ref_walls = [res["ref_wall_s"] for _, res in calls]
    values = {
        "ref_wall_s": statistics.median(ref_walls),
        "setup_s": statistics.median(s["ref_setup_s"] for s in setup),
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for _, res in calls),
    }
    absent: list[str] = []
    if traced:
        stem, res = traced
        values.update(res["layers"])
        values.update(job.search_counts(stem))
        values["proc.cpu_s"] = statistics.median(r["cpu_s"] for _, r in calls)
        values["proc.wall_s"] = statistics.median(walls)
        values["proc.slowdown"] = statistics.median(
            w / r for w, r in zip(walls, ref_walls))
        values["trace.overhead_ratio"] = res["ref_wall_s"] / values["ref_wall_s"]
        absent = [name for name in PER_LAYER if name not in values]
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "calls": len(calls), "wall_s": walls, "ref_wall_s": ref_walls,
        "setup_s": [s["setup_s"] for s in setup],
        "ref_setup_s": [s["ref_setup_s"] for s in setup],
        "peak_rss_mb": [res["peak_rss_mb"] for _, res in calls],
        "cpu_s": [res["cpu_s"] for _, res in calls],
        "problems": problems, "absent": absent, "result": result,
    }
    if traced:
        detail["traced_wall_s"] = traced[1]["wall_s"]
        detail["traced_ref_wall_s"] = traced[1]["ref_wall_s"]
        detail["absent_spans"] = traced[1]["absent_spans"]
    Path(f"{base}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1))
    return detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerFailed, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload}: {detail['calls']} calls on {detail['nproc']} cpus, "
          f"python {detail['python']}", file=sys.stderr)
    for note in detail["problems"]:
        print(f"  {note}", file=sys.stderr)
    for name in detail["absent"]:
        print(f"  absent: {name}", file=sys.stderr)
    print(json.dumps(detail["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
