"""One gddkit command-line call in a fresh process.

    python3 perfbench/worker.py '<spec as JSON>'

The spec names the source tree to import gddkit from (``src``) and either
asks for a set-up sample (``"setup": true``: time importing gddkit and
loading the packaged database) or gives the ``argv`` of one
``gddkit.cli.main`` call, the file its standard output goes to, and whether
to trace it.  The last line this process prints is its result as JSON.
Run by ``run.py``, which starts one worker per call so that memos start
cold and peak memory is per call.

Each timed region runs under a ``SpeedProbe``, which rescales its wall time
to the reference core (``ref_wall_s``, ``ref_setup_s``).
"""

from __future__ import annotations

import json
import math
import resource
import signal
import statistics
import sys
import time
from contextlib import redirect_stdout

# Seconds per probe step on the reference core, an unloaded 2.1 GHz Xeon
# (KVM guest, Python 3.11): the fastest of 3000 probes taken there.
REF_STEP_S = 2.0e-7
# (seconds between probes, steps per probe): a probe takes about 0.1 ms and
# 0.4 ms on the reference core, 2-3% of the region
SETUP_PROBE = (0.004, 500)
CALL_PROBE = (0.02, 2000)
PROBE_TABLE = bytearray(1 << 20)


class SpeedProbe:
    """Times a fixed walk through a 1 MiB table every ``interval`` seconds
    while a region runs, and rescales the region's time to the reference
    core.

    A shared host slows a core by up to half, for spells of milliseconds to
    minutes, as other tenants come and go; the probes sample how fast this
    core ran during the region.  The walk visits the table in a
    pseudo-random order, so that it feels the cache contention the program
    feels as well as the shared core.  It runs in a ``SIGALRM`` handler,
    between the program's bytecodes, so no thread is started."""

    def __init__(self, interval: float, steps: int):
        self.interval, self.steps = interval, steps
        self.durations: list[float] = []
        self.j = 0

    def _probe(self, signum, frame) -> None:
        table, mask, j = PROBE_TABLE, len(PROBE_TABLE) - 1, self.j
        t0 = time.perf_counter()
        for _ in range(self.steps):
            # table[j] is always 0; reading it makes each step wait on memory
            j = (j * 1103515245 + 12345 + table[j]) & mask
        self.durations.append(time.perf_counter() - t0)
        self.j = j

    def rescale(self, seconds: float) -> float:
        """The program's share of ``seconds`` (the region less the probes)
        at the mean speed the probes saw, relative to the reference core."""
        if not self.durations:
            return seconds
        ref = self.steps * REF_STEP_S
        return ((seconds - math.fsum(self.durations))
                * statistics.fmean(ref / d for d in self.durations))

    def __enter__(self) -> SpeedProbe:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _usage():
    mine = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = mine.ru_utime + mine.ru_stime + kids.ru_utime + kids.ru_stime
    # ru_maxrss is in KiB on Linux; children are added so work moved into
    # child processes still counts
    return cpu, (mine.ru_maxrss + kids.ru_maxrss) / 1024


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    if spec.get("setup"):
        with SpeedProbe(*SETUP_PROBE) as probe:
            t0 = time.perf_counter()
            from gddkit import cli
            from gddkit.tables import load

            load(cli.DEFAULT_DB)
            setup = time.perf_counter() - t0
        print(json.dumps({"setup_s": setup, "ref_setup_s": probe.rescale(setup)}))
        return 0

    from gddkit import cli

    tracer = None
    if spec["trace"]:
        from tracer import install

        tracer = install()
    with open(spec["stdout"], "w") as out, redirect_stdout(out), \
            SpeedProbe(*CALL_PROBE) as probe:
        t0 = time.perf_counter()
        code = cli.main(spec["argv"])
        wall = time.perf_counter() - t0
    cpu, rss = _usage()
    result = {"exit": code, "wall_s": wall, "ref_wall_s": probe.rescale(wall),
              "cpu_s": cpu, "peak_rss_mb": rss}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent_spans"] = tracer.absent
        tracer.dump(spec["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
