"""Timing wrappers around gddkit's layer entry points, for the traced run.

``install()`` replaces each entry point with a wrapper that records a span
(name, parent, start, end) in flat in-memory arrays, patching the name in
every gddkit module that looks it up (``gddkit.search`` imports the filters
by name, ``gddkit.cli`` imports ``enumerate_quasi_affine`` and ``load``).
``Tracer.metrics()`` turns the spans into the per-layer metrics and
``Tracer.dump()`` writes the spans out.  An entry point that no longer
exists is skipped, and every metric built from it reads as absent.

``gddkit.roots`` gets no wrapper: it is called about a million times per
enumeration, so a wrapper would cost more than the work it measures; its
time lands in its callers' self time.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# span name -> (module, attribute path) of the entry point it wraps
ENTRY_POINTS = {
    "cli.main": ("gddkit.cli", "main"),
    "cli.check": ("gddkit.cli", "cmd_check"),
    "cli.enumerate": ("gddkit.cli", "cmd_enumerate"),
    "search.enumerate": ("gddkit.search", "enumerate_quasi_affine"),
    "search.collect_bases": ("gddkit.search", "collect_bases"),
    "oracle.connected": ("gddkit.oracle", "Oracle._connected"),
    "oracle.decide": ("gddkit.oracle", "Oracle._connected_uncached"),
    "oracle.filter_chain": ("gddkit.oracle", "forbidden_by_chain_failures"),
    "oracle.filter_branch": ("gddkit.oracle", "forbidden_branch_pattern"),
    "core.gdd_build": ("gddkit.core", "GDD.__post_init__"),
    "core.is_connected": ("gddkit.core", "GDD.is_connected"),
    "core.delete_vertex": ("gddkit.core", "GDD.delete_vertex"),
    "core.canonical": ("gddkit.core", "GDD.canonical_key"),
    "core.parse": ("gddkit.core", "parse_blocks"),
    "tables.load": ("gddkit.tables", "load"),
    "tables.classical_keys": ("gddkit.tables", "classical_keys"),
    "tables.contains": ("gddkit.tables", "ArithmeticDatabase.contains"),
    "cartan.shortcut": ("gddkit.cartan", "arithmetic_via_cartan"),
    "cartan.affine_family": ("gddkit.cartan", "affine_family_of"),
    "classify.classical_type": ("gddkit.classify", "classical_type"),
    "classify.shape_tag": ("gddkit.classify", "shape_tag"),
    "chains.chains_with_parameter": ("gddkit.chains", "chains_with_parameter"),
    "chains.profile": ("gddkit.chains", "chain_profile"),
}

# per-layer metric -> (aggregate, span names); "total" skips a span nested
# inside another span of the same name, "self" subtracts direct children
SPAN_METRICS = {
    "search.self_s": ("self", ["search.enumerate"]),
    "search.collect_bases_s": ("total", ["search.collect_bases"]),
    "oracle.filter_calls": ("calls", ["oracle.filter_chain", "oracle.filter_branch"]),
    "oracle.filter_s": ("total", ["oracle.filter_chain", "oracle.filter_branch"]),
    "oracle.queries": ("calls", ["oracle.connected"]),
    "oracle.decide_self_s": ("self", ["oracle.decide"]),
    "core.canonical_calls": ("calls", ["core.canonical"]),
    "core.canonical_s": ("total", ["core.canonical"]),
    "core.gdd_builds": ("calls", ["core.gdd_build"]),
    "core.gdd_build_s": ("total", ["core.gdd_build"]),
    "core.is_connected_calls": ("calls", ["core.is_connected"]),
    "core.is_connected_s": ("total", ["core.is_connected"]),
    "core.delete_vertex_calls": ("calls", ["core.delete_vertex"]),
    "core.parse_s": ("total", ["core.parse"]),
    "cli.check_s": ("total", ["cli.check"]),
    "cli.self_s": ("self", ["cli.main", "cli.check", "cli.enumerate"]),
    "tables.load_s": ("total", ["tables.load"]),
    "tables.classical_keys_calls": ("calls", ["tables.classical_keys"]),
    "tables.classical_keys_s": ("total", ["tables.classical_keys"]),
    "tables.contains_calls": ("calls", ["tables.contains"]),
    "tables.contains_s": ("total", ["tables.contains"]),
    "cartan.shortcut_calls": ("calls", ["cartan.shortcut"]),
    "cartan.shortcut_s": ("total", ["cartan.shortcut"]),
    "cartan.affine_family_calls": ("calls", ["cartan.affine_family"]),
    "cartan.affine_family_s": ("total", ["cartan.affine_family"]),
    "classify.classical_type_calls": ("calls", ["classify.classical_type"]),
    "classify.classical_type_s": ("total", ["classify.classical_type"]),
    "classify.shape_tag_calls": ("calls", ["classify.shape_tag"]),
    "classify.shape_tag_s": ("total", ["classify.shape_tag"]),
    "chains.chains_with_parameter_s": ("total", ["chains.chains_with_parameter"]),
    "chains.profile_s": ("total", ["chains.profile"]),
}

WITNESSES = ["classical", "table", "cartan-finite", "cartan-not-finite",
             "no-match", "degenerate-diag"]
# verdicts the oracle returns without storing them in its memo
UNMEMOISED = {"rank-1", "degenerate-diag"}


def _resolve(module: str, path: str):
    """(owner, attribute, original) for a dotted path, or None if gone."""
    owner = sys.modules.get(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")     # span -> index into names
        self.parent = array("i")      # span -> enclosing span, -1 at the top
        self.nested = array("b")      # span opened inside a same-name span
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []    # spans open right now
        self.absent: list[str] = []
        self.witness: Counter = Counter()
        self.prunes = 0
        self.oracles: list = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, nested = self.name_of, self.parent, self.nested
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        depth = [0]

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            nested.append(depth[0] > 0)
            end.append(0.0)
            stack.append(i)
            depth[0] += 1
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                depth[0] -= 1
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- aggregation ---------------------------------------------------------

    def _per_name(self):
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls, total, own = Counter(), Counter(), Counter()
        for i in range(n):
            name = self.name_of[i]
            d = end[i] - start[i]
            calls[name] += 1
            own[name] += d - child[i]
            if not self.nested[i]:
                total[name] += d
        ids = {name: i for i, name in enumerate(self.names)}
        return {"calls": calls, "total": total, "self": own}, ids

    def metrics(self) -> dict:
        agg, ids = self._per_name()
        out: dict = {}
        for metric, (kind, names) in SPAN_METRICS.items():
            if all(name in ids for name in names):
                out[metric] = sum(agg[kind][ids[name]] for name in names)
        if "oracle.decide" in ids:
            decisions = sum(self.witness.values())
            out["oracle.decisions"] = decisions
            queries = out.get("oracle.queries")
            if queries is not None:
                out["oracle.hit_ratio"] = 1 - decisions / queries if queries else 0.0
            for kind in WITNESSES:
                out[f"oracle.witness.{kind}"] = self.witness[kind]
        if "oracle.filter_calls" in out:
            calls = out["oracle.filter_calls"]
            out["oracle.filter_prune_ratio"] = self.prunes / calls if calls else 0.0
        if self.oracles:
            out["oracle.memo_entries"] = sum(
                len(getattr(o, memo, ())) for o in self.oracles
                for memo in ("_memo", "_exact")
            )
        return out

    def dump(self, path: str) -> None:
        """Spans as a JSON header line followed by the raw arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["name_of:i", "parent:i", "nested:b", "start:d", "end:d"]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.nested, self.start, self.end):
                arr.tofile(f)


def install() -> Tracer:
    """Wrap every entry point of the imported gddkit modules."""
    tracer = Tracer()
    gddkit_modules = [m for name, m in list(sys.modules.items())
                      if name == "gddkit" or name.startswith("gddkit.")]
    for name, (module, path) in ENTRY_POINTS.items():
        found = _resolve(module, path)
        if found is None:
            tracer.absent.append(name)
            continue
        owner, attr, original = found
        fn = _counting(tracer, name, original)
        wrapped = tracer.wrap(name, fn)
        setattr(owner, attr, wrapped)
        if "." not in path:
            # the same function imported by name into other modules
            for m in gddkit_modules:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, wrapped)
    oracle_cls = getattr(sys.modules.get("gddkit.oracle"), "Oracle", None)
    if oracle_cls is not None:
        init = oracle_cls.__init__

        def remember(self, *args, **kwargs):
            init(self, *args, **kwargs)
            tracer.oracles.append(self)

        oracle_cls.__init__ = remember
    return tracer


def _counting(tracer: Tracer, name: str, fn):
    """fn, plus the outcome counters some metrics need."""
    if name == "oracle.decide":
        def decide(self, g):
            memo = getattr(self, "_memo", None)
            before = len(memo) if memo is not None else -1
            verdict = fn(self, g)
            kind = verdict.witness[0]
            if memo is None or len(memo) > before or kind in UNMEMOISED:
                tracer.witness[kind] += 1
            return verdict
        return decide
    if name.startswith("oracle.filter_"):
        def screen(*args, **kwargs):
            hit = fn(*args, **kwargs)
            if hit is not None:
                tracer.prunes += 1
            return hit
        return screen
    return fn
