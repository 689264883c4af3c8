"""The benchmark's traced run wraps gddkit's layer entry points by name
(``perfbench/tracer.py``).  A target that is removed, renamed or re-signed
is skipped there, and the run then reads its metrics as absent, so every
target is checked here against the imported package, and a short traced
run of each workload must print every per-layer metric."""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from db_rows import DATA
from gddkit.core import parse_gdd
from gddkit.oracle import Oracle, OracleVerdict
from gddkit.tables import load

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# the affine cycle A_5^(1) (not arithmetic) and an A_3 chain (arithmetic), q of order 3
AFFINE = "gdd M=6 n=6\ndiag 2 2 2 2 2 2\n" + "".join(
    f"edge {i} {i + 1} 4\n" for i in range(1, 6)) + "edge 1 6 4\n"
CHAIN = "gdd M=6 n=3\ndiag 2 2 2\nedge 1 2 4\nedge 2 3 4\n"


@pytest.fixture(scope="module")
def tracer():
    """perfbench/tracer.py, loaded by path; nothing is installed."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_point_resolves(tracer):
    for module, _ in tracer.ENTRY_POINTS.values():
        importlib.import_module(module)
    gone = [name for name, (module, path) in tracer.ENTRY_POINTS.items()
            if tracer._resolve(module, path) is None]
    assert not gone
    for name, (module, path) in tracer.ENTRY_POINTS.items():
        _, _, target = tracer._resolve(module, path)
        assert callable(target), name


def test_decide_returns_a_verdict_with_a_witness(tracer):
    """The traced decide wrapper calls Oracle._connected_uncached(self, g)
    and reads the verdict's witness kind."""
    assert list(inspect.signature(Oracle._connected_uncached).parameters) == ["self", "g"]
    oracle = Oracle(load(DATA))
    decide = tracer._counting(tracer.Tracer(), "oracle.decide", Oracle._connected_uncached)
    for text, arithmetic in ((AFFINE, False), (CHAIN, True)):
        verdict = decide(oracle, parse_gdd(text))
        assert type(verdict) is OracleVerdict
        assert verdict.arithmetic is arithmetic
        assert verdict.witness[0] in tracer.WITNESSES


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_reports_every_layer_metric(workload):
    """A short traced run of the workload (it writes under the ignored
    .perfbench_out/) exits 0, and its last line is strict JSON: a correct
    result with no failed operation and every per-layer metric of
    BENCHMARK.json."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.2", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_no_constant)
    assert result["correct"] is True and result["failed"] == 0, result
    missing = [m["name"] for m in BENCHMARK["per_layer"] if m["name"] not in result["metrics"]]
    assert not missing
