"""Smoke test of the demo scripts: each runs in a fresh interpreter, exits 0
and prints exactly the recorded text (pinned by the SHA-256 of its stdout).
A change to a demo's output is a change to the recorded digest here."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

STDOUT_SHA256 = {
    "01_labels_and_diagrams.py":
        "0a15404bd2f1af0f2dd3c88db76df85eea11b91d8150fe2b45de042a88bfcf58",
    "02_chains_and_classical_types.py":
        "d86e37b4e4f986bec7a715907bec5b24905d7faae10dedf9e87c142c4ff41bfd",
    "03_affine_catalogue.py":
        "f74cd73ccc9ad4fc782d58a6dc6cf5bbca299b1c4ef2c654cfdd4c747691fffa",
    "04_quasi_affine_search.py":
        "bf10c6dfe9fe02c7cb99bdf326755bf92d45396c2fbd206d101caa7ab5bff1ab",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_runs_and_prints_the_recorded_text(name, child_env):
    proc = subprocess.run([sys.executable, str(DEMOS / name)], env=child_env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name], (
        proc.stdout.decode())
