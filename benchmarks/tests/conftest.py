import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))


def _env():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@pytest.fixture(scope="session")
def dheis():
    """Run ``dheis argv`` (untraced) and return its stdout bytes."""
    def run(argv):
        return subprocess.run([sys.executable, "-m", "deformed_heisenberg.cli",
                               *argv], capture_output=True, check=True,
                              env=_env(), cwd=ROOT, timeout=120).stdout
    return run


@pytest.fixture(scope="session")
def traced(tmp_path_factory):
    """Run ``dheis argv`` through traced_cli.py; (stdout bytes, spans path)."""
    def run(argv):
        spans = tmp_path_factory.mktemp("spans") / "spans.npz"
        out = subprocess.run([sys.executable, str(BENCH / "traced_cli.py"),
                              str(spans), *argv], capture_output=True,
                             check=True, env=_env(), cwd=ROOT,
                             timeout=120).stdout
        return out, spans
    return run
