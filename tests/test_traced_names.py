"""The traced benchmark harness wraps package functions by name; every name
it lists must still exist, or a traced run breaks on the first request."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from deformed_heisenberg import cli

TRACED_CLI = Path(__file__).resolve().parents[1] / "benchmarks" / "traced_cli.py"


def _harness():
    # loaded by path: benchmarks/ is not a package, and the module's
    # top-level imports are stdlib only
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(mod_name, fname):
    mod = importlib.import_module(f"deformed_heisenberg.{mod_name}")
    return getattr(mod, fname, None)


def test_traced_and_counted_names_resolve():
    h = _harness()
    names = [(m, f) for table in (h.TRACED, h.COUNTED)
             for m, funcs in table.items() for f in funcs]
    assert names
    missing = [f"{m}.{f}" for m, f in names if not callable(_resolve(m, f))]
    assert missing == []


def test_cached_names_have_cache_info():
    h = _harness()
    assert h.CACHED
    for name in h.CACHED:
        f = _resolve(*name.split("."))
        assert callable(getattr(f, "cache_info", None)), name


def test_cli_import_loads_every_traced_module():
    # install() looks each module up in sys.modules after importing cli
    # alone, so a module that cli imported lazily would break every traced
    # request; the test above imports each module itself and cannot see it
    h = _harness()
    modules = sorted({f"deformed_heisenberg.{m}"
                      for table in (h.TRACED, h.COUNTED) for m in table})
    code = ("import json, sys\n"
            "import deformed_heisenberg.cli\n"
            "print(json.dumps([m for m in json.loads(sys.argv[1])\n"
            "                  if m not in sys.modules]))\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(modules)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
