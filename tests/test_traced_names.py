"""The traced benchmark harness wraps package functions by name; every name
it lists must still exist, or a traced run breaks on the first request."""

import importlib
import importlib.util
from pathlib import Path

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
