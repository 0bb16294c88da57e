import json

import numpy as np
import pytest

from test_checks import SPECTRUM, STATE, SWEEP_PHI, VERIFY
from traced_cli import COUNTED


@pytest.mark.parametrize("argv", [STATE, SWEEP_PHI, SPECTRUM, VERIFY],
                         ids=lambda a: a[0])
def test_traced_stdout_is_byte_identical(dheis, traced, argv):
    out, spans = traced(argv)
    assert out == dheis(argv)
    with np.load(spans) as z:
        names = json.loads(str(z["meta"]))["names"]
        fn, parent = z["fn"], z["parent"]
        main = names.index("cli.main")
        # one root span, cli.main, and every other span under it
        assert list(fn[parent == -1]) == [main]
        assert len(fn) > 1


def test_state_trace_sees_tables_and_counters(traced):
    _, spans = traced(STATE)
    with np.load(spans) as z:
        meta = json.loads(str(z["meta"]))
        names = [meta["names"][i] for i in z["fn"]]
    counters = meta["counters"]
    assert names.count("aes_series.fock_coefficients") == 1
    assert counters["aes_series.amplitude_coefficients.misses"] >= 24
    assert counters["aes_series.normalization_c0.terms_used"] > 0


def test_names_bound_by_import_are_wrapped(traced):
    # cli binds build_realization by name; verify must still record it
    _, spans = traced(VERIFY)
    with np.load(spans) as z:
        meta = json.loads(str(z["meta"]))
        names = {meta["names"][i] for i in z["fn"]}
    assert {"deformed_algebra.build_realization", "fock_core.guarded_norm",
            "pseudo_hermitian.build_system"} <= names


def test_sweep_counts_kernels_without_spans(traced):
    _, spans = traced(SWEEP_PHI)
    with np.load(spans) as z:
        meta = json.loads(str(z["meta"]))
        names = {meta["names"][i] for i in z["fn"]}
    assert "_gaussian.quadratic_exponential_derivative" in names
    for f in COUNTED["_gaussian"]:
        assert f"_gaussian.{f}" not in names
        assert meta["counters"][f"_gaussian.{f}.calls"] > 0
