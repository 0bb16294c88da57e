"""Run one dheis request through ``cli.main(argv)`` with spans recorded.

    python benchmarks/traced_cli.py SPANS.npz dheis-args...

Every function named in TRACED or COUNTED is wrapped in each
deformed_heisenberg module namespace that binds it (``cli`` and
``dispersion`` import some of them by name), so calls are seen whichever way
they are looked up.  A TRACED call records a span; a COUNTED call only bumps
a counter, for the innermost kernels whose spans would cost more than the
kernel itself.  Spans stay in memory and are written to SPANS.npz when main
returns or raises; stdout, stderr and the exit status are those of
``python -m deformed_heisenberg.cli``.
"""

import functools
import json
import os
import sys
from array import array
from time import perf_counter

TRACED = {
    "aes_series": ["upsilon_table", "amplitude_coefficients",
                   "fock_coefficients", "normalization_c0",
                   "deformed_squeezed_state", "aes_operator"],
    "dispersion": ["perturbed_moments", "perturbed_quadrature_stats"],
    "_gaussian": ["quadratic_exponential_derivative"],
    "pseudo_hermitian": ["build_system", "build_G", "build_H",
                         "hermitian_hamiltonian", "spectrum_report",
                         "pseudo_hermiticity_residual", "unitarity_check",
                         "commutator_checks"],
    "deformed_algebra": ["build_realization", "commutator_residual_tilde",
                         "commutator_residual_uzp"],
    "fock_core": ["triangular_matrix_function", "matrix_exponential",
                  "guarded_norm"],
    "paragrassmann": ["solve_appendix_a", "residual_check"],
    "cli": ["main"],
}

# functions whose calls are counted (``<name>.calls``) without a span
COUNTED = {"_gaussian": ["gamma_kl", "lambda_kl"]}

# counters read from a traced function's return value
RESULT_COUNTERS = {
    "aes_series.fock_coefficients": ("cross_check_terms",
                                     lambda r: r[1].terms_used),
    "aes_series.normalization_c0": ("terms_used", lambda r: r[1].terms_used),
}

# lru-cached functions whose misses are read from cache_info() at exit
CACHED = ["aes_series.upsilon_table", "aes_series.amplitude_coefficients"]


class Recorder:
    """Spans as parallel arrays: function index, parent span, start, end."""

    def __init__(self):
        self.names = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.stack = [-1]
        self.counters = {}

    def wrap(self, name, f):
        idx = len(self.names)
        self.names.append(name)
        probe = RESULT_COUNTERS.get(name)

        @functools.wraps(f)
        def traced(*args, **kwargs):
            i = len(self.fn)
            self.fn.append(idx)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            self.failed.append(0)
            self.stack.append(i)
            self.start.append(perf_counter())
            try:
                result = f(*args, **kwargs)
            except BaseException:
                self.failed[i] = 1
                raise
            finally:
                self.end[i] = perf_counter()
                self.stack.pop()
            if probe:
                key = f"{name}.{probe[0]}"
                self.counters[key] = self.counters.get(key, 0) + probe[1](result)
            return result
        return traced

    def count(self, name, f):
        key = f"{name}.calls"
        self.counters[key] = 0

        @functools.wraps(f)
        def counted(*args, **kwargs):
            self.counters[key] += 1
            return f(*args, **kwargs)
        return counted

    def save(self, path, originals):
        import numpy as np
        for name in CACHED:
            self.counters[f"{name}.misses"] = originals[name].cache_info().misses
        np.savez(path, fn=np.frombuffer(self.fn, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 failed=np.frombuffer(self.failed, dtype=np.int8),
                 meta=json.dumps({"names": self.names,
                                  "counters": self.counters}))


def install(rec: Recorder):
    """Wrap every TRACED and COUNTED function in every package namespace
    binding it."""
    import deformed_heisenberg.cli  # noqa: F401  (imports every module)
    pkg = [m for n, m in sys.modules.items()
           if n == "deformed_heisenberg" or n.startswith("deformed_heisenberg.")]
    originals = {}
    for table, make in ((TRACED, rec.wrap), (COUNTED, rec.count)):
        for mod_name, funcs in table.items():
            mod = sys.modules[f"deformed_heisenberg.{mod_name}"]
            for fname in funcs:
                name = f"{mod_name}.{fname}"
                orig = getattr(mod, fname)
                originals[name] = orig
                wrapper = make(name, orig)
                for m in pkg:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
    return originals


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    # import as `python -m` does: the working directory first, not this file's
    sys.path[0] = os.getcwd()
    rec = Recorder()
    originals = install(rec)
    from deformed_heisenberg import cli
    try:
        rc = cli.main(argv)
    finally:
        rec.save(spans_path, originals)
    sys.exit(rc)


if __name__ == "__main__":
    main()
