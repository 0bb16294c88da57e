"""The benchmark's request generators are frozen; every argv they send must
still parse, or a grammar change breaks the benchmark without a test failing."""

import importlib.util
from pathlib import Path

import pytest

from deformed_heisenberg import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def _workloads():
    # loaded by path: benchmarks/ is not a package, and the module's
    # top-level imports are stdlib only
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _traffic(w):
    argvs = []
    for workload in w.WORKLOADS:
        for seed in (1, 2, 3):
            gen = w.blocks(workload, seed)
            for _ in range(3):
                argvs += next(gen)
    return argvs


def test_parser_accepts_every_workload_and_probe_argv():
    w = _workloads()
    argvs = _traffic(w) + [a for probes in w.KNOWN_DEFECT_PROBES.values()
                           for a in probes]
    assert {a[0] for a in argvs} == {"state", "sweep-dispersion", "spectrum",
                                     "verify"}
    parser = cli._build_parser()
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"dheis refuses benchmark argv {argv}")
