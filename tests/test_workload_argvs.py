"""The benchmark's request generators are frozen; every argv they send must
still parse, or a grammar change breaks the benchmark without a test failing.
Each of them, and each argv of the golden corpus, is a well-formed request:
cli._request_args parses it as argparse does, without argparse."""

import importlib.util
import json
from pathlib import Path

import pytest

from deformed_heisenberg import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.tsv"


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
    golden = [json.loads(line.partition("\t")[0])
              for line in MANIFEST.read_text().splitlines()]
    assert len(golden) == 273
    parser = cli._build_parser()
    for argv in argvs + golden:
        try:
            want = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"dheis refuses benchmark argv {argv}")
        got = cli._request_args(argv)
        assert got is not None, f"argparse alone parses {argv}"
        # repr: a nan flag equals a nan, and -0.0 differs from 0.0
        assert ([(k, repr(v)) for k, v in vars(got).items()]
                == [(k, repr(v)) for k, v in vars(want).items()]), argv
