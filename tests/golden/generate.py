"""Write the golden-path manifest of the dheis CLI.

The corpus is the traffic the benchmark sends, cut to a size a test can
replay: the first two blocks of seeds 1-10 of every workload in
benchmarks/workloads.py, plus each subcommand with its defaults, one
``state`` argv that raises a PhaseWindow warning and the JSON argvs below,
each argv once.  Each
argv runs in-process through ``cli.main``; manifest.tsv holds one line per
argv with three tab-separated columns: its JSON form, its exit code, and the
sha256 of its exit code, stdout and stderr.  test_golden_paths.py replays it.

The hashes hold the last bits of the libm and BLAS they were made with, so a
change that regenerates the manifest changes test data: say which argvs
moved and why.  Before it overwrites the manifest, the script prints to
stderr how many argvs changed hash against the old one, and which: an argv
whose exit code changed is listed apart from one whose output moved under
the same exit code.  The BLAS
is pinned to one thread, as benchmarks/run.py pins every request and
tests/conftest.py pins the tests.  Run from the repository root:

    PYTHONPATH=src python tests/golden/generate.py
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import warnings
from pathlib import Path

# before numpy loads: the pins take effect only when the BLAS starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from deformed_heisenberg import cli  # noqa: E402

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.tsv"
WORKLOADS = HERE.parents[1] / "benchmarks" / "workloads.py"

SEEDS = range(1, 11)
BLOCKS_PER_SEED = 2
# mu = 0 with arg(lam) = 3 lies outside the z > 0 convergence window
PHASE_WINDOW = ["state", "--dim", "64", "--z", "0.01", "--delta", "0",
                "--beta", "1", "--theta", "3"]
# the JSON writer on a table that completes: the default spectrum exits 4,
# this operator_checks one exits 0
SPECTRUM_OK = ["spectrum", "--dim", "128", "--delta", "0.0464064", "--phi",
               "-0.379741", "--z", "0.0065224"]


def _workloads():
    # loaded by path: benchmarks/ is not a package, and the module's
    # top-level imports are stdlib only
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def corpus() -> list:
    w = _workloads()
    argvs = []
    for workload in w.WORKLOADS:
        for seed in SEEDS:
            gen = w.blocks(workload, seed)
            for _ in range(BLOCKS_PER_SEED):
                argvs += next(gen)
    argvs += [[name] for name in cli.SUBCOMMAND_FLAGS]
    argvs.append(PHASE_WINDOW)
    argvs += [[name, "--format", "json"]
              for name, flags in cli.SUBCOMMAND_FLAGS.items()
              if "format" in flags]
    argvs.append(SPECTRUM_OK + ["--format", "json"])
    # a verify argv is its dim alone, so the blocks repeat three of them
    return [list(a) for a in dict.fromkeys(map(tuple, argvs))]


def _show_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename,
                                            lineno, line))


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of ``dheis argv``, run in-process.

    Every run gets fresh warning filters: under the default filter a warning
    prints once per process, so without the reset a run would print what a
    fresh interpreter prints only if no earlier run had raised it.  Warnings
    are written to the captured stderr as a fresh interpreter writes them,
    also under a test runner that records them instead.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.resetwarnings()
        warnings.simplefilter("default")
        warnings.showwarning = _show_warning
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def digest(rc, out, err) -> str:
    return hashlib.sha256(json.dumps([rc, out, err]).encode()).hexdigest()


def read_manifest(path) -> dict:
    """{argv JSON: (exit code, sha256)} from a manifest file."""
    rows = (line.split("\t") for line in path.read_text().splitlines())
    return {argv: (int(rc), sha) for argv, rc, sha in rows}


def _moved(old: dict, new: dict) -> list:
    """Lines naming each argv of ``new`` whose exit code differs from
    ``old``'s, then each whose hash alone differs, then each that ``old``
    lacks, then each argv that ``new`` dropped."""
    common = [argv for argv in new if argv in old and old[argv] != new[argv]]
    return ([f"exit code {old[a][0]} -> {new[a][0]}: {a}" for a in common
             if old[a][0] != new[a][0]]
            + [f"moved: {a}" for a in common if old[a][0] == new[a][0]]
            + [f"added: {argv}" for argv in new if argv not in old]
            + [f"dropped: {argv}" for argv in old if argv not in new])


def main() -> int:
    new = {}
    for argv in corpus():
        result = run(argv)
        new[json.dumps(argv)] = (result[0], digest(*result))
    old = read_manifest(MANIFEST) if MANIFEST.exists() else {}
    moved = _moved(old, new)
    changed = sum(not line.startswith(("added", "dropped")) for line in moved)
    exits = sum(line.startswith("exit code") for line in moved)
    print(f"{changed} of {len(new)} argvs changed hash, {exits} of them their "
          "exit code", file=sys.stderr)
    print("".join(f"  {line}\n" for line in moved), end="", file=sys.stderr)
    MANIFEST.write_text("".join(f"{argv}\t{rc}\t{sha}\n"
                                for argv, (rc, sha) in new.items()))
    print(f"{len(new)} argvs -> {MANIFEST}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
