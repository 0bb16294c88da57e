"""Write the golden-path manifest of the dheis CLI.

The corpus is the traffic the benchmark sends, cut to a size a test can
replay: the first two blocks of seeds 1-10 of every workload in
benchmarks/workloads.py, plus each subcommand with its defaults, one
``state`` argv that raises a PhaseWindow warning, one ``state`` argv that
its route check refuses and the JSON argvs below, each argv once.  Each
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

    PYTHONPATH=src python tests/golden/generate.py [--against REV]

With --against, the corpus also runs on the tree of REV, a git revision of
this repository: ``git archive`` extracts it to a temporary directory,
removed afterwards, and a child interpreter with the same BLAS pins runs it
there.  For each argv whose output differs from REV's, stderr gets what
moved: the exit code and a table's row count where they changed, whether any
text besides the numbers changed, each verify row present on one side only
(added or removed, with its residual), and the largest relative move of
each table column, diagnostic or verify row, with its values at REV and
here, the table row it is in and the number of its entries that moved.  A
summary ends the report: per subcommand, how many of the argvs run moved,
those whose exit code, text or row count changed or that gained or lost a
verify row counted apart and the others grouped by the decade of their
largest relative move.  The script still writes only the manifest.
"""

import argparse
import collections
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
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
# the row recurrence and the vacuum-image route part by 9.28e-06 of the
# largest amplitude, past ROUTE_DEVIATION_BOUND: exit 3 and its message
ROUTE_REFUSED = ["state", "--dim", "512", "--z=0.0853122158916251",
                 "--delta=0.5842376229416272", "--phi=-2.5303640827329397",
                 "--beta=6.136298454630414", "--theta=-0.5374828112137386"]
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
    argvs.append(ROUTE_REFUSED)
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


# a number as the CLI prints one: %.17g, inf, nan and their signs
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:inf|nan|(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?)"
                    r"(?![\w.])")


def series(argv, out) -> tuple:
    """(row count, {name: [numbers]}) of one output: a table's columns and
    diagnostics by name, or a verify report's residuals by check name."""
    if argv[0] == "verify" and out.startswith("{"):
        checks = json.loads(out)["checks"]
        return len(checks), {c["name"]: [float(c["residual"])] for c in checks}
    if out.startswith("{"):
        doc = json.loads(out)
        named = {h: [r[i] for r in doc["rows"]]
                 for i, h in enumerate(doc["header"])}
        named.update({k: [v] for k, v in doc.get("diagnostics", {}).items()})
        return len(doc["rows"]), named
    lines = out.splitlines() + [""]
    body = [ln.split(",") for ln in lines[2:-1] if not ln.startswith("#")]
    named = {h: [float(r[i]) for r in body]
             for i, h in enumerate(lines[1].split(",")) if body}
    named.update({k: [float(v)] for k, _, v in (ln[2:].partition("=")
                                                for ln in lines[2:]
                                                if ln.startswith("# "))})
    return len(body), named


def _largest_move(old, new) -> tuple:
    """(relative move, old value, new value, entries moved, row) of one
    column: the entry that moved most relative to its old value, where an
    entry that leaves 0 or the finite numbers moves inf, how many entries
    moved, and the row of that entry, None in a column of one entry."""
    moves = [(abs(b - a) / abs(a) if a and math.isfinite(a + b)
              else math.inf, a, b, i)
             for i, (a, b) in enumerate(zip(old, new))
             if a != b and not (a != a and b != b)]
    rel, a, b, row = max(moves, key=lambda m: m[0],
                         default=(0.0, None, None, None))
    return rel, a, b, len(moves), row if len(old) > 1 else None


def _masked(argv, result, drop) -> list:
    """The distinct lines of stdout and stderr with every number masked.  A
    verify report is first written again without the checks named in drop,
    so that a row present on one side only is not a change of text."""
    out = result[1]
    if argv[0] == "verify" and out.startswith("{"):
        doc = json.loads(out)
        doc["checks"] = [c for c in doc["checks"] if c["name"] not in drop]
        out = json.dumps(doc, indent=1, sort_keys=True)
    return [set(NUMBER.sub("#", t).splitlines()) for t in (out, result[2])]


def compare(argv, old, new) -> dict:
    """What moved between two (exit code, stdout, stderr) results of argv:
    the exit codes if they differ, whether any text besides the numbers
    changed, the row counts of a table if they differ, the verify rows
    present on one side only, and the _largest_move of each column,
    diagnostic or verify row whose entries moved, in output order."""
    moved = {"exit": None, "text": False, "rows": None, "added": {},
             "removed": {}, "columns": {}}
    if old[0] != new[0]:
        moved["exit"] = (old[0], new[0])
    a = b = {}
    # a verify report is JSON whatever its exit code; a usage error prints none
    if (old[0] == new[0] == 0
            or argv[0] == "verify" and old[1][:1] == new[1][:1] == "{"):
        (n_old, a), (n_new, b) = series(argv, old[1]), series(argv, new[1])
        if argv[0] == "verify":
            moved["added"] = {k: v[0] for k, v in b.items() if k not in a}
            moved["removed"] = {k: v[0] for k, v in a.items() if k not in b}
        elif n_old != n_new:
            moved["rows"] = (n_old, n_new)
    # the distinct lines with every number masked: a table that only gains
    # or loses rows keeps them
    drop = {**moved["added"], **moved["removed"]}
    moved["text"] = _masked(argv, old, drop) != _masked(argv, new, drop)
    for name in (name for name in b if name in a):     # in output order
        move = _largest_move(a[name], b[name])
        if move[0]:
            moved["columns"][name] = move
    return moved


def describe(argv, old, new) -> list:
    """compare's findings as lines: what moved between two results.  A
    column of more than one entry names the row of its largest move; a
    verify row is a line of its own, named by its check."""
    m = compare(argv, old, new)
    lines = []
    if m["exit"]:
        lines.append("exit code {} -> {}".format(*m["exit"]))
    if m["text"]:
        lines.append("text besides the numbers changed")
    if m["rows"]:
        lines.append("rows {} -> {}".format(*m["rows"]))
    for key in ("added", "removed"):
        lines += [f"{key} row {name}: {v:.17g}" for name, v in m[key].items()]
    for name, (rel, x, y, count, row) in m["columns"].items():
        entries = "entry" if count == 1 else "entries"
        at = "" if row is None else f"row {row}, "
        lines.append(f"{name}: {x:.17g} -> {y:.17g} (relative {rel:.2g}, "
                     f"{at}{count} {entries} moved)")
    return lines


def _group(argv, old, new) -> tuple:
    """(sort key, label) of the summary group of an argv that moved: the
    decade of its largest relative move ('<= 1e-15', then 'inf'), or, counted
    apart, a change of exit code, text or row count, or a verify row added
    or removed."""
    m = compare(argv, old, new)
    for rank, (key, label) in enumerate((("exit", "exit code changed"),
                                         ("text", "text changed"),
                                         ("rows", "row count changed"),
                                         ("added", "verify rows added"),
                                         ("removed", "verify rows removed"))):
        if m[key]:
            return (2, rank), label
    rel = max((c[0] for c in m["columns"].values()), default=0.0)
    if not rel or rel == math.inf:
        return (1, not rel), "inf" if rel else "no number moved"
    decade = math.ceil(math.log10(rel))
    return (0, decade), f"<= 1e{decade}"


def summary(argvs, before, after) -> list:
    """One line per subcommand: how many of the argvs run moved, and how
    many of those fell in each _group, in the groups' order."""
    run = collections.Counter(argv[0] for argv in argvs)
    moved = {sub: collections.Counter() for sub in run}
    for argv, a, b in zip(argvs, before, after):
        if a != b:
            moved[argv[0]][_group(argv, a, b)] += 1
    return [f"{sub}: {sum(c.values())} of {n} argvs moved"
            + "".join(f"; {label}: {c[key, label]}"
                      for key, label in sorted(c))
            for sub, n in run.items() for c in [moved[sub]]]


def run_at(rev, argvs) -> list:
    """The results of argvs on the tree of git revision rev, run by a child
    interpreter on its sources (this script's run(), with the pins)."""
    root = HERE.parents[1]
    tree = subprocess.run(["git", "-C", str(root), "archive", rev],
                          capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(tree)) as tar:
            tar.extractall(tmp, filter="data")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src")}
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child"],
            input=json.dumps(argvs), capture_output=True, text=True,
            env=env, check=True)
    return [tuple(r) for r in json.loads(child.stdout)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="write the golden manifest")
    ap.add_argument("--against", metavar="REV",
                    help="list what moved against git revision REV")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:              # run the argvs on stdin, results to stdout
        print(json.dumps([run(a) for a in json.load(sys.stdin)]))
        return 0
    argvs = corpus()
    results = [run(argv) for argv in argvs]
    new = {json.dumps(argv): (r[0], digest(*r))
           for argv, r in zip(argvs, results)}
    old = read_manifest(MANIFEST) if MANIFEST.exists() else {}
    moved = _moved(old, new)
    changed = sum(not line.startswith(("added", "dropped")) for line in moved)
    exits = sum(line.startswith("exit code") for line in moved)
    print(f"{changed} of {len(new)} argvs changed hash, {exits} of them their "
          "exit code", file=sys.stderr)
    print("".join(f"  {line}\n" for line in moved), end="", file=sys.stderr)
    if args.against:
        before = run_at(args.against, argvs)
        diff = [(argv, a, b) for argv, a, b in zip(argvs, before, results)
                if a != b]
        print(f"{len(diff)} of {len(argvs)} argvs moved against "
              f"{args.against}", file=sys.stderr)
        for argv, a, b in diff:
            print(f"  {json.dumps(argv)}", file=sys.stderr)
            print("".join(f"    {line}\n" for line in describe(argv, a, b)),
                  end="", file=sys.stderr)
        print("summary by subcommand, largest relative move per argv:",
              file=sys.stderr)
        print("".join(f"  {line}\n" for line in summary(argvs, before,
                                                         results)),
              end="", file=sys.stderr)
    MANIFEST.write_text("".join(f"{argv}\t{rc}\t{sha}\n"
                                for argv, (rc, sha) in new.items()))
    print(f"{len(new)} argvs -> {MANIFEST}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
