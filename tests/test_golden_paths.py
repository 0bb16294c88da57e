"""Replay the golden-path corpus (tests/golden) and hold every argv's exit
code, stdout and stderr to the sha256 recorded in the manifest.

An argv whose exit code moved is reported apart from one whose output moved
under the recorded exit code, and the first few of each with the first line
where its in-process run differs from a fresh ``python -m
deformed_heisenberg.cli`` child.  When the two agree, the program's output
has changed: regenerate the manifest with tests/golden/generate.py and say
in CHANGES.md which argvs moved and why.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
REPORTED = 5                # argvs compared line by line with a fresh child


def _generate():
    spec = importlib.util.spec_from_file_location("generate",
                                                  GOLDEN / "generate.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _first_difference(argv, rc, out, err) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(GOLDEN.parents[1] / "src"), env.get("PYTHONPATH", "")])
    child = subprocess.run([sys.executable, "-m", "deformed_heisenberg.cli",
                            *argv], capture_output=True, text=True, env=env,
                           timeout=120)
    if child.returncode != rc:
        return f"exit code {rc} in-process, {child.returncode} in a child"
    for stream, mine, theirs in (("stdout", out, child.stdout),
                                 ("stderr", err, child.stderr)):
        a, b = mine.splitlines(), theirs.splitlines()
        for i, (x, y) in enumerate(zip(a + [""], b + [""])):
            if x != y:
                return (f"{stream} line {i + 1}: in-process {x!r}, "
                        f"child {y!r}")
    first = (out or err).partition("\n")[0]
    return f"same in a child (exit {rc}); output begins {first!r}"


def test_golden_paths_match_the_manifest():
    gen = _generate()
    manifest = [(json.loads(argv), rc, sha) for argv, (rc, sha)
                in gen.read_manifest(GOLDEN / "manifest.tsv").items()]
    assert [argv for argv, _, _ in manifest] == gen.corpus()
    exits, moved = [], []
    for argv, rc, sha in manifest:
        result = gen.run(argv)
        if gen.digest(*result) != sha:
            (exits if result[0] != rc else moved).append((argv, rc, result))
    lines = []
    for title, group in (("exit code moved", exits),
                         ("output moved under the same exit code", moved)):
        if group:
            lines.append(f"{title}: {len(group)}")
        for i, (argv, rc, result) in enumerate(group):
            head = " ".join(argv) + (f" (exit {rc} -> {result[0]})"
                                     if result[0] != rc else "")
            lines.append(head + (f"\n    {_first_difference(argv, *result)}"
                                 if i < REPORTED else ""))
    assert not lines, (f"{len(exits) + len(moved)} of {len(manifest)} argvs "
                       "moved:\n" + "\n".join(lines))


def test_describe_lists_what_moved_by_column_and_verify_row():
    # generate.py --against prints these lines for each moved argv, then a
    # summary by subcommand
    gen = _generate()
    argv = ["state", "--dim", "8"]
    old = (0, "# dim=8\nn,re_c\n0,0.5\n1,0.25\n# c0=2\n", "")
    new = (0, "# dim=8\nn,re_c\n0,0.5\n1,0.25000000000000006\n2,0\n"
           "# c0=2\n", "")
    assert gen.describe(argv, old, new) == [
        "rows 2 -> 3",
        "re_c: 0.25 -> 0.25000000000000006 (relative 2.2e-16, row 1, 1 entry "
        "moved)"]
    three = (0, "# dim=8\nn,re_c\n0,0.5000001\n1,0.26\n# c0=2.5\n", "")
    assert gen.describe(argv, old, three) == [
        "re_c: 0.25 -> 0.26000000000000001 (relative 0.04, row 1, 2 entries "
        "moved)",
        "c0: 2 -> 2.5 (relative 0.25, 1 entry moved)"]
    assert gen.describe(argv, old, (3, "", "error: no norm\n")) == [
        "exit code 0 -> 3", "text besides the numbers changed"]
    report = {"checks": [{"name": "uzp_residual_p0.1",
                          "residual": "3.0871341691237857e-14"},
                         {"name": "fock_build", "residual": "0"}]}
    moved = json.loads(json.dumps(report))
    moved["checks"][0]["residual"] = "3.0871338459495874e-14"
    moved["checks"][1]["residual"] = "1e-16"
    got = gen.describe(["verify"], (0, json.dumps(report), ""),
                       (0, json.dumps(moved), ""))
    assert sorted(got) == [
        "fock_build: 0 -> 9.9999999999999998e-17 (relative inf, 1 entry "
        "moved)",
        "uzp_residual_p0.1: 3.0871341691237857e-14 -> "
        "3.0871338459495874e-14 (relative 1e-07, 1 entry moved)"]
    # a verify row on one side only is listed as added or removed, not as a
    # change of text or row count; the rows on both sides are compared by
    # check name
    grown = json.loads(json.dumps(report))
    grown["checks"].insert(1, {"name": "ladder_build", "residual": "0"})
    assert gen.describe(["verify"], (0, json.dumps(report), ""),
                        (0, json.dumps(grown), "")) == [
        "added row ladder_build: 0"]
    grown["checks"][0]["residual"] = "inf"
    assert gen.describe(["verify"], (1, json.dumps(grown), ""),
                        (0, json.dumps(moved), "")) == [
        "exit code 1 -> 0", "removed row ladder_build: 0",
        "uzp_residual_p0.1: inf -> 3.0871338459495874e-14 (relative inf, "
        "1 entry moved)",
        "fock_build: 0 -> 9.9999999999999998e-17 (relative inf, 1 entry "
        "moved)"]
    assert gen.describe(["verify", "--dim", "4"],
                        (2, "", "error: dim must be >= 8\n"),
                        (2, "", "error: --dim must be >= 8\n")) == [
        "text besides the numbers changed"]
    tiny = (0, old[1].replace("0.25", "0.25000000000000006"), "")
    small = (0, old[1].replace("0.25", "0.2500001"), "")
    argvs = [argv, ["state", "--dim", "9"], ["state", "--dim", "10"],
             ["state", "--dim", "11"], ["state", "--dim", "12"], ["state"],
             ["verify"], ["verify", "--dim", "9"], ["spectrum"]]
    before = [old] * 6 + [(0, json.dumps(report), "")] * 2 + [old]
    after = [tiny, small, (3, "", "error: no norm\n"), new,
             (0, old[1], "warning: phase window\n"), old,
             (0, json.dumps(moved), ""), (0, json.dumps(grown), ""), old]
    assert gen.summary(argvs, before, after) == [
        "state: 5 of 6 argvs moved; <= 1e-15: 1; <= 1e-6: 1; "
        "exit code changed: 1; text changed: 1; row count changed: 1",
        "verify: 2 of 2 argvs moved; inf: 1; verify rows added: 1",
        "spectrum: 0 of 1 argvs moved"]
