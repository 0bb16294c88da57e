"""Replay the golden-path corpus (tests/golden) and hold every argv's exit
code, stdout and stderr to the sha256 recorded in the manifest.

A moved argv is reported with the first line where its in-process run
differs from a fresh ``python -m deformed_heisenberg.cli`` child.  When the
two agree, the program's output has changed: regenerate the manifest with
tests/golden/generate.py and say in CHANGES.md which argvs moved and why.
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


def _manifest():
    with open(GOLDEN / "manifest.tsv") as fh:
        return [(json.loads(argv), sha) for argv, sha in
                (line.rstrip("\n").split("\t") for line in fh)]


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
    manifest = _manifest()
    assert [argv for argv, _ in manifest] == gen.corpus()
    moved = []
    for argv, sha in manifest:
        result = gen.run(argv)
        if gen.digest(*result) != sha:
            moved.append((argv, result))
    lines = [" ".join(argv) + (f"\n    {_first_difference(argv, *result)}"
                               if i < REPORTED else "")
             for i, (argv, result) in enumerate(moved)]
    assert not moved, f"{len(moved)} of {len(manifest)} argvs moved:\n" \
        + "\n".join(lines)
