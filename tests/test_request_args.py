"""The request fast path, cli._request_args, against argparse.

A well-formed request parses without argparse; every other argv goes to
argparse, which alone prints help and usage errors.  Three things hold that
split: a property test over a token grammar, a child process that runs one
request of each subcommand and loads none of argparse, gettext or locale,
and the bytes of the help and usage-error outputs in golden/usage.json.

golden/usage.json was written by the argparse-only front end; rewrite it
only when a help or usage text is meant to change, from the repository root:

    PYTHONPATH=src python tests/test_request_args.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deformed_heisenberg import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
USAGE = GOLDEN / "usage.json"
SRC = GOLDEN.parents[1] / "src"

# help, usage errors, a negative exponent as a separate value and an
# abbreviation: argvs that the fast path leaves to argparse
USAGE_ARGVS = [
    ["--help"], ["sweep-dispersion", "--help"], ["state", "--help"],
    ["verify", "--help"], ["spectrum", "--help"],
    [], ["bogus"],
    ["state", "--gamma", "0.1"], ["verify", "--suite", "nope"],
    ["sweep-dispersion", "--format", "xml"],
    ["sweep-dispersion", "--phi", "-1e-05"],
    ["state", "--del", "0.3", "--dim", "8"],
]


def _child(args, **kw) -> subprocess.CompletedProcess:
    """A fresh interpreter on this tree's sources; help is wrapped at 80
    columns whatever terminal runs the tests."""
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join([str(SRC),
                                          os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120, **kw)


def _usage(argv) -> dict:
    r = _child(["-m", "deformed_heisenberg.cli", *argv])
    return {"argv": argv, "exit": r.returncode, "stdout": r.stdout,
            "stderr": r.stderr}


def _items(ns) -> list:
    """A namespace's (key, repr(value)) pairs in order: repr tells 0.0 from
    -0.0 and 1 from 1.0, and a nan equals a nan."""
    return [(k, repr(v)) for k, v in vars(ns).items()]


PARSER = cli._build_parser()


def _argparse_items(argv):
    """_items of argparse's namespace for argv, or None where it exits (a
    usage error or help, whose text is discarded)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return _items(PARSER.parse_args(argv))
        except SystemExit:
            return None


FLAG_NAMES = sorted(cli.FLAGS)
# abbreviations argparse expands where they are unique among a subparser's
# flags, and names no subparser has
OTHER_FLAGS = ["--del", "--st", "--s", "--d", "--fo", "--gamma", "---dim",
               "--Dim"]
VALUES = [
    "0.5", "2", "8", "64", "1e-3", "1_000", " 1.5 ", "inf", "nan", "1e999",
    "٥", "-2.5", "-.5", "-2", "-0", "-1e-05", "-inf", "-٥", "-5.", "-", "--",
    "-.", "-1.2.3", "-1 ", "abc", "", "0x10", "1.5", "phi", "delta", "csv",
    "json", "xml", "nope", *cli.VERIFY_SUITES, "-h", "--help", "--dim",
    "out.csv", "a=b"]
STRAY = ["--", "-h", "--help", "", "extra", "1", "-1", "state", "=", "--="]


@st.composite
def request_argvs(draw):
    sub = draw(st.sampled_from([*cli.SUBCOMMAND_FLAGS, "bogus", "stat", "",
                                "-h", "--help"]))
    own = cli.SUBCOMMAND_FLAGS.get(sub, ())
    flags = st.one_of(st.sampled_from([f"--{f}" for f in own] or ["--dim"]),
                      st.sampled_from([f"--{f}" for f in FLAG_NAMES]),
                      st.sampled_from(OTHER_FLAGS))
    argv = [sub]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 5))
        if kind == 5:
            argv.append(draw(st.sampled_from(STRAY)))
            continue
        flag, value = draw(flags), draw(st.sampled_from(VALUES))
        if kind == 4:
            value = repr(draw(st.floats()))
        argv += [f"{flag}={value}"] if kind % 2 else [flag, value]
    return argv


@settings(max_examples=600, deadline=None)
@given(request_argvs())
def test_fast_path_agrees_with_argparse(argv):
    got = cli._request_args(argv)
    want = _argparse_items(argv)
    if got is not None:
        assert _items(got) == want
    if want is None:
        assert got is None


@pytest.mark.parametrize("value, fast", [
    ("-2.5", True), ("-.5", True), ("-2", True), ("2.5", True),
    ("-1e-05", False), ("-inf", False), ("-٥", False), ("-5.", False)])
def test_a_separate_value_that_starts_with_a_dash(value, fast):
    # only an ASCII negative decimal is a value to every argparse; argparse
    # itself reads "-٥" as -5.0 and refuses "-1e-05" and "-inf" as options
    argv = ["sweep-dispersion", "--phi", value]
    got = cli._request_args(argv)
    assert (got is not None) == fast
    if fast:
        assert _items(got) == _argparse_items(argv)
    assert cli._request_args([argv[0], f"--phi={value}"]) is not None


def test_fast_path_keys_follow_argparse_for_the_first_non_finite_flag():
    # _check_common names the first non-finite flag in the namespace's order
    args = cli._request_args(["state", "--theta", "nan", "--delta", "inf"])
    assert list(vars(args)) == ["subcommand", *cli.SUBCOMMAND_FLAGS["state"],
                                "func"]
    assert cli._check_common(args) == "--delta must be finite"


# one small request of each subcommand, run by cli.main in a child that
# then reports which of the parser's modules it loaded
CHILD = """
import contextlib, io, json, sys
from deformed_heisenberg import cli
codes = []
for argv in (["state", "--dim", "8"], ["sweep-dispersion", "--steps=3"],
             ["verify", "--dim", "64", "--suite", "pseudo"],
             ["spectrum", "--dim", "16", "--delta", "0.05", "--z", "0.006"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps([codes, [m for m in ("argparse", "gettext", "locale")
                          if m in sys.modules]]))
"""


def test_a_request_loads_no_argparse_gettext_or_locale():
    child = _child(["-c", CHILD])
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == [[0, 0, 0, 0], []]


@pytest.mark.parametrize("recorded", json.loads(USAGE.read_text()),
                         ids=lambda r: " ".join(r["argv"]) or "[]")
def test_help_and_usage_errors_keep_their_bytes(recorded):
    assert _usage(recorded["argv"]) == recorded


if __name__ == "__main__":
    USAGE.write_text(json.dumps([_usage(a) for a in USAGE_ARGVS], indent=1,
                                ensure_ascii=False) + "\n")
    print(f"{len(USAGE_ARGVS)} argvs -> {USAGE}", file=sys.stderr)
