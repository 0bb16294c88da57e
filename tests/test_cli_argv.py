"""Property: every argument vector argparse accepts ends in a documented exit
code (0-4), never in an escaped exception or a numpy RuntimeWarning, and
leaves no partial --out file and no partial table on stdout."""

import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from deformed_heisenberg import cli

# one flag at a time may take a wild value; the rest stay in a range where
# most commands get past their parameter checks
SANE = st.floats(-0.5, 1.5)
WILD = st.one_of(
    st.sampled_from([0.0, -1.0, 1.0, 0.999999, 5e-324, 1e-300, 1e300, -1e300,
                     float("nan"), float("inf"), float("-inf")]),
    st.floats(allow_nan=True, allow_infinity=True))


def _float_flags(sub):
    return [f for f in cli.SUBCOMMAND_FLAGS[sub]
            if cli.FLAGS[f].get("type") is float]


@st.composite
def argvs(draw):
    # each subcommand's own flags only, read from the parser's table
    sub = draw(st.sampled_from(sorted(cli.SUBCOMMAND_FLAGS)))
    own = cli.SUBCOMMAND_FLAGS[sub]
    argv = [sub]
    dim = draw(st.integers(8, 24))
    if "dim" in own:
        argv.append(f"--dim={dim}")
    if "format" in own:
        argv.append(f"--format={draw(st.sampled_from(['csv', 'json']))}")
    values = {f: draw(SANE) for f in _float_flags(sub) if draw(st.booleans())}
    if values and draw(st.booleans()):
        values[draw(st.sampled_from(sorted(values)))] = draw(WILD)
    # --flag=value, so that argparse never reads "-inf" as an option
    argv += [f"--{f}={v!r}" for f, v in values.items()]
    if "guard" in own:
        guard = draw(st.one_of(st.none(), st.integers(-1, dim - 1),
                               st.integers(-3, 30)))
        if guard is not None:
            argv.append(f"--guard={guard}")
    if "steps" in own:
        argv.append(f"--steps={draw(st.integers(2, 40))}")
    if "var" in own:
        argv.append(f"--var={draw(st.sampled_from(['phi', 'delta']))}")
    if "suite" in own and draw(st.booleans()):
        argv.append(f"--suite={draw(st.sampled_from(cli.VERIFY_SUITES))}")
    return argv


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs(), to_file=st.booleans())
# argvs that used to end in a traceback: eigh of a non-finite eta
# (LinAlgError), z^2 underflowing to 0 (ZeroDivisionError) and first-order
# moments past the float range (OverflowError)
@example(argv=["spectrum", "--dim=8", "--delta=1e+300"], to_file=True)
@example(argv=["spectrum", "--dim=19", "--z=12509968845.0"], to_file=True)
@example(argv=["state", "--dim=8", "--z=1.0456480959940515e-171"],
         to_file=True)
@example(argv=["sweep-dispersion", "--beta=1e+300", "--steps=2"], to_file=True)
@example(argv=["sweep-dispersion", "--beta=7.262834877752672e+49",
               "--p=5.685684151177333e+38", "--steps=4"], to_file=True)
# the same failures with stdout as the target: a sweep that fails mid-grid
# used to stream its first rows, and eta's overflow to print RuntimeWarnings
@example(argv=["sweep-dispersion", "--beta=7.262834877752672e+49",
               "--p=5.685684151177333e+38", "--steps=4"], to_file=False)
@example(argv=["spectrum", "--dim=19", "--z=12509968845.0"], to_file=False)
def test_accepted_argv_ends_in_documented_exit_code(argv, to_file):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        if to_file:
            argv = [*argv, f"--out={out}"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(argv)
        assert rc in range(5)
        # numpy's floating-point warnings, not the package's own
        # PhaseWindow / BranchCut flags
        assert not [w for w in caught if w.category is RuntimeWarning]
        assert "RuntimeWarning" not in stderr.getvalue()
        if not to_file:
            if rc != 0 and not (rc == 1 and argv[0] == "verify"):
                assert stdout.getvalue() == ""
            return
        if rc == 0:
            assert os.path.exists(out)
        elif rc == 1 and argv[0] == "verify":
            # a failed check is a complete report, not a partial file
            with open(out) as fh:
                assert json.load(fh)["passed"] is False
        else:
            assert not os.path.exists(out)
