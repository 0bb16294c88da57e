"""Property: every argument vector argparse accepts ends in a documented exit
code (0-4), never in an escaped exception or a numpy RuntimeWarning, and
leaves no partial --out file and no partial table on stdout."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from deformed_heisenberg import aes_series, cli

# one flag at a time may take a wild value; the rest stay in a range where
# most commands get past their parameter checks
SANE = st.floats(-0.5, 1.5)
WILD = st.one_of(
    st.sampled_from([0.0, -1.0, 1.0, 0.999999, 5e-324, 1e-300, 1e300, -1e300,
                     1e308, -1e308, float("nan"), float("inf"),
                     float("-inf")]),
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
# overflow in kernels that no local np.errstate covered (series_operator's
# ldexp, the G^-1 coefficients) used to print RuntimeWarnings before exit 4
@example(argv=["spectrum", "--dim=8", "--delta=1e+308"], to_file=False)
@example(argv=["spectrum", "--dim=16", "--delta=1e+308", "--phi=1e+200"],
         to_file=False)
@example(argv=["spectrum", "--dim=48", "--delta=1e+200", "--z=1e+308"],
         to_file=False)
# state's plain-Python kernels past the float range: math.exp, float ** and
# abs of a complex raise OverflowError where numpy returned inf
@example(argv=["state", "--dim=8", "--z=1e308"], to_file=True)
@example(argv=["state", "--dim=8", "--beta=1e308"], to_file=True)
@example(argv=["state", "--dim=8", "--beta=1e200", "--z=0.01"], to_file=False)
@example(argv=["state", "--dim=1024", "--z=0.3", "--delta=0.999",
               "--beta=20", "--theta=3"], to_file=False)
@example(argv=["state", "--dim=8", "--z=-1e-320", "--beta=5"], to_file=True)
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


@st.composite
def state_argvs(draw):
    # the domain of the state table: |z| <= 0.3, delta < 1, beta <= 20,
    # dim <= 1024, phases anywhere
    return ["state", f"--dim={draw(st.integers(8, 1024))}",
            f"--z={draw(st.floats(-0.3, 0.3))!r}",
            f"--delta={draw(st.floats(0.0, 1.0, exclude_max=True))!r}",
            f"--phi={draw(st.floats(-4.0, 4.0))!r}",
            f"--beta={draw(st.floats(0.0, 20.0))!r}",
            f"--theta={draw(st.floats(-4.0, 4.0))!r}", "--format=json"]


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=state_argvs())
# past the turn of its z != 0 series the two routes are 1.3e-10 of the
# largest amplitude apart, the recurrence 7.0e-11 and the vacuum image
# 1.0e-10 off the 60-digit reference; kernels that weighted each order by
# an exponentiated log-factorial put them 6.5e-9 apart, past
# ROUTE_DEVIATION_BOUND
@example(argv=["state", "--dim=512", "--z=-0.04712588751556962",
               "--delta=0.6930850487633382", "--phi=2.643430576872333",
               "--beta=2.523268890914561", "--theta=2.452209385422577",
               "--format=json"])
def test_state_table_is_checked_or_refused(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv)
    assert not [w for w in caught if w.category is RuntimeWarning]
    if rc == 0:
        diagnostics = json.loads(stdout.getvalue())["diagnostics"]
        assert diagnostics["route_deviation"] <= aes_series.ROUTE_DEVIATION_BOUND
    else:
        assert rc == 3


# boxes where the two routes part past ROUTE_DEVIATION_BOUND, by 9.28e-06
# and 8.21e-09 of the largest amplitude, found by a random search over the
# domain of state_argvs
@pytest.mark.parametrize("argv", [
    ["state", "--dim", "512", "--z=0.0853122158916251",
     "--delta=0.5842376229416272", "--phi=-2.5303640827329397",
     "--beta=6.136298454630414", "--theta=-0.5374828112137386"],
    ["state", "--dim", "512", "--z=-0.04355890043796209",
     "--delta=0.7568350280777051", "--phi=-3.101430670004334",
     "--beta=4.896232270441945", "--theta=-2.1976440118049165"],
], ids=["9.28e-06", "8.21e-09"])
def test_state_refuses_a_table_whose_routes_part(argv):
    # through python -m, as a user runs it: exit 3 and no partial table
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run(
        [sys.executable, "-m", "deformed_heisenberg.cli", *argv],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: route deviation ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv, rc", [
    (["state", "--dim=8", "--z=1e308"], 3),
    (["state", "--dim=8", "--beta=1e308"], 3),
    (["state", "--dim=8", "--beta=1e200", "--z=0.01"], 3),
    (["state", "--dim=1024", "--z=0.3", "--delta=0.999", "--beta=20",
      "--theta=3"], 3),
    (["state", "--dim=8", "--z=-1e-320", "--beta=5"], 0),
], ids=["z", "beta", "beta_z", "dim1024", "subnormal_z"])
def test_state_past_the_float_range_keeps_its_exit_code(argv, rc):
    # an overflow in the plain-Python kernels is the norm series' nan, as
    # numpy's inf was: the same exit and message, no OverflowError
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        assert cli.main(argv) == rc
    if rc:
        assert stderr.getvalue().startswith(
            "error: norm series not converged by n_max=")
        assert stderr.getvalue().endswith(" (tail nan)\n")
    else:
        assert stderr.getvalue() == ""
