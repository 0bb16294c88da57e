"""Command-line front end: deterministic sweep/state/verify/spectrum output."""

import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from deformed_heisenberg import _gaussian, cli
from deformed_heisenberg.errors import NotConverged

PI = "3.141592653589793"
HALF_PI = "1.5707963267948966"


def _data_rows(text):
    out = []
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("grid_value") or not line:
            continue
        out.append(line.split(","))
    return out


def test_sweep_same_flags_is_byte_identical(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep-dispersion", "--delta", "0.5", "--beta", "2", "--z", "0.0025",
            "--var", "phi", "--min", "-" + PI, "--max", PI, "--steps", "200",
            "--out", str(out)]
    assert cli.main(argv) == 0
    first = out.read_bytes()
    assert cli.main(argv) == 0
    assert out.read_bytes() == first


def test_sweep_layout_and_formatting(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep-dispersion", "--delta", "0.5", "--beta", "2",
                   "--z", "0.0025", "--var", "phi", "--min", "-" + PI,
                   "--max", PI, "--steps", "200", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    # one-line flag echo, then the fixed header, then the grid
    assert lines[0].startswith("# beta=2 delta=0.5 format=csv max=")
    assert "subcommand=sweep-dispersion" in lines[0]
    assert lines[1] == ("grid_value,var_x_mus,var_p_mus,var_x_def,var_p_def,"
                        "product_def,srur_bound,validity_flag")
    rows = _data_rows(out.read_text())
    assert len(rows) == 200
    # floats carry 17 significant digits; booleans print as 0/1
    assert lines[2] == ("-3.1415926535897931,1.5,0.16666666666666666,"
                        "1.4400000000000048,0.17333333333333473,"
                        "0.24960000000000285,0.25,1")
    for r in rows:
        assert r[-1] in ("0", "1")


def test_sweep_quarter_turn_row_hits_five_sixths(tmp_path):
    # a grid whose last point is exactly phi = pi/2, where both undeformed
    # dispersions equal 5/6
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep-dispersion", "--delta", "0.5", "--beta", "2",
                   "--z", "0.0025", "--var", "phi", "--min", "-" + HALF_PI,
                   "--max", HALF_PI, "--steps", "200", "--out", str(out)])
    assert rc == 0
    rows = _data_rows(out.read_text())
    assert len(rows) == 200
    last = rows[-1]
    assert float(last[0]) == math.pi / 2
    assert abs(float(last[1]) - 5.0 / 6.0) < 1e-12
    assert abs(float(last[2]) - 5.0 / 6.0) < 1e-12


# a 7-step phi sweep with z, p != 0: its exact digits pin the arithmetic of
# the first-order moment kernel
GOLDEN_SWEEP_ARGV = ["sweep-dispersion", "--delta", "0.4", "--beta", "1.5",
                     "--theta", "0.7", "--z", "0.003", "--p", "0.02",
                     "--var", "phi", "--min", "-1", "--max", "1",
                     "--steps", "7"]
GOLDEN_SWEEP_META = {
    "beta": 1.5, "delta": 0.4, "max": 1.0, "min": -1.0, "out": None,
    "p": 0.02, "phi": 0.0, "steps": 7, "subcommand": "sweep-dispersion",
    "theta": 0.7, "var": "phi", "z": 0.003}
GOLDEN_SWEEP_HEADER = ("grid_value,var_x_mus,var_p_mus,var_x_def,var_p_def,"
                       "product_def,srur_bound,validity_flag")
GOLDEN_SWEEP_ROWS = (
    "-1,0.43318937815802883,0.94776300279435233,"
    "0.4232439885157131,0.94841457931053075,0.40141076931384112,"
    "0.40136769419412577,1\n"
    "-0.66666666666666674,0.31624416153478679,1.0647082194175943,"
    "0.31005444151274419,1.0662762470037235,0.33060368626304437,"
    "0.33065375108949235,1\n"
    "-0.33333333333333337,0.24049669223107734,1.1404556887213038,"
    "0.23739083480662182,1.1432975103828831,0.27140835042212497,"
    "0.2714891424805902,1\n"
    "0,0.21428571428571436,1.1666666666666667,"
    "0.21354334041338707,1.170708479971565,0.24999699946340684,"
    "0.25006487846177994,1\n"
    "0.33333333333333326,0.24049669223107734,1.1404556887213038,"
    "0.24138923855241878,1.1452395864374192,0.27644851173021562,"
    "0.27648830332878349,1\n"
    "0.66666666666666652,0.31624416153478674,1.0647082194175943,"
    "0.31796825522276462,1.0695894285972454,0.34009548441577991,"
    "0.34011012877269486,1\n"
    "1,0.43318937815802883,0.94776300279435233,"
    "0.43476340968707505,0.95217273273548209,0.41396986389513823,"
    "0.41396836062542242,1\n"
)


def test_sweep_golden_bytes(capsys):
    assert cli.main(GOLDEN_SWEEP_ARGV) == 0
    assert capsys.readouterr().out == (
        "# beta=1.5 delta=0.40000000000000002 format=csv max=1 min=-1 "
        "out=None p=0.02 phi=0 steps=7 subcommand=sweep-dispersion "
        "theta=0.69999999999999996 var=phi z=0.0030000000000000001\n"
        + GOLDEN_SWEEP_HEADER + "\n" + GOLDEN_SWEEP_ROWS)

    # the JSON document carries the same doubles, printed by repr
    assert cli.main(GOLDEN_SWEEP_ARGV + ["--format", "json"]) == 0
    rows = [[float(v) for v in line.split(",")[:-1]] + [line.endswith(",1")]
            for line in GOLDEN_SWEEP_ROWS.splitlines()]
    doc = {"header": GOLDEN_SWEEP_HEADER.split(","),
           "meta": dict(GOLDEN_SWEEP_META, format="json"), "rows": rows}
    assert capsys.readouterr().out == json.dumps(doc, indent=1,
                                                 sort_keys=True) + "\n"


def test_sweep_two_step_grid_to_stdout(capsys):
    rc = cli.main(["sweep-dispersion", "--steps", "2", "--min", "0",
                   "--max", "1"])
    assert rc == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    assert "out=None" in lines[0]
    assert lines[1].startswith("grid_value,")
    assert len(_data_rows(text)) == 2


def test_sweep_json_document(tmp_path):
    out = tmp_path / "sweep.json"
    rc = cli.main(["sweep-dispersion", "--steps", "3", "--min", "0",
                   "--max", "1", "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert sorted(doc.keys()) == ["header", "meta", "rows"]
    assert doc["meta"]["subcommand"] == "sweep-dispersion"
    assert doc["meta"]["min"] == 0.0 and doc["meta"]["max"] == 1.0
    assert doc["header"][0] == "grid_value"
    assert len(doc["rows"]) == 3
    for row in doc["rows"]:
        assert len(row) == len(doc["header"])
        assert isinstance(row[0], float)
        assert isinstance(row[-1], bool)


def test_sweep_per_p_files_product_decreases(tmp_path):
    # three sweeps differing only in p; the deformed uncertainty product
    # drops with p on the bulk of the grid (tiny O(p^4) creep is tolerated)
    products = []
    for p in ("0", "0.06", "0.11"):
        out = tmp_path / f"p{p}.csv"
        rc = cli.main(["sweep-dispersion", "--delta", "0.5", "--beta", "2",
                       "--theta", "2.5132741228718345", "--z", "0.003",
                       "--p", p, "--var", "phi", "--min", "-" + PI,
                       "--max", PI, "--steps", "41", "--out", str(out)])
        assert rc == 0
        rows = _data_rows(out.read_text())
        products.append(np.array([float(r[5]) for r in rows]))
    for lo, hi in ((1, 0), (2, 1)):
        diff = products[lo] - products[hi]
        assert diff.max() < 1e-4
        assert np.median(diff) < 0.0


# delta sweep across the validity threshold (flag drops past delta = 0.75)
FLAG_SWEEP_ARGV = ["sweep-dispersion", "--phi", "0.5235987755982988",
                   "--beta", "2", "--theta", "2.5132741228718345",
                   "--z", "0.0025", "--p", "0.01", "--var", "delta",
                   "--min", "0.7", "--max", "0.8", "--steps", "5"]


def test_sweep_flags_are_plain_bools_for_both_vars(tmp_path, capsys):
    assert cli.main(FLAG_SWEEP_ARGV + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [row[-1] for row in doc["rows"]] == [True, True, True, False,
                                                False]
    assert all(type(v) is float for row in doc["rows"] for v in row[:-1])

    assert cli.main(FLAG_SWEEP_ARGV) == 0
    assert [r[-1] for r in _data_rows(capsys.readouterr().out)] == [
        "1", "1", "1", "0", "0"]
    assert cli.main(["sweep-dispersion", "--var", "phi", "--steps", "5"]) == 0
    assert {r[-1] for r in _data_rows(capsys.readouterr().out)} == {"1"}


def test_sweep_bad_params_removes_partial_file(tmp_path, capsys):
    out = tmp_path / "partial.csv"
    # the grid walks past delta = 1 after three rows; a negative delta
    # fails on the first
    for argv in (["--var", "delta", "--min", "0", "--max", "1.5",
                  "--steps", "5"],
                 ["--delta", "-0.2"]):
        rc = cli.main(["sweep-dispersion", *argv, "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "delta" in capsys.readouterr().err


def test_sweep_not_converged_removes_partial_file(tmp_path, capsys):
    # at beta = 1e60 the first-order moments overflow the float range
    out = tmp_path / "partial.csv"
    rc = cli.main(["sweep-dispersion", "--steps", "3", "--beta", "1e60",
                   "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("beta", ["1e60", "1e100", "1e300"])
def test_sweep_non_finite_row_exits_3(beta, capsys):
    # a row whose moments leave the float range is a convergence failure, not
    # an inf in the table; numpy's overflow must not surface as a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["sweep-dispersion", "--steps", "3", "--beta", beta])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == ("error: moments overflow at "
                            "phi=-3.141592653589793\n")


def _count_calls(monkeypatch, module, name):
    calls = {"n": 0}
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("var", ["phi", "delta"])
def test_sweep_cost_does_not_grow_with_steps(var, monkeypatch, capsys):
    # the whole grid goes through one perturbed_moments call, so the number of
    # Gaussian kernel calls is the same for 10 rows as for 2000
    moments = _count_calls(monkeypatch, cli.dispersion, "perturbed_moments")
    kernel = _count_calls(monkeypatch, _gaussian,
                          "quadratic_exponential_derivative")
    seen = []
    for steps in ("10", "2000"):
        moments["n"] = kernel["n"] = 0
        assert cli.main(["sweep-dispersion", "--var", var, "--min", "0",
                         "--max", "0.9", "--steps", steps, "--z", "0.003",
                         "--p", "0.01"]) == 0
        assert len(_data_rows(capsys.readouterr().out)) == int(steps)
        assert moments["n"] == 1
        seen.append(kernel["n"])
    assert seen[0] == seen[1] > 0


def test_sweep_reports_negative_variance_rows(capsys):
    # at beta = 100 the first-order z beta^3 terms drive var_x_def to -0.9 at
    # phi = +-pi; the table says so instead of exiting 0 silently
    argv = ["sweep-dispersion", "--beta", "100", "--z", "0.002", "--steps",
            "3"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    rows = _data_rows(out)
    assert [float(r[3]) < 0 for r in rows] == [True, False, True]
    assert float(rows[0][3]) == pytest.approx(-0.9, abs=1e-6)
    assert out.splitlines()[-1] == "# negative_variance_rows=2"
    assert cli.main([*argv, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diagnostics"] == {"negative_variance_rows": 2}


def test_sweep_without_negative_variance_has_no_trailer(capsys):
    # a sweep_table request of the benchmark: every variance is positive
    argv = ["sweep-dispersion", "--var", "phi", "--steps", "2000", "--z",
            "0.00323773", "--p", "0", "--beta", "1.31699", "--theta",
            "1.73882", "--delta", "0.242733"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(l.startswith("#") for l in lines) == 1   # the meta line only
    assert cli.main([*argv, "--format", "json"]) == 0
    assert "diagnostics" not in json.loads(capsys.readouterr().out)


def test_state_zero_deformation_is_poissonian(tmp_path):
    out = tmp_path / "state.json"
    rc = cli.main(["state", "--z", "0", "--delta", "0", "--beta", "1",
                   "--theta", "0", "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["header"] == ["n", "re_c", "im_c", "abs_sq"]
    rows = doc["rows"]
    assert len(rows) == 64
    for n, re_c, im_c, w in rows[:16]:
        assert abs(w - math.exp(-1.0) / math.factorial(n)) < 1e-15
        assert im_c == 0.0
    assert abs(sum(r[3] for r in rows) - 1.0) < 1e-12
    assert sorted(doc["diagnostics"].keys()) == ["c0", "tail_estimate"]
    assert doc["diagnostics"]["tail_estimate"] < 1e-12


ZERO_Z_WIDE = ["state", "--z", "0", "--delta", "0.9", "--phi", "1",
               "--beta", "1.5", "--theta", "-2"]


def test_state_zero_z_short_box_is_not_converged(capsys):
    # the norm of this state needs about 551 terms: dim 400 cannot hold it
    rc = cli.main([*ZERO_Z_WIDE, "--dim", "400"])
    assert rc == 3
    assert capsys.readouterr().out == ""


def test_state_zero_z_c0_at_dim_700(tmp_path):
    import mpmath as mp
    out = tmp_path / "state.json"
    rc = cli.main([*ZERO_Z_WIDE, "--dim", "700", "--format", "json",
                   "--out", str(out)])
    assert rc == 0
    c0 = json.loads(out.read_text())["diagnostics"]["c0"]
    # closed-form norm of exp(lam a+ - mu a+^2/2)|0> for |mu| < 1
    with mp.workdps(50):
        lam = mp.mpc(1.5 * complex(math.cos(-2), math.sin(-2)))
        mu = mp.mpc(0.9 * complex(math.cos(1), math.sin(1)))
        d = 1 - abs(mu) ** 2
        norm2 = mp.exp((2 * abs(lam) ** 2 - mp.conj(mu) * lam ** 2
                        - mu * mp.conj(lam) ** 2).real / (2 * d)) / mp.sqrt(d)
        want = float(1 / mp.sqrt(norm2))
    assert abs(c0 - want) < 1e-13


@pytest.mark.parametrize("argv, least", [
    # weights past the stop point sum to 1.21e-11 of the total, 15 times
    # the last term
    ([*ZERO_Z_WIDE, "--dim", "700"], 1.2e-11),
    # the squeezed vacuum stops on an odd amplitude, which is exactly zero
    (["state", "--z", "0", "--delta", "0.5", "--beta", "0"], 1.3e-13),
])
def test_state_tail_estimate_counts_computed_remainder(argv, least, capsys):
    assert cli.main(argv) == 0
    trailer = capsys.readouterr().out.splitlines()[-1]
    assert trailer.startswith("# tail_estimate=")
    assert float(trailer.partition("=")[2]) >= least


@pytest.mark.parametrize("argv", [
    # the norm series dips below tol at n = 150, then its weights grow to
    # 9e22 of the accepted total by n = 700
    ["--z", "0.04497", "--delta", "0.7721", "--beta", "2.266",
     "--phi=0.9608", "--theta=-2.032", "--dim", "701"],
    # here they overflow: the table used to print inf
    ["--z", "0.29995", "--delta", "0.22217", "--beta", "0.57609",
     "--phi", "1.9004", "--theta=-1.15176", "--dim", "701"],
    # 1.7e22 of the total by n = 255, with a cross-check that passes: the
    # amplitudes are right, the state has no norm in this box
    ["--dim", "256", "--z", "0.3", "--delta", "0.1"],
], ids=["regrowth", "overflow", "dim_256"])
def test_state_norm_that_grows_past_its_stop_is_exit_3(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["state", *argv])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == ""
    assert err.startswith("error: norm series not converged by n_max=")


def test_state_zero_z_unnormalizable_is_exit_3(capsys):
    # |mu| >= 1 has no norm at z = 0, like the NotConverged cases at z != 0
    rc = cli.main(["state", "--z", "0", "--delta", "1.2"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "no norm" in captured.err


def test_state_first_amplitude_ratio_is_lambda(tmp_path):
    # c_1 / c_0 equals the coherent amplitude independently of z
    for z in ("0", "0.01", "0.03"):
        out = tmp_path / f"state{z}.json"
        rc = cli.main(["state", "--z", z, "--delta", "0.3", "--phi", "0.6",
                       "--beta", "1.2", "--theta", "0.4", "--format", "json",
                       "--out", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())["rows"]
        c0 = complex(rows[0][1], rows[0][2])
        c1 = complex(rows[1][1], rows[1][2])
        lam = 1.2 * complex(math.cos(0.4), math.sin(0.4))
        assert abs(c1 / c0 - lam) < 1e-13


def test_state_csv_diagnostics_trailer(tmp_path):
    out = tmp_path / "state.csv"
    rc = cli.main(["state", "--z", "0.01", "--delta", "0.3", "--phi", "0.6",
                   "--beta", "1.2", "--theta", "0.4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "n,re_c,im_c,abs_sq"
    assert lines[2].startswith("0,0.56020489757040759,0,")
    trailer = [l for l in lines[2:] if l.startswith("#")]
    assert len(trailer) == 2
    assert trailer[0].startswith("# c0=")
    assert trailer[1].startswith("# tail_estimate=")


def test_state_rejects_nonzero_gamma(capsys):
    # state has no --gamma flag: argparse refuses it
    with pytest.raises(SystemExit) as exc:
        cli.main(["state", "--gamma", "0.1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --gamma" in capsys.readouterr().err
    # the two-parameter states are not emitted: --p is refused, not ignored
    rc = cli.main(["state", "--dim", "16", "--p", "0.4"])
    assert rc == 2
    assert "--p" in capsys.readouterr().err


def test_sweep_rejects_nonzero_gamma(tmp_path, capsys):
    # the first-order moments are the nu = 0 ones: sweep-dispersion has no
    # --gamma flag, so none is ignored under a meta line that claims it
    path = tmp_path / "sweep.csv"
    for argv in (["--gamma", "0.5"], ["--gamma=-1e-3", "--out", str(path)]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep-dispersion", *argv, "--steps", "2"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --gamma" in err
    assert not path.exists()


@pytest.mark.parametrize("tol", ["0", "-1e-10", "-0.0"])
def test_nonpositive_tol_is_usage_error(tol, capsys):
    # not a convergence failure: the series converges, the request cannot
    assert cli.main(["state", "--dim", "16", f"--tol={tol}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: tol must be > 0\n"


def _run_cli(argv, timeout):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run(
        [sys.executable, "-m", "deformed_heisenberg.cli", *argv],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": src})


def test_state_dim_256_is_fast():
    # the exact-integer tables took minutes here; the recurrence is O(N^2)
    proc = _run_cli(["state", "--dim", "256"], timeout=30)
    assert proc.returncode == 0
    rows = _data_rows(proc.stdout)
    assert [int(r[0]) for r in rows[1:]] == list(range(256))


def test_verify_dim_256_is_fast():
    # the matrix-side checks take O(sqrt(N)) dense products per function
    proc = _run_cli(["verify", "--dim", "256"], timeout=30)
    assert proc.returncode == 0
    checks = json.loads(proc.stdout)["checks"]
    assert len(checks) == 18
    assert all(c["passed"] for c in checks)


@pytest.mark.parametrize("argv, rc", [
    (["state", "--dim", "256", "--z", "0.5", "--delta", "0.3", "--beta", "0.7",
      "--phi", "-0.3", "--theta", "0.2"], 3),
    (["spectrum", "--dim", "48"], 4),
], ids=["state_not_converged", "spectrum_ill_conditioned"])
def test_failed_command_prints_nothing_on_stdout(argv, rc, capsys):
    # the '#' meta line and the header wait for the first row
    assert cli.main(argv) == rc
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    # the float double sum used to call these correct amplitudes wrong
    # ("route deviation 1.45e+14") and to overflow (OverflowError)
    ["--dim", "32", "--z", "0.115156", "--delta", "0.401904", "--phi",
     "-1.87563", "--beta", "0.548369", "--theta", "-0.388594"],
    ["--dim", "48", "--z", "0.0136372", "--p", "0", "--delta", "0.0158662",
     "--phi", "-2.07702", "--beta", "1.11137", "--theta", "-1.39953"],
    # |Y| = 2.2 runs the float check past n = 170, where z^n / sqrt(n!)
    # leaves the float range (at z = 0.3 this state has no norm; see
    # test_state_norm_that_grows_past_its_stop_is_exit_3)
    ["--dim", "256", "--z", "0.15", "--delta", "0.1"],
], ids=["cancellation", "overflow", "past_factorial_overflow"])
def test_state_cross_check_cannot_fail_correct_amplitudes(argv):
    proc = _run_cli(["state", *argv], timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_state_into_closed_pipe_exits_quietly():
    # 2048 rows (90 kB) are more than the pipe and the stdout buffer hold, so
    # the program is still writing when the reader goes away
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "deformed_heisenberg.cli", "state", "--dim",
         "2048"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.readline().startswith("# ")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in proc.stderr.read()
    proc.stderr.close()


def test_state_not_converged_removes_partial_file(tmp_path, monkeypatch):
    def stall(*args, **kwargs):
        raise NotConverged("synthetic stall for the abort path")

    monkeypatch.setattr(cli.aes_series, "fock_coefficients", stall)
    out = tmp_path / "state.csv"
    buf = io.StringIO()
    monkeypatch.setattr(sys, "stderr", buf)
    rc = cli.main(["state", "--z", "0.01", "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    assert "error:" in buf.getvalue()


def test_verify_default_box_passes(tmp_path):
    out = tmp_path / "verify.json"
    rc = cli.main(["verify", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    checks = doc["checks"]
    assert len(checks) >= 15
    suites = {c["suite"] for c in checks}
    assert suites == {"fock", "algebra", "series", "paragrassmann",
                      "dispersion", "pseudo"}
    for c in checks:
        assert c["passed"] is True
        assert float(c["residual"]) <= float(c["bound"])


def test_verify_pseudo_bounds_are_tight(capsys):
    # the dim-48 reference box reads 1.2e-9, 1.4e-13 and 2.5e-14; bounds of
    # 1e-7, 1e-6 and 1e-8 let a metric route that lost six digits pass
    assert cli.main(["verify", "--dim", "64", "--suite", "pseudo"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    bounds = {c["name"]: float(c["bound"]) for c in checks}
    assert bounds == {"pseudo_hermiticity": 1e-8, "rho_g_unitarity": 1e-10,
                      "commutators": 1e-11}
    assert all(c["passed"] for c in checks)


def test_verify_algebra_bounds_are_tight(capsys):
    # the residuals read <= 6.3e-14 up to dim 256 (2.1e-13 at dim 512);
    # bounds of 1e-8 and 1e-7 let a realization that lost half its digits pass
    assert cli.main(["verify", "--dim", "256", "--suite", "algebra"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(checks) == 8
    for c in checks:
        assert float(c["bound"]) == 1e-11, c["name"]
        assert float(c["residual"]) < 1e-13, c["name"]


def test_state_runs_the_recurrence_once(monkeypatch, capsys):
    # one vector of amplitudes serves the table (to dim - 1) and the norm
    # sum (to max(96, dim - 1)), for dims on both sides of 97
    calls = []
    run = cli.aes_series._amplitudes

    def counted(params, n_max):
        calls.append(n_max)
        return run(params, n_max)

    monkeypatch.setattr(cli.aes_series, "_amplitudes", counted)
    for dim, n_max in ((48, 96), (200, 199)):
        calls.clear()
        assert cli.main(["state", "--dim", str(dim), "--z", "0.01",
                         "--delta", "0.2"]) == 0
        assert calls == [n_max]
    capsys.readouterr()


_IMPORT_BUDGET = """
import contextlib, io, json, sys
import deformed_heisenberg.cli as cli
seen = {"import": "scipy" in sys.modules}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    seen[name] = [rc, "scipy" in sys.modules]
print(json.dumps(seen))
"""


def test_cli_never_loads_scipy():
    # scipy is imported inside fock_core.matrix_exponential, which only the
    # dense reference operators call; S D|0> in verify is an expm_action on
    # the vacuum.  Importing scipy would double every request's start-up.
    # The test process has scipy loaded already, so this runs in a fresh
    # interpreter.
    runs = [
        ("state", ["state", "--dim", "32", "--z", "0.01", "--delta", "0.2"]),
        ("sweep_phi", ["sweep-dispersion", "--steps", "5"]),
        ("sweep_delta", ["sweep-dispersion", "--var", "delta", "--min", "0",
                         "--max", "0.9", "--steps", "5"]),
        ("spectrum", ["spectrum", "--dim", "48", "--delta", "0.2", "--z",
                      "0.02"]),
        ("verify_pseudo", ["verify", "--dim", "64", "--suite", "pseudo"]),
        ("verify_dispersion", ["verify", "--dim", "64", "--suite",
                               "dispersion"]),
        ("verify", ["verify", "--dim", "64"]),
    ]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_BUDGET, json.dumps(runs)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen == {"import": False, "state": [0, False],
                    "sweep_phi": [0, False], "sweep_delta": [0, False],
                    "spectrum": [0, False], "verify_pseudo": [0, False],
                    "verify_dispersion": [0, False], "verify": [0, False]}


def test_verify_small_dim_reports_designed_failures(tmp_path, capsys):
    out = tmp_path / "verify8.json"
    rc = cli.main(["verify", "--dim", "8", "--out", str(out)])
    assert rc == 1
    doc = json.loads(out.read_text())
    assert doc["passed"] is False
    failed = {c["name"]: c for c in doc["checks"] if not c["passed"]}
    assert set(failed) == {"coherent_normalization",
                           "squeezed_eigenstate_residual",
                           "gamma_closed_vs_matrix"}
    # tail-unconverged checks degrade to an infinite residual marker
    assert math.isinf(float(failed["coherent_normalization"]["residual"]))
    assert math.isinf(float(failed["squeezed_eigenstate_residual"]["residual"]))
    g = float(failed["gamma_closed_vs_matrix"]["residual"])
    assert 0.01 < g < 0.04
    # a check that raised names its exception; the others carry no error
    for name in ("coherent_normalization", "squeezed_eigenstate_residual"):
        assert failed[name]["error"].startswith("TailTooHeavy: top-2 levels")
    assert [c["name"] for c in doc["checks"] if "error" in c] == [
        "coherent_normalization", "squeezed_eigenstate_residual"]


def test_verify_reports_arithmetic_error_as_failed_check(tmp_path,
                                                         monkeypatch):
    def overflow():
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "_check_mus", overflow)
    out = tmp_path / "verify_overflow.json"
    rc = cli.main(["verify", "--suite", "dispersion", "--out", str(out)])
    assert rc == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["mus_point"] == {
        "suite": "dispersion", "name": "mus_point", "residual": "inf",
        "bound": "9.9999999999999998e-13", "passed": False,
        "error": "OverflowError: math range error"}
    assert checks["gamma_closed_vs_matrix"]["passed"] is True
    assert "error" not in checks["gamma_closed_vs_matrix"]


def test_verify_suite_filter(tmp_path):
    out = tmp_path / "verify_pg.json"
    rc = cli.main(["verify", "--suite", "paragrassmann", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["checks"]) == 1
    check = doc["checks"][0]
    assert check["suite"] == "paragrassmann"
    assert check["name"] == "exact_ode_residual"
    assert check["residual"] == "0"


def test_verify_unknown_suite_is_usage_error(capsys):
    rc = cli.main(["verify", "--suite", "nope"])
    assert rc == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_suite_runs_only_its_own_checks(monkeypatch, capsys):
    calls = []

    def build_system(*args, **kwargs):
        calls.append("build_system")
        raise AssertionError("pseudo reference system built")

    def check_xp(cfg):
        calls.append("check_xp")
        return 0.0

    monkeypatch.setattr(cli.pseudo_hermitian, "build_system", build_system)
    monkeypatch.setattr(cli, "_check_xp", check_xp)
    assert cli.main(["verify", "--suite", "paragrassmann"]) == 0
    assert calls == []
    # an unknown suite is refused before any check runs
    assert cli.main(["verify", "--suite", "nope"]) == 2
    assert calls == []
    assert cli.main(["verify", "--suite", "fock"]) == 0
    assert calls == ["check_xp"]
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--dim", "8", "--z", "nan"],
    ["state", "--dim", "8", "--beta", "inf"],
    ["sweep-dispersion", "--steps", "3", "--z", "inf"],
    ["sweep-dispersion", "--steps", "3", "--min=-inf"],
    ["verify", "--dim", "8", "--guard", "9"],
])
def test_nonfinite_floats_and_bad_guard_exit_2(argv, tmp_path):
    # a subprocess with a timeout, so that a hang fails instead of stalling
    out = tmp_path / "out.txt"
    proc = _run_cli([*argv, "--out", str(out)], timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--z", "0.1"],
    ["spectrum", "--beta", "1"],
    ["sweep-dispersion", "--dim", "64"],
    ["state", "--eta-phase", "1"],
    ["spectrum", "--dim", "8", "--guard", "8"],
    ["state", "--dim", "8", "--guard", "-2"],
], ids=["verify-z", "spectrum-beta", "sweep-dim", "state-eta-phase",
        "spectrum-guard", "state-guard"])
def test_flag_the_subcommand_does_not_read_exits_2(argv, tmp_path):
    # a flag the command would ignore is refused, not echoed in the meta line
    out = tmp_path / "out.txt"
    proc = _run_cli([*argv, "--out", str(out)], timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"unrecognized arguments: {argv[-2]}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep-dispersion", "--steps", "3"],
    ["verify", "--dim", "8"],
])
def test_unwritable_out_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "x.out"
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write --out {out}")
    assert len(err.splitlines()) == 1
    assert not out.parent.exists()


def test_spectrum_undeformed_ladder(tmp_path):
    out = tmp_path / "sp0.json"
    rc = cli.main(["spectrum", "--delta", "0", "--z", "0", "--dim", "48",
                   "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["header"] == ["n", "h_eig", "h_deviation", "ht_eig",
                             "ht_deviation"]
    assert len(doc["rows"]) == 48
    for n, h, hd, ht, htd in doc["rows"]:
        assert abs(h - n) < 1e-12
        assert abs(ht - n) < 1e-12
    assert doc["diagnostics"]["eta_condition"] == 1.0


def test_spectrum_deformed_deviations(tmp_path):
    out = tmp_path / "sp.json"
    rc = cli.main(["spectrum", "--delta", "0.2", "--z", "0.02", "--dim", "48",
                   "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    diag = doc["diagnostics"]
    assert diag["h_max_deviation"] < 1e-6
    assert diag["ht_max_deviation"] < 1e-5
    assert 1e6 < diag["eta_condition"] < 1e7
    assert max(r[2] for r in doc["rows"]) == diag["h_max_deviation"]
    assert max(r[4] for r in doc["rows"]) == diag["ht_max_deviation"]


def test_spectrum_conditioning_failure_exits_4(tmp_path, capsys):
    out = tmp_path / "sp_bad.csv"
    rc = cli.main(["spectrum", "--delta", "0.5", "--z", "0.05", "--dim", "64",
                   "--out", str(out)])
    assert rc == 4
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_spectrum_names_the_eta_condition(capsys):
    # eta is positive definite here (sigma_min(G^-1) = 1.7e-5); the fault is
    # cond(eta) = 1.4e20, past the limit
    rc = cli.main(["spectrum", "--dim", "128", "--delta", "0.2", "--z", "0.02"])
    assert rc == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: eta condition number 1.435e+20 exceeds 1e+12")


def test_spectrum_huge_z_exits_4_without_numpy_warnings():
    # e^{-z a+} has non-finite coefficients here; mu times them used to print
    # "invalid value encountered in multiply" RuntimeWarnings before the error
    proc = _run_cli(["spectrum", "--dim", "8", "--z", "3.675416707529021e+44"],
                    timeout=30)
    assert proc.returncode == 4
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def test_flag_validation_exits_2(capsys):
    assert cli.main(["sweep-dispersion", "--steps", "1"]) == 2
    assert "steps" in capsys.readouterr().err
    assert cli.main(["state", "--dim", "4"]) == 2
    assert "dim" in capsys.readouterr().err
    assert cli.main(["sweep-dispersion", "--min", "1", "--max", "1"]) == 2
    assert "min" in capsys.readouterr().err


def test_argparse_failures_raise_systemexit_2(capsys):
    for argv in ([], ["bogus"], ["sweep-dispersion", "--format", "xml"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_installed_entry_point_runs():
    # python -m deformed_heisenberg.cli, with the source tree on the child's
    # path; the dheis console script calls the same main()
    proc = _run_cli(["spectrum", "--delta", "0", "--dim", "16"], timeout=60)
    assert proc.returncode == 0
    assert "h_eig" in proc.stdout
