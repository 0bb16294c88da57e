"""Command-line front end: deterministic sweep/state/verify/spectrum output."""

import contextlib
import errno
import io
import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deformed_heisenberg import (_gaussian, cli, deformed_algebra, dispersion,
                                 fock_core)
from deformed_heisenberg.errors import NotConverged, PhaseWindow

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
                        "1.4400000000000013,0.17333333333333079,"
                        "0.24959999999999655,0.25,1")
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
    "0.42324398851571043,0.94841457931053075,0.40141076931383862,"
    "0.40136769419412366,1\n"
    "-0.66666666666666674,0.31624416153478679,1.0647082194175943,"
    "0.31005444151274419,1.0662762470037235,0.33060368626304437,"
    "0.33065375108949235,1\n"
    "-0.33333333333333337,0.24049669223107734,1.1404556887213038,"
    "0.23739083480662182,1.1432975103828822,0.2714083504221248,"
    "0.27148914248059008,1\n"
    "0,0.21428571428571436,1.1666666666666667,"
    "0.21354334041338663,1.1707084799715641,0.24999699946340614,"
    "0.25006487846177994,1\n"
    "0.33333333333333326,0.24049669223107734,1.1404556887213038,"
    "0.24138923855241878,1.1452395864374192,0.27644851173021562,"
    "0.2764883033287836,1\n"
    "0.66666666666666652,0.31624416153478674,1.0647082194175943,"
    "0.3179682552227644,1.0695894285972449,0.34009548441577953,"
    "0.34011012877269498,1\n"
    "1,0.43318937815802883,0.94776300279435233,"
    "0.43476340968707461,0.95217273273548142,0.41396986389513751,"
    "0.41396836062542264,1\n"
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


# the cells a table can hold; each column holds one kind.  The float kind
# mixes Python floats and numpy.float64, and the edge values that the golden
# corpus never prints: signed zeros and infinities, nan, subnormals and the
# largest doubles
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                     -5e-324, 2.2250738585072009e-308, sys.float_info.max,
                     -sys.float_info.max]),
    st.floats(allow_nan=True, allow_infinity=True))
_CELLS = {"float": st.one_of(_FLOATS, _FLOATS.map(np.float64)),
          "int": st.integers(-2 ** 70, 2 ** 70), "bool": st.booleans()}


@st.composite
def _tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1,
                          max_size=8))
    n = draw(st.integers(1, 12))
    return [draw(st.lists(_CELLS[k], min_size=n, max_size=n)) for k in kinds]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(columns=_tables())
def test_csv_template_gives_the_bytes_of_fmt(columns):
    assert cli._csv_body(columns) == "".join(
        ",".join(map(cli._fmt, row)) + "\n" for row in zip(*columns))


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
    # fails on the first; a delta past 1 fails before the moments of the
    # first point overflow
    for argv in (["--var", "delta", "--min", "0", "--max", "1.5",
                  "--steps", "5"],
                 ["--delta", "-0.2"],
                 ["--var", "delta", "--min", "0.5", "--max", "1.5",
                  "--beta", "1e300", "--steps", "3"]):
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


# sweeps whose first value past the float range is a square of finite
# moments: corr_f^2 in srur_bound on the first row, the product_def product
# on the first row and mid-grid.  Python's float ** raises OverflowError
# there, where numpy returned inf
SQUARE_OVERFLOW_ARGVS = {
    "srur_bound": ["sweep-dispersion", "--beta=5.535614073177673e+47",
                   "--z=0.01", "--delta=0.47721556743528426", "--steps=2"],
    "product_def": ["sweep-dispersion", "--beta=1.8820733263483287e+58",
                    "--z=0.001", "--delta=0.3476049214081612", "--steps=6"],
    "product_def_mid_grid": [
        "sweep-dispersion", "--beta=2.219678416574804e+32",
        "--z=0.015532968502053374", "--p=2.7176419782435183e+32",
        "--delta=0.667279784102779", "--steps=6"],
}


@pytest.mark.parametrize("argv", SQUARE_OVERFLOW_ARGVS.values(),
                         ids=SQUARE_OVERFLOW_ARGVS)
def test_sweep_square_past_the_float_range_exits_3(argv, capsys):
    args = cli._build_parser().parse_args(argv)
    grid = cli._linspace(args.min, args.max, args.steps)
    rows = [dispersion.perturbed_quadrature_stats(args.delta, x, args.beta,
                                                  args.theta, args.z, args.p)
            for x in grid]
    bad = next(i for i, st in enumerate(rows)
               if not (math.isfinite(st.product)
                       and math.isfinite(st.srur_bound)))
    st = rows[bad]
    assert all(map(math.isfinite, (st.var_x, st.var_p, st.corr_f)))
    if math.isinf(st.srur_bound):
        with pytest.raises(OverflowError):
            st.corr_f ** 2
    assert cli.main(argv) == 3
    assert capsys.readouterr() == (
        "", f"error: moments overflow at phi={grid[bad]}\n")


def test_sweep_arithmetic_error_exits_3(monkeypatch, capsys):
    # an ArithmeticError that the plain-Python moments raise is the sweep's
    # convergence failure, not a traceback: here at the second point of the
    # one pass that assembles them
    real = cli.dispersion._moments

    def overflow(*args):
        moments = real(*args)
        yield next(moments)
        raise OverflowError("math range error")

    monkeypatch.setattr(cli.dispersion, "_moments", overflow)
    assert cli.main(["sweep-dispersion", "--steps", "3"]) == 3
    assert capsys.readouterr() == (
        "", "error: moments overflow on the phi grid: OverflowError: math "
        "range error\n")


@pytest.mark.parametrize("lo, hi, steps", [
    (-math.pi, math.pi, 2000), (0.0, 0.9, 1000), (-1.0, 1.0, 7),
    (-math.pi / 2, math.pi / 2, 200), (-0.0, 0.25, 3),
    # a step that underflows to zero, a subnormal one, a span near the
    # float range
    (0.0, 5e-324, 4), (1e-320, 3e-320, 7), (-1e308, 1e307, 5)])
def test_sweep_grid_is_numpy_linspace_bit_for_bit(lo, hi, steps):
    want = [x.hex() for x in np.linspace(lo, hi, steps).tolist()]
    assert [x.hex() for x in cli._linspace(lo, hi, steps)] == want


def test_sweep_grid_value_column_is_numpy_linspace(capsys):
    argv = ["sweep-dispersion", "--min", "-2.5", "--max", "0.75", "--steps",
            "999", "--format", "json"]
    assert cli.main(argv) == 0
    grid = [row[0] for row in json.loads(capsys.readouterr().out)["rows"]]
    assert ([x.hex() for x in grid]
            == [x.hex() for x in np.linspace(-2.5, 0.75, 999).tolist()])


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
    # the whole grid goes through one pass of the moment assembly, which
    # takes one coefficient call per point and forms the point's Gamma and
    # Lambda entries itself: no table kernel call, for 10 rows as for 2000
    counts = {name: _count_calls(monkeypatch, module, name)
              for module, name in ((cli.dispersion, "_moments"),
                                   (_gaussian, "_coefficients"),
                                   (_gaussian, "quadratic_exponential_derivative"),
                                   (_gaussian, "gamma_kl"),
                                   (_gaussian, "lambda_kl"))}
    for steps in ("10", "2000"):
        for c in counts.values():
            c["n"] = 0
        assert cli.main(["sweep-dispersion", "--var", var, "--min", "0",
                         "--max", "0.9", "--steps", steps, "--z", "0.003",
                         "--p", "0.01"]) == 0
        assert len(_data_rows(capsys.readouterr().out)) == int(steps)
        assert {k: c["n"] for k, c in counts.items()} == {
            "_moments": 1, "_coefficients": int(steps),
            "quadratic_exponential_derivative": 0, "gamma_kl": 0,
            "lambda_kl": 0}


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
    assert sorted(doc["diagnostics"].keys()) == ["c0", "route_deviation",
                                                 "tail_estimate"]
    assert doc["diagnostics"]["route_deviation"] < 1e-15
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
    assert len(trailer) == 3
    assert trailer[0].startswith("# c0=")
    assert trailer[1].startswith("# route_deviation=")
    assert trailer[2].startswith("# tail_estimate=")


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


def _child_env():
    """This environment with the source tree on the path, and without
    PYTHONUNBUFFERED: a child's stdout is block-buffered, as from a shell."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(
        cli.__file__))}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _run_cli(argv, timeout):
    return subprocess.run(
        [sys.executable, "-m", "deformed_heisenberg.cli", *argv],
        capture_output=True, text=True, timeout=timeout,
        env=_child_env())


def test_state_dim_256_is_fast():
    # the exact-integer tables took minutes here; the recurrence is O(N^2)
    proc = _run_cli(["state", "--dim", "256"], timeout=30)
    assert proc.returncode == 0
    rows = _data_rows(proc.stdout)
    assert [int(r[0]) for r in rows[1:]] == list(range(256))


def test_verify_dim_256_is_fast():
    # the algebra rows are O(N^2) series identities; the other matrix-side
    # checks take a few dense products
    proc = _run_cli(["verify", "--dim", "256"], timeout=30)
    assert proc.returncode == 0
    checks = json.loads(proc.stdout)["checks"]
    assert len(checks) == 20
    assert all(c["passed"] for c in checks)


@pytest.mark.parametrize("dim", ["256", "512"])
def test_verify_past_factorial_overflow(dim):
    # kept is 192 and 384, past the 170 where (kept - 1)! leaves the float
    # range: the series bounds take their weights from logs and stay at the
    # rounding of the coefficient lists, and the build row reads 0
    proc = _run_cli(["verify", "--dim", dim], timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    checks = json.loads(proc.stdout)["checks"]
    algebra = [c for c in checks if c["suite"] == "algebra"]
    assert len(algebra) == 9
    for c in algebra:
        assert c["passed"] and float(c["residual"]) <= 1e-15, c


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
    # the dim-48 reference box reads 1.2e-9, 1.8e-13 and, for the
    # commutators' series bound, 9.7e-30; bounds of 1e-7, 1e-6 and 1e-8 let
    # a metric route that lost six digits pass
    assert cli.main(["verify", "--dim", "64", "--suite", "pseudo"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    bounds = {c["name"]: float(c["bound"]) for c in checks}
    assert bounds == {"pseudo_hermiticity": 1e-8, "rho_g_unitarity": 1e-10,
                      "commutators": 1e-14, "ladder_build": 1e-13}
    assert all(c["passed"] for c in checks)
    assert checks[-1]["residual"] == "0"


def test_verify_pseudo_suite_trips_on_a_shifted_annihilator(monkeypatch,
                                                            capsys):
    # A built from the series of mu x^2 e^{-zx} (shift 2) instead of
    # mu x e^{-zx}: the metric and commutator rows read only H and the
    # series, so ladder_build is the pseudo row that sees the built A
    real = cli.pseudo_hermitian._scaled_exp_coefficients

    def shifted(mu, z, cfg):
        return (cli.annihilation(cfg)
                + cli.pseudo_hermitian.series_operator(real(mu, z, 2, cfg.dim),
                                                       cfg))

    monkeypatch.setattr(cli.pseudo_hermitian, "_build_A", shifted)
    assert cli.main(["verify", "--dim", "64", "--suite", "pseudo"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == ["ladder_build"]
    assert float(checks[-1]["residual"]) > 1e3 * float(checks[-1]["bound"])


def test_verify_algebra_bounds_are_tight(capsys):
    # the series bounds read <= 4.4e-16 up to dim 1024, and the build row
    # reads 0; bounds of 1e-11 let a coefficient with a relative error of
    # 1e-12 pass
    assert cli.main(["verify", "--dim", "256", "--suite", "algebra"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(checks) == 9
    for c in checks[:8]:
        assert float(c["bound"]) == 1e-14, c["name"]
        assert float(c["residual"]) < 1e-15, c["name"]
    assert checks[8]["name"] == "fock_build"
    assert (float(checks[8]["bound"]), checks[8]["residual"]) == (1e-13, "0")


@pytest.mark.parametrize("dim", [8, 64, 160, 256])
def test_verify_residuals_at_kept_plus_one_match_the_full_dim(dim):
    # the guarded k x k block of each product and commutator of the xp
    # residual reads only the leading (k+1)-blocks of its factors, so verify
    # builds its operators at dim k + 1 with a guard of 1; the series rows
    # read only k, the kept block's size
    cfg = fock_core.TruncationConfig(dim)
    block = fock_core.TruncationConfig(cfg.kept + 1, guard=1)
    assert block.kept == cfg.kept
    assert cli._check_xp(block) == cli._check_xp(cfg)
    for kind in (cli.RealizationKind.TildeZ0_Cas1,
                 cli.RealizationKind.TildeZ0_Cas2):
        for z in (0.0, 0.02, -0.02):
            assert (cli._check_tilde(kind, z, block)
                    == cli._check_tilde(kind, z, cfg)), (kind, z)
    for p in (0.1, 0.4):
        assert cli._check_uzp(p, block) == cli._check_uzp(p, cfg), p


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
modules = json.loads(sys.argv[2])
seen = {"import": [m for m in modules if m in sys.modules]}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    seen[name] = [rc, [m for m in modules if m in sys.modules]]
print(json.dumps(seen))
"""


def test_cli_never_loads_scipy():
    # scipy is imported inside fock_core.matrix_exponential, which only the
    # dense reference operators call; S D|0> in verify is built from its
    # Bargmann symbol by the vacuum-image kernel.  Importing scipy would
    # double every request's start-up.
    # mpmath is a test dependency only: the 60-digit references live in the
    # tests.  dataclasses would mean a record class generated at import, about
    # 0.8 ms each per request.  fractions (and decimal, which it imports)
    # only aes_series' exact-integer reference tables load: verify's exact
    # ODE row runs paragrassmann's complex rationals in plain ints.  The test
    # process has them all loaded already, so this runs in a fresh
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
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_BUDGET, json.dumps(runs),
         json.dumps(["scipy", "mpmath", "dataclasses", "fractions",
                     "decimal"])],
        capture_output=True, text=True, timeout=60,
        env=_child_env())
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen == {"import": [], "state": [0, []], "sweep_phi": [0, []],
                    "sweep_delta": [0, []], "spectrum": [0, []],
                    "verify_pseudo": [0, []], "verify_dispersion": [0, []],
                    "verify": [0, []]}


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


def test_verify_reports_linalg_error_as_failed_check(tmp_path, monkeypatch):
    # a residual with a nan entry makes the SVD behind guarded_norm raise
    # LinAlgError, which the report gives as an inf row, not a traceback
    def position_with_nan(cfg):
        X = np.zeros((cfg.dim, cfg.dim))
        X[0, 0] = math.nan
        return X

    monkeypatch.setattr(cli.dispersion, "position_operator", position_with_nan)
    out = tmp_path / "verify_nan.json"
    assert cli.main(["verify", "--out", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    assert len(checks) == 20
    failed = [c for c in checks if not c["passed"]]
    assert failed == [{
        "suite": "fock", "name": "canonical_xp_commutator", "residual": "inf",
        "bound": "1e-10", "passed": False,
        "error": "LinAlgError: SVD did not converge"}]
    assert all("error" not in c for c in checks if c["passed"])


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
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    assert "--suite: invalid choice: 'nope'" in capsys.readouterr().err


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
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    assert calls == []
    assert cli.main(["verify", "--suite", "fock"]) == 0
    assert calls == ["check_xp"]
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--dim", "8", "--z", "nan"],
    ["state", "--dim", "8", "--beta", "inf"],
    ["sweep-dispersion", "--steps", "3", "--z", "inf"],
    ["sweep-dispersion", "--steps", "3", "--min=-inf"],
    # sizes past numpy's array size limit
    ["state", "--dim", str(2 ** 62)],
    ["verify", "--dim", str(2 ** 62)],
    ["spectrum", "--dim", str(2 ** 62)],
    ["sweep-dispersion", "--steps", str(2 ** 62)],
    # negative polar moduli, for every subcommand that reads them
    ["spectrum", "--dim", "16", "--delta", "-0.5"],
    ["sweep-dispersion", "--steps", "3", "--beta", "-1"],
    ["sweep-dispersion", "--steps", "3", "--var", "delta", "--min", "0",
     "--max", "0.5", "--delta", "-1"],
    # finite ends whose span overflows: linspace would yield a nan grid value
    ["sweep-dispersion", "--steps", "2", "--min=-1e308", "--max=1e308"],
])
def test_nonfinite_floats_and_bad_guard_exit_2(argv, tmp_path):
    # a subprocess with a timeout, so that a hang fails instead of stalling
    out = tmp_path / "out.txt"
    proc = _run_cli([*argv, "--out", str(out)], timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert not out.exists()
    if argv[-2] in ("--delta", "--beta") and float(argv[-1]) < 0:
        # the message names the flags the subcommands have
        assert proc.stderr == ("error: polar moduli --delta and --beta must "
                               "be >= 0\n")


@pytest.mark.parametrize("argv, flag", [
    (["state", "--dim", str(2 ** 62)], "--dim"),
    (["sweep-dispersion", "--steps", str(2 ** 62)], "--steps"),
])
def test_sizes_past_numpys_limit_name_their_flag(argv, flag, monkeypatch,
                                                capsys):
    # refused before any array is built.  Where the system does not give its
    # memory, the limit is numpy's intp byte limit; the test takes that path
    # so that the figure is the same on every machine
    def no_sysconf(name):
        raise ValueError(name)

    monkeypatch.setattr(cli.os, "sysconf", no_sysconf)
    limit = np.iinfo(np.intp).max
    assert cli._physical_memory() == limit
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {flag} {2 ** 62} needs at least {16 * 2 ** 62} bytes, "
        f"more than the {limit} bytes of physical memory\n")


@pytest.mark.parametrize("argv, target, flag", [
    (["verify", "--dim", "64"], (cli, "_verify_checks"), "--dim 64"),
    (["state", "--dim", "64"], (cli.aes_series, "_amplitudes"), "--dim 64"),
    (["sweep-dispersion", "--steps", "5"], (cli.dispersion, "sweep_table"),
     "--steps 5"),
])
def test_memory_error_exits_2_naming_the_size_flag(argv, target, flag,
                                                   monkeypatch, tmp_path,
                                                   capsys):
    # the allocation failure is simulated: a test never makes a real one
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(*target, out_of_memory)
    out = tmp_path / "out.txt"
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: not enough memory for {flag}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, least", [
    (["state", "--dim", "64"], 64),             # one dim-long vector
    (["verify", "--dim", "64"], 64 * 64),       # one dim x dim matrix
    (["spectrum", "--dim", "64"], 64 * 64),
    (["sweep-dispersion", "--steps", "200"], 200),   # one --steps column
])
def test_size_past_physical_memory_exits_2_naming_its_flag(argv, least,
                                                           monkeypatch,
                                                           capsys):
    # the memory figure is simulated: no test allocates.  The bound is the
    # smallest complex array the request holds, so the size that just fits
    # is accepted and one byte less memory refuses it
    need = 16 * least
    monkeypatch.setattr(cli, "_physical_memory", lambda: need)
    assert cli._check_common(cli._build_parser().parse_args(argv)) == ""
    monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
    assert cli.main(argv) == 2
    flag = " ".join(argv[1:3])
    assert capsys.readouterr().err == (
        f"error: {flag} needs at least {need} bytes, more than the "
        f"{need - 1} bytes of physical memory\n")


def test_physical_memory_is_read_from_the_system():
    # _check_common compares a byte count with it on every request, so it is
    # always a positive int, and the system's figure where there is one
    memory = cli._physical_memory()
    assert type(memory) is int and memory > 0
    try:
        system = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    assert memory == system


@pytest.mark.parametrize("argv", [
    ["verify", "--z", "0.1"],
    ["spectrum", "--beta", "1"],
    ["sweep-dispersion", "--dim", "64"],
    ["state", "--eta-phase", "1"],
    ["spectrum", "--dim", "8", "--guard", "8"],
    ["state", "--dim", "8", "--guard", "-2"],
    ["state", "--dim", "16", "--tol", "1e-10"],
    ["verify", "--dim", "64", "--guard", "4"],
], ids=["verify-z", "spectrum-beta", "sweep-dim", "state-eta-phase",
        "spectrum-guard", "state-guard", "state-tol", "verify-guard"])
def test_flag_the_subcommand_does_not_read_exits_2(argv, tmp_path):
    # a flag the command would ignore is refused, not echoed in the meta line
    out = tmp_path / "out.txt"
    proc = _run_cli([*argv, "--out", str(out)], timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"unrecognized arguments: {argv[-2]}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_flags_table_has_no_leftover_entries():
    # a flag in FLAGS that no subcommand lists is parsed by none of them
    assert set(cli.FLAGS) == set().union(*cli.SUBCOMMAND_FLAGS.values())
    assert set(cli._COMMANDS) == set(cli.SUBCOMMAND_FLAGS)


@pytest.mark.parametrize("argv", [
    ["sweep-dispersion", "--steps", "3"],
    ["verify", "--dim", "8"],
])
def test_unwritable_out_exits_2(argv, tmp_path, monkeypatch, capsys):
    # the output is opened before any work: verify runs none of its checks
    def no_checks(args):
        raise AssertionError("a check ran before --out was opened")

    monkeypatch.setattr(cli, "_verify_checks", no_checks)
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


@pytest.mark.parametrize("z", ["1e300", "-1e300", "1e308", "-1e308"])
def test_spectrum_past_the_float_range_prints_no_numpy_warning(z, capsys):
    # e^{-z x} overflows to inf in exp_coefficients' scalar loop, whose
    # Python floats never warn; main's errstate context silences the numpy
    # products that take those inf entries on to G^-1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["spectrum", "--dim", "8", f"--z={z}"])
    assert rc == 4
    assert not [w for w in caught if w.category is RuntimeWarning]
    assert capsys.readouterr().err.startswith("error: G^-1 leaves the float")


def test_verify_algebra_rows_take_no_svd_or_matrix_function(monkeypatch,
                                                            capsys):
    # the algebra rows and pseudo's commutators are series identities: the
    # only SVDs of a full report are those of the xp, pseudo-hermiticity
    # and unitarity rows, and no row sums a Taylor series in matrix powers
    calls = []
    for module in (cli, cli.pseudo_hermitian, fock_core):
        real = module.guarded_norm

        def counted(mat, cfg, real=real):
            calls.append(1)
            return real(mat, cfg)

        monkeypatch.setattr(module, "guarded_norm", counted)

    def refused(*args):
        raise AssertionError("triangular_matrix_function called")

    monkeypatch.setattr(fock_core, "triangular_matrix_function", refused)
    assert cli.main(["verify", "--dim", "64"]) == 0
    assert len(calls) == 3
    calls.clear()
    assert cli.main(["verify", "--dim", "64", "--suite", "algebra"]) == 0
    capsys.readouterr()
    assert calls == []


def _verify_rows(argv):
    """{name: (residual, bound)} of a verify report run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["verify", *argv])
    return {c["name"]: (float(c["residual"]), float(c["bound"]))
            for c in json.loads(out.getvalue())["checks"]}


@pytest.mark.parametrize("series, order, factor", [
    (0, 3, -1.0), (1, 3, -1.0),             # a sign flip in b_3 or c_3
    (0, 1, 1 + 1e-12), (1, 1, 1 + 1e-12),   # b_1 or c_1 off by 1e-12
], ids=["sign_b3", "sign_c3", "rel_b1", "rel_c1"])
def test_verify_relation_rows_trip_on_a_planted_coefficient(
        monkeypatch, series, order, factor):
    # one coefficient of b or c is wrong in every realization the rows
    # check; the z = 0 series are constants, so there the defect takes the
    # constant term.  Every relation row reads past its bound, and by a
    # factor >= 10 for the error of 1e-12 (1.4e-13 and up at dim 64)
    real = deformed_algebra.realization_series

    def planted(kind, params, n):
        out = [np.array(x) for x in real(kind, params, n)]
        x = out[series]
        k = order if x[order] != 0 else 0
        x[k] *= factor
        return out

    monkeypatch.setattr(deformed_algebra, "realization_series", planted)
    rows = _verify_rows(["--dim", "64", "--suite", "algebra"])
    relation = {k: v for k, v in rows.items() if k != "fock_build"}
    assert len(relation) == 8
    for name, (r, bound) in relation.items():
        assert r > 10 * bound, (name, r)


@pytest.mark.parametrize("target", ["B_TildeZ0_Cas1", "C_TildeZ0_Cas2",
                                    "A_Uzp_One", "C_Uzp_One", "H", "A"])
def test_verify_build_row_trips_on_one_wrong_entry(monkeypatch, target):
    # one entry of one built matrix off by a relative 1e-6, in a probed
    # column (j = 1; C is probed at e_2); the operators on a are held
    # through their transposes, so their entry sits at the transposed place
    name, _, kind = target.partition("_")
    col = 2 if name == "C" else 1
    real_build = cli.build_realization

    def build(k, params, cfg):
        tri = real_build(k, params, cfg)
        if k.name == kind:
            M = getattr(tri, name)
            i, j = (col, col + 1) if k in cli.ON_A else (col + 1, col)
            M[i, j] *= 1 + 1e-6
        return tri

    monkeypatch.setattr(cli, "build_realization", build)
    for attr, op in (("build_H", "H"), ("_build_A", "A")):
        real = getattr(cli.pseudo_hermitian, attr)

        def pseudo(mu, z, cfg, real=real, op=op):
            M = real(mu, z, cfg)
            if target == op:
                M[col + 2, col] *= 1 + 1e-6         # h starts at x^2
            return M

        monkeypatch.setattr(cli.pseudo_hermitian, attr, pseudo)
    # H and A are held by the pseudo suite's row, the realizations by the
    # algebra suite's
    suite, row = (("pseudo", "ladder_build") if target in ("H", "A")
                  else ("algebra", "fock_build"))
    rows = _verify_rows(["--dim", "64", "--suite", suite])
    r, bound = rows.pop(row)
    assert r > 1e3 * bound, r
    if target == "H":
        rows.pop("pseudo_hermiticity")      # it reads the built H too
    assert all(v[0] <= v[1] for v in rows.values())


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
    # path; the dheis console script calls the same run()
    proc = _run_cli(["spectrum", "--delta", "0", "--dim", "16"], timeout=60)
    assert proc.returncode == 0
    assert "h_eig" in proc.stdout


def _entry(argv):
    """A python -m deformed_heisenberg.cli child writing into pipes."""
    return subprocess.Popen(
        [sys.executable, "-m", "deformed_heisenberg.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_child_env())


def _outcome(proc):
    return proc.returncode, proc.stdout, proc.stderr


def _main_in_process(argv, capsys):
    try:
        rc = cli.main(argv)
    except SystemExit as e:             # argparse's usage errors
        rc = e.code
    return (rc, *capsys.readouterr())


# one request per subcommand; the sweep and state tables (279 kB, 90 kB)
# are more than a pipe and the stdout buffer hold
ENTRY_ARGVS = {
    "sweep-dispersion": ["sweep-dispersion", "--steps", "2000"],
    "state": ["state", "--dim", "2048"],
    "verify": ["verify", "--dim", "64"],
    "spectrum": ["spectrum", "--dim", "64", "--delta", "0.2", "--z", "0.02"],
}


@pytest.mark.parametrize("argv", ENTRY_ARGVS.values(), ids=ENTRY_ARGVS)
def test_entry_writes_the_bytes_of_main(argv, tmp_path, capsys):
    # the entry skips the interpreter's teardown, so all it writes must be
    # flushed or closed before it ends the process
    want = _main_in_process(argv, capsys)
    assert want[0] == 0
    assert _outcome(_run_cli(argv, timeout=60)) == want
    out = tmp_path / "table"            # the path is in the meta line
    argv = [*argv, "--out", str(out)]
    assert _main_in_process(argv, capsys) == (0, "", "")
    want = out.read_text()
    out.unlink()
    assert _outcome(_run_cli(argv, timeout=60)) == (0, "", "")
    assert out.read_text() == want


@pytest.mark.parametrize("argv", ENTRY_ARGVS.values(), ids=ENTRY_ARGVS)
def test_entry_into_a_pipe_closed_after_one_byte_exits_0(argv):
    with _entry(argv) as proc:
        assert proc.stdout.read(1) == ("{" if argv[0] == "verify" else "#")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == ""


def test_help_into_a_closed_pipe_exits_0():
    # the reader is gone before the child starts: run() flushes the help
    # text argparse left in the stdout buffer into the broken pipe
    with _entry(["--help"]) as proc:
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == ""


@pytest.mark.parametrize("argv, rc", [
    (["--help"], 0),
    (["verify", "--dim", "16", "--suite", "dispersion"], 1),
    (["state", "--dim", "4"], 2),
    (["bogus"], 2),
    (["state", "--dim", "256", "--z", "0.5", "--delta", "0.3", "--beta",
      "0.7", "--phi", "-0.3", "--theta", "0.2"], 3),
    (["spectrum", "--dim", "48"], 4),
], ids=["help", "invariant", "usage", "argparse", "convergence",
        "conditioning"])
def test_entry_exit_codes_and_messages_are_mains(argv, rc, monkeypatch,
                                                 capsys):
    monkeypatch.setenv("COLUMNS", "80")     # the help text's width
    want = _main_in_process(argv, capsys)
    assert want[0] == rc
    assert _outcome(_run_cli(argv, timeout=60)) == want


# a child whose gc.freeze writes the number of collector passes before it to
# fd 2, and whose first main() call writes whether the collector is on; it
# runs the entry as run(argv), as the dheis console script does after its
# library import, or as the python -m block with argv in sys.argv
_SPY_ENTRY = """
import gc, os, runpy, sys
passes = []
freeze = gc.freeze


def on_call(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "main":
        sys.setprofile(None)
        os.write(2, b"main: collector on=%d\\n" % gc.isenabled())


def spy():
    loaded = b" (numpy loaded)" if "numpy" in sys.modules else b""
    os.write(2, b"gc.freeze: %d passes%s\\n" % (len(passes), loaded))
    freeze()
    sys.setprofile(on_call)


gc.freeze = spy
how, sys.argv[1:] = sys.argv[1], sys.argv[2:]
gc.collect()
gc.callbacks.append(lambda phase, info: phase == "start" and passes.append(1))
if how == "run":
    from deformed_heisenberg import cli
    cli.run(sys.argv[1:])
else:
    runpy.run_module("deformed_heisenberg.cli", run_name="__main__",
                     alter_sys=True)
"""


def _spy_entry(how, argv, env=None):
    return subprocess.run([sys.executable, "-c", _SPY_ENTRY, how, *argv],
                          capture_output=True, text=True, timeout=60,
                          env=env or _child_env())


@pytest.mark.parametrize("argv, rc", [
    (["verify", "--dim", "32", "--suite", "dispersion"], 0),
    (["verify", "--dim", "16", "--suite", "dispersion"], 1),
    (["state", "--dim", "4"], 2),
], ids=["ok", "invariant", "usage"])
def test_entry_freezes_once_and_returns_main_exit_code(argv, rc, monkeypatch,
                                                       capsys):
    calls = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append(1))
    assert cli.main(argv) == rc
    assert calls == []
    capsys.readouterr()
    # run() ends its process, so it runs in a child; main() runs with the
    # collector on although the library import did not pause it
    proc = _spy_entry("run", argv)
    assert proc.returncode == rc
    assert proc.stderr.count("gc.freeze: ") == 1, proc.stderr
    assert "\nmain: collector on=1\n" in proc.stderr


def test_module_main_block_runs_the_entry(tmp_path):
    # the imports run with the collector paused, and main() with it on.  The
    # package runs from a copy whose bytecode cache the first child writes,
    # as an installed program has it: compiling cli.py from source would
    # allocate enough for one pass before its first line runs
    shutil.copytree(os.path.dirname(cli.__file__),
                    tmp_path / "deformed_heisenberg",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {**_child_env(), "PYTHONPATH": str(tmp_path)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for _ in range(2):
        proc = _spy_entry("module", ["state", "--dim", "4"], env)
    assert proc.returncode == 2
    assert proc.stderr == ("gc.freeze: 0 passes\nmain: collector on=1\n"
                           "error: dim must be >= 8\n")


@pytest.mark.parametrize("argv, rc, loaded", [
    (["state", "--dim", "8"], 0, ""),
    (["sweep-dispersion", "--steps", "3"], 0, ""),
    (["verify", "--dim", "16", "--suite", "dispersion"], 1, " (numpy loaded)"),
    (["spectrum", "--dim", "16", "--delta", "0.02"], 0, " (numpy loaded)"),
], ids=["state", "sweep", "verify", "spectrum"])
def test_module_entry_imports_numpy_before_the_freeze(argv, rc, loaded,
                                                      tmp_path):
    # the array subcommands import numpy with the collector still paused, so
    # its import runs no collector pass and its objects are frozen with the
    # rest; state and sweep-dispersion load no numpy at all.  A copy with
    # its bytecode cache
    # written, as in the test above
    shutil.copytree(os.path.dirname(cli.__file__),
                    tmp_path / "deformed_heisenberg",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {**_child_env(), "PYTHONPATH": str(tmp_path)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for _ in range(2):
        proc = _spy_entry("module", argv, env)
    assert proc.returncode == rc
    assert proc.stderr == (f"gc.freeze: 0 passes{loaded}\n"
                           "main: collector on=1\n")


# runs the entry as `python -m` does, in an interpreter where any import of
# numpy raises ImportError
_NO_NUMPY = """
import runpy, sys
sys.modules["numpy"] = None
runpy.run_module("deformed_heisenberg.cli", run_name="__main__",
                 alter_sys=True)
"""


@pytest.mark.parametrize("argv", [
    ["state", "--dim", "48", "--z", "0.01", "--delta", "0.2", "--phi", "0.7",
     "--beta", "1.3", "--theta", "-0.4"],
    ["state", "--dim", "48", "--z", "-0.02", "--delta", "0.3", "--beta",
     "0.8", "--format", "json"],
    ["state", "--dim", "8", "--z", "1e308"],
], ids=["csv", "json", "overflow"])
def test_state_runs_without_numpy(argv, capsys):
    # state's kernels are plain Python: the request, its table and its
    # overflow exit are the bytes of an in-process main() run
    rc = cli.main(argv)
    want = capsys.readouterr()
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY, *argv],
                          capture_output=True, text=True, timeout=60,
                          env=_child_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, want.out,
                                                           want.err)


@pytest.mark.parametrize("argv, rc", [
    (["sweep-dispersion", "--var", "phi", "--steps", "2000", "--z",
      "0.00323773", "--p", "0", "--beta", "1.31699", "--theta", "1.73882",
      "--delta", "0.242733"], 0),
    (["sweep-dispersion", "--var", "delta", "--min", "0", "--max", "0.9",
      "--steps", "1000", "--z", "0.00475909", "--p", "0.01", "--beta",
      "1.38319", "--theta", "0.0670167", "--phi", "2.69375", "--format",
      "json"], 0),
    (["sweep-dispersion", "--beta", "7.262834877752672e+49", "--p",
      "5.685684151177333e+38", "--steps", "4"], 3),
    (["sweep-dispersion", "--var", "delta", "--min", "0", "--max", "1.5",
      "--steps", "5"], 2),
], ids=["phi_csv", "delta_json", "overflow", "delta_range"])
def test_sweep_runs_without_numpy(argv, rc, capsys):
    # so are sweep-dispersion's: its tables, its negative-variance trailer,
    # its overflow exit and its delta range check
    assert cli.main(argv) == rc
    want = capsys.readouterr()
    assert (want.out == "") == (rc != 0)
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY, *argv],
                          capture_output=True, text=True, timeout=60,
                          env=_child_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, want.out,
                                                           want.err)


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full")
NO_SPACE = os.strerror(errno.ENOSPC)


@needs_dev_full
@pytest.mark.parametrize("argv", ENTRY_ARGVS.values(), ids=ENTRY_ARGVS)
def test_out_on_a_full_disk_exits_2(argv, monkeypatch, capsys):
    removed = []
    monkeypatch.setattr(cli.os, "remove", removed.append)
    assert cli.main([*argv, "--out", "/dev/full"]) == 2
    assert capsys.readouterr() == (
        "", f"error: cannot write --out /dev/full: {NO_SPACE}\n")
    assert removed == []                # a device is not a partial file


@needs_dev_full
@pytest.mark.parametrize("argv", ENTRY_ARGVS.values(), ids=ENTRY_ARGVS)
def test_stdout_on_a_full_disk_exits_2(argv, monkeypatch, capsys):
    with open("/dev/full", "w") as full:
        monkeypatch.setattr(sys, "stdout", full)
        assert cli.main(argv) == 2
        full.flush()                    # main pointed it at devnull
    assert capsys.readouterr().err == f"error: cannot write stdout: {NO_SPACE}\n"


def _entry_into_full(argv, stream, unbuffered=False):
    """A python -m deformed_heisenberg.cli child with stream ("stdout" or
    "stderr") on /dev/full and the other one on a pipe; unbuffered sets
    PYTHONUNBUFFERED."""
    env = {**_child_env(), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {})}
    with open("/dev/full", "w") as full:
        pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE,
                 stream: full}
        return subprocess.run(
            [sys.executable, "-m", "deformed_heisenberg.cli", *argv],
            text=True, timeout=60, env=env, **pipes)


FULL_DISK_CASES = {**{f"{name}-out": (argv, True, False)
                      for name, argv in ENTRY_ARGVS.items()},
                   **{f"{name}-stdout": (argv, False, False)
                      for name, argv in ENTRY_ARGVS.items()},
                   "help-stdout": (["--help"], False, False),
                   # argparse swallows the failed write of the help text
                   "help-stdout-unbuffered": (["--help"], False, True)}


@needs_dev_full
@pytest.mark.parametrize("argv, to_out, unbuffered", FULL_DISK_CASES.values(),
                         ids=FULL_DISK_CASES)
def test_entry_on_a_full_disk_exits_2(argv, to_out, unbuffered):
    if to_out:
        proc = _run_cli([*argv, "--out", "/dev/full"], timeout=60)
        want = f"error: cannot write --out /dev/full: {NO_SPACE}\n"
    else:
        proc = _entry_into_full(argv, "stdout", unbuffered)
        want = f"error: cannot write stdout: {NO_SPACE}\n"
    assert (proc.returncode, proc.stderr) == (2, want)
    assert os.path.exists("/dev/full")


# an error line from main, one from argparse, and a warning ahead of a table
STDERR_ARGVS = {
    "usage": ["state", "--dim", "4"],
    "argparse": ["bogus"],
    "warning": ["state", "--dim", "8", "--delta", "0", "--beta", "1",
                "--theta", "3", "--z", "0.01"],
}


@needs_dev_full
@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", STDERR_ARGVS.values(), ids=STDERR_ARGVS)
def test_entry_with_stderr_on_a_full_disk_exits_2(argv, unbuffered):
    # nothing more is printed, and a table already written stays
    want = _run_cli(argv, timeout=60).stdout
    proc = _entry_into_full(argv, "stderr", unbuffered)
    assert (proc.returncode, proc.stdout) == (2, want)


@pytest.mark.parametrize("out", ["/dev/null", "/dev/stdout"])
def test_error_exit_removes_no_device_or_symlink_out(out, monkeypatch,
                                                     capsys):
    # exit 3 removes a partial --out file, but never a device node or a
    # symlink such as /dev/stdout, whatever it points to
    if not os.path.exists(out):
        pytest.skip(f"no {out}")
    removed = []
    monkeypatch.setattr(cli.os, "remove", removed.append)
    assert cli.main(["state", "--dim", "256", "--z", "0.5", "--delta", "0.3",
                     "--beta", "0.7", "--phi", "-0.3", "--theta", "0.2",
                     "--out", out]) == 3
    assert removed == []
    capsys.readouterr()


def _limit_file_size():
    """A child's preexec_fn: a write past 1000 bytes fails with EFBIG."""
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (1000, 1000))


@pytest.mark.parametrize("argv", ENTRY_ARGVS.values(), ids=ENTRY_ARGVS)
def test_entry_removes_a_partial_out_file_it_could_not_write(argv, tmp_path):
    # each table is longer than 1000 bytes: the write or the close that
    # passes the limit fails, and the entry removes what it wrote
    out = tmp_path / "table"
    proc = subprocess.run(
        [sys.executable, "-m", "deformed_heisenberg.cli", *argv, "--out",
         str(out)], capture_output=True, text=True, timeout=60,
        env=_child_env(), preexec_fn=_limit_file_size)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: cannot write --out {out}: {os.strerror(errno.EFBIG)}\n")
    assert not out.exists()


_IMPORT_SET = """
import contextlib, io, sys
import deformed_heisenberg.cli as cli
unused = ("json", "fractions", "decimal", "scipy", "mpmath")
print(*[m for m in unused if m in sys.modules])
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(rc, *[m for m in unused if m in sys.modules])
"""


def test_state_request_loads_no_unused_module():
    # json is imported where a JSON document is written, fractions (and
    # decimal, which it imports) only by aes_series' exact-integer reference
    # tables; a CSV state request needs neither, nor scipy or the tests'
    # mpmath
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_SET, "state", "--dim", "48", "--z",
         "0.01", "--delta", "0.2"],
        capture_output=True, text=True, timeout=60,
        env=_child_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n0\n", "")


def test_console_script_names_the_entry():
    import tomllib
    root = os.path.dirname(os.path.dirname(os.path.dirname(cli.__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"dheis": "deformed_heisenberg.cli:run"}


def test_warning_is_one_line_without_install_path():
    # mu = 0 with arg(lam) = 3 lies outside the z > 0 convergence window
    proc = _run_cli(["state", "--dim", "64", "--z", "0.01", "--delta", "0",
                     "--beta", "1", "--theta", "3"], timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == (
        "warning: PhaseWindow: mu=0 series phase arg(lam)=3.0000 outside the "
        "convergence window for z=0.01\n")


def test_main_restores_the_warning_format(capsys):
    before = warnings.formatwarning
    with pytest.warns(PhaseWindow):
        assert cli.main(["state", "--dim", "16", "--z", "0.01", "--delta",
                         "0", "--beta", "1", "--theta", "3"]) == 0
    assert warnings.formatwarning is before
    capsys.readouterr()
