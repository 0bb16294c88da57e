import json

import pytest

import checks

STATE = ["state", "--dim", "24", "--z", "0.01", "--p", "0", "--delta", "0.3",
         "--phi", "0.4", "--beta", "0.8", "--theta", "-0.3"]
SWEEP_PHI = ["sweep-dispersion", "--var", "phi", "--steps", "50",
             "--z", "0.002", "--p", "0.01", "--beta", "1", "--theta", "0.3",
             "--delta", "0.4"]
SWEEP_DELTA = ["sweep-dispersion", "--var", "delta", "--steps", "50",
               "--z", "0.002", "--p", "0", "--beta", "1", "--theta", "0.3",
               "--min", "0", "--max", "0.9", "--phi", "0.7"]
SPECTRUM = ["spectrum", "--dim", "32", "--delta", "0.03", "--phi", "1.1",
            "--z", "0.005"]
VERIFY = ["verify", "--dim", "64"]


def _lines(out):
    return out.decode().splitlines(keepends=True)


def _edit_row(out, index, edit):
    """Apply edit(cells) to data row `index` of a CSV output."""
    lines = _lines(out)
    data = [i for i, l in enumerate(lines[2:], 2) if not l.startswith("#")]
    cells = lines[data[index]].rstrip("\n").split(",")
    lines[data[index]] = ",".join(edit(cells)) + "\n"
    return "".join(lines).encode()


def _drop_row(out, index=-1):
    lines = _lines(out)
    data = [i for i, l in enumerate(lines[2:], 2) if not l.startswith("#")]
    del lines[data[index]]
    return "".join(lines).encode()


def _neg(cell):
    return cell[1:] if cell.startswith("-") else "-" + cell


@pytest.mark.parametrize("argv", [STATE, SWEEP_PHI, SWEEP_DELTA, SPECTRUM,
                                  VERIFY], ids=lambda a: " ".join(a[:2]))
def test_real_output_passes(dheis, argv):
    assert checks.check_output(argv, dheis(argv)) == ""


@pytest.mark.parametrize("argv", [STATE, SWEEP_PHI, SPECTRUM],
                         ids=lambda a: a[0])
def test_truncated_csv_is_rejected(dheis, argv):
    out = dheis(argv)
    assert "rows, expected" in checks.check_output(argv, _drop_row(out))
    assert checks.check_output(argv, out[:len(out) // 2]) != ""


def test_state_flipped_amplitude_is_rejected(dheis):
    out = dheis(STATE)
    rows = [l.split(",") for l in out.decode().splitlines()[2:]
            if not l.startswith("#")]
    big = max(range(len(rows)), key=lambda i: float(rows[i][3]))

    def flip(cells):
        return [cells[0], _neg(cells[1]), _neg(cells[2]), cells[3]]
    reason = checks.check_output(STATE, _edit_row(out, big, flip))
    assert "eigen-residual" in reason


def test_state_bad_abs_sq_and_norm_are_rejected(dheis):
    out = dheis(STATE)
    bad = _edit_row(out, 0, lambda c: c[:3] + [repr(2 * float(c[3]))])
    assert "abs_sq" in checks.check_output(STATE, bad)
    scaled = _edit_row(out, 0, lambda c: [c[0], repr(2 * float(c[1])),
                                          repr(2 * float(c[2])),
                                          repr(4 * float(c[3]))])
    assert checks.check_output(STATE, scaled) != ""


def test_sweep_corruptions_are_rejected(dheis):
    out = dheis(SWEEP_DELTA)
    mus = _edit_row(out, 3, lambda c: [c[0], repr(float(c[1]) * 1.001)] + c[2:])
    assert "closed form" in checks.check_output(SWEEP_DELTA, mus)
    prod = _edit_row(out, 3, lambda c: c[:5] + [repr(float(c[5]) * 1.01)] + c[6:])
    assert "product_def" in checks.check_output(SWEEP_DELTA, prod)
    srur = _edit_row(out, 3, lambda c: c[:6] + ["0.2"] + c[7:])
    assert "srur_bound" in checks.check_output(SWEEP_DELTA, srur)
    grid = _edit_row(out, 3, lambda c: ["-1"] + c[1:])
    assert "grid" in checks.check_output(SWEEP_DELTA, grid)


def test_spectrum_large_deviation_is_rejected(dheis):
    out = dheis(SPECTRUM).decode()
    bad = "".join(("# h_max_deviation=0.5\n"
                   if l.startswith("# h_max_deviation=") else l)
                  for l in out.splitlines(keepends=True))
    assert "h_max_deviation" in checks.check_output(SPECTRUM, bad.encode())
    row = _edit_row(out.encode(), 5, lambda c: [c[0], "5.5"] + c[2:])
    assert "h_deviation" in checks.check_output(SPECTRUM, row)


def test_verify_failed_report_is_rejected(dheis):
    report = json.loads(dheis(VERIFY))
    report["passed"] = False
    report["checks"][0]["passed"] = False
    reason = checks.check_output(VERIFY, json.dumps(report).encode())
    assert report["checks"][0]["name"] in reason
    assert "not JSON" in checks.check_output(VERIFY, b'{"passed": tr')
