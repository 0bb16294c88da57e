"""Output checks for dheis requests, made from outside the program.

Each checker takes the request's argument vector and its stdout bytes and
returns "" when the output is correct, or the reason it is not.  They use
numpy and scipy only and never import ``deformed_heisenberg``: the expected
values come from the request's own arguments and from closed forms.
"""

import argparse
import json
import math

import numpy as np
import scipy.linalg

# |(e^{z a+} a + mu a+ - lam) c| / |c| over the guarded block; the shipped
# amplitudes measure 2e-16 to 4e-16.
STATE_RESIDUAL_BOUND = 1e-10
# sum |c_n|^2 over the emitted rows: the first dim amplitudes of a state
# normalized by its full series
STATE_NORM_TOL = 1e-6
# |eigenvalue - n| for H and H~ at the benchmark's |mu| <= 0.05
SPECTRUM_DEVIATION_BOUND = 1e-6
REL_TOL = 1e-9
# sweep-dispersion writes validity_flag as 1/0 on --var phi but as True/False
# on --var delta (a numpy bool misses the CLI's bool formatting); both
# spellings are read as the flag's value
_BOOL_CELLS = {"True": 1.0, "False": 0.0}


def _request_args(argv):
    """The subset of the dheis argument grammar the checks read."""
    ap = argparse.ArgumentParser(add_help=False)
    ap.add_argument("subcommand")
    for name, default in (("delta", 0.5), ("phi", 0.0), ("beta", 1.0),
                          ("theta", 0.0), ("z", 0.001), ("p", 0.0),
                          ("min", -math.pi), ("max", math.pi)):
        ap.add_argument(f"--{name}", type=float, default=default)
    for name, default in (("dim", 64), ("guard", -1), ("steps", 200)):
        ap.add_argument(f"--{name}", type=int, default=default)
    ap.add_argument("--var", default="phi")
    args, _ = ap.parse_known_args(argv)
    return args


def _parse_csv(text, header):
    """(rows as a float array, {diagnostic: value}) or raise ValueError."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise ValueError("missing metadata line")
    if lines[1] != ",".join(header):
        raise ValueError(f"header {lines[1]!r}")
    rows, diag = [], {}
    for line in lines[2:]:
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            diag[key] = val
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row with {len(cells)} cells: {line!r}")
        rows.append([_BOOL_CELLS[c] if c in _BOOL_CELLS
                     else complex(c) if "j" in c else float(c) for c in cells])
    return np.array(rows, dtype=complex).reshape(-1, len(header)), diag


def _close(a, b, tol=REL_TOL):
    return np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b)))


def check_state(argv, out: bytes) -> str:
    a = _request_args(argv)
    rows, _ = _parse_csv(out.decode(), ["n", "re_c", "im_c", "abs_sq"])
    if len(rows) != a.dim:
        return f"state: {len(rows)} rows, expected dim={a.dim}"
    rows = rows.real
    if not np.array_equal(rows[:, 0], np.arange(a.dim)):
        return "state: n column is not 0..dim-1"
    c = rows[:, 1] + 1j * rows[:, 2]
    if not _close(rows[:, 3], np.abs(c) ** 2, 1e-12):
        return "state: abs_sq inconsistent with re_c, im_c"
    total = float(rows[:, 3].sum())
    if abs(total - 1.0) > STATE_NORM_TOL:
        return f"state: sum |c|^2 = {total!r}, expected 1"
    guard = a.dim // 4 if a.guard == -1 else a.guard
    kept = a.dim - guard
    ad = np.diag(np.sqrt(np.arange(1, a.dim, dtype=float)), -1)
    lam = a.beta * np.exp(1j * a.theta)
    mu = a.delta * np.exp(1j * a.phi)
    op = (scipy.linalg.expm(a.z * ad) @ ad.T + mu * ad
          - lam * np.eye(a.dim))
    resid = float(np.linalg.norm((op @ c)[:kept]) / np.linalg.norm(c))
    if not resid <= STATE_RESIDUAL_BOUND:
        return f"state: eigen-residual {resid:.3e} > {STATE_RESIDUAL_BOUND:.0e}"
    return ""


def check_sweep(argv, out: bytes) -> str:
    a = _request_args(argv)
    header = ["grid_value", "var_x_mus", "var_p_mus", "var_x_def",
              "var_p_def", "product_def", "srur_bound", "validity_flag"]
    rows, _ = _parse_csv(out.decode(), header)
    if len(rows) != a.steps:
        return f"sweep: {len(rows)} rows, expected steps={a.steps}"
    rows = rows.real
    if not np.all(np.isfinite(rows)):
        return "sweep: non-finite value"
    grid = rows[:, 0]
    if not np.all(np.diff(grid) > 0):
        return "sweep: grid is not increasing"
    if not _close(grid, np.linspace(a.min, a.max, a.steps)):
        return "sweep: grid does not span [min, max]"
    delta, phi = (a.delta, grid) if a.var == "phi" else (grid, a.phi)
    r2 = 2 * (1 - delta * delta)
    base = 1 + delta * delta
    if not (_close(rows[:, 1], (base - 2 * delta * np.cos(phi)) / r2)
            and _close(rows[:, 2], (base + 2 * delta * np.cos(phi)) / r2)):
        return "sweep: var_x_mus/var_p_mus differ from the closed form"
    if not _close(rows[:, 5], rows[:, 3] * rows[:, 4], 1e-12):
        return "sweep: product_def != var_x_def * var_p_def"
    if not np.all(rows[:, 6] >= 0.25):
        return "sweep: srur_bound below 1/4"
    if not np.all((rows[:, 7] == 0) | (rows[:, 7] == 1)):
        return "sweep: validity_flag is not 0/1"
    return ""


def check_spectrum(argv, out: bytes) -> str:
    a = _request_args(argv)
    header = ["n", "h_eig", "h_deviation", "ht_eig", "ht_deviation"]
    rows, diag = _parse_csv(out.decode(), header)
    if len(rows) != a.dim:
        return f"spectrum: {len(rows)} rows, expected dim={a.dim}"
    rows = rows.real
    n = np.arange(a.dim)
    if not np.array_equal(rows[:, 0], n):
        return "spectrum: n column is not 0..dim-1"
    for col, dev_col, key in ((1, 2, "h_max_deviation"),
                              (3, 4, "ht_max_deviation")):
        dev = np.abs(rows[:, col] - n)
        if not _close(rows[:, dev_col], dev, 1e-12):
            return f"spectrum: column {header[dev_col]} != |eig - n|"
        reported = float(diag.get(key, "nan"))
        if not reported <= SPECTRUM_DEVIATION_BOUND:
            return f"spectrum: {key}={reported!r} > {SPECTRUM_DEVIATION_BOUND}"
        if reported < dev.max():
            return f"spectrum: {key} below the largest row deviation"
    return ""


def check_verify(argv, out: bytes) -> str:
    try:
        report = json.loads(out)
    except ValueError as e:
        return f"verify: output is not JSON ({e})"
    if report.get("passed") is not True:
        bad = [c["name"] for c in report.get("checks", []) if not c["passed"]]
        return f"verify: passed is not true (failed: {', '.join(bad)})"
    if not report.get("checks"):
        return "verify: no checks reported"
    return ""


CHECKERS = {"state": check_state, "sweep-dispersion": check_sweep,
            "spectrum": check_spectrum, "verify": check_verify}


def check_output(argv, out: bytes) -> str:
    """"" if stdout of ``dheis argv`` is correct, else the reason."""
    try:
        return CHECKERS[argv[0]](argv, out)
    except (ValueError, KeyError, UnicodeDecodeError) as e:
        return f"{argv[0]}: unparseable output ({type(e).__name__}: {e})"
