"""Command-line front end: dheis {sweep-dispersion | state | verify | spectrum}.

Each subcommand accepts only the flags it reads (SUBCOMMAND_FLAGS):
  sweep-dispersion: delta phi beta theta z p var min max steps format out
  state: delta phi beta theta z p (0 only) dim tol format out
  verify: dim guard suite out (the report is always JSON)
  spectrum: delta phi z dim format out

Emits deterministic machine-readable tables (CSV with a '#' metadata line, or
JSON mirroring the same schema).  Exit codes: 0 ok, 1 invariant failure,
2 usage, 3 convergence failure or a state with no finite norm,
4 conditioning; main() alone maps errors to them.  A table is written only
once it is complete, and a partial --out file is removed on every error exit.
"""

import argparse
import cmath
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import aes_series, dispersion, paragrassmann, pseudo_hermitian
from .deformed_algebra import (DeformationParams, RealizationKind,
                               build_realization, commutator_residual_tilde,
                               commutator_residual_uzp)
from .errors import (BadParams, DeformedHeisenbergError, IllConditioned,
                     NonNormalizable, NotConverged)
from .fock_core import TruncationConfig, coherent_state, guarded_norm

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3
EXIT_CONDITIONING = 4


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, complex):
        return f"{_fmt(v.real)}{'+' if v.imag >= 0 else '-'}{_fmt(abs(v.imag))}j"
    return str(v)


def _jsonable(v):
    # complex has no JSON form; everything else passes through natively
    if isinstance(v, complex):
        return _fmt(v)
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


def _meta(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def _open_out(path):
    try:
        return open(path, "w")
    except OSError as e:
        raise BadParams(f"cannot write --out {path}: {e.strerror}") from e


class _Writer:
    """Collects formatted rows and writes the whole table to --out (or
    stdout) in finish, so a command that fails prints none of it; as a
    context manager it closes the file and removes it if the block raises."""

    def __init__(self, path, fmt, meta, header):
        self.path = path
        self.fmt = fmt
        self.meta = meta
        self.header = header
        self.rows = []                  # CSV lines, or JSON row lists
        self.fh = _open_out(path) if path else sys.stdout

    def row(self, values):
        if self.fmt == "csv":
            self.rows.append(",".join(_fmt(v) for v in values) + "\n")
        else:
            self.rows.append([_jsonable(v) for v in values])

    def finish(self, diagnostics=None):
        if self.fmt == "csv":
            kv = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(self.meta.items()))
            self.fh.write(f"# {kv}\n" + ",".join(self.header) + "\n")
            self.fh.writelines(self.rows)
            self.fh.write("".join(f"# {k}={_fmt(v)}\n" for k, v in
                                  sorted((diagnostics or {}).items())))
        else:
            doc = {"meta": {k: _jsonable(v) for k, v in self.meta.items()},
                   "header": self.header, "rows": self.rows}
            if diagnostics:
                doc["diagnostics"] = {k: _jsonable(v) for k, v in
                                      sorted(diagnostics.items())}
            json.dump(doc, self.fh, indent=1, sort_keys=True)
            self.fh.write("\n")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.path:
            self.fh.close()
            if exc_type is not None and os.path.exists(self.path):
                os.remove(self.path)


VERIFY_SUITES = ("fock", "algebra", "series", "paragrassmann", "dispersion",
                 "pseudo")


def _check_common(args) -> str:
    for name, v in vars(args).items():
        if isinstance(v, float) and not math.isfinite(v):
            return f"--{name} must be finite"
    if getattr(args, "dim", 8) < 8:
        return "dim must be >= 8"
    if hasattr(args, "guard") and not (args.guard == -1
                                       or 0 <= args.guard < args.dim):
        return "guard must be -1 (dim // 4) or in 0..dim-1"
    if getattr(args, "suite", None) not in (None, *VERIFY_SUITES):
        return f"unknown suite {args.suite!r}"
    if getattr(args, "steps", 2) < 2:
        return "steps must be >= 2"
    if hasattr(args, "min") and not (args.min < args.max):
        return "min must be < max"
    if getattr(args, "tol", 1.0) <= 0:
        return "tol must be > 0"
    return ""


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

SWEEP_HEADER = [f.name for f in dataclasses.fields(dispersion.SweepRow)]


def cmd_sweep_dispersion(args) -> int:
    rows = dispersion.sweep_rows(
        delta=args.delta, phi=args.phi, beta=args.beta, theta=args.theta,
        varying=args.var, grid=np.linspace(args.min, args.max, args.steps),
        z=args.z, p=args.p)
    with _Writer(args.out, args.format, _meta(args), SWEEP_HEADER) as w:
        negative = 0
        for row in rows:
            w.row([getattr(row, name) for name in SWEEP_HEADER])
            negative += row.var_x_def < 0 or row.var_p_def < 0
        # a first-order variance goes negative where x2_mean - mean_x^2
        # cancels (large beta) or the expansion breaks down (delta near 1);
        # validity_flag alone does not say the value is meaningless
        w.finish(diagnostics={"negative_variance_rows": negative}
                 if negative else None)
    return EXIT_OK


def cmd_state(args) -> int:
    if args.p != 0:
        raise BadParams("state emission covers the one-parameter nu=0 "
                        "squeezed family; use --p 0")
    params = DeformationParams.from_polar(z=args.z, delta=args.delta,
                                          phi=args.phi, beta=args.beta,
                                          theta=args.theta, gamma=0.0,
                                          eta_phase=0.0)
    header = ["n", "re_c", "im_c", "abs_sq"]
    with _Writer(args.out, args.format, _meta(args), header) as w:
        n_max = args.dim - 1
        # one run of the recurrence serves the table and the norm sum
        amps = aes_series._amplitudes(params, max(96, n_max))
        c, diag = aes_series.fock_coefficients(params, n_max, tol=args.tol,
                                               amps=amps)
        c0, norm_diag = aes_series.normalization_c0(params, n_max=max(96, n_max),
                                                    tol=min(args.tol, 1e-12),
                                                    amps=amps)
        cn = c0 * c
        for n in range(len(cn)):
            w.row([n, cn[n].real, cn[n].imag, abs(cn[n]) ** 2])
        w.finish(diagnostics={"c0": c0, "tail_estimate": max(
            diag.tail_estimate, norm_diag.tail_estimate)})
    return EXIT_OK


def _check_xp(cfg):
    X = dispersion.position_operator(cfg)
    P = dispersion.momentum_operator(cfg)
    return guarded_norm(X @ P - P @ X - 1j * np.eye(cfg.dim), cfg)


def _check_tilde(kind, z, cfg):
    params = DeformationParams(z=z, p=0.0, lam=0, mu=0, nu=0)
    triple = build_realization(kind, params, cfg)
    return max(commutator_residual_tilde(triple, params, cfg))


def _check_uzp(p, cfg):
    params = DeformationParams(z=0.02, p=p, lam=0, mu=0, nu=0)
    triple = build_realization(RealizationKind.Uzp_One, params, cfg)
    return max(commutator_residual_uzp(triple, params, cfg))


def _check_routes():
    params = DeformationParams(z=0.5, p=0.0, lam=0.7 + 0.2j, mu=0.3 - 0.1j,
                               nu=0)
    _, diag = aes_series.fock_coefficients(params, 10, cross_check=True)
    return diag.tail_estimate


def _check_eigenstate(cfg):
    sp = DeformationParams.from_polar(z=0.01, p=0.0, delta=0.4, phi=0.9,
                                      beta=1.2, theta=0.4, gamma=0.0,
                                      eta_phase=0.0)
    psi = aes_series.deformed_squeezed_state(sp, cfg)
    op = aes_series.aes_operator(sp, cfg)
    return float(np.linalg.norm((op @ psi - sp.lam * psi)[:cfg.kept]))


def _check_ode():
    spec = paragrassmann.GrassmannODESpec(lam=2, mu=3, nu=1, k0=3)
    worst = 0.0
    for s in paragrassmann.solve_appendix_a(spec):
        r = paragrassmann.residual_check(s, spec)
        worst = max(worst, 0.0 if r.is_zero() else 1.0)
    return worst


def _check_gamma(cfg):
    matrix = dispersion.gamma_matrix_table(0.3, 0.7, 1.0, 0.2, 3, cfg)
    return max(abs(dispersion.gamma_element(k, l, 0.3, 0.7, 1.0, 0.2)
                   - matrix[k, l]) for k in range(4) for l in range(4))


def _check_mus():
    vx, vp = dispersion.mus_dispersions(0.5, math.pi / 2)
    return abs(vx - 5 / 6) + abs(vp - 5 / 6)


def _verify_checks(args):
    """(suite, name, residual, bound, error) rows for the checks of --suite
    (all suites when it is unset).

    A check that raises a package error or an ArithmeticError is reported as
    failed (residual inf, error "<class>: <message>") instead of killing the
    rest of the report; small boxes trip the tail guards.  error is None for
    a check that ran.
    """
    cfg = TruncationConfig(dim=args.dim, guard=args.guard)
    checks = [
        ("fock", "canonical_xp_commutator", lambda: _check_xp(cfg), 1e-10),
        ("fock", "coherent_normalization",
         lambda: abs(np.linalg.norm(coherent_state(1.0, cfg)) - math.e ** 0.5),
         1e-8),
    ]
    # the algebra residuals read <= 6.3e-14 up to dim 256 and 2.1e-13 at dim
    # 512; 1e-11 leaves two digits of headroom, not the five a broken
    # realization or matrix route would need
    for z in (0.0, 0.02, -0.02):
        for kind in (RealizationKind.TildeZ0_Cas1,
                     RealizationKind.TildeZ0_Cas2):
            checks.append(("algebra", f"tilde_residual_{kind.name}_z{z}",
                           lambda kind=kind, z=z: _check_tilde(kind, z, cfg),
                           1e-11))
    for p in (0.1, 0.4):
        checks.append(("algebra", f"uzp_residual_p{p}",
                       lambda p=p: _check_uzp(p, cfg), 1e-11))
    checks += [
        ("series", "coefficient_route_agreement", _check_routes, 1e-7),
        ("series", "squeezed_eigenstate_residual",
         lambda: _check_eigenstate(cfg), 1e-7),
        ("paragrassmann", "exact_ode_residual", _check_ode, 0.5),
        ("dispersion", "gamma_closed_vs_matrix", lambda: _check_gamma(cfg),
         1e-8),
        ("dispersion", "mus_point", _check_mus, 1e-12),
    ]
    if args.suite in (None, "pseudo"):
        # reference box for the pseudo bounds; eta's condition number grows
        # fast with dim, so the stated tolerances are tied to this size.  The
        # box reads 1.2e-9, 1.4e-13 and 2.5e-14: each bound keeps about one
        # to three digits of headroom, not the six a broken metric would use
        ref = TruncationConfig(48, 12)
        sysm = pseudo_hermitian.build_system(0.2, 0.02, ref)
        checks += [
            ("pseudo", "pseudo_hermiticity",
             lambda: pseudo_hermitian.pseudo_hermiticity_residual(sysm), 1e-8),
            ("pseudo", "rho_g_unitarity",
             lambda: pseudo_hermitian.unitarity_check(sysm), 1e-10),
            ("pseudo", "commutators",
             lambda: max(pseudo_hermitian.commutator_checks(sysm)), 1e-11),
        ]
    rows = []
    for suite, name, thunk, bound in checks:
        if args.suite not in (None, suite):
            continue
        try:
            r, error = float(thunk()), None
        except (DeformedHeisenbergError, ArithmeticError) as e:
            r, error = math.inf, f"{type(e).__name__}: {e}"
        rows.append((suite, name, r, bound, error))
    return rows


def _check_report(suite, name, residual, bound, error) -> dict:
    check = {"suite": suite, "name": name, "residual": _fmt(residual),
             "bound": _fmt(bound), "passed": bool(residual <= bound)}
    if error is not None:
        check["error"] = error
    return check


def cmd_verify(args) -> int:
    rows = _verify_checks(args)
    report = {"meta": _meta(args),
              "checks": [_check_report(*r) for r in rows]}
    report["passed"] = all(c["passed"] for c in report["checks"])
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if args.out:
        with _open_out(args.out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if report["passed"] else EXIT_INVARIANT


def cmd_spectrum(args) -> int:
    cfg = TruncationConfig(dim=args.dim)
    mu = args.delta * cmath.exp(1j * args.phi)
    header = ["n", "h_eig", "h_deviation", "ht_eig", "ht_deviation"]
    with _Writer(args.out, args.format, _meta(args), header) as w:
        sysm = pseudo_hermitian.build_system(mu, args.z, cfg)
        rep_h = pseudo_hermitian.spectrum_report(sysm, "pseudo")
        rep_ht = pseudo_hermitian.spectrum_report(sysm, "hermitian")
        for n in range(cfg.dim):
            eh = rep_h.eigenvalues[n].real
            et = rep_ht.eigenvalues[n].real
            w.row([n, eh, abs(eh - n), et, abs(et - n)])
        w.finish(diagnostics={
            "eta_condition": sysm.eta_condition,
            "h_max_deviation": rep_h.max_deviation_from_integers,
            "ht_max_deviation": rep_ht.max_deviation_from_integers})
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# every flag once, as add_argument keywords; dest is the flag name
FLAGS = {
    "delta": dict(type=float, default=0.5),
    "phi": dict(type=float, default=0.0),
    "beta": dict(type=float, default=1.0),
    "theta": dict(type=float, default=0.0),
    "z": dict(type=float, default=0.001),
    "p": dict(type=float, default=0.0),
    "var": dict(choices=("phi", "delta"), default="phi"),
    "min": dict(type=float, default=-math.pi),
    "max": dict(type=float, default=math.pi),
    "steps": dict(type=int, default=200),
    "dim": dict(type=int, default=64),
    "guard": dict(type=int, default=-1),
    "tol": dict(type=float, default=1e-10),
    "suite": dict(help=f"restrict to one suite ({', '.join(VERIFY_SUITES)})"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "out": {},
}

# the flags each subcommand reads, and no others
SUBCOMMAND_FLAGS = {
    "sweep-dispersion": ("delta", "phi", "beta", "theta", "z", "p", "var",
                         "min", "max", "steps", "format", "out"),
    "state": ("delta", "phi", "beta", "theta", "z", "p", "dim", "tol",
              "format", "out"),
    "verify": ("dim", "guard", "suite", "out"),
    "spectrum": ("delta", "phi", "z", "dim", "format", "out"),
}

_COMMANDS = {
    "sweep-dispersion": (cmd_sweep_dispersion,
                         "variance table over a phi or delta grid"),
    "state": (cmd_state, "Fock amplitudes of a deformed squeezed state"),
    "verify": (cmd_verify, "run the invariant suites (JSON report)"),
    "spectrum": (cmd_spectrum, "H and H~ spectra with deviations"),
}


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="dheis",
        description="Deformed Heisenberg algebra states: data tables and checks")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (func, text) in _COMMANDS.items():
        flags = SUBCOMMAND_FLAGS[name]
        sp = sub.add_parser(name, help=f"{text}; flags: "
                            + " ".join(f"--{f}" for f in flags))
        for flag in flags:
            sp.add_argument(f"--{flag}", **FLAGS[flag])
        sp.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    msg = _check_common(args)
    if msg:
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_USAGE
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader closed stdout (dheis ... | head): stop quietly, and point
        # stdout at devnull so that the interpreter's final flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except BadParams as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (NotConverged, NonNormalizable) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except IllConditioned as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONDITIONING
    except DeformedHeisenbergError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
