"""Command-line front end: dheis {sweep-dispersion | state | verify | spectrum}.

Each subcommand accepts only the flags it reads (SUBCOMMAND_FLAGS):
  sweep-dispersion: delta phi beta theta z p var min max steps format out
  state: delta phi beta theta z p (0 only) dim format out
  verify: dim suite out (the report is always JSON)
  spectrum: delta phi z dim format out

state's diagnostics: c0, the norm factor; route_deviation, the gap between
the recurrence and the vacuum-image route (exit 3 above
aes_series.ROUTE_DEVIATION_BOUND); tail_estimate, the norm series' remainder.

Emits deterministic machine-readable tables (CSV with a '#' metadata line, or
JSON mirroring the same schema).  Every subcommand opens its output, --out
or stdout, in one writer, _Writer, before any work; sweep-dispersion, state
and spectrum hand it their whole table as columns, and a CSV body is one
template formatted once.  Exit codes: 0 ok, 1 invariant failure, 2 usage,
3 convergence failure or a state with no finite norm,
4 conditioning; main() alone maps errors to them, package errors through
EXIT_CODES.  A table is written only once it is complete, and a partial
--out file is removed on every error exit.  An output that cannot be
written ends in one line and exit 2: an --out that cannot be opened, or a
write, flush or close of --out or stdout that fails (a full disk) prints
"error: cannot write <--out path | stdout>: <reason>".
A warning raised while a subcommand runs goes to stderr as one line,
"warning: <category>: <message>", with no install path or source line.
numpy's floating-point errors are ignored while verify or spectrum runs
(one errstate context, in main): a kernel past the float range is reported
by the package's own finiteness checks, as an error and its exit code,
never as a numpy RuntimeWarning.  Library calls outside main keep numpy's
reporting.  state and sweep-dispersion run on plain Python floats, which
never warn: their kernels turn an overflow into inf or nan entries, which
the same checks report, and an ArithmeticError that Python raises where
numpy returned inf ends a sweep in the same convergence failure.

run() is the process entry (``python -m deformed_heisenberg.cli`` and the
dheis console script) and its one way out.  Under ``python -m`` a request
starts in four steps: pause, import, freeze, resume.  The package imports
nothing, so this module runs before numpy loads, and run as __main__ its
first statement pauses the cyclic collector (gc.disable): the imports run
no collector pass.  run() freezes the heap (gc.freeze), so the collector
never walks the import-time objects, and only then resumes the collector
(gc.enable) and calls main(); resumed before the freeze, its first pass
would walk every import-time object once.  The dheis console script imports
this module as a library module and then calls run(), so that script starts
unpaused: its imports pay the collector passes, and run() freezes and
resumes as above.  Imported as a library module (tests, the traced
benchmark run), this module leaves the collector as it found it.

run() flushes stdout and stderr and ends the process with os._exit(exit
code); argparse's SystemExit (a usage error, --help) takes the same exit.
It turns write_through off on both streams, so that under PYTHONUNBUFFERED
too they hold what is written until these flushes: a write that argparse or
warnings swallow on a full disk fails again at the flush, where run() sees
it.  A stderr that cannot be written ends in exit 2 with nothing more
printed; a table already written stays.
os._exit skips the interpreter's teardown, which after a request only frees
memory the system reclaims: every file a request writes is closed by
_Writer, and nothing registers an atexit hook; a request must close what it
opens before main() returns.  main() neither freezes nor exits: tests and
the traced benchmark run import this module and call main() in-process, and
a frozen heap would never collect the garbage of whatever was frozen.

A request pays for every module it loads, so only what every request uses is
imported at load time: numpy is imported by each function that uses it,
json where a JSON document is written, fractions (and decimal, which it
imports) only by aes_series' exact-integer reference tables, which no
request builds (paragrassmann's complex rationals, behind verify's exact
ODE row, are plain ints), and scipy only where a dense exponential runs.
state and sweep-dispersion load none of them: their kernels are plain
Python, and a sweep's grid is numpy.linspace's arithmetic in floats.
Importing this module still loads every package module, none of which
imports numpy at load time.  run() imports numpy for verify and spectrum
(ARRAY_COMMANDS, picked from argv[0]) while the collector is still paused,
before the freeze, so that numpy's import objects are frozen too and its
import runs no collector pass.  A well-formed request is parsed by
_request_args, without argparse: argparse (and gettext and locale, which it
loads to translate its messages) is imported only to print help or a usage
error, by _build_parser, which parses every argv _request_args declines.
"""

import gc

if __name__ == "__main__":
    gc.disable()        # resumed by run(), after gc.freeze (module docstring)

import cmath
import itertools
import math
import os
import sys
import types
import warnings

from . import _gaussian, aes_series, dispersion, paragrassmann, pseudo_hermitian
from .deformed_algebra import (ON_A, DeformationParams, RealizationKind,
                               build_realization, commutator_residual_tilde,
                               commutator_residual_uzp, realization_series)
from .errors import (BadParams, DeformedHeisenbergError, IllConditioned,
                     NonNormalizable, NotConverged)
from .fock_core import (TruncationConfig, annihilation, coherent_state,
                        guarded_norm, number_operator, series_columns)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3
EXIT_CONDITIONING = 4

# the exit code of each package error: the first class that matches wins
EXIT_CODES = (
    (BadParams, EXIT_USAGE),
    (NotConverged, EXIT_CONVERGENCE),
    (NonNormalizable, EXIT_CONVERGENCE),
    (IllConditioned, EXIT_CONDITIONING),
    (DeformedHeisenbergError, EXIT_INVARIANT),
)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _meta(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def _open_out(path):
    try:
        return open(path, "w")
    except OSError as e:
        raise BadParams(f"cannot write --out {path}: {e.strerror}") from e


def _csv_body(columns) -> str:
    """The CSV lines of a table of equal-length columns, each of one kind:
    one template, %d per int or bool column and %.17g per float one, gives
    the bytes of ",".join(map(_fmt, row)) row by row."""
    line = ",".join("%.17g" if isinstance(c[0], float) else "%d"
                    for c in columns) + "\n"
    return (line * len(columns[0])) % tuple(
        itertools.chain.from_iterable(zip(*columns)))


class _Writer:
    """A request's output: --out, opened at once so that an unwritable path
    fails before any work, or stdout.  finish writes a whole table, as
    columns of plain numbers, so a command that fails prints none of it; as a
    context manager it closes the file and removes it if the block or the
    close raises."""

    def __init__(self, path):
        self.path = path
        self.fh = _open_out(path) if path else sys.stdout

    def finish(self, args, header, columns, diagnostics=None):
        meta = _meta(args)
        if args.format == "csv":
            kv = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(meta.items()))
            self.fh.write(f"# {kv}\n" + ",".join(header) + "\n")
            self.fh.write(_csv_body(columns))
            self.fh.write("".join(f"# {k}={_fmt(v)}\n" for k, v in
                                  sorted((diagnostics or {}).items())))
        else:
            # json writes a numpy float as the float it is
            doc = {"meta": meta, "header": header,
                   "rows": list(zip(*columns))}
            if diagnostics:
                doc["diagnostics"] = diagnostics
            self.write_json(doc)

    def write_json(self, doc):
        """Every JSON document a subcommand prints, in one layout."""
        import json
        self.fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if not self.path:
            return
        failed = exc_type is not None
        try:
            self.fh.close()             # flushes: a full disk can fail here
        except OSError:
            failed = True
            raise
        finally:
            # a regular file only: --out /dev/full or a symlink stays
            if (failed and os.path.isfile(self.path)
                    and not os.path.islink(self.path)):
                os.remove(self.path)


VERIFY_SUITES = ("fock", "algebra", "series", "paragrassmann", "dispersion",
                 "pseudo")


def _size(args) -> tuple:
    """The flag that sets a subcommand's array sizes and the entries of the
    smallest complex array it must hold: the sweep's column, state's
    dim-long vector, a dim x dim matrix for verify and spectrum."""
    if hasattr(args, "steps"):
        return "steps", args.steps
    return "dim", args.dim if args.subcommand == "state" else args.dim ** 2


def _physical_memory() -> int:
    """Bytes of physical memory or, where the system does not say, the most
    bytes numpy can describe in one array (its intp limit, sys.maxsize)."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return sys.maxsize


# bytes per complex entry (numpy's complex128)
COMPLEX_ITEMSIZE = 16


def _check_common(args) -> str:
    for name, v in vars(args).items():
        if isinstance(v, float) and not math.isfinite(v):
            return f"--{name} must be finite"
    if getattr(args, "delta", 0.0) < 0 or getattr(args, "beta", 0.0) < 0:
        return "polar moduli --delta and --beta must be >= 0"
    if getattr(args, "dim", 8) < 8:
        return "dim must be >= 8"
    flag, least = _size(args)
    # a lower bound on what the request holds, so no request that fits is
    # refused; past it the allocation is overcommitted and the kernel kills
    # the process when the pages are touched, before any MemoryError
    need, memory = least * COMPLEX_ITEMSIZE, _physical_memory()
    if need > memory:
        return (f"--{flag} {getattr(args, flag)} needs at least {need} bytes, "
                f"more than the {memory} bytes of physical memory")
    if getattr(args, "steps", 2) < 2:
        return "steps must be >= 2"
    if hasattr(args, "min") and not (args.min < args.max):
        return "min must be < max"
    if hasattr(args, "min") and not math.isfinite(args.max - args.min):
        return "--max - --min must be finite"
    return ""


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

SWEEP_HEADER = list(dispersion.SweepTable._fields)


def _linspace(lo, hi, steps) -> list:
    """numpy.linspace(lo, hi, steps) in plain floats, bit for bit: y_i =
    i step + lo, step = (hi - lo)/(steps - 1), and the last value hi.  Where
    the step underflows to zero, y_i = i/(steps - 1) (hi - lo) + lo."""
    div, span = steps - 1, hi - lo
    step = span / div
    if step == 0:
        grid = [i / div * span + lo for i in range(steps)]
    else:
        grid = [i * step + lo for i in range(steps)]
    grid[-1] = hi
    return grid


def cmd_sweep_dispersion(args) -> int:
    with _Writer(args.out) as w:
        table = dispersion.sweep_table(
            delta=args.delta, phi=args.phi, beta=args.beta, theta=args.theta,
            varying=args.var, grid=_linspace(args.min, args.max, args.steps),
            z=args.z, p=args.p)
        # a first-order variance goes negative where x2_mean - mean_x^2
        # cancels (large beta) or the expansion breaks down (delta near 1);
        # validity_flag alone does not say the value is meaningless
        negative = sum(min(vx, vp) < 0 for vx, vp in
                       zip(table.var_x_def, table.var_p_def))
        w.finish(args, SWEEP_HEADER, table,
                 diagnostics={"negative_variance_rows": negative}
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
    with _Writer(args.out) as w:
        n_max = args.dim - 1
        # one run of the recurrence serves the table and the norm sum
        amps = aes_series._amplitudes(params, max(96, n_max))
        # a state with no norm is reported as such before its route check
        c0, norm_diag = aes_series.normalization_c0(params, n_max=max(96, n_max),
                                                    amps=amps)
        c, diag = aes_series.fock_coefficients(params, n_max, amps=amps)
        re_c, im_c = [c0 * v.real for v in c], [c0 * v.imag for v in c]
        w.finish(args, header, [list(range(len(c))), re_c, im_c,
                                [abs(complex(x, y)) ** 2
                                 for x, y in zip(re_c, im_c)]],
                 diagnostics={"c0": c0, "route_deviation": diag.tail_estimate,
                              "tail_estimate": norm_diag.tail_estimate})
    return EXIT_OK


def _check_xp(cfg):
    import numpy as np
    X = dispersion.position_operator(cfg)
    P = dispersion.momentum_operator(cfg)
    return guarded_norm(X @ P - P @ X - 1j * np.eye(cfg.dim), cfg)


def _check_tilde(kind, z, cfg):
    params = DeformationParams(z=z, p=0.0, lam=0, mu=0, nu=0)
    return commutator_residual_tilde(kind, params, cfg)


def _check_uzp(p, cfg):
    params = DeformationParams(z=0.02, p=p, lam=0, mu=0, nu=0)
    return commutator_residual_uzp(RealizationKind.Uzp_One, params, cfg)


def _check_build(cfg, ladder=False):
    """Largest relative deviation of built operators, applied to four basis
    vectors e_j, from their series' columns (fock_core.series_columns): A, B
    and C of tilde realizations on a+ and on a (transposed) and of Uzp_One,
    or with ladder the pseudo box's H and A, a+a and a added.
    C e_{j+1} = sqrt(j+1) c(a+) e_j."""
    import numpy as np
    n = cfg.dim
    cols = [0, 1, n // 2, n - 2]
    up = [j + 1 for j in cols]
    if ladder:
        mu, z = 0.2, 0.02               # the pseudo suite's box
        series = pseudo_hermitian._scaled_exp_coefficients
        pairs = [(pseudo_hermitian.build_H(mu, z, cfg)[:, cols],
                  series_columns(series(mu, z, 2, n), cols, n)
                  + number_operator(cfg)[:, cols]),
                 (pseudo_hermitian._build_A(mu, z, cfg)[:, cols],
                  series_columns(series(mu, z, 1, n), cols, n)
                  + annihilation(cfg)[:, cols])]
    else:
        params, pairs = DeformationParams(z=0.02, p=0.4), []
        for kind in (RealizationKind.TildeZ0_Cas1,
                     RealizationKind.TildeZ0_Cas2, RealizationKind.Uzp_One):
            A, B, C, _ = build_realization(kind, params, cfg)
            if kind in ON_A:
                A, B, C = -A.T, B.T, C.T
            b, c = realization_series(kind, params, n)
            pairs += [(A[:, cols], series_columns([0.0, -1.0], cols, n)),
                      (B[:, cols], series_columns(b, cols, n)),
                      (C[:, up], series_columns(c, cols, n) * np.sqrt(up))]
    return float(np.max([np.abs(got - want).max(axis=0)
                         / np.abs(want).max(axis=0) for got, want in pairs]))


def _check_routes():
    # the recurrence against the vacuum-image route on amplitudes that peak
    # at n = 177, past the n ~ 170 where z^n/n! underflows; reads 2.0e-15
    params = DeformationParams.from_polar(z=0.001, delta=0.3, phi=0.7,
                                          beta=12.0, theta=-0.4)
    return aes_series.fock_coefficients(params, 199)[1].tail_estimate


def _check_eigenstate(cfg):
    import numpy as np
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
    import numpy as np
    args = (0.3, 0.7, 1.0, 0.2)
    return float(np.abs(np.array(_gaussian.gamma_kl(3, 3, *args))
                        - dispersion.gamma_matrix_table(*args, 3, cfg)).max())


def _check_mus():
    vx, vp = dispersion.mus_dispersions(0.5, math.pi / 2)
    return abs(vx - 5 / 6) + abs(vp - 5 / 6)


def _verify_checks(args):
    """(suite, name, residual, bound, error) rows for the checks of --suite
    (all suites when it is unset).

    A check that raises a package error, an ArithmeticError or a LinAlgError
    (an SVD of a residual with a nan entry) is reported as failed (residual
    inf, error "<class>: <message>") instead of killing the rest of the
    report; small boxes trip the tail guards.  error is None for a check that
    ran.

    The algebra rows and pseudo's commutators check the defining relations
    as identities of the coefficient series, [a, f(a+)] = f'(a+), and print
    fock_core.series_bound of the residual series: O(N^2) convolutions and
    Miller recurrences, no matrix.  One more row in each suite, fock_build
    and ladder_build, holds the matrices built from those series to them
    (_check_build).  The
    xp, pseudo-hermiticity and unitarity rows take one SVD each.
    """
    import numpy as np
    cfg = TruncationConfig(dim=args.dim)
    # the guarded k x k block of every product and commutator in the xp
    # residual reads only the leading (k+1)-blocks of its factors: each is
    # lower triangular in a+ up to one superdiagonal, or the transpose of
    # such a matrix.  So the xp and fock_build rows build their operators at
    # dim k + 1 with a guard of 1 (the block the guarded norm reads is the
    # same k x k one), and no work fills rows the norm discards
    block = TruncationConfig(cfg.kept + 1, guard=1)
    checks = [
        ("fock", "canonical_xp_commutator", lambda: _check_xp(block), 1e-10),
        ("fock", "coherent_normalization",
         lambda: abs(np.linalg.norm(coherent_state(1.0, cfg)) - math.e ** 0.5),
         1e-8),
    ]
    # the series bounds read <= 4.4e-16 (uzp) and <= 8.7e-19 (tilde, 0 at
    # z = 0) up to dim 1024; 1e-14 keeps a factor 23 of headroom and trips
    # on a relative error of 1e-12 in one low-order coefficient.  fock_build
    # reads 0, as its reference rounds as series_operator does; 1e-13 lets
    # a build that rounds its weights in another order pass (k u, 4e-14 at
    # dim 512), not a wrong entry
    for z in (0.0, 0.02, -0.02):
        for kind in (RealizationKind.TildeZ0_Cas1,
                     RealizationKind.TildeZ0_Cas2):
            checks.append(("algebra", f"tilde_residual_{kind.name}_z{z}",
                           lambda kind=kind, z=z: _check_tilde(kind, z, cfg),
                           1e-14))
    for p in (0.1, 0.4):
        checks.append(("algebra", f"uzp_residual_p{p}",
                       lambda p=p: _check_uzp(p, cfg), 1e-14))
    checks.append(("algebra", "fock_build", lambda: _check_build(block),
                   1e-13))
    checks += [
        ("series", "coefficient_route_agreement", _check_routes, 1e-11),
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
        # box reads 1.2e-9 and 1.8e-13: each bound keeps about one to three
        # digits of headroom, not the six a broken metric would use.  The
        # commutators' series bound reads 9.7e-30; 1e-14, as for the
        # algebra rows, trips on a relative error of 1e-12 in alpha_1
        ref = TruncationConfig(48, 12)
        sysm = pseudo_hermitian.build_system(0.2, 0.02, ref)
        G = sysm.G                      # one build for both rows that read it
        checks += [
            ("pseudo", "pseudo_hermiticity",
             lambda: pseudo_hermitian.pseudo_hermiticity_residual(sysm, G),
             1e-8),
            ("pseudo", "rho_g_unitarity",
             lambda: pseudo_hermitian.unitarity_check(sysm, G), 1e-10),
            ("pseudo", "commutators",
             lambda: pseudo_hermitian.commutator_checks(sysm), 1e-14),
            ("pseudo", "ladder_build",
             lambda: _check_build(block, ladder=True), 1e-13),
        ]
    rows = []
    for suite, name, thunk, bound in checks:
        if args.suite not in (None, suite):
            continue
        try:
            r, error = float(thunk()), None
        except (DeformedHeisenbergError, ArithmeticError,
                np.linalg.LinAlgError) as e:
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
    with _Writer(args.out) as w:
        report = {"meta": _meta(args),
                  "checks": [_check_report(*r) for r in _verify_checks(args)]}
        report["passed"] = all(c["passed"] for c in report["checks"])
        w.write_json(report)
    return EXIT_OK if report["passed"] else EXIT_INVARIANT


def cmd_spectrum(args) -> int:
    import numpy as np
    cfg = TruncationConfig(dim=args.dim)
    mu = args.delta * cmath.exp(1j * args.phi)
    header = ["n", "h_eig", "h_deviation", "ht_eig", "ht_deviation"]
    with _Writer(args.out) as w:
        sysm = pseudo_hermitian.build_system(mu, args.z, cfg)
        rep_h = pseudo_hermitian.spectrum_report(sysm, "pseudo")
        rep_ht = pseudo_hermitian.spectrum_report(sysm, "hermitian")
        n = np.arange(cfg.dim)
        eh, et = rep_h.eigenvalues, rep_ht.eigenvalues
        w.finish(args, header, [n.tolist(), eh.tolist(),
                                np.abs(eh - n).tolist(), et.tolist(),
                                np.abs(et - n).tolist()], diagnostics={
            "eta_condition": sysm.eta_condition,
            "h_max_deviation": rep_h.max_deviation_from_integers,
            "ht_max_deviation": rep_ht.max_deviation_from_integers})
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# every flag once, as add_argument keywords (_request_args reads the same)
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
    "suite": dict(choices=VERIFY_SUITES, help="restrict to one suite"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "out": {},
}

# the flags each subcommand reads, and no others
SUBCOMMAND_FLAGS = {
    "sweep-dispersion": ("delta", "phi", "beta", "theta", "z", "p", "var",
                         "min", "max", "steps", "format", "out"),
    "state": ("delta", "phi", "beta", "theta", "z", "p", "dim", "format",
              "out"),
    "verify": ("dim", "suite", "out"),
    "spectrum": ("delta", "phi", "z", "dim", "format", "out"),
}

# the subcommands that work on numpy arrays; state and sweep-dispersion
# need none
ARRAY_COMMANDS = ("verify", "spectrum")

_COMMANDS = {
    "sweep-dispersion": (cmd_sweep_dispersion,
                         "variance table over a phi or delta grid"),
    "state": (cmd_state, "Fock amplitudes of a deformed squeezed state"),
    "verify": (cmd_verify, "run the invariant suites (JSON report)"),
    "spectrum": (cmd_spectrum, "H and H~ spectra with deviations"),
}


def _request_args(argv):
    """argparse's namespace for a well-formed request, or None.  Well-formed
    is what every argparse reads alike: an exact subcommand, then --flag=value
    or --flag value tokens naming its SUBCOMMAND_FLAGS in full, where a
    separate value that starts with "-" is an ASCII negative decimal (-2,
    -.5), and each value of its FLAGS type and choices; the last of a
    repeated flag wins.  Keys come in argparse's order, which _check_common
    follows.  Any other argv (help, an abbreviation, a bad value) goes to
    argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    values = {flag: FLAGS[flag].get("default")
              for flag in SUBCOMMAND_FLAGS[argv[0]]}
    tokens = iter(argv[1:])
    for token in tokens:
        option, eq, value = token.partition("=")
        flag = option[2:]
        if not option.startswith("--") or flag not in values:
            return None
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-") and not (
                    value.isascii() and value[-1].isdigit()
                    and value[1:].replace(".", "", 1).isdigit()):
                return None
        try:
            value = FLAGS[flag].get("type", str)(value)
        except ValueError:
            return None
        if value not in FLAGS[flag].get("choices", (value,)):
            return None
        values[flag] = value
    return types.SimpleNamespace(subcommand=argv[0], **values,
                                 func=_COMMANDS[argv[0]][0])


def _build_parser():
    """The dheis parser, for every argv that _request_args declines."""
    import argparse
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


def _format_warning(message, category, filename, lineno, line=None):
    return f"warning: {category.__name__}: {message}\n"


def _silence_stdout():
    """Point stdout at devnull, so that no later flush of what it still
    holds (run's, or the interpreter's at exit) can fail."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _request_args(argv) or _build_parser().parse_args(argv)
    msg = _check_common(args)
    if msg:
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_USAGE
    fmt, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        if args.subcommand in ARRAY_COMMANDS:
            import numpy as np
            with np.errstate(all="ignore"):       # see the module docstring
                rc = args.func(args)
        else:
            rc = args.func(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader closed stdout (dheis ... | head): stop quietly
        _silence_stdout()
        return EXIT_OK
    except OSError as e:
        # a write, flush or close of the output failed (a full disk, an I/O
        # error); _Writer has removed a partial --out file
        if not args.out:
            _silence_stdout()
        target = f"--out {args.out}" if args.out else "stdout"
        print(f"error: cannot write {target}: {e.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        flag = _size(args)[0]
        print(f"error: not enough memory for --{flag} {getattr(args, flag)}",
              file=sys.stderr)
        return EXIT_USAGE
    except DeformedHeisenbergError as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(e, cls))
    finally:
        warnings.formatwarning = fmt


def run(argv=None):
    """Freeze the import-time heap, resume the collector, run main() and end
    the process with its exit code once stdout and stderr are flushed (see
    the module docstring).  Never returns."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in ARRAY_COMMANDS:
        import numpy                    # noqa: F401  (frozen with the rest)
    gc.freeze()
    gc.enable()         # after the freeze: the collector walks no import object
    for stream in (sys.stdout, sys.stderr):
        stream.reconfigure(write_through=False)     # see the module docstring
    try:
        try:
            rc = main(argv)
        except SystemExit as e:         # argparse: a usage error or --help
            rc = e.code
        try:
            sys.stdout.flush()          # only --help's text can be left
        except BrokenPipeError:
            pass
        except OSError as e:
            rc = EXIT_USAGE
            print(f"error: cannot write stdout: {e.strerror}", file=sys.stderr)
        sys.stderr.flush()
    except OSError:                     # stderr cannot be written
        rc = EXIT_USAGE
    os._exit(rc)


if __name__ == "__main__":
    run()
