"""End-to-end benchmark of the dheis CLI, one seeded closed-loop workload per run.

    python3 benchmarks/run.py --workload state_cold --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all          # every workload in turn

One client sends one request at a time; each request is a fresh
``python -m deformed_heisenberg.cli ...`` child, so it pays the interpreter
start, the imports and the cold lru_cache tables, as a CLI user does.  The run
measures whole request blocks (see workloads.py) until --seconds have passed
and at least MIN_SAMPLES requests are done, checks every output from outside
the program (checks.py) and prints a summary followed, on the last line, by
one JSON object.  Each timed import and request is paired with a reference
child that no program change can move, and times are reported in seconds
calibrated by it (see REFERENCE_CODE):

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 runs each request twice,
untraced and then through traced_cli.py, and reports per-layer metrics from
the spans, per request, plus the tracing overhead.  The full record of a run
(argument vectors, per-request times and failure reasons, environment) goes
to .bench_out/ in the checkout.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import checks
import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
MIN_SAMPLES = metrics.TAIL_BEYOND + 1
# The speed of a shared machine drifts by a quarter within minutes, and an
# import and a request slow down together.  So each timed import and request
# is paired with a reference child started just before them: a fresh
# interpreter importing the program's third-party stack, without the
# program's sources on its path, which no change to the program can move.
# End-to-end times are reported in calibrated seconds, the measured time
# times REFERENCE_S / (the pair's reference time): seconds on a machine where
# the reference takes REFERENCE_S.
REFERENCE_CODE = "import numpy, scipy.linalg"
REFERENCE_S = 0.35  # the reference's median wall time on the baseline machine
# a run ends, children included, within RUN_DEADLINE_S of its start: no
# request starts later than REQUEST_TIMEOUT_S before it, and a child still
# running at the deadline is killed (and counts as failed)
RUN_DEADLINE_S = 170.0
REQUEST_TIMEOUT_S = 40.0

# declared in BENCHMARK.json; request_p50_s, request_tail_s and failed_share
# are printed and recorded too, but not declared (see README.md)
END_TO_END = [("setup_s", "s"), ("throughput_rps", "1/s"),
              ("peak_rss_mb", "MB")]

# module -> traced function -> the per-layer fields reported for it
LAYER_FIELDS = {
    "aes_series": {"upsilon_table": ["self_s", "misses"],
                   "amplitude_coefficients": ["self_s", "misses"],
                   "fock_coefficients": ["calls", "self_s",
                                         "cross_check_terms"],
                   "normalization_c0": ["self_s", "terms_used"],
                   "deformed_squeezed_state": ["self_s"],
                   "aes_operator": ["self_s"]},
    "dispersion": {"perturbed_moments": ["calls", "self_s"],
                   "perturbed_quadrature_stats": ["self_s"]},
    "_gaussian": {"quadratic_exponential_derivative": ["calls", "self_s"],
                  "gamma_kl": ["calls"], "lambda_kl": ["calls"]},
    "pseudo_hermitian": {"build_system": ["calls", "self_s"],
                         "build_G": ["self_s"], "build_H": ["self_s"],
                         "hermitian_hamiltonian": ["self_s"],
                         "spectrum_report": ["self_s"]},
    "deformed_algebra": {"build_realization": ["calls", "self_s"],
                         "commutator_residual_tilde": ["self_s"],
                         "commutator_residual_uzp": ["self_s"]},
    "fock_core": {"triangular_matrix_function": ["calls", "self_s"],
                  "matrix_exponential": ["self_s"],
                  "guarded_norm": ["calls", "self_s"]},
    "paragrassmann": {"solve_appendix_a": ["self_s"],
                      "residual_check": ["self_s"]},
    "cli": {"main": ["self_s"]},
}
UNITS = {"self_s": "s", "self_share": "%", "overhead_s": "s"}


def _metric_name(module, *rest):
    # metric names start with a letter: _gaussian reports as gaussian
    return ".".join([module.lstrip("_"), *rest])


# (metric name, unit, module, function or None for a whole-module metric,
# field), in the order BENCHMARK.json declares them
PER_LAYER = ([(_metric_name(m, f, field), UNITS.get(field, "count"), m, f, field)
              for m, fns in LAYER_FIELDS.items()
              for f, fields in fns.items() for field in fields]
             + [(_metric_name(m, field), UNITS.get(field, "count"), m, None, field)
                for m in LAYER_FIELDS
                for field in ("self_share", "failed", "probe_failed")]
             + [("startup.self_share", "%", None, None, "self_share"),
                ("trace.overhead_s", "s", None, None, "overhead_s")])


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one child process did: exit code, wall time, peak RSS, output."""

    rc: int
    elapsed_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def reference_env():
    env = dict(os.environ, **BLAS_PINS)
    # an installed program has its bytecode cached, so let the untimed first
    # import write it in a fresh checkout, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def child_env():
    env = reference_env()
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def spawn(cmd, env, deadline) -> Outcome:
    """Run cmd to completion from the checkout root; time it from spawn to
    exit and read its peak RSS from its own rusage."""
    timeout = max(0.0, min(REQUEST_TIMEOUT_S, deadline - time.perf_counter()))
    out_path = OUT_DIR / f"child-{os.getpid()}.stdout"
    err_path = OUT_DIR / f"child-{os.getpid()}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, elapsed, usage.ru_maxrss / 1024.0,
                   out_path.read_bytes(), err_path.read_bytes())


def failure_reason(argv, o: Outcome) -> str:
    """"" for a good request; else why it counts as failed."""
    err = o.stderr.decode(errors="replace")
    last = err.strip().splitlines()[-1][:200] if err.strip() else ""
    if "Traceback (most recent call last)" in err:
        return f"traceback (exit {o.rc}): {last}"
    if o.rc != 0:
        return f"exit {o.rc}: {last}"
    return checks.check_output(argv, o.stdout)[:300]


def dheis_cmd(argv):
    return [sys.executable, "-m", "deformed_heisenberg.cli", *argv]


def traced_cmd(argv, spans_path):
    return [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *argv]


def import_time(env, deadline, code="import deformed_heisenberg.cli"):
    """Wall time for a fresh interpreter to run an import statement."""
    o = spawn([sys.executable, "-c", code], env, deadline)
    if o.rc != 0:
        raise RuntimeError(f"import failed: {o.stderr.decode()[-500:]}")
    return o.elapsed_s


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def _started_in_time(deadline):
    return time.perf_counter() < deadline - REQUEST_TIMEOUT_S


def _requests(workload, seed, seconds, min_samples, deadline):
    """Yield argument vectors, whole blocks at a time, until `seconds` have
    passed and `min_samples` were sent (or the deadline nears)."""
    t0 = time.perf_counter()
    sent = 0
    for block in workloads.blocks(workload, seed):
        for argv in block:
            if not _started_in_time(deadline):
                return
            sent += 1
            yield argv
        if time.perf_counter() - t0 >= seconds and sent >= min_samples:
            return


def run_plain(workload, seed, seconds, env, deadline):
    import_time(env, deadline)  # untimed: byte-compiles a fresh checkout
    ref_env = reference_env()
    setup, records = [], []
    requests = _requests(workload, seed, seconds, MIN_SAMPLES, deadline)
    for argv in requests:
        # a reference and one timed import before every request, so that
        # setup_s samples the whole run, not the machine's speed at its start
        reference = import_time(ref_env, deadline, REFERENCE_CODE)
        scale = REFERENCE_S / reference
        imported = import_time(env, deadline)
        o = spawn(dheis_cmd(argv), env, deadline)
        setup.append(imported * scale)
        records.append({"argv": argv, "elapsed_s": o.elapsed_s,
                        "calibrated_s": o.elapsed_s * scale,
                        "import_s": imported, "reference_s": reference,
                        "rc": o.rc, "rss_mb": o.rss_mb,
                        "reason": failure_reason(argv, o)})
    probes = []
    for argv in workloads.KNOWN_DEFECT_PROBES.get(workload, []):
        if not _started_in_time(deadline):
            break
        o = spawn(dheis_cmd(argv), env, deadline)
        probes.append({"argv": argv, "rc": o.rc, "elapsed_s": o.elapsed_s,
                       "reason": failure_reason(argv, o)})
    lat = [r["calibrated_s"] for r in records]
    wall = [r["elapsed_s"] for r in records]
    bad = [bool(r["reason"]) for r in records]
    tail, pct, beyond = metrics.tail(lat, bad)
    values = {"setup_s": statistics.median(setup),
              "throughput_rps": bad.count(False) / sum(lat),
              "peak_rss_mb": max(r["rss_mb"] for r in records)}
    extra = {"setup_samples_s": setup,
             "request_p50_s": metrics.p50(lat, bad), "request_tail_s": tail,
             "tail_percentile": pct, "tail_samples_beyond": beyond,
             "failed_share": metrics.failed_share(bad),
             "uncalibrated": {
                 "setup_s": statistics.median(r["import_s"] for r in records),
                 "request_p50_s": metrics.p50(wall, bad),
                 "throughput_rps": bad.count(False) / sum(wall),
                 "reference_s": statistics.median(r["reference_s"]
                                                  for r in records)},
             "known_defect_probes": probes}
    return records, values, extra


def _span_totals(spans_path, totals):
    """Fold one traced request's spans into per-function totals."""
    with np.load(spans_path) as z:
        meta = json.loads(str(z["meta"]))
        fn, failed = z["fn"], z["failed"]
        self_s = metrics.self_times(z["parent"].tolist(), z["start"].tolist(),
                                    z["end"].tolist())
        main_idx = meta["names"].index("cli.main")
        main_s = float((z["end"] - z["start"])[fn == main_idx].sum())
    names = meta["names"]
    n = len(names)
    calls = np.bincount(fn, minlength=n)
    selfs = np.bincount(fn, weights=self_s, minlength=n)
    fails = np.bincount(fn, weights=failed, minlength=n)
    for i, name in enumerate(names):
        totals[f"{name}.calls"] += float(calls[i])
        totals[f"{name}.self_s"] += float(selfs[i])
        totals[f"{name}.failed"] += float(fails[i])
    totals.update(meta["counters"])
    return main_s


def _module_sum(totals, module, field):
    return sum(v for k, v in totals.items()
               if k.startswith(f"{module}.") and k.endswith(f".{field}"))


def run_traced(workload, seed, seconds, env, deadline):
    spans_path = OUT_DIR / f"spans-{os.getpid()}.npz"

    def traced_spawn(argv):
        if spans_path.exists():
            spans_path.unlink()
        return spawn(traced_cmd(argv, spans_path), env, deadline)

    records, totals = [], Counter()
    wall_traced = main_total = 0.0
    overheads = []
    for argv in _requests(workload, seed, seconds, 1, deadline):
        plain = spawn(dheis_cmd(argv), env, deadline)
        traced = traced_spawn(argv)
        reason = failure_reason(argv, plain)
        if not reason and (traced.stdout != plain.stdout
                           or traced.rc != plain.rc):
            reason = "traced output differs from untraced output"
        if spans_path.exists():
            main_total += _span_totals(spans_path, totals)
        elif not reason:
            reason = "traced run wrote no spans"
        wall_traced += traced.elapsed_s
        overheads.append(traced.elapsed_s - plain.elapsed_s)
        records.append({"argv": argv, "elapsed_s": plain.elapsed_s,
                        "traced_elapsed_s": traced.elapsed_s, "rc": plain.rc,
                        "reason": reason})
    # the known-defect probes, traced, so that the exceptions escaping each
    # module on them are counted apart from the measured mix
    probes, probe_totals = [], Counter()
    for argv in workloads.KNOWN_DEFECT_PROBES.get(workload, []):
        if not _started_in_time(deadline):
            break
        o = traced_spawn(argv)
        if spans_path.exists():
            _span_totals(spans_path, probe_totals)
        probes.append({"argv": argv, "rc": o.rc,
                       "reason": failure_reason(argv, o)})
    n = len(records)
    values = {}
    for name, _, module, fn, field in PER_LAYER:
        if field == "overhead_s":
            values[name] = statistics.median(overheads)
        elif module is None:
            values[name] = 100.0 * (wall_traced - main_total) / wall_traced
        elif fn is None and field == "self_share":
            values[name] = (100.0 * _module_sum(totals, module, "self_s")
                            / wall_traced)
        elif fn is None and field == "failed":
            values[name] = _module_sum(totals, module, "failed") / n
        elif fn is None:
            values[name] = _module_sum(probe_totals, module, "failed")
        else:
            values[name] = totals[f"{module}.{fn}.{field}"] / n
    extra = {"traced_requests": n, "overheads_s": overheads,
             "known_defect_probes": probes}
    return records, values, extra


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def environment():
    return {"nproc": os.cpu_count(), "loadavg_at_start": os.getloadavg(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_pins": BLAS_PINS,
            "platform": platform.platform()}


def _units(trace):
    return {name: unit for name, unit, *_ in (PER_LAYER if trace
                                               else END_TO_END)}


def summary(workload, seed, trace, records, values, extra):
    units = _units(trace)
    failed = [r for r in records if r["reason"]]
    lines = [f"workload {workload}  seed {seed}  trace {trace}: "
             f"{len(records)} requests, {len(failed)} failed"]
    for name, v in values.items():
        note = (f"  (median of {len(extra['setup_samples_s'])} imports, one "
                "before each request)") if name == "setup_s" else ""
        lines.append(f"  {name:<48} {v:.6g} {units[name]}{note}")
    if not trace:
        lines.append(f"  {'request_p50_s':<48} {extra['request_p50_s']:.6g} s")
        lines.append(f"  {'request_tail_s':<48} {extra['request_tail_s']:.6g} s"
                     f"  (p{extra['tail_percentile']:.1f}, "
                     f"{extra['tail_samples_beyond']} samples beyond, "
                     f"n={len(records)})")
        lines.append(f"  {'failed_share':<48} {extra['failed_share']:.6g} "
                     f"({len(failed)}/{len(records)})")
        raw = extra["uncalibrated"]
        lines.append("  times above are calibrated; uncalibrated wall clock: "
                     + ", ".join(f"{k} {v:.4g}" for k, v in raw.items()))
    for p in extra["known_defect_probes"]:
        lines.append(f"  known-defect probe dheis {' '.join(p['argv'])}: "
                     f"{p['reason'] or 'passed'}")
    for r in failed:
        lines.append(f"  FAILED dheis {' '.join(r['argv'])}: {r['reason']}")
    return "\n".join(lines)


def run(workload, seed, seconds, trace):
    deadline = time.perf_counter() + RUN_DEADLINE_S
    env = child_env()
    env_info = environment()
    runner = run_traced if trace else run_plain
    records, values, extra = runner(workload, seed, seconds, env, deadline)
    failed = sum(1 for r in records if r["reason"])
    result = {"correct": not any(r["reason"] and r["rc"] == 0
                                 for r in records),
              "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": _units(trace)[k]}
                          for k, v in values.items()}}
    record = {"workload": workload, "why": workloads.WHY[workload],
              "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env_info, "result": result, "extra": extra,
              "requests": records}
    out = OUT_DIR / f"{workload}_seed{seed}_trace{trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for scratch in OUT_DIR.glob(f"*-{os.getpid()}.*"):
        scratch.unlink()  # this run's child output and span files
    print(summary(workload, seed, trace, records, values, extra))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its child (spawn kills it on SystemExit)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "deformed_heisenberg" / "cli.py").is_file():
        print(f"error: no deformed_heisenberg sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    results = {w: run(w, args.seed, args.seconds, args.trace) for w in names}
    last = results[names[0]] if len(names) == 1 else results
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
