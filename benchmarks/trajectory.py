"""Measure every workload over several seeds and record a trajectory point.

    python3 benchmarks/trajectory.py --label baseline --seeds 1-10

Each run is a separate ``benchmarks/run.py`` process, as the benchmark is
driven from outside.  For each workload and end-to-end metric the point holds
the ten values, their median and the quartile spread (distance between the
first and third quartile as a share of the median); one traced run per
workload adds the per-layer metrics.  The environment (nproc, load average at
the start, Python/numpy/scipy versions, BLAS pins) is recorded with them.
The point is written to benchmarks/trajectory/<label>.json and summarised on
stdout.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent,
                       check=True)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1-10", help="range such as 1-10")
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    point = {"label": args.label, "run_seconds": seconds,
             "environment": run.environment(), "workloads": {}}
    for w in workloads.WORKLOADS:
        runs = [bench(w, s, seconds, 0) for s in _seeds(args.seeds)]
        entry = {"seeds": _seeds(args.seeds),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "correct": all(r["correct"] for r in runs),
                 "wall_s": [round(r["wall_s"], 1) for r in runs],
                 "end_to_end": {}}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": statistics.median(vals),
                "spread": spread(vals), "bound": m["bound"], "values": vals}
            print(f"{w:<16} {m['name']:<16} median {statistics.median(vals):.4g}"
                  f" {m['unit']:<3} spread {spread(vals):.3f}"
                  f" (bound {m['bound']})", flush=True)
        print(f"{w:<16} run wall s: {entry['wall_s']}", flush=True)
        traced = bench(w, _seeds(args.seeds)[0], seconds, 1)
        entry["per_layer"] = {k: v["value"]
                              for k, v in traced["metrics"].items()}
        entry["traced_wall_s"] = round(traced["wall_s"], 1)
        point["workloads"][w] = entry
    out = HERE / "trajectory" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out.relative_to(HERE.parent)}")


if __name__ == "__main__":
    main()
