import json
import shutil
import subprocess
import sys
import time

from conftest import BENCH, ROOT

import run


def test_benchmark_json_declares_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, *_ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == \
        list(run.workloads.WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "benchmarks/run.py", "--workload",
                        "state_cold", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=120)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def test_every_reported_function_is_wrapped():
    from traced_cli import COUNTED, TRACED
    for module, functions in run.LAYER_FIELDS.items():
        counted = set(COUNTED.get(module, []))
        assert set(functions) <= set(TRACED[module]) | counted, module
        # a counted function records no span, so only its calls exist
        for f in counted & set(functions):
            assert functions[f] == ["calls"], f


def test_child_running_at_the_deadline_is_killed():
    run.OUT_DIR.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    o = run.spawn([sys.executable, "-c", "import time; time.sleep(60)"],
                  run.child_env(), time.perf_counter() + 0.5)
    assert o.rc < 0
    assert time.perf_counter() - t0 < 10
