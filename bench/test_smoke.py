"""The benchmark's own test: the seconds-scale smoke mode runs every
workload untraced and traced, and every job must pass its reference check.

    python3 -m pytest bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_runs_every_workload_and_the_traced_path():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke: ok")
    for workload in ("corner", "spectra", "kernels"):
        for trace in (0, 1):
            assert f"# {workload} seed=0 trace={trace} " in proc.stdout


def test_result_line_contract(tmp_path):
    """A short real run prints the JSON result line last, with exactly the
    keys a harness reads, and appends the full record to --out."""
    out = tmp_path / "runs.jsonl"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "kernels", "--seed", "3",
         "--seconds", "1", "--trace", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads(out.read_text().splitlines()[-1])
    assert record["env"]["seed"] == 3 and record["env"]["blas_threads"]


def test_missing_package_fails_without_a_result(tmp_path):
    """Run from a copy that holds only the benchmark: nonzero exit, no result."""
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "corner", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_every_layer_metric():
    """BENCHMARK.json declares exactly the per-layer metrics the tracer
    reports, with the same units."""
    sys.path.insert(0, str(HERE))
    import tracer

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = list(tracer.LAYER_METRICS) + ["trace.overhead_s"]
    assert sorted(declared) == sorted(reported)
    assert all(declared[name] == tracer.unit(name) for name in reported)
