"""heattrace benchmark: corner, spectra and kernels workloads.

    python3 bench/run.py --workload corner --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --smoke          # every workload, untraced and traced, in seconds

Each workload is one process with one client and one job in flight (a
closed loop).  A pass runs the workload's fixed job list, built from the
seed; passes repeat while another one fits into --seconds.  --trace 0
reports the end-to-end metrics; --trace 1 alternates untraced and traced
passes and reports the per-layer metrics.  The last line of standard output
is the JSON result; --out appends the full record (environment, metrics,
every job) to a JSON-lines file that compare.py reads.  See README.md.
"""

import os

# BLAS is pinned to one thread before numpy loads, here and in every child
BLAS_THREADS = {name: "1" for name in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import digits  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("corner", "spectra", "kernels")
SETUP_SAMPLES = 5


def _import_package():
    """Make the checkout's package importable; exit when it is absent."""
    if not (SRC / "heattrace" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no package source at {SRC / 'heattrace'}\n")
        sys.exit(3)
    sys.path.insert(0, str(SRC))


def setup(workload, seed, workdir, smoke=False):
    """Import heattrace, build the CLI parser and generate the inputs.
    Returns (seconds, jobs)."""
    start = time.perf_counter()
    import heattrace.cli  # noqa: F401

    heattrace.cli.build_parser()
    import workloads

    jobs = workloads.build(workload, seed, workdir, smoke)
    return time.perf_counter() - start, jobs


def setup_probe(workload, seed):
    """Child process: one fresh set-up, scaled by the speed probe run just
    before and after it, printed as JSON.  numpy is imported first so that
    the probe can run; its import still counts, timed on its own."""
    start = time.perf_counter()
    import numpy  # noqa: F401

    numpy_s = time.perf_counter() - start
    import speed

    before = speed.calibrate()
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as workdir:
        seconds, _ = setup(workload, seed, workdir)
    scale = speed.REFERENCE_S / (0.5 * (before + speed.calibrate()))
    print(json.dumps({"setup_s": (numpy_s + seconds) * scale}))


def measure_setup(workload, seed, samples):
    """Scaled set-up seconds of `samples` fresh interpreters, each waited for."""
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def environment(workload, seed, seconds, trace):
    import numpy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def _git_sha():
    """HEAD of the checkout, read from .git without running git; a checkout
    exported without .git reports "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# passes

def run_pass(jobs, probe, tracer=None):
    """Run every job once; a failing job is recorded, never fatal.  Job
    times are scaled by the speed probe after the pass (see speed.py)."""
    rows = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        row = {"job": job.name, "ok": False, "digits": 0.0, "output": None, "error": None}
        busy = probe.busy
        start = time.perf_counter()
        try:
            result = job.call()
        except Exception as exc:  # a job that raises counts as failed
            row["error"] = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        row.update(start=start, end=end, raw_seconds=end - start - (probe.busy - busy))
        if row["error"] is None:
            try:
                outcome = job.check(result)
            except Exception as exc:  # malformed output counts as failed
                row["error"] = f"check: {type(exc).__name__}: {exc}"
            else:
                row.update(ok=outcome.ok, digits=digits(outcome.error), error_value=outcome.error,
                           output=hashlib.sha256(outcome.output.encode()).hexdigest())
        rows.append(row)
    for row in rows:
        row["seconds"] = row["raw_seconds"] * probe.factor(row["start"], row["end"])
    return rows


def _wall(rows, key="seconds"):
    return sum(r[key] for r in rows)


def run_workload(workload, seed, seconds, trace, smoke=False):
    """One benchmark run; returns the full record."""
    # imported here, not at the top: speed loads numpy, and a set-up probe
    # (the same file, run as a child) must time that import itself
    import speed
    import tracer as tracing

    setup_times = measure_setup(workload, seed, 1 if smoke else SETUP_SAMPLES)
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as workdir:
        _, jobs = setup(workload, seed, workdir, smoke)
        untraced, traced, layer = [], [], []
        restored = True
        with speed.SpeedProbe() as probe:
            start = time.perf_counter()
            while True:
                rows = run_pass(jobs, probe)
                untraced.append(rows)
                if trace:
                    tr = tracing.Tracer()
                    tr.install()
                    probe.listener = tr.exclude
                    try:
                        rows = run_pass(jobs, probe, tr)
                    finally:
                        probe.listener = None
                        tr.uninstall()
                    restored = restored and tr.restored()
                    traced.append(rows)
                    scale = probe.factor(rows[0]["start"], rows[-1]["end"], pad=0.0)
                    layer.append(tr.metrics(scale))
                # the next pass (or pair) runs only if it should end in time
                unit = rows[-1]["end"] - untraced[-1][0]["start"]
                if time.perf_counter() - start + unit > seconds:
                    break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # every pass, traced or not, must reproduce the first pass's outputs
    first = {r["job"]: r["output"] for r in untraced[0]}
    mismatched = sorted({r["job"] for rows in untraced[1:] + traced for r in rows
                         if r["output"] != first[r["job"]]})
    all_rows = [r for rows in untraced for r in rows]
    failed_rows = [r for rows in untraced + traced for r in rows if not r["ok"]]
    pass_walls = [_wall(rows) for rows in untraced]
    record = {
        "env": environment(workload, seed, seconds, trace),
        "passes": len(untraced),
        "jobs_per_pass": len(jobs),
        "setup_samples_s": setup_times,
        "pass_walls_s": pass_walls,
        "pass_walls_raw_s": [_wall(rows, "raw_seconds") for rows in untraced],
        "probe_samples": len(probe.seconds),
        "restored": restored,
        "mismatched_outputs": mismatched,
        "failures": sorted({f"{r['job']}: {r['error'] or 'outside tolerance'}"
                            for r in failed_rows}),
        "jobs": [{k: v for k, v in r.items() if k not in ("output", "start", "end")}
                 for r in all_rows],
        "attempted": len(all_rows) + sum(len(rows) for rows in traced),
        "failed": len(failed_rows),
        "correct": restored and not mismatched and not failed_rows,
    }
    if trace:
        metrics = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
        metrics["trace.overhead_s"] = (statistics.median(_wall(rows) for rows in traced)
                                       - statistics.median(pass_walls))
        record["metrics"] = {k: {"value": v, "unit": tracing.unit(k)} for k, v in metrics.items()}
    else:
        job_digits = [r["digits"] for r in all_rows]
        record["metrics"] = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(pass_walls), "unit": "s"},
            "job_p50_s": {"value": statistics.median(r["seconds"] for r in all_rows), "unit": "s"},
            "digits_min": {"value": min(job_digits), "unit": "digits"},
            "digits_mean": {"value": statistics.fmean(job_digits), "unit": "digits"},
            "ok_frac": {"value": sum(r["ok"] for r in all_rows) / len(all_rows), "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        record["failed_frac"] = 1.0 - record["metrics"]["ok_frac"]["value"]
    return record


# ---------------------------------------------------------------------------
# reporting

def print_summary(record, out=sys.stdout):
    env = record["env"]
    out.write(f"# {env['workload']} seed={env['seed']} trace={env['trace']} "
              f"passes={record['passes']} jobs/pass={record['jobs_per_pass']} "
              f"attempted={record['attempted']} failed={record['failed']}\n")
    out.write("# env " + json.dumps({k: env[k] for k in
                                     ("git_sha", "python", "numpy", "blas_threads", "nproc")})
              + "\n")
    if "failed_frac" in record:
        out.write(f"#   failed_frac = {record['failed_frac']:.4f}\n")
    for name, m in record["metrics"].items():
        out.write(f"#   {name} = {m['value']:.6g} {m['unit']}\n")
    for line in record["failures"]:
        out.write(f"# FAILED {line}\n")
    for job in record["mismatched_outputs"]:
        out.write(f"# OUTPUT CHANGED between passes: {job}\n")
    if not record["restored"]:
        out.write("# TRACER left a wrapper installed\n")


def result_line(record):
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def smoke(seed):
    """Every workload on its seconds-scale job list, untraced and traced."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = run_workload(workload, seed, 0.0, trace, smoke=True)
            print_summary(record)
            ok = ok and record["correct"] and all(
                math.isfinite(m["value"]) for m in record["metrics"].values())
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_package()
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print_summary(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
