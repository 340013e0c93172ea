"""Benchmark entry point: one run of one workload of nmvmrisk.

    python3 perfbench/run.py --workload book --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the package from src/.
Each run times set-up in two fresh processes, then runs the workload in a
fresh worker process (so no library cache carries over from an earlier run),
which times its own set-up as a third sample and then runs as many whole
passes of the workload's ops as fit in --seconds (at least one). With
--trace 1 it runs the same number of passes again with span wrappers
installed and reports per-layer metrics and the tracing overhead instead.

Prints an environment record, a report with the workload's own figures, and
as its last line one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("book", "optimize", "fit", "cli")
SETUP_PROBES = 2  # fresh processes, besides the worker's own set-up
RUN_BUDGET_S = 175.0
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
             "op_p50_ms": "ms"}
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def run_python(args: list[str], env: dict, deadline: float) -> dict:
    """Run a Python script to completion in its own process group and parse
    the JSON object on the last line of its output."""
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.time(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{args[0]} {' '.join(args[1:3])} ran out of time")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n"
                         f"{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def environment(nproc: int, versions: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"machine": platform.machine(), "cpu": cpu, "nproc": nproc,
            "blas_threads": nproc, **versions, "commit": commit,
            "isolation": "fresh worker process per run; caches start empty",
            "note": "CPUs are not pinned and the file cache is not dropped"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's tests")
    args = parser.parse_args(argv)
    deadline = time.time() + RUN_BUDGET_S

    src = ROOT / "src"
    if not (src / "nmvmrisk" / "__init__.py").is_file():
        print(f"perfbench: no nmvmrisk package under {src}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0",
           **{var: str(nproc) for var in BLAS_THREAD_VARS}}
    OUT.mkdir(exist_ok=True)
    worker = str(HERE / "worker.py")
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        setup = [run_python([worker, "--setup-only", args.workload], env,
                            deadline)["setup_s"]
                 for _ in range(SETUP_PROBES)]
        common = [worker, "--workload", args.workload, "--seed",
                  str(args.seed), "--size", args.size, "--workdir",
                  str(workdir)]
        plain = run_python(common + ["--seconds", str(args.seconds)], env,
                           deadline)
        setup.append(plain["setup_s"])
        traced = None
        if args.trace:
            trace_dir = OUT / f"trace-{args.workload}"
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir()
            traced = run_python(common + ["--passes", str(plain["passes"]),
                                          "--trace-dir", str(trace_dir)],
                                env, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = plain if traced is None else traced
    attempted = record["attempted"] + record["probe_attempted"]
    failed = record["failed"] + record["probe_failed"]
    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "passes": plain["passes"], "measured_s": plain["wall_s"],
        "setup_samples_s": setup,
        "failed_share": {"value": failed / attempted if attempted else 0.0,
                         "unit": "ratio"},
        "heavy_tail_probe": {"attempted": record["probe_attempted"],
                             "failed": record["probe_failed"],
                             "errors": record["probe_errors"]},
        "errors": record["errors"],
        **plain["report"],
    }
    if traced is None:
        values = {"setup_s": statistics.median(setup), **plain["metrics"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    else:
        import spans
        raw = traced["trace"]
        launchers = raw.get("cli.launchers", 0.0)
        extra = {
            "trace.wall_s": traced["wall_s"],
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
            "cli.import_s": raw.get("cli.import_s", 0.0) / launchers
            if launchers else 0.0,
            "book.heavy_tail.failed_share": traced["probe_failed"]
            / traced["probe_attempted"] if traced["probe_attempted"] else 0.0,
        }
        for cmd, seconds in traced["report"].get("per_command_s", {}).items():
            extra[f"cli.{cmd}_s"] = seconds
        metrics = {name: {"value": value, "unit": spans.unit(name)}
                   for name, value in spans.finish(raw, extra).items()}
    print("perfbench env " + json.dumps(environment(nproc, plain["versions"])))
    print("perfbench report " + json.dumps(report))
    print(json.dumps({
        "correct": plain["correct"] and (traced is None or traced["correct"]),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
