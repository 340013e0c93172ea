"""Run one workload in this (fresh) process and print its result as one JSON
line. run.py starts a new worker for every run, so the package's module-level
caches always start empty.

    python3 perfbench/worker.py --workload book --seed 1 --seconds 10
    python3 perfbench/worker.py --setup-only book
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
clock = time.perf_counter


def setup_seconds(workload: str) -> float:
    """Time to import the package and prepare models in a fresh process;
    for cli, the time to import nmvmrisk.cli."""
    t0 = clock()
    if workload == "cli":
        import nmvmrisk.cli  # noqa: F401
        return clock() - t0
    import nmvmrisk as nr
    for name, mode in (("fivestock_skew.json", "skew"),
                       ("fivestock_location.json", "mean_risk")):
        nr.transform(nr.load_model(HERE / "data" / name), mode=mode)
    return clock() - t0


def percentile(values, q: float) -> float:
    """The q-th percentile of values (0.0 when there are none)."""
    import numpy as np
    return float(np.percentile(values, q)) if len(values) else 0.0


def tail(values) -> tuple[float, float]:
    """The highest of a fixed ladder of percentiles with at least ten
    samples beyond it, and which percentile that was (100: the maximum)."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1.0 - q / 100.0) >= 10.0:
            return percentile(values, q), q
    return percentile(values, 100.0), 100.0


def timing(values, scale: float, unit: str) -> dict:
    value, q = tail(values)
    return {"p50": {"value": percentile(values, 50) * scale, "unit": unit},
            "tail": {"value": value * scale, "unit": unit, "percentile": q},
            "samples": len(values)}


def workload_report(name: str, ops: list[dict]) -> dict:
    """Workload-specific figures named as in the benchmark's README."""
    done = [op for op in ops if op["latency_s"] is not None]
    if name == "book":
        main = [op for op in done if not op.get("probe")]
        busy = sum(op["latency_s"] for op in main)
        exact = timing([op["exact_s"] for op in main], 1e3, "ms")
        approx = timing([op["two_point_s"] for op in main], 1e6, "us")
        ratios = [op["tol_ratio"] for op in main if "tol_ratio" in op]
        return {"evals_per_s": {"value": 2 * len(main) / busy if busy else 0.0,
                                "unit": "1/s"},
                "worst_tolerance_ratio": max(ratios, default=0.0),
                "exact_p50_ms": exact["p50"], "exact_tail_ms": exact["tail"],
                "exact_samples": exact["samples"],
                "approx_p50_us": approx["p50"]}
    if name == "optimize":
        frontier = [op["latency_s"] for op in done if op["kind"] == "frontier"]
        reduced = [op["latency_s"] for op in done if op["kind"] != "frontier"]
        return {"frontier_s": {"value": percentile(frontier, 50), "unit": "s"},
                "reduced_solve_s": {"value": percentile(reduced, 50),
                                    "unit": "s"},
                "reduced_objective": {op["kind"]: op["objective"]
                                      for op in ops if "objective" in op}}
    if name == "fit":
        return {"fit_s": {"value": percentile(
                    [op["latency_s"] for op in done], 50), "unit": "s"},
                "iterations": {shape: fit["iterations"] for op in done
                               for shape, fit in op["fits"].items()}}
    per_cmd: dict[str, list[float]] = {}
    for op in done:
        per_cmd.setdefault(op["argv"][0], []).append(op["latency_s"])
    cli = timing([op["latency_s"] for op in done], 1.0, "s")
    return {"cli_p50_s": cli["p50"], "cli_tail_s": cli["tail"],
            "cli_samples": cli["samples"],
            "per_command_s": {cmd: sum(v) / len(v)
                              for cmd, v in per_cmd.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--setup-only", metavar="WORKLOAD")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--passes", type=int, default=0,
                        help="run exactly this many passes (0: as many as "
                             "fit in --seconds, at least one)")
    parser.add_argument("--trace-dir",
                        help="trace the run; write spans and summaries here")
    parser.add_argument("--workdir", help="scratch directory for the cli "
                        "workload's input files")
    args = parser.parse_args(argv)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_seconds(args.setup_only)}))
        return 0
    setup_s = setup_seconds(args.workload)

    import numpy as np
    import scipy

    import workloads

    name = args.workload
    trace_dir = Path(args.trace_dir) if args.trace_dir else None
    if name == "cli":
        launcher = None
        if trace_dir is not None:
            launcher = HERE / "cli_launcher.py"
            os.environ["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        wl = workloads.Cli(args.seed, args.size, Path(args.workdir), launcher)
    else:
        wl = workloads.WORKLOADS[name](args.seed, args.size)
    tracer = None
    if trace_dir is not None and name != "cli":
        import spans
        tracer = spans.Tracer()
        tracer.install()

    ops: list[dict] = []
    walls: list[float] = []
    while True:
        t0 = clock()
        if tracer is not None:
            ops += tracer.span(spans.ROOT_SPAN, wl.run_pass)
        else:
            ops += wl.run_pass()
        walls.append(clock() - t0)
        # stop at the requested pass count, or before a pass that would
        # likely end past --seconds
        mean_pass = sum(walls) / len(walls)
        if len(walls) == args.passes or (
                not args.passes and sum(walls) + mean_pass > args.seconds):
            break
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    raw_trace = None
    if tracer is not None:
        raw_trace = tracer.summary()
        np.savez_compressed(trace_dir / f"spans-{name}.npz", **tracer.arrays())
    elif trace_dir is not None:
        import spans
        raw_trace = spans.merge([json.loads(p.read_text(encoding="utf-8"))
                                 for p in sorted(trace_dir.glob("cli-*.json"))])

    wl.check(ops)

    main_ops = [op for op in ops if not op.get("probe")]
    probes = [op for op in ops if op.get("probe")]
    done = [op["latency_s"] for op in main_ops if op["latency_s"] is not None]
    busy = sum(done)
    result = {
        "setup_s": setup_s,
        # an op that raised carries "error"; one that failed a check does not
        "correct": not any(not op["ok"] and "error" not in op for op in ops),
        "attempted": len(main_ops),
        "failed": sum(not op["ok"] for op in main_ops),
        "probe_attempted": len(probes),
        "probe_failed": sum(not op["ok"] for op in probes),
        "probe_errors": sorted({op.get("error", "") for op in probes
                                if not op["ok"]}),
        "errors": sorted({op["error"] for op in main_ops if "error" in op})[:5],
        "passes": len(walls),
        "wall_s": sum(walls),
        "metrics": {
            "peak_rss_mb": peak_rss_mb,
            "ops_per_s": len(done) / busy if busy else 0.0,
            "op_p50_ms": percentile(done, 50) * 1e3,
        },
        "report": workload_report(name, ops),
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "trace": raw_trace,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
