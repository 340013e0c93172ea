"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q perfbench/tests

The runs use --size tiny, so the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REPORTED = {  # figures each workload's report line names, with their units
    "book": {"evals_per_s": "1/s", "exact_p50_ms": "ms",
             "exact_tail_ms": "ms", "approx_p50_us": "us"},
    "optimize": {"frontier_s": "s", "reduced_solve_s": "s"},
    "fit": {"fit_s": "s"},
    "cli": {"cli_p50_s": "s", "cli_tail_s": "s"},
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def tiny_run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("perfbench report ")
    return json.loads(lines[-1]), json.loads(lines[-2].split(" ", 2)[2])


@pytest.mark.parametrize("workload", list(REPORTED))
def test_tiny_run_emits_every_end_to_end_metric(workload):
    result, report = tiny_run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0.0
    for name, unit in {**REPORTED[workload], "failed_share": "ratio"}.items():
        assert report[name]["unit"] == unit


def test_book_failed_share_is_the_heavy_tail_slice():
    _, report = tiny_run("book", trace=0)
    probe = report["heavy_tail_probe"]
    assert probe["failed"] == probe["attempted"] > 0
    assert probe["errors"] == ["MomentError"]
    attempted = probe["attempted"] + report["exact_samples"]
    assert report["failed_share"]["value"] == probe["failed"] / attempted


def test_traced_book_self_times_sum_to_wall_time():
    result, _ = tiny_run("book", trace=1)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert list(m) == [entry["name"] for entry in SPEC["per_layer"]]
    assert m["trace.missing"] == 0
    assert abs(m["trace.wall_s"] - m["trace.self_sum_s"]) <= \
        abs(m["trace.overhead_s"])
    assert m["risk.portfolio_risk_exact.calls"] > 0
    assert m["book.heavy_tail.failed_share"] == 1.0


def test_traced_fit_never_enters_the_risk_layer():
    result, _ = tiny_run("fit", trace=1)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["fit.mcecm_fit.calls"] == 3
    assert m["mathkit.integrate_semi_infinite.calls"] == 0
    assert all(value == 0 for name, value in m.items()
               if name.startswith("risk.") and name.endswith(".calls"))


def test_traced_cli_builds_coefficients_cold():
    result, _ = tiny_run("cli", trace=1)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["risk.two_point_coefficients.calls"] > 0
    assert m["risk.two_point_coefficients.hit_ratio"] == 0
    assert m["cli.import_s"] > 0 and m["cli.risk_s"] > 0


def test_gate_rejects_a_perturbed_var():
    book = workloads.Book(seed=5, size="tiny")
    ops = book.run_pass()
    book.check(ops)
    assert all(op["ok"] for op in ops if not op.get("probe"))
    ops = book.run_pass()
    target = next(op for op in ops if op["measure"] == "var")
    target["exact"] += 1e-6
    book.check(ops)
    assert not target["ok"]


def test_gate_rejects_a_wrong_two_point_value():
    book = workloads.Book(seed=6, size="tiny")
    ops = book.run_pass()
    target = next(op for op in ops if op["measure"] == "cvar")
    target["two_point"] *= 1.0 + 1e-8
    book.check(ops)
    assert not target["ok"]


def test_gate_rejects_a_non_monotone_fit_trace():
    assert workloads.check_fit_trace([1.0, 2.0, 3.0], 3.0)
    assert not workloads.check_fit_trace([1.0, 3.0, 2.5, 3.0], 3.0)
    assert not workloads.check_fit_trace([1.0, 2.0, 2.9], 3.0)


def test_heavy_tail_reference_matches_student_t_by_quadrature():
    dist = workloads.oracle.mixing_dist(workloads.HEAVY["mixing"])
    w = np.full(5, 0.2)
    loc, _, s = workloads.portfolio_law(workloads.HEAVY, w)
    scale = s * np.sqrt(workloads.HEAVY["mixing"]["chi"] / workloads.HEAVY_DOF)
    var, cvar = workloads.oracle.student_t_var_cvar(0.05, loc, scale,
                                                    workloads.HEAVY_DOF)
    ratios = workloads.oracle.tolerance_ratios(dist, 0.05, [loc], [0.0], [s],
                                               [var], [cvar])
    assert all(r[0] <= 1.0 for r in ratios)


def test_runner_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "book", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
