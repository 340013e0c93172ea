"""End-to-end tests of the command-line interface (in-process)."""

import csv
import io
import json
import math
import os
import subprocess
import sys

from pathlib import Path

import numpy as np
import pytest

import nmvmrisk as nr
from nmvmrisk import risk as riskmod
from nmvmrisk.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, main

DATA_DIR = Path(__file__).parent / "data"
MODEL = str(DATA_DIR / "fivestock_location.json")
SKEW_MODEL = str(DATA_DIR / "fivestock_skew.json")


@pytest.fixture(autouse=True)
def _fresh_caches():
    riskmod.clear_caches()
    yield
    riskmod.clear_caches()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_prices(tmp_path, t=400, seed=3):
    rng = np.random.default_rng(seed)
    z = rng.wald(1.0, 1.44, size=t)
    returns = 0.001 + 0.004 * z[:, None] + np.sqrt(z)[:, None] * \
        rng.standard_normal((t, 2)) @ np.linalg.cholesky(
            np.array([[4e-4, 1e-4], [1e-4, 9e-4]])).T
    prices = 100.0 * np.exp(np.cumsum(np.vstack([np.zeros(2), returns]),
                                      axis=0))
    lines = ["date,a,b"]
    base = np.datetime64("2023-01-02")
    for i, row in enumerate(prices):
        lines.append(f"{base + i},{row[0]:.8f},{row[1]:.8f}")
    path = tmp_path / "prices.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestFitCommand:
    def test_fit_synthetic(self, tmp_path, capsys):
        prices = make_prices(tmp_path)
        out_file = tmp_path / "model.json"
        code, out, _ = run(capsys, "fit", "--input", str(prices),
                           "--out", str(out_file))
        assert code == EXIT_OK
        summary = json.loads(out)
        assert summary["converged"] in (True, False)
        assert out_file.exists()
        nr.load_model(out_file)  # written file validates

    def test_malformed_csv_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,a\n2024-01-02,100\n2024-01-03\n",
                       encoding="utf-8")
        code, _, err = run(capsys, "fit", "--input", str(bad),
                           "--out", str(tmp_path / "m.json"))
        assert code == EXIT_INPUT
        assert "line 3" in err

    def test_max_iters_one_not_an_error(self, tmp_path, capsys):
        prices = make_prices(tmp_path, t=250)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iters": 1}), encoding="utf-8")
        code, out, _ = run(capsys, "fit", "--input", str(prices),
                           "--config", str(cfg),
                           "--out", str(tmp_path / "m.json"))
        assert code == EXIT_OK
        assert json.loads(out)["converged"] is False

    @pytest.mark.parametrize("config", [
        {"bogus_key": 1}, [1, 2], {"max_iters": "10"},
        {"lambda_value": "-0.5"}, {"include_mu": "no"}])
    def test_bad_config_exits_one(self, tmp_path, capsys, config):
        prices = make_prices(tmp_path, t=250)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        code, out, err = run(capsys, "fit", "--input", str(prices),
                             "--config", str(cfg),
                             "--out", str(tmp_path / "m.json"))
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ")


class TestRiskCommand:
    def test_exact_json_record(self, capsys):
        code, out, _ = run(capsys, "risk", "--model", MODEL,
                           "--weights", "0.1,0.4,0.2,0.1,0.2",
                           "--measure", "var", "--beta", "0.1")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["method"] == "exact_quadrature"
        assert record["value"] == pytest.approx(0.023742180808445857,
                                                abs=1e-9)

    def test_methods_agree_roughly(self, capsys):
        values = {}
        for method in ("exact", "two-point", "piecewise"):
            code, out, _ = run(capsys, "risk", "--model", MODEL,
                               "--weights", "0.2,0.2,0.2,0.2,0.2",
                               "--measure", "cvar", "--beta", "0.05",
                               "--method", method)
            assert code == EXIT_OK
            values[method] = json.loads(out)["value"]
        assert values["two-point"] == pytest.approx(values["exact"],
                                                    abs=5e-4)
        assert values["piecewise"] == pytest.approx(values["exact"],
                                                    abs=5e-4)

    def test_mc_deterministic_with_seed(self, capsys):
        args = ("risk", "--model", MODEL, "--weights",
                "0.2,0.2,0.2,0.2,0.2", "--measure", "var", "--beta", "0.1",
                "--method", "mc", "--samples", "100000", "--seed", "7")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert json.loads(out1)["value"] == json.loads(out2)["value"]

    def test_beta_out_of_range(self, capsys):
        code, _, err = run(capsys, "risk", "--model", MODEL,
                           "--weights", "0.2,0.2,0.2,0.2,0.2",
                           "--measure", "var", "--beta", "1.5")
        assert code == EXIT_INPUT
        assert "beta" in err

    def test_dimension_mismatch(self, capsys):
        code, _, err = run(capsys, "risk", "--model", MODEL,
                           "--weights", "0.5,0.5",
                           "--measure", "var", "--beta", "0.1")
        assert code == EXIT_INPUT
        assert "weights" in err

    @pytest.mark.parametrize("method, bad", [
        ("exact", "nan"), ("two-point", "inf"), ("piecewise", "nan"),
        ("mc", "inf")])
    def test_non_finite_weights_exit_one(self, capsys, method, bad):
        code, out, err = run(capsys, "risk", "--model", MODEL,
                             "--weights", f"{bad},0.4,0.2,0.1,0.2",
                             "--measure", "cvar", "--beta", "0.05",
                             "--method", method, "--samples", "10000")
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("error:") and "finite" in err

    def test_non_finite_model_parameter_exits_one(self, tmp_path, capsys):
        payload = json.loads(Path(MODEL).read_text(encoding="utf-8"))
        payload["mixing"]["parameters"]["lambda"] = math.nan
        path = tmp_path / "nan_model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")  # writes NaN
        code, out, err = run(capsys, "risk", "--model", str(path),
                             "--weights", "0.1,0.4,0.2,0.1,0.2",
                             "--measure", "var", "--beta", "0.1")
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("error:") and "finite" in err

    def test_two_point_quadrature_amortized(self, capsys, monkeypatch):
        calls = {"n": 0}
        original = riskmod.two_point_coefficients

        def counting(tm, beta):
            calls["n"] += 1
            return original(tm, beta)

        monkeypatch.setattr(riskmod, "two_point_coefficients", counting)
        # same (model, beta, measure) repeatedly: the chord endpoints are
        # computed once; later invocations hit the cache inside
        for _ in range(3):
            code, _, _ = run(capsys, "risk", "--model", MODEL,
                             "--weights", "0.1,0.4,0.2,0.1,0.2",
                             "--measure", "var", "--beta", "0.1",
                             "--method", "two-point")
            assert code == EXIT_OK
        assert calls["n"] == 3  # wrapper called per run ...
        # ... but the memo holds just the four endpoint values, reused; the
        # first run's two CVaR entries also hit their endpoint VaRs
        memo = riskmod._scalar_risk.cache_info()
        assert memo.currsize == 4
        assert memo.hits == 10


class TestFrontierCommand:
    def test_single_step(self, capsys):
        code, out, _ = run(capsys, "frontier", "--model", SKEW_MODEL,
                           "--rmin", "0.002", "--rmax", "0.002",
                           "--steps", "1", "--beta", "0.05")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["return"]) == 0.002
        weights = [float(rows[0][f"w{i + 1}"]) for i in range(5)]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)

    def test_grid_csv(self, tmp_path, capsys):
        out_file = tmp_path / "frontier.csv"
        code, _, _ = run(capsys, "frontier", "--model", SKEW_MODEL,
                         "--rmin", "0.0", "--rmax", "0.003",
                         "--steps", "4", "--beta", "0.1",
                         "--out", str(out_file))
        assert code == EXIT_OK
        rows = list(csv.DictReader(out_file.open()))
        assert len(rows) == 4
        assert [r["error"] for r in rows] == [""] * 4

    def test_degenerate_model_exits_two(self, tmp_path, capsys):
        model = nr.NmvmModel(mu=np.zeros(3), gamma=np.ones(3) * 0.2,
                             sigma=np.eye(3), mixing=nr.Gamma(1.0, 1.0))
        path = tmp_path / "degenerate.json"
        nr.save_model(model, path)
        code, _, err = run(capsys, "frontier", "--model", str(path),
                           "--rmin", "0.0", "--rmax", "0.01",
                           "--steps", "3", "--beta", "0.05")
        assert code == EXIT_NUMERICAL
        assert "parallel" in err

    @pytest.mark.parametrize("beta", ["1.5", "nan"])
    def test_beta_out_of_range(self, capsys, beta):
        code, out, err = run(capsys, "frontier", "--model", SKEW_MODEL,
                             "--rmin", "0.0", "--rmax", "0.003",
                             "--steps", "3", "--beta", beta)
        assert (code, out) == (EXIT_INPUT, "")
        assert "beta" in err

    def test_bad_grid(self, capsys):
        code, _, _ = run(capsys, "frontier", "--model", SKEW_MODEL,
                         "--rmin", "0.01", "--rmax", "0.001",
                         "--steps", "3", "--beta", "0.05")
        assert code == EXIT_INPUT


class TestCompareCommand:
    def test_table_shape_and_consistency(self, tmp_path, capsys):
        ports = tmp_path / "ports.csv"
        ports.write_text("0.1,0.4,0.2,0.1,0.2\n0.2,0.1,0.5,0.1,0.1\n",
                         encoding="utf-8")
        code, out, _ = run(capsys, "compare", "--model", MODEL,
                           "--portfolios", str(ports),
                           "--betas", "0.1,0.01", "--measure", "both")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2 * 2 * 2  # portfolios x betas x measures
        for row in rows:
            gap = abs(float(row["exact"]) - float(row["two_point"]))
            assert gap == pytest.approx(float(row["abs_gap"]), rel=1e-3)
            assert gap <= 5e-3

    def test_betas_out_of_range(self, tmp_path, capsys):
        ports = tmp_path / "ports.csv"
        ports.write_text("0.2,0.2,0.2,0.2,0.2\n", encoding="utf-8")
        code, out, err = run(capsys, "compare", "--model", MODEL,
                             "--portfolios", str(ports),
                             "--betas", "0.1,1.5")
        assert (code, out) == (EXIT_INPUT, "")
        assert "beta" in err

    def test_empty_portfolio_file(self, tmp_path, capsys):
        ports = tmp_path / "empty.csv"
        ports.write_text("\n", encoding="utf-8")
        code, _, err = run(capsys, "compare", "--model", MODEL,
                           "--portfolios", str(ports))
        assert code == EXIT_INPUT
        assert "no weight rows" in err

    def test_mc_column_deterministic(self, tmp_path, capsys):
        ports = tmp_path / "ports.csv"
        ports.write_text("0.2,0.2,0.2,0.2,0.2\n", encoding="utf-8")
        args = ("compare", "--model", MODEL, "--portfolios", str(ports),
                "--betas", "0.1", "--measure", "var", "--with-mc",
                "--seed", "11", "--samples", "50000")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        rows = list(csv.DictReader(io.StringIO(out1)))
        assert rows[0]["mc"] != ""


class TestArgumentHandling:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_INPUT

    def test_missing_required_flag(self, capsys):
        assert main(["risk", "--model", MODEL]) == EXIT_INPUT

    def test_missing_model_file(self, capsys):
        code, _, err = run(capsys, "risk", "--model", "/nonexistent.json",
                           "--weights", "1", "--measure", "var",
                           "--beta", "0.1")
        assert code == EXIT_INPUT


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats (~0.4 s) and scipy.optimize (~0.3 s) would be part of
    # every CLI start; only Gig.sample, the CM2 update, the reduced
    # optimizer and cvar_via_F need them, and they import them when called
    src = str(Path(nr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, nmvmrisk.cli; "
         "print([m in sys.modules for m in ('scipy.stats', 'scipy.optimize')])"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[False, False]"
