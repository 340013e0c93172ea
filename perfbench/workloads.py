"""The four benchmark workloads: inputs from a seed, one pass of ops, and the
correctness gate for the outputs of a pass.

Each workload object is built (untimed) from a seed and a size, runs one pass
of its ops per `run_pass()` call, and checks every recorded op afterwards in
`check()`. An op record carries `latency_s` (None unless the op completed
and is timed), `ok`, which the check may turn False, and `error` when the op
raised or its process exited non-zero.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy import stats

import nmvmrisk as nr

import oracle

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
REFERENCE = HERE / "reference.json"
BETAS = (0.1, 0.05, 0.01)
MEASURES = ("var", "cvar")
clock = time.perf_counter

SIZES = {
    "full": {
        "frontier_steps": 100, "reduced_grid": 41,
        "fit": {"narrow": 20000, "wide": 5000, "free": 5000},
        "free_iters": 60, "cli_models": 5, "cli_frontier_steps": 20,
    },
    "tiny": {
        "frontier_steps": 5, "reduced_grid": 5,
        "fit": {"narrow": 2000, "wide": 1000, "free": 1000},
        "free_iters": 10, "cli_models": 1, "cli_frontier_steps": 3,
    },
}
FIT_VARIANTS = 4
REDUCED_BETA, REDUCED_K = 0.05, 0.001
FRONTIER_BETA, FRONTIER_RANGE = 0.05, (0.0005, 0.005)


# ---------------------------------------------------------------------------
# Model specs: plain dicts the oracle reads, turned into library objects here
# ---------------------------------------------------------------------------

def read_spec(path: Path) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    n = payload["n"]
    mixing = {"family": payload["mixing"]["family"],
              **payload["mixing"]["parameters"]}
    return {"mu": np.array(payload["mu"]), "gamma": np.array(payload["gamma"]),
            "sigma": np.array(payload["sigma"]).reshape(n, n),
            "mixing": mixing}


def with_mixing(spec: dict, mixing: dict, **changes) -> dict:
    return {**spec, **changes, "mixing": mixing}


SKEW = read_spec(DATA / "fivestock_skew.json")
LOCATION = read_spec(DATA / "fivestock_location.json")
BOOK_MODELS = {
    "skew": SKEW,
    "location": LOCATION,
    # density singular at 0: the slowest quadratures
    "gamma_0.5": with_mixing(LOCATION, {"family": "gamma", "shape": 0.5,
                                        "rate": 0.5}),
    "gamma_2": with_mixing(LOCATION, {"family": "gamma", "shape": 2.0,
                                      "rate": 2.0}),
    "ig_1": with_mixing(LOCATION, {"family": "inverse_gaussian", "delta": 1.0,
                                   "gamma_ig": 1.0}),
}
# Student t with 4 degrees of freedom: gamma = 0, Z ~ GIG(-2, 2, 0)
HEAVY_DOF = 4.0
HEAVY = with_mixing(LOCATION, {"family": "gig", "lambda": -HEAVY_DOF / 2,
                               "chi": 2.0, "psi": 0.0},
                    gamma=np.zeros(5))


def library_mixing(mixing: dict):
    family = mixing["family"]
    if family == "gig":
        return nr.Gig(mixing["lambda"], mixing["chi"], mixing["psi"])
    if family == "gamma":
        return nr.Gamma(mixing["shape"], mixing["rate"])
    return nr.InverseGaussian(mixing["delta"], mixing["gamma_ig"])


def library_model(spec: dict):
    return nr.NmvmModel(mu=spec["mu"], gamma=spec["gamma"],
                        sigma=spec["sigma"],
                        mixing=library_mixing(spec["mixing"]))


def model_file_text(spec: dict) -> str:
    """Model file in the package's schema, written without the package."""
    params = {k: v for k, v in spec["mixing"].items() if k != "family"}
    return json.dumps({
        "schema_version": 1, "n": int(spec["mu"].size),
        "mu": spec["mu"].tolist(), "gamma": spec["gamma"].tolist(),
        "sigma": spec["sigma"].ravel().tolist(),
        "mixing": {"family": spec["mixing"]["family"], "parameters": params},
    })


def portfolio_law(spec: dict, w: np.ndarray):
    """(loc, c, s) of the return w^T X = loc + c Z + s sqrt(Z) N."""
    return (float(w @ spec["mu"]), float(w @ spec["gamma"]),
            math.sqrt(float(w @ spec["sigma"] @ w)))


def draw_weights(rng: np.random.Generator, n: int, long_short: bool):
    """Long-only Dirichlet weights, or 1.5 * long - 0.5 * short (sums to 1)."""
    w = rng.dirichlet(np.ones(n))
    if long_short:
        w = 1.5 * w - 0.5 * rng.dirichlet(np.ones(n))
    return w


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def number_list(w) -> str:
    return ",".join(format(float(v), ".17g") for v in w)


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= abs_ + rel * abs(b)


# ---------------------------------------------------------------------------
# book: reprice a seeded book of portfolios, exact and two-point
# ---------------------------------------------------------------------------

class Book:
    """One op = one portfolio at one (measure, beta), priced by
    portfolio_risk_exact and then portfolio_risk_two_point.

    A pass prices one fresh portfolio per model at every (measure, beta),
    long-only on even passes and long-short on odd ones, then runs the
    heavy-tail probe: transform plus exact price for a Student-t model.
    """

    def __init__(self, seed: int, size: str):
        self.rng = np.random.default_rng(seed)
        self.models = {}
        for name, spec in BOOK_MODELS.items():
            model = library_model(spec)
            self.models[name] = (spec, nr.transform(model))
        self.heavy_model = library_model(HEAVY)
        self.passes = 0

    def run_pass(self) -> list[dict]:
        long_short = self.passes % 2 == 1
        self.passes += 1
        ops = []
        for name, (spec, tm) in self.models.items():
            w = draw_weights(self.rng, spec["mu"].size, long_short)
            x = tm.x_from_weights(w)
            for beta in BETAS:
                for measure in MEASURES:
                    op = {"model": name, "w": w, "beta": beta,
                          "measure": measure, "latency_s": None, "ok": False}
                    try:
                        t0 = clock()
                        op["exact"] = nr.portfolio_risk_exact(
                            tm, x, measure, beta).value
                        t1 = clock()
                        op["two_point"] = nr.portfolio_risk_two_point(
                            tm, x, measure, beta).value
                        t2 = clock()
                    except (ValueError, ArithmeticError) as exc:
                        op["error"] = repr(exc)
                    else:
                        op.update(latency_s=t2 - t0, exact_s=t1 - t0,
                                  two_point_s=t2 - t1, ok=True)
                    ops.append(op)
        w = draw_weights(self.rng, HEAVY["mu"].size, long_short)
        for beta in BETAS:
            for measure in MEASURES:
                op = {"model": "heavy_t4", "w": w, "beta": beta,
                      "measure": measure, "probe": True, "latency_s": None,
                      "ok": False}
                try:
                    tm = nr.transform(self.heavy_model)
                    op["exact"] = nr.portfolio_risk_exact(
                        tm, tm.x_from_weights(w), measure, beta).value
                except (ValueError, ArithmeticError) as exc:
                    op["error"] = type(exc).__name__
                else:
                    op["ok"] = True
                ops.append(op)
        return ops

    def check(self, ops: list[dict]) -> None:
        """Oracle gate: exact values against the quantile equation and tail
        integral, two-point values against the chord through oracle-checked
        endpoint values, probe values against the Student-t closed form."""
        for name, (spec, tm) in self.models.items():
            dist = oracle.mixing_dist(spec["mixing"])
            b = math.sqrt(float(spec["gamma"] @ np.linalg.solve(
                spec["sigma"], spec["gamma"])))
            for beta in BETAS:
                self._check_group(spec, tm, dist, b, beta, [
                    op for op in ops if op["model"] == name
                    and op["beta"] == beta and op["ok"]])
        for op in ops:
            if op.get("probe") and op["ok"]:
                loc, _, s = portfolio_law(HEAVY, op["w"])
                scale = s * math.sqrt(HEAVY["mixing"]["chi"] / HEAVY_DOF)
                ref = oracle.student_t_var_cvar(op["beta"], loc, scale,
                                                HEAVY_DOF)
                op["ok"] = _close(op["exact"], ref[op["measure"] == "cvar"],
                                  1e-7)

    @staticmethod
    def _check_group(spec, tm, dist, b, beta, group):
        if not group:
            return
        pairs = {}
        for op in group:
            pairs.setdefault(tuple(op["w"]), {})[op["measure"]] = op
        laws, var, cvar, var_ops, cvar_ops = [], [], [], [], []
        for w, by_measure in pairs.items():
            var_op, cvar_op = by_measure.get("var"), by_measure.get("cvar")
            if var_op is None or cvar_op is None:
                # a CVaR needs its VaR to be checked; a lone op fails
                for op in by_measure.values():
                    op["ok"] = False
                continue
            laws.append(portfolio_law(spec, np.array(w)))
            var.append(var_op["exact"])
            cvar.append(cvar_op["exact"])
            var_ops.append(var_op)
            cvar_ops.append(cvar_op)
        if laws:
            loc, c, s = (np.array(col) for col in zip(*laws))
            ratios = oracle.tolerance_ratios(dist, beta, loc, c, s, var, cvar)
            for ops_, ratio in zip((var_ops, cvar_ops), ratios):
                for op, r in zip(ops_, ratio):
                    op["tol_ratio"] = float(r)
                    op["ok"] = bool(r <= oracle.GATE_FACTOR)
        # chord through the endpoint laws Y_{+b}, Y_{-b} (loc 0, scale 1)
        coeffs = nr.two_point_coefficients(tm, beta)
        end_var = [coeffs.w_plus + coeffs.w_minus,
                   coeffs.w_plus - coeffs.w_minus]
        end_cvar = [coeffs.v_plus + coeffs.v_minus,
                    coeffs.v_plus - coeffs.v_minus]
        ends_ok = all(np.all(r <= oracle.GATE_FACTOR)
                      for r in oracle.tolerance_ratios(
                          dist, beta, [0.0, 0.0], [b, -b], [1.0, 1.0],
                          end_var, end_cvar))
        for op in group:
            loc, c, s = portfolio_law(spec, op["w"])
            lo, hi = ((end_var[1], end_var[0]) if op["measure"] == "var"
                      else (end_cvar[1], end_cvar[0]))
            cos = c / (s * b)
            chord = -loc + s * (0.5 * (hi + lo) + 0.5 * (hi - lo) * cos)
            if not (ends_ok and _close(op["two_point"], chord, 1e-10, 1e-12)):
                op["ok"] = False


# ---------------------------------------------------------------------------
# optimize: frontier on the skew model, reduced solves on the location model
# ---------------------------------------------------------------------------

class Optimize:
    """One op = one optimizer call: a frontier sweep at beta 0.05, or
    solve_mean_risk_reduced for cvar or var at beta 0.05, k 0.001. The seed
    sets the order of the three ops in a pass; their inputs are fixed so
    the gate can compare against values recorded for this benchmark."""

    def __init__(self, seed: int, size: str):
        self.size = size
        cfg = SIZES[size]
        self.tm_skew = nr.transform(library_model(SKEW), mode="skew")
        self.tm_loc = nr.transform(library_model(LOCATION), mode="mean_risk")
        self.grid = np.linspace(*FRONTIER_RANGE, cfg["frontier_steps"])
        self.grid_size = cfg["reduced_grid"]
        self.order = list(np.random.default_rng(seed).permutation(
            ["frontier", "reduced_cvar", "reduced_var"]))

    def run_pass(self) -> list[dict]:
        ops = []
        for kind in self.order:
            op = {"kind": kind, "latency_s": None, "ok": False}
            try:
                t0 = clock()
                if kind == "frontier":
                    pts = nr.frontier(self.tm_skew, self.grid, FRONTIER_BETA)
                    op["cvar"] = [p.cvar for p in pts]
                else:
                    sol = nr.solve_mean_risk_reduced(
                        self.tm_loc, kind.split("_")[1], REDUCED_BETA,
                        k=REDUCED_K, grid_size=self.grid_size)
                    op["x"] = sol.x_star
                op.update(latency_s=clock() - t0, ok=True)
            except (ValueError, ArithmeticError) as exc:
                op["error"] = repr(exc)
            ops.append(op)
        return ops

    def reduced_objective(self, measure: str, x: np.ndarray) -> float:
        """Oracle risk of the portfolio x (the reduced problem's objective)."""
        w = self.tm_loc.weights_from_x(x)
        loc, c, s = portfolio_law(LOCATION, w)
        dist = oracle.mixing_dist(LOCATION["mixing"])
        var, cvar = oracle.solve_var_cvar(dist, REDUCED_BETA, loc, c, s)
        return var if measure == "var" else cvar

    def check(self, ops: list[dict]) -> None:
        ref = load_reference()["optimize"][self.size]
        for op in ops:
            if not op["ok"]:
                continue
            if op["kind"] == "frontier":
                op["ok"] = len(op["cvar"]) == len(ref["frontier_cvar"]) and \
                    all(_close(a, b, 1e-8, 1e-9)
                        for a, b in zip(op["cvar"], ref["frontier_cvar"]))
                continue
            measure = op["kind"].split("_")[1]
            x = op["x"]
            feasible = abs(float(x @ self.tm_loc.e_a) - 1.0) <= 1e-10 and \
                float(x @ self.tm_loc.m) >= REDUCED_K - 1e-10
            objective = self.reduced_objective(measure, x)
            op["objective"] = objective
            op["ok"] = feasible and objective <= ref[op["kind"]] + 1e-8


# ---------------------------------------------------------------------------
# fit: MCECM on seeded synthetic returns in three shapes
# ---------------------------------------------------------------------------

SYNTH_MIXING = {"lambda": -0.5, "chi": 1.44, "psi": 1.44}
NARROW = {"mu": np.array([0.01, 0.02, -0.005]),
          "gamma": np.array([0.05, -0.03, 0.02]),
          "sigma": np.array([[0.04, 0.01, 0.004],
                             [0.01, 0.09, -0.006],
                             [0.004, -0.006, 0.0225]])}


def wide_params(n: int = 30) -> dict:
    rng = np.random.default_rng(7)
    loadings = rng.normal(0.0, 0.1, (n, 3))
    sigma = loadings @ loadings.T + np.diag(rng.uniform(0.01, 0.03, n))
    return {"mu": rng.normal(0.0, 0.01, n), "gamma": rng.normal(0.0, 0.02, n),
            "sigma": sigma}


def synthetic_returns(params: dict, t: int, data_seed: int) -> np.ndarray:
    """Draws of mu + gamma Z + sqrt(Z) A N with Z ~ GIG(-1/2, 1.44, 1.44)."""
    rng = np.random.default_rng(data_seed)
    m = SYNTH_MIXING
    z = stats.geninvgauss.rvs(
        m["lambda"], math.sqrt(m["chi"] * m["psi"]),
        scale=math.sqrt(m["chi"] / m["psi"]), size=t, random_state=rng)
    chol = np.linalg.cholesky(params["sigma"])
    noise = rng.standard_normal((t, params["mu"].size)) @ chol.T
    return params["mu"] + np.outer(z, params["gamma"]) + \
        np.sqrt(z)[:, None] * noise


def fit_shapes(seed: int, size: str) -> dict:
    """shape -> (returns, FitConfig kwargs, data variant). The seed picks one
    of FIT_VARIANTS recorded data sets per shape."""
    cfg = SIZES[size]
    variant = seed % FIT_VARIANTS
    return {
        # the EM acceptance-test configuration
        "narrow": (synthetic_returns(NARROW, cfg["fit"]["narrow"],
                                     1000 + variant),
                   dict(lambda_mode="fixed", lambda_value=-0.5,
                        include_mu=True, max_iters=300, ll_tol=1e-8,
                        identification="unit_ez"), variant),
        "wide": (synthetic_returns(wide_params(), cfg["fit"]["wide"],
                                   2000 + variant), {}, variant),
        "free": (synthetic_returns(NARROW, cfg["fit"]["free"],
                                   3000 + variant),
                 dict(lambda_mode="free", max_iters=cfg["free_iters"]),
                 variant),
    }


class Fit:
    """One op = one pass: mcecm_fit on each of the three shapes in turn."""

    def __init__(self, seed: int, size: str):
        self.size = size
        self.shapes = {}
        for name, (x, kwargs, variant) in fit_shapes(seed, size).items():
            rm = nr.ReturnsMatrix(assets=[f"a{i}" for i in range(x.shape[1])],
                                  dates=[str(i) for i in range(x.shape[0])],
                                  values=x)
            self.shapes[name] = (rm, nr.FitConfig(**kwargs), variant)

    def run_pass(self) -> list[dict]:
        op = {"latency_s": None, "ok": False, "fits": {}}
        try:
            t0 = clock()
            for name, (rm, cfg, _) in self.shapes.items():
                res = nr.mcecm_fit(rm, cfg)
                op["fits"][name] = {"trace": list(res.log_likelihood_trace),
                                    "iterations": res.iterations}
            op.update(latency_s=clock() - t0, ok=True)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            op["error"] = repr(exc)
        return [op]

    def check(self, ops: list[dict]) -> None:
        ref = load_reference()["fit"][self.size]
        for op in ops:
            if op["ok"]:
                op["ok"] = all(
                    check_fit_trace(fit["trace"],
                                    ref[name][self.shapes[name][2]])
                    for name, fit in op["fits"].items())


def check_fit_trace(trace: list[float], reference_ll: float) -> bool:
    """Non-decreasing log-likelihood trace whose final value is no lower than
    the recorded one by more than 1e-10 relative."""
    steps = np.diff(np.asarray(trace, dtype=float))
    monotone = bool(np.all(steps >= -1e-12 * abs(reference_ll)))
    return monotone and trace[-1] >= reference_ll - 1e-10 * abs(reference_ll)


# ---------------------------------------------------------------------------
# cli: sequential one-shot nmvmrisk subprocesses
# ---------------------------------------------------------------------------

class Cli:
    """One op = one `nmvmrisk` process, started cold: `risk` by exact,
    two-point and piecewise (41 knots, the CLI default) for each book model,
    then one `frontier`, one `compare` and one `fit`."""

    def __init__(self, seed: int, size: str, workdir: Path, launcher=None):
        cfg = SIZES[size]
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.launcher = launcher
        self.invocations = []
        names = list(BOOK_MODELS)[:cfg["cli_models"]]
        for name in names:
            path = workdir / f"{name}.json"
            path.write_text(model_file_text(BOOK_MODELS[name]),
                            encoding="utf-8")
            for method in ("exact", "two-point", "piecewise"):
                w = draw_weights(rng, 5, long_short=False)
                self.invocations.append(["risk", "--model", str(path),
                                         "--weights", number_list(w),
                                         "--measure", str(rng.choice(MEASURES)),
                                         "--beta", repr(float(rng.choice(BETAS))),
                                         "--method", method])
        skew, location = workdir / "skew.json", workdir / "location.json"
        skew.write_text(model_file_text(SKEW), encoding="utf-8")
        location.write_text(model_file_text(LOCATION), encoding="utf-8")
        lo, hi = FRONTIER_RANGE
        self.invocations.append(["frontier", "--model", str(skew), "--rmin",
                                 repr(lo), "--rmax", repr(hi), "--steps",
                                 str(cfg["cli_frontier_steps"]), "--beta",
                                 repr(FRONTIER_BETA)])
        # one portfolio and one measure: each two-point coefficient set is
        # built once, so this call shares nothing either
        book = workdir / "portfolios.csv"
        book.write_text(number_list(draw_weights(rng, 5, long_short=True))
                        + "\n", encoding="utf-8")
        self.invocations.append(["compare", "--model", str(location),
                                 "--portfolios", str(book), "--measure",
                                 "cvar"])
        prices = workdir / "prices.csv"
        prices.write_text(price_csv(rng, 400), encoding="utf-8")
        self.invocations.append(["fit", "--input", str(prices), "--out",
                                 str(workdir / "fitted.json")])

    def command(self, argv: list[str]) -> list[str]:
        if self.launcher is None:
            return [sys.executable, "-m", "nmvmrisk.cli", *argv]
        return [sys.executable, str(self.launcher), *argv]

    def run_pass(self) -> list[dict]:
        ops = []
        for argv in self.invocations:
            op = {"argv": argv, "latency_s": None, "ok": False}
            t0 = clock()
            proc = subprocess.run(self.command(argv), capture_output=True,
                                  text=True, timeout=120, env=os.environ)
            elapsed = clock() - t0
            op.update(stdout=proc.stdout, code=proc.returncode)
            if proc.returncode == 0:
                op.update(latency_s=elapsed, ok=True)
            else:
                op["error"] = proc.stderr[-500:]
            ops.append(op)
        return ops

    def check(self, ops: list[dict]) -> None:
        """Parse each output and compare it with the same call in-process."""
        for op in ops:
            if op["ok"]:
                try:
                    op["ok"] = self._matches(op["argv"], op["stdout"])
                except (ValueError, KeyError, IndexError) as exc:
                    op.update(ok=False, unparsed=repr(exc))

    def _matches(self, argv: list[str], stdout: str) -> bool:
        opts = dict(zip(argv[1::2], argv[2::2]))
        cmd = argv[0]
        if cmd == "risk":
            model = nr.load_model(opts["--model"])
            tm = nr.transform(model)
            x = tm.x_from_weights(np.array(
                [float(v) for v in opts["--weights"].split(",")]))
            measure, beta = opts["--measure"], float(opts["--beta"])
            method = opts["--method"]
            if method == "exact":
                want = nr.portfolio_risk_exact(tm, x, measure, beta)
            elif method == "two-point":
                want = nr.portfolio_risk_two_point(tm, x, measure, beta)
            else:
                b = tm.gamma0_norm
                want = nr.portfolio_risk_piecewise(
                    tm, x, measure, beta, np.linspace(-b, b, 41),
                    interpolation="linear")
            got = json.loads(stdout)
            return _close(got["value"], want.value, 1e-12)
        rows = list(csv.DictReader(io.StringIO(stdout)))
        if cmd == "frontier":
            tm = nr.transform(nr.load_model(opts["--model"]), mode="skew")
            grid = np.linspace(float(opts["--rmin"]), float(opts["--rmax"]),
                               int(opts["--steps"]))
            pts = nr.frontier(tm, grid, float(opts["--beta"]))
            return len(rows) == len(pts) and all(
                _close(float(r["cvar"]), p.cvar, 1e-9)
                for r, p in zip(rows, pts))
        if cmd == "compare":
            tm = nr.transform(nr.load_model(opts["--model"]))
            weights = [np.array([float(v) for v in line.split(",")])
                       for line in Path(opts["--portfolios"]).read_text(
                           encoding="utf-8").split()]
            measures = MEASURES if opts["--measure"] == "both" \
                else (opts["--measure"],)
            want = []
            for w in weights:
                x = tm.x_from_weights(w)
                for beta in BETAS:
                    for measure in measures:
                        want.append((
                            nr.portfolio_risk_exact(tm, x, measure, beta).value,
                            nr.portfolio_risk_two_point(tm, x, measure,
                                                        beta).value))
            return len(rows) == len(want) and all(
                _close(float(r["exact"]), e, 1e-9)
                and _close(float(r["two_point"]), t, 1e-9)
                for r, (e, t) in zip(rows, want))
        # fit
        summary = json.loads(stdout)
        res = nr.mcecm_fit(nr.load_prices(opts["--input"]), nr.FitConfig())
        saved = nr.load_model(opts["--out"])
        return (summary["iterations"] == res.iterations
                and _close(summary["log_likelihood"],
                           res.log_likelihood_trace[-1], 1e-12)
                and np.allclose(saved.sigma, res.model.sigma, rtol=1e-12,
                                atol=0.0))


def price_csv(rng: np.random.Generator, days: int) -> str:
    """Daily closes of three assets whose log returns follow the narrow
    synthetic model scaled to daily size."""
    params = {k: v * 0.1 for k, v in NARROW.items()}
    params["sigma"] = NARROW["sigma"] * 0.01
    returns = synthetic_returns(params, days, int(rng.integers(2 ** 31)))
    prices = 100.0 * np.exp(np.cumsum(returns, axis=0))
    start = datetime.date(2000, 1, 3)
    lines = ["date,a,b,c"]
    for i, row in enumerate(prices):
        day = start + datetime.timedelta(days=i)
        lines.append(day.isoformat() + "," + ",".join(f"{p:.6f}" for p in row))
    return "\n".join(lines) + "\n"


WORKLOADS = {"book": Book, "optimize": Optimize, "fit": Fit, "cli": Cli}
