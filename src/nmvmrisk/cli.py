"""Command-line interface: fit models, evaluate portfolio risk, sweep
frontiers, and compare exact against closed-form-approximate values.

Exit codes: 0 success, 1 input error, 2 numerical failure. Data goes to
stdout (or --out); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

import numpy as np

from . import fit as fitmod
from . import optimize as optmod
from . import risk as riskmod
from .nmvm import project, transform

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2

_INPUT_ERRORS = (ValueError, OSError, json.JSONDecodeError)
_NUMERICAL_ERRORS = (ArithmeticError, RuntimeError)


def _level(text: str) -> float:
    """argparse type of a risk level beta in (0, 1)."""
    try:
        beta = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"beta must be a number: {text!r}")
    if not 0.0 < beta < 1.0:
        raise argparse.ArgumentTypeError(
            f"beta must lie in (0, 1), got {beta}")
    return beta


def _levels(text: str) -> list[float]:
    """argparse type of a comma-separated list of risk levels."""
    return [_level(tok) for tok in text.split(",")]


def _parse_weights(text: str, n: int) -> np.ndarray:
    try:
        weights = np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise ValueError(f"weights must be comma-separated numbers: {text!r}")
    if weights.shape != (n,):
        raise ValueError(
            f"expected {n} weights for the model, got {weights.size}")
    return weights


def _emit(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_fit(args) -> int:
    rm = fitmod.load_prices(args.input)
    cfg_kwargs = {}
    if args.config:
        with open(args.config, encoding="utf-8-sig") as fh:
            cfg_kwargs = json.load(fh)
        if not isinstance(cfg_kwargs, dict):
            raise ValueError("fit config must be a JSON object")
        unknown = set(cfg_kwargs) - {f.name for f in
                                     dataclasses.fields(fitmod.FitConfig)}
        if unknown:
            raise ValueError(f"unknown fit config keys: {sorted(unknown)}")
    cfg = fitmod.FitConfig(**cfg_kwargs)
    result = fitmod.mcecm_fit(rm, cfg)
    fitmod.save_model(result.model, args.out)
    summary = {
        "iterations": result.iterations,
        "converged": result.converged,
        "log_likelihood": result.log_likelihood_trace[-1],
        "model_file": args.out,
        "dropped_rows": rm.dropped_rows,
        "diagnostics": result.diagnostics,
    }
    sys.stdout.write(json.dumps(summary) + "\n")
    return EXIT_OK


def _cmd_risk(args) -> int:
    model = fitmod.load_model(args.model)
    weights = _parse_weights(args.weights, model.n)
    measure = args.measure
    if args.method == "mc":
        um = project(model, weights)
        rng = np.random.default_rng(args.seed)
        result = riskmod.mc_risk(um, measure, args.beta, args.samples, rng)
    else:
        tm = transform(model)
        x = tm.x_from_weights(weights)
        if args.method == "exact":
            result = riskmod.portfolio_risk_exact(tm, x, measure, args.beta)
        elif args.method == "two-point":
            result = riskmod.portfolio_risk_two_point(tm, x, measure, args.beta)
        else:  # piecewise
            b = tm.gamma0_norm
            partition = np.linspace(-b, b, args.partition_points)
            result = riskmod.portfolio_risk_piecewise(
                tm, x, measure, args.beta, partition)
    record = {
        "value": result.value,
        "method": result.method,
        "measure": measure,
        "beta": result.beta,
        "diagnostics": result.diagnostics,
    }
    sys.stdout.write(json.dumps(record) + "\n")
    return EXIT_OK


def _cmd_frontier(args) -> int:
    if args.steps < 1:
        raise ValueError("steps must be >= 1")
    if args.steps > 1 and not args.rmin < args.rmax:
        raise ValueError("rmin must be < rmax")
    model = fitmod.load_model(args.model)
    tm = transform(model, mode="skew")
    grid = np.linspace(args.rmin, args.rmax, args.steps)
    points = optmod.frontier(tm, grid, args.beta)
    if all(p.error is not None for p in points):
        sys.stderr.write("all frontier points failed: "
                         f"{points[0].error}\n")
        return EXIT_NUMERICAL
    buf = io.StringIO()
    writer = csv.writer(buf)
    names = [f"w{i + 1}" for i in range(model.n)]
    writer.writerow(["return", "cvar", "skewness", *names, "error"])
    for p in points:
        writer.writerow([
            f"{p.target_return:.10g}", f"{p.cvar:.10g}", f"{p.skewness:.10g}",
            *(f"{w:.10g}" for w in p.weights), p.error or ""])
    _emit(args, buf.getvalue())
    return EXIT_OK


def _cmd_compare(args) -> int:
    model = fitmod.load_model(args.model)
    portfolios = []
    with open(args.portfolios, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            portfolios.append(_parse_weights(line, model.n))
    if not portfolios:
        raise ValueError("portfolio file contains no weight rows")
    measures = ["var", "cvar"] if args.measure == "both" else [args.measure]
    tm = transform(model)
    rng = np.random.default_rng(args.seed)
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = ["portfolio", "beta", "measure", "exact", "two_point", "abs_gap"]
    if args.with_mc:
        header.append("mc")
    header.append("error")
    writer.writerow(header)
    for i, weights in enumerate(portfolios):
        x = tm.x_from_weights(weights)
        for beta in args.betas:
            for measure in measures:
                row = [i, f"{beta:g}", measure]
                try:
                    exact = riskmod.portfolio_risk_exact(tm, x, measure, beta)
                    approx = riskmod.portfolio_risk_two_point(
                        tm, x, measure, beta)
                    row += [f"{exact.value:.10g}", f"{approx.value:.10g}",
                            f"{abs(exact.value - approx.value):.4g}"]
                    if args.with_mc:
                        um = project(model, weights)
                        mc = riskmod.mc_risk(um, measure, beta, args.samples,
                                             rng)
                        row.append(f"{mc.value:.10g}")
                    row.append("")
                except (ValueError, ArithmeticError) as exc:
                    row += [""] * (4 if args.with_mc else 3) + [str(exc)]
                writer.writerow(row)
    _emit(args, buf.getvalue())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmvmrisk",
        description="Risk and portfolio tools for normal mean-variance "
                    "mixture return models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to a price CSV")
    p_fit.add_argument("--input", required=True, help="price CSV path")
    p_fit.add_argument("--config", help="JSON file with FitConfig fields")
    p_fit.add_argument("--out", required=True, help="model file to write")
    p_fit.set_defaults(func=_cmd_fit)

    p_risk = sub.add_parser("risk", help="evaluate portfolio VaR/CVaR")
    p_risk.add_argument("--model", required=True)
    p_risk.add_argument("--weights", required=True,
                        help="comma-separated portfolio weights")
    p_risk.add_argument("--measure", choices=["var", "cvar"], required=True)
    p_risk.add_argument("--beta", type=_level, required=True)
    p_risk.add_argument("--method",
                        choices=["exact", "two-point", "piecewise", "mc"],
                        default="exact")
    p_risk.add_argument("--seed", type=int, default=42)
    p_risk.add_argument("--samples", type=int, default=1_000_000)
    p_risk.add_argument("--partition-points", type=int, default=41)
    p_risk.set_defaults(func=_cmd_risk)

    p_front = sub.add_parser("frontier", help="sweep the efficient frontier")
    p_front.add_argument("--model", required=True)
    p_front.add_argument("--rmin", type=float, required=True)
    p_front.add_argument("--rmax", type=float, required=True)
    p_front.add_argument("--steps", type=int, required=True)
    p_front.add_argument("--beta", type=_level, required=True)
    p_front.add_argument("--out", help="CSV output path (default stdout)")
    p_front.set_defaults(func=_cmd_frontier)

    p_cmp = sub.add_parser("compare",
                           help="exact vs two-point table for portfolios")
    p_cmp.add_argument("--model", required=True)
    p_cmp.add_argument("--portfolios", required=True,
                       help="CSV with one weight row per line")
    p_cmp.add_argument("--betas", type=_levels, default="0.1,0.05,0.01")
    p_cmp.add_argument("--measure", choices=["var", "cvar", "both"],
                       default="both")
    p_cmp.add_argument("--with-mc", action="store_true",
                       help="append a seeded Monte Carlo column")
    p_cmp.add_argument("--seed", type=int, default=42)
    p_cmp.add_argument("--samples", type=int, default=100_000)
    p_cmp.add_argument("--out", help="CSV output path (default stdout)")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def _glue_weights(argv: list[str]) -> list[str]:
    """Join each --weights flag to the argument after it, which argparse
    would take for an option when it starts with a minus sign."""
    glued = []
    for arg in argv:
        if glued and glued[-1] == "--weights":
            glued[-1] = f"--weights={arg}"
        else:
            glued.append(arg)
    return glued


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _glue_weights(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        # argparse usage problems are input errors
        return EXIT_OK if not exc.code else EXIT_INPUT
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
