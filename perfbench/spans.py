"""Span tracer for the traced benchmark run.

`Tracer.install()` replaces every module-level binding of the functions in
LAYERS (and the mixing-law methods in MIXING_METHODS) with a wrapper that
records one span per call: name id, start, end, parent span and whether the
call raised. Spans stay in flat arrays in memory; `summary()` derives the
per-layer metrics from them once, at the end of the run. The untimed run
never imports this module.
"""

from __future__ import annotations

import array
import functools
import importlib
import time
import tracemalloc

import numpy as np

# functions wrapped at each layer boundary, by the module that defines them
LAYERS = {
    "mathkit": ("integrate_semi_infinite", "find_root"),
    "nmvm": ("transform", "portfolio_moments"),
    "risk": ("cdf_ya", "var_ya", "cvar_ya", "risk_ya", "h",
             "two_point_coefficients", "portfolio_risk_exact",
             "portfolio_risk_two_point", "portfolio_risk_piecewise"),
    "optimize": ("solve_mean_risk_skew", "frontier",
                 "solve_mean_risk_reduced"),
    "fit": ("load_prices", "load_model", "mcecm_fit", "_estep",
            "_log_likelihood", "_update_mixing"),
    "cli": ("main",),
}
MIXING_METHODS = ("expect", "density", "moments")
MODULES = ("mathkit", "mixing", "nmvm", "risk", "optimize", "fit", "cli")
STATS = ("calls", "total_s", "self_s", "failed")
CLI_COMMANDS = ("risk", "frontier", "compare", "fit")
ROOT_SPAN = "bench.pass"
# a cached risk call that runs one of these beneath it missed its cache
SOLVES = ("risk.var_ya", "risk.cvar_ya", "risk.risk_ya")


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
    return names + [f"mixing.{m}" for m in MIXING_METHODS]


def metric_names() -> list[str]:
    """Every per-layer metric, in a fixed order."""
    names = [f"{span}.{stat}" for span in span_names() for stat in STATS]
    names += [
        "mathkit.integrate_semi_infinite.points_per_call",
        "mathkit.find_root.f_evals_per_call",
        "risk.var_ya.bracket_calls_per_call",
        "risk.two_point_coefficients.hit_ratio",
        "risk.h.hit_ratio",
        "optimize.solve_mean_risk_reduced.risk_ya_calls_per_call",
        "fit.mcecm_fit.iterations",
        "fit.mcecm_fit.s_per_iteration",
        "fit.mcecm_fit.peak_traced_mb",
        "cli.import_s",
    ]
    names += [f"cli.{cmd}_s" for cmd in CLI_COMMANDS]
    names += ["trace.wall_s", "trace.self_sum_s", "trace.overhead_s",
              "trace.spans", "trace.missing", "book.heavy_tail.failed_share"]
    return names


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    stat = name.rsplit(".", 1)[-1]
    if stat.endswith("_mb"):
        return "MB"
    if stat.endswith("_s") or stat == "s_per_iteration":
        return "s"
    if stat.endswith(("ratio", "share")):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("l")
        self.parent = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.failed = array.array("b")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self.fit_iterations = 0
        self.fit_peak_bytes = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _count(self, key: str, n: float):
        self.counts[key] = self.counts.get(key, 0.0) + n

    def wrap(self, name: str, fn, before=None):
        """Return fn wrapped so each call records a span under name."""
        nid = self._id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.failed.append(0)
            self._stack.append(idx)
            if before is not None:
                args = before(args)
            self.start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            return result

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installing the wrappers ------------------------------------------

    def _counting(self, key: str, arg_index: int = 0):
        def before(args):
            if len(args) <= arg_index:
                return args
            f = args[arg_index]

            def counted(*a):
                self._count(key, np.size(a[0]) if a else 1)
                return f(*a)
            return args[:arg_index] + (counted,) + args[arg_index + 1:]
        return before

    def _wrap_fit(self, fn):
        def run(*args, **kwargs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                result = fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                if started:
                    tracemalloc.stop()
            self.fit_peak_bytes = max(self.fit_peak_bytes, peak)
            self.fit_iterations += int(getattr(result, "iterations", 0))
            return result
        return functools.wraps(fn)(run)

    def install(self):
        """Wrap the layer functions everywhere the package binds them.

        A name that the package no longer defines is recorded in `missing`.
        """
        pkg = importlib.import_module("nmvmrisk")
        mods = [pkg] + [importlib.import_module(f"nmvmrisk.{m}")
                        for m in MODULES]
        hooks = {
            "mathkit.integrate_semi_infinite": dict(
                before=self._counting("mathkit.integrate_semi_infinite.points")),
            "mathkit.find_root": dict(
                before=self._counting("mathkit.find_root.f_evals")),
        }
        for mod_name, fns in LAYERS.items():
            home = importlib.import_module(f"nmvmrisk.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                orig = getattr(home, fn_name, None)
                if not callable(orig):
                    self.missing.append(name)
                    continue
                target = self._wrap_fit(orig) if name == "fit.mcecm_fit" \
                    else orig
                wrapped = self.wrap(name, target, **hooks.get(name, {}))
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
        mixing = importlib.import_module("nmvmrisk.mixing")
        base = getattr(mixing, "MixingLaw", None)
        for method in MIXING_METHODS:
            found = False
            for cls in vars(mixing).values():
                if isinstance(cls, type) and base is not None \
                        and issubclass(cls, base) and method in vars(cls):
                    setattr(cls, method,
                            self.wrap(f"mixing.{method}", vars(cls)[method]))
                    found = True
            if not found:
                self.missing.append(f"mixing.{method}")

    # -- turning spans into metrics ---------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "failed": np.array(self.failed, dtype=np.int8),
        }

    def summary(self) -> dict[str, float]:
        """Raw per-layer sums; `finish()` turns sums into per-call ratios."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        self_time = dur - child_time
        ids = {n: i for i, n in enumerate(self.names)}
        out: dict[str, float] = {}
        for span in span_names() + [ROOT_SPAN]:
            sel = name == ids.get(span, -1)
            out[f"{span}.calls"] = float(np.count_nonzero(sel))
            out[f"{span}.total_s"] = float(dur[sel].sum())
            out[f"{span}.self_s"] = float(self_time[sel].sum())
            out[f"{span}.failed"] = float(a["failed"][sel].sum())

        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def n_with_parent(child: str, par: str) -> float:
            return float(np.count_nonzero(
                (name == ids.get(child, -1)) & (parent_name == ids.get(par, -2))))

        def misses(span: str) -> float:
            """Calls of span that ran a scalar solve themselves."""
            solve_ids = [ids[c] for c in SOLVES if c in ids]
            callers = np.unique(parent[np.isin(name, solve_ids) & has_parent])
            return float(np.count_nonzero(name[callers] == ids.get(span, -1)))

        out["risk.var_ya.bracket_calls"] = n_with_parent("risk.cdf_ya",
                                                         "risk.var_ya")
        out["optimize.solve_mean_risk_reduced.risk_ya_calls"] = n_with_parent(
            "risk.risk_ya", "optimize.solve_mean_risk_reduced")
        for span in ("risk.two_point_coefficients", "risk.h"):
            out[f"{span}.misses"] = misses(span)
        out["mathkit.integrate_semi_infinite.points"] = self.counts.get(
            "mathkit.integrate_semi_infinite.points", 0.0)
        out["mathkit.find_root.f_evals"] = self.counts.get(
            "mathkit.find_root.f_evals", 0.0)
        out["fit.mcecm_fit.iterations_sum"] = float(self.fit_iterations)
        out["fit.mcecm_fit.peak_traced_mb"] = self.fit_peak_bytes / 2 ** 20
        out["trace.self_sum_s"] = float(self_time.sum())
        out["trace.spans"] = float(dur.size)
        out["trace.missing"] = float(len(self.missing))
        return out


def merge(parts: list[dict[str, float]]) -> dict[str, float]:
    """Add raw summaries from several traced processes."""
    out: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            if key.endswith("peak_traced_mb") or key == "trace.missing":
                out[key] = max(out.get(key, 0.0), value)
            else:
                out[key] = out.get(key, 0.0) + value
    return out


def finish(raw: dict[str, float], extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics in metric_names() order from merged raw sums."""
    def g(key: str) -> float:
        return raw.get(key, 0.0)

    def per(num: str, den: str) -> float:
        return g(num) / g(den) if g(den) else 0.0

    def hit_ratio(span: str) -> float:
        return 1.0 - per(f"{span}.misses", f"{span}.calls") \
            if g(f"{span}.calls") else 0.0

    out = {
        **raw,
        "mathkit.integrate_semi_infinite.points_per_call": per(
            "mathkit.integrate_semi_infinite.points",
            "mathkit.integrate_semi_infinite.calls"),
        "mathkit.find_root.f_evals_per_call": per(
            "mathkit.find_root.f_evals", "mathkit.find_root.calls"),
        "risk.var_ya.bracket_calls_per_call": per(
            "risk.var_ya.bracket_calls", "risk.var_ya.calls"),
        "risk.two_point_coefficients.hit_ratio": hit_ratio(
            "risk.two_point_coefficients"),
        "risk.h.hit_ratio": hit_ratio("risk.h"),
        "optimize.solve_mean_risk_reduced.risk_ya_calls_per_call": per(
            "optimize.solve_mean_risk_reduced.risk_ya_calls",
            "optimize.solve_mean_risk_reduced.calls"),
        "fit.mcecm_fit.iterations": per("fit.mcecm_fit.iterations_sum",
                                        "fit.mcecm_fit.calls"),
        "fit.mcecm_fit.s_per_iteration": per("fit.mcecm_fit.total_s",
                                             "fit.mcecm_fit.iterations_sum"),
        **extra,
    }
    return {name: float(out.get(name, 0.0)) for name in metric_names()}
