"""Record the reference values that the optimize and fit gates compare
against, for both sizes, into perfbench/reference.json.

    PYTHONPATH=src python3 perfbench/record.py

Run it only at a commit whose results are trusted: the gates then accept a
later commit whose frontier CVaRs match these, whose reduced objectives are
no worse and whose final log-likelihoods are no lower.
"""

from __future__ import annotations

import json

import nmvmrisk as nr

import workloads as W


def main() -> None:
    ref = {"optimize": {}, "fit": {}}
    for size in W.SIZES:
        opt = W.Optimize(0, size)
        entry = {"frontier_cvar": [
            p.cvar for p in nr.frontier(opt.tm_skew, opt.grid, W.FRONTIER_BETA)]}
        for measure in ("cvar", "var"):
            sol = nr.solve_mean_risk_reduced(
                opt.tm_loc, measure, W.REDUCED_BETA, k=W.REDUCED_K,
                grid_size=opt.grid_size)
            entry[f"reduced_{measure}"] = opt.reduced_objective(measure,
                                                                sol.x_star)
        ref["optimize"][size] = entry
        fits: dict[str, list[float]] = {}
        for variant in range(W.FIT_VARIANTS):
            fit = W.Fit(variant, size)
            for name, (rm, cfg, _) in fit.shapes.items():
                res = nr.mcecm_fit(rm, cfg)
                fits.setdefault(name, []).append(res.log_likelihood_trace[-1])
        ref["fit"][size] = fits
        print(size, "recorded", flush=True)
    W.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
