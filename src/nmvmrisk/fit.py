"""Data ingestion, summary statistics, EM fitting, and model file I/O.

The fitter is a multi-cycle ECM scheme for the mixture model
X = mu + gamma Z + sqrt(Z) A N with Z generalized inverse Gaussian:
the E-step computes the conditional moments E[Z | x], E[1/Z | x] (and
E[log Z | x] when the index parameter is free) from the conjugate posterior,
one CM cycle updates (mu, gamma, Sigma) in closed form, and a second CM cycle
improves the mixing parameters numerically. The E-step kernel that ends each
iteration also gives its closed-form log-likelihood, which never decreases.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field
from datetime import date

import numpy as np
from scipy import special as _sspec

from .mixing import (Degenerate, Gamma, Gig, InverseGaussian, MixingLaw,
                     gig_log_norm)
from .nmvm import NmvmModel

__all__ = [
    "ReturnsMatrix",
    "FitConfig",
    "FitResult",
    "PriceFileError",
    "ModelFileError",
    "EMError",
    "load_prices",
    "summarize",
    "mcecm_fit",
    "save_model",
    "load_model",
]


class PriceFileError(ValueError):
    """Malformed price CSV (message carries the offending line number)."""


class ModelFileError(ValueError):
    """Model file failed schema validation."""


class EMError(RuntimeError):
    """EM iteration failed numerically."""


@dataclass(frozen=True)
class ReturnsMatrix:
    """Daily log returns, one column per asset.

    dropped_rows counts price rows removed because of missing cells; returns
    are computed on the surviving consecutive rows.
    """

    assets: list[str]
    dates: list[str]
    values: np.ndarray
    dropped_rows: int = 0

    @property
    def t(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class FitConfig:
    lambda_mode: str = "fixed"
    lambda_value: float = -0.5
    include_mu: bool = True
    max_iters: int = 500
    ll_tol: float = 1e-8
    identification: str = "none"

    def __post_init__(self):
        if self.lambda_mode not in ("fixed", "free"):
            raise ValueError(f"lambda_mode must be 'fixed' or 'free', "
                             f"got {self.lambda_mode!r}")
        if self.identification not in ("none", "unit_ez"):
            raise ValueError(f"identification must be 'none' or 'unit_ez', "
                             f"got {self.identification!r}")
        if not isinstance(self.include_mu, (bool, np.bool_)):
            raise ValueError(f"include_mu must be true or false, "
                             f"got {self.include_mu!r}")
        if not isinstance(self.lambda_value, numbers.Real):
            raise ValueError(f"lambda_value must be a number, "
                             f"got {self.lambda_value!r}")
        if not isinstance(self.max_iters, numbers.Integral) \
                or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, "
                             f"got {self.max_iters!r}")
        if not isinstance(self.ll_tol, numbers.Real) or self.ll_tol <= 0.0:
            raise ValueError(f"ll_tol must be a positive number, "
                             f"got {self.ll_tol!r}")


@dataclass(frozen=True)
class FitResult:
    model: NmvmModel
    log_likelihood_trace: list[float]
    iterations: int
    converged: bool


# ---------------------------------------------------------------------------
# Price ingestion and summary statistics
# ---------------------------------------------------------------------------

def load_prices(path) -> ReturnsMatrix:
    """Read a price CSV (header `date,<asset1>,...`) into log returns.

    Rows with any empty cell are dropped (the count is reported); malformed
    rows and non-positive prices raise PriceFileError naming the line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PriceFileError("line 1: empty file") from None
        if len(header) < 2 or header[0].strip().lower() != "date":
            raise PriceFileError(
                "line 1: header must be 'date,<asset1>,...,<assetN>'")
        assets = [name.strip() for name in header[1:]]
        dates: list[str] = []
        rows: list[list[float]] = []
        dropped = 0
        prev_date = None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(assets) + 1:
                raise PriceFileError(
                    f"line {lineno}: expected {len(assets) + 1} fields, "
                    f"got {len(row)}")
            day = row[0].strip()
            try:
                parsed = date.fromisoformat(day)
            except ValueError:
                raise PriceFileError(
                    f"line {lineno}: invalid ISO date {day!r}") from None
            if prev_date is not None and parsed <= prev_date:
                raise PriceFileError(
                    f"line {lineno}: dates must be strictly ascending")
            prev_date = parsed
            cells = [c.strip() for c in row[1:]]
            if any(c == "" for c in cells):
                dropped += 1
                continue
            try:
                prices = [float(c) for c in cells]
            except ValueError:
                raise PriceFileError(
                    f"line {lineno}: non-numeric price") from None
            if any(p <= 0.0 for p in prices):
                raise PriceFileError(
                    f"line {lineno}: prices must be positive")
            dates.append(day)
            rows.append(prices)
    if len(rows) < 2:
        raise PriceFileError(
            "need at least two complete price rows to form returns")
    prices_arr = np.array(rows)
    returns = np.diff(np.log(prices_arr), axis=0)
    return ReturnsMatrix(assets=assets, dates=dates[1:], values=returns,
                         dropped_rows=dropped)


def summarize(rm: ReturnsMatrix) -> dict[str, dict[str, float]]:
    """Per-asset mean/std/min/max of the returns (std uses T-1)."""
    if rm.t < 2:
        raise ValueError("summary statistics need at least two return rows")
    out = {}
    for j, name in enumerate(rm.assets):
        col = rm.values[:, j]
        out[name] = {
            "mean": float(col.mean()),
            "std": float(col.std(ddof=1)),
            "min": float(col.min()),
            "max": float(col.max()),
        }
    return out


# ---------------------------------------------------------------------------
# MCECM fitting
# ---------------------------------------------------------------------------

def _dlog_k_dnu(nu: float, z, eps: float = 1e-5):
    return (np.log(_sspec.kve(nu + eps, z)) - np.log(_sspec.kve(nu - eps, z))) \
        / (2.0 * eps)


def _whiten(x, mu, gamma, sigma):
    """Cholesky factor of sigma, the squared Mahalanobis distances Q_i of the
    rows of x from mu, and rho = gamma^T Sigma^{-1} gamma."""
    chol = np.linalg.cholesky(sigma)
    white = np.linalg.solve(chol, (x - mu).T)
    q = np.sum(white * white, axis=0)
    gamma_w = np.linalg.solve(chol, gamma)
    return chol, q, float(gamma_w @ gamma_w)


def _estep(x, mu, gamma, sigma, lam, chi, psi, need_log: bool):
    """GH kernel at one parameter set: E[Z | x_i], E[1/Z | x_i], E[log Z | x_i]
    (None unless need_log) and the log-likelihood, from one whitening and one
    evaluation each of K_{p-1}, K_p and K_{p+1}. Z | x_i is GIG(p = lam - n/2,
    chi + Q_i, psi + rho) with Q_i the Mahalanobis distance of x_i and rho =
    gamma^T Sigma^{-1} gamma."""
    t, n = x.shape
    chol, q, rho = _whiten(x, mu, gamma, sigma)
    p = lam - 0.5 * n
    chi_i = chi + q
    psi_bar = psi + rho
    z = np.sqrt(chi_i * psi_bar)
    ratio = np.sqrt(chi_i / psi_bar)
    k_p = _sspec.kve(p, z)
    delta = ratio * (_sspec.kve(p + 1.0, z) / k_p)
    eta = (_sspec.kve(p - 1.0, z) / k_p) / ratio
    if not (np.all(np.isfinite(delta)) and np.all(np.isfinite(eta))):
        bad = int(np.flatnonzero(~(np.isfinite(delta) & np.isfinite(eta)))[0])
        raise EMError(f"Bessel overflow in E-step at observation {bad}")
    xi = (0.5 * (np.log(chi_i) - np.log(psi_bar)) + _dlog_k_dnu(p, z)
          if need_log else None)
    return delta, eta, xi, _log_likelihood(x, mu, gamma, sigma, lam, chi, psi,
                                           chol, psi_bar, z, k_p)


def _gig_q2(lam, chi, psi, t, sum_delta, sum_eta, sum_xi):
    """Expected complete-data log-likelihood of the mixing block."""
    val = t * gig_log_norm(lam, chi, psi)
    if sum_xi is not None:
        val += (lam - 1.0) * sum_xi
    return val - 0.5 * (chi * sum_eta + psi * sum_delta)


def _log_likelihood(x, mu, gamma, sigma, lam, chi, psi, chol, psi_rho, z, k_p):
    """GH log-likelihood of the rows of x from _estep's Cholesky factor of
    sigma, psi + rho, z_i = sqrt((chi + Q_i)(psi + rho)) and K_p(z_i)."""
    t, n = x.shape
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    skew_term = (x - mu) @ np.linalg.solve(sigma, gamma)
    log_k = np.log(k_p) - z
    # the GIG constant carries a 1/2 that the GH density does not
    const = (gig_log_norm(lam, chi, psi) + math.log(2.0)
             + (0.5 * n - lam) * math.log(psi_rho)
             - 0.5 * n * math.log(2.0 * math.pi) - 0.5 * log_det)
    ll = const + log_k + skew_term - (0.5 * n - lam) * np.log(z)
    return float(np.sum(ll))


def _update_mixing(lam, chi, psi, t, sums, lambda_free):
    """CM cycles for the mixing parameters; never decreases the objective."""
    # imported here: scipy.optimize adds ~0.3 s to every package import
    from scipy.optimize import minimize, minimize_scalar
    sum_delta, sum_eta, sum_xi = sums
    best = _gig_q2(lam, chi, psi, t, sum_delta, sum_eta, sum_xi)

    def neg_q2_logparams(params):
        c, p = math.exp(params[0]), math.exp(params[1])
        return -_gig_q2(lam, c, p, t, sum_delta, sum_eta, sum_xi)

    res = minimize(neg_q2_logparams, [math.log(chi), math.log(psi)],
                   method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 400})
    if -res.fun > best:
        chi, psi = math.exp(res.x[0]), math.exp(res.x[1])
        best = -res.fun

    if lambda_free:
        res = minimize_scalar(
            lambda v: -_gig_q2(v, chi, psi, t, sum_delta, sum_eta, sum_xi),
            bounds=(lam - 2.0, lam + 2.0), method="bounded",
            options={"xatol": 1e-10})
        if -res.fun > best:
            lam = float(res.x)
    return lam, chi, psi


def mcecm_fit(rm: ReturnsMatrix, cfg: FitConfig | None = None,
              initial: NmvmModel | None = None) -> FitResult:
    """Fit the mixture model to the return rows by multi-cycle ECM.

    Initialization: mu = sample mean (when included), gamma = 0, Sigma =
    sample covariance, mixing GIG(lambda_value, 1, 1); passing a model as
    `initial` warm-starts from its parameters instead (its mixing must be
    GIG with chi > 0 and psi > 0). Iterates until the log-likelihood gain
    drops below ll_tol or max_iters is reached; the returned trace is
    non-decreasing. With identification="unit_ez" the fitted mixing law is
    rescaled to unit mean with the compensating rescale of gamma and Sigma,
    which leaves the law of X unchanged.
    """
    cfg = cfg or FitConfig()
    x = np.asarray(rm.values, dtype=float)
    t, n = x.shape
    if t <= n + 2:
        raise ValueError(f"need more observations than assets + 2 "
                         f"(T={t}, n={n})")
    include_mu = cfg.include_mu
    lambda_free = cfg.lambda_mode == "free"
    if initial is not None:
        mix = initial.mixing
        if not (isinstance(mix, Gig) and mix.chi > 0.0 and mix.psi > 0.0):
            raise ValueError("warm start requires a GIG mixing law with "
                             "chi > 0 and psi > 0")
        if initial.n != n:
            raise ValueError("warm-start model dimension mismatch")
        mu = initial.mu.copy() if include_mu else np.zeros(n)
        gamma = initial.gamma.copy()
        sigma = initial.sigma.copy()
        lam, chi, psi = mix.lam, mix.chi, mix.psi
    else:
        mu = x.mean(axis=0) if include_mu else np.zeros(n)
        sigma = np.atleast_2d(np.cov(x, rowvar=False, ddof=1))
        gamma = np.zeros(n)
        lam, chi, psi = cfg.lambda_value, 1.0, 1.0

    delta, eta, _, _ = _estep(x, mu, gamma, sigma, lam, chi, psi,
                              need_log=False)
    trace: list[float] = []
    converged = False
    iterations = 0
    for it in range(cfg.max_iters):
        iterations = it + 1
        # cycle 1: location, skewness, dispersion
        delta_bar, eta_bar = float(delta.mean()), float(eta.mean())
        if include_mu:
            denom = delta_bar * eta_bar - 1.0
            if abs(denom) < 1e-14:
                raise EMError(f"degenerate E-step weights at iteration {it}")
            x_bar = x.mean(axis=0)
            gamma = (eta[:, None] * (x_bar - x)).mean(axis=0) / denom
            mu = ((eta[:, None] * x).mean(axis=0) - gamma) / eta_bar
        else:
            gamma = x.mean(axis=0) / delta_bar
        centered = x - mu
        sigma = (eta[:, None, None] * np.einsum("ti,tj->tij", centered,
                                                centered)).mean(axis=0) \
            - delta_bar * np.outer(gamma, gamma)
        sigma = 0.5 * (sigma + sigma.T)
        eigvals = np.linalg.eigvalsh(sigma)
        if eigvals[0] <= 0.0:
            raise EMError(
                f"dispersion update lost positive definiteness at iteration "
                f"{it} (eigenvalue {eigvals[0]:.3e})")
        # cycle 2: mixing parameters
        delta, eta, xi, _ = _estep(x, mu, gamma, sigma, lam, chi, psi,
                                   need_log=lambda_free)
        sums = (float(delta.sum()), float(eta.sum()),
                float(xi.sum()) if xi is not None else None)
        lam, chi, psi = _update_mixing(lam, chi, psi, t, sums, lambda_free)

        # this kernel gives the iteration's ll and the next cycle-1 weights
        delta, eta, _, ll = _estep(x, mu, gamma, sigma, lam, chi, psi,
                                   need_log=False)
        trace.append(ll)
        if it > 0 and abs(ll - trace[-2]) < cfg.ll_tol:
            converged = True
            break

    mixing = Gig(lam=lam, chi=chi, psi=psi)
    if cfg.identification == "unit_ez":
        scale = mixing.moments().ez
        mixing = Gig(lam=lam, chi=chi / scale, psi=psi * scale)
        gamma = gamma * scale
        sigma = sigma * scale
    model = NmvmModel(mu=mu, gamma=gamma, sigma=sigma, mixing=mixing)
    return FitResult(model=model, log_likelihood_trace=trace,
                     iterations=iterations, converged=converged)


# ---------------------------------------------------------------------------
# Model file format
# ---------------------------------------------------------------------------

SCHEMA_VERSION = 1

_FAMILY_FIELDS = {
    "gig": ("lambda", "chi", "psi"),
    "gamma": ("shape", "rate"),
    "inverse_gaussian": ("delta", "gamma_ig"),
    "exponential": (),
    "degenerate": (),
}


def _mixing_payload(law: MixingLaw) -> tuple[str, dict[str, float]]:
    if isinstance(law, Gig):
        return "gig", {"lambda": law.lam, "chi": law.chi, "psi": law.psi}
    if isinstance(law, Gamma):
        if law.shape == 1.0 and law.rate == 1.0:
            return "exponential", {}
        return "gamma", {"shape": law.shape, "rate": law.rate}
    if isinstance(law, InverseGaussian):
        return "inverse_gaussian", {"delta": law.delta,
                                    "gamma_ig": law.gamma_ig}
    if isinstance(law, Degenerate):
        return "degenerate", {}
    raise ModelFileError(f"cannot serialize mixing law {type(law).__name__}")


def _mixing_from_payload(payload) -> MixingLaw:
    if not isinstance(payload, dict) or "family" not in payload:
        raise ModelFileError("mixing block must carry a 'family' field")
    family = payload["family"]
    params = payload.get("parameters", {})
    if family not in _FAMILY_FIELDS:
        raise ModelFileError(f"unknown mixing family {family!r}")
    expected = _FAMILY_FIELDS[family]
    missing = [name for name in expected if name not in params]
    if missing:
        raise ModelFileError(f"mixing family {family!r} missing parameters "
                             f"{missing}")
    if family == "gig":
        return Gig(lam=float(params["lambda"]), chi=float(params["chi"]),
                   psi=float(params["psi"]))
    if family == "gamma":
        return Gamma(shape=float(params["shape"]), rate=float(params["rate"]))
    if family == "inverse_gaussian":
        return InverseGaussian(delta=float(params["delta"]),
                               gamma_ig=float(params["gamma_ig"]))
    if family == "exponential":
        return Gamma(1.0, 1.0)
    return Degenerate()


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _fmt_vector(values) -> str:
    return "[" + ", ".join(_fmt(v) for v in values) + "]"


def save_model(model: NmvmModel, path) -> None:
    """Write a model file: JSON with a schema version, vectors mu and gamma,
    the row-major flattened sigma, and the mixing family block. Reals carry
    17 significant digits so the reload is bit-identical."""
    family, params = _mixing_payload(model.mixing)
    param_text = ", ".join(f'"{k}": {_fmt(v)}' for k, v in params.items())
    text = (
        "{\n"
        f'  "schema_version": {SCHEMA_VERSION},\n'
        f'  "n": {model.n},\n'
        f'  "mu": {_fmt_vector(model.mu)},\n'
        f'  "gamma": {_fmt_vector(model.gamma)},\n'
        f'  "sigma": {_fmt_vector(model.sigma.ravel(order="C"))},\n'
        f'  "mixing": {{"family": "{family}", '
        f'"parameters": {{{param_text}}}}}\n'
        "}\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path) -> NmvmModel:
    """Load and validate a model file written by save_model."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFileError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ModelFileError("model file must contain a JSON object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ModelFileError(
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    for key in ("n", "mu", "gamma", "sigma", "mixing"):
        if key not in payload:
            raise ModelFileError(f"model file missing field {key!r}")
    n = int(payload["n"])
    mu = np.asarray(payload["mu"], dtype=float)
    gamma = np.asarray(payload["gamma"], dtype=float)
    sigma_flat = np.asarray(payload["sigma"], dtype=float)
    if mu.shape != (n,) or gamma.shape != (n,) or sigma_flat.shape != (n * n,):
        raise ModelFileError("model file has inconsistent dimensions")
    mixing = _mixing_from_payload(payload["mixing"])
    return NmvmModel(mu=mu, gamma=gamma,
                     sigma=sigma_flat.reshape(n, n), mixing=mixing)
