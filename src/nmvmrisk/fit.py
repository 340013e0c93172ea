"""Data ingestion, summary statistics, EM fitting, and model file I/O.

The fitter is a multi-cycle ECM scheme for the mixture model
X = mu + gamma Z + sqrt(Z) A N with Z generalized inverse Gaussian:
the E-step computes the conditional moments E[Z | x], E[1/Z | x] (and
E[log Z | x] when the index parameter is free) from the conjugate posterior,
one CM cycle updates (mu, gamma, Sigma) in closed form, and a second CM cycle
maximizes over (chi, psi) exactly, by one root in log sqrt(chi psi), and over
a free index by a bounded 1-D search. The E-step kernel that ends each step
also gives its closed-form log-likelihood, which never decreases. Where the
EM crawls, SQUAREM extrapolates two steps and keeps the result only when it
does not lower the log-likelihood.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import sys
from dataclasses import astuple, dataclass, field
from datetime import date

import numpy as np
from scipy import special as _sspec

from .mixing import (Degenerate, Exponential, Gamma, Gig, InverseGaussian,
                     MixingLaw, gig_log_norm)
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


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
        if not (_is_real(self.lambda_value)
                and abs(self.lambda_value) <= sys.float_info.max):
            raise ValueError(f"lambda_value must be a finite number, "
                             f"got {self.lambda_value!r}")
        if not (isinstance(self.max_iters, numbers.Integral)
                and not isinstance(self.max_iters, bool)
                and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, "
                             f"got {self.max_iters!r}")
        if not (_is_real(self.ll_tol)
                and 0.0 < self.ll_tol <= sys.float_info.max):
            raise ValueError(f"ll_tol must be a finite positive number, "
                             f"got {self.ll_tol!r}")


@dataclass(frozen=True)
class FitResult:
    model: NmvmModel
    log_likelihood_trace: list[float]
    iterations: int
    converged: bool
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Price ingestion and summary statistics
# ---------------------------------------------------------------------------

def load_prices(path) -> ReturnsMatrix:
    """Read a price CSV (header `date,<asset1>,...`) into log returns.

    Rows with any empty cell are dropped (the count is reported); malformed
    rows and prices that are not finite and positive (nan, inf, 0, -5)
    raise PriceFileError naming the line. A UTF-8 byte-order mark, which
    spreadsheets write on export, is skipped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
            if not all(0.0 < p < math.inf for p in prices):
                raise PriceFileError(
                    f"line {lineno}: prices must be finite and positive")
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


# orders up to this bound take the recurrence; 64 upward steps stay within
# 1e-13 of kve, and a larger order (lambda = 1e6 is half-integer too) would
# loop once per unit of order
_RECURRENCE_MAX_ORDER = 64.0


def _kve_recurrence(m: float, z):
    """kve at orders m - 1, m and m + 1 for m >= 0 with 2m an integer, by
    upward recurrence K_{nu+1} = K_{nu-1} + (2 nu/z) K_nu (DLMF 10.29.1)
    from k0e, k1e or, at half-odd orders, sqrt(pi/2z) (1, 1 + 1/z) (DLMF
    10.39.2), with K_{-nu} = K_nu. Every term is positive, so nothing
    cancels; an order that overflows comes out inf, as kve's does."""
    if m == math.floor(m):
        k_nu, k_up, nu = _sspec.k0e(z), _sspec.k1e(z), 0.0
        k_down = k_up
    else:
        k_nu = np.sqrt(0.5 * math.pi / z)
        k_up, nu = k_nu * (1.0 + 1.0 / z), 0.5
        k_down = k_nu
    with np.errstate(over="ignore"):
        while nu < m:
            nu += 1.0
            k_down, k_nu, k_up = k_nu, k_up, k_nu + (2.0 * nu / z) * k_up
    return k_down, k_nu, k_up


def _kve_neighbours(p: float, z):
    """kve at orders p - 1, p and p + 1. Where 2p is an integer and |p| is
    at most _RECURRENCE_MAX_ORDER (every order of a fixed-index NIG fit),
    all three come from `_kve_recurrence`. Otherwise two kve calls give the
    order p and its neighbour nearer 0, and the third follows by K_{p+1} =
    K_{p-1} + (2p/z) K_p (which kve keeps, its scale e^z being the same at
    every order), summed in the direction where both terms are positive."""
    if 2.0 * p == math.floor(2.0 * p) and abs(p) <= _RECURRENCE_MAX_ORDER:
        k_down, k_p, k_up = _kve_recurrence(abs(p), z)
        return (k_down, k_p, k_up) if p >= 0.0 else (k_up, k_p, k_down)
    k_p = _sspec.kve(p, z)
    if p >= 0.0:
        k_lo = _sspec.kve(p - 1.0, z)
        return k_lo, k_p, k_lo + (2.0 * p / z) * k_p
    k_hi = _sspec.kve(p + 1.0, z)
    return k_hi - (2.0 * p / z) * k_p, k_p, k_hi


def _estep(x, mu, gamma, sigma, lam, chi, psi, need_log: bool):
    """GH kernel at one parameter set: E[Z | x_i], E[1/Z | x_i], E[log Z | x_i]
    (None unless need_log) and the log-likelihood, from one whitening and two
    Bessel orders (`_kve_neighbours`). Z | x_i is GIG(p = lam - n/2,
    chi + Q_i, psi + rho) with Q_i the Mahalanobis distance of x_i and rho =
    gamma^T Sigma^{-1} gamma."""
    t, n = x.shape
    chol, q, rho = _whiten(x, mu, gamma, sigma)
    p = lam - 0.5 * n
    chi_i = chi + q
    psi_bar = psi + rho
    z = np.sqrt(chi_i * psi_bar)
    ratio = np.sqrt(chi_i / psi_bar)
    k_lo, k_p, k_hi = _kve_neighbours(p, z)
    # kve overflows to inf at large orders; the check below names it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        delta = ratio * (k_hi / k_p)
        eta = (k_lo / k_p) / ratio
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


def _chi_psi_step(lam, chi, psi, delta_bar, eta_bar):
    """The (chi, psi) maximizing the mixing block at fixed lam, from the mean
    E-step weights delta_bar = mean E[Z | x] and eta_bar = mean E[1/Z | x].
    With chi = omega eta and psi = omega / eta, the best eta at fixed omega
    is the positive root of omega eta_bar eta^2 + 2 lam eta - omega
    delta_bar = 0, and the profile in omega is unimodal, its slope being
    K_{lam+1}(omega)/K_lam(omega) - lam/omega - (eta eta_bar +
    delta_bar/eta)/2. One root of that slope in log omega, bracketed from
    omega = sqrt(chi psi) outward, gives the step. Returns (chi, psi)
    unchanged where the bracket search finds no sign change, as when
    delta_bar eta_bar -> 1 (a point mass: the optimum lies at omega ->
    inf)."""
    from scipy.optimize import brentq
    prod = delta_bar * eta_bar

    def best_eta(omega):
        root = math.sqrt(lam * lam + omega * omega * prod)
        if lam > 0.0:
            return omega * delta_bar / (lam + root)
        return (root - lam) / (omega * eta_bar)

    def slope(u):
        omega = math.exp(u)
        eta = best_eta(omega)
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = _sspec.kve(lam + 1.0, omega) / _sspec.kve(lam, omega)
        value = ratio - lam / omega - 0.5 * (eta * eta_bar + delta_bar / eta)
        return value if math.isfinite(value) else math.nan

    u_near = 0.5 * (math.log(chi) + math.log(psi))
    s_near = slope(u_near)
    step = math.copysign(1.0, s_near)
    # step toward the optimum by 1, 2, 4, ... 128 in log omega until the
    # slope changes sign
    while s_near * step > 0.0 and abs(step) <= 128.0:
        u_far = u_near + step
        s_far = slope(u_far)
        if s_far * step <= 0.0:
            u = brentq(slope, min(u_near, u_far), max(u_near, u_far),
                       xtol=1e-14, rtol=4.0 * sys.float_info.epsilon)
            break
        u_near, s_near, step = u_far, s_far, 2.0 * step
    else:
        if s_near != 0.0:  # no sign change, or a nan slope
            return chi, psi
        u = u_near
    omega = math.exp(u)
    eta = best_eta(omega)
    return omega * eta, omega / eta


def _update_mixing(lam, chi, psi, t, sums, lambda_free):
    """CM cycles for the mixing parameters: the exact (chi, psi) step, then a
    bounded search over lam when it is free. Each is kept only where it
    raises the objective, so the objective never decreases."""
    # imported here: scipy.optimize adds ~0.3 s to every package import
    from scipy.optimize import minimize_scalar
    sum_delta, sum_eta, sum_xi = sums
    best = _gig_q2(lam, chi, psi, t, sum_delta, sum_eta, sum_xi)

    new_chi, new_psi = _chi_psi_step(lam, chi, psi, sum_delta / t,
                                     sum_eta / t)
    value = _gig_q2(lam, new_chi, new_psi, t, sum_delta, sum_eta, sum_xi)
    if value > best:
        chi, psi, best = new_chi, new_psi, value

    if lambda_free:
        res = minimize_scalar(
            lambda v: -_gig_q2(v, chi, psi, t, sum_delta, sum_eta, sum_xi),
            bounds=(lam - 2.0, lam + 2.0), method="bounded",
            options={"xatol": 1e-10})
        if -res.fun > best:
            lam = float(res.x)
    return lam, chi, psi


def _mcecm_step(x, theta, delta, eta, include_mu, lambda_free, it):
    """One MCECM step from theta = (mu, gamma, sigma, lam, chi, psi) and the
    E-step weights of its kernel: cycle 1 (location, skewness, dispersion),
    the cycle-2 kernel, the mixing update, and the kernel at the new
    parameters, which gives their log-likelihood and the next step's
    weights. Returns (theta, delta, eta, log-likelihood)."""
    mu, gamma, sigma, lam, chi, psi = theta
    t = x.shape[0]
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
    # O(T n) memory; keep einsum's default optimize=False: a matmul or
    # an optimized contraction adds in another order and moves the fit
    sigma = np.einsum("ti,tj,t->ij", centered, centered, eta) / t \
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
    delta, eta, _, ll = _estep(x, mu, gamma, sigma, lam, chi, psi,
                               need_log=False)
    return (mu, gamma, sigma, lam, chi, psi), delta, eta, ll


def _crawling(trace: list[float]) -> bool:
    """Whether each of the last two log-likelihood gains exceeds half the
    gain before it, i.e. the EM converges linearly at a ratio above 0.5."""
    if len(trace) < 4:
        return False
    g1, g2, g3 = (b - a for a, b in zip(trace[-4:], trace[-3:]))
    return g2 > 0.5 * g1 and g3 > 0.5 * g2


def _extrapolate(theta0, theta1, theta2):
    """SQUAREM's point theta0 - 2 alpha r + alpha^2 v (Varadhan & Roland
    2008, scheme S3) from two MCECM steps theta1 = F(theta0), theta2 =
    F(theta1): r = theta1 - theta0, v = theta2 - 2 theta1 + theta0 and alpha
    = min(-|r|/|v|, -1), over (mu, gamma, Sigma, lam, log chi, log psi).
    Raises ArithmeticError where the point cannot be formed; Sigma may come
    out not positive definite."""
    p0, p1, p2 = (np.concatenate([mu, gamma, sigma.ravel(),
                                  [lam, math.log(chi), math.log(psi)]])
                  for mu, gamma, sigma, lam, chi, psi in (theta0, theta1,
                                                          theta2))
    r = p1 - p0
    v = p2 - 2.0 * p1 + p0
    alpha = min(-np.linalg.norm(r) / np.linalg.norm(v), -1.0)
    point = p0 - 2.0 * alpha * r + alpha * alpha * v
    n = theta0[0].size
    return (point[:n], point[n:2 * n], point[2 * n:-3].reshape(n, n),
            float(point[-3]), math.exp(point[-2]), math.exp(point[-1]))


def _check_dispersion(sample_cov, x, assets):
    """Raise ValueError where the return columns cannot carry a dispersion
    matrix: name the columns that never move, else give the rank of the
    sample correlation (which no column's scale sways) when columns are
    collinear."""
    n = x.shape[1]
    constant = [assets[j] for j in range(n) if np.ptp(x[:, j]) == 0.0]
    if constant:
        raise ValueError(f"return columns with zero variance: "
                         f"{', '.join(constant)}")
    scale = 1.0 / np.sqrt(np.diag(sample_cov))
    rank = int(np.linalg.matrix_rank(sample_cov * np.outer(scale, scale)))
    if rank < n:
        raise ValueError(f"return columns are collinear: the sample "
                         f"correlation has rank {rank} of {n}")


def mcecm_fit(rm: ReturnsMatrix, cfg: FitConfig | None = None,
              initial: NmvmModel | None = None) -> FitResult:
    """Fit the mixture model to the return rows by multi-cycle ECM with
    SQUAREM acceleration.

    Initialization: mu = sample mean (when included), gamma = 0, Sigma =
    sample covariance, mixing GIG(lambda_value, 1, 1); passing a model as
    `initial` warm-starts from its parameters instead (its mixing must be
    GIG with chi > 0 and psi > 0). A fixed-index fit holds lambda at
    lambda_value, so its warm start must carry that lambda; a free-index
    fit starts from the initial lambda. Raises ValueError for a return
    column that never moves or for collinear columns, which no dispersion
    matrix fits.

    Each MCECM step (`_mcecm_step`) costs two E-step kernels. While the EM
    crawls (`_crawling`) and at least 3 steps of max_iters are left, two
    steps theta1 = F(theta0), theta2 = F(theta1) are extrapolated
    (`_extrapolate`), and one kernel at that point and one stabilizing step
    from it follow. That step is kept when its log-likelihood is at least
    theta2's; otherwise, or when the point has a Sigma that is not positive
    definite, a non-finite weight or an overflow, the fit continues from
    theta2 and waits 2, 4, 8, ... steps before the next try. `iterations`
    counts the steps run, kept or not, and stops at max_iters; the trace
    holds the log-likelihood of each kept step, so it is non-decreasing.
    The fit converges when two successive trace entries differ by less
    than ll_tol. `diagnostics` gives kernel_evaluations,
    extrapolations_tried and extrapolations_kept.

    With identification="unit_ez" the fitted mixing law is rescaled to unit
    mean with the compensating rescale of gamma and Sigma, which leaves the
    law of X unchanged.
    """
    cfg = cfg or FitConfig()
    x = np.asarray(rm.values, dtype=float)
    t, n = x.shape
    if t <= n + 2:
        raise ValueError(f"need more observations than assets + 2 "
                         f"(T={t}, n={n})")
    include_mu = cfg.include_mu
    lambda_free = cfg.lambda_mode == "free"
    sample_cov = np.atleast_2d(np.cov(x, rowvar=False, ddof=1))
    _check_dispersion(sample_cov, x, rm.assets)
    if initial is not None:
        mix = initial.mixing
        if not (isinstance(mix, Gig) and mix.chi > 0.0 and mix.psi > 0.0):
            raise ValueError("warm start requires a GIG mixing law with "
                             "chi > 0 and psi > 0")
        if initial.n != n:
            raise ValueError("warm-start model dimension mismatch")
        if not lambda_free and mix.lam != cfg.lambda_value:
            raise ValueError(
                f"warm start has lambda {mix.lam!r}, but a fixed-index fit "
                f"holds lambda_value {cfg.lambda_value!r}")
        mu = initial.mu.copy() if include_mu else np.zeros(n)
        theta = (mu, initial.gamma.copy(), initial.sigma.copy(), mix.lam,
                 mix.chi, mix.psi)
    else:
        mu = x.mean(axis=0) if include_mu else np.zeros(n)
        theta = (mu, np.zeros(n), sample_cov, cfg.lambda_value, 1.0, 1.0)

    delta, eta, _, _ = _estep(x, *theta, need_log=False)
    diagnostics = {"kernel_evaluations": 1, "extrapolations_tried": 0,
                   "extrapolations_kept": 0}
    trace: list[float] = []
    steps = wait = 0
    backoff = 2

    def step(theta, delta, eta):
        nonlocal steps
        steps += 1
        diagnostics["kernel_evaluations"] += 2
        return _mcecm_step(x, theta, delta, eta, include_mu, lambda_free,
                           steps - 1)

    def converged() -> bool:
        return len(trace) > 1 and abs(trace[-1] - trace[-2]) < cfg.ll_tol

    while steps < cfg.max_iters and not converged():
        accelerate = (wait == 0 and cfg.max_iters - steps >= 3
                      and _crawling(trace))
        wait = max(wait - 1, 0)
        theta0 = theta
        theta, delta, eta, ll = step(theta, delta, eta)
        trace.append(ll)
        if not accelerate:
            continue
        theta1 = theta
        theta, delta, eta, ll = step(theta, delta, eta)
        trace.append(ll)
        if converged():
            break
        diagnostics["extrapolations_tried"] += 1
        try:
            # an overflow at the point must reject it, not warn
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                point = _extrapolate(theta0, theta1, theta)
                diagnostics["kernel_evaluations"] += 1
                w_delta, w_eta, _, _ = _estep(x, *point, need_log=False)
                trial = step(point, w_delta, w_eta)
        except (ArithmeticError, EMError, np.linalg.LinAlgError):
            trial = None
        if trial is not None and trial[3] >= ll:
            theta, delta, eta, ll = trial
            trace.append(ll)
            diagnostics["extrapolations_kept"] += 1
        else:
            wait, backoff = backoff, 2 * backoff

    mu, gamma, sigma, lam, chi, psi = theta
    mixing = Gig(lam=lam, chi=chi, psi=psi)
    if cfg.identification == "unit_ez":
        scale = mixing.moments().ez
        mixing = Gig(lam=lam, chi=chi / scale, psi=psi * scale)
        gamma = gamma * scale
        sigma = sigma * scale
    model = NmvmModel(mu=mu, gamma=gamma, sigma=sigma, mixing=mixing)
    return FitResult(model=model, log_likelihood_trace=trace,
                     iterations=steps, converged=converged(),
                     diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Model file format
# ---------------------------------------------------------------------------

SCHEMA_VERSION = 1

# family -> (law class, parameter names in dataclass field order)
_FAMILIES = {
    "gig": (Gig, ("lambda", "chi", "psi")),
    "gamma": (Gamma, ("shape", "rate")),
    "inverse_gaussian": (InverseGaussian, ("delta", "gamma_ig")),
    "exponential": (Exponential, ()),
    "degenerate": (Degenerate, ()),
}


def _is_number(value) -> bool:
    # json gives bool for true/false and int for an integer literal of any size
    return type(value) is float or (type(value) is int
                                    and abs(value) <= sys.float_info.max)


def _mixing_payload(law: MixingLaw) -> dict:
    for family, (cls, names) in _FAMILIES.items():
        if type(law) is cls:
            values = [float(v) for v in astuple(law)]
            return {"family": family, "parameters": dict(zip(names, values))}
    raise ModelFileError(f"cannot serialize mixing law {type(law).__name__}")


def _mixing_from_payload(payload) -> MixingLaw:
    if not isinstance(payload, dict) or "family" not in payload:
        raise ModelFileError("mixing block must carry a 'family' field")
    family = payload["family"]
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ModelFileError(f"unknown mixing family {family!r}")
    params = payload.get("parameters", {})
    if not isinstance(params, dict):
        raise ModelFileError("mixing 'parameters' must be an object")
    cls, names = _FAMILIES[family]
    values = [params.get(name) for name in names]
    if not all(map(_is_number, values)):
        raise ModelFileError(f"mixing family {family!r} parameters "
                             f"{list(names)} missing or not numbers")
    return cls(*map(float, values))


def _vector(payload, key: str, size: int) -> np.ndarray:
    values = payload[key]
    if not (isinstance(values, list) and len(values) == size
            and all(map(_is_number, values))):
        raise ModelFileError(f"{key!r} must be a list of {size} numbers")
    return np.array(values, dtype=float)


def save_model(model: NmvmModel, path) -> None:
    """Write a model file: JSON with a schema version, vectors mu and gamma,
    the row-major flattened sigma, and the mixing family block. Reals are
    written as the shortest repr that round-trips, so the reload is
    bit-identical, and every law reloads equal to itself."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "n": model.n,
        "mu": model.mu.tolist(),
        "gamma": model.gamma.tolist(),
        "sigma": model.sigma.ravel(order="C").tolist(),
        "mixing": _mixing_payload(model.mixing),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def load_model(path) -> NmvmModel:
    """Load and validate a model file written by save_model. Raises
    ModelFileError for invalid JSON, another schema_version, a missing
    field, an n that is not a positive integer, a vector that is not n (or
    n*n) numbers, or a mixing block whose family is unknown or whose
    parameters are missing or not numbers; the model and law constructors
    then reject non-finite values and a sigma that is not positive definite.
    A UTF-8 byte-order mark is skipped.
    """
    with open(path, encoding="utf-8-sig") as fh:
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
    n = payload["n"]
    if not (type(n) is int and n > 0):
        raise ModelFileError(f"'n' must be a positive integer, got {n!r}")
    mu = _vector(payload, "mu", n)
    gamma = _vector(payload, "gamma", n)
    sigma = _vector(payload, "sigma", n * n).reshape(n, n)
    mixing = _mixing_from_payload(payload["mixing"])
    return NmvmModel(mu=mu, gamma=gamma, sigma=sigma, mixing=mixing)
