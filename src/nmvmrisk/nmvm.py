"""Multivariate normal mean-variance mixture model and its coordinate change.

The model is X = mu + gamma * Z + sqrt(Z) * A * N with Sigma = A A^T and Z a
mixing law. Portfolio returns omega^T X reduce to the scalar family
loc + c * Z + scale * sqrt(Z) * N; the x-coordinate change x = A^T omega turns
risk and skewness into functions of ||x|| and the angle between x and the
transformed skewness vector gamma0 = A^{-1} gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixing import MixingLaw, MomentError

__all__ = [
    "NotSpdError",
    "NmvmModel",
    "TransformedModel",
    "UnivariateMixture",
    "PortfolioMoments",
    "factorize",
    "transform",
    "project",
    "portfolio_moments",
    "skew_derivative",
]

_COND_LIMIT = 1e12


class NotSpdError(ValueError):
    """Covariance-scale matrix is not symmetric positive definite."""


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.array(v, dtype=float, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class NmvmModel:
    """Model parameters (mu, gamma, Sigma, mixing law) with validation."""

    mu: np.ndarray
    gamma: np.ndarray
    sigma: np.ndarray
    mixing: MixingLaw

    def __post_init__(self):
        mu = _as_vector(self.mu, "mu")
        gamma = _as_vector(self.gamma, "gamma")
        sigma = np.array(self.sigma, dtype=float, copy=True)
        if not all(np.isfinite(v).all() for v in (mu, gamma, sigma)):
            raise ValueError("mu, gamma and sigma must be finite")
        n = mu.shape[0]
        if gamma.shape[0] != n or sigma.shape != (n, n):
            raise ValueError(
                f"inconsistent dimensions: mu {mu.shape}, gamma {gamma.shape}, "
                f"sigma {sigma.shape}")
        if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(sigma).max())):
            raise NotSpdError("sigma is not symmetric")
        eigvals = np.linalg.eigvalsh(sigma)
        tol = 1e-12 * np.trace(sigma)
        if eigvals[0] <= tol:
            raise NotSpdError(
                f"sigma is not positive definite: smallest eigenvalue "
                f"{eigvals[0]:.6e} <= {tol:.6e}")
        if eigvals[-1] / eigvals[0] > _COND_LIMIT:
            raise NotSpdError(
                f"sigma is numerically singular: condition number "
                f"{eigvals[-1] / eigvals[0]:.3e} exceeds {_COND_LIMIT:.0e}")
        sigma.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True, eq=False)
class TransformedModel:
    """x-coordinate quantities of a model under a factor A with Sigma = A A^T.

    mode selects the meaning of the constraint vector m: "skew" uses
    m = gamma0 * EZ (the pure skewness problem, no location), "mean_risk"
    uses m = mu0 + gamma0 * EZ (location included).
    """

    a_factor: np.ndarray
    mu0: np.ndarray
    gamma0: np.ndarray
    e_a: np.ndarray
    m: np.ndarray
    gamma0_norm: float
    mode: str
    mixing: MixingLaw

    @property
    def n(self) -> int:
        return self.mu0.shape[0]

    def cos_angle(self, x: np.ndarray) -> float:
        """Cosine of the angle between x and gamma0 (0 when gamma0 = 0)."""
        norm = float(np.linalg.norm(x))
        if norm == 0.0:
            raise ValueError("x must be nonzero")
        if self.gamma0_norm == 0.0:
            return 0.0
        return float(self.gamma0 @ x) / (norm * self.gamma0_norm)

    def weights_from_x(self, x: np.ndarray) -> np.ndarray:
        """Invert x = A^T omega."""
        return np.linalg.solve(self.a_factor.T, np.asarray(x, dtype=float))

    def x_from_weights(self, omega: np.ndarray) -> np.ndarray:
        return self.a_factor.T @ np.asarray(omega, dtype=float)


@dataclass(frozen=True)
class UnivariateMixture:
    """Law of a portfolio return: loc + skew_coef * Z + scale * sqrt(Z) * N."""

    loc: float
    skew_coef: float
    scale: float
    mixing: MixingLaw

    def __post_init__(self):
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class PortfolioMoments:
    std: float
    skew: float
    kurt: float


def factorize(sigma: np.ndarray, method: str = "symmetric_sqrt") -> np.ndarray:
    """Factor an SPD matrix as Sigma = A A^T.

    "symmetric_sqrt" returns the unique SPD square root (the default, so the
    transformed vectors are basis-independent); "cholesky" returns the lower
    triangular factor, which is cheaper and equivalent for every
    factorization-invariant output.
    """
    sigma = np.asarray(sigma, dtype=float)
    eigvals, eigvecs = np.linalg.eigh(sigma)
    tol = 1e-12 * float(np.trace(sigma))
    if eigvals[0] <= tol:
        raise NotSpdError(
            f"matrix is not positive definite: smallest eigenvalue "
            f"{eigvals[0]:.6e} <= {tol:.6e}")
    if method == "symmetric_sqrt":
        return (eigvecs * np.sqrt(eigvals)) @ eigvecs.T
    if method == "cholesky":
        return np.linalg.cholesky(sigma)
    raise ValueError(f"unknown factorization method: {method!r}")


def transform(model: NmvmModel, method: str = "symmetric_sqrt",
              mode: str = "mean_risk") -> TransformedModel:
    """Compute the x-coordinate quantities mu0, gamma0, e_A, m for a model."""
    if mode not in ("mean_risk", "skew"):
        raise ValueError(f"unknown mode: {mode!r}")
    a = factorize(model.sigma, method)
    mu0 = np.linalg.solve(a, model.mu)
    gamma0 = np.linalg.solve(a, model.gamma)
    e_a = np.linalg.solve(a, np.ones(model.n))
    ez = model.mixing.moments().ez
    m = gamma0 * ez if mode == "skew" else mu0 + gamma0 * ez
    for arr in (mu0, gamma0, e_a, m):
        arr.flags.writeable = False
    return TransformedModel(
        a_factor=a, mu0=mu0, gamma0=gamma0, e_a=e_a, m=m,
        gamma0_norm=float(np.linalg.norm(gamma0)), mode=mode,
        mixing=model.mixing)


def project(model: NmvmModel, weights: np.ndarray) -> UnivariateMixture:
    """Scalar mixture law of the portfolio return for the given weights."""
    omega = np.asarray(weights, dtype=float)
    if omega.shape != (model.n,):
        raise ValueError(
            f"weights must have shape ({model.n},), got {omega.shape}")
    if not (np.isfinite(omega).all() and np.any(omega)):
        raise ValueError("weights must be finite and nonzero")
    return UnivariateMixture(
        loc=float(omega @ model.mu),
        skew_coef=float(omega @ model.gamma),
        scale=math.sqrt(float(omega @ model.sigma @ omega)),
        mixing=model.mixing)


def portfolio_moments(tm: TransformedModel, x: np.ndarray) -> PortfolioMoments:
    """Standard deviation, skewness, and kurtosis of the portfolio return.

    With phi the cosine between x and gamma0, and writing c = ||gamma0|| phi:

        StD  = ||x|| sqrt(c^2 Var(Z) + EZ)
        Skew = (c^3 m3(Z) + 3 c Var(Z)) / (c^2 Var(Z) + EZ)^(3/2)
        Kurt = (c^4 m4(Z) + 6 c^2 (EZ^3 - 2 EZ^2 EZ + EZ^3) + 3 EZ^2)
               / (c^2 Var(Z) + EZ)^2

    Skew and Kurt depend on x only through phi. Raises MomentError when the
    mixing law lacks the needed moments.
    """
    x = np.asarray(x, dtype=float)
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        raise ValueError("x must be nonzero")
    mm = tm.mixing.moments()
    phi = tm.cos_angle(x)
    b = tm.gamma0_norm
    c = b * phi
    denom = c * c * mm.var + mm.ez
    std = norm * math.sqrt(denom)
    skew = (c ** 3 * mm.m3 + 3.0 * c * mm.var) / denom ** 1.5
    if mm.m4 is None:
        raise MomentError("kurtosis requires a finite fourth mixing moment")
    central_z3 = mm.ez3 - 2.0 * mm.ez2 * mm.ez + mm.ez ** 3
    kurt = (c ** 4 * mm.m4 + 6.0 * c * c * central_z3 + 3.0 * mm.ez2) / denom ** 2
    return PortfolioMoments(std=std, skew=skew, kurt=kurt)


def skew_derivative(tm: TransformedModel, phi: float) -> float:
    """Derivative of portfolio skewness with respect to phi = cos(x, gamma0):

        [3 b^3 (m3 EZ - 2 Var^2) phi^2 + 3 b Var EZ] / (b^2 phi^2 Var + EZ)^(5/2)

    with b = ||gamma0||. Nonnegative on [-1, 1] whenever the skewness
    condition m3 * EZ >= 2 Var^2 holds.
    """
    if not -1.0 <= phi <= 1.0:
        raise ValueError(f"phi must lie in [-1, 1], got {phi}")
    mm = tm.mixing.moments()
    b = tm.gamma0_norm
    num = (3.0 * b ** 3 * (mm.m3 * mm.ez - 2.0 * mm.var ** 2) * phi * phi
           + 3.0 * b * mm.var * mm.ez)
    den = (b * b * phi * phi * mm.var + mm.ez) ** 2.5
    return num / den
