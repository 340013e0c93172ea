"""Mixing distributions for normal mean-variance mixtures.

A mixing law is a nonnegative random variable Z with a density on (0, inf)
(except the degenerate point mass), closed-form moments, an expectation
operator used by the risk quadratures, and a seeded sampler for Monte Carlo
checks; each law defines its density for w > 0, which `expect` integrates
directly. The generalized inverse Gaussian family GIG(lam, chi, psi) covers
the hyperbolic-type models; Gamma, inverse Gaussian, and exponential laws are
the classical special cases.

GIG parameter domain: chi > 0, psi >= 0 when lam < 0; chi > 0, psi > 0 when
lam = 0; chi >= 0, psi > 0 when lam > 0. The boundary cases psi = 0 and
chi = 0 are the inverse-gamma and gamma limits. The domain also decides
which moments exist: E[Z^r] is the ratio c(lam, chi, psi) / c(lam + r, chi,
psi) of two normalizing constants, finite exactly when GIG(lam + r, chi, psi)
is itself in the domain.
"""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy import special as _sspec

from .mathkit import QuadratureSpec, integrate_semi_infinite, log_bessel_k

__all__ = [
    "MixingLaw",
    "MixingMoments",
    "MomentError",
    "Gig",
    "Gamma",
    "InverseGaussian",
    "Exponential",
    "Degenerate",
    "skew_condition",
]


class MomentError(ValueError):
    """A requested moment does not exist for the law."""


@dataclass(frozen=True)
class MixingMoments:
    """First three raw moments plus the central third/fourth moments.

    m4 is None when the law has no finite fourth moment.
    """

    ez: float
    ez2: float
    ez3: float
    var: float
    m3: float
    m4: float | None = None


def _central_moments(e1: float, e2: float, e3: float,
                     e4: float | None) -> MixingMoments:
    var = e2 - e1 * e1
    m3 = e3 - 3.0 * e2 * e1 + 2.0 * e1 ** 3
    m4 = None
    if e4 is not None:
        m4 = e4 - 4.0 * e3 * e1 + 6.0 * e2 * e1 * e1 - 3.0 * e1 ** 4
    return MixingMoments(ez=e1, ez2=e2, ez3=e3, var=var, m3=m3, m4=m4)


class MixingLaw:
    """Common interface of the mixing distributions. Instances are immutable."""

    def density(self, w):
        """Density at w (vectorized); zero for w <= 0; a float for scalar w."""
        w = np.asarray(w, dtype=float)
        out = np.zeros_like(w)
        pos = w > 0.0
        if np.any(pos):
            with np.errstate(under="ignore"):
                out[pos] = self._density_pos(w[pos])
        return out if out.ndim else float(out)

    def _density_pos(self, w: np.ndarray) -> np.ndarray:
        """Density at an array of points w > 0."""
        raise NotImplementedError

    def __post_init__(self):
        # nan fails every domain comparison a subclass makes; reject it here
        if not np.isfinite(astuple(self)).all():
            raise ValueError(f"parameters must be finite: {self!r}")

    def moments(self) -> MixingMoments:
        raise NotImplementedError

    def scale(self) -> float:
        """A typical size of Z, finite for every law: EZ where it exists."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. draws using the caller-owned generator."""
        raise NotImplementedError

    def expect(self, f: Callable, spec: QuadratureSpec | None = None,
               partition: list | None = None):
        """E[f(Z)] by quadrature over u > 0 of c f(c u) p(c u), p the density
        and c = scale(), the unit of the quadrature map; f maps arrays
        elementwise. An f that returns shape (k, n) for n nodes gives the k
        expectations as an array, from one quadrature on shared nodes. A
        `partition` seeds the quadrature with an earlier call's panels and
        receives this call's (both as in integrate_semi_infinite); its edges
        are in the map's variable, so it serves calls on this law only."""
        c = self.scale()
        with np.errstate(under="ignore"):
            return integrate_semi_infinite(
                lambda u: c * f(c * u) * self._density_pos(c * u), spec,
                partition)

    @staticmethod
    def _check_count(n: int):
        if n < 1:
            raise ValueError(f"sample count must be >= 1, got {n}")


def gig_log_norm(lam: float, chi: float, psi: float) -> float:
    """log of the GIG(lam, chi, psi) density's normalizing constant over the
    whole domain: (psi/chi)^(lam/2) / (2 K_lam(sqrt(chi psi))) inside it,
    (psi/2)^lam / Gamma(lam) at chi = 0 and (chi/2)^-lam / Gamma(-lam) at
    psi = 0."""
    if chi == 0.0:  # Gamma(lam, psi/2)
        return lam * math.log(0.5 * psi) - math.lgamma(lam)
    if psi == 0.0:  # inverse gamma with shape -lam, scale chi/2
        return -lam * math.log(0.5 * chi) - math.lgamma(-lam)
    z = math.sqrt(chi * psi)
    # scipy's kve is nan at subnormal orders (K is even in the order, so K_0
    # is exact there) and overflows near chi = 0 or psi = 0, where
    # log_bessel_k takes the small-argument term wherever that is exact
    k = float(_sspec.kve(lam if abs(lam) >= sys.float_info.min else 0.0, z))
    log_k = math.log(k) - z if k < math.inf else float(log_bessel_k(lam, z))
    return 0.5 * lam * (math.log(psi) - math.log(chi)) - math.log(2.0) - log_k


@dataclass(frozen=True)
class Gig(MixingLaw):
    """Generalized inverse Gaussian law GIG(lam, chi, psi)."""

    lam: float
    chi: float
    psi: float

    def __post_init__(self):
        super().__post_init__()
        lam, chi, psi = self.lam, self.chi, self.psi
        if chi < 0.0 or psi < 0.0:
            raise ValueError(f"GIG requires chi, psi >= 0, got ({chi}, {psi})")
        if lam < 0.0 and chi <= 0.0:
            raise ValueError("GIG with lam < 0 requires chi > 0")
        if lam == 0.0 and (chi <= 0.0 or psi <= 0.0):
            raise ValueError("GIG with lam = 0 requires chi > 0 and psi > 0")
        if lam > 0.0 and psi <= 0.0:
            raise ValueError("GIG with lam > 0 requires psi > 0")

    @cached_property
    def _log_norm(self) -> float:
        """log normalizing constant, computed once per instance."""
        return gig_log_norm(self.lam, self.chi, self.psi)

    def _density_pos(self, w):
        # on the boundaries chi / w or psi * w is an exact zero, and halving
        # rounds exactly, so one kernel serves all three branches
        return np.exp(self._log_norm + (self.lam - 1.0) * np.log(w)
                      - 0.5 * (self.chi / w + self.psi * w))

    def raw_moment(self, r: float) -> float:
        """E[Z^r] = c(lam, chi, psi) / c(lam + r, chi, psi), formed in log
        space; raises MomentError exactly when GIG(lam + r, chi, psi) is not
        a law, which is when the moment is infinite."""
        try:
            shifted = Gig(self.lam + r, self.chi, self.psi)
        except ValueError:
            raise MomentError(f"E[Z^{r}] does not exist for {self!r}") from None
        return math.exp(self._log_norm - shifted._log_norm)

    def moments(self) -> MixingMoments:
        return self._moments

    def scale(self) -> float:
        return self._scale

    @cached_property
    def _scale(self) -> float:
        try:
            return self.raw_moment(1.0)
        except MomentError:  # only an inverse gamma lacks EZ: take its mode
            return self.chi / (2.0 * (1.0 - self.lam))

    @cached_property
    def _moments(self) -> MixingMoments:
        """moments(), computed once per instance; a MomentError is not
        cached, so every call raises it again."""
        e1 = self.raw_moment(1.0)
        e2 = self.raw_moment(2.0)
        e3 = self.raw_moment(3.0)
        try:
            e4 = self.raw_moment(4.0)
        except MomentError:
            e4 = None
        return _central_moments(e1, e2, e3, e4)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        self._check_count(n)
        lam, chi, psi = self.lam, self.chi, self.psi
        if chi > 0.0 and psi > 0.0:
            # imported here: scipy.stats alone costs ~0.4 s of package import
            from scipy.stats import geninvgauss
            return geninvgauss.rvs(
                lam, math.sqrt(chi * psi), scale=math.sqrt(chi / psi),
                size=n, random_state=rng)
        if chi == 0.0:
            return rng.gamma(lam, 2.0 / psi, size=n)
        return 0.5 * chi / rng.gamma(-lam, 1.0, size=n)


@dataclass(frozen=True)
class Gamma(MixingLaw):
    """Gamma law with shape/rate parametrization; density x^(shape-1) e^(-rate x)."""

    shape: float
    rate: float

    def __post_init__(self):
        super().__post_init__()
        if self.shape <= 0.0 or self.rate <= 0.0:
            raise ValueError(
                f"Gamma requires shape, rate > 0, got ({self.shape}, {self.rate})")

    def _density_pos(self, w):
        return np.exp(self.shape * math.log(self.rate) - math.lgamma(self.shape)
                      + (self.shape - 1.0) * np.log(w) - self.rate * w)

    def moments(self) -> MixingMoments:
        a, b = self.shape, self.rate
        ez = a / b
        var = a / b ** 2
        m3 = 2.0 * a / b ** 3
        m4 = 3.0 * a * (a + 2.0) / b ** 4
        ez2 = var + ez * ez
        ez3 = a * (a + 1.0) * (a + 2.0) / b ** 3
        return MixingMoments(ez=ez, ez2=ez2, ez3=ez3, var=var, m3=m3, m4=m4)

    def scale(self) -> float:
        return self.shape / self.rate

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        self._check_count(n)
        return rng.gamma(self.shape, 1.0 / self.rate, size=n)


class Exponential(Gamma):
    """Exp(1) mixing, i.e. Gamma(1, 1); the asymmetric-Laplace case."""

    def __init__(self):
        super().__init__(shape=1.0, rate=1.0)


@dataclass(frozen=True)
class InverseGaussian(MixingLaw):
    """Inverse Gaussian law with density
    (delta/sqrt(2 pi)) e^(delta*gamma_ig) z^(-3/2) e^(-(delta^2/z + gamma_ig^2 z)/2).

    Coincides with GIG(-1/2, delta^2, gamma_ig^2).
    """

    delta: float
    gamma_ig: float

    def __post_init__(self):
        super().__post_init__()
        if self.delta <= 0.0 or self.gamma_ig <= 0.0:
            raise ValueError(
                f"InverseGaussian requires delta, gamma_ig > 0, "
                f"got ({self.delta}, {self.gamma_ig})")

    def _density_pos(self, w):
        d, g = self.delta, self.gamma_ig
        return d / math.sqrt(2.0 * math.pi) * np.exp(
            d * g - 1.5 * np.log(w) - 0.5 * (d * d / w + g * g * w))

    def moments(self) -> MixingMoments:
        d, g = self.delta, self.gamma_ig
        ez = d / g
        var = d / g ** 3
        m3 = 3.0 * d / g ** 5
        m4 = 15.0 * d / g ** 7 + 3.0 * d * d / g ** 6
        ez2 = var + ez * ez
        ez3 = 3.0 * d / g ** 5 + 3.0 * d * d / g ** 4 + (d / g) ** 3
        return MixingMoments(ez=ez, ez2=ez2, ez3=ez3, var=var, m3=m3, m4=m4)

    def scale(self) -> float:
        return self.delta / self.gamma_ig

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # rng.wald is the Michael-Schucany-Haas transform sampler
        self._check_count(n)
        return rng.wald(self.delta / self.gamma_ig, self.delta ** 2, size=n)


@dataclass(frozen=True)
class Degenerate(MixingLaw):
    """Point mass at 1; realizes the plain Gaussian / elliptical reduction.

    Has no Lebesgue density: density() is zero away from 1 (inf at 1) and
    expectations are evaluated exactly as f(1).
    """

    def density(self, w):
        w = np.asarray(w, dtype=float)
        out = np.where(w == 1.0, np.inf, 0.0)
        return out if out.ndim else float(out)

    def moments(self) -> MixingMoments:
        return MixingMoments(ez=1.0, ez2=1.0, ez3=1.0, var=0.0, m3=0.0, m4=0.0)

    def scale(self) -> float:
        return 1.0

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        self._check_count(n)
        return np.ones(n)

    def expect(self, f: Callable, spec: QuadratureSpec | None = None,
               partition: list | None = None):
        val = np.asarray(f(np.array([1.0])), dtype=float)[..., 0]
        return val if val.ndim else float(val)


def skew_condition(law: MixingLaw) -> float:
    """m3(Z) * EZ - 2 * Var(Z)^2.

    A nonnegative value certifies that portfolio skewness is nondecreasing in
    the alignment angle, the hypothesis of the closed-form mean-risk-skewness
    solver. Exactly zero for every Gamma law; delta^2/gamma_ig^6 for the
    inverse Gaussian.
    """
    mm = law.moments()
    return mm.m3 * mm.ez - 2.0 * mm.var ** 2
