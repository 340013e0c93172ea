"""Risk measures, portfolio optimization, and EM fitting for normal
mean-variance mixture return models."""

from .mathkit import (BracketError, QuadratureError, QuadratureSpec,
                      find_root, integrate_semi_infinite, normal_cdf,
                      normal_quantile)
from .mixing import (Degenerate, Exponential, Gamma, Gig, InverseGaussian,
                     MixingLaw, MixingMoments, MomentError, skew_condition)
from .nmvm import (NmvmModel, NotSpdError, PortfolioMoments, TransformedModel,
                   UnivariateMixture, factorize, portfolio_moments, project,
                   skew_derivative, transform)
from .risk import (RiskResult, TwoPointCoefficients, YaLaw, cdf_ya, cvar_ya,
                   cvar_via_F, density_ya, h, mc_risk, portfolio_risk_exact,
                   portfolio_risk_piecewise, portfolio_risk_two_point,
                   risk_ya, risk_ya_and_slope, rockafellar_F,
                   two_point_coefficients, var_ya)
from .optimize import (DegenerateConstraintsError, FrontierPoint,
                       HypothesisCheck, QuadraticSolution, ReducedSolution,
                       check_skew_monotonicity, frontier,
                       solve_mean_risk_reduced, solve_mean_risk_skew)
from .fit import (EMError, FitConfig, FitResult, ModelFileError,
                  PriceFileError, ReturnsMatrix, load_model, load_prices,
                  mcecm_fit, save_model, summarize)

__version__ = "0.1.0"
